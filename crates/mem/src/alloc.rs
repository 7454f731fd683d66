//! The deterministic shared allocator (paper §4.4 "Memory Allocation").
//!
//! Because each "thread" has an isolated view of the same logical address
//! space, the allocator must never hand the same address to two threads —
//! "dynamic memory allocations in different threads may cause memory
//! address conflicts". The paper solves this with a modified Hoard storing
//! its metadata in the shared metadata space. We solve it statically: the
//! heap area is partitioned into [`MAX_HEAP_THREADS`] equal strips, and
//! thread *t* allocates exclusively from strip *t* (size-classed free
//! lists + a bump pointer). This is deterministic with **zero**
//! cross-thread coordination, which also keeps allocation off the Kendo
//! arbitration path.

use rfdet_api::trace::{CkptFreeList, CkptHeap};
use rfdet_api::Addr;
use std::collections::HashMap;

/// Number of heap strips (upper bound on concurrently allocating threads).
pub const MAX_HEAP_THREADS: u32 = 256;

const MIN_CLASS_LOG: u32 = 4; // 16-byte minimum allocation

/// Describes the static partition of the heap area.
#[derive(Clone, Copy, Debug)]
pub struct StripAllocator {
    base: Addr,
    strip_size: u64,
}

impl StripAllocator {
    /// Partitions `[base, base + size)` into [`MAX_HEAP_THREADS`] strips.
    #[must_use]
    pub fn new(base: Addr, size: u64) -> Self {
        let strip_size = size / u64::from(MAX_HEAP_THREADS);
        assert!(strip_size >= 1 << MIN_CLASS_LOG, "heap area too small");
        Self { base, strip_size }
    }

    /// The strip (thread heap) for deterministic thread ID `tid`.
    ///
    /// # Panics
    /// Panics if `tid >= MAX_HEAP_THREADS`.
    #[must_use]
    pub fn heap_for(&self, tid: u32) -> ThreadHeap {
        assert!(
            tid < MAX_HEAP_THREADS,
            "thread id {tid} exceeds allocator strip count {MAX_HEAP_THREADS}"
        );
        let start = self.base + u64::from(tid) * self.strip_size;
        ThreadHeap {
            start,
            cursor: start,
            end: start + self.strip_size,
            free: HashMap::new(),
            live: HashMap::new(),
            allocated_bytes: 0,
        }
    }

    /// Bytes available per thread strip.
    #[must_use]
    pub fn strip_size(&self) -> u64 {
        self.strip_size
    }
}

/// A single thread's allocator state over its strip.
///
/// Size-classed (powers of two, 16-byte minimum): frees go to per-class
/// free lists and are reused LIFO, so the address sequence produced by any
/// deterministic program is itself deterministic.
#[derive(Debug)]
pub struct ThreadHeap {
    start: Addr,
    cursor: Addr,
    end: Addr,
    free: HashMap<u32, Vec<Addr>>,
    live: HashMap<Addr, u32>,
    allocated_bytes: u64,
}

fn class_log(size: u64) -> u32 {
    size.max(1 << MIN_CLASS_LOG)
        .next_power_of_two()
        .trailing_zeros()
}

impl ThreadHeap {
    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    /// Panics if the strip is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "zero-size allocation");
        let cls = class_log(size.max(align));
        if let Some(addr) = self.free.get_mut(&cls).and_then(Vec::pop) {
            self.live.insert(addr, cls);
            self.allocated_bytes += 1 << cls;
            return addr;
        }
        let block = 1u64 << cls;
        let addr = self.cursor.next_multiple_of(block);
        assert!(
            addr + block <= self.end,
            "thread heap strip exhausted: need {block} bytes, {} left \
             (increase RunConfig::space_bytes)",
            self.end.saturating_sub(self.cursor)
        );
        self.cursor = addr + block;
        self.live.insert(addr, cls);
        self.allocated_bytes += block;
        addr
    }

    /// Frees a block previously returned by [`ThreadHeap::alloc`] **on this
    /// same heap**.
    ///
    /// # Panics
    /// Panics on double-free or on an address this heap never produced.
    pub fn dealloc(&mut self, addr: Addr) {
        let cls = self
            .live
            .remove(&addr)
            .unwrap_or_else(|| panic!("free of unallocated address {addr:#x}"));
        self.allocated_bytes -= 1u64 << cls;
        self.free.entry(cls).or_default().push(addr);
    }

    /// Bytes currently allocated from this strip.
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// The allocator state in canonical order, in the checkpoint's own
    /// form: free lists ascending by class with their LIFO order
    /// preserved (reuse order is allocation-visible), live blocks
    /// ascending by address.
    #[must_use]
    pub fn export_state(&self) -> CkptHeap {
        let mut free: Vec<CkptFreeList> = self
            .free
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&class, addrs)| CkptFreeList {
                class,
                addrs: addrs.clone(),
            })
            .collect();
        free.sort_unstable_by_key(|list| list.class);
        let mut live: Vec<(Addr, u32)> = self.live.iter().map(|(&a, &c)| (a, c)).collect();
        live.sort_unstable();
        CkptHeap {
            cursor: self.cursor,
            allocated_bytes: self.allocated_bytes,
            free,
            live,
        }
    }

    /// Overwrites this heap's state with an exported snapshot. The heap
    /// must be the same strip the snapshot was taken from (the cursor
    /// must land inside it) — restoring reproduces the exact address
    /// sequence the checkpointed run would have continued with.
    ///
    /// # Panics
    /// Panics when the snapshot cursor falls outside this strip.
    pub fn restore_state(&mut self, s: &CkptHeap) {
        assert!(
            s.cursor >= self.start && s.cursor <= self.end,
            "heap snapshot cursor {:#x} outside strip [{:#x}, {:#x})",
            s.cursor,
            self.start,
            self.end
        );
        self.cursor = s.cursor;
        self.allocated_bytes = s.allocated_bytes;
        self.free = s.free.iter().map(|l| (l.class, l.addrs.clone())).collect();
        self.live = s.live.iter().copied().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> ThreadHeap {
        // 16 MiB over 256 strips → 64 KiB per thread heap.
        StripAllocator::new(1 << 20, 16 << 20).heap_for(0)
    }

    /// `RunConfig::validate` rejects spaces below `MIN_SPACE_BYTES` so
    /// that `StripAllocator::new` never panics inside a run; the constant
    /// lives in `rfdet-api` (which this crate depends on), the
    /// arithmetic it summarises lives here.
    #[test]
    fn min_space_bytes_gives_each_strip_exactly_one_minimum_allocation() {
        let min = rfdet_api::MIN_SPACE_BYTES;
        let heap = |space: u64| space - crate::heap_base(space);
        assert_eq!(
            StripAllocator::new(0, heap(min)).strip_size(),
            1 << MIN_CLASS_LOG
        );
        // The next smaller even space (any page size ≥ 2) is too small.
        assert!(heap(min - 2) / u64::from(MAX_HEAP_THREADS) < 1 << MIN_CLASS_LOG);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut h = heap();
        let a = h.alloc(24, 8);
        let b = h.alloc(24, 8);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        // 24 rounds to class 32
        assert!(b >= a + 32 || a >= b + 32);
    }

    #[test]
    fn different_tids_get_disjoint_strips() {
        let sa = StripAllocator::new(0, 1 << 20);
        let mut h0 = sa.heap_for(0);
        let mut h1 = sa.heap_for(1);
        let a = h0.alloc(64, 8);
        let b = h1.alloc(64, 8);
        assert!(a < sa.strip_size());
        assert!((sa.strip_size()..2 * sa.strip_size()).contains(&b));
    }

    #[test]
    fn free_then_alloc_reuses_address() {
        let mut h = heap();
        let a = h.alloc(100, 8);
        h.dealloc(a);
        let b = h.alloc(100, 8);
        assert_eq!(a, b, "LIFO reuse keeps addresses deterministic");
    }

    #[test]
    fn allocation_sequence_is_deterministic() {
        let run = || {
            let mut h = heap();
            let mut addrs = Vec::new();
            for i in 1..50u64 {
                addrs.push(h.alloc(i * 7 % 200 + 1, 8));
                if i % 3 == 0 {
                    let victim = addrs.remove((i as usize) % addrs.len());
                    h.dealloc(victim);
                }
            }
            addrs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn large_alignment_respected() {
        let mut h = heap();
        let a = h.alloc(8, 4096);
        assert_eq!(a % 4096, 0);
    }

    #[test]
    fn allocated_bytes_tracks() {
        let mut h = heap();
        let a = h.alloc(16, 8);
        assert_eq!(h.allocated_bytes(), 16);
        let b = h.alloc(17, 8); // class 32
        assert_eq!(h.allocated_bytes(), 48);
        h.dealloc(a);
        assert_eq!(h.allocated_bytes(), 32);
        h.dealloc(b);
        assert_eq!(h.allocated_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "free of unallocated")]
    fn double_free_panics() {
        let mut h = heap();
        let a = h.alloc(16, 8);
        h.dealloc(a);
        h.dealloc(a);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let sa = StripAllocator::new(0, (1 << MIN_CLASS_LOG as u64) * u64::from(MAX_HEAP_THREADS));
        let mut h = sa.heap_for(0);
        h.alloc(16, 8);
        h.alloc(16, 8);
    }

    #[test]
    #[should_panic(expected = "strip count")]
    fn tid_out_of_range_panics() {
        let _ = StripAllocator::new(0, 1 << 20).heap_for(MAX_HEAP_THREADS);
    }

    #[test]
    fn export_restore_reproduces_the_address_sequence() {
        let sa = StripAllocator::new(1 << 20, 16 << 20);
        let mut h = sa.heap_for(3);
        let mut addrs = Vec::new();
        for i in 1..40u64 {
            addrs.push(h.alloc(i * 13 % 300 + 1, 8));
            if i % 4 == 0 {
                h.dealloc(addrs.remove(i as usize % addrs.len()));
            }
        }
        let state = h.export_state();
        // Continue on the original and on a freshly restored heap: the
        // address sequences must be identical (free-list LIFO order and
        // the cursor both survive the round trip).
        let continue_run = |h: &mut ThreadHeap| {
            let mut out = Vec::new();
            for i in 1..20u64 {
                out.push(h.alloc(i * 29 % 500 + 1, 16));
            }
            out
        };
        let mut restored = sa.heap_for(3);
        restored.restore_state(&state);
        assert_eq!(restored.export_state(), state, "round trip is exact");
        assert_eq!(continue_run(&mut h), continue_run(&mut restored));
    }

    #[test]
    #[should_panic(expected = "outside strip")]
    fn restore_into_wrong_strip_panics() {
        let sa = StripAllocator::new(0, 16 << 20);
        let mut h0 = sa.heap_for(0);
        h0.alloc(64, 8);
        let state = h0.export_state();
        sa.heap_for(5).restore_state(&state);
    }
}
