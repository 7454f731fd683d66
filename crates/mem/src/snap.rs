//! Dirty-line slice tracking: the in-progress slice's snapshots.
//!
//! The paper's store instrumentation (§4.2, Figure 4) snapshots a whole
//! page at the first store to it in a slice and diffs the whole page at
//! the slice end. Compile-time instrumentation sees every store's address
//! and length, though, so the slice can pay per *line stored to* instead
//! of per page stored to: [`SliceSnapshots`] keeps one `u64` dirty-line
//! mask per page, copies a line into the page's snapshot buffer the first
//! time a store touches it, and at [`seal`](SliceSnapshots::seal) diffs
//! only the dirty lines. Because a clean line is byte-identical to its
//! pre-slice contents, the sealed run list equals the whole-page diff run
//! for run — the caller's obligation is that every mutation of a page
//! between its first recorded store and the seal is itself recorded.
//!
//! A full mask ([`SliceSnapshots::full_mask`]) degenerates to the paper's
//! whole-page snapshot and scan; that is what `pf` monitoring records,
//! since a protection fault reveals the page but not the bytes, and what
//! the lockstep engine records at a page's first store in an interval,
//! the twin DThreads takes at its `mprotect` fault.

use crate::bit_spans;
use crate::diff::{diff_lines, RunBuilder};
use crate::space::PrivateSpace;

/// Shortest dirty line, in bytes: one cache line. Pages up to 4 KiB get
/// 64-byte lines; larger pages get `page_size / 64` so the mask stays one
/// word.
const MIN_LINE_BYTES: usize = 64;

/// Page buffers a thread's [`SliceSnapshots`] keeps across seals, so
/// steady-state slices open page snapshots with zero allocations; one
/// bound for the DLRC core and the lockstep engine alike. The pool itself
/// is measured as needed (`page-sparse` is 2.3× slower without it,
/// DESIGN.md §4.6); nothing has needed a second size.
pub const SNAP_POOL_PAGES: usize = 256;

/// What [`SliceSnapshots::record`] did, for the caller's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recorded {
    /// Snapshot bytes copied (a whole number of lines).
    pub bytes_copied: u64,
    /// `Some` iff this was the page's first recorded store of the slice;
    /// the value says whether its buffer was recycled (`true`) or freshly
    /// allocated.
    pub first_touch: Option<bool>,
}

/// The open slice's page snapshots at dirty-line granularity, with the
/// recycled buffers they live in.
#[derive(Debug)]
pub struct SliceSnapshots {
    page_size: usize,
    line_shift: u32,
    full_mask: u64,
    /// Per page: the lines snapshotted in the open slice (0 = page not
    /// stored to).
    masks: Vec<u64>,
    /// Per page: index into `bufs` of the page's snapshot buffer;
    /// meaningful only while the page's mask is nonzero.
    slots: Vec<u32>,
    /// Pages with a nonzero mask, in first-touch order (sorted at seal).
    dirty: Vec<u32>,
    /// Page-sized buffers. The first `dirty.len()` hold the open slice's
    /// snapshots — only the dirty lines of each are meaningful, at their
    /// own offsets — and the rest are free for reuse.
    bufs: Vec<Box<[u8]>>,
    /// Buffers kept across a seal.
    pool_cap: usize,
}

impl SliceSnapshots {
    /// An empty tracker for a space of `num_pages` pages of `page_size`
    /// bytes (a power of two) that recycles up to `pool_cap` buffers.
    #[must_use]
    pub fn new(num_pages: usize, page_size: usize, pool_cap: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            u32::try_from(num_pages).is_ok(),
            "page count exceeds the dirty-page table's index width"
        );
        let line_bytes = MIN_LINE_BYTES
            .max(page_size / u64::BITS as usize)
            .min(page_size);
        let lines = page_size / line_bytes;
        Self {
            page_size,
            line_shift: line_bytes.trailing_zeros(),
            full_mask: u64::MAX >> (u64::BITS as usize - lines),
            masks: vec![0; num_pages],
            slots: vec![0; num_pages],
            dirty: Vec::new(),
            bufs: Vec::new(),
            pool_cap,
        }
    }

    /// An empty tracker for `space`'s pages that recycles up to
    /// [`SNAP_POOL_PAGES`] buffers.
    #[must_use]
    pub fn for_space(space: &PrivateSpace) -> Self {
        Self::new(space.num_pages(), space.page_size(), SNAP_POOL_PAGES)
    }

    /// Bytes per dirty line: `max(64, page_size / 64)`, clipped to the
    /// page.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    /// The mask naming every line of a page.
    #[must_use]
    pub fn full_mask(&self) -> u64 {
        self.full_mask
    }

    /// `true` iff `page` has a snapshot in the open slice.
    #[inline]
    #[must_use]
    pub fn is_open(&self, page: usize) -> bool {
        self.masks[page] != 0
    }

    /// Pages stored to in the open slice.
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// The lines a store of `len > 0` bytes at byte `off` of `page` touches
    /// that are not snapshotted yet. Zero — the common case — means the
    /// store needs no [`record`](Self::record).
    #[inline]
    #[must_use]
    pub fn missing_lines(&self, page: usize, off: usize, len: usize) -> u64 {
        debug_assert!(len > 0, "a zero-length store touches no line");
        let first = off >> self.line_shift;
        let last = (off + len - 1) >> self.line_shift;
        let touched = (u64::MAX >> (u64::BITS as usize - 1 - (last - first))) << first;
        touched & !self.masks[page]
    }

    /// Snapshots the lines of `need` (none of them snapshotted yet) from
    /// `current`, the page's bytes before the store lands — `None` for a
    /// page not materialized, which reads as zeros.
    pub fn record(&mut self, page: usize, need: u64, current: Option<&[u8]>) -> Recorded {
        debug_assert_eq!(need & self.masks[page], 0, "line snapshotted twice");
        debug_assert_eq!(need & !self.full_mask, 0, "line beyond the page");
        let first_touch = (self.masks[page] == 0).then(|| {
            let slot = self.dirty.len();
            self.slots[page] = slot as u32;
            self.dirty.push(page as u32);
            let recycled = slot < self.bufs.len();
            if !recycled {
                self.bufs.push(vec![0; self.page_size].into());
            }
            recycled
        });
        self.masks[page] |= need;
        let buf = &mut self.bufs[self.slots[page] as usize];
        let mut bytes_copied = 0;
        for (first, end) in bit_spans(need) {
            let (lo, hi) = (first << self.line_shift, end << self.line_shift);
            match current {
                Some(cur) => buf[lo..hi].copy_from_slice(&cur[lo..hi]),
                None => buf[lo..hi].fill(0),
            }
            bytes_copied += (hi - lo) as u64;
        }
        Recorded {
            bytes_copied,
            first_touch,
        }
    }

    /// Marks the lines of `need` as recorded without copying them, for a
    /// slice that will be [`forget`](Self::forget)-ed rather than sealed:
    /// later stores to them find them recorded and pay nothing. A slice
    /// either records or marks, never both.
    pub fn mark(&mut self, page: usize, need: u64) {
        if self.masks[page] == 0 {
            self.dirty.push(page as u32);
        }
        self.masks[page] |= need;
    }

    /// Ends a slice without diffing it: forgets its marks and snapshots.
    pub fn forget(&mut self) {
        for &page in &self.dirty {
            self.masks[page as usize] = 0;
        }
        self.dirty.clear();
    }

    /// Ends the slice: diffs the dirty lines of every stored-to page of
    /// `space` against their snapshots, in page-index order, packing the
    /// runs into `out`; then forgets the slice and recycles its buffers.
    /// Returns the bytes compared.
    pub fn seal(&mut self, space: &PrivateSpace, out: &mut RunBuilder) -> u64 {
        // Page-index order is the deterministic modification order within
        // a slice.
        self.dirty.sort_unstable();
        let mut scanned = 0;
        for &page in &self.dirty {
            let page = page as usize;
            let mask = std::mem::take(&mut self.masks[page]);
            // A recorded page is always materialized by the store that
            // followed the record; a caller that recorded without storing
            // changed nothing.
            if let Some(current) = space.page(page) {
                scanned += diff_lines(
                    space.page_base(page),
                    &self.bufs[self.slots[page] as usize],
                    current.bytes(),
                    mask,
                    self.line_bytes(),
                    |addr, data| out.push(addr, data),
                );
            }
        }
        self.dirty.clear();
        self.bufs.truncate(self.pool_cap);
        scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_page_scalar, ModRun, Runs};

    const PAGE: usize = 4096;

    fn space() -> PrivateSpace {
        PrivateSpace::new(16 * PAGE as u64, PAGE as u64)
    }

    /// Seals the slice; its runs come back boxed, with the bytes scanned.
    fn seal(snaps: &mut SliceSnapshots, space: &PrivateSpace) -> (Vec<ModRun>, u64) {
        let mut out = RunBuilder::default();
        let scanned = snaps.seal(space, &mut out);
        let runs = out.finish().map_or_else(Vec::new, |list| {
            list.iter_runs()
                .map(|(addr, data)| ModRun::new(addr, data.into()))
                .collect()
        });
        (runs, scanned)
    }

    /// Stores through the tracker the way the runtime does.
    fn store(snaps: &mut SliceSnapshots, space: &mut PrivateSpace, addr: u64, data: &[u8]) -> u64 {
        let page = space.page_of(addr);
        let off = addr as usize % PAGE;
        let need = snaps.missing_lines(page, off, data.len());
        let mut copied = 0;
        if need != 0 {
            let cur = space.page(page).map(crate::Page::bytes);
            copied = snaps.record(page, need, cur).bytes_copied;
        }
        space.write(addr, data);
        copied
    }

    #[test]
    fn line_size_follows_page_size() {
        for (page, line) in [(32, 32), (64, 64), (256, 64), (4096, 64), (65536, 1024)] {
            let s = SliceSnapshots::new(4, page, 0);
            assert_eq!(s.line_bytes(), line, "page {page}");
            assert_eq!(
                s.full_mask().count_ones() as usize * line,
                page,
                "page {page}"
            );
        }
    }

    #[test]
    fn one_store_copies_and_scans_one_line() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 8), space());
        assert_eq!(store(&mut snaps, &mut sp, 100, &[7; 8]), 64);
        assert_eq!(store(&mut snaps, &mut sp, 104, &[8; 8]), 0, "same line");
        let (out, scanned) = seal(&mut snaps, &sp);
        assert_eq!(scanned, 64);
        assert_eq!(
            out,
            vec![ModRun::new(
                100,
                [7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8].into()
            )]
        );
        assert_eq!(snaps.dirty_pages(), 0);
    }

    #[test]
    fn run_crossing_a_line_boundary_stays_one_run() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 8), space());
        assert_eq!(store(&mut snaps, &mut sp, 60, &[1; 8]), 128, "two lines");
        assert_eq!(store(&mut snaps, &mut sp, 124, &[2; 8]), 64, "one new line");
        let (out, scanned) = seal(&mut snaps, &sp);
        assert_eq!(scanned, 192);
        assert_eq!(
            out,
            vec![
                ModRun::new(60, vec![1; 8].into()),
                ModRun::new(124, vec![2; 8].into())
            ]
        );
    }

    #[test]
    fn pages_seal_in_index_order_and_masks_reset() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 8), space());
        store(&mut snaps, &mut sp, 5 * PAGE as u64, &[5]);
        store(&mut snaps, &mut sp, 2 * PAGE as u64 + 4095, &[2]);
        assert_eq!(snaps.dirty_pages(), 2);
        let (out, _) = seal(&mut snaps, &sp);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![2 * PAGE as u64 + 4095, 5 * PAGE as u64]);
        // Next slice: the same line is snapshotted afresh, post-store.
        assert_eq!(store(&mut snaps, &mut sp, 5 * PAGE as u64, &[5]), 64);
        assert!(
            seal(&mut snaps, &sp).0.is_empty(),
            "same-value overwrite publishes nothing"
        );
    }

    #[test]
    fn full_mask_is_the_whole_page_diff() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 8), space());
        sp.write(PAGE as u64, &[9; PAGE]);
        let before = sp.snapshot_page(1);
        let full = snaps.full_mask();
        let rec = snaps.record(1, full, sp.page(1).map(crate::Page::bytes));
        assert_eq!(rec.bytes_copied, PAGE as u64);
        assert_eq!(rec.first_touch, Some(false));
        assert_eq!(snaps.missing_lines(1, 4090, 6), 0);
        sp.write(PAGE as u64 + 10, &[1, 2, 3]);
        sp.write(PAGE as u64 + 4000, &[4]);
        let mut whole = Vec::new();
        let (sealed, scanned) = seal(&mut snaps, &sp);
        diff_page_scalar(
            PAGE as u64,
            &before,
            sp.page(1).expect("written").bytes(),
            &mut whole,
        );
        assert_eq!(scanned, PAGE as u64);
        assert_eq!(sealed, whole);
    }

    #[test]
    fn buffers_recycle_up_to_the_pool_cap() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 2), space());
        let mut firsts = Vec::new();
        for round in 0..2 {
            for page in 0..3u64 {
                let need = snaps.missing_lines(page as usize, 0, 1);
                firsts.push((round, snaps.record(page as usize, need, None).first_touch));
                sp.write(page * PAGE as u64, &[round + 1]);
            }
            seal(&mut snaps, &sp);
        }
        let recycled: Vec<bool> = firsts
            .iter()
            .map(|(_, f)| f.expect("first touch"))
            .collect();
        assert_eq!(recycled, [false, false, false, true, true, false]);
    }

    #[test]
    fn a_forgotten_slice_diffs_nothing_and_the_next_one_records_afresh() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 8), space());
        for addr in [100, 104, 5 * PAGE as u64] {
            let page = sp.page_of(addr);
            let need = snaps.missing_lines(page, addr as usize % PAGE, 8);
            if need != 0 {
                snaps.mark(page, need);
            }
            sp.write(addr, &[7; 8]);
        }
        assert_eq!(
            snaps.missing_lines(0, 100, 8),
            0,
            "marked lines are recorded"
        );
        assert_eq!(snaps.dirty_pages(), 2);
        snaps.forget();
        assert_eq!(snaps.dirty_pages(), 0);
        assert!(!snaps.is_open(5));
        // The marked bytes are the next slice's baseline: only the new
        // store diffs.
        assert_eq!(store(&mut snaps, &mut sp, 104, &[9; 2]), 64);
        assert_eq!(
            seal(&mut snaps, &sp),
            (vec![ModRun::new(104, [9, 9].into())], 64)
        );
    }

    #[test]
    fn unmaterialized_page_snapshots_as_zeros() {
        let (mut snaps, mut sp) = (SliceSnapshots::new(16, PAGE, 1), space());
        // Dirty the recycled buffer first, so stale bytes would show.
        store(&mut snaps, &mut sp, 0, &[0xFF; 64]);
        seal(&mut snaps, &sp);
        store(&mut snaps, &mut sp, 3 * PAGE as u64, &[0, 0, 6]);
        assert_eq!(
            seal(&mut snaps, &sp).0,
            vec![ModRun::new(3 * PAGE as u64 + 2, [6].into())]
        );
    }
}
