//! Per-thread private views of the logical shared space.

use crate::diff::{ModRun, Runs};
use crate::page::Page;
use rfdet_api::Addr;

/// A thread-private, paged view of the logical shared memory space.
///
/// Pages are materialized lazily: an absent page reads as zeros, and the
/// first write allocates it. A page the space wrote since its last fork
/// is exclusively owned and stored to at memory speed; [`fork`](Self::fork)
/// — the one way to duplicate a space — turns every page shared
/// copy-on-write, so the child inherits the parent's memory at cost
/// O(pages), without copying data.
#[derive(Debug)]
pub struct PrivateSpace {
    /// Page index → 1 + the page's position in `bufs`; 0 for a page not
    /// materialized. Four bytes a page, so a fork — the lockstep engines
    /// fork their global store once per thread per phase — copies a
    /// quarter of what a table of pointers would.
    table: Vec<u32>,
    /// The materialized pages, in first-write order.
    bufs: Vec<Page>,
    page_size: usize,
    shift: u32,
}

impl PrivateSpace {
    /// Creates an empty (all-zero) space of `space_bytes` with pages of
    /// `page_size` bytes (a power of two dividing `space_bytes`).
    #[must_use]
    pub fn new(space_bytes: u64, page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            space_bytes.is_multiple_of(page_size),
            "space must be page-aligned"
        );
        let n = space_bytes / page_size;
        assert!(
            u32::try_from(n).is_ok(),
            "page count exceeds the page table's index width"
        );
        Self {
            table: vec![0; n as usize],
            bufs: Vec::new(),
            page_size: page_size as usize,
            shift: page_size.trailing_zeros(),
        }
    }

    /// Forks this space for a child thread (COW inheritance): the result
    /// reads exactly what `self` reads now, and a later write on either
    /// side is invisible to the other. Every materialized page of `self`
    /// becomes shared, so each side's next write to a page copies it (or,
    /// once the other side is gone, takes it back without copying).
    #[must_use]
    pub fn fork(&mut self) -> Self {
        Self {
            table: self.table.clone(),
            bufs: self.bufs.iter_mut().map(Page::share).collect(),
            page_size: self.page_size,
            shift: self.shift,
        }
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of pages (materialized or not).
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.table.len()
    }

    /// Page handles this space holds, shared ones included: a forked child
    /// counts its parent's pages, so this is an upper bound on its own.
    #[must_use]
    pub fn materialized_pages(&self) -> usize {
        self.bufs.len()
    }

    /// The page index containing `addr`.
    #[inline]
    #[must_use]
    pub fn page_of(&self, addr: Addr) -> usize {
        (addr >> self.shift) as usize
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    #[must_use]
    pub fn page_offset(&self, addr: Addr) -> usize {
        (addr as usize) & (self.page_size - 1)
    }

    /// First address of page `idx`.
    #[inline]
    #[must_use]
    pub fn page_base(&self, idx: usize) -> Addr {
        (idx as Addr) << self.shift
    }

    /// Read-only view of page `idx` if materialized.
    #[must_use]
    pub fn page(&self, idx: usize) -> Option<&Page> {
        match *self.table.get(idx)? {
            0 => None,
            slot => Some(&self.bufs[slot as usize - 1]),
        }
    }

    /// Snapshot of page `idx` (zeros if not materialized).
    #[must_use]
    pub fn snapshot_page(&self, idx: usize) -> Box<[u8]> {
        match self.page(idx) {
            Some(p) => p.snapshot(),
            None => vec![0; self.page_size].into(),
        }
    }

    /// Snapshots page `idx` into a caller-provided page-sized buffer —
    /// the allocation-free path used by the snapshot buffer pool.
    ///
    /// # Panics
    /// Panics if `buf` is not exactly one page long.
    pub fn snapshot_page_into(&self, idx: usize, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size, "snapshot buffer size mismatch");
        match self.page(idx) {
            Some(p) => buf.copy_from_slice(p.bytes()),
            None => buf.fill(0),
        }
    }

    /// Asserts that `len` bytes at `addr` lie within the space.
    ///
    /// # Panics
    /// Panics if they do not — the one out-of-bounds message of every
    /// backend built on this space, load or store.
    pub fn check_range(&self, addr: Addr, len: usize) {
        let space = (self.table.len() * self.page_size) as u64;
        assert!(
            addr.checked_add(len as u64).is_some_and(|end| end <= space),
            "shared-memory access out of bounds: addr={addr:#x} len={len} space={space:#x}"
        );
    }

    /// The access path's one bounds decision: `Some((page, offset))` iff
    /// the `len` bytes at `addr` are a non-empty range inside one page of
    /// this space. `None` — empty, page-straddling or out of range — sends
    /// the caller to its slow path, which starts with
    /// [`check_range`](Self::check_range).
    #[inline]
    #[must_use]
    pub fn in_page(&self, addr: Addr, len: usize) -> Option<(usize, usize)> {
        let (idx, off) = (self.page_of(addr), self.page_offset(addr));
        (len != 0 && off + len <= self.page_size && idx < self.table.len()).then_some((idx, off))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    #[inline]
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        match self.in_page(addr, buf.len()) {
            Some((idx, off)) => self.read_page(idx, off, buf),
            None => self.read_straddling(addr, buf),
        }
    }

    /// Reads `buf.len()` bytes at byte `off` of page `idx` (zeros if the
    /// page is not materialized): the load known to stay within one page,
    /// as [`in_page`](Self::in_page) decides.
    ///
    /// # Panics
    /// Panics if `idx` is not a page of this space or `off + buf.len()`
    /// exceeds the page.
    #[inline]
    pub fn read_page(&self, idx: usize, off: usize, buf: &mut [u8]) {
        match self.table[idx] {
            0 => buf.fill(0),
            slot => copy_access(
                buf,
                &self.bufs[slot as usize - 1].bytes()[off..off + buf.len()],
            ),
        }
    }

    #[cold]
    fn read_straddling(&self, mut addr: Addr, mut buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        while !buf.is_empty() {
            let off = self.page_offset(addr);
            let n = buf.len().min(self.page_size - off);
            let (head, tail) = buf.split_at_mut(n);
            self.read_page(self.page_of(addr), off, head);
            buf = tail;
            addr += n as u64;
        }
    }

    /// Writes `data` starting at `addr`, materializing pages as needed.
    #[inline]
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        match self.in_page(addr, data.len()) {
            Some((idx, off)) => self.write_page(idx, off, data),
            None => self.write_straddling(addr, data),
        }
    }

    /// Writes `data` at byte `off` of page `idx`, materializing the page:
    /// the store known to stay within one page, as
    /// [`in_page`](Self::in_page) decides.
    ///
    /// # Panics
    /// Panics if `idx` is not a page of this space or `off + data.len()`
    /// exceeds the page.
    #[inline]
    pub fn write_page(&mut self, idx: usize, off: usize, data: &[u8]) {
        let bytes = self.ensure_page(idx).bytes_mut();
        copy_access(&mut bytes[off..off + data.len()], data);
    }

    #[cold]
    fn write_straddling(&mut self, mut addr: Addr, mut data: &[u8]) {
        self.check_range(addr, data.len());
        while !data.is_empty() {
            let off = self.page_offset(addr);
            let n = data.len().min(self.page_size - off);
            self.write_page(self.page_of(addr), off, &data[..n]);
            data = &data[n..];
            addr += n as u64;
        }
    }

    /// Applies runs in order — later runs overwrite earlier ones at
    /// conflicting addresses, the deterministic "remote wins" policy. This
    /// is the `copyToLocalMemory` step of paper Figure 5.
    ///
    /// Batched per page: a page is resolved (and, under COW sharing,
    /// copied) only when the page index changes from the run before —
    /// once per slice per page, as diffing emits runs address-sorted.
    /// Returns the total bytes written.
    pub fn apply<R: Runs + ?Sized>(&mut self, runs: &R) -> u64 {
        let mut applied: u64 = 0;
        // (page index, its position in `bufs`) of the last resolved page.
        let mut last = (usize::MAX, 0);
        for (addr, data) in runs.iter_runs() {
            applied += data.len() as u64;
            let Some((idx, off)) = self.in_page(addr, data.len()) else {
                self.write(addr, data);
                continue;
            };
            if idx != last.0 {
                self.ensure_page(idx);
                last = (idx, self.table[idx] as usize - 1);
            }
            self.bufs[last.1].bytes_mut()[off..off + data.len()].copy_from_slice(data);
        }
        applied
    }

    /// [`apply`](Self::apply) for boxed runs. No runtime calls it: its
    /// callers are the frozen benchmark's `mem.apply_*` probes and the
    /// tests; it goes with the next benchmark revision (ROADMAP item
    /// 8(v)).
    pub fn apply_runs(&mut self, runs: &[ModRun]) -> u64 {
        self.apply(runs)
    }

    #[inline]
    fn ensure_page(&mut self, idx: usize) -> &mut Page {
        if self.table[idx] == 0 {
            self.bufs.push(Page::zeroed(self.page_size));
            self.table[idx] = self.bufs.len() as u32;
        }
        &mut self.bufs[self.table[idx] as usize - 1]
    }

    /// Iterates the indices of materialized pages.
    pub fn materialized_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != 0)
            .map(|(i, _)| i)
    }
}

/// `dst ← src` (equal lengths) with the scalar widths — what nearly every
/// instrumented access is — as fixed-size moves the compiler turns into
/// one load and one store, where a variable-length copy is a call.
#[inline(always)]
fn copy_access(dst: &mut [u8], src: &[u8]) {
    #[inline(always)]
    fn fixed<const N: usize>(dst: &mut [u8], src: &[u8]) {
        let (d, s): (&mut [u8; N], &[u8; N]) = (
            dst.try_into().expect("width matched"),
            src.try_into().expect("equal lengths"),
        );
        *d = *s;
    }
    match dst.len() {
        8 => fixed::<8>(dst, src),
        4 => fixed::<4>(dst, src),
        2 => fixed::<2>(dst, src),
        1 => fixed::<1>(dst, src),
        _ => dst.copy_from_slice(src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunList;

    const SPACE_BYTES: u64 = 64 * 1024;

    fn space() -> PrivateSpace {
        PrivateSpace::new(SPACE_BYTES, 4096)
    }

    #[test]
    fn fresh_space_reads_zero() {
        let s = space();
        let mut buf = [0xFFu8; 16];
        s.read(100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.materialized_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = space();
        s.write(123, b"hello world");
        let mut buf = [0u8; 11];
        s.read(123, &mut buf);
        assert_eq!(&buf, b"hello world");
        assert_eq!(s.materialized_pages(), 1);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut s = space();
        let addr = 4096 - 3;
        s.write(addr, b"abcdef");
        let mut buf = [0u8; 6];
        s.read(addr, &mut buf);
        assert_eq!(&buf, b"abcdef");
        assert_eq!(s.materialized_pages(), 2);
        // Each half landed on the right page.
        assert_eq!(s.page(0).unwrap().bytes()[4093..], *b"abc");
        assert_eq!(s.page(1).unwrap().bytes()[..3], *b"def");
    }

    #[test]
    fn in_page_is_the_non_empty_single_page_accesses_of_the_space() {
        let s = space();
        assert_eq!(s.in_page(0, 1), Some((0, 0)));
        assert_eq!(s.in_page(4088, 8), Some((0, 4088)), "ends at the page end");
        assert_eq!(s.in_page(SPACE_BYTES - 1, 1), Some((15, 4095)));
        assert_eq!(s.in_page(100, 0), None, "empty");
        assert_eq!(s.in_page(4089, 8), None, "straddles");
        assert_eq!(s.in_page(SPACE_BYTES, 1), None, "first byte past the end");
        assert_eq!(s.in_page(u64::MAX - 3, 4), None, "far past the end");
    }

    #[test]
    fn fork_inherits_and_isolates() {
        let mut parent = space();
        parent.write(0, &[1, 2, 3]);
        let mut child = parent.fork();
        let mut buf = [0u8; 3];
        child.read(0, &mut buf);
        assert_eq!(buf, [1, 2, 3], "child inherits parent memory");

        child.write(0, &[9]);
        parent.read(0, &mut buf);
        assert_eq!(buf, [1, 2, 3], "parent does not see child writes");
        child.read(0, &mut buf);
        assert_eq!(buf, [9, 2, 3]);

        parent.write(1, &[7]);
        child.read(0, &mut buf);
        assert_eq!(buf, [9, 2, 3], "child does not see parent writes");
    }

    #[test]
    fn snapshot_of_unmaterialized_page_is_zero() {
        let s = space();
        let snap = s.snapshot_page(3);
        assert_eq!(snap.len(), 4096);
        assert!(snap.iter().all(|&b| b == 0));
    }

    #[test]
    fn apply_runs_last_wins() {
        let mut s = space();
        let applied = s.apply_runs(&[
            ModRun::new(10, vec![1, 1, 1].into()),
            ModRun::new(11, vec![2].into()),
        ]);
        assert_eq!(applied, 4);
        let mut buf = [0u8; 3];
        s.read(10, &mut buf);
        assert_eq!(buf, [1, 2, 1]);
    }

    #[test]
    fn apply_runs_batches_across_pages_and_straddles() {
        let mut s = space();
        // Two runs on page 0, one straddling pages 1/2, one on page 3.
        let applied = s.apply_runs(&[
            ModRun::new(0, vec![1].into()),
            ModRun::new(100, vec![2, 2].into()),
            ModRun::new(2 * 4096 - 1, vec![3, 4].into()),
            ModRun::new(3 * 4096 + 5, vec![5].into()),
        ]);
        assert_eq!(applied, 6);
        assert_eq!(s.page(0).unwrap().bytes()[0], 1);
        assert_eq!(s.page(0).unwrap().bytes()[100..102], [2, 2]);
        assert_eq!(s.page(1).unwrap().bytes()[4095], 3);
        assert_eq!(s.page(2).unwrap().bytes()[0], 4);
        assert_eq!(s.page(3).unwrap().bytes()[5], 5);
        assert_eq!(s.materialized_pages(), 4);
    }

    #[test]
    fn apply_runs_matches_writing_them_one_by_one() {
        let runs = vec![
            ModRun::new(4090, vec![7; 3].into()),
            ModRun::new(4096, vec![8; 2].into()),
            ModRun::new(4100, vec![9].into()),
        ];
        let mut batched = space();
        batched.apply_runs(&runs);
        let mut serial = space();
        for r in &runs {
            serial.write(r.addr, &r.data);
        }
        let (mut a, mut b) = (vec![0u8; 2 * 4096], vec![0u8; 2 * 4096]);
        batched.read(0, &mut a);
        serial.read(0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn a_128_kib_page_run_crossing_a_window_is_cut_and_applies_identically() {
        let page = 128 * 1024;
        let old = vec![0u8; page];
        let mut new = old.clone();
        new[65530..65540].fill(3);
        let mut runs = Vec::new();
        crate::diff::diff_page(page as u64, &old, &new, &mut runs);
        assert_eq!(runs.len(), 1, "diffing makes one run");
        let list = RunList::pack(&runs);
        let cut: Vec<(Addr, usize)> = list.iter_runs().map(|(a, d)| (a, d.len())).collect();
        let edge = page as u64 + 65536;
        assert_eq!(
            cut,
            vec![(edge - 6, 6), (edge, 4)],
            "cut at the window edge"
        );
        let (mut packed, mut boxed) = (
            PrivateSpace::new(2 * page as u64, page as u64),
            PrivateSpace::new(2 * page as u64, page as u64),
        );
        assert_eq!((packed.apply(&list), boxed.apply_runs(&runs)), (10, 10));
        assert_eq!(packed.page(1).unwrap().bytes(), &new[..]);
        assert_eq!(
            packed.page(1).unwrap().bytes(),
            boxed.page(1).unwrap().bytes()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_runs_out_of_bounds_panics() {
        let mut s = space();
        s.apply_runs(&[ModRun::new(SPACE_BYTES - 1, vec![1, 2].into())]);
    }

    #[test]
    fn snapshot_into_matches_snapshot() {
        let mut s = space();
        s.write(4096 + 17, &[9, 8, 7]);
        let mut buf = vec![0xAAu8; 4096];
        s.snapshot_page_into(1, &mut buf);
        assert_eq!(&*s.snapshot_page(1), &buf[..]);
        // Unmaterialized page zero-fills the reused buffer.
        s.snapshot_page_into(2, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn snapshot_into_rejects_wrong_size() {
        let s = space();
        let mut buf = vec![0u8; 100];
        s.snapshot_page_into(0, &mut buf);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let s = space();
        let mut buf = [0u8; 1];
        s.read(64 * 1024, &mut buf);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn straddling_end_write_panics() {
        let mut s = space();
        s.write(64 * 1024 - 2, &[0; 4]);
    }

    #[test]
    fn materialized_indices_reports_written_pages() {
        let mut s = space();
        s.write(0, &[1]);
        s.write(3 * 4096, &[1]);
        let idx: Vec<_> = s.materialized_indices().collect();
        assert_eq!(idx, vec![0, 3]);
    }
}
