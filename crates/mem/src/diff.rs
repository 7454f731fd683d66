//! Byte-granularity page diffing (paper §4.2 "Monitoring Memory
//! Modifications" and §4.6 "Correctness of Page Diffing").
//!
//! At the end of each slice, the snapshotted part of every stored-to page
//! is compared with its current contents and runs of differing bytes are
//! packed into the slice's one [`RunList`] arena. A byte overwritten with
//! the *same* value produces no run — that is load-bearing: it implements
//! the paper's "prefer local writes when the remote write is redundant"
//! conflict policy (§4.6), and the modification granularity of one byte
//! matches the smallest C++ scalar.
//!
//! # The chunked, line-masked kernel
//!
//! Diffing is the per-slice fixed cost of DLRC (TreadMarks-style LRC
//! systems are historically diff-bandwidth-bound), so the kernel
//! ([`diff_lines`]) cuts it two ways. It scans only the *dirty lines* the
//! caller names in a `u64` mask — [`crate::SliceSnapshots`] passes the
//! lines the slice stored to; [`diff_page`] passes a full mask and scans
//! everything, which is the paper's whole-page `pf` behaviour. And within
//! a span of dirty lines it compares eight bytes at a time: a `u64` XOR of
//! snapshot and current words is zero iff the whole word is unchanged, and
//! when it is nonzero, `trailing_zeros / 8` (on the little-endian word
//! load) names the exact first differing byte — so run boundaries stay
//! byte-exact while the scan runs at word speed. The byte-at-a-time
//! whole-page [`diff_page_scalar`] is retained as the executable
//! specification; differential property tests pin both the full-mask and
//! the dirty-line results byte-for-byte equal to it.

use crate::bit_spans;
use rfdet_api::Addr;
use std::ops::Range;
use std::sync::Arc;

/// A contiguous run of modified bytes: "a write of the value `data` to
/// address `addr`" generalized to a run for compactness. Published slices
/// pack theirs into a [`RunList`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModRun {
    /// First modified address.
    pub addr: Addr,
    /// The new bytes.
    pub data: Box<[u8]>,
}

impl ModRun {
    /// Creates a run.
    ///
    /// Runs are never empty: diffing only materializes a run once it has
    /// found a differing byte.
    /// Downstream code (`mod_bytes` accounting,
    /// GC byte budgets) relies on that, so it is asserted here rather than
    /// documented away.
    #[must_use]
    pub fn new(addr: Addr, data: Box<[u8]>) -> Self {
        debug_assert!(!data.is_empty(), "empty ModRun constructed");
        Self { addr, data }
    }

    /// Number of modified bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `false` for every run built by [`ModRun::new`] (which rejects empty
    /// data in debug builds); present for container-idiom completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The exclusive end address of the run.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.addr + self.data.len() as u64
    }
}

/// Runs read as `(first address, new bytes)` pairs: the one view that
/// applying and race detection read, whether the runs are
/// boxed [`ModRun`]s or packed in a [`RunList`].
pub trait Runs {
    /// Number of runs.
    fn count(&self) -> usize;

    /// Run `i`.
    fn run(&self, i: usize) -> (Addr, &[u8]);

    /// Every run, in order.
    fn iter_runs(&self) -> impl Iterator<Item = (Addr, &[u8])> {
        (0..self.count()).map(|i| self.run(i))
    }

    /// Total modified bytes.
    fn byte_len(&self) -> usize {
        self.iter_runs().map(|(_, data)| data.len()).sum()
    }
}

/// Boxed runs as [`Runs`]. No runtime path holds boxed runs; this serves
/// [`PrivateSpace::apply_runs`](crate::PrivateSpace::apply_runs), the
/// frozen benchmark's probes and the property tests' [`diff_page_scalar`]
/// oracle (ROADMAP item 8(v)).
impl Runs for [ModRun] {
    fn count(&self) -> usize {
        self.len()
    }

    fn run(&self, i: usize) -> (Addr, &[u8]) {
        (self[i].addr, &self[i].data)
    }
}

/// Bytes per [`RunList`] table entry: `addr: u64, off: u32, len: u32`, LE.
const ENTRY: usize = 16;

/// A sealed slice's runs in one allocation: the runs' bytes back to back,
/// then one 16-byte entry per run. Its consumers (every acquiring
/// thread, transitive propagation) share it by `Arc`.
#[derive(Clone, Debug, Default)]
pub struct RunList {
    buf: Arc<[u8]>,
    runs: u32,
}

impl RunList {
    /// Packs boxed runs into one arena.
    #[must_use]
    pub fn pack(runs: &[ModRun]) -> Self {
        let mut b = RunBuilder::default();
        for r in runs {
            b.push(r.addr, &r.data);
        }
        b.finish().unwrap_or_default()
    }

    /// The arena's exact size: the modified bytes plus 16 per run.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.buf.len()
    }
}

impl Runs for RunList {
    fn count(&self) -> usize {
        self.runs as usize
    }

    #[inline]
    fn run(&self, i: usize) -> (Addr, &[u8]) {
        let e = &self.buf[self.byte_len() + ENTRY * i..][..ENTRY];
        let field = |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("u32")) as usize;
        let addr = u64::from_le_bytes(e[..8].try_into().expect("u64"));
        (addr, &self.buf[field(8)..field(8) + field(12)])
    }

    fn byte_len(&self) -> usize {
        self.buf.len() - ENTRY * self.count()
    }
}

/// Packs runs into [`RunList`]s, keeping its buffers' capacity from one
/// [`finish`](Self::finish) to the next.
#[derive(Debug, Default)]
pub struct RunBuilder {
    bytes: Vec<u8>,
    table: Vec<u8>,
}

impl RunBuilder {
    /// Appends a run (never empty, see [`ModRun::new`]).
    pub fn push(&mut self, addr: Addr, data: &[u8]) {
        debug_assert!(!data.is_empty(), "empty run pushed");
        let end = u32::try_from(self.bytes.len() + data.len()).expect("slice arena past 4 GiB");
        let len = data.len() as u32; // fits: `end` does
        self.table.extend_from_slice(&addr.to_le_bytes());
        self.table.extend_from_slice(&(end - len).to_le_bytes());
        self.table.extend_from_slice(&len.to_le_bytes());
        self.bytes.extend_from_slice(data);
    }

    /// Freezes the runs pushed since the last call into one allocation
    /// (`None`, allocating nothing, if there were none) and empties the
    /// builder.
    pub fn finish(&mut self) -> Option<RunList> {
        let runs = (self.table.len() / ENTRY) as u32;
        (runs > 0).then(|| {
            self.bytes.append(&mut self.table);
            let buf = Arc::from(&self.bytes[..]);
            self.bytes.clear();
            RunList { buf, runs }
        })
    }
}

/// `runs` cut into page groups: maximal index ranges of consecutive runs
/// lying wholly inside one page of `page_size` bytes (a power of two). A
/// run crossing a page boundary (diffing, which works per page, never
/// makes one) is a group of its own. The grouping loop behind
/// [`PrivateSpace::apply`](crate::PrivateSpace::apply).
pub fn page_groups<R: Runs + ?Sized>(
    runs: &R,
    page_size: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let shift = page_size.trailing_zeros();
    let page = move |i| {
        let (addr, data): (Addr, &[u8]) = runs.run(i);
        Some(addr >> shift).filter(|&p| p == (addr + data.len() as u64 - 1) >> shift)
    };
    let mut k = 0;
    std::iter::from_fn(move || {
        let (start, first) = (k, (k < runs.count()).then(|| page(k))?);
        k += 1;
        while first.is_some() && k < runs.count() && page(k) == first {
            k += 1;
        }
        Some(start..k)
    })
}

const WORD: usize = std::mem::size_of::<u64>();
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn load_word(s: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(s[i..i + WORD].try_into().expect("8-byte window"))
}

/// `true` iff some byte of `x` is zero (the classic SWAR zero-byte test).
#[inline]
fn has_zero_byte(x: u64) -> bool {
    x.wrapping_sub(LO) & !x & HI != 0
}

/// Index of the first zero byte of `x` (little-endian byte order).
/// Requires `has_zero_byte(x)`.
#[inline]
fn first_zero_byte(x: u64) -> usize {
    ((x.wrapping_sub(LO) & !x & HI).trailing_zeros() / 8) as usize
}

/// First index `≥ i` at which `snapshot` and `current` differ, or `n`.
/// Skips equal regions a word at a time; the XOR's trailing zero count
/// names the exact differing byte inside a mixed word.
#[inline]
fn next_diff(snapshot: &[u8], current: &[u8], mut i: usize) -> usize {
    let n = current.len();
    while i + WORD <= n {
        let x = load_word(snapshot, i) ^ load_word(current, i);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += WORD;
    }
    while i < n && snapshot[i] == current[i] {
        i += 1;
    }
    i
}

/// First index `≥ i` at which `snapshot` and `current` agree, or `n`.
/// Skips all-different regions a word at a time; a word contains an equal
/// byte iff its XOR has a zero byte.
#[inline]
fn next_same(snapshot: &[u8], current: &[u8], mut i: usize) -> usize {
    let n = current.len();
    while i + WORD <= n {
        let x = load_word(snapshot, i) ^ load_word(current, i);
        if has_zero_byte(x) {
            return i + first_zero_byte(x);
        }
        i += WORD;
    }
    while i < n && snapshot[i] != current[i] {
        i += 1;
    }
    i
}

/// Diffs one page against its snapshot, appending runs of changed bytes to
/// `out`. `page_base` is the logical address of byte 0 of the page.
///
/// Chunked fast path of the retained [`diff_page_scalar`] reference:
/// byte-for-byte identical output (differentially property-tested), word
///-at-a-time scan speed. [`diff_lines`] over a full mask (the whole
/// buffer is one dirty line).
///
/// No runtime calls it: every backend diffs through
/// [`SliceSnapshots::seal`](crate::SliceSnapshots::seal). Its callers are
/// the frozen benchmark's `mem.diff_*` probes, `bench_json`'s `diff/`
/// cells and the property tests; it goes with the next benchmark
/// revision (ROADMAP item 8(v)).
pub fn diff_page(page_base: Addr, snapshot: &[u8], current: &[u8], out: &mut Vec<ModRun>) {
    diff_lines(
        page_base,
        snapshot,
        current,
        1,
        current.len(),
        |addr, data| {
            out.push(ModRun::new(addr, data.into()));
        },
    );
}

/// The diff kernel: compares `snapshot` and `current` on the dirty lines
/// of `mask` only (bit `l` set = bytes `l * line_bytes ..` of the page, one
/// line long, clipped to the page), hands each run of changed bytes to
/// `emit` as `(first address, bytes)`, in address order, and returns the number of bytes compared (the raw material of
/// the `diff_bytes_scanned` Stats counter).
///
/// Bytes outside the mask are never read from `snapshot` and are taken to
/// be unchanged. Under that premise the output equals the whole-page diff:
/// each maximal span of consecutive dirty lines is scanned as one piece,
/// so a run crossing a line boundary stays one run, and a run never
/// extends into a clean line because nothing differs there.
///
/// A run carries changed bytes only — never an unchanged byte between two
/// changes. That is the byte granularity DLRC's guarantee rests on
/// (§4.2/§4.3): a byte the slice did not change produces no modification,
/// so applying the slice can never overwrite a concurrent writer of that
/// byte (DESIGN.md §4.6).
///
/// # Panics
/// Panics if the buffers differ in length or `mask` names a line that
/// starts beyond them.
pub fn diff_lines(
    page_base: Addr,
    snapshot: &[u8],
    current: &[u8],
    mask: u64,
    line_bytes: usize,
    mut emit: impl FnMut(Addr, &[u8]),
) -> u64 {
    assert_eq!(snapshot.len(), current.len(), "snapshot/page size mismatch");
    let n = current.len();
    let mut scanned = 0;
    for (first, end_line) in bit_spans(mask) {
        let lo = first * line_bytes;
        let hi = (end_line * line_bytes).min(n);
        assert!(lo <= hi, "dirty-line mask exceeds the page");
        scanned += (hi - lo) as u64;
        let (snap, cur) = (&snapshot[..hi], &current[..hi]);
        let mut i = next_diff(snap, cur, lo);
        while i < hi {
            let end = next_same(snap, cur, i);
            emit(page_base + i as u64, &current[i..end]);
            i = next_diff(snap, cur, end);
        }
    }
    scanned
}

/// The byte-at-a-time reference implementation of [`diff_page`] —
/// retained as the executable specification the chunked kernel is
/// differentially tested against (and as the readable statement of the
/// §4.2/§4.6 semantics: one run per maximal region of differing bytes,
/// data read from `current`).
pub fn diff_page_scalar(page_base: Addr, snapshot: &[u8], current: &[u8], out: &mut Vec<ModRun>) {
    assert_eq!(snapshot.len(), current.len(), "snapshot/page size mismatch");
    let mut i = 0;
    let n = current.len();
    while i < n {
        if snapshot[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && snapshot[i] != current[i] {
            i += 1;
        }
        out.push(ModRun::new(
            page_base + start as u64,
            current[start..i].into(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_produce_no_runs() {
        let a = vec![7u8; 128];
        let mut out = Vec::new();
        diff_page(0, &a, &a, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_byte_change() {
        let old = vec![0u8; 64];
        let mut new = old.clone();
        new[10] = 5;
        let mut out = Vec::new();
        diff_page(4096, &old, &new, &mut out);
        assert_eq!(out, vec![ModRun::new(4106, vec![5].into())]);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let old = vec![0u8; 32];
        let mut new = old.clone();
        new[4] = 1;
        new[5] = 2;
        new[6] = 3;
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(out, vec![ModRun::new(4, vec![1, 2, 3].into())]);
    }

    #[test]
    fn separated_changes_become_separate_runs() {
        let old = vec![0u8; 32];
        let mut new = old.clone();
        new[0] = 1;
        new[31] = 9;
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(
            out,
            vec![
                ModRun::new(0, vec![1].into()),
                ModRun::new(31, vec![9].into())
            ]
        );
    }

    #[test]
    fn redundant_write_is_invisible() {
        // x == 0, slice executes x = 0: no modification is recorded.
        // §4.6 argues this is both deterministic and semantically correct.
        let old = vec![0u8; 16];
        let new = old.clone();
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn byte_granularity_split_write() {
        // A 32-bit store where only two of four bytes changed produces
        // runs covering exactly the changed bytes.
        let mut old = vec![0u8; 8];
        old[0] = 0xFF; // low byte already 0xFF
        let mut new = old.clone();
        // write 0x0000_01FF over bytes 0..4: byte0 unchanged, byte1 becomes 1
        new[1] = 0x01;
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(out, vec![ModRun::new(1, vec![1].into())]);
    }

    fn sample() -> Vec<ModRun> {
        vec![
            ModRun::new(0, vec![1].into()),
            ModRun::new(8, vec![2, 3].into()),
            ModRun::new(4096, vec![4].into()),
        ]
    }

    #[test]
    fn arena_reads_back_the_runs_it_packed_in_16_bytes_each() {
        let runs = sample();
        let list = RunList::pack(&runs);
        assert_eq!((list.count(), list.byte_len()), (3, 4));
        assert_eq!(list.heap_bytes(), 4 + 16 * 3, "bytes plus one entry a run");
        let view: Vec<(Addr, &[u8])> = list.iter_runs().collect();
        assert_eq!(view, runs[..].iter_runs().collect::<Vec<_>>());
        assert_eq!(view[1], (8, &[2u8, 3][..]));
    }

    #[test]
    fn builder_reuses_its_capacity_and_an_empty_finish_allocates_nothing() {
        let mut b = RunBuilder::default();
        assert!(b.finish().is_none());
        b.push(64, &[7; 100]);
        let first = b.finish().expect("one run");
        let cap = (b.bytes.capacity(), b.table.capacity());
        b.push(64, &[8; 10]);
        let second = b.finish().expect("one run");
        assert_eq!((b.bytes.capacity(), b.table.capacity()), cap);
        assert_eq!(first.run(0), (64, &[7u8; 100][..]));
        assert_eq!(second.run(0), (64, &[8u8; 10][..]));
        assert_eq!(RunList::pack(&[]).count(), 0);
    }

    #[test]
    fn page_groups_split_at_page_changes_and_isolate_straddlers() {
        let mut runs = sample();
        runs.push(ModRun::new(4100, vec![5].into()));
        runs.push(ModRun::new(8190, vec![6; 4].into())); // crosses 8192
        runs.push(ModRun::new(8180, vec![7].into()));
        let groups: Vec<_> = page_groups(&runs[..], 4096).collect();
        assert_eq!(groups, vec![0..2, 2..4, 4..5, 5..6]);
        assert_eq!(page_groups(&RunList::pack(&runs), 4096).count(), 4);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let mut out = Vec::new();
        diff_page(0, &[0; 4], &[0; 8], &mut out);
    }

    #[test]
    fn whole_page_changed() {
        let old = vec![0u8; 64];
        let new = vec![1u8; 64];
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 64);
        assert_eq!(out[0].end(), 64);
    }

    #[test]
    fn run_at_page_edges() {
        // Differences in the first and last byte: runs must start at 0 and
        // end exactly at the page size (no word-granularity overshoot).
        let old = vec![0u8; 48];
        let mut new = old.clone();
        new[0] = 1;
        new[47] = 2;
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(
            out,
            vec![
                ModRun::new(0, vec![1].into()),
                ModRun::new(47, vec![2].into())
            ]
        );
    }

    #[test]
    fn non_multiple_of_word_page() {
        // A 13-byte buffer exercises the scalar tail after the word loop.
        let old = vec![9u8; 13];
        let mut new = old.clone();
        new[8] = 1;
        new[12] = 2;
        let mut out = Vec::new();
        diff_page(0, &old, &new, &mut out);
        assert_eq!(
            out,
            vec![
                ModRun::new(8, vec![1].into()),
                ModRun::new(12, vec![2].into())
            ]
        );
    }

    #[test]
    fn chunked_matches_scalar_on_alternating_pattern() {
        // Equal/diff alternation inside single words — the worst case for
        // word-level skipping logic.
        let old: Vec<u8> = (0..64).map(|i| (i % 7) as u8).collect();
        let mut new = old.clone();
        for i in (0..64).step_by(2) {
            new[i] ^= 0x55;
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        diff_page(0, &old, &new, &mut a);
        diff_page_scalar(0, &old, &new, &mut b);
        assert_eq!(a, b);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty ModRun")]
    fn empty_run_is_rejected() {
        let _ = ModRun::new(0, Vec::new().into());
    }
}
