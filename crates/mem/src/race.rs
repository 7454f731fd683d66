//! Word-granular happens-before race detection over slice accesses.
//!
//! The deterministic backends already know, at propagation/commit time,
//! exactly which bytes every sync-free interval wrote (the diff) and which
//! words it read (the [`ReadTracker`]), and each interval carries a vector
//! clock. Detection is therefore pure bookkeeping on top of machinery
//! that exists anyway: a FastTrack-style table of per-word read/write
//! *epochs* `(tid, clock, sync_op)` checked against each incoming
//! interval's clock with one scalar comparison per epoch
//! (`VClock::includes`).
//!
//! The table requires a key discipline from its caller: intervals must be
//! observed in an order consistent with happens-before (if interval A
//! happens-before interval B, A is observed first). Both deterministic
//! pipelines provide this for free — DLRC applies slices at a thread in
//! propagation order (see `rfdet_core`'s propagation invariants), and the
//! lockstep engines commit in fenced phase order. Under that discipline
//! the check is one-directional: a table entry can never happen-after an
//! incoming interval, so "unordered" reduces to "the incoming clock has
//! not propagated past the entry".
//!
//! Storage is page-indexed: a map from
//! page index to a dense per-word cell array, materialized only for pages
//! that racy-candidate accesses actually touch.

use crate::diff::Runs;
use rfdet_api::{AccessKind, Addr, RaceReport, RaceSite};
use rfdet_vclock::{LTime, Tid, VClock};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Detection granularity: one epoch cell per 8-byte machine word, the
/// granularity the paper's compiler instrumentation sees stores at. Two
/// threads touching *different bytes* of one word still report (that is
/// the C11 definition of a conflict at word granularity, and it keeps the
/// table 8× smaller than byte cells); the seeded corpus spaces its
/// fields a word apart so this never manufactures corpus false positives.
pub const WORD_BYTES: u64 = 8;

/// Sentinel tid for "no epoch recorded".
const NO_TID: Tid = Tid::MAX;

/// A maximal run of consecutively-read words: `words` words starting at
/// the word-aligned address `addr`. The read-side analogue of
/// [`crate::ModRun`], sealed out of a [`ReadTracker`] at interval end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRun {
    /// Word-aligned start address.
    pub addr: Addr,
    /// Number of consecutive words read.
    pub words: u32,
}

/// Per-thread, per-interval read-set tracker: a word-granular bitmap per
/// touched page, pooled so steady-state intervals mark reads without
/// allocating. Off-path by construction — backends only route reads here
/// when detection is on.
#[derive(Debug, Default)]
pub struct ReadTracker {
    /// Page index → one bit per word of the page.
    pages: BTreeMap<u64, Box<[u64]>>,
    pool: Vec<Box<[u64]>>,
}

impl ReadTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the words overlapping `[addr, addr + len)` as read.
    pub fn mark(&mut self, addr: Addr, len: u64, page_size: u64) {
        if len == 0 {
            return;
        }
        let words_per_page = (page_size / WORD_BYTES) as usize;
        let first_word = addr / WORD_BYTES;
        let last_word = (addr + len - 1) / WORD_BYTES;
        for word in first_word..=last_word {
            let page = word * WORD_BYTES / page_size;
            let idx = (word - page * page_size / WORD_BYTES) as usize;
            let bits = self.pages.entry(page).or_insert_with(|| {
                self.pool
                    .pop()
                    .map(|mut b| {
                        b.fill(0);
                        b
                    })
                    .unwrap_or_else(|| vec![0u64; words_per_page.div_ceil(64)].into_boxed_slice())
            });
            bits[idx / 64] |= 1u64 << (idx % 64);
        }
    }

    /// `true` when no read has been marked since the last seal.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Seals the marked set into coalesced word runs (ascending by
    /// address) and resets the tracker, recycling page bitmaps.
    pub fn seal(&mut self, page_size: u64) -> Vec<ReadRun> {
        let mut runs: Vec<ReadRun> = Vec::new();
        for (page, bits) in std::mem::take(&mut self.pages) {
            let base_word = page * page_size / WORD_BYTES;
            for (chunk_idx, &chunk) in bits.iter().enumerate() {
                let mut rest = chunk;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as u64;
                    rest &= rest - 1;
                    let addr = (base_word + chunk_idx as u64 * 64 + bit) * WORD_BYTES;
                    match runs.last_mut() {
                        Some(last) if last.addr + u64::from(last.words) * WORD_BYTES == addr => {
                            last.words += 1;
                        }
                        _ => runs.push(ReadRun { addr, words: 1 }),
                    }
                }
            }
            self.pool.push(bits);
        }
        runs
    }
}

/// One sealed sync-free interval's accesses, as presented to the
/// detector: who, when (the interval's vector clock, stamped *before* the
/// sealing tick, i.e. the clock every access in the interval ran at),
/// the backend-independent sync-op coordinate, and what was touched —
/// the writes as boxed runs or as a sealed arena, read through [`Runs`].
#[derive(Debug)]
pub struct SliceAccess<'a, W: ?Sized> {
    /// Accessor thread.
    pub tid: Tid,
    /// The interval's vector clock (its start/stamp time).
    pub time: &'a VClock,
    /// Per-thread sync-op index of the operation that sealed the
    /// interval — the cross-backend logical coordinate.
    pub sync_op: u64,
    /// Byte-modification runs (the interval's diff).
    pub writes: &'a W,
    /// Word-read runs (the interval's sealed read set).
    pub reads: &'a [ReadRun],
}

/// A per-word access epoch.
#[derive(Clone, Copy, Debug)]
struct Epoch {
    tid: Tid,
    clock: LTime,
    sync_op: u64,
}

impl Epoch {
    const NONE: Epoch = Epoch {
        tid: NO_TID,
        clock: 0,
        sync_op: 0,
    };

    fn site(&self, kind: AccessKind) -> RaceSite {
        RaceSite {
            tid: self.tid,
            sync_op: self.sync_op,
            kind,
            clock: self.clock,
        }
    }
}

/// Per-word state: the last write epoch plus every read epoch since that
/// write (one per reader tid — the FastTrack "read-shared" set, exact,
/// not an adaptive scalar, because slices batch many reads anyway).
#[derive(Clone, Debug)]
struct Cell {
    write: Epoch,
    reads: Vec<Epoch>,
}

impl Cell {
    const EMPTY: Cell = Cell {
        write: Epoch::NONE,
        reads: Vec::new(),
    };
}

/// The detector: epoch table + race accumulator with per-pair dedup.
///
/// Reports are deduplicated per `(word, unordered tid pair)` — the first
/// conflicting pair observed wins, later kinds on the same word/pair are
/// suppressed (the FastTrack exception: after a variable's first race,
/// later races on it may be missed; a detector that reported every pair
/// would drown the user for an unsynchronized counter). `finish` sorts
/// canonically so the report list is independent of observation order.
#[derive(Debug)]
pub struct RaceCollector {
    page_size: u64,
    /// Page index → one [`Cell`] per word of the page.
    pages: HashMap<u64, Box<[Cell]>>,
    seen: HashSet<(Addr, Tid, Tid)>,
    reports: Vec<RaceReport>,
    cap: usize,
    truncated: bool,
}

impl RaceCollector {
    /// Maximum retained reports; beyond it, detection keeps updating
    /// epochs (coordinates stay exact) but stops materializing reports.
    pub const DEFAULT_CAP: usize = 4096;

    /// Creates a collector for a space with the given page size.
    #[must_use]
    pub fn new(page_size: u64) -> Self {
        Self {
            page_size,
            pages: HashMap::new(),
            seen: HashSet::new(),
            reports: Vec::new(),
            cap: Self::DEFAULT_CAP,
            truncated: false,
        }
    }

    /// Observes one sealed interval: checks every read and written word
    /// against the table, records races, then installs the interval's
    /// own epochs. Must be called in a happens-before-consistent order
    /// (see module docs).
    pub fn observe<W: Runs + ?Sized>(&mut self, a: &SliceAccess<'_, W>) {
        // Pass 1: reads — check against the last write, then record.
        for run in a.reads {
            for i in 0..u64::from(run.words) {
                let addr = run.addr + i * WORD_BYTES;
                self.observe_word(a, addr, AccessKind::Read);
            }
        }
        // Pass 2: writes — check against the last write and all reads
        // since it, then become the last write (clearing the read set:
        // any later unordered access will conflict with this write
        // anyway, and keeping cells bounded is what makes the table
        // affordable).
        for (addr, data) in a.writes.iter_runs() {
            let first = addr / WORD_BYTES;
            let last = (addr + data.len() as u64 - 1) / WORD_BYTES;
            for word in first..=last {
                self.observe_word(a, word * WORD_BYTES, AccessKind::Write);
            }
        }
    }

    fn observe_word<W: ?Sized>(&mut self, a: &SliceAccess<'_, W>, addr: Addr, kind: AccessKind) {
        let words_per_page = (self.page_size / WORD_BYTES) as usize;
        let page = addr / self.page_size;
        let idx = ((addr % self.page_size) / WORD_BYTES) as usize;
        let cell = &mut self
            .pages
            .entry(page)
            .or_insert_with(|| vec![Cell::EMPTY; words_per_page].into_boxed_slice())[idx];

        let me = Epoch {
            tid: a.tid,
            clock: a.time.get(a.tid),
            sync_op: a.sync_op,
        };
        let mut conflicts: Vec<(Epoch, AccessKind)> = Vec::new();
        let w = cell.write;
        if w.tid != NO_TID && w.tid != a.tid && !a.time.includes(w.tid, w.clock) {
            conflicts.push((w, AccessKind::Write));
        }
        if kind == AccessKind::Write {
            // A write also conflicts with unordered *reads*; a read does
            // not (read/read never races), so only writes scan the set.
            // Every conflicting reader is a distinct pair — report each
            // (the per-pair dedup suppresses repeats on later words).
            for r in &cell.reads {
                if r.tid != a.tid && !a.time.includes(r.tid, r.clock) {
                    conflicts.push((*r, AccessKind::Read));
                }
            }
        }
        match kind {
            AccessKind::Read => match cell.reads.iter_mut().find(|r| r.tid == a.tid) {
                Some(slot) => *slot = me,
                None => cell.reads.push(me),
            },
            AccessKind::Write => {
                cell.write = me;
                cell.reads.clear();
            }
        }

        for (prior, prior_kind) in conflicts {
            self.record(
                addr,
                prior.site(prior_kind),
                me.site(kind),
                a.tid,
                prior.tid,
            );
        }
    }

    fn record(&mut self, addr: Addr, prior: RaceSite, current: RaceSite, a: Tid, b: Tid) {
        let pair = (addr, a.min(b), a.max(b));
        if !self.seen.insert(pair) {
            return;
        }
        if self.reports.len() >= self.cap {
            self.truncated = true;
            return;
        }
        let report = RaceReport {
            addr,
            page: addr / self.page_size,
            offset: addr % self.page_size,
            first: prior,
            second: current,
        }
        .canonical();
        self.reports.push(report);
    }

    /// Number of reports recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` when nothing has been reported.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// `true` when the report cap was hit (epochs stayed exact, but some
    /// distinct racy pairs were not materialized).
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Seals the collector: reports sorted canonically (address, then
    /// site keys) so the list is independent of observation order.
    #[must_use]
    pub fn finish(mut self) -> Vec<RaceReport> {
        self.reports.sort_by_key(|r| {
            (
                r.addr,
                r.first.tid,
                r.first.sync_op,
                r.second.tid,
                r.second.sync_op,
            )
        });
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ModRun;

    const PAGE: u64 = 4096;

    fn run(addr: Addr, bytes: &[u8]) -> ModRun {
        ModRun::new(addr, bytes.to_vec().into_boxed_slice())
    }

    fn vc(components: Vec<u64>) -> VClock {
        VClock::from_components(components)
    }

    fn observe(
        c: &mut RaceCollector,
        tid: Tid,
        time: &VClock,
        sync_op: u64,
        writes: &[ModRun],
        reads: &[ReadRun],
    ) {
        c.observe(&SliceAccess {
            tid,
            time,
            sync_op,
            writes,
            reads,
        });
    }

    #[test]
    fn read_tracker_seals_coalesced_word_runs() {
        let mut t = ReadTracker::new();
        assert!(t.is_empty());
        t.mark(16, 4, PAGE); // word 2
        t.mark(24, 8, PAGE); // word 3
        t.mark(100, 1, PAGE); // word 12
        t.mark(PAGE + 8, 16, PAGE); // next page, words 1-2
        assert!(!t.is_empty());
        let runs = t.seal(PAGE);
        assert_eq!(
            runs,
            vec![
                ReadRun { addr: 16, words: 2 },
                ReadRun { addr: 96, words: 1 },
                ReadRun {
                    addr: PAGE + 8,
                    words: 2
                },
            ]
        );
        assert!(t.is_empty(), "seal resets");
        // A straddling read marks both words it overlaps.
        t.mark(14, 4, PAGE); // bytes 14..18: words 1 and 2
        assert_eq!(
            t.seal(PAGE),
            vec![ReadRun { addr: 8, words: 2 }],
            "byte range rounds out to word granularity"
        );
    }

    #[test]
    fn ordered_write_write_is_clean() {
        let mut c = RaceCollector::new(PAGE);
        observe(&mut c, 1, &vc(vec![0, 3]), 1, &[run(64, &[1])], &[]);
        // tid 2 has propagated past tid 1's clock 3: ordered.
        observe(&mut c, 2, &vc(vec![0, 3, 5]), 2, &[run(64, &[2])], &[]);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn concurrent_write_write_races_once_per_pair() {
        let mut c = RaceCollector::new(PAGE);
        observe(&mut c, 1, &vc(vec![0, 3]), 1, &[run(64, &[1, 1])], &[]);
        observe(&mut c, 2, &vc(vec![0, 0, 5]), 2, &[run(64, &[2, 2])], &[]);
        let reports = c.finish();
        assert_eq!(reports.len(), 1, "one word, one pair, one report");
        let r = &reports[0];
        assert_eq!((r.addr, r.page, r.offset), (64, 0, 64));
        assert_eq!((r.first.tid, r.first.sync_op), (1, 1));
        assert_eq!((r.second.tid, r.second.sync_op), (2, 2));
        assert_eq!(r.first.kind, AccessKind::Write);
        assert_eq!(r.second.kind, AccessKind::Write);
    }

    #[test]
    fn concurrent_read_write_races_but_read_read_does_not() {
        let mut c = RaceCollector::new(PAGE);
        let reads = [ReadRun { addr: 64, words: 1 }];
        observe(&mut c, 1, &vc(vec![0, 3]), 1, &[], &reads);
        observe(&mut c, 2, &vc(vec![0, 0, 5]), 2, &[], &reads);
        assert!(c.is_empty(), "read/read never races");
        observe(&mut c, 3, &vc(vec![0, 0, 0, 7]), 3, &[run(64, &[9])], &[]);
        let reports = c.finish();
        assert_eq!(reports.len(), 2, "the write races both concurrent reads");
        assert!(reports
            .iter()
            .all(|r| r.second.kind == AccessKind::Write || r.first.kind == AccessKind::Write));
    }

    #[test]
    fn same_thread_never_races_itself() {
        let mut c = RaceCollector::new(PAGE);
        let reads = [ReadRun { addr: 64, words: 1 }];
        observe(&mut c, 1, &vc(vec![0, 3]), 1, &[run(64, &[1])], &reads);
        // Same thread again, even with a clock that looks unordered.
        observe(&mut c, 1, &vc(vec![0, 9]), 2, &[run(64, &[2])], &reads);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn write_clears_reads_and_becomes_the_epoch() {
        let mut c = RaceCollector::new(PAGE);
        let reads = [ReadRun { addr: 64, words: 1 }];
        observe(&mut c, 1, &vc(vec![0, 3]), 1, &[], &reads);
        // Ordered write after the read: clean, clears the read set.
        observe(&mut c, 2, &vc(vec![0, 3, 5]), 2, &[run(64, &[1])], &[]);
        // Ordered-after-the-write third access: clean (the cleared read
        // set means tid 1's old read is no longer checked — it is
        // dominated by the write that cleared it).
        observe(&mut c, 3, &vc(vec![0, 3, 5, 2]), 3, &[run(64, &[2])], &[]);
        assert!(c.finish().is_empty());
    }

    #[test]
    fn byte_runs_expand_to_every_overlapped_word() {
        let mut c = RaceCollector::new(PAGE);
        // Bytes 6..18 overlap words 0, 1 and 2.
        observe(&mut c, 1, &vc(vec![0, 1]), 1, &[run(6, &[7; 12])], &[]);
        observe(
            &mut c,
            2,
            &vc(vec![0, 0, 1]),
            1,
            &[run(0, &[1]), run(8, &[1]), run(16, &[1])],
            &[],
        );
        assert_eq!(c.finish().len(), 3);
    }

    #[test]
    fn reports_sort_canonically_regardless_of_observation_order() {
        // Symmetric, mutually-unordered accesses: thread n runs at a
        // clock only its own component knows about, with a tid-keyed
        // sync-op coordinate, so both observation orders describe the
        // *same* two accesses.
        let slice_time = |tid: Tid| {
            let mut components = vec![0; 3];
            components[tid as usize] = 5;
            vc(components)
        };
        let build = |flip: bool| {
            let mut c = RaceCollector::new(PAGE);
            let (first, second) = if flip { (2, 1) } else { (1, 2) };
            for tid in [first, second] {
                observe(
                    &mut c,
                    tid,
                    &slice_time(tid),
                    u64::from(tid),
                    &[run(128, &[tid as u8]), run(64, &[tid as u8])],
                    &[],
                );
            }
            c.finish()
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.iter().map(RaceReport::digest).collect::<Vec<_>>(),
            b.iter().map(RaceReport::digest).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cap_truncates_reports_not_epochs() {
        let mut c = RaceCollector::new(PAGE);
        c.cap = 2;
        observe(&mut c, 1, &vc(vec![0, 1]), 1, &[run(0, &[3; 64])], &[]);
        observe(&mut c, 2, &vc(vec![0, 0, 1]), 1, &[run(0, &[4; 64])], &[]);
        assert_eq!(c.len(), 2);
        assert!(c.truncated());
    }
}
