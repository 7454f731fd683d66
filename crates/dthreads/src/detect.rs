//! Race detection for the lockstep engine.
//!
//! The engine has no vector clocks of its own — determinism comes from
//! the global fence, not from tracking causality. The detector therefore
//! keeps a shadow vector clock per thread under the engine monitor,
//! advanced as the serial phase processes arrivals:
//!
//! * each first-processed arrival seals one parallel **interval** — its
//!   word-read set plus the diff's written words are checked against the
//!   shared epoch table with the thread's pre-tick clock, then the clock
//!   ticks;
//! * synchronization operations install the happens-before edges the
//!   program actually creates, as acquires of the releases the engine
//!   records on its [`SyncTable`](rfdet_meta::SyncTable) records with
//!   each sealed time: a successful lock acquires the mutex's last
//!   release (unlock or wait), a woken waiter its signaller's, every
//!   barrier participant the join of the episode's arrivals, a joiner the
//!   thread's exit, an atomic its cell's release; a child starts from its
//!   parent's sealed spawn time.
//!
//! A view changes only at an acquire, by the releaser's recorded view —
//! the one rule the DLRC core's detector follows too. An atomic's
//! recorded release is the previous one joined with its sealed time,
//! since that time predates the op's own acquire.
//!
//! The atomic accesses themselves (executed on the global store inside
//! the serial phase) are synchronization, not data — they never appear
//! in any diff and are not checked, matching the core backend's
//! exclusion of atomic mini-slices.

use rfdet_api::{RaceReport, Tid};
use rfdet_mem::race::{RaceCollector, ReadRun, SliceAccess};
use rfdet_mem::ModRun;
use rfdet_vclock::VClock;

/// Shadow vector-clock state for the lockstep engine, living inside the
/// engine monitor (so every mutation is already serialized).
pub(crate) struct EngineDetect {
    collector: RaceCollector,
    /// Per-thread clock, indexed by tid (tids are dense: the engine
    /// hands them out sequentially).
    vcs: Vec<VClock>,
}

impl EngineDetect {
    pub(crate) fn new(page_size: u64) -> Self {
        Self {
            collector: RaceCollector::new(page_size),
            vcs: Vec::new(),
        }
    }

    /// Registers thread `tid`, whose clock starts at `inherited` — empty
    /// for main, the parent's sealed spawn time for a child — plus its
    /// own first tick, so the parent's post-spawn interval stays
    /// concurrent with the child.
    pub(crate) fn register(&mut self, tid: Tid, inherited: &VClock) {
        self.acquire(tid, inherited);
        self.vcs[tid as usize].tick(tid);
    }

    /// Seals one parallel interval at its arrival's first processing:
    /// checks reads and written words against the epoch table with the
    /// pre-tick clock, ticks, and returns the sealed (pre-tick) stamp
    /// for the op's release.
    pub(crate) fn seal_interval(
        &mut self,
        tid: Tid,
        sync_op: u64,
        reads: &[ReadRun],
        writes: &[ModRun],
    ) -> VClock {
        self.ensure(tid);
        let sealed = self.vcs[tid as usize].clone();
        self.collector.observe(&SliceAccess {
            tid,
            time: &sealed,
            sync_op,
            writes,
            reads,
        });
        self.vcs[tid as usize].tick(tid);
        sealed
    }

    /// An acquire: joins the release time `time` into `tid`'s clock.
    pub(crate) fn acquire(&mut self, tid: Tid, time: &VClock) {
        self.ensure(tid);
        self.vcs[tid as usize].join(time);
    }

    fn ensure(&mut self, tid: Tid) {
        let idx = tid as usize;
        if idx >= self.vcs.len() {
            self.vcs.resize_with(idx + 1, VClock::new);
        }
    }

    /// Seals detection: canonically-sorted reports plus whether the
    /// report cap truncated the list.
    pub(crate) fn finish(self) -> (Vec<RaceReport>, bool) {
        let truncated = self.collector.truncated();
        (self.collector.finish(), truncated)
    }
}
