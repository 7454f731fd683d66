//! The per-thread RFDet context: memory access paths and `DmtCtx` glue.

use crate::shared::RuntimeShared;
use rfdet_api::obs::Phase;
use rfdet_api::{
    Addr, BarrierId, CondId, DmtCtx, MutexId, SyncOp, ThreadFn, ThreadHandle, ThreadHarness,
    ThreadReport, Tid,
};
use rfdet_kendo::{KendoHandle, TickBatch};
use rfdet_mem::{Page, PrivateSpace, SliceSnapshots, ThreadHeap};
use rfdet_meta::{MetaSpace, SliceRef, ThreadMeta};
use rfdet_vclock::VClock;
use std::sync::Arc;

/// The per-thread view of the RFDet runtime.
///
/// Owns the thread's private memory space, the in-progress slice (line
/// snapshots taken at first store, paper Figure 4), the vector clock and
/// the thread-local profiling counters.
pub struct RfdetCtx {
    pub(crate) shared: Arc<RuntimeShared>,
    pub(crate) kendo: KendoHandle,
    /// Off-turn ticks not yet published to the Kendo slot. Empty inside
    /// every turn and while blocked: [`Self::enter_op`] flushes it.
    ticks: TickBatch,
    pub(crate) tid: Tid,
    pub(crate) space: PrivateSpace,
    /// Current vector clock. It changes only between `end_slice` and
    /// `begin_slice`, so it is also the in-progress slice's timestamp.
    pub(crate) vc: VClock,
    pub(crate) slice_seq: u64,
    /// The in-progress slice's snapshots, per dirty line, in buffers
    /// recycled across slices (up to [`rfdet_mem::SNAP_POOL_PAGES`]).
    /// Invariant: between a page's first recorded store and `end_slice`
    /// nothing but the store path mutates the page — propagation runs
    /// between slices.
    pub(crate) snaps: SliceSnapshots,
    /// Where seals pack runs, its capacity kept from slice to slice.
    pub(crate) runs: rfdet_mem::RunBuilder,
    /// The slice [`Self::enter_op`] sealed ahead of the turn: its runs
    /// (`None` if it changed nothing) and the bytes diffed.
    pub(crate) sealed: Option<(Option<rfdet_mem::RunList>, u64)>,
    /// Per-source absolute positions in other threads' slice lists:
    /// everything before the cursor was already filtered-or-propagated
    /// under an earlier upper limit (see `SliceList` for the closure
    /// property that makes this sound). Indexed by source tid; a source
    /// past the end is at 0.
    pub(crate) cursors: Vec<u64>,
    /// Lazily filled cache of other threads' records, indexed by tid (see
    /// [`Self::peer`]).
    pub(crate) peers: Vec<Option<Arc<ThreadMeta>>>,
    /// Reused buffer for the slices one acquire pulls: filled by the
    /// source list's filter, emptied by moving the handles onto this
    /// thread's own list, its capacity kept.
    pub(crate) batch: Vec<SliceRef>,
    pub(crate) heap: ThreadHeap,
    /// Fault coordinates, trace and metrics buffers, profiling counters.
    pub(crate) h: ThreadHarness,
    pub(crate) meta_thread: Arc<ThreadMeta>,
    /// A slice publication crossed the GC threshold; the next off-turn
    /// point owes the pass to a parked joiner or runs it.
    pub(crate) gc_pending: bool,
    /// Wall-clock start of the in-progress slice; `Some` iff metrics on.
    pub(crate) slice_t0: Option<std::time::Instant>,
    /// `loads + stores` at slice start (metrics-only baseline).
    pub(crate) slice_ops_base: u64,
    /// Shared phase-boundary timestamp: the end instant of the last
    /// recorded phase, reused as the start of the adjacent one. Clock
    /// reads dominate observation cost on sync-dense runs, so adjacent
    /// boundaries (sync-op entry → WaitTurn, slice-wall end → Diff,
    /// Diff end → Arbitration, Arbitration end → Propagation) share one
    /// read; phases bounded by shared reads absorb the small in-turn
    /// bookkeeping between them. Every reader `take()`s it — a boundary
    /// never leaks across sync ops (each op entry re-seeds it). `None`
    /// whenever metrics are off.
    pub(crate) obs_boundary: Option<std::time::Instant>,
    /// Reusable scratch buffer for propagation lower limits — avoids a
    /// fresh `VClock` allocation per acquire / premerge round.
    pub(crate) scratch_lower: VClock,
    /// `cfg.detect_races`, cached: the one branch the read path pays
    /// when detection is off.
    pub(crate) track_reads: bool,
    /// `shared.pf` (the backend is RFDet-pf), cached like `track_reads`
    /// so the store path does not reach through the shared state.
    pub(crate) pf: bool,
    /// Word-granular read set of the in-progress slice (marked only when
    /// `track_reads`), sealed into the published slice at `end_slice`.
    pub(crate) read_set: rfdet_mem::ReadTracker,
    /// `true` while executing an atomic operation's mini-slice. The
    /// sealed mini-slice is tagged atomic so the race detector skips it
    /// (atomics are synchronization, not data accesses).
    pub(crate) in_atomic: bool,
    /// The happens-before race detector — main thread (tid 0) only,
    /// `Some` iff `cfg.detect_races`. Detection runs entirely at main:
    /// every published slice reaches main exactly once (workloads join
    /// their whole thread tree, and metadata GC never collects a slice
    /// below the glb of all live published clocks, main's included), and
    /// main applies slices in a happens-before-consistent order — the
    /// discipline [`rfdet_mem::RaceCollector`] requires.
    pub(crate) detect: Option<Box<crate::race::CoreDetect>>,
    /// `true` while this thread is the run's only registered thread: main,
    /// from [`Self::new_main`] until the turn of its first `spawn`. Its
    /// slices are then dead work — every later thread forks this space
    /// and starts with a clock that covers them — so a first store to a
    /// line only marks it and the seal forgets the marks, publishing
    /// nothing (DESIGN.md §4.2, *The single-thread phase*).
    pub(crate) alone: bool,
    exited: bool,
}

/// [`RfdetCtx::peer`] over the cache field alone, for a caller that
/// holds a borrow of another field meanwhile.
pub(crate) fn peer_of<'a>(
    peers: &'a mut Vec<Option<Arc<ThreadMeta>>>,
    meta: &MetaSpace,
    tid: Tid,
) -> &'a ThreadMeta {
    let idx = tid as usize;
    if idx >= peers.len() {
        peers.resize(idx + 1, None);
    }
    peers[idx].get_or_insert_with(|| meta.thread(tid))
}

impl RfdetCtx {
    /// Bootstraps the main-thread context (tid 0). Must be called exactly
    /// once per [`RuntimeShared`].
    pub(crate) fn new_main(shared: Arc<RuntimeShared>) -> Self {
        assert_eq!(shared.meta.num_threads(), 0, "main context already exists");
        let meta_thread = shared.meta.register_thread();
        let kendo = shared.kendo.register(0);
        let mut vc = VClock::new();
        vc.tick(0);
        let mut ctx = Self::from_parts(shared, kendo, meta_thread, None, vc);
        ctx.alone = true;
        ctx.meta_thread.set_published_vc(&ctx.vc);
        ctx.begin_slice();
        ctx
    }

    /// Builds a context from its pieces: a child's, prepared inside the
    /// parent's turn (see `sync::spawn_impl`), a restored thread's
    /// (`resume::build_ctx`), or main's. Main — fresh or restored — gets
    /// the race detector when `cfg.detect_races`.
    pub(crate) fn from_parts(
        shared: Arc<RuntimeShared>,
        kendo: KendoHandle,
        meta_thread: Arc<ThreadMeta>,
        space: Option<PrivateSpace>,
        vc: VClock,
    ) -> Self {
        let tid = kendo.tid();
        let cfg = &shared.run.cfg;
        let space = space.unwrap_or_else(|| PrivateSpace::new(cfg.space_bytes, cfg.page_size));
        let snaps = SliceSnapshots::for_space(&space);
        let pf = shared.pf;
        let track_reads = cfg.detect_races;
        let detect = (track_reads && tid == 0)
            .then(|| Box::new(crate::race::CoreDetect::new(cfg.page_size)));
        let heap = shared.strips.heap_for(tid);
        let h = ThreadHarness::new(&shared.run, tid);
        let mut ctx = Self {
            shared,
            kendo,
            ticks: TickBatch::default(),
            tid,
            space,
            vc,
            slice_seq: 0,
            snaps,
            runs: Default::default(),
            sealed: None,
            cursors: Vec::new(),
            peers: Vec::new(),
            batch: Vec::new(),
            heap,
            h,
            meta_thread,
            gc_pending: false,
            slice_t0: None,
            slice_ops_base: 0,
            obs_boundary: None,
            scratch_lower: VClock::new(),
            track_reads,
            pf,
            read_set: rfdet_mem::ReadTracker::new(),
            in_atomic: false,
            detect,
            alone: false,
            exited: false,
        };
        ctx.begin_slice();
        ctx
    }

    /// `tid`'s record (slice list, published clock, mailbox), cached so
    /// the sync hot path takes the registry read-lock at most once per
    /// peer. Lent, not cloned: a clone would write the record's shared
    /// reference count, one more line moving between cores per op.
    pub(crate) fn peer(&mut self, tid: Tid) -> &ThreadMeta {
        peer_of(&mut self.peers, &self.shared.meta, tid)
    }

    /// This thread's position in `tid`'s slice list.
    pub(crate) fn cursor(&self, tid: Tid) -> u64 {
        self.cursors.get(tid as usize).copied().unwrap_or(0)
    }

    pub(crate) fn set_cursor(&mut self, tid: Tid, cursor: u64) {
        let idx = tid as usize;
        if idx >= self.cursors.len() {
            self.cursors.resize(idx + 1, 0);
        }
        self.cursors[idx] = cursor;
    }

    /// The pages an access of `len` bytes at `addr` touches. A
    /// zero-length access touches no page at all — a zero-length store
    /// must not snapshot one (it modifies nothing), and the previous
    /// `(first, last)` encoding had no way to say "nothing", silently
    /// rounding `len == 0` up to a 1-byte access.
    #[inline]
    fn page_range(&self, addr: Addr, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let first = self.space.page_of(addr);
        let last = self.space.page_of(addr + (len - 1) as u64);
        first..last + 1
    }

    /// Simulated cost of a page fault (trap + `mprotect` syscalls).
    pub(crate) fn pay_fault_cost(&self) {
        for _ in 0..self.shared.run.cfg.rfdet.fault_cost_spins {
            std::hint::spin_loop();
        }
    }

    /// The Figure-4 store instrumentation for a store of `len > 0` bytes
    /// at byte `off` of `page`: snapshot what the store is about to
    /// overwrite unless the slice already has. `ci` mode knows the bytes,
    /// so it snapshots only the lines the store touches; a `pf` write
    /// fault reveals only the page, so it snapshots all of it. A `pf`
    /// page is write-protected exactly while the open slice has no
    /// snapshot of it: the fault records the full mask and the seal
    /// empties every mask, which re-protects every page for the next
    /// slice with no pass over the space.
    #[inline]
    fn record_store(&mut self, page: usize, off: usize, len: usize) {
        let need = if self.pf {
            if self.snaps.is_open(page) {
                return;
            }
            self.snaps.full_mask()
        } else {
            self.snaps.missing_lines(page, off, len)
        };
        if need != 0 {
            self.snapshot_lines(page, need);
        }
    }

    /// Copies the lines of `need` into the slice's snapshot of `page`
    /// (Figure 4 line 6), after the simulated write fault under `pf`.
    /// Only a page's first touch is timed: it draws the buffer and opens
    /// the page, and a clock read per further line would cost a densely
    /// written page up to 64 reads per slice. The further copies are
    /// counted, in `snapshot_bytes_copied`. A thread that is
    /// [`alone`](Self::alone) only marks the lines: no fault, no copy.
    fn snapshot_lines(&mut self, page: usize, need: u64) {
        if self.alone {
            self.snaps.mark(page, need);
            return;
        }
        if self.pf {
            // Simulated write fault.
            self.h.stats.page_faults += 1;
            self.pay_fault_cost();
        }
        let t0 = if self.snaps.is_open(page) {
            None
        } else {
            self.h.start()
        };
        let current = self.space.page(page).map(Page::bytes);
        let rec = self.snaps.record(page, need, current);
        self.h.stats.snapshot_bytes_copied += rec.bytes_copied;
        if let Some(recycled) = rec.first_touch {
            self.h.stats.stores_with_copy += 1;
            if recycled {
                self.h.stats.snapshot_pool_hits += 1;
            } else {
                self.h.stats.snapshot_pool_misses += 1;
            }
            self.h.since(Phase::Snapshot, t0);
        }
    }

    /// The instrumented store of `data` (not empty) at byte `off` of
    /// `page`: snapshot, write — one page resolved once.
    #[inline]
    fn store_in_page(&mut self, page: usize, off: usize, data: &[u8]) {
        self.record_store(page, off, data.len());
        self.space.write_page(page, off, data);
    }

    /// Read without advancing the Kendo clock — for use *inside* a turn
    /// (atomic operations), where a tick would release the turn early.
    #[inline]
    pub(crate) fn read_in_turn(&mut self, addr: Addr, buf: &mut [u8]) {
        self.h.stats.loads += 1;
        if self.track_reads {
            self.read_set
                .mark(addr, buf.len() as u64, self.shared.run.cfg.page_size);
        }
        self.space.read(addr, buf);
    }

    /// Write without advancing the Kendo clock (see [`Self::read_in_turn`]);
    /// still goes through the Figure-4 store instrumentation. A
    /// zero-length write touches no page, so it snapshots nothing.
    #[inline]
    pub(crate) fn write_in_turn(&mut self, addr: Addr, data: &[u8]) {
        self.h.stats.stores += 1;
        match self.space.in_page(addr, data.len()) {
            Some((page, off)) => self.store_in_page(page, off, data),
            None => self.write_straddling(addr, data),
        }
    }

    /// The store that is empty, crosses a page boundary or is out of
    /// range: range-checked as a whole before any page is touched, then
    /// stored page by page.
    #[cold]
    fn write_straddling(&mut self, addr: Addr, mut data: &[u8]) {
        self.space.check_range(addr, data.len());
        let mut off = self.space.page_offset(addr);
        for page in self.page_range(addr, data.len()) {
            let n = data.len().min(self.space.page_size() - off);
            self.store_in_page(page, off, &data[..n]);
            data = &data[n..];
            off = 0;
        }
    }

    /// Start instant for a phase adjacent to the previously recorded
    /// one: reuses the stored boundary read when there is one (see
    /// `obs_boundary`), otherwise reads the clock.
    #[inline]
    pub(crate) fn obs_boundary_start(&mut self) -> Option<std::time::Instant> {
        if !self.h.metered() {
            return None;
        }
        self.obs_boundary
            .take()
            .or_else(|| Some(std::time::Instant::now()))
    }

    /// Records `phase` from `t0` to now, storing the end instant as the
    /// boundary for the next adjacent phase.
    #[inline]
    pub(crate) fn obs_since_boundary(&mut self, phase: Phase, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let now = std::time::Instant::now();
            self.h
                .sample(phase, now.duration_since(t0).as_nanos() as u64);
            self.obs_boundary = Some(now);
        }
    }

    /// Invalidate-and-reseed the shared boundary after an untimed gap (a
    /// park, a wake wait): whatever boundary was stored predates the gap,
    /// and letting the next adjacent phase start from it would attribute
    /// the whole gap to that phase. The gap stays inside the `SyncOp`
    /// envelope, unattributed — which is the honest label for blocked
    /// time.
    #[inline]
    pub(crate) fn obs_reseed_boundary(&mut self) {
        self.obs_boundary = self.h.start();
    }

    /// Entry of every synchronization operation. The harness assigns the
    /// op its coordinate, records it and sleeps any seeded pause; the
    /// slice is sealed off turn (DESIGN.md §4.2); plan jitter ticks the
    /// Kendo clock; then the thread takes its deterministic turn — the
    /// stall is [`Phase::WaitTurn`], and its end seeds the next boundary.
    /// A planned panic is delivered only now, with the op *ordered*: which
    /// of several planned panics becomes the run's root cause is then a
    /// function of the sync order, not of who reached its op first.
    pub(crate) fn enter_op(&mut self, op: SyncOp) {
        // Publish the chunk in progress: the op is recorded with, waits
        // for its turn on, and hands clocks to the threads it wakes from
        // this thread's exact clock.
        self.publish_ticks();
        // The clock read is deterministic: a thread's clock changes only
        // through its own ticks and deterministic wake handoffs, so its
        // value at a program point is schedule-pure.
        let fault = self.h.enter_sync(op, || self.kendo.clock());
        self.sealed = Some(self.seal_slice());
        if fault.jitter_ticks > 0 {
            self.shared
                .kendo
                .tick_off_turn(&self.kendo, fault.jitter_ticks);
        }
        let t0 = self.obs_boundary_start();
        self.shared.kendo.wait_for_turn(&self.kendo);
        self.obs_since_boundary(Phase::WaitTurn, t0);
        self.h.raise_planned();
    }

    /// Publishes the pending off-turn ticks (see [`TickBatch`]).
    #[inline]
    fn publish_ticks(&mut self) {
        self.ticks.flush(&self.shared.kendo, &self.kendo);
    }

    /// This thread's exact Kendo clock, at a point where nothing is
    /// unpublished: inside a turn, or after one with no access since.
    #[inline]
    pub(crate) fn clock(&self) -> u64 {
        debug_assert_eq!(self.ticks.pending(), 0, "clock read with unpublished ticks");
        self.kendo.clock()
    }

    /// Releases the Kendo turn after a sync operation — the final tick
    /// plus the successor scan and targeted unpark —
    /// attributed to [`Phase::Arbitration`].
    #[inline]
    pub(crate) fn release_turn(&mut self) {
        let t0 = self.obs_boundary_start();
        self.shared
            .kendo
            .release_turn(&self.kendo, crate::shared::SYNC_TICK);
        self.obs_since_boundary(Phase::Arbitration, t0);
    }

    /// Runs one sync operation under the end-to-end
    /// [`Phase::SyncOp`] envelope. The
    /// envelope's start read doubles as the WaitTurn boundary.
    #[inline]
    fn sync_envelope<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.h.start();
        self.obs_boundary = t0;
        let r = f(self);
        self.h.since(Phase::SyncOp, t0);
        r
    }

    /// Runs a thread's entry function to its exit operation, routing an
    /// unwind out of either through [`Self::unwound`].
    pub(crate) fn run_body(&mut self, body: ThreadFn) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(self);
            self.on_exit();
        }));
        if let Err(payload) = result {
            self.unwound(payload);
        }
    }

    /// Routes this thread's unwind: a [`CkptStop`](crate::checkpoint::CkptStop)
    /// token is a clean stop at an epoch (§4.11) — the thread contributed its
    /// fragment to the target epoch and is done, so just finish the slot
    /// and let arbitration ignore it; anything else is recorded with the
    /// thread's deterministic state, and aborts the protocol. Either way
    /// the thread first publishes its partial chunk: a slot that stops
    /// participating holds its exact clock (DESIGN.md §4.3).
    pub(crate) fn unwound(&mut self, payload: Box<dyn std::any::Any + Send>) {
        self.publish_ticks();
        if payload.is::<crate::checkpoint::CkptStop>() {
            self.shared.kendo.finish_forced(self.tid);
        } else {
            let state = ThreadReport {
                vc: self.vc.clone(),
                slices: self.slice_seq,
                ..self.h.report()
            };
            self.shared.record_panic(self.tid, payload, Some(state));
        }
    }

    /// The thread-exit operation (release of `SyncKey::Thread(tid)`).
    /// Idempotent; called by the runtime when the entry function returns.
    pub(crate) fn on_exit(&mut self) {
        if self.exited {
            return;
        }
        self.exited = true;
        crate::sync::exit_impl(self);
    }
}

impl DmtCtx for RfdetCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    #[inline]
    fn tick(&mut self, n: u64) {
        self.ticks.tick(&self.shared.kendo, &self.kendo, n);
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.tick(1);
        self.read_in_turn(addr, buf);
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.tick(1);
        self.write_in_turn(addr, data);
    }

    fn lock(&mut self, m: MutexId) {
        self.sync_envelope(|ctx| crate::sync::lock_impl(ctx, m));
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync_envelope(|ctx| crate::sync::unlock_impl(ctx, m));
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync_envelope(|ctx| crate::sync::wait_impl(ctx, c, m));
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync_envelope(|ctx| crate::sync::signal_impl(ctx, c, false));
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync_envelope(|ctx| crate::sync::signal_impl(ctx, c, true));
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync_envelope(|ctx| crate::sync::barrier_impl(ctx, b, parties));
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync_envelope(|ctx| crate::sync::spawn_impl(ctx, f))
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync_envelope(|ctx| crate::sync::join_impl(ctx, h));
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.tick(1);
        // The allocation event is stamped with the exact clock.
        self.publish_ticks();
        self.h.enter_alloc(|| self.kendo.clock(), size);
        self.heap.alloc(size, align)
    }

    fn dealloc(&mut self, addr: Addr) {
        self.tick(1);
        self.heap.dealloc(addr);
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.h.emit(bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: rfdet_api::AtomicOp) -> u64 {
        self.sync_envelope(|ctx| crate::sync::atomic_impl(ctx, addr, Some(op), None))
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.sync_envelope(|ctx| crate::sync::atomic_impl(ctx, addr, None, None))
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.sync_envelope(|ctx| crate::sync::atomic_impl(ctx, addr, None, Some(value)));
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.h.count_app_events(retries, shed);
    }
}

#[cfg(test)]
mod tests {
    use crate::shared::RuntimeShared;
    use crate::RfdetCtx;
    use rfdet_api::RunConfig;
    use std::sync::Arc;

    fn ctx() -> RfdetCtx {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        let mut ctx = RfdetCtx::new_main(Arc::new(RuntimeShared::new(&cfg).expect("valid config")));
        ctx.alone = false; // exercise the slice machinery without spawning
        ctx
    }

    #[test]
    fn page_range_covers_touched_pages() {
        let c = ctx();
        assert_eq!(c.page_range(0, 1), 0..1);
        assert_eq!(c.page_range(4095, 1), 0..1);
        assert_eq!(c.page_range(4095, 2), 0..2, "straddles the boundary");
        assert_eq!(c.page_range(4096, 4096), 1..2, "exactly one full page");
        assert_eq!(c.page_range(100, 8192), 0..3);
    }

    #[test]
    fn page_range_of_zero_length_access_is_empty() {
        let c = ctx();
        assert!(c.page_range(0, 0).is_empty());
        assert!(c.page_range(4096, 0).is_empty());
        // The old `(first, last)` encoding rounded len==0 up to one byte;
        // at the very end of the space that byte names a page past the
        // flag table. The empty range makes the boundary a no-op instead.
        let space_end = c.shared.run.cfg.space_bytes;
        assert!(c.page_range(space_end, 0).is_empty());
    }

    #[test]
    fn zero_length_accesses_touch_no_page() {
        let mut c = ctx();
        c.read_in_turn(64, &mut []);
        c.write_in_turn(64, &[]);
        assert_eq!(c.h.stats.stores_with_copy, 0, "no snapshot taken");

        // Zero-length access at the space boundary: must not panic.
        let space_end = c.shared.run.cfg.space_bytes;
        c.read_in_turn(space_end, &mut []);
        c.write_in_turn(space_end, &[]);
    }

    /// The twin of `store_after_propagation_snapshots_post_apply_bytes`
    /// for a slice sealed ahead of its turn: `spawn` seals in `enter_op`,
    /// after propagation applied a remote run, so the published slice
    /// carries the thread's own bytes and none of the remote ones.
    #[test]
    fn a_slice_sealed_before_spawn_carries_only_its_own_bytes() {
        use rfdet_api::{DmtCtx, DmtCtxExt};
        use rfdet_mem::ModRun;
        use rfdet_meta::SliceRec;
        use rfdet_vclock::VClock;
        let mut c = ctx();
        let mut t = VClock::new();
        t.tick(1);
        let remote = vec![ModRun::new(64, vec![7].into())];
        c.apply_slice(&Arc::new(SliceRec::new(1, 0, t, remote)));
        c.write::<u64>(4096 + 8, 0x55);
        let child = c.spawn(Box::new(|_: &mut dyn DmtCtx| {}));
        let published = c.shared.meta.snapshot_list(0);
        assert_eq!(published.len(), 1);
        assert_eq!(
            crate::slices::tests::boxed(&published[0].mods),
            vec![ModRun::new(4096 + 8, vec![0x55].into())]
        );
        c.join(child);
        assert_eq!(c.read::<u8>(64), 7);
    }
}
