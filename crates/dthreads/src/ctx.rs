//! The per-thread DThreads context.

use crate::engine::{Arrival, ChildSeed, Engine, EngineMode, PendingOp};
use rfdet_api::obs::Phase;
use rfdet_api::{
    Addr, AtomicOp, BarrierId, CondId, DmtCtx, FailureKind, MutexId, SyncOp, ThreadFn,
    ThreadHandle, ThreadHarness, Tid,
};
use rfdet_mem::race::ReadTracker;
use rfdet_mem::{Page, PrivateSpace, RunBuilder, Runs, SliceSnapshots, ThreadHeap};
use std::sync::Arc;

/// Per-thread context: a private view of the global store plus the store
/// instrumentation that collects the interval's diff.
pub(crate) struct DtCtx {
    pub engine: Arc<Engine>,
    pub tid: Tid,
    pub space: PrivateSpace,
    /// Pages snapshotted this parallel interval: the whole page at its
    /// first store, RFDet's `pf` capture minus the simulated fault —
    /// DThreads' `mprotect` twins, in buffers recycled across intervals.
    snaps: SliceSnapshots,
    /// Where the seal packs the interval's runs, its capacity kept.
    runs: RunBuilder,
    /// Remaining tick budget in quantum mode.
    budget: u64,
    /// Whether the engine is detecting races (word-read sets are sealed
    /// into every arrival). One branch per load when off.
    track_reads: bool,
    /// Word-granular read set of the current parallel interval.
    reads: ReadTracker,
    /// Cached page size for the read tracker's bitmap geometry.
    page_size: u64,
    /// Tid of the child created by the most recent `Spawn` op.
    last_spawned_tid: Option<Tid>,
    pub heap: ThreadHeap,
    /// Fault coordinates, trace and metrics buffers, profiling counters.
    /// The lockstep engine has no logical clock, so events are stamped
    /// `0` and per-thread op indices alone order each thread's stream.
    pub h: ThreadHarness,
}

impl DtCtx {
    pub fn new(engine: Arc<Engine>, tid: Tid, space: PrivateSpace) -> Self {
        let heap = engine.strips.heap_for(tid);
        let budget = match engine.mode {
            EngineMode::SyncOnly => u64::MAX,
            EngineMode::Quantum => crate::QUANTUM_TICKS,
        };
        let h = ThreadHarness::new(&engine.run, tid);
        let track_reads = engine.run.cfg.detect_races;
        let page_size = space.page_size() as u64;
        let snaps = SliceSnapshots::for_space(&space);
        Self {
            engine,
            tid,
            space,
            snaps,
            runs: RunBuilder::default(),
            budget,
            track_reads,
            reads: ReadTracker::new(),
            page_size,
            last_spawned_tid: None,
            heap,
            h,
        }
    }

    /// Entry of every synchronization operation: the harness assigns the
    /// coordinate; plan jitter is charged to the quantum budget,
    /// deterministically perturbing round boundaries in quantum mode.
    /// Returns the message of the panic planned at this op, to ride the
    /// arrival: the serial phase delivers it in token order, so which of
    /// several planned panics is the run's root cause does not depend on
    /// who reached its op first.
    fn enter(&mut self, op: SyncOp) -> Option<String> {
        let fault = self.h.enter_sync(op, || 0);
        if fault.jitter_ticks > 0 {
            self.charge(fault.jitter_ticks);
        }
        self.h.planned_panic()
    }

    /// One synchronization operation, end to end under the
    /// [`Phase::SyncOp`] envelope.
    fn sync_op(&mut self, op: SyncOp, pending: PendingOp) -> Option<u64> {
        let t0 = self.h.start();
        let planned = self.enter(op);
        let value = self.sync_point(pending, planned);
        self.h.since(Phase::SyncOp, t0);
        value
    }

    /// Ends the parallel interval: its diff (every snapshotted page, in
    /// page-index order, in one run list) and word-read set (empty when
    /// detection is off), stamped with the thread's report — the sync-op
    /// coordinate race reports carry, and the culprit state of a panic
    /// or misuse the serial phase charges to this op.
    fn seal_interval(&mut self, op: PendingOp, planned: Option<String>) -> Arrival {
        let t0 = self.h.start();
        self.snaps.seal(&self.space, &mut self.runs);
        self.h.since(Phase::Diff, t0);
        let diff = self.runs.finish().unwrap_or_default();
        self.h.stats.runs_sealed += diff.count() as u64;
        let reads = match self.track_reads {
            true => self.reads.seal(self.page_size),
            false => Vec::new(),
        };
        Arrival {
            op,
            interval: Some((diff, reads)),
            report: self.h.report(),
            planned,
        }
    }

    /// Arrives at a synchronization point and re-bases on the returned
    /// global image.
    fn sync_point(&mut self, op: PendingOp, planned: Option<String>) -> Option<u64> {
        let arrival = self.seal_interval(op, planned);
        // The fence stall: from arrival to the serial phase releasing us.
        let t0 = self.h.start();
        let (image, seed, value) = self.engine.arrive(self.tid, arrival);
        self.h.since(Phase::FenceWait, t0);
        if let Some(img) = image {
            self.space = img;
        }
        if let Some(seed) = seed {
            self.spawn_seed(seed);
        }
        if self.engine.mode == EngineMode::Quantum {
            self.budget = crate::QUANTUM_TICKS;
        }
        value
    }

    fn spawn_seed(&mut self, seed: ChildSeed) {
        let engine = Arc::clone(&self.engine);
        let ChildSeed { tid, space, entry } = seed;
        self.last_spawned_tid = Some(tid);
        let handle = std::thread::Builder::new()
            .name(format!("dthreads-{tid}"))
            .spawn(move || DtCtx::new(engine, tid, space).run_body(entry))
            .expect("failed to spawn OS thread");
        self.engine.run.adopt(tid, handle);
    }

    /// Runs a thread's entry function to its exit operation. An unwind
    /// out of either is recorded and the thread taken out of the fence:
    /// a root-cause panic stops the run (`force_exit` wakes every parked
    /// peer); `Stopped` tokens just add diagnostics.
    pub fn run_body(&mut self, body: ThreadFn) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(self);
            self.exit();
        }));
        if let Err(payload) = result {
            let (report, kind) = (Some(self.h.report()), Some(FailureKind::Panic));
            self.engine
                .run
                .record_unwind(self.tid, payload, report, kind);
            self.engine.force_exit(self.tid);
        }
    }

    fn exit(&mut self) {
        let planned = self.enter(SyncOp::Exit);
        let arrival = self.seal_interval(PendingOp::Exit, planned);
        let _ = self.engine.arrive(self.tid, arrival);
        self.h.stats.private_pages = self.space.materialized_pages() as u64;
        self.engine.run.retire(&mut self.h);
    }

    #[inline]
    fn charge(&mut self, n: u64) {
        if self.budget != u64::MAX {
            self.budget = self.budget.saturating_sub(n);
            if self.budget == 0 {
                // Quantum expired: lockstep round even without sync —
                // the Figure-1 behaviour of CoreDet/DMP.
                let _ = self.sync_point(PendingOp::QuantumBreak, None);
            }
        }
    }

    fn atomic(&mut self, addr: Addr, op: Option<AtomicOp>) -> u64 {
        self.sync_op(SyncOp::Atomic(addr), PendingOp::Atomic(addr, op))
            .expect("atomic op returns a value")
    }

    /// First-write snapshot of the whole of `page` for the interval's
    /// diff.
    #[inline]
    fn record_store(&mut self, page: usize) {
        if !self.snaps.is_open(page) {
            let current = self.space.page(page).map(Page::bytes);
            self.snaps.record(page, self.snaps.full_mask(), current);
            self.h.stats.stores_with_copy += 1;
        }
    }

    /// The store that is empty, crosses a page boundary or is out of
    /// range: range-checked as a whole before any page is snapshotted.
    #[cold]
    fn write_straddling(&mut self, addr: Addr, data: &[u8]) {
        self.space.check_range(addr, data.len());
        if let Some(last) = data.len().checked_sub(1) {
            for page in self.space.page_of(addr)..=self.space.page_of(addr + last as u64) {
                self.record_store(page);
            }
            self.space.write(addr, data);
        }
    }
}

impl DmtCtx for DtCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.charge(n);
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.h.stats.loads += 1;
        self.charge(1);
        if self.track_reads {
            self.reads.mark(addr, buf.len() as u64, self.page_size);
        }
        self.space.read(addr, buf);
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.h.stats.stores += 1;
        self.charge(1);
        match self.space.in_page(addr, data.len()) {
            Some((page, off)) => {
                self.record_store(page);
                self.space.write_page(page, off, data);
            }
            None => self.write_straddling(addr, data),
        }
    }

    fn lock(&mut self, m: MutexId) {
        self.sync_op(SyncOp::Lock(m), PendingOp::Lock(m.0));
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync_op(SyncOp::Unlock(m), PendingOp::Unlock(m.0));
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync_op(SyncOp::CondWait(c), PendingOp::Wait(c.0, m.0));
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync_op(SyncOp::CondSignal(c), PendingOp::Signal(c.0, false));
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync_op(SyncOp::CondBroadcast(c), PendingOp::Signal(c.0, true));
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync_op(SyncOp::Barrier(b), PendingOp::Barrier(b.0, parties));
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync_op(SyncOp::Spawn, PendingOp::Spawn(f));
        ThreadHandle(
            self.last_spawned_tid
                .take()
                .expect("spawn must produce a child"),
        )
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync_op(SyncOp::Join(h.0), PendingOp::Join(h.0));
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.h.enter_alloc(|| 0, size);
        self.heap.alloc(size, align)
    }

    fn dealloc(&mut self, addr: Addr) {
        self.heap.dealloc(addr);
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.h.emit(bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: AtomicOp) -> u64 {
        self.atomic(addr, Some(op))
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.atomic(addr, None)
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.atomic(addr, Some(AtomicOp::Exchange(value)));
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.h.count_app_events(retries, shed);
    }
}
