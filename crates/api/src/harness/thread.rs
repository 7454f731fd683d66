//! Per-thread harness state.

use super::{RunHarness, SyncOp};
use crate::{FaultPlan, Stats, SyncOpFault, ThreadReport, Tid};
use rfdet_obs::{ObsRecorder, Phase};
use rfdet_trace::{op, TraceBuf, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// A planned sync-op panic carried off the faulting thread's stack: its
/// canonical message and the culprit's state.
pub type PlannedPanic = (String, ThreadReport);

/// The cross-cutting state every backend's thread context owns: fault
/// coordinates, the flight-recorder and metrics buffers, and the
/// profiling counters.
///
/// Both buffers flush to their run-wide sinks on drop — which covers
/// panic unwinds, since a context outlives the `catch_unwind` around its
/// thread body. Timing is read only when metrics are on and flows only
/// into the recorder, never into a decision.
#[derive(Debug)]
pub struct ThreadHarness {
    tid: Tid,
    plan: Arc<FaultPlan>,
    /// Sync ops started — the `FaultPlan` trigger coordinate and the
    /// `sync_ops` field of failure and race reports.
    sync_ops: u64,
    last_op: Option<SyncOp>,
    /// Allocations performed (the `FaultPlan::fail_alloc` coordinate).
    allocs: u64,
    /// The plan attaches a panic to the op most recently entered.
    planned: bool,
    trace: Option<TraceBuf>,
    obs: Option<ObsRecorder>,
    /// Thread-local profiling counters; the backend folds them into the
    /// run aggregate when the thread exits.
    pub stats: Stats,
}

impl ThreadHarness {
    /// The harness of thread `tid` of `run`.
    #[must_use]
    pub fn new(run: &RunHarness, tid: Tid) -> Self {
        Self {
            tid,
            plan: Arc::clone(&run.plan),
            sync_ops: 0,
            last_op: None,
            allocs: 0,
            planned: false,
            trace: run.trace_sink.clone().map(TraceBuf::new),
            obs: run.obs_sink.clone().map(ObsRecorder::new),
            stats: Stats::default(),
        }
    }

    /// Entry hook of every synchronization operation: counts it in
    /// [`Stats`], assigns it the thread's next sync-op index, remembers
    /// it for failure reports, records the trace event stamped with
    /// `clock()` (the backend's logical clock, read only when the run is
    /// recording; `0` where there is none) and returns whatever the
    /// [`FaultPlan`] attaches to this point.
    ///
    /// Indices are per-thread program order, so a plan written against
    /// one backend triggers at the same source point on every backend.
    /// The event is recorded *before* the caller applies the returned
    /// jitter, so recorded and replayed streams key to the same
    /// pre-fault clocks. The caller applies the jitter in its own
    /// currency and delivers a planned panic through
    /// [`Self::raise_planned`] (or [`Self::planned_panic`]) at the point
    /// its ordering contract names.
    #[inline]
    pub fn enter_sync(&mut self, op: SyncOp, clock: impl FnOnce() -> u64) -> SyncOpFault {
        op.count(&mut self.stats);
        let idx = self.sync_ops;
        self.sync_ops += 1;
        self.last_op = Some(op);
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                tid: self.tid,
                op: idx,
                kind: op.kind(),
                arg: op.arg(),
                clock: clock(),
            });
        }
        if self.plan.is_empty() {
            return SyncOpFault::default();
        }
        let fault = self.plan.on_sync_op(self.tid, idx);
        self.planned = fault.panic;
        fault
    }

    /// Panics with the canonical injected-fault message if the plan
    /// attaches a panic to the op most recently entered.
    #[inline]
    pub fn raise_planned(&self) {
        if self.planned {
            self.raise();
        }
    }

    #[cold]
    fn raise(&self) -> ! {
        panic!("{}", FaultPlan::panic_message(self.tid, self.sync_ops - 1));
    }

    /// The message and culprit report of the panic planned at the op
    /// most recently entered, for backends that deliver it somewhere
    /// other than on the faulting thread's own stack.
    #[must_use]
    pub fn planned_panic(&self) -> Option<PlannedPanic> {
        self.planned.then(|| {
            (
                FaultPlan::panic_message(self.tid, self.sync_ops - 1),
                self.report(),
            )
        })
    }

    /// Entry hook of every shared allocation of `size` bytes: counts the
    /// bytes, assigns the allocation index, records the event, and fails
    /// the allocation if the plan says so. An allocation is not a sync
    /// op — no backend orders it — so the failure fires where the
    /// allocation is reached.
    #[inline]
    pub fn enter_alloc(&mut self, clock: impl FnOnce() -> u64, size: u64) {
        self.stats.shared_bytes += size;
        let nth = self.allocs;
        self.allocs += 1;
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                tid: self.tid,
                op: nth,
                kind: op::ALLOC,
                arg: None,
                clock: clock(),
            });
        }
        if !self.plan.is_empty() && self.plan.on_alloc(self.tid, nth) {
            panic!("{}", FaultPlan::alloc_panic_message(self.tid, nth));
        }
    }

    /// `Instant::now()` iff the run is collecting metrics — the only
    /// gate under which a backend reads the clock. Pair with
    /// [`Self::since`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    /// Records the nanoseconds elapsed since `t0` into `phase`.
    #[inline]
    pub fn since(&mut self, phase: Phase, t0: Option<Instant>) {
        if let (Some(obs), Some(t0)) = (self.obs.as_mut(), t0) {
            obs.record(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Records a raw sample into `phase` (metrics on only).
    #[inline]
    pub fn sample(&mut self, phase: Phase, value: u64) {
        if let Some(obs) = self.obs.as_mut() {
            obs.record(phase, value);
        }
    }

    /// Whether the run is collecting metrics.
    #[inline]
    #[must_use]
    pub fn metered(&self) -> bool {
        self.obs.is_some()
    }

    /// `DmtCtx::count_app_events`.
    pub fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.stats.app_retries += retries;
        self.stats.app_shed += shed;
    }

    /// Sync ops started so far.
    #[inline]
    #[must_use]
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops
    }

    /// Allocations performed so far.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Restores checkpointed coordinates, so pre-cut faults do not
    /// re-fire and post-cut faults fire at their recorded points.
    pub fn restore_coordinates(&mut self, sync_ops: u64, allocs: u64) {
        self.sync_ops = sync_ops;
        self.allocs = allocs;
    }

    /// The thread's deterministic progress summary for failure reports.
    /// Backends with vector clocks and slice counts fill those two
    /// fields in.
    #[must_use]
    pub fn report(&self) -> ThreadReport {
        ThreadReport {
            tid: self.tid,
            sync_ops: self.sync_ops,
            last_op: self.last_op.map(SyncOp::render),
            ..ThreadReport::default()
        }
    }
}
