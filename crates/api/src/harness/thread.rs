//! Per-thread harness state.

use super::{RunHarness, SyncOp};
use crate::{DetRng, FaultPlan, Stats, SyncOpFault, ThreadReport, Tid};
use rfdet_obs::{ObsRecorder, Phase};
use rfdet_trace::{op, TraceBuf, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// The cross-cutting state every backend's thread context owns: fault
/// coordinates, the seeded physical jitter, the flight-recorder and
/// metrics buffers, the output stream and the profiling counters.
///
/// Both buffers flush to their run-wide sinks on drop — which covers
/// panic unwinds, since a context outlives the `catch_unwind` around its
/// thread body; the output and counters go at the exit op
/// ([`RunHarness::retire`]). Timing is read only when metrics are on and
/// flows only into the recorder, never into a decision.
#[derive(Debug)]
pub struct ThreadHarness {
    pub(super) tid: Tid,
    plan: Arc<FaultPlan>,
    /// Sync ops started — the `FaultPlan` trigger coordinate and the
    /// `sync_ops` field of failure and race reports.
    sync_ops: u64,
    last_op: Option<SyncOp>,
    /// Allocations performed (the `FaultPlan::fail_alloc` coordinate).
    allocs: u64,
    /// The plan attaches a panic to the op most recently entered.
    planned: bool,
    /// The thread's pause stream, `Some` iff the run sets a
    /// [`crate::RunConfig::jitter_seed`].
    jitter: Option<DetRng>,
    trace: Option<TraceBuf>,
    obs: Option<ObsRecorder>,
    /// The thread's output stream ([`crate::DmtCtx::emit`]).
    pub(super) output: Vec<u8>,
    /// Thread-local profiling counters.
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
            jitter: run.cfg.jitter_seed.map(|seed| DetRng::jitter(seed, tid)),
            trace: run.trace_sink.clone().map(TraceBuf::new),
            obs: run.obs_sink.clone().map(ObsRecorder::new),
            output: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Entry hook of every synchronization operation: counts it in
    /// [`Stats`], assigns it the thread's next sync-op index, remembers
    /// it for failure reports, records the trace event stamped with
    /// `clock()` (the backend's logical clock, read only when the run is
    /// recording; `0` where there is none), sleeps the thread's next
    /// seeded pause if the run is jittered, and returns whatever the
    /// [`FaultPlan`] attaches to this point.
    ///
    /// Every backend calls this before it orders the op (the core before
    /// its turn, the lockstep engine before the fence arrival, native
    /// before the op body), so the one pause perturbs every backend at
    /// the same program points.
    ///
    /// Indices are per-thread program order, so a plan written against
    /// one backend triggers at the same source point on every backend.
    /// The event is recorded *before* the caller applies the returned
    /// jitter ticks, so recorded and replayed streams key to the same
    /// pre-fault clocks. The caller applies the ticks in its own
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
        if let Some(rng) = &mut self.jitter {
            std::thread::sleep(rng.next_pause());
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

    /// The message of the panic planned at the op most recently entered,
    /// for backends that deliver it somewhere other than on the faulting
    /// thread's own stack (with [`Self::report`] as the culprit).
    #[must_use]
    pub fn planned_panic(&self) -> Option<String> {
        self.planned
            .then(|| FaultPlan::panic_message(self.tid, self.sync_ops - 1))
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

    /// `DmtCtx::emit`: appends to the thread's output stream.
    #[inline]
    pub fn emit(&mut self, bytes: &[u8]) {
        self.output.extend_from_slice(bytes);
    }

    /// The thread's output stream so far.
    #[must_use]
    pub fn output(&self) -> &[u8] {
        &self.output
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

    /// Restores a checkpointed thread's output and coordinates, so pre-cut
    /// faults do not re-fire and post-cut faults fire where recorded.
    pub fn restore(&mut self, sync_ops: u64, allocs: u64, output: Vec<u8>) {
        self.sync_ops = sync_ops;
        self.allocs = allocs;
        self.output = output;
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
