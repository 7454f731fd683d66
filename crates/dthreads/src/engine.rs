//! The lockstep engine: global fence + serial token-order commit.

use crate::detect::EngineDetect;
use parking_lot::{Condvar, Mutex};
use rfdet_api::harness::PlannedPanic;
use rfdet_api::{
    AtomicOp, ConfigError, FailureKind, RaceReport, RunConfig, RunHarness, ThreadFn, Tid, WaitEdge,
};
use rfdet_mem::race::ReadRun;
use rfdet_mem::{ModRun, PrivateSpace};
use rfdet_meta::{MetaSpace, GC_THRESHOLD};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering::Relaxed;

/// What ends a parallel phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EngineMode {
    /// DThreads: only synchronization operations end a thread's parallel
    /// interval.
    SyncOnly,
    /// CoreDet/DMP: an interval also ends after the given tick budget
    /// (the *quantum*), forcing lockstep rounds even without
    /// synchronization.
    Quantum(u64),
}

/// The synchronization operation a thread arrived with.
pub(crate) enum PendingOp {
    Noop,
    QuantumBreak,
    Lock(u32),
    Unlock(u32),
    /// `(cond, mutex)` — releases the mutex and parks.
    Wait(u32, u32),
    /// `(cond, broadcast)`.
    Signal(u32, bool),
    /// `(barrier, parties)`.
    Barrier(u32, usize),
    Spawn(ThreadFn),
    Join(Tid),
    Exit,
    /// Low-level atomic on the global store (the §4.6 extension):
    /// executed in the serial phase, so it is atomic and deterministic
    /// by construction. `op` None = pure load; `store` Some = plain
    /// release store.
    Atomic {
        addr: u64,
        op: Option<AtomicOp>,
        store: Option<u64>,
    },
}

impl PendingOp {
    /// Short description for stall diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            PendingOp::Noop => "noop".into(),
            PendingOp::QuantumBreak => "quantum".into(),
            PendingOp::Lock(m) => format!("lock({m})"),
            PendingOp::Unlock(m) => format!("unlock({m})"),
            PendingOp::Wait(c, m) => format!("wait({c},{m})"),
            PendingOp::Signal(c, b) => format!("signal({c},bc={b})"),
            PendingOp::Barrier(b, p) => format!("barrier({b},{p})"),
            PendingOp::Spawn(_) => "spawn".into(),
            PendingOp::Join(t) => format!("join({t})"),
            PendingOp::Exit => "exit".into(),
            PendingOp::Atomic { addr, .. } => format!("atomic({addr:#x})"),
        }
    }
}

/// The diff a thread computed for its just-ended parallel interval.
pub(crate) struct Arrival {
    pub op: PendingOp,
    /// Taken (applied to the global store) at most once, on the first
    /// serial phase that processes this arrival.
    pub diff: Option<Vec<ModRun>>,
    /// The interval's word-read set, sealed alongside the diff for race
    /// detection. Empty unless [`RunConfig::detect_races`] is on.
    pub reads: Option<Vec<ReadRun>>,
    /// The arriving thread's sync-op count at the seal — the
    /// backend-invariant logical coordinate stamped on race reports.
    pub sync_op: u64,
    /// The panic the fault plan attaches to this op (message and culprit
    /// state), delivered by the serial phase that first sees the arrival.
    pub planned: Option<PlannedPanic>,
}

impl Arrival {
    /// A bare re-arm (woken waiter, released joiner): no interval, no
    /// coordinate, nothing planned.
    fn rearm(op: PendingOp) -> Self {
        Self {
            op,
            diff: None,
            reads: None,
            sync_op: 0,
            planned: None,
        }
    }
}

#[derive(Default)]
struct Slot {
    /// Set when this thread's operation completes: the image of the
    /// global store to re-base on (`None` for exit).
    done: Option<Option<PrivateSpace>>,
    /// Old value returned by this thread's `Atomic` op.
    value: Option<u64>,
    /// Child seed produced by this thread's `Spawn` op, to be turned into
    /// an OS thread by the spawner itself once its op completes.
    seed: Option<ChildSeed>,
}

pub(crate) struct EngineState {
    pub global: PrivateSpace,
    /// Threads that participate in the fence (runnable, not parked).
    active: HashSet<Tid>,
    /// Threads stopped at their next synchronization operation.
    arrived: BTreeMap<Tid, Arrival>,
    slots: Vec<Slot>,
    lock_owner: HashMap<u32, Option<Tid>>,
    cond_waiters: HashMap<u32, VecDeque<(Tid, u32)>>,
    barrier_waiters: HashMap<u32, Vec<Tid>>,
    join_waiters: HashMap<Tid, Vec<Tid>>,
    finished: HashSet<Tid>,
    phase: u64,
    /// Race-detection shadow state (`RunConfig::detect_races`); lives
    /// under the monitor so serial phases mutate it race-free.
    detect: Option<Box<EngineDetect>>,
}

/// The engine: one big monitor. Parallel-phase memory accesses never touch
/// it; only synchronization points do — which is faithful to DThreads,
/// where the serial phase is globally serialized by the token anyway.
pub(crate) struct Engine {
    state: Mutex<EngineState>,
    cv: Condvar,
    pub meta: MetaSpace,
    pub mode: EngineMode,
    pub strips: rfdet_mem::StripAllocator,
    /// The run harness: resolved config (`run.cfg`), fault plan, sinks,
    /// OS handles, the failure slot and the stop flag — once a failure is
    /// recorded, every thread unwinds at its next engine interaction and
    /// no further serial phases run. The engine's part of a stop is
    /// `cv.notify_all()`, so fence waiters need not wait out a poll.
    pub run: RunHarness,
}

/// Everything a freshly spawned thread needs.
pub(crate) struct ChildSeed {
    pub tid: Tid,
    pub space: PrivateSpace,
    pub entry: ThreadFn,
}

impl Engine {
    pub fn new(cfg: &RunConfig, mode: EngineMode) -> Result<Self, ConfigError> {
        let run = RunHarness::new(cfg)?;
        let cfg = &run.cfg;
        let heap_base = rfdet_mem::heap_base(cfg.space_bytes);
        Ok(Self {
            state: Mutex::new(EngineState {
                global: PrivateSpace::new(cfg.space_bytes, cfg.page_size),
                active: HashSet::new(),
                arrived: BTreeMap::new(),
                slots: Vec::new(),
                lock_owner: HashMap::new(),
                cond_waiters: HashMap::new(),
                barrier_waiters: HashMap::new(),
                join_waiters: HashMap::new(),
                finished: HashSet::new(),
                phase: 0,
                detect: cfg
                    .detect_races
                    .then(|| Box::new(EngineDetect::new(cfg.page_size))),
            }),
            cv: Condvar::new(),
            meta: MetaSpace::new(cfg.meta_capacity_bytes as usize, GC_THRESHOLD),
            mode,
            strips: rfdet_mem::StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            run,
        })
    }

    /// The wait-for graph read off the engine's deterministic queueing
    /// state: retrying `Lock` arrivals plus every parked waiter.
    fn wait_graph(st: &EngineState) -> Vec<WaitEdge> {
        WaitEdge::graph(
            st.arrived.iter().filter_map(|(&tid, a)| match a.op {
                PendingOp::Lock(m) => Some((tid, m, st.lock_owner.get(&m).copied().flatten())),
                _ => None,
            }),
            st.cond_waiters
                .iter()
                .flat_map(|(&id, ws)| ws.iter().map(move |&(w, _)| (w, id))),
            st.barrier_waiters
                .iter()
                .flat_map(|(&id, ws)| ws.iter().map(move |&w| (w, id))),
            st.join_waiters
                .iter()
                .flat_map(|(&target, ws)| ws.iter().map(move |&w| (w, target))),
        )
    }

    /// Records a structural deadlock discovered from the engine state.
    /// The state (and hence the report and its digest) is a deterministic
    /// function of the schedule, so this reproduces across reruns.
    fn record_deadlock(&self, st: &EngineState) {
        let wait_graph = Self::wait_graph(st);
        let tid = wait_graph.first().map_or(0, |e| e.waiter);
        self.run.record_deadlock(tid, wait_graph.len(), wait_graph);
        self.cv.notify_all();
    }

    /// Registers the main thread (tid 0) and returns its starting image.
    pub fn register_main(&self) -> (Tid, PrivateSpace) {
        let tid = self.meta.register_thread().tid;
        assert_eq!(tid, 0, "main must be the first registration");
        let mut st = self.state.lock();
        st.active.insert(tid);
        st.slots.push(Slot::default());
        if let Some(det) = st.detect.as_mut() {
            det.register(tid);
        }
        let img = st.global.fork();
        (tid, img)
    }

    /// Harvests the run's race reports at teardown (empty when detection
    /// was off). The second value reports cap truncation.
    pub fn take_races(&self) -> (Vec<RaceReport>, bool) {
        match self.state.lock().detect.take() {
            Some(det) => det.finish(),
            None => (Vec::new(), false),
        }
    }

    /// A thread arrives at a synchronization point with its interval diff
    /// and blocks until its operation completes. Returns the new base
    /// image (None if the op was `Exit`) and any child seed to spawn.
    pub fn arrive(
        &self,
        tid: Tid,
        arrival: Arrival,
    ) -> (Option<PrivateSpace>, Option<ChildSeed>, Option<u64>) {
        let mut st = self.state.lock();
        st.arrived.insert(tid, arrival);
        self.maybe_phases(&mut st);
        // The wall-clock fallback of the supervised wait: the run stalled
        // without tripping the structural detector (e.g. an active thread
        // spinning forever).
        self.run.wait_until(
            &self.cv,
            &mut st,
            tid,
            |st| st.slots[tid as usize].done.is_some(),
            |st| {
                let message = format!(
                    "dthreads engine stalled: tid={tid} phase={} active={:?} arrived={:?}",
                    st.phase,
                    st.active,
                    st.arrived
                        .iter()
                        .map(|(t, a)| (*t, a.op.describe()))
                        .collect::<Vec<_>>(),
                );
                (message, Self::wait_graph(st))
            },
        );
        self.run.check_stop();
        let slot = &mut st.slots[tid as usize];
        (
            slot.done.take().flatten(),
            slot.seed.take(),
            slot.value.take(),
        )
    }

    /// Runs serial phases for as long as the fence condition holds, then
    /// checks for the everyone-parked deadlock (no thread left to wake
    /// the waiters).
    fn maybe_phases(&self, st: &mut EngineState) {
        while !self.run.is_stopped() && !st.active.is_empty() && st.arrived.len() == st.active.len()
        {
            self.run_serial_phase(st);
            self.cv.notify_all();
        }
        if !self.run.is_stopped()
            && st.active.is_empty()
            && (st.cond_waiters.values().any(|q| !q.is_empty())
                || st.barrier_waiters.values().any(|v| !v.is_empty())
                || st.join_waiters.values().any(|v| !v.is_empty()))
        {
            self.record_deadlock(st);
        }
    }

    /// One serial phase: token order = ascending tid.
    fn run_serial_phase(&self, st: &mut EngineState) {
        // A planned panic is delivered here, where its op is ordered: the
        // first flagged arrival in token order is the root cause, however
        // the flagged threads' arrivals were timed.
        let planned = st
            .arrived
            .iter_mut()
            .find_map(|(&tid, a)| a.planned.take().map(|p| (tid, p)));
        if let Some((tid, (message, report))) = planned {
            // (The caller's `notify_all` after this phase wakes the fence.)
            self.run.record_failure(
                FailureKind::Panic,
                tid,
                message,
                Some(report),
                Vec::new(),
                Vec::new(),
            );
            return;
        }
        let t0 = self
            .run
            .obs_sink
            .as_ref()
            .map(|_| std::time::Instant::now());
        let order: Vec<Tid> = st.arrived.keys().copied().collect();
        let mut done: Vec<Tid> = Vec::new();
        let mut exited: Vec<Tid> = Vec::new();
        let mut parked = 0usize;
        let mut spawned = 0usize;

        for tid in order {
            // The interval's pre-tick clock, sealed at first processing;
            // release-side happens-before edges publish it below. Ops
            // that can re-process (a retried `Lock`) are acquire-only,
            // so a missing seal never loses a release edge.
            let mut sealed = None;
            // Commit the interval's modifications (once).
            if let Some(diff) = st.arrived.get_mut(&tid).and_then(|a| a.diff.take()) {
                if let Some(det) = st.detect.as_mut() {
                    let a = st.arrived.get_mut(&tid).expect("arrival present");
                    let reads = a.reads.take().unwrap_or_default();
                    let sync_op = a.sync_op;
                    sealed = Some(det.seal_interval(tid, sync_op, &reads, &diff));
                }
                if !diff.is_empty() {
                    self.meta.stats.serial_commits.fetch_add(1, Relaxed);
                    let bytes: u64 = diff.iter().map(|r| r.len() as u64).sum();
                    self.meta.stats.mod_bytes_applied.fetch_add(bytes, Relaxed);
                    st.global.apply_runs(&diff);
                }
            }
            // Take the op; a failed Lock puts it back for the next round.
            let op = std::mem::replace(
                &mut st.arrived.get_mut(&tid).expect("arrival present").op,
                PendingOp::Noop,
            );
            match op {
                PendingOp::Noop | PendingOp::QuantumBreak => done.push(tid),
                PendingOp::Lock(m) => {
                    let owner = st.lock_owner.entry(m).or_insert(None);
                    if owner.is_none() {
                        *owner = Some(tid);
                        if let Some(det) = st.detect.as_mut() {
                            det.lock_acquired(tid, m);
                        }
                        done.push(tid);
                    } else {
                        // Retry next phase (stay arrived, diff consumed).
                        st.arrived.get_mut(&tid).expect("arrival").op = PendingOp::Lock(m);
                    }
                }
                PendingOp::Unlock(m) => {
                    let owner = st.lock_owner.entry(m).or_insert(None);
                    assert_eq!(
                        *owner,
                        Some(tid),
                        "thread {tid} unlocking mutex {m} it does not hold"
                    );
                    *owner = None;
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.mutex_released(m, s);
                    }
                    done.push(tid);
                }
                PendingOp::Wait(c, m) => {
                    let owner = st.lock_owner.entry(m).or_insert(None);
                    assert_eq!(*owner, Some(tid), "cond_wait without holding mutex {m}");
                    *owner = None;
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.mutex_released(m, s);
                    }
                    st.cond_waiters.entry(c).or_default().push_back((tid, m));
                    st.active.remove(&tid);
                    st.arrived.remove(&tid);
                    parked += 1;
                }
                PendingOp::Signal(c, broadcast) => {
                    let queue = st.cond_waiters.entry(c).or_default();
                    let n = if broadcast {
                        queue.len()
                    } else {
                        usize::from(!queue.is_empty())
                    };
                    let woken: Vec<(Tid, u32)> = queue.drain(..n).collect();
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        let tids: Vec<Tid> = woken.iter().map(|&(w, _)| w).collect();
                        det.signalled(&tids, s);
                    }
                    for (w, m) in woken {
                        // Re-arm as a mutex acquisition next phase.
                        st.active.insert(w);
                        st.arrived.insert(w, Arrival::rearm(PendingOp::Lock(m)));
                    }
                    done.push(tid);
                }
                PendingOp::Barrier(b, parties) => {
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.barrier_arrived(b, s);
                    }
                    let waiters = st.barrier_waiters.entry(b).or_default();
                    waiters.push(tid);
                    if waiters.len() == parties {
                        let all = std::mem::take(waiters);
                        if let Some(det) = st.detect.as_mut() {
                            det.barrier_released(b, &all);
                        }
                        for w in all {
                            if w != tid {
                                st.active.insert(w);
                            }
                            done.push(w);
                        }
                    } else {
                        st.active.remove(&tid);
                        st.arrived.remove(&tid);
                        parked += 1;
                    }
                }
                PendingOp::Spawn(entry) => {
                    let child = self.meta.register_thread().tid;
                    st.slots.push(Slot::default());
                    st.active.insert(child);
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.spawned(child, s);
                    }
                    let seed = ChildSeed {
                        tid: child,
                        // The child inherits the global store as of the
                        // parent's commit (a COW fork).
                        space: st.global.fork(),
                        entry,
                    };
                    st.slots[tid as usize].seed = Some(seed);
                    spawned += 1;
                    done.push(tid);
                }
                PendingOp::Join(target) => {
                    if st.finished.contains(&target) {
                        if let Some(det) = st.detect.as_mut() {
                            det.join_acquired(tid, target);
                        }
                        done.push(tid);
                    } else {
                        st.join_waiters.entry(target).or_default().push(tid);
                        st.active.remove(&tid);
                        st.arrived.remove(&tid);
                        parked += 1;
                    }
                }
                PendingOp::Atomic { addr, op, store } => {
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.atomic_op(tid, addr, s);
                    }
                    let mut buf = [0u8; 8];
                    st.global.read(addr, &mut buf);
                    let old = u64::from_le_bytes(buf);
                    let new = match (op, store) {
                        (Some(op), None) => Some(op.apply(old)),
                        (None, Some(v)) => Some(v),
                        (None, None) => None,
                        (Some(_), Some(_)) => unreachable!(),
                    };
                    if let Some(new) = new {
                        st.global.write(addr, &new.to_le_bytes());
                    }
                    st.slots[tid as usize].value = Some(old);
                    done.push(tid);
                }
                PendingOp::Exit => {
                    st.finished.insert(tid);
                    st.active.remove(&tid);
                    let joiners = st.join_waiters.remove(&tid).unwrap_or_default();
                    if let (Some(det), Some(s)) = (st.detect.as_mut(), sealed.as_ref()) {
                        det.exited(tid, s, &joiners);
                    }
                    for j in joiners {
                        st.active.insert(j);
                        st.arrived.insert(j, Arrival::rearm(PendingOp::Noop));
                    }
                    exited.push(tid);
                }
            }
        }

        // A full phase with zero progress: every arrived op is a mutex
        // acquisition whose owner is itself parked or retrying, and the
        // fence guarantees nobody else can run — a stable deadlock.
        if done.is_empty() && exited.is_empty() && parked == 0 && spawned == 0 {
            self.record_deadlock(st);
            self.record_serial_apply(t0);
            return;
        }

        for tid in done {
            st.arrived.remove(&tid);
            let img = st.global.fork();
            st.slots[tid as usize].done = Some(Some(img));
        }
        for tid in exited {
            st.arrived.remove(&tid);
            st.slots[tid as usize].done = Some(None);
        }
        st.phase += 1;
        self.meta.stats.global_fences.fetch_add(1, Relaxed);
        self.record_serial_apply(t0);
    }

    /// Attributes one serial phase's duration to
    /// [`Phase::SerialApply`](rfdet_api::obs::Phase::SerialApply) —
    /// straight into the sink, since the phase runs under the engine
    /// monitor rather than in any one thread's recorder.
    fn record_serial_apply(&self, t0: Option<std::time::Instant>) {
        if let (Some(sink), Some(t0)) = (&self.run.obs_sink, t0) {
            sink.record(
                rfdet_api::obs::Phase::SerialApply,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// Materialized size of the global store, for footprint reporting
    /// (this is the app's "real" shared footprint — what plain pthreads
    /// would use).
    pub fn global_store_bytes(&self) -> u64 {
        let st = self.state.lock();
        st.global.materialized_pages() as u64 * st.global.page_size() as u64
    }

    /// Emergency removal of a panicked thread so the fence can still
    /// close; joiners are released as if the thread exited. With the
    /// run stopped this is pure bookkeeping — no phases run, the notify
    /// just hastens peer teardown.
    pub fn force_exit(&self, tid: Tid) {
        let mut st = self.state.lock();
        st.active.remove(&tid);
        st.arrived.remove(&tid);
        st.finished.insert(tid);
        let joiners = st.join_waiters.remove(&tid).unwrap_or_default();
        for j in joiners {
            st.active.insert(j);
            st.arrived.insert(j, Arrival::rearm(PendingOp::Noop));
        }
        self.maybe_phases(&mut st);
        self.cv.notify_all();
    }
}
