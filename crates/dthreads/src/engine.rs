//! The lockstep engine: global fence + serial token-order commit.

use crate::detect::EngineDetect;
use parking_lot::{Condvar, Mutex};
use rfdet_api::{
    AtomicOp, ConfigError, FailureKind, RaceReport, RunConfig, RunHarness, ThreadFn, ThreadReport,
    Tid, WaitEdge,
};
use rfdet_mem::race::ReadRun;
use rfdet_mem::{PrivateSpace, RunList, Runs};
use rfdet_meta::SyncTable;
use rfdet_vclock::VClock;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering::Relaxed;

/// What ends a parallel phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EngineMode {
    /// DThreads: only synchronization operations end a thread's parallel
    /// interval.
    SyncOnly,
    /// CoreDet/DMP: an interval also ends after
    /// [`crate::QUANTUM_TICKS`] ticks (the *quantum*), forcing lockstep
    /// rounds even without synchronization.
    Quantum,
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
    /// by construction. `None` is a pure load; a store is an exchange.
    Atomic(u64, Option<AtomicOp>),
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
            PendingOp::Atomic(addr, _) => format!("atomic({addr:#x})"),
        }
    }
}

/// A thread at its synchronization operation, with what it computed for
/// its just-ended parallel interval.
pub(crate) struct Arrival {
    pub op: PendingOp,
    /// The interval's diff and its word-read set (empty unless
    /// [`RunConfig::detect_races`] is on), taken — the diff applied to the
    /// global store — at most once, on the first serial phase that
    /// processes this arrival. `None` for a re-arm.
    pub interval: Option<(RunList, Vec<ReadRun>)>,
    /// The thread's state at the op: its sync-op count is the coordinate
    /// race reports carry, and it is the culprit of a panic or misuse.
    pub report: ThreadReport,
    /// The panic the fault plan attaches to this op, delivered by the
    /// serial phase that first sees the arrival.
    pub planned: Option<String>,
}

impl Arrival {
    /// A bare re-arm of `tid` (woken waiter, released joiner): no
    /// interval, no coordinate, nothing planned.
    fn rearm(tid: Tid, op: PendingOp) -> Self {
        Self {
            op,
            interval: None,
            report: ThreadReport {
                tid,
                ..ThreadReport::default()
            },
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
    /// One per thread, by tid: the next spawn's tid is its length.
    slots: Vec<Slot>,
    /// Every sync object's record, with the release the race detector
    /// acquires.
    sync: SyncTable,
    /// Race-detection shadow clocks (`RunConfig::detect_races`); live
    /// under the monitor so serial phases mutate them race-free.
    detect: Option<Box<EngineDetect>>,
}

/// The engine: one big monitor. Parallel-phase memory accesses never touch
/// it; only synchronization points do — which is faithful to DThreads,
/// where the serial phase is globally serialized by the token anyway.
pub(crate) struct Engine {
    state: Mutex<EngineState>,
    cv: Condvar,
    pub mode: EngineMode,
    pub strips: rfdet_mem::StripAllocator,
    /// The run harness: resolved config (`run.cfg`), fault plan, sinks,
    /// OS handles, output and counters, the failure slot and the stop
    /// flag — once a failure is recorded, every thread unwinds at its
    /// next engine interaction and no further serial phases run. The
    /// engine's part of a stop is `cv.notify_all()`, so fence waiters
    /// need not wait out a poll.
    pub run: RunHarness,
}

/// Everything a freshly spawned thread needs.
pub(crate) struct ChildSeed {
    pub tid: Tid,
    pub space: PrivateSpace,
    pub entry: ThreadFn,
}

/// `tid` acquires a release at `time` (detection on only).
fn acquire(detect: &mut Option<Box<EngineDetect>>, tid: Tid, time: &VClock) {
    if let Some(det) = detect {
        det.acquire(tid, time);
    }
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
                sync: SyncTable::default(),
                detect: cfg
                    .detect_races
                    .then(|| Box::new(EngineDetect::new(cfg.page_size))),
            }),
            cv: Condvar::new(),
            mode,
            strips: rfdet_mem::StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            run,
        })
    }

    /// The wait-for graph read off the sync table, whose lockers are the
    /// retrying `Lock` arrivals (the engine never queues for a mutex).
    fn wait_graph(st: &EngineState) -> Vec<WaitEdge> {
        let retrying = st.arrived.iter().filter_map(|(&tid, a)| match a.op {
            PendingOp::Lock(m) => Some((tid, m)),
            _ => None,
        });
        st.sync.wait_graph(retrying)
    }

    /// Records a structural deadlock. The graph (and hence the report's
    /// digest) is a function of the schedule, so it reproduces.
    fn record_deadlock(&self, wait_graph: Vec<WaitEdge>) {
        let tid = wait_graph.first().map_or(0, |e| e.waiter);
        self.run.record_deadlock(tid, wait_graph.len(), wait_graph);
        self.cv.notify_all();
    }

    /// Registers the main thread (tid 0) and returns its starting image.
    pub fn register_main(&self) -> PrivateSpace {
        let mut st = self.state.lock();
        assert!(st.slots.is_empty(), "main must be the first registration");
        st.slots.push(Slot::default());
        st.active.insert(0);
        if let Some(det) = st.detect.as_mut() {
            det.register(0, &VClock::new());
        }
        st.global.fork()
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
        // spinning forever). Its progress is the fence count, bumped under
        // the state lock.
        self.run.wait_until(
            &self.cv,
            &mut st,
            tid,
            |st| {
                let fences = || self.run.stats.global_fences.load(Relaxed);
                st.slots[tid as usize].done.is_none().then(fences)
            },
            |st| {
                let message = format!(
                    "dthreads engine stalled: tid={tid} phase={} active={:?} arrived={:?}",
                    self.run.stats.global_fences.load(Relaxed),
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
        if !self.run.is_stopped() && st.active.is_empty() {
            let wait_graph = Self::wait_graph(st);
            if !wait_graph.is_empty() {
                self.record_deadlock(wait_graph);
            }
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
            .find_map(|(&tid, a)| a.planned.take().map(|m| (tid, m, a.report.clone())));
        if let Some((tid, message, culprit)) = planned {
            // (The caller's `notify_all` after this phase wakes the fence.)
            self.charge(tid, message, culprit);
            return;
        }
        let t0 = self
            .run
            .obs_sink
            .as_ref()
            .map(|_| std::time::Instant::now());
        let order: Vec<Tid> = st.arrived.keys().copied().collect();
        let mut done: Vec<Tid> = Vec::new();
        let mut progress = false;

        for tid in order {
            let sealed = self.commit(st, tid);
            // Take the op; a busy Lock puts it back for the next round.
            let op = std::mem::replace(
                &mut st.arrived.get_mut(&tid).expect("arrival present").op,
                PendingOp::Noop,
            );
            match Self::execute(st, tid, op, sealed, &mut done) {
                Ok(progressed) => progress |= progressed,
                Err(misuse) => {
                    let culprit = st.arrived[&tid].report.clone();
                    self.charge(tid, misuse, culprit);
                    self.record_serial_apply(t0);
                    return;
                }
            }
        }

        // A full phase with zero progress: every arrived op is a mutex
        // acquisition whose owner is itself parked or retrying, and the
        // fence guarantees nobody else can run — a stable deadlock.
        if !progress {
            self.record_deadlock(Self::wait_graph(st));
            self.record_serial_apply(t0);
            return;
        }

        for tid in done {
            st.arrived.remove(&tid);
            let img = st.global.fork();
            st.slots[tid as usize].done = Some(Some(img));
        }
        self.run.stats.global_fences.fetch_add(1, Relaxed);
        self.record_serial_apply(t0);
    }

    /// Charges a `Panic` (planned or a misuse) to `tid`, whose arrival the
    /// serial phase is processing — never to whoever closed the fence.
    fn charge(&self, tid: Tid, message: String, culprit: ThreadReport) {
        self.run.record_failure(
            FailureKind::Panic,
            tid,
            message,
            Some(culprit),
            Vec::new(),
            Vec::new(),
        );
    }

    /// Commits `tid`'s interval diff to the global store, once, and seals
    /// the interval for the race detector. Returns its release time: empty
    /// without detection or on a retried `Lock` (acquire-only).
    fn commit(&self, st: &mut EngineState, tid: Tid) -> VClock {
        let a = st.arrived.get_mut(&tid).expect("arrival present");
        let Some((diff, reads)) = a.interval.take() else {
            return VClock::new();
        };
        let sealed = match st.detect.as_mut() {
            Some(det) => det.seal_interval(tid, a.report.sync_ops, &reads, &diff),
            None => VClock::new(),
        };
        if diff.count() > 0 {
            self.run.stats.serial_commits.fetch_add(1, Relaxed);
            let bytes = st.global.apply(&diff);
            self.run.stats.mod_bytes_applied.fetch_add(bytes, Relaxed);
        }
        sealed
    }

    /// Executes `tid`'s op, released at `sealed`, on the sync table and
    /// the global store. Completed threads go on `done`; parked and
    /// exited ones leave the fence. Returns whether the op made progress
    /// (all but a busy `Lock` do).
    ///
    /// # Errors
    /// The misuse the op is, found before `tid` leaves `arrived`.
    fn execute(
        st: &mut EngineState,
        tid: Tid,
        op: PendingOp,
        sealed: VClock,
        done: &mut Vec<Tid>,
    ) -> Result<bool, String> {
        let EngineState {
            global,
            active,
            arrived,
            slots,
            sync,
            detect,
            ..
        } = st;
        let mut park = || {
            active.remove(&tid);
            arrived.remove(&tid);
        };
        match op {
            PendingOp::Noop | PendingOp::QuantumBreak => done.push(tid),
            PendingOp::Lock(m) => {
                let mx = sync.mutexes.entry(m).or_default();
                if !mx.try_lock(m, tid)? {
                    // Retry next phase (stay arrived, diff consumed).
                    arrived.get_mut(&tid).expect("arrival present").op = PendingOp::Lock(m);
                    return Ok(false);
                }
                acquire(detect, tid, &mx.release.last_time);
                done.push(tid);
            }
            PendingOp::Unlock(m) => {
                sync.release_mutex(tid, m, None, sealed)?;
                done.push(tid);
            }
            PendingOp::Wait(c, m) => {
                sync.release_mutex(tid, m, Some(c), sealed)?;
                park();
            }
            PendingOp::Signal(c, broadcast) => {
                let cond = sync.conds.entry(c).or_default();
                for (w, m) in cond.signal(tid, sealed.clone(), broadcast) {
                    // The wake edge; the mutex edge follows when the
                    // re-armed acquisition succeeds next phase.
                    acquire(detect, w, &sealed);
                    active.insert(w);
                    arrived.insert(w, Arrival::rearm(w, PendingOp::Lock(m)));
                }
                done.push(tid);
            }
            PendingOp::Barrier(b, parties) => {
                let barrier = sync.barriers.entry(b).or_default();
                let Some(arrivals) = barrier.arrive(b, tid, sealed, parties)? else {
                    park();
                    return Ok(true);
                };
                // All-to-all ordering across the wall.
                let mut episode = VClock::new();
                for (_, time) in &arrivals {
                    episode.join(time);
                }
                for (w, _) in arrivals {
                    acquire(detect, w, &episode);
                    if w != tid {
                        active.insert(w);
                    }
                    done.push(w);
                }
            }
            PendingOp::Spawn(entry) => {
                let child = slots.len() as Tid;
                slots.push(Slot::default());
                active.insert(child);
                if let Some(det) = detect {
                    det.register(child, &sealed);
                }
                // The child inherits the global store as of the parent's
                // commit (a COW fork).
                let space = global.fork();
                slots[tid as usize].seed = Some(ChildSeed {
                    tid: child,
                    space,
                    entry,
                });
                done.push(tid);
            }
            PendingOp::Join(target) => match sync.join(tid, target, slots.len())? {
                Some(exit) => {
                    acquire(detect, tid, &exit.last_time);
                    done.push(tid);
                }
                None => park(),
            },
            PendingOp::Atomic(addr, op) => {
                // Acquire and release: the recorded release keeps every
                // earlier one, since `sealed` predates this acquire.
                let cell = sync.atomics.entry(addr).or_default();
                acquire(detect, tid, &cell.last_time);
                cell.join_release(tid, &sealed);
                let mut buf = [0u8; 8];
                global.read(addr, &mut buf);
                let old = u64::from_le_bytes(buf);
                if let Some(op) = op {
                    global.write(addr, &op.apply(old).to_le_bytes());
                }
                slots[tid as usize].value = Some(old);
                done.push(tid);
            }
            PendingOp::Exit => {
                park();
                slots[tid as usize].done = Some(None);
                for j in sync.exit(tid, sealed.clone()) {
                    // Re-armed joiners carry no diff, so they acquire the
                    // exit here.
                    acquire(detect, j, &sealed);
                    active.insert(j);
                    arrived.insert(j, Arrival::rearm(j, PendingOp::Noop));
                }
            }
        }
        Ok(true)
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

    /// Takes a panicked thread out of the fence. Its unwind was recorded
    /// or it is a stopped run's secondary unwind, so the run is stopped
    /// and no phase runs again: the notify just hastens peer teardown.
    pub fn force_exit(&self, tid: Tid) {
        let mut st = self.state.lock();
        st.active.remove(&tid);
        st.arrived.remove(&tid);
        self.cv.notify_all();
    }
}
