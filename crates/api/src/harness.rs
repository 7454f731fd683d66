//! The run harness: everything about a run that is *not* "how sync ops
//! are ordered and when memory becomes visible" — the part a backend
//! actually implements.
//!
//! Three pieces, owned and called directly by each backend's contexts
//! (plain structs, no trait object, per-op methods `#[inline]`):
//!
//! * [`ThreadHarness`] — per thread: the sync-op and allocation
//!   coordinates, the last op, the flight-recorder and metrics buffers,
//!   the output stream, the profiling counters.
//!   [`ThreadHarness::enter_sync`] is the one definition of what a
//!   sync-op coordinate is and what happens at one.
//! * [`RunHarness`] — per run: the validated, resolved
//!   [`RunConfig`](crate::RunConfig), the fault plan, both sinks, the OS
//!   thread handles, the retired threads' output streams and the counter
//!   aggregate ([`RunHarness::retire`]), the failure slot and the stop
//!   protocol — recording a failure *is* stopping the run: the stop
//!   flag, the one [`Stopped`] unwind token (kept off stderr by the
//!   harness's panic-hook filter) and the supervised wait
//!   ([`RunHarness::wait_until`]) live here.
//! * [`RunHarness::finish`] — the run tail, in the one order it must
//!   happen in.
//!
//! A backend supplies only what differs: the clock stamped on each
//! event, what jitter ticks mean, *when* a planned panic is delivered
//! (deterministic backends deliver it once the op is ordered), and how
//! the sleepers of a stopped run are woken.

mod run;
mod thread;

pub use run::{InjectedFault, RunHarness, Stopped};
pub use thread::ThreadHarness;

use crate::{Addr, BarrierId, CondId, MutexId, Stats, Tid};
use rfdet_trace::op;

/// One synchronization operation, as every backend reports it to
/// [`ThreadHarness::enter_sync`]. The variant decides the trace kind, the
/// trace argument, how failure reports render it, and which [`Stats`]
/// counter it bumps — so a new op kind is one variant here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOp {
    /// `lock(m)`.
    Lock(MutexId),
    /// `unlock(m)`.
    Unlock(MutexId),
    /// `cond_wait(c, _)`.
    CondWait(CondId),
    /// `cond_signal(c)`.
    CondSignal(CondId),
    /// `cond_broadcast(c)`.
    CondBroadcast(CondId),
    /// `barrier(b, _)`.
    Barrier(BarrierId),
    /// `spawn(_)`.
    Spawn,
    /// `join` of the given thread.
    Join(Tid),
    /// `atomic_rmw` / `atomic_load` / `atomic_store` on the given cell.
    Atomic(Addr),
    /// The implicit operation a thread performs when its entry function
    /// returns.
    Exit,
}

impl SyncOp {
    /// The codec-stable trace kind ([`rfdet_trace::op`]).
    #[must_use]
    #[inline]
    pub fn kind(self) -> u8 {
        match self {
            SyncOp::Lock(_) => op::LOCK,
            SyncOp::Unlock(_) => op::UNLOCK,
            SyncOp::CondWait(_) => op::COND_WAIT,
            SyncOp::CondSignal(_) => op::COND_SIGNAL,
            SyncOp::CondBroadcast(_) => op::COND_BROADCAST,
            SyncOp::Barrier(_) => op::BARRIER,
            SyncOp::Spawn => op::SPAWN,
            SyncOp::Join(_) => op::JOIN,
            SyncOp::Atomic(_) => op::ATOMIC,
            SyncOp::Exit => op::EXIT,
        }
    }

    /// The operation's argument (sync-object id, joined tid, atomic
    /// address), when it has one.
    #[must_use]
    #[inline]
    pub fn arg(self) -> Option<u64> {
        match self {
            SyncOp::Lock(m) | SyncOp::Unlock(m) => Some(u64::from(m.0)),
            SyncOp::CondWait(c) | SyncOp::CondSignal(c) | SyncOp::CondBroadcast(c) => {
                Some(u64::from(c.0))
            }
            SyncOp::Barrier(b) => Some(u64::from(b.0)),
            SyncOp::Join(t) => Some(u64::from(t)),
            SyncOp::Atomic(a) => Some(a),
            SyncOp::Spawn | SyncOp::Exit => None,
        }
    }

    /// Counts the operation in the Table-1 sync-op columns.
    #[inline]
    fn count(self, stats: &mut Stats) {
        match self {
            SyncOp::Lock(_) => stats.locks += 1,
            SyncOp::Unlock(_) => stats.unlocks += 1,
            SyncOp::CondWait(_) => stats.waits += 1,
            SyncOp::CondSignal(_) | SyncOp::CondBroadcast(_) => stats.signals += 1,
            SyncOp::Barrier(_) => stats.barriers += 1,
            SyncOp::Spawn => stats.forks += 1,
            SyncOp::Join(_) => stats.joins += 1,
            SyncOp::Atomic(_) => stats.atomics += 1,
            SyncOp::Exit => {}
        }
    }

    /// How failure reports render the operation, e.g. `lock(3)`.
    #[must_use]
    pub fn render(self) -> String {
        let name = op::name(self.kind());
        match self.arg() {
            Some(a) => format!("{name}({a})"),
            None => name.to_owned(),
        }
    }
}

// API misuse, worded once for every backend.

/// The misuse of `tid` locking mutex `m`, which it already holds.
pub fn recursive_lock(m: u32, tid: Tid) -> String {
    format!("recursive lock of mutex {m} by thread {tid}")
}

/// The misuse of `tid` releasing mutex `m`, which it does not hold: an
/// unlock, or a `cond_wait` on `cond`.
pub fn not_held(tid: Tid, m: u32, cond: Option<u32>) -> String {
    match cond {
        None => format!("thread {tid} unlocking mutex {m} it does not hold"),
        Some(c) => format!("thread {tid} waiting on cond {c} without holding mutex {m}"),
    }
}

/// The misuse of a barrier `b` of zero parties.
pub fn zero_parties(b: u32) -> String {
    format!("barrier {b} with zero parties")
}

/// The misuse of `tid` joining itself.
pub fn join_self(tid: Tid) -> String {
    format!("thread {tid} joining itself")
}

/// The misuse of `tid` joining `target`, which was already joined.
pub fn join_twice(tid: Tid, target: Tid) -> String {
    format!("thread {tid} joining thread {target}, which was already joined")
}

/// The misuse of `tid` joining `target`, a tid no spawn has handed out.
pub fn join_never_spawned(tid: Tid, target: Tid) -> String {
    format!("thread {tid} joining thread {target}, which was never spawned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DetRng, FailureKind, FaultPlan, RunConfig, RunOutput, SyncOpFault, ThreadReport, TracedRun,
        JITTER_MAX_US,
    };
    use rfdet_obs::Phase;
    use rfdet_trace::{persist, TraceEvent};
    use std::any::Any;
    use std::time::{Duration, Instant};

    fn cfg(f: impl FnOnce(&mut RunConfig)) -> RunConfig {
        let mut cfg = RunConfig::small();
        f(&mut cfg);
        cfg
    }

    fn harness(cfg: &RunConfig) -> RunHarness {
        RunHarness::new(cfg).expect("valid config")
    }

    /// Finishes a run whose only context is `main` and whose output is
    /// `b"ok"`.
    fn finish(run: &RunHarness, mut main: ThreadHarness) -> TracedRun {
        main.emit(b"ok");
        run.retire(&mut main);
        run.finish("test", main, |_| Default::default())
    }

    fn events(run: TracedRun) -> Vec<TraceEvent> {
        run.trace.expect("recording on").events
    }

    fn report_of(tid: Tid) -> Option<ThreadReport> {
        Some(ThreadReport {
            tid,
            ..ThreadReport::default()
        })
    }

    #[test]
    fn sync_op_indices_are_per_thread_and_dense() {
        let run = harness(&cfg(|c| c.trace = Some("w".into())));
        let mut a = ThreadHarness::new(&run, 0);
        let mut b = ThreadHarness::new(&run, 1);
        a.enter_sync(SyncOp::Lock(MutexId(3)), || 10);
        b.enter_sync(SyncOp::Spawn, || 0);
        a.enter_alloc(|| 11, 64);
        a.enter_sync(SyncOp::Unlock(MutexId(3)), || 12);
        b.enter_sync(SyncOp::Exit, || 0);
        assert_eq!((a.sync_ops(), a.allocs(), b.sync_ops()), (2, 1, 2));
        assert_eq!(a.report().last_op.as_deref(), Some("unlock(3)"));
        assert_eq!(b.report().last_op.as_deref(), Some("exit"));
        assert_eq!(a.stats.shared_bytes, 64);
        drop(b);
        let projected: Vec<_> = events(finish(&run, a))
            .iter()
            .map(|e| (e.tid, e.op, e.kind, e.arg, e.clock))
            .collect();
        assert_eq!(
            projected,
            vec![
                (0, 0, op::LOCK, Some(3), 10),
                (0, 0, op::ALLOC, None, 11),
                (0, 1, op::UNLOCK, Some(3), 12),
                (1, 0, op::SPAWN, None, 0),
                (1, 1, op::EXIT, None, 0),
            ]
        );
    }

    #[test]
    fn retired_output_is_concatenated_in_tid_order_with_the_summed_counters() {
        let run = harness(&RunConfig::small());
        let mut threads: Vec<ThreadHarness> = (0..3).map(|t| ThreadHarness::new(&run, t)).collect();
        threads[2].emit(b"!");
        threads[1].emit(b"world");
        threads[0].emit(b"hello ");
        for h in &mut threads {
            h.enter_sync(SyncOp::Lock(MutexId(0)), || 0);
        }
        for h in threads.iter_mut().rev() {
            run.retire(h);
        }
        assert_eq!(run.output_of(1), b"world");
        assert!(threads[1].output().is_empty(), "retiring takes the stream");
        let out = run
            .finish("test", threads.remove(0), |_| Default::default())
            .result
            .expect("clean");
        assert_eq!(out.output, b"hello world!");
        assert_eq!(out.stats.locks, 3);
    }

    #[test]
    fn every_op_kind_names_its_counter_and_its_rendering() {
        let run = harness(&RunConfig::small());
        let mut h = ThreadHarness::new(&run, 0);
        for (op, rendered) in [
            (SyncOp::Lock(MutexId(1)), "lock(1)"),
            (SyncOp::Unlock(MutexId(1)), "unlock(1)"),
            (SyncOp::CondWait(CondId(2)), "cond_wait(2)"),
            (SyncOp::CondSignal(CondId(2)), "cond_signal(2)"),
            (SyncOp::CondBroadcast(CondId(2)), "cond_broadcast(2)"),
            (SyncOp::Barrier(BarrierId(4)), "barrier(4)"),
            (SyncOp::Spawn, "spawn"),
            (SyncOp::Join(5), "join(5)"),
            (SyncOp::Atomic(64), "atomic(64)"),
            (SyncOp::Exit, "exit"),
        ] {
            h.enter_sync(op, || 0);
            assert_eq!(h.report().last_op.as_deref(), Some(rendered));
        }
        let s = h.stats;
        assert_eq!(
            [s.locks, s.unlocks, s.waits, s.signals, s.barriers, s.forks, s.joins, s.atomics],
            [1, 1, 1, 2, 1, 1, 1, 1]
        );
        assert_eq!(h.sync_ops(), 10, "exit is a coordinate, not a counter");
        h.count_app_events(3, 1);
        assert_eq!((h.stats.app_retries, h.stats.app_shed), (3, 1));
    }

    /// The first `n` pauses of thread `tid`'s stream under `seed`.
    fn pauses(seed: u64, tid: Tid, n: usize) -> Vec<Duration> {
        let mut rng = DetRng::jitter(seed, tid);
        (0..n).map(|_| rng.next_pause()).collect()
    }

    /// `enter_sync` `n` times on a harness of thread 3; the wall time.
    fn time_ops(jitter_seed: Option<u64>, n: usize) -> Duration {
        let run = harness(&cfg(|c| c.jitter_seed = jitter_seed));
        let mut h = ThreadHarness::new(&run, 3);
        let t0 = Instant::now();
        for _ in 0..n {
            h.enter_sync(SyncOp::Exit, || 0);
        }
        t0.elapsed()
    }

    #[test]
    fn the_same_seed_and_tid_give_the_same_pauses() {
        let p = pauses(7, 3, 64);
        assert_eq!(p, pauses(7, 3, 64));
        assert!(p.iter().all(|d| *d <= Duration::from_micros(JITTER_MAX_US)));
        assert!(p.iter().any(Duration::is_zero), "fast paths stay exercised");
        assert!(p.iter().any(|d| !d.is_zero()), "{p:?}");
    }

    #[test]
    fn different_tids_give_different_pauses() {
        assert_ne!(pauses(7, 0, 8), pauses(7, 1, 8));
    }

    #[test]
    fn a_jittered_thread_sleeps_its_pauses_and_an_unjittered_one_never_sleeps() {
        // `sleep` never returns early: the stream's sum is a lower bound.
        assert!(time_ops(Some(7), 64) >= pauses(7, 3, 64).iter().sum());
        let n = 10_000;
        let asked: Duration = pauses(7, 3, n).iter().sum();
        assert!(asked > Duration::from_millis(100), "{asked:?}");
        assert!(time_ops(None, n) < Duration::from_millis(100));
    }

    #[test]
    fn the_event_is_recorded_before_the_fault_is_reported() {
        let run = harness(&cfg(|c| {
            c.trace = Some("w".into());
            c.fault_plan = FaultPlan::new().jitter_at(0, 1, 7).panic_at(0, 1);
        }));
        let mut h = ThreadHarness::new(&run, 0);
        assert_eq!(h.enter_sync(SyncOp::Spawn, || 40), SyncOpFault::default());
        h.raise_planned();
        let fault = h.enter_sync(SyncOp::Join(1), || 45);
        assert_eq!((fault.panic, fault.jitter_ticks), (true, 7));
        let message = h.planned_panic().expect("planned at op 1");
        assert_eq!(message, FaultPlan::panic_message(0, 1));
        let culprit = h.report();
        assert_eq!(
            (culprit.sync_ops, culprit.last_op.as_deref()),
            (2, Some("join(1)"))
        );
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.raise_planned()))
            .expect_err("the planned panic fires");
        assert!(
            run::quiet_unwind(raised.as_ref()),
            "the hook prints no injected fault"
        );
        let raised = raised.downcast::<InjectedFault>().expect("typed payload");
        assert_eq!(raised.0, message);
        for genuine in [Box::new("boom") as Box<dyn Any + Send>, Box::new(message)] {
            assert!(
                !run::quiet_unwind(genuine.as_ref()),
                "a program's panic prints"
            );
        }
        // The faulting op is in the stream, keyed to its pre-jitter clock.
        let recorded = events(finish(&run, h));
        assert_eq!(recorded.len(), 2);
        assert_eq!((recorded[1].op, recorded[1].clock), (1, 45));
    }

    #[test]
    fn first_root_cause_wins_and_later_unwinds_become_peers() {
        let run = harness(&RunConfig::small());
        assert!(!run.is_stopped());
        run.record_unwind(0, Box::new("first"), None, Some(FailureKind::Panic));
        assert!(run.is_stopped(), "recording is stopping");
        run.record_unwind(
            1,
            Box::new("second".to_owned()),
            report_of(1),
            Some(FailureKind::Panic),
        );
        // The culprit's own later unwind (a lockstep culprit tears down
        // with everyone else) and a structural failure lose the slot too.
        run.record_failure(
            FailureKind::Wedged,
            0,
            "late".into(),
            report_of(0),
            Vec::new(),
            Vec::new(),
        );
        run.record_deadlock(2, 1, Vec::new());
        let err = run.take_run_error("test").expect("failure recorded");
        let r = err.report();
        assert_eq!(err.kind(), FailureKind::Panic);
        assert_eq!(
            (r.kind, r.tid, r.message.as_str()),
            (FailureKind::Panic, 0, "first")
        );
        assert_eq!(r.backend, "test");
        assert_eq!(r.peers.len(), 1, "second panic kept, culprit filtered");
        assert_eq!(r.peers[0].tid, 1);
        assert!(
            run.take_run_error("test").is_none(),
            "the slot is taken once"
        );
    }

    #[test]
    fn secondary_unwinds_are_not_root_causes() {
        let run = harness(&RunConfig::small());
        // The harness's own token, whatever kind the backend passes, and
        // the backend's own (`None`): neither is a root cause.
        run.record_unwind(2, Box::new(Stopped), report_of(2), Some(FailureKind::Panic));
        run.record_unwind(3, Box::new("a backend's token"), report_of(3), None);
        assert!(!run.is_stopped(), "a secondary unwind is not a root cause");
        assert!(run.take_run_error("test").is_none());
        // The caller decides the kind; the message is the payload's, and a
        // payload that is no string still names its thread.
        run.record_unwind(0, Box::new(42u32), None, Some(FailureKind::Wedged));
        let err = run.take_run_error("test").expect("wedge recorded");
        assert_eq!(err.kind(), FailureKind::Wedged);
        assert_eq!(err.report().message, "panic with non-string payload");
        assert_eq!(
            err.report().peers.len(),
            2,
            "the tokens' states are diagnostics"
        );
    }

    #[test]
    fn a_stopped_run_unwinds_its_waiters_with_the_token() {
        use std::sync::Arc;
        let run = Arc::new(harness(&RunConfig::small()));
        run.check_stop(); // not stopped: returns
        let gate = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
        let waiter = {
            let (run, gate) = (Arc::clone(&run), Arc::clone(&gate));
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut open = gate.0.lock();
                    let shut = |open: &bool| (!*open).then_some(0);
                    run.wait_until(&gate.1, &mut open, 1, shut, |_| unreachable!());
                }))
            })
        };
        // Nobody notifies the condvar: the poll alone observes the stop.
        run.record_failure(
            FailureKind::Wedged,
            0,
            "stuck".into(),
            None,
            Vec::new(),
            Vec::new(),
        );
        let payload = waiter.join().expect("caught").expect_err("waiter unwinds");
        assert!(payload.is::<Stopped>());
    }

    #[test]
    fn a_wait_that_outlives_the_bound_records_the_wedge_it_describes() {
        let run = harness(&cfg(|c| c.deadlock_after_ms = Some(30)));
        let (m, cv) = (parking_lot::Mutex::new(7u32), parking_lot::Condvar::new());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.wait_until(
                &cv,
                &mut m.lock(),
                3,
                |_| Some(0),
                |v| (format!("stuck on {v}"), Vec::new()),
            );
        }));
        assert!(unwound
            .expect_err("unwinds on the next poll")
            .is::<Stopped>());
        let err = run.take_run_error("test").expect("wedge recorded");
        assert_eq!(err.kind(), FailureKind::Wedged);
        assert_eq!(
            (err.report().tid, err.report().message.as_str()),
            (3, "stuck on 7")
        );
    }

    #[test]
    fn the_bound_is_quiet_time_so_a_notified_wait_may_outlast_it() {
        let run = harness(&cfg(|c| c.deadlock_after_ms = Some(200)));
        let (m, cv) = (parking_lot::Mutex::new(0u64), parking_lot::Condvar::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                // Three bounds of peers' progress, then the outcome. Each
                // step changes the waiter's state under its mutex, then
                // notifies, as the runtime's callers do.
                for _ in 0..=60 {
                    std::thread::sleep(super::run::POLL);
                    *m.lock() += 1;
                    cv.notify_all();
                }
            });
            run.wait_until(
                &cv,
                &mut m.lock(),
                0,
                |steps| (*steps <= 60).then_some(*steps),
                |_| unreachable!(),
            );
        });
        assert!(!run.is_stopped());
    }

    /// The bound restarts from the guarded state's generation, not from
    /// a notified wake-up, so a peer's step counts wherever it lands
    /// between the waiter's polls. This peer steps on the poll's own
    /// period and never notifies, over five bounds.
    #[test]
    fn a_peer_s_progress_restarts_the_bound_without_a_notify() {
        let run = harness(&cfg(|c| c.deadlock_after_ms = Some(200)));
        let (m, cv) = (parking_lot::Mutex::new(0u64), parking_lot::Condvar::new());
        let waited = std::thread::scope(|s| {
            s.spawn(|| {
                // Five bounds of steps, then the outcome.
                for _ in 0..=100 {
                    std::thread::sleep(super::run::POLL);
                    *m.lock() += 1;
                }
            });
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run.wait_until(
                    &cv,
                    &mut m.lock(),
                    0,
                    |steps| (*steps <= 100).then_some(*steps),
                    |steps| (format!("stuck at step {steps}"), Vec::new()),
                );
            }))
        });
        let report = run
            .take_run_error("test")
            .map(|e| e.report().message.clone());
        assert!(waited.is_ok() && report.is_none(), "{report:?}");
    }

    #[test]
    fn an_invalid_config_is_an_error_not_a_harness() {
        let err = RunHarness::new(&cfg(|c| c.space_bytes = 4096)).expect_err("no heap strips");
        assert_eq!((err.field, err.value), ("space_bytes", 4096));
        let rejected = TracedRun::rejected("test", &err);
        assert!(rejected.trace.is_none() && rejected.checkpoints.is_empty());
        let run_err = rejected.result.expect_err("typed");
        assert_eq!(run_err.kind(), FailureKind::InvalidConfig);
        let r = run_err.report();
        assert_eq!(
            (r.kind, r.backend.as_str()),
            (FailureKind::InvalidConfig, "test")
        );
        assert_eq!(r.message, err.to_string());
    }

    #[test]
    fn a_plain_run_has_no_trace_and_no_metrics() {
        let run = harness(&RunConfig::small());
        assert!(run.trace_sink.is_none() && run.obs_sink.is_none());
        let h = ThreadHarness::new(&run, 0);
        assert!(!h.metered() && h.start().is_none());
        run.record_unwind(1, Box::new("boom"), None, Some(FailureKind::Panic));
        let done = finish(&run, h);
        assert!(done.trace.is_none());
        assert!(done
            .result
            .expect_err("failed")
            .report()
            .trace_path
            .is_none());
        let run = harness(&RunConfig::small());
        let done = finish(&run, ThreadHarness::new(&run, 0));
        assert!(done.result.expect("clean").metrics.is_none());
    }

    #[test]
    fn a_clean_run_is_traced_but_not_persisted_and_gets_the_rollup() {
        let run = harness(&cfg(|c| {
            c.trace = Some("wl".into());
            c.metrics = true;
        }));
        let mut h = ThreadHarness::new(&run, 0);
        let t0 = h.start();
        assert!(h.metered() && t0.is_some());
        h.since(Phase::SyncOp, t0);
        h.sample(Phase::IdleWakeups, 3);
        let sink = run.obs_sink.as_ref().expect("metrics on");
        sink.record(Phase::SerialApply, 1_500);
        let done = finish(&run, h);
        let trace = done.trace.expect("trace");
        let mut out = done.result.expect("clean");
        assert_eq!(trace.failure.kind, None);
        assert!(!trace.failure.is_failure());
        assert_eq!(trace.failure.report_digest, out.output_digest());
        let snap = out.metrics.take().expect("snapshot attached");
        assert_eq!(snap.backend, "test");
        assert_eq!(snap.phase(Phase::SyncOp).expect("phase").count, 1);
        assert_eq!(snap.phase(Phase::IdleWakeups).expect("phase").count, 1);
        assert_eq!(snap.phase(Phase::SerialApply).expect("phase").count, 1);
        // The digest never covers metrics.
        let bare = RunOutput {
            output: b"ok".to_vec(),
            ..RunOutput::default()
        };
        assert_eq!(out.output_digest(), bare.output_digest());
    }

    #[test]
    fn a_failing_run_persists_its_trace_and_keeps_its_report_untouched() {
        let dir = std::env::temp_dir().join(format!("rfdet-harness-test-{}", std::process::id()));
        // The env var is process-wide: this is the only test in the crate
        // that may set it.
        std::env::set_var("RFDET_TRACE_DIR", &dir);
        let run = harness(&cfg(|c| {
            c.trace = Some("wl".into());
            c.metrics = true;
            c.jitter_seed = Some(5);
            c.fault_plan = FaultPlan::new().panic_at(1, 0);
        }));
        run.record_unwind(1, Box::new("boom"), report_of(1), Some(FailureKind::Panic));
        let mut h = ThreadHarness::new(&run, 0);
        h.sample(Phase::SyncOp, 10);
        let done = finish(&run, h);
        std::env::remove_var("RFDET_TRACE_DIR");

        let trace = done.trace.expect("trace");
        assert_eq!(trace.recording.workload, "wl");
        assert_eq!(trace.recording.seed, Some(5));
        assert_eq!(trace.recording.faults.len(), 1);
        assert_eq!(trace.failure.kind, Some(FailureKind::Panic));
        let err = done.result.expect_err("failed");
        assert_eq!(trace.failure.report_digest, err.report().report_digest());
        let path = err.report().trace_path.clone().expect("path stamped");
        assert_eq!(persist::load(&path).expect("loads back"), *trace);
        // Timing never reaches a failure report: its digest is the bare
        // report's.
        let mut bare = err.report().clone();
        bare.trace_path = None;
        assert_eq!(bare.report_digest(), err.report().report_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
