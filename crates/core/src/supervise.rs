//! Run supervision: panics, deadlocks and wedges become typed failures.
//!
//! The supervisor turns the three ways a deterministic run can die into
//! a [`RunError`](rfdet_api::RunError) with every parked thread woken in
//! bounded time. Recording a failure in the run harness stops the run;
//! what this family adds is waking Kendo's sleepers
//! ([`KendoState::set_abort`](rfdet_kendo::KendoState::set_abort)):
//!
//! * **Panic** — the unwinding thread records its payload and
//!   deterministic state here, then flips the Kendo abort flag, which
//!   wakes every thread spinning in `wait_for_turn` or parked on a slot
//!   condvar. First panic wins; the [`Aborted`] unwinds it triggers in
//!   peers only contribute best-effort peer diagnostics.
//! * **Deadlock** — parked threads periodically run [`RuntimeShared::
//!   check_deadlock`] from their idle callback. An epoch-stable Kendo
//!   scan showing *every* live thread `Blocked` proves a stable
//!   deadlock (a blocked thread never wakes another, so the state can
//!   only persist); the wait-for graph is then read off the
//!   deterministic sync table — no wall clock involved.
//! * **Wedge** — the wall-clock fallback (`deadlock_after_ms` of quiet
//!   time: no Kendo slot's clock or status moved) still exists for runs
//!   that starve without a provable deadlock; Kendo's timeout unwinds
//!   with a [`Starved`] payload, recognised here by type.

use crate::checkpoint::CkptStop;
use crate::shared::RuntimeShared;
use rfdet_api::{FailureKind, ThreadReport, Tid, WaitEdge};
use rfdet_kendo::{Aborted, Starved};
use std::any::Any;

/// Installs, once per process, the panic-hook filter over this family's
/// own unwinds, which are all caught: a [`control_flow`] token prints
/// nothing, a [`Starved`] prints its diagnosis, not `Box<dyn Any>`. The
/// harness's own `Stopped` token is filtered by the harness.
pub(crate) fn filter_control_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(starved) = info.payload().downcast_ref::<Starved>() {
                eprintln!("{starved}");
            } else if !control_flow(info.payload()) {
                prev(info);
            }
        }));
    });
}

/// `true` for this family's unwinds that stop a thread rather than
/// report a fault: the clean stop at an epoch and Kendo's abort.
fn control_flow(payload: &(dyn Any + Send)) -> bool {
    payload.is::<CkptStop>() || payload.is::<Aborted>()
}

impl RuntimeShared {
    /// Records a thread's unwind (first root cause wins) and aborts the
    /// arbitration protocol so every other thread wakes and unwinds too.
    /// The payload's type decides what the unwind was: Kendo's own
    /// [`Aborted`] token is secondary, its [`Starved`] diagnosis is the
    /// wall-clock wedge, anything else is the thread's own panic.
    pub fn record_panic(
        &self,
        tid: Tid,
        payload: Box<dyn Any + Send>,
        state: Option<ThreadReport>,
    ) {
        let (payload, kind): (Box<dyn Any + Send>, _) = match payload.downcast::<Starved>() {
            Ok(starved) => (Box::new(starved.to_string()), Some(FailureKind::Wedged)),
            Err(other) => {
                let kind = (!other.is::<Aborted>()).then_some(FailureKind::Panic);
                (other, kind)
            }
        };
        self.run.record_unwind(tid, payload, state, kind);
        self.kendo.set_abort();
        self.kendo.finish_forced(tid);
    }

    /// Structural deadlock detection, run by parked threads from their
    /// park-idle callback. Cheap when the run is alive: one epoch-stable
    /// status scan that bails at the first `Active` thread.
    pub fn check_deadlock(&self) {
        if self.kendo.aborted() {
            return;
        }
        let Some(blocked) = self.kendo.blocked_snapshot() else {
            return;
        };
        // Every live thread is provably, permanently blocked. Read the
        // wait-for graph off the deterministic sync table: this state is a
        // pure function of the schedule, so the resulting report (and
        // its digest) reproduces across reruns.
        let tid = blocked.first().copied().unwrap_or(0);
        self.run
            .record_deadlock(tid, blocked.len(), self.wait_graph());
        self.kendo.set_abort();
    }

    /// One wait-for edge per blocked thread, read from the sync table.
    /// Only sound once `blocked_snapshot` succeeded (no turn runs, the
    /// table is quiescent); two parked threads may read it at once, so
    /// this takes the plain lock, not the turn holder's.
    fn wait_graph(&self) -> Vec<WaitEdge> {
        self.meta.sync_table().wait_graph([])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{RunConfig, RunError};

    fn shared() -> RuntimeShared {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        RuntimeShared::new(&cfg).expect("valid config")
    }

    /// What `body` unwinds with.
    fn unwind_of(body: impl FnOnce()) -> Box<dyn Any + Send> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).expect_err("unwinds")
    }

    #[test]
    fn record_panic_aborts_for_root_causes_and_secondary_unwinds_alike() {
        let s = shared();
        let h = s.kendo.register(0);
        s.kendo.set_abort();
        let token = unwind_of(|| s.kendo.wait_for_turn(&h));
        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(0, token, None);
        assert!(s.kendo.aborted(), "abort still propagates");
        assert!(
            s.run.take_run_error("test").is_none(),
            "no root cause recorded from a secondary unwind"
        );

        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(0, Box::new("first"), None);
        assert!(s.kendo.aborted());
        let err = s.run.take_run_error("test").expect("failure recorded");
        assert_eq!(err.report().kind, FailureKind::Panic);
    }

    #[test]
    fn kendo_starvation_is_wedged_by_type_and_a_lookalike_message_is_a_panic() {
        let mut cfg = RunConfig::small();
        cfg.deadlock_after_ms = Some(50);
        let s = RuntimeShared::new(&cfg).expect("valid config");
        let _leader = s.kendo.register(0); // never progresses
        let starving = s.kendo.register(10);
        s.record_panic(1, unwind_of(|| s.kendo.wait_for_turn(&starving)), None);
        let err = s.run.take_run_error("test").expect("wedge recorded");
        assert!(matches!(err, RunError::Wedged(_)));
        let (message, diagnosis) = (
            &err.report().message,
            "kendo: thread 1 starved waiting for its turn for 50ms",
        );
        assert!(message.starts_with(diagnosis), "{message}");

        for lookalike in ["kendo: thread 7 is unhappy", "kendo: run aborted by me"] {
            let s = shared();
            let _h = s.kendo.register(0);
            s.record_panic(0, Box::new(lookalike.to_owned()), None);
            let err = s.run.take_run_error("test").expect("root cause recorded");
            assert!(matches!(err, RunError::WorkerPanicked(_)), "{lookalike}");
            assert_eq!(err.report().message, lookalike);
        }
    }

    #[test]
    fn the_hook_silences_stopping_tokens_and_nothing_else() {
        // The harness's own `Stopped` token is the harness hook's to
        // silence; this one passes it on.
        let silent: [Box<dyn Any + Send>; 2] = [Box::new(CkptStop), Box::new(Aborted)];
        assert!(silent.iter().all(|p| control_flow(p.as_ref())));
        assert!(!control_flow(&rfdet_api::harness::Stopped));
        let mut cfg = RunConfig::small();
        cfg.deadlock_after_ms = Some(10);
        let s = RuntimeShared::new(&cfg).expect("valid config");
        let _leader = s.kendo.register(0);
        let starving = s.kendo.register(10);
        let starved = unwind_of(|| s.kendo.wait_for_turn(&starving));
        assert!(starved.is::<Starved>());
        let printed: [Box<dyn Any + Send>; 3] = [starved, Box::new("boom"), Box::new(7u32)];
        assert!(printed.iter().all(|p| !control_flow(p.as_ref())));
    }

    #[test]
    fn check_deadlock_builds_graph_and_cycle_from_the_sync_table() {
        let s = shared();
        let a = s.kendo.register(0);
        let b = s.kendo.register(1);
        // AB-BA: t0 owns mutex 0 and queues on 1; t1 owns 1, queues on 0.
        {
            let mut table = s.meta.sync_in_turn();
            let m0 = table.mutexes.entry(0).or_default();
            m0.owner = Some(0);
            m0.queue.push_back(1);
            let m1 = table.mutexes.entry(1).or_default();
            m1.owner = Some(1);
            m1.queue.push_back(0);
        }
        s.kendo.block(&a);
        s.kendo.block(&b);
        s.check_deadlock();
        let err = s.run.take_run_error("test").expect("deadlock detected");
        let r = err.report().clone();
        assert!(matches!(err, RunError::Deadlock(_)));
        assert_eq!(r.cycle, vec![0, 1]);
        assert_eq!(r.wait_graph.len(), 2);
        assert!(s.kendo.aborted());
    }

    #[test]
    fn check_deadlock_is_a_noop_while_threads_are_active() {
        let s = shared();
        let _a = s.kendo.register(0);
        s.check_deadlock();
        assert!(!s.kendo.aborted());
        assert!(s.run.take_run_error("test").is_none());
    }
}
