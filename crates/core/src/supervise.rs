//! Run supervision: panics, deadlocks and wedges become typed failures.
//!
//! The supervisor turns the three ways a deterministic run can die into
//! a [`RunError`] with every parked thread woken in bounded time:
//!
//! * **Panic** — the unwinding thread records its payload and
//!   deterministic state here, then flips the Kendo abort flag, which
//!   wakes every thread spinning in `wait_for_turn` or parked on a slot
//!   condvar. First panic wins; the secondary "run aborted" unwinds it
//!   triggers in peers only contribute best-effort peer diagnostics.
//! * **Deadlock** — parked threads periodically run [`RuntimeShared::
//!   check_deadlock`] from their idle callback. An epoch-stable Kendo
//!   scan showing *every* live thread `Blocked` proves a stable
//!   deadlock (a blocked thread never wakes another, so the state can
//!   only persist); the wait-for graph is then read off the
//!   deterministic sync queues — no wall clock involved.
//! * **Wedge** — the wall-clock fallback (`deadlock_after_ms`) still
//!   exists for runs that starve without a provable deadlock; the
//!   kendo timeout panic is classified here by its message prefix.

use crate::shared::RuntimeShared;
use rfdet_api::{FailureKind, ThreadReport, Tid, WaitEdge, WaitTarget};

/// Classifies a panic message into a root-cause kind, or `None` for the
/// secondary unwinds the abort flag itself produces.
fn classify(message: &str) -> Option<FailureKind> {
    if message.starts_with("kendo: run aborted") {
        None
    } else if message.starts_with("kendo: thread") {
        // The wall-clock starvation/park timeouts.
        Some(FailureKind::Wedged)
    } else {
        Some(FailureKind::Panic)
    }
}

impl RuntimeShared {
    /// Records a thread's unwind (first root cause wins) and aborts the
    /// arbitration protocol so every other thread wakes and unwinds too.
    pub fn record_panic(
        &self,
        tid: Tid,
        payload: Box<dyn std::any::Any + Send>,
        state: Option<ThreadReport>,
    ) {
        self.run
            .record_unwind(tid, payload, state, |_, message| classify(message));
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
        // wait-for graph off the deterministic queues: this state is a
        // pure function of the schedule, so the resulting report (and
        // its digest) reproduces across reruns.
        let tid = blocked.first().copied().unwrap_or(0);
        self.run
            .record_deadlock(tid, blocked.len(), self.wait_graph());
        self.kendo.set_abort();
    }

    /// One wait-for edge per blocked thread, read from the sync queues,
    /// sorted by waiter tid. Only sound once `blocked_snapshot`
    /// succeeded (the queues are then quiescent).
    fn wait_graph(&self) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        {
            let mxs = self.queues.mutexes.lock();
            let mut ids: Vec<u32> = mxs.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let mx = &mxs[&id];
                for &w in &mx.queue {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Mutex {
                            id,
                            holder: mx.owner,
                        },
                    });
                }
            }
        }
        {
            let conds = self.queues.conds.lock();
            let mut ids: Vec<u32> = conds.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                for &(w, _) in &conds[&id] {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Cond { id },
                    });
                }
            }
        }
        {
            let barriers = self.queues.barriers.lock();
            let mut ids: Vec<u32> = barriers.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                for &(w, _) in barriers[&id].arrivals.iter() {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Barrier { id },
                    });
                }
            }
        }
        {
            let joins = self.queues.joins.lock();
            let mut targets: Vec<Tid> = joins.waiters.keys().copied().collect();
            targets.sort_unstable();
            for target in targets {
                for &w in &joins.waiters[&target] {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Join { target },
                    });
                }
            }
        }
        edges.sort_by_key(|e| e.waiter);
        edges
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

    #[test]
    fn record_panic_aborts_for_root_causes_and_secondary_unwinds_alike() {
        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(
            0,
            Box::new(
                "kendo: run aborted by supervisor (peer panic, deadlock, or wedge)".to_owned(),
            ),
            None,
        );
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
    fn kendo_timeout_classifies_as_wedged() {
        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(
            0,
            Box::new("kendo: thread 0 starved waiting for its turn".to_owned()),
            None,
        );
        let err = s.run.take_run_error("test").expect("wedge recorded");
        assert!(matches!(err, RunError::Wedged(_)));
    }

    #[test]
    fn check_deadlock_builds_graph_and_cycle_from_queues() {
        let s = shared();
        let a = s.kendo.register(0);
        let b = s.kendo.register(1);
        // AB-BA: t0 owns mutex 0 and queues on 1; t1 owns 1, queues on 0.
        {
            let mut mxs = s.queues.mutexes.lock();
            let m0 = mxs.entry(0).or_default();
            m0.owner = Some(0);
            m0.queue.push_back(1);
            let m1 = mxs.entry(1).or_default();
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
