//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names points in the *deterministic* schedule — "thread
//! T's Nth synchronization operation", "thread T's Kth allocation" — and
//! attaches a fault to each: an injected panic, a failed allocation, or
//! extra logical-clock ticks (schedule jitter). Because the trigger is a
//! per-thread operation count rather than anything physical, an injected
//! fault lands at the same point of the same schedule on every rerun:
//! same config + same plan ⇒ the same failure, bit for bit. The
//! [`FaultPlan::random`] constructor derives a plan from a [`DetRng`]
//! seed for chaos sweeps — random across seeds, reproducible per seed.

use crate::{DetRng, Tid};
use rfdet_trace::{FaultAction, FaultSpec};

/// What a backend must do at one sync-op trigger point (the merged view
/// of every matching [`FaultSpec`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOpFault {
    /// Inject a panic (after charging any jitter).
    pub panic: bool,
    /// Extra ticks to charge first.
    pub jitter_ticks: u64,
}

/// A reproducible set of faults to inject into one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds "panic thread `tid` at its `op`-th sync op".
    #[must_use]
    pub fn panic_at(mut self, tid: Tid, op: u64) -> Self {
        self.specs.push(FaultSpec {
            tid,
            action: FaultAction::PanicAtSyncOp { op },
        });
        self
    }

    /// Adds "fail thread `tid`'s `nth` allocation".
    #[must_use]
    pub fn fail_alloc(mut self, tid: Tid, nth: u64) -> Self {
        self.specs.push(FaultSpec {
            tid,
            action: FaultAction::FailAlloc { nth },
        });
        self
    }

    /// Adds "charge `ticks` extra ticks at thread `tid`'s `op`-th sync
    /// op".
    #[must_use]
    pub fn jitter_at(mut self, tid: Tid, op: u64, ticks: u64) -> Self {
        self.specs.push(FaultSpec {
            tid,
            action: FaultAction::JitterTicks { op, ticks },
        });
        self
    }

    /// A plan built from explicit specs: a recording's plan, or a subset
    /// of it the shrinker probes.
    #[must_use]
    pub fn from_specs(specs: Vec<FaultSpec>) -> Self {
        Self { specs }
    }

    /// This plan without its kills (panics and failed allocations): its
    /// jitter entries alone. Jitter moves the schedule, so it is part of
    /// a run's input; a kill is the fault that recovery leaves out
    /// (DESIGN.md §4.12).
    #[must_use]
    pub fn without_kills(&self) -> Self {
        let jitter = |s: &&FaultSpec| matches!(s.action, FaultAction::JitterTicks { .. });
        Self::from_specs(self.specs.iter().filter(jitter).copied().collect())
    }

    /// A chaos-sweep plan: `count` faults drawn deterministically from
    /// `seed`, targeting tids below `threads` and sync ops below
    /// `max_op`. Roughly half the faults are panics, half are jitter
    /// bursts — rerunning with the same seed reproduces the plan (and
    /// therefore the run) exactly.
    ///
    /// Degenerate inputs are clamped rather than honored: zero threads,
    /// zero ops or a zero count would yield a plan that injects nothing,
    /// and a chaos sweep that silently injects nothing vacuously passes
    /// every downstream assertion. A random plan always carries at least
    /// one fault, targeting at least thread 0 at op 0.
    #[must_use]
    pub fn random(seed: u64, threads: u32, max_op: u64, count: usize) -> Self {
        let threads = u64::from(threads.max(1));
        let max_op = max_op.max(1);
        let count = count.max(1);
        let mut rng = DetRng::new(seed);
        let mut plan = Self::new();
        for _ in 0..count {
            let tid = rng.next_below(threads) as Tid;
            let op = rng.next_below(max_op);
            if rng.next_below(2) == 0 {
                plan = plan.panic_at(tid, op);
            } else {
                plan = plan.jitter_at(tid, op, 1 + rng.next_below(64));
            }
        }
        plan
    }

    /// `true` when the plan injects nothing (the hot-path fast check).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The raw specs.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The merged fault at thread `tid`'s `op`-th sync op.
    #[must_use]
    pub fn on_sync_op(&self, tid: Tid, op: u64) -> SyncOpFault {
        let mut out = SyncOpFault::default();
        for s in &self.specs {
            if s.tid != tid {
                continue;
            }
            match s.action {
                FaultAction::PanicAtSyncOp { op: o } if o == op => out.panic = true,
                FaultAction::JitterTicks { op: o, ticks } if o == op => out.jitter_ticks += ticks,
                _ => {}
            }
        }
        out
    }

    /// `true` when thread `tid`'s `nth` allocation must fail.
    #[must_use]
    pub fn on_alloc(&self, tid: Tid, nth: u64) -> bool {
        self.specs.iter().any(|s| {
            s.tid == tid && matches!(s.action, FaultAction::FailAlloc { nth: n } if n == nth)
        })
    }

    /// The canonical panic message for an injected sync-op fault (stable
    /// so report digests reproduce).
    #[must_use]
    pub fn panic_message(tid: Tid, op: u64) -> String {
        format!("injected fault: panic at t{tid} sync op {op}")
    }

    /// The canonical panic message for an injected allocation failure.
    #[must_use]
    pub fn alloc_panic_message(tid: Tid, nth: u64) -> String {
        format!("injected fault: allocation {nth} failed on t{tid}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_triggers_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.on_sync_op(0, 0), SyncOpFault::default());
        assert!(!p.on_alloc(0, 0));
    }

    #[test]
    fn builder_triggers_exactly_at_the_named_points() {
        let p = FaultPlan::new()
            .panic_at(1, 3)
            .jitter_at(1, 3, 10)
            .jitter_at(2, 0, 7)
            .fail_alloc(1, 2);
        assert!(!p.is_empty());
        let f = p.on_sync_op(1, 3);
        assert!(f.panic);
        assert_eq!(f.jitter_ticks, 10);
        assert!(!p.on_sync_op(1, 2).panic);
        assert_eq!(p.on_sync_op(2, 0).jitter_ticks, 7);
        assert!(p.on_alloc(1, 2));
        assert!(!p.on_alloc(1, 1));
        assert!(!p.on_alloc(2, 2));
    }

    #[test]
    fn jitter_on_same_point_accumulates() {
        let p = FaultPlan::new().jitter_at(0, 5, 3).jitter_at(0, 5, 4);
        assert_eq!(p.on_sync_op(0, 5).jitter_ticks, 7);
    }

    #[test]
    fn random_plans_reproduce_per_seed() {
        let a = FaultPlan::random(42, 4, 100, 8);
        let b = FaultPlan::random(42, 4, 100, 8);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 8);
        let c = FaultPlan::random(43, 4, 100, 8);
        assert_ne!(a, c, "different seeds should give different plans");
        for s in a.specs() {
            assert!(u64::from(s.tid) < 4);
        }
    }

    #[test]
    fn random_clamps_degenerate_inputs() {
        // Zero threads / ops / count used to yield plans that silently
        // injected nothing; now they clamp to the smallest real sweep.
        let p = FaultPlan::random(7, 0, 0, 0);
        assert!(!p.is_empty(), "degenerate chaos plan must still inject");
        assert_eq!(p.specs().len(), 1);
        for s in p.specs() {
            assert_eq!(s.tid, 0, "zero threads clamps to thread 0");
            match s.action {
                FaultAction::PanicAtSyncOp { op } => assert_eq!(op, 0),
                FaultAction::JitterTicks { op, .. } => assert_eq!(op, 0),
                FaultAction::FailAlloc { .. } => panic!("random never fails allocs"),
            }
        }
        // Clamping is per-argument: a real count with zero ops still
        // produces `count` faults, all at op 0.
        assert_eq!(FaultPlan::random(8, 4, 0, 5).specs().len(), 5);
    }

    #[test]
    fn from_specs_preserves_order() {
        let p = FaultPlan::new().panic_at(1, 3).jitter_at(2, 0, 7);
        let rebuilt = FaultPlan::from_specs(p.specs().to_vec());
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn without_kills_keeps_the_jitter_entries_in_order() {
        let p = FaultPlan::new()
            .jitter_at(2, 0, 7)
            .panic_at(1, 3)
            .fail_alloc(2, 0)
            .jitter_at(0, 9, 41);
        let expected = FaultPlan::new().jitter_at(2, 0, 7).jitter_at(0, 9, 41);
        assert_eq!(p.without_kills(), expected);
        assert!(FaultPlan::new().panic_at(0, 1).without_kills().is_empty());
    }

    #[test]
    fn panic_messages_are_stable() {
        assert_eq!(
            FaultPlan::panic_message(2, 9),
            "injected fault: panic at t2 sync op 9"
        );
        assert_eq!(
            FaultPlan::alloc_panic_message(1, 0),
            "injected fault: allocation 0 failed on t1"
        );
    }
}
