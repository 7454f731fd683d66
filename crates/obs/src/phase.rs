//! The instrumented hot phases and their attribution metadata.

/// Number of instrumented phases (length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 13;

/// What a phase's samples measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Wall-clock nanoseconds (participates in phase attribution).
    Nanos,
    /// A dimensionless count (ops per slice, wakeups per park, …).
    Count,
}

impl Unit {
    /// Suffix used in metric names and JSON.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Count => "count",
        }
    }
}

/// One instrumented runtime phase. Each phase owns a histogram in every
/// recorder and in the run-wide sink; indices are dense (`idx()`) so
/// per-phase state lives in plain arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Stall inside `wait_for_turn` — from requesting the deterministic
    /// turn to holding it (Kendo backends).
    WaitTurn,
    /// A synchronization operation end-to-end, entry to return.
    SyncOp,
    /// Slice length in sync-free *operations* (reads/writes/ticks
    /// bracketed by the slice's boundaries).
    SliceOps,
    /// Slice length in wall time, `begin_slice` to `end_slice`.
    SliceWall,
    /// End-of-slice byte diff over the slice's snapshots.
    Diff,
    /// Copy-on-first-write snapshot: one sample per page first stored to
    /// in a slice. RFDet-ci copies further lines of an already-open page
    /// untimed (counted in `Stats::snapshot_bytes_copied`).
    Snapshot,
    /// Propagation / modification apply (Figure-5 scan, mailbox and
    /// lazy-write application).
    Propagation,
    /// Idle re-checks per blocking park — how often a parked thread's
    /// timed wait expired before its deterministic wakeup arrived.
    /// Spurious-wakeup regressions show up here.
    IdleWakeups,
    /// Lockstep backends: wait at the global fence.
    FenceWait,
    /// Lockstep backends: one thread's diff applied during the serial
    /// phase.
    SerialApply,
    /// Lazy-writes fault: merging and applying a page's pending runs on
    /// first access (§4.5). High totals here mean deferral is paying its
    /// saving back with interest — the inversion this phase was added to
    /// diagnose.
    LazyFault,
    /// Turn release and successor handoff: the turn holder's O(T) scan
    /// for the next minimal `(clock, tid)` plus the targeted unpark of
    /// the designated successor (Kendo handoff arbitration).
    Arbitration,
    /// One metadata GC pass (§4.5): the sweep below the live threads'
    /// glb and the nudge into the parked threads' pre-merge, on whichever
    /// thread runs it (a parked joiner, or the publisher inline).
    Gc,
}

impl Phase {
    /// Every phase, in `idx()` order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::WaitTurn,
        Phase::SyncOp,
        Phase::SliceOps,
        Phase::SliceWall,
        Phase::Diff,
        Phase::Snapshot,
        Phase::Propagation,
        Phase::IdleWakeups,
        Phase::FenceWait,
        Phase::SerialApply,
        Phase::LazyFault,
        Phase::Arbitration,
        Phase::Gc,
    ];

    /// Dense index for array-backed per-phase state.
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            Phase::WaitTurn => 0,
            Phase::SyncOp => 1,
            Phase::SliceOps => 2,
            Phase::SliceWall => 3,
            Phase::Diff => 4,
            Phase::Snapshot => 5,
            Phase::Propagation => 6,
            Phase::IdleWakeups => 7,
            Phase::FenceWait => 8,
            Phase::SerialApply => 9,
            Phase::LazyFault => 10,
            Phase::Arbitration => 11,
            Phase::Gc => 12,
        }
    }

    /// Stable snake_case metric name (Prometheus metric stem and JSON
    /// key), unit suffix included.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::WaitTurn => "wait_turn_stall_ns",
            Phase::SyncOp => "sync_op_ns",
            Phase::SliceOps => "slice_ops_count",
            Phase::SliceWall => "slice_wall_ns",
            Phase::Diff => "slice_diff_ns",
            Phase::Snapshot => "page_snapshot_ns",
            Phase::Propagation => "propagation_apply_ns",
            Phase::IdleWakeups => "idle_wakeups_count",
            Phase::FenceWait => "fence_wait_ns",
            Phase::SerialApply => "serial_apply_ns",
            Phase::LazyFault => "lazy_fault_ns",
            Phase::Arbitration => "arbitration_ns",
            Phase::Gc => "gc_pass_ns",
        }
    }

    /// One-line description (Prometheus `# HELP`).
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Phase::WaitTurn => "Stall waiting for the deterministic turn",
            Phase::SyncOp => "Synchronization operation end-to-end",
            Phase::SliceOps => "Slice length in sync-free operations",
            Phase::SliceWall => "Slice length in wall time",
            Phase::Diff => "End-of-slice byte diff over snapshots",
            Phase::Snapshot => "Copy-on-first-write page snapshot",
            Phase::Propagation => "Propagation and modification apply",
            Phase::IdleWakeups => "Idle re-checks per blocking park",
            Phase::FenceWait => "Wait at the lockstep global fence",
            Phase::SerialApply => "Per-thread diff apply in the serial phase",
            Phase::LazyFault => "Lazy-write pending apply on first access",
            Phase::Arbitration => "Turn release: successor scan and handoff",
            Phase::Gc => "Metadata GC pass: sweep and parked-thread nudge",
        }
    }

    /// The phase's sample unit.
    #[must_use]
    pub fn unit(self) -> Unit {
        match self {
            Phase::SliceOps | Phase::IdleWakeups => Unit::Count,
            _ => Unit::Nanos,
        }
    }

    /// Whether the phase's time is *exclusive* runtime overhead that
    /// participates in phase attribution. `SyncOp` and `SliceWall` are
    /// end-to-end envelopes containing the other phases (and user code),
    /// so attributing them alongside their parts would double-count.
    #[must_use]
    pub fn attributable(self) -> bool {
        matches!(
            self,
            Phase::WaitTurn
                | Phase::Diff
                | Phase::Snapshot
                | Phase::Propagation
                | Phase::FenceWait
                | Phase::SerialApply
                | Phase::LazyFault
                | Phase::Arbitration
                | Phase::Gc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
    }

    #[test]
    fn metric_names_are_unique_and_unit_suffixed() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_PHASES, "duplicate metric name");
        for p in Phase::ALL {
            assert!(
                p.metric_name().ends_with(p.unit().suffix()),
                "{} must end with its unit suffix",
                p.metric_name()
            );
        }
    }

    #[test]
    fn attribution_covers_only_nanosecond_phases() {
        for p in Phase::ALL {
            if p.attributable() {
                assert_eq!(p.unit(), Unit::Nanos, "{p:?} attribution needs ns");
            }
        }
        assert!(
            !Phase::SyncOp.attributable(),
            "envelopes would double-count"
        );
        assert!(!Phase::SliceWall.attributable());
    }
}
