//! The flight recorder: compact, versioned traces of one run.
//!
//! A deterministic run is a pure function of its inputs — configuration,
//! jitter seed and [`FaultPlan`](struct@crate::TraceFault) — so a
//! "recording" does not need instruction-level logging the way replay
//! systems for nondeterministic runtimes do. A [`RunTrace`] captures
//! exactly those inputs plus two derived artifacts that make the trace
//! *checkable*:
//!
//! * the per-thread synchronization-op schedule ([`TraceEvent`]s keyed to
//!   Kendo logical clocks on the core backend), so a replay can verify it
//!   re-executed the same schedule, not merely the same failure text, and
//! * the terminal failure digest ([`FailureSummary`]), the rerun-stable
//!   projection of the `FailureReport`.
//!
//! Traces and checkpoints serialize through one serde-free little-endian
//! binary codec ([`RunTrace::encode`] / [`RunTrace::decode`],
//! [`Checkpoint::encode`] / [`Checkpoint::decode`]): one envelope (a
//! magic, a version and a trailing checksum) around a body that opens,
//! in both, with the run's [`Recording`]. Files persist via atomic
//! rename so a crashing process never leaves a torn one (see
//! [`persist`]).
//!
//! This crate deliberately depends only on `rfdet-vclock` (for [`Tid`]):
//! `rfdet-api` layers the `RunConfig`/`FaultPlan` conversions and the
//! `DmtBackend::replay` / shrink drivers on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod ckpt;
mod codec;
pub mod digest;
pub mod persist;
mod shrink;
mod sink;

pub use ckpt::{
    sync_class, Checkpoint, CkptFreeList, CkptHeap, CkptPage, CkptSyncVar, CkptThread, CKPT_MAGIC,
    CKPT_VERSION,
};
pub use codec::TraceError;
pub use shrink::ddmin;
pub use sink::{TraceBuf, TraceSink};

use rfdet_vclock::Tid;

/// Failure-kind code: a thread panicked.
pub const KIND_PANIC: u8 = 0;
/// Failure-kind code: provable deadlock.
pub const KIND_DEADLOCK: u8 = 1;
/// Failure-kind code: wall-clock wedge.
pub const KIND_WEDGED: u8 = 2;
/// Failure-kind code: the configuration was rejected before any thread
/// ran (such a run records no trace; the code keeps the kind table total).
pub const KIND_INVALID_CONFIG: u8 = 3;
/// Failure-kind code: the run completed cleanly (the trace's digest is
/// then the output digest, not a report digest).
pub const KIND_NONE: u8 = 255;

/// Operation-kind codes for [`TraceEvent::kind`].
pub mod op {
    /// `lock`.
    pub const LOCK: u8 = 0;
    /// `unlock`.
    pub const UNLOCK: u8 = 1;
    /// `cond_wait`.
    pub const COND_WAIT: u8 = 2;
    /// `cond_signal`.
    pub const COND_SIGNAL: u8 = 3;
    /// `cond_broadcast`.
    pub const COND_BROADCAST: u8 = 4;
    /// `barrier`.
    pub const BARRIER: u8 = 5;
    /// `spawn`.
    pub const SPAWN: u8 = 6;
    /// `join`.
    pub const JOIN: u8 = 7;
    /// `atomic` (load, store or rmw).
    pub const ATOMIC: u8 = 8;
    /// Thread exit.
    pub const EXIT: u8 = 9;
    /// Shared allocation (`TraceEvent::op` is the per-thread allocation
    /// index, a separate counter from sync ops).
    pub const ALLOC: u8 = 10;
    /// A Kendo wakeup: `tid` is the woken thread, `clock` its new clock,
    /// `op` is [`u64::MAX`] (wakes are not sync ops of the woken thread).
    pub const WAKE: u8 = 11;
    /// Human-readable name of a code (for trace dumps).
    #[must_use]
    pub fn name(code: u8) -> &'static str {
        match code {
            LOCK => "lock",
            UNLOCK => "unlock",
            COND_WAIT => "cond_wait",
            COND_SIGNAL => "cond_signal",
            COND_BROADCAST => "cond_broadcast",
            BARRIER => "barrier",
            SPAWN => "spawn",
            JOIN => "join",
            ATOMIC => "atomic",
            EXIT => "exit",
            ALLOC => "alloc",
            WAKE => "wake",
            _ => "other",
        }
    }
}

/// One recorded schedule event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The thread the event belongs to (for wakes: the *woken* thread).
    pub tid: Tid,
    /// Per-thread operation index, in program order (sync-op count for
    /// sync events, allocation count for [`op::ALLOC`], [`u64::MAX`] for
    /// [`op::WAKE`]).
    pub op: u64,
    /// Operation kind (see [`op`]).
    pub kind: u8,
    /// Operation argument (mutex/cond/barrier id, atomic address,
    /// joined tid), when the operation has one.
    pub arg: Option<u64>,
    /// Kendo logical clock at the event. Zero on backends without
    /// logical clocks (native, dthreads, quantum) — their per-thread
    /// `op` indices order the stream instead.
    pub clock: u64,
}

impl TraceEvent {
    /// The deterministic sort key used by [`TraceSink::drain_sorted`]:
    /// per-thread streams ordered by clock then op index. Wake events
    /// (`op == u64::MAX`) sort after the same-clock sync op that
    /// performed them, which keeps ties deterministic.
    #[must_use]
    pub fn sort_key(&self) -> (Tid, u64, u64, u8, u64) {
        (
            self.tid,
            self.clock,
            self.op,
            self.kind,
            self.arg.unwrap_or(u64::MAX),
        )
    }
}

/// Fault-code for [`TraceFault`]: panic at a sync op (`a` = op index).
pub const FAULT_PANIC: u8 = 0;
/// Fault-code for [`TraceFault`]: fail an allocation (`a` = alloc index).
pub const FAULT_FAIL_ALLOC: u8 = 1;
/// Fault-code for [`TraceFault`]: jitter ticks (`a` = op, `b` = ticks).
pub const FAULT_JITTER: u8 = 2;

/// One serialized `FaultSpec` (the codec-stable mirror of
/// `rfdet_api::FaultAction`, kept numeric so this crate stays
/// api-independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFault {
    /// Target thread.
    pub tid: Tid,
    /// One of [`FAULT_PANIC`], [`FAULT_FAIL_ALLOC`], [`FAULT_JITTER`].
    pub code: u8,
    /// First operand (op / alloc index).
    pub a: u64,
    /// Second operand (jitter ticks; zero otherwise).
    pub b: u64,
}

/// The determinism-relevant `RunConfig` fields, codec-stable.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror RunConfig; see its docs
pub struct TraceConfig {
    pub space_bytes: u64,
    pub page_size: u64,
    pub meta_capacity_bytes: u64,
    pub meta_max_slices: u64,
    pub prelock: bool,
    pub fault_cost_spins: u32,
    pub deadlock_after_ms: Option<u64>,
}

/// The terminal state of the recorded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureSummary {
    /// [`KIND_PANIC`], [`KIND_DEADLOCK`], [`KIND_WEDGED`] or
    /// [`KIND_NONE`] for a clean run.
    pub kind: u8,
    /// The culprit thread (0 for clean runs).
    pub tid: Tid,
    /// `FailureReport::report_digest()` for failed runs,
    /// `RunOutput::output_digest()` for clean ones.
    pub report_digest: u64,
}

impl FailureSummary {
    /// `true` when the recorded run failed.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        self.kind != KIND_NONE
    }
}

/// A recorded run's input: everything that decides its schedule. Both
/// artifacts carry one — a [`RunTrace`] with the full fault plan, a
/// [`Checkpoint`] with the plan's kills left out — and it is encoded,
/// in both, by one writer (`RunConfig::recording` builds it,
/// `RunConfig::from_recording` reads it back).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recording {
    /// `DmtBackend::name()` of the recording backend.
    pub backend: String,
    /// Workload label (`RunConfig::trace`); closures are not
    /// serializable, so replay resolves the root function by this name.
    pub workload: String,
    /// The jitter seed (`RunConfig::jitter_seed`).
    pub seed: Option<u64>,
    /// The determinism-relevant configuration.
    pub config: TraceConfig,
    /// The injected fault plan.
    pub faults: Vec<TraceFault>,
}

/// A complete recording of one run: every input that determines the
/// schedule, the observed schedule itself, and the terminal digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// The run's input, its whole fault plan included: a replay must
    /// reproduce the failure.
    pub recording: Recording,
    /// The recorded schedule, sorted by [`TraceEvent::sort_key`].
    pub events: Vec<TraceEvent>,
    /// How the run ended.
    pub failure: FailureSummary,
}

impl RunTrace {
    /// The culprit thread's event stream — the rerun-stable slice of the
    /// schedule. Peer threads may record extra events between the root
    /// cause and the abort reaching them (physical timing), but the
    /// culprit's own program-order history up to the failure point, and
    /// every wake *of* the culprit (wakes happen inside deterministic
    /// turns), reproduce exactly. Replay verification compares this.
    #[must_use]
    pub fn culprit_events(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.tid == self.failure.tid)
            .copied()
            .collect()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A short human-readable summary line.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "trace: backend={} workload={:?} events={} faults={} kind={} digest={:#018x}",
            self.recording.backend,
            self.recording.workload,
            self.events.len(),
            self.recording.faults.len(),
            self.failure.kind,
            self.failure.report_digest,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codes_have_stable_names() {
        for (code, name) in [
            (op::LOCK, "lock"),
            (op::UNLOCK, "unlock"),
            (op::COND_WAIT, "cond_wait"),
            (op::COND_SIGNAL, "cond_signal"),
            (op::COND_BROADCAST, "cond_broadcast"),
            (op::BARRIER, "barrier"),
            (op::SPAWN, "spawn"),
            (op::JOIN, "join"),
            (op::ATOMIC, "atomic"),
            (op::EXIT, "exit"),
        ] {
            assert_eq!(op::name(code), name);
        }
        assert_eq!(op::name(254), "other");
    }

    #[test]
    fn sort_key_orders_wakes_after_same_clock_ops() {
        let sync = TraceEvent {
            tid: 1,
            op: 3,
            kind: op::LOCK,
            arg: Some(0),
            clock: 40,
        };
        let wake = TraceEvent {
            tid: 1,
            op: u64::MAX,
            kind: op::WAKE,
            arg: None,
            clock: 40,
        };
        assert!(sync.sort_key() < wake.sort_key());
    }

    #[test]
    fn culprit_events_filter_by_failure_tid() {
        let ev = |tid| TraceEvent {
            tid,
            op: 0,
            kind: op::LOCK,
            arg: None,
            clock: 0,
        };
        let t = RunTrace {
            recording: test_recording("b", vec![]),
            events: vec![ev(0), ev(1), ev(1), ev(2)],
            failure: FailureSummary {
                kind: KIND_PANIC,
                tid: 1,
                report_digest: 7,
            },
        };
        assert_eq!(t.culprit_events().len(), 2);
        assert!(t.failure.is_failure());
    }

    /// A recording of workload `w@2`, unseeded, under [`test_config`].
    pub(crate) fn test_recording(backend: &str, faults: Vec<TraceFault>) -> Recording {
        Recording {
            backend: backend.into(),
            workload: "w@2".into(),
            seed: None,
            config: test_config(),
            faults,
        }
    }

    pub(crate) fn test_config() -> TraceConfig {
        TraceConfig {
            space_bytes: 1 << 20,
            page_size: 4096,
            meta_capacity_bytes: 4 << 20,
            meta_max_slices: 1024,
            prelock: true,
            fault_cost_spins: 0,
            deadlock_after_ms: Some(30_000),
        }
    }
}
