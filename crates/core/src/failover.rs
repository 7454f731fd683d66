//! Crash-failover driver (DESIGN.md §4.12): record, kill, restore,
//! replay, converge.
//!
//! The paper's model makes state-machine replication trivial — two
//! replicas fed the same input converge byte-for-byte with no
//! interleaving log shipped. This module composes checkpoints (§4.11)
//! with fault injection into the recovery half of that story: run a
//! workload with `checkpoint_every` under a [`FaultPlan`](rfdet_api::FaultPlan) that kills a
//! worker mid-stream, [`recover`] from the last checkpoint the crashed
//! run sealed, replaying the input tail from the workload's own root,
//! and [`judge`] the recovered replica against the plan's kill-free run.
//! A plan's jitter entries move the schedule, so they are input and stay
//! in both; its kills (panics, failed allocations) are the fault, and
//! both leave them out.
//! Determinism does all the coordination: recovery needs no interleaving
//! log and no agreement protocol, only the input (which is baked into
//! the workload body) and the last consistent cut.

use crate::RfdetBackend;
use rfdet_api::{DmtBackend, FailureReport, RunConfig, RunError, RunOutput, ThreadFn, TracedRun};

/// How a faulted run ended, judged against the kill-free run of the same
/// config ([`judge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed with the reference's output.
    Converged,
    /// The run failed, and [`recover`] from this epoch (`None`: from
    /// scratch) completed with the reference's output, every checkpoint
    /// it sealed matching the reference chain.
    Recovered(Option<u64>),
    /// Anything else: other output, a recovery that failed or left the
    /// reference output or chain, or a reference that failed.
    Diverged,
    /// The run ended [`RunError::Wedged`].
    Wedged,
}

impl Verdict {
    /// The verdict as reports spell it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::Recovered(_) => "recovered",
            Self::Diverged => "diverged",
            Self::Wedged => "wedged",
        }
    }

    /// Converged outright or after a recovery.
    #[must_use]
    pub fn converged(self) -> bool {
        matches!(self, Self::Converged | Self::Recovered(_))
    }
}

/// What one record/kill/restore/replay cycle produced.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// Output digest of the kill-free reference replica; `None` if it
    /// failed.
    pub reference_digest: Option<u64>,
    /// The injected failure, when the fault actually fired. `None`
    /// means the faulted run completed cleanly (plan out of range).
    pub crash: Option<FailureReport>,
    /// The faulted replica's [`judge`]ment.
    pub verdict: Verdict,
    /// Output digest of the run the verdict rests on; `None` if it failed.
    pub recovered_digest: Option<u64>,
}

/// `cfg` with its fault plan's kills removed: the run every faulted run
/// of `cfg` is recovered under and judged against.
fn kill_free(cfg: &RunConfig) -> RunConfig {
    let mut cfg = cfg.clone();
    cfg.fault_plan = cfg.fault_plan.without_kills();
    cfg
}

/// The one recovery step: finishes `failed`'s run the way a standby
/// replica that never saw the fault would — resumed from the crashed
/// run's own newest sealed checkpoint, or from scratch, with every
/// thread on `root()`. It runs under `cfg` without the plan's kills (the
/// crash cause; its jitter stays) and without the checkpoint directory
/// (a recovery does not re-write the recording's chain). Returns the
/// recovered run and the epoch it restored from.
pub fn recover(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    failed: &TracedRun,
    root: &dyn Fn() -> ThreadFn,
) -> (TracedRun, Option<u64>) {
    let mut clean = kill_free(cfg);
    clean.checkpoint_dir = None;
    match failed.checkpoints.last() {
        Some(ckpt) => (backend.run_resumed(&clean, ckpt, root), Some(ckpt.epoch)),
        None => (backend.run_traced(&clean, root()), None),
    }
}

/// The one verdict on `run`, a run of `cfg` (fault plan included),
/// against `reference`, the run of `cfg` without the plan's kills
/// (DESIGN.md §4.12). A reference that failed leaves nothing to converge
/// to: the verdict is diverged. Otherwise a run that failed other than
/// by wedging is [`recover`]ed from `root`. Returns the verdict and the
/// run it rests on: the recovery when there was one, else `run` itself.
pub fn judge(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    run: TracedRun,
    reference: &TracedRun,
    root: &dyn Fn() -> ThreadFn,
) -> (Verdict, TracedRun) {
    let same_output = |r: &TracedRun| match (&r.result, &reference.result) {
        (Ok(a), Ok(b)) => a.output == b.output,
        _ => false,
    };
    match &run.result {
        _ if reference.result.is_err() => (Verdict::Diverged, run),
        Ok(_) if same_output(&run) => (Verdict::Converged, run),
        Ok(_) => (Verdict::Diverged, run),
        Err(RunError::Wedged(_)) => (Verdict::Wedged, run),
        Err(_) => {
            let (recovered, epoch) = recover(backend, cfg, &run, root);
            // The recovered replica rejoins the reference chain exactly:
            // every checkpoint it seals lies past the restore point and is
            // one of the reference's, bit for bit.
            let rejoins = (recovered.checkpoints.iter())
                .all(|c| c.epoch > epoch.unwrap_or(0) && reference.checkpoints.contains(c));
            if same_output(&recovered) && rejoins {
                (Verdict::Recovered(epoch), recovered)
            } else {
                (Verdict::Diverged, recovered)
            }
        }
    }
}

/// Runs the full failover cycle on the core backend.
///
/// `cfg` carries the fault plan and checkpoint cadence; `root` builds a
/// fresh root body (called once per full run and per restored thread).
/// The reference replica runs first under `cfg` minus the plan's kills,
/// then the faulted replica, which [`judge`] rules on. Both replicas
/// persist their chains into `cfg.checkpoint_dir` when it is set;
/// recovery reads only the crashed replica's own chain.
pub fn run_failover(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    root: &dyn Fn() -> ThreadFn,
) -> FailoverReport {
    let reference = backend.run_traced(&kill_free(cfg), root());
    let reference_digest = reference.result.as_ref().ok().map(RunOutput::output_digest);
    let faulted = backend.run_traced(cfg, root());
    let crash = faulted.result.as_ref().err().map(|e| e.report().clone());
    let (verdict, last) = judge(backend, cfg, faulted, &reference, root);
    FailoverReport {
        reference_digest,
        crash,
        verdict,
        recovered_digest: last.result.ok().map(|out| out.output_digest()),
    }
}
