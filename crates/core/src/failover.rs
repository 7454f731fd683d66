//! Crash-failover driver (DESIGN.md §4.12): record, kill, restore,
//! replay, converge.
//!
//! The paper's model makes state-machine replication trivial — two
//! replicas fed the same input converge byte-for-byte with no
//! interleaving log shipped. This module composes checkpoints (§4.11)
//! with fault injection into the recovery half of that story: run a
//! workload with `checkpoint_every` under a [`FaultPlan`] that kills a
//! worker mid-stream, [`recover`] from the last checkpoint the crashed
//! run sealed, replaying the input tail through the resume bodies, and
//! compare the recovered replica's digest against an unfaulted
//! replica's. Determinism does all the coordination: recovery needs no
//! interleaving log and no agreement protocol, only the input (which
//! is baked into the workload body) and the last consistent cut.

use crate::RfdetBackend;
use rfdet_api::{DmtBackend, FailureReport, FaultPlan, RunConfig, ThreadFn, Tid, TracedRun};

/// What one record/kill/restore/replay cycle produced.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// Output digest of the unfaulted reference replica.
    pub reference_digest: u64,
    /// The injected failure, when the fault actually fired. `None`
    /// means the faulted run completed cleanly (plan out of range).
    pub crash: Option<FailureReport>,
    /// Epoch of the checkpoint recovery restarted from. `None` when
    /// the crash predated the first checkpoint (recovery re-ran from
    /// scratch) or no crash happened.
    pub recovered_from_epoch: Option<u64>,
    /// Output digest of the recovered (or uninterrupted) replica.
    pub recovered_digest: u64,
    /// Recovered output is byte-identical to the reference, and every
    /// checkpoint sealed after the restore point matches the reference
    /// chain bit-for-bit.
    pub converged: bool,
}

/// The one recovery step: finishes `failed`'s run the way a standby
/// replica that never saw the fault would — resumed from the crashed
/// run's own newest sealed checkpoint, or from scratch (`root`) when it
/// sealed none. It runs under `cfg` without the fault plan (the crash
/// cause) and without the checkpoint directory (a recovery does not
/// re-write the recording's chain). Returns the recovered run and the
/// epoch it restored from.
pub fn recover(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    failed: &TracedRun,
    root: &dyn Fn() -> ThreadFn,
    bodies: &dyn Fn(Tid) -> ThreadFn,
) -> (TracedRun, Option<u64>) {
    let mut clean = cfg.clone();
    clean.fault_plan = FaultPlan::new();
    clean.checkpoint_dir = None;
    match failed.checkpoints.last() {
        Some(ckpt) => (backend.run_resumed(&clean, ckpt, bodies), Some(ckpt.epoch)),
        None => (backend.run_traced(&clean, root()), None),
    }
}

/// Runs the full failover cycle on the core backend.
///
/// `cfg` carries the fault plan and checkpoint cadence; `root` builds a
/// fresh root body (called once per full run); `bodies` supplies the
/// per-tid resume bodies for the restored threads. The reference
/// replica runs first under `cfg` minus the fault plan; the recovery leg
/// is [`recover`]. Both replicas persist their chains into
/// `cfg.checkpoint_dir` when it is set; recovery reads only the crashed
/// replica's own chain.
///
/// # Panics
/// Panics when the *unfaulted* reference run fails — the driver
/// measures recovery from injected faults, so a workload that cannot
/// complete cleanly is a bug in the caller's setup, not an outcome.
pub fn run_failover(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    root: &dyn Fn() -> ThreadFn,
    bodies: &dyn Fn(Tid) -> ThreadFn,
) -> FailoverReport {
    let mut unfaulted = cfg.clone();
    unfaulted.fault_plan = FaultPlan::new();
    let reference = backend.run_traced(&unfaulted, root());
    let reference_out = reference
        .result
        .expect("unfaulted reference replica must complete");

    let faulted = backend.run_traced(cfg, root());
    let crash = match &faulted.result {
        Err(e) => e.report().clone(),
        Ok(out) => {
            // The plan never fired (coordinate past the end of the
            // run): the "recovery" is the run itself.
            return FailoverReport {
                reference_digest: reference_out.output_digest(),
                crash: None,
                recovered_from_epoch: None,
                recovered_digest: out.output_digest(),
                converged: out.output == reference_out.output,
            };
        }
    };
    let (recovered, recovered_from_epoch) = recover(backend, cfg, &faulted, root, bodies);
    let out = recovered
        .result
        .expect("fault-free recovery replay must complete");
    // Convergence is byte equality of the final output *and* of every
    // checkpoint sealed after the restore point — the recovered replica
    // rejoins the reference chain exactly.
    let resumed_from = recovered_from_epoch.unwrap_or(0);
    let tail_ok = recovered.checkpoints.iter().all(|c| {
        let reference = reference.checkpoints.iter().find(|r| r.epoch == c.epoch);
        reference.is_some_and(|r| r.digest() == c.digest()) && c.epoch > resumed_from
    });
    FailoverReport {
        reference_digest: reference_out.output_digest(),
        crash: Some(crash),
        recovered_from_epoch,
        recovered_digest: out.output_digest(),
        converged: out.output == reference_out.output && tail_ok,
    }
}
