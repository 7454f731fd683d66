//! Crash-failover driver (DESIGN.md §4.12): record, kill, restore,
//! replay, converge.
//!
//! The paper's model makes state-machine replication trivial — two
//! replicas fed the same input converge byte-for-byte with no
//! interleaving log shipped. This module composes checkpoints (§4.11)
//! with fault injection into the recovery half of that story: run a
//! workload with `checkpoint_every` under a [`FaultPlan`] that kills a
//! worker mid-stream, restore the last checkpoint sealed before the
//! crash, replay the input tail through the resume bodies, and compare
//! the recovered replica's digest against an unfaulted replica's.
//! Determinism does all the coordination: recovery needs no
//! interleaving log and no agreement protocol, only the input (which
//! is baked into the workload body) and the last consistent cut.

use crate::RfdetBackend;
use rfdet_api::{DmtBackend, FailureReport, FaultPlan, RunConfig, ThreadFn, Tid};
use rfdet_trace::{persist, Checkpoint};
use std::time::Instant;

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
    /// Wall time of the full unfaulted reference run.
    pub full_run_ms: f64,
    /// Wall time of the recovery leg alone (resume-and-replay, or the
    /// from-scratch re-run when no checkpoint existed).
    pub recovery_ms: f64,
}

impl FailoverReport {
    /// `recovery_ms / full_run_ms` — the time-to-converge ratio that
    /// `bench_json`'s `failover_recovery` row budgets (small when the
    /// crash lands late enough that the checkpoint skips most of the
    /// run).
    #[must_use]
    pub fn recovery_ratio(&self) -> f64 {
        if self.full_run_ms <= 0.0 {
            return f64::NAN;
        }
        self.recovery_ms / self.full_run_ms
    }
}

/// Strips the crash cause from a config, leaving the
/// determinism-relevant knobs intact: recovery replays the tail of the
/// *unfaulted* input, exactly like a standby replica that never saw
/// the fault.
fn clean_cfg(cfg: &RunConfig) -> RunConfig {
    let mut c = cfg.clone();
    c.fault_plan = FaultPlan::new();
    c.persist_checkpoints = false;
    c.checkpoint_dir = None;
    c
}

/// Picks the recovery point: the newest on-disk checkpoint when the
/// faulted run persisted one, else the newest in-memory checkpoint the
/// crashed [`rfdet_api::TracedRun`] carried out.
fn last_checkpoint(cfg: &RunConfig, chain: &[Checkpoint]) -> Option<Checkpoint> {
    if cfg.persist_checkpoints {
        if let (Some(dir), Some(first)) = (cfg.checkpoint_dir.as_ref(), chain.first()) {
            if let Some((_, path)) = persist::latest_checkpoint(dir, first.run_key()) {
                if let Ok(ckpt) = persist::load_checkpoint(&path) {
                    return Some(ckpt);
                }
            }
        }
    }
    chain.last().cloned()
}

/// Runs the full failover cycle on the core backend.
///
/// `cfg` carries the fault plan and checkpoint cadence; `root` builds a
/// fresh root body (called once per full run); `bodies` supplies the
/// per-tid resume bodies for the restored threads. The reference
/// replica runs first under `cfg` minus the fault plan; its wall time
/// is the baseline the recovery leg is measured against.
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
    let clean = clean_cfg(cfg);
    let t0 = Instant::now();
    let reference = backend.run_traced(&clean, root());
    let full_run_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reference_out = reference
        .result
        .expect("unfaulted reference replica must complete");

    let faulted = backend.run_traced(cfg, root());
    match faulted.result {
        Ok(out) => {
            // The plan never fired (coordinate past the end of the
            // run): the "recovery" is the run itself.
            let digest = out.output_digest();
            FailoverReport {
                reference_digest: reference_out.output_digest(),
                crash: None,
                recovered_from_epoch: None,
                recovered_digest: digest,
                converged: out.output == reference_out.output,
                full_run_ms,
                recovery_ms: full_run_ms,
            }
        }
        Err(e) => {
            let crash = Some(e.report().clone());
            let ckpt = last_checkpoint(cfg, &faulted.checkpoints);
            let t1 = Instant::now();
            let (recovered, recovered_from_epoch) = match &ckpt {
                Some(c) => (backend.run_resumed(&clean, c, bodies), Some(c.epoch)),
                // Crash before the first cut: a standby replica would
                // simply replay the whole input.
                None => (backend.run_traced(&clean, root()), None),
            };
            let recovery_ms = t1.elapsed().as_secs_f64() * 1e3;
            let out = recovered
                .result
                .expect("fault-free recovery replay must complete");
            // Convergence is byte equality of the final output *and*
            // of every checkpoint sealed after the restore point — the
            // recovered replica rejoins the reference chain exactly.
            let resumed_from = recovered_from_epoch.unwrap_or(0);
            let tail_ok = recovered.checkpoints.iter().all(|c| {
                reference
                    .checkpoints
                    .iter()
                    .find(|r| r.epoch == c.epoch)
                    .is_some_and(|r| r.digest() == c.digest())
                    && c.epoch > resumed_from
            });
            FailoverReport {
                reference_digest: reference_out.output_digest(),
                crash,
                recovered_from_epoch,
                recovered_digest: out.output_digest(),
                converged: out.output == reference_out.output && tail_ok,
                full_run_ms,
                recovery_ms,
            }
        }
    }
}
