//! Chaos proptest for the service workload (ISSUE 9 satellite): random
//! [`FaultPlan`]s against `service.ledger` on every deterministic
//! backend must never wedge and never produce an unclassified outcome —
//! each run ends in clean output or a typed [`RunError`], byte-stably
//! across reruns; and on the core backend a typed failure that left a
//! checkpoint behind must recover to a clean, conserving completion.

use proptest::prelude::*;
use rfdet::core::recover;
use rfdet::workloads::{service, Params, Size};
use rfdet::{DmtBackend, FailureKind, FaultPlan, RfdetBackend, RunConfig, ThreadFn};
use std::sync::mpsc;
use std::time::Duration;

const WORKERS: usize = 3;
/// Random coordinates cover the whole run: a 3-worker test-scale run
/// executes ~115 sync ops per thread (init barrier + 6 rounds of 19).
const MAX_OP: u64 = 150;
/// Never-wedge bound. Test-scale runs finish in milliseconds; anything
/// near this bound is a supervision bug, not a slow machine.
const BOUND: Duration = Duration::from_secs(30);

fn params() -> Params {
    Params::new(WORKERS, Size::Test)
}

fn cfg_with(plan: &FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(10_000);
    cfg.fault_plan = plan.clone();
    cfg
}

fn det_backends() -> Vec<Box<dyn DmtBackend>> {
    rfdet::all_backends()
        .into_iter()
        .filter(|b| b.is_deterministic())
        .collect()
}

/// Runs under a watchdog: a run that neither completes nor fails in
/// [`BOUND`] *is* a wedge, and fails the property.
fn run_bounded(backend: Box<dyn DmtBackend>, cfg: RunConfig, root: ThreadFn) -> Result<u64, u64> {
    let name = backend.name();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(backend.run(&cfg, root));
    });
    let result = rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{name}: run wedged (no verdict within {BOUND:?})"));
    match result {
        Ok(out) => Ok(out.output_digest()),
        Err(e) => {
            assert!(
                e.kind() != FailureKind::Wedged,
                "{name}: deterministic backends must classify, not wedge: {e}"
            );
            Err(e.report().report_digest())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Every random plan, on every deterministic backend: a classified
    /// outcome (clean or typed), identical when rerun.
    #[test]
    fn random_chaos_is_classified_and_rerun_stable(seed in any::<u64>(), count in 1usize..4) {
        let plan = FaultPlan::random(seed, WORKERS as u32 + 1, MAX_OP, count);
        for backend in det_backends() {
            let name = backend.name();
            let first = run_bounded(backend, cfg_with(&plan), service::ledger(params()));
            let second = run_bounded(
                det_backends().into_iter().find(|b| b.name() == name).expect("same backend"),
                cfg_with(&plan),
                service::ledger(params()),
            );
            prop_assert_eq!(first, second, "{} must be rerun-stable under {:?}", name, plan);
        }
    }

    /// On the core backend, with checkpoints on: a typed failure that
    /// sealed a checkpoint recovers to a clean, conserving completion,
    /// and the recovery digest is itself rerun-stable.
    #[test]
    fn typed_failures_recover_through_checkpoints(seed in any::<u64>(), count in 1usize..4) {
        let plan = FaultPlan::random(seed, WORKERS as u32 + 1, MAX_OP, count);
        let mut cfg = cfg_with(&plan);
        cfg.checkpoint_every = 2;
        cfg.trace = Some(format!("service.ledger@{WORKERS}"));
        let backend = RfdetBackend::ci();
        let run = backend.run_traced(&cfg, service::ledger(params()));
        if run.result.is_ok() {
            return; // plan landed out of range or was pure jitter
        }
        if run.checkpoints.is_empty() {
            return; // crash preceded the first cut; covered by the failover tests
        }
        let root = || service::ledger(params());
        let (recovered, epoch) = recover(&backend, &cfg, &run, &root);
        prop_assert_eq!(epoch, run.checkpoints.last().map(|c| c.epoch));
        let out = recovered.result.expect("fault-free resume must complete");
        let text = String::from_utf8(out.output.clone()).expect("utf8 report");
        prop_assert!(text.contains("conserve=ok"), "recovered ledger conserves: {}", text);
        let (again, _) = recover(&backend, &cfg, &run, &root);
        prop_assert_eq!(
            again.result.expect("resume is repeatable").output,
            out.output,
            "recovery must be byte-stable"
        );
    }
}
