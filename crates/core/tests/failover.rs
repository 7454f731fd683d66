//! Crash-failover convergence (DESIGN.md §4.12): kill a worker at a
//! FaultPlan coordinate mid-stream, restore the last checkpoint, replay
//! the input tail, and require the recovered replica's digest to be
//! byte-identical to an unfaulted replica's — at 2, 4 and 8 threads.

use rfdet_api::{DmtBackend, FailureKind, FaultPlan, RunConfig};
use rfdet_core::{judge, run_failover, RfdetBackend, Verdict};
use rfdet_trace::persist;
use rfdet_workloads::{service, Params, Size};

/// Checkpoint cadence in barrier episodes. Test scale runs 7 episodes
/// (init + 6 request rounds), so checkpoints seal at epochs 2, 4, 6.
const EVERY: u64 = 2;

fn cfg_for(workers: usize, plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(10_000);
    cfg.checkpoint_every = EVERY;
    cfg.trace = Some(format!("service.ledger@{workers}"));
    cfg.fault_plan = plan;
    cfg
}

/// A sync-op index inside the *last* request round for a worker: past
/// the epoch-6 checkpoint, so recovery restores epoch 6 and replays
/// exactly one round.
fn late_crash_op(workers: usize) -> u64 {
    service::OPS_INIT_ROUND + 5 * service::ops_per_request_round(workers) + 2
}

fn report_for(workers: usize, plan: FaultPlan) -> rfdet_core::FailoverReport {
    let p = Params::new(workers, Size::Test);
    run_failover(&RfdetBackend::ci(), &cfg_for(workers, plan), &move || {
        service::ledger(p)
    })
}

#[test]
fn late_crash_recovers_from_the_newest_checkpoint_and_converges() {
    for workers in [2usize, 4, 8] {
        let victim = 2u32;
        let plan = FaultPlan::new().panic_at(victim, late_crash_op(workers));
        let r = report_for(workers, plan);
        let crash = r.crash.as_ref().unwrap_or_else(|| {
            panic!(
                "fault must fire at {workers} threads (op {})",
                late_crash_op(workers)
            )
        });
        assert_eq!(crash.kind, FailureKind::Panic, "{workers} threads");
        assert_eq!(crash.tid, victim, "{workers} threads");
        assert_eq!(
            r.verdict,
            Verdict::Recovered(Some(6)),
            "{workers} threads: crash in round 6 recovers from epoch 6 \
             (recovered digest {:x?}, reference {:x?})",
            r.recovered_digest,
            r.reference_digest
        );
        assert_eq!(r.recovered_digest, r.reference_digest);
    }
}

#[test]
fn crash_before_the_first_checkpoint_recovers_from_scratch() {
    // Op 2 is the first lock of request round 1 — before epoch 2 seals.
    let plan = FaultPlan::new().panic_at(1, 2);
    let r = report_for(4, plan);
    assert!(r.crash.is_some(), "early fault must fire");
    assert_eq!(
        r.verdict,
        Verdict::Recovered(None),
        "no checkpoint existed yet; the from-scratch replay still converges"
    );
}

#[test]
fn plan_past_the_end_of_the_run_is_a_clean_convergent_noop() {
    let plan = FaultPlan::new().panic_at(2, 1_000_000);
    let r = report_for(4, plan);
    assert!(r.crash.is_none(), "coordinate never reached");
    assert_eq!(r.verdict, Verdict::Converged);
    assert_eq!(r.recovered_digest, r.reference_digest);
}

#[test]
fn failover_recovers_through_persisted_checkpoints_too() {
    let workers = 4usize;
    let dir = std::env::temp_dir().join(format!("rfdet-failover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let mut cfg = cfg_for(
        workers,
        FaultPlan::new().panic_at(2, late_crash_op(workers)),
    );
    cfg.checkpoint_dir = Some(dir.clone());
    let p = Params::new(workers, Size::Test);
    let r = run_failover(&RfdetBackend::ci(), &cfg, &move || service::ledger(p));
    std::fs::remove_dir_all(&dir).ok();
    assert!(r.crash.is_some());
    assert_eq!(
        r.verdict,
        Verdict::Recovered(Some(6)),
        "persisting replicas converge too"
    );
}

/// The restore point is the crashed replica's own newest checkpoint,
/// even when the checkpoint directory already holds a longer chain of
/// the same run (run keys leave the fault plan out). A crash in request
/// round 3 sealed epoch 2 only; the clean chain on disk reaches epoch 6,
/// past the crash.
#[test]
fn recovery_restores_the_crashed_runs_own_newest_cut_not_the_newest_file() {
    let workers = 4usize;
    let p = Params::new(workers, Size::Test);
    let dir = std::env::temp_dir().join(format!("rfdet-failover-own-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut clean = cfg_for(workers, FaultPlan::new());
    clean.checkpoint_dir = Some(dir.clone());
    let recording = RfdetBackend::ci().run_traced(&clean, service::ledger(p));
    recording.result.expect("clean recording");
    let on_disk = persist::checkpoint_chain(&dir, recording.checkpoints[0].run_key());
    assert_eq!(
        on_disk.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        [2, 4, 6]
    );

    let round_3 = service::OPS_INIT_ROUND + 2 * service::ops_per_request_round(workers) + 2;
    let mut cfg = cfg_for(workers, FaultPlan::new().panic_at(2, round_3));
    cfg.checkpoint_dir = Some(dir.clone());
    let r = run_failover(&RfdetBackend::ci(), &cfg, &move || service::ledger(p));
    std::fs::remove_dir_all(&dir).ok();
    assert!(r.crash.is_some(), "op {round_3} must fire");
    assert_eq!(
        r.verdict,
        Verdict::Recovered(Some(2)),
        "the crashed replica sealed epochs up to 2 before round 3, \
         and recovery from its own cut converges"
    );
}

/// A recovery that fails is a `Diverged` verdict, not a panic; so is a
/// recovery that seals a checkpoint the reference chain does not hold,
/// and a completed run whose output is not the reference's.
#[test]
fn a_failed_recovery_a_foreign_chain_or_a_foreign_output_is_diverged() {
    let workers = 4usize;
    let p = Params::new(workers, Size::Test);
    let root = move || service::ledger(p);
    let backend = RfdetBackend::ci();
    // A crash in request round 3: recovery restores epoch 2 and seals 4, 6.
    let round_3 = service::OPS_INIT_ROUND + 2 * service::ops_per_request_round(workers) + 2;
    let cfg = cfg_for(workers, FaultPlan::new().panic_at(2, round_3));
    let mut unfaulted = cfg.clone();
    unfaulted.fault_plan = FaultPlan::new();
    let reference = backend.run_traced(&unfaulted, root());
    let faulted = || backend.run_traced(&cfg, root());

    let (verdict, _) = judge(&backend, &cfg, faulted(), &reference, &root);
    assert_eq!(verdict, Verdict::Recovered(Some(2)));

    let broken_root = || -> rfdet_api::ThreadFn { Box::new(|_| panic!("no way back")) };
    let (verdict, last) = judge(&backend, &cfg, faulted(), &reference, &broken_root);
    assert_eq!(verdict, Verdict::Diverged);
    assert!(
        last.result.is_err(),
        "the verdict rests on the failed recovery"
    );

    let mut chainless = backend.run_traced(&unfaulted, root());
    chainless.checkpoints.retain(|c| c.epoch == 2);
    let (verdict, last) = judge(&backend, &cfg, faulted(), &chainless, &root);
    assert_eq!(verdict, Verdict::Diverged, "epochs 4 and 6 are not in it");
    assert!(last.result.is_ok(), "the output alone matched");

    let other = backend.run_traced(&unfaulted, service::ledger(Params::new(2, Size::Test)));
    let (verdict, _) = judge(&backend, &unfaulted, other, &reference, &root);
    assert_eq!(verdict, Verdict::Diverged);
}

/// A plan's jitter is input and its kill is the fault, so the reference
/// and the recovery both run the jitter without the kill. Worker 2 dies
/// at its sync op 118 before reaching its jitter at op 130: only the
/// reference and the recovered replica run it.
#[test]
fn the_reference_and_the_recovery_keep_the_plans_jitter() {
    let workers = 4usize;
    let kill = late_crash_op(workers);
    let plan = FaultPlan::new()
        .panic_at(2, kill)
        .jitter_at(2, kill + 12, 1_000);
    let p = Params::new(workers, Size::Test);
    let digest = |plan: FaultPlan| {
        let run = RfdetBackend::ci().run_traced(&cfg_for(workers, plan), service::ledger(p));
        run.result
            .expect("a kill-free run completes")
            .output_digest()
    };
    let jittered = digest(plan.without_kills());
    assert_ne!(
        jittered,
        digest(FaultPlan::new()),
        "the jitter moves the output"
    );

    let r = report_for(workers, plan);
    assert!(r.crash.is_some(), "the kill must fire");
    assert_eq!(r.reference_digest, Some(jittered));
    assert_eq!(r.verdict, Verdict::Recovered(Some(6)));
    assert_eq!(r.recovered_digest, Some(jittered));
}

/// A workload whose kill-free run fails leaves nothing to converge to:
/// the report reads diverged, with no reference digest.
#[test]
fn a_reference_that_fails_is_diverged_not_a_panic() {
    let broken_root = || -> rfdet_api::ThreadFn { Box::new(|_| panic!("no way back")) };
    let cfg = cfg_for(4, FaultPlan::new().panic_at(2, late_crash_op(4)));
    let r = run_failover(&RfdetBackend::ci(), &cfg, &broken_root);
    assert_eq!(r.verdict, Verdict::Diverged);
    assert_eq!((r.reference_digest, r.recovered_digest), (None, None));
}
