//! Flight-recorder end-to-end properties (DESIGN.md §4.8).
//!
//! Record → replay → replay must produce three identical terminal
//! digests on every backend: the trace captures every input that
//! determines the schedule (config, jitter seed, fault plan), so
//! re-executing under those inputs is just a rerun — and reruns are
//! deterministic, *including the failure report*, even on the
//! nondeterministic pthreads baseline (the culprit thread's own
//! program-order state at its failure point does not depend on the
//! schedule).
//!
//! Plans here panic exactly **one** thread. Two racing injected panics
//! would make "who fails first" schedule-dependent on the native
//! baseline (first-panic-wins), which is a property of the plan, not of
//! the recorder.

use proptest::prelude::*;
use rfdet::workloads::{chaos, Params, Size};
use rfdet::{
    trace, DmtBackend, DthreadsBackend, FaultAction, FaultPlan, NativeBackend, QuantumBackend,
    RfdetBackend, RunConfig, ThreadFn,
};

const THREADS: usize = 3;

fn all_backends() -> Vec<Box<dyn DmtBackend>> {
    vec![
        Box::new(NativeBackend),
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ]
}

fn lock_panic_root() -> ThreadFn {
    chaos::lock_panic(Params::new(THREADS, Size::Test))
}

fn traced_cfg(plan: FaultPlan, seed: Option<u64>) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.fault_plan = plan;
    cfg.jitter_seed = seed;
    cfg.trace = Some(format!("chaos.lock_panic@{THREADS}"));
    cfg
}

proptest! {
    // Each case records once and replays twice on five backends.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The headline property: three identical `report_digest()`s from
    /// record, replay, and replay-of-the-replay, on every backend, for
    /// random seeds and chaos plans (one panic, jitter noise elsewhere).
    #[test]
    fn record_replay_replay_digests_agree_on_every_backend(
        seed in 0u64..1_000,
        victim in 1u32..=THREADS as u32,
        op in 0u64..8,
        decoy_op in 0u64..16,
        ticks in 1u64..50,
    ) {
        let decoy_tid = if victim == 1 { 2 } else { 1 };
        let plan = FaultPlan::new()
            .panic_at(victim, op)
            .jitter_at(decoy_tid, decoy_op, ticks);
        for backend in all_backends() {
            let name = backend.name();
            let cfg = traced_cfg(plan.clone(), Some(seed));
            let recorded = backend.run_traced(&cfg, lock_panic_root());
            let err = recorded.result.expect_err("one thread must panic");
            let trace = recorded.trace.expect("recording was on");
            prop_assert_eq!(
                trace.failure.report_digest, err.report_digest(),
                "{}: trace digest must be the report digest", &name
            );
            prop_assert!(!trace.culprit_events().is_empty(),
                "{}: culprit schedule must be recorded", &name);

            let first = backend.replay(&trace, lock_panic_root());
            prop_assert!(first.reproduced(),
                "{}: first replay diverged (digest_match={} schedule_match={:?})",
                &name, first.digest_match, first.schedule_match);
            let again = backend.replay(&trace, lock_panic_root());
            prop_assert!(again.reproduced(), "{}: second replay diverged", &name);
            let d1 = first.result.expect_err("replay reproduces the panic").report_digest();
            let d2 = again.result.expect_err("replay reproduces the panic").report_digest();
            prop_assert_eq!(err.report_digest(), d1, "{}: record vs replay", &name);
            prop_assert_eq!(d1, d2, "{}: replay vs replay", &name);
        }
    }
}

/// A failing traced run must leave a loadable `.trace` file behind, and
/// the loaded bytes must drive an exact replay — the crash-persistence
/// half of the recorder (`DmtBackend::replay` from disk, not memory).
#[test]
fn persisted_trace_loads_and_replays() {
    for backend in all_backends() {
        let name = backend.name();
        let cfg = traced_cfg(FaultPlan::new().panic_at(2, 5), Some(17));
        let err = backend
            .run_traced(&cfg, lock_panic_root())
            .result
            .expect_err("plan injects a panic");
        let path = err
            .report()
            .trace_path
            .clone()
            .unwrap_or_else(|| panic!("{name}: failing traced run must persist"));
        assert!(path.is_file(), "{name}: {} must exist", path.display());
        let loaded = trace::persist::load(&path)
            .unwrap_or_else(|e| panic!("{name}: trace must decode: {e:?}"));
        assert_eq!(loaded.recording.backend, name);
        assert_eq!(loaded.failure.report_digest, err.report_digest());
        let replay = backend.replay(&loaded, lock_panic_root());
        assert!(
            replay.reproduced(),
            "{name}: replay from disk diverged (digest_match={} schedule_match={:?})",
            replay.digest_match,
            replay.schedule_match
        );
    }
}

/// The shrinker must strip the decoy faults and keep the root cause:
/// strictly smaller plan, same failure kind, and the minimized trace
/// itself replays.
#[test]
fn shrinker_minimizes_the_fault_plan() {
    for backend in [
        Box::new(RfdetBackend::ci()) as Box<dyn DmtBackend>,
        Box::new(DthreadsBackend),
    ] {
        let name = backend.name();
        let plan = FaultPlan::new()
            .jitter_at(1, 3, 40)
            .panic_at(2, 5)
            .jitter_at(3, 7, 15)
            .jitter_at(2, 2, 25);
        let cfg = traced_cfg(plan, None);
        let recorded = backend.run_traced(&cfg, lock_panic_root());
        let trace = recorded.trace.expect("recording was on");
        assert_eq!(trace.recording.faults.len(), 4);

        let mut mk = lock_panic_root;
        let min = backend
            .shrink_plan(&trace, &mut mk)
            .unwrap_or_else(|| panic!("{name}: a 4-entry plan with decoys must shrink"));
        assert!(
            min.recording.faults.len() < trace.recording.faults.len(),
            "{name}: shrunk plan must be strictly smaller"
        );
        assert_eq!(
            min.recording.faults.len(),
            1,
            "{name}: only the panic survives"
        );
        assert!(matches!(
            min.recording.faults[0].action,
            FaultAction::PanicAtSyncOp { .. }
        ));
        assert_eq!(
            min.failure.kind, trace.failure.kind,
            "{name}: minimized repro must fail the same way"
        );
        let replay = backend.replay(&min, lock_panic_root());
        assert!(replay.reproduced(), "{name}: minimized trace must replay");
    }
}

/// Clean runs record too (for A/B and schedule diffing) but never
/// persist: no failure, no file, and the trace's terminal digest is the
/// output digest.
#[test]
fn clean_traced_runs_do_not_persist() {
    let backend = DthreadsBackend;
    let cfg = traced_cfg(FaultPlan::new(), None);
    let run = backend.run_traced(&cfg, lock_panic_root());
    let out = run.result.expect("no faults injected");
    let trace = run.trace.expect("recording was on");
    assert!(!trace.failure.is_failure());
    assert_eq!(trace.failure.report_digest, out.output_digest());
    assert!(!trace.events.is_empty(), "clean schedules are recorded");
}
