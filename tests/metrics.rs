//! Metrics observation invariance (ISSUE 5 tentpole property).
//!
//! The observability layer reads wall-clock time — the one thing a
//! deterministic runtime must never consult for a decision. These
//! properties pin the load-bearing invariant: turning metrics on (alone
//! or together with the flight recorder) changes **no** terminal digest
//! on any backend, under randomized fault plans and jittered schedules.
//!
//! Failing runs compare `report_digest()`, clean runs compare
//! `output_digest()` — and a run must not change *which* of the two it
//! produces when observed.

use proptest::prelude::*;
use rfdet::workloads::{chaos, Params, Size};
use rfdet::{
    all_backends, DmtBackend, FaultPlan, NativeBackend, RunConfig, RunError, RunOutput, ThreadFn,
};

const THREADS: usize = 3;

fn root() -> ThreadFn {
    chaos::lock_panic(Params::new(THREADS, Size::Test))
}

fn cfg(plan: FaultPlan, seed: Option<u64>, metrics: bool, trace: bool) -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.fault_plan = plan;
    c.jitter_seed = seed;
    c.metrics = metrics;
    if trace {
        c.trace = Some(format!("chaos.lock_panic@{THREADS}"));
    }
    c
}

/// The terminal digest of a run, whichever way it ended. The bool
/// distinguishes the two so an observed run flipping from clean to
/// failing (or back) can never alias into a digest collision.
fn terminal_digest(result: &Result<RunOutput, RunError>) -> (bool, u64) {
    match result {
        Ok(out) => (true, out.output_digest()),
        Err(err) => (false, err.report().report_digest()),
    }
}

proptest! {
    // Each case runs three configurations on four deterministic
    // backends; modest case count keeps the suite fast.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Deterministic backends: random fault plans (panics + jitter) and
    /// jittered schedules — metrics off, metrics on, and metrics+trace
    /// must all land on the same terminal digest.
    #[test]
    fn metrics_never_change_deterministic_digests(
        jitter_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
        faults in 1usize..4,
    ) {
        let plan = FaultPlan::random(plan_seed, THREADS as u32, 8, faults);
        for backend in all_backends().into_iter().filter(|b| b.is_deterministic()) {
            let name = backend.name();
            let off = backend.run(&cfg(plan.clone(), Some(jitter_seed), false, false), root());
            let on = backend.run(&cfg(plan.clone(), Some(jitter_seed), true, false), root());
            let both = backend.run(&cfg(plan.clone(), Some(jitter_seed), true, true), root());
            prop_assert_eq!(
                terminal_digest(&off), terminal_digest(&on),
                "{}: metrics collection changed the run digest", &name
            );
            prop_assert_eq!(
                terminal_digest(&on), terminal_digest(&both),
                "{}: metrics+trace changed the run digest", &name
            );
            // Clean observed runs must actually carry the rollup, and
            // unobserved ones must not.
            if let Ok(out) = &on {
                prop_assert!(out.metrics.is_some(), "{}: snapshot missing", &name);
            }
            if let Ok(out) = &off {
                prop_assert!(out.metrics.is_none(), "{}: snapshot without opt-in", &name);
            }
        }
    }

    /// The pthreads baseline self-agrees only for race-free clean runs,
    /// so its invariance property uses jitter-only plans (no injected
    /// panics — with two racing panics, "who fails first" is
    /// schedule-dependent with or without metrics).
    #[test]
    fn metrics_never_change_pthreads_output(
        tid in 1u32..=THREADS as u32,
        op in 0u64..8,
        ticks in 1u64..50,
    ) {
        let plan = FaultPlan::new().jitter_at(tid, op, ticks);
        let off = NativeBackend.run(&cfg(plan.clone(), None, false, false), root());
        let on = NativeBackend.run(&cfg(plan, None, true, false), root());
        prop_assert_eq!(
            terminal_digest(&off), terminal_digest(&on),
            "pthreads: metrics collection changed the output digest"
        );
    }
}

/// Failing observed runs keep their reports untouched: the report
/// digest is rerun-stable, timing is not, so the snapshot must never
/// ride on an error.
#[test]
fn failing_runs_attach_no_snapshot_and_keep_digests() {
    let plan = FaultPlan::new().panic_at(1, 3);
    for backend in all_backends() {
        let name = backend.name();
        let off = backend
            .run(&cfg(plan.clone(), None, false, false), root())
            .expect_err("plan injects a panic");
        let on = backend
            .run(&cfg(plan.clone(), None, true, false), root())
            .expect_err("plan injects a panic");
        assert_eq!(
            off.report().report_digest(),
            on.report().report_digest(),
            "{name}: metrics changed a failure report digest"
        );
    }
}
