//! Property: schedule perturbation leaves a race-free program's output
//! alone at scale. Random jitter plans (the jitter half of
//! [`FaultPlan::random`]) shift turn order without failing anything, so
//! on every backend the propagate-heavy digest under a plan must equal
//! the plan-free one, at the thread counts where propagation is busiest
//! (8 and 16).

use proptest::prelude::*;
use rfdet::api::FaultAction;
use rfdet::workloads::{by_name, Params, Size};
use rfdet::{all_backends, DmtBackend, FaultPlan, RunConfig};

/// The jitter-only projection of a chaos plan: [`FaultPlan::random`]
/// mixes panics and jitter roughly evenly, and a panicking run has no
/// output digest to compare — so keep only the perturbations that
/// leave the program intact.
fn jitter_plan(seed: u64, threads: u32) -> FaultPlan {
    let chaos = FaultPlan::random(seed, threads, 120, 8);
    FaultPlan::from_specs(
        chaos
            .specs()
            .iter()
            .filter(|s| matches!(s.action, FaultAction::JitterTicks { .. }))
            .copied()
            .collect(),
    )
}

/// Digest of one propagate-heavy run (the workload whose every slice
/// propagates modifications on multiple pages).
fn digest(b: &dyn DmtBackend, threads: usize, plan: &FaultPlan) -> u64 {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.fault_plan = plan.clone();
    let w = by_name("propagate_heavy").expect("stress workload registered");
    b.run_expect(&c, (w.factory)(Params::new(threads, Size::Test)))
        .output_digest()
}

fn assert_digest_holds_under_jitter(threads: usize, seed: u64) {
    let plan = jitter_plan(seed, threads as u32);
    for b in all_backends() {
        let steady = digest(b.as_ref(), threads, &FaultPlan::new());
        let jittered = digest(b.as_ref(), threads, &plan);
        assert_eq!(
            steady,
            jittered,
            "{}@{threads}t seed={seed:#x}: a jitter plan changed the digest",
            b.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn digest_holds_across_jitter_plans_at_eight_threads(seed in any::<u64>()) {
        assert_digest_holds_under_jitter(8, seed);
    }
}

proptest! {
    // 16-thread runs oversubscribe small machines; fewer cases keep the
    // property affordable while still sweeping distinct jitter plans.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn digest_holds_across_jitter_plans_at_sixteen_threads(seed in any::<u64>()) {
        assert_digest_holds_under_jitter(16, seed);
    }
}
