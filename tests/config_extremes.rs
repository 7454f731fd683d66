//! The retained `RunConfig` knobs at their extremes.
//!
//! The four resource limits (`page_size`, `meta_max_slices`,
//! `meta_capacity_bytes`, and `space_bytes` through `validate`) and the
//! jitter seed stay configurable, so their edge values must stay
//! harmless: a legal extreme changes how often the runtime snapshots,
//! diffs and collects, never what the program computes, and an illegal
//! value is a typed error before any thread starts — on every backend,
//! with no panic crossing `run()`.

use rfdet::workloads::{by_name, Params, Size};
use rfdet::{all_backends, ConfigError, DmtBackend, FailureKind, RunConfig, RunError};
use std::panic::{catch_unwind, AssertUnwindSafe};

const WORKLOADS: [&str; 3] = ["propagate_heavy", "racey", "sync_heavy"];

/// The small test config with `f` applied.
fn edited(f: impl FnOnce(&mut RunConfig)) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    f(&mut cfg);
    cfg
}

fn digest(b: &dyn DmtBackend, cfg: &RunConfig, workload: &str) -> u64 {
    let w = by_name(workload).expect("registered");
    b.run_expect(cfg, (w.factory)(Params::new(4, Size::Test)))
        .output_digest()
}

#[test]
fn legal_extremes_leave_the_output_digest_alone() {
    let mut extremes: Vec<(String, RunConfig)> = Vec::new();
    for page_size in [8, 16, 32, 64, 128] {
        extremes.push((
            format!("page_size={page_size}"),
            edited(|c| c.page_size = page_size),
        ));
    }
    for n in [0, 1] {
        // Every published slice crosses the GC trigger.
        extremes.push((
            format!("meta_max_slices={n}"),
            edited(|c| c.meta_max_slices = n),
        ));
        extremes.push((
            format!("meta_capacity_bytes={n}"),
            edited(|c| c.meta_capacity_bytes = n),
        ));
    }
    extremes.push((
        "jitter_seed=Some(1)".to_owned(),
        edited(|c| c.jitter_seed = Some(1)),
    ));
    for (label, cfg) in &extremes {
        assert_eq!(cfg.validate(), Ok(()), "{label}");
    }

    for b in all_backends().iter().filter(|b| b.is_deterministic()) {
        for workload in WORKLOADS {
            let want = digest(b.as_ref(), &edited(|_| {}), workload);
            for (label, cfg) in &extremes {
                assert_eq!(
                    digest(b.as_ref(), cfg, workload),
                    want,
                    "{workload} on {} with {label}",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn rejected_configs_are_typed_errors_on_every_backend() {
    type Edit = fn(&mut RunConfig);
    let rejected: [(&str, Edit); 6] = [
        ("page_size", |c| c.page_size = 1000),
        ("page_size", |c| c.page_size = 0),
        ("space_bytes", |c| c.space_bytes = 0),
        ("space_bytes", |c| c.space_bytes = 4096 + 7),
        // Page-aligned, but the heap half cannot hold 256 strips
        // (`StripAllocator::new` would panic inside `run()`).
        ("space_bytes", |c| c.space_bytes = 4096),
        ("quantum_ticks", |c| c.quantum_ticks = 0),
    ];
    let w = by_name("racey").expect("registered");
    for (field, f) in rejected {
        let cfg = edited(f);
        let want: ConfigError = cfg.validate().expect_err(field);
        assert_eq!(want.field, field);
        for b in all_backends() {
            let root = (w.factory)(Params::new(4, Size::Test));
            let outcome = catch_unwind(AssertUnwindSafe(|| b.run(&cfg, root)));
            let err = outcome
                .unwrap_or_else(|_| panic!("{}: {want} unwound out of run()", b.name()))
                .expect_err("rejected");
            assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
            let report = err.report();
            assert_eq!(report.kind, FailureKind::InvalidConfig);
            assert_eq!(report.backend, b.name());
            assert_eq!(report.message, want.to_string());
        }
    }
}
