//! The retained `RunConfig` knobs at their extremes.
//!
//! The three resource limits (`page_size`, `meta_max_slices`, and
//! `space_bytes` through `validate`) and the jitter seed stay
//! configurable, so their edge values must stay harmless: a legal
//! extreme changes how often the runtime snapshots, diffs and collects,
//! never what the program computes, and an illegal value is a typed
//! error before any thread starts — on every backend, with no panic
//! crossing `run()`.

use rfdet::api::obs::Phase;
use rfdet::workloads::{by_name, Params, Size};
use rfdet::{
    all_backends, ConfigError, DmtBackend, DmtCtx, DmtCtxExt, FailureKind, MutexId, RfdetBackend,
    RunConfig,
};
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
    let rejected: [(&str, Edit); 5] = [
        ("page_size", |c| c.page_size = 1000),
        ("page_size", |c| c.page_size = 0),
        ("space_bytes", |c| c.space_bytes = 0),
        ("space_bytes", |c| c.space_bytes = 4096 + 7),
        // Page-aligned, but the heap half cannot hold 256 strips
        // (`StripAllocator::new` would panic inside `run()`).
        ("space_bytes", |c| c.space_bytes = 4096),
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
            assert_eq!(err.kind(), FailureKind::InvalidConfig, "{err}");
            let report = err.report();
            assert_eq!(report.kind, FailureKind::InvalidConfig);
            assert_eq!(report.backend, b.name());
            assert_eq!(report.message, want.to_string());
        }
    }
}

/// Main parks in `join` while two workers take turns on one mutex, so
/// main runs the GC passes the workers' publishes owe.
fn joined_lockers(ctx: &mut dyn DmtCtx) {
    let m = MutexId(0);
    let workers: Vec<_> = (0..2u64)
        .map(|i| {
            ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                for k in 1..=500u64 {
                    ctx.lock(m);
                    let total: u64 = ctx.read(4096);
                    ctx.write(4096, total + k);
                    ctx.write(8192 + 8 * i, k);
                    ctx.unlock(m);
                }
            }))
        })
        .collect();
    for w in workers {
        ctx.join(w);
    }
    let (total, a, b): (u64, u64, u64) = (ctx.read(4096), ctx.read(8192), ctx.read(8200));
    ctx.emit_str(&format!("{total} {a} {b}"));
}

#[test]
fn gc_on_every_slice_with_main_parked_in_join_keeps_the_output_and_sends_no_nudge_storm() {
    for b in [RfdetBackend::ci(), RfdetBackend::pf()] {
        let want = b.run_expect(&edited(|_| {}), Box::new(joined_lockers));
        assert_eq!(want.output, b"250500 500 500");
        let out = b.run_expect(
            &edited(|c| {
                c.meta_max_slices = 0;
                c.metrics = true;
            }),
            Box::new(joined_lockers),
        );
        assert_eq!(out.output_digest(), want.output_digest(), "{}", b.name());
        // The parked main runs one idle callback per owed pass, plus the
        // few nudges that land while a pass runs and its 20 ms idle
        // polls; a host that nudged itself after each pass, or a
        // publisher re-nudging it per publish, runs about twice as many.
        let passes = out.stats.gc_count;
        let metrics = out.metrics.as_ref().expect("metered");
        let idle = metrics.phase(Phase::IdleWakeups).expect("phase");
        assert!(passes > 0, "{}", b.name());
        assert!(
            idle.max <= passes + passes / 4 + 10,
            "{}: {} idle callbacks in one park for {passes} GC passes",
            b.name(),
            idle.max
        );
    }
}
