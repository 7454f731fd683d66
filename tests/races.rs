//! The race-detector oracle suite (ISSUE 10).
//!
//! Three claims, checked against the seeded-race corpus
//! (`workloads::races`):
//!
//! 1. **Cross-backend agreement** — every seeded race is reported at
//!    identical logical coordinates (tid, sync-op count, access kind) on
//!    every race-capable backend, at 2, 4 and 8 threads, so the corpus
//!    digest is a backend-invariant fact about the *program*;
//! 2. **Zero false positives** — clean twins and the full benchmark
//!    suite report nothing (racey is excluded by design: it is the
//!    deliberately racy stress test);
//! 3. **Observer neutrality** — detection never moves a terminal
//!    digest or a failure report, survives record→replay with a stable
//!    race digest, and the ddmin-shrunk worker set still reproduces the
//!    target race.

use proptest::prelude::*;
use rfdet::workloads::{benchmarks, races, Params, Size};
use rfdet::{
    all_backends, races_digest, AtomicOp, DmtBackend, DmtCtx, DmtCtxExt, FaultPlan, RunConfig,
    RunOutput, ThreadFn,
};

/// The race-capable backends: every deterministic one.
fn det_backends() -> Vec<Box<dyn DmtBackend>> {
    all_backends()
        .into_iter()
        .filter(|b| b.supports_race_detection())
        .collect()
}

fn detect_cfg() -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.detect_races = true;
    c
}

fn run_detecting(b: &dyn DmtBackend, name: &str, threads: usize) -> RunOutput {
    let w = rfdet::workloads::by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
    b.run_expect(&detect_cfg(), (w.factory)(Params::new(threads, Size::Test)))
}

/// Happens-before is transitive through an atomic cell. A writes the
/// data, then `atomic_rmw`s the cell; B's only access is a later
/// `atomic_rmw` of it; C `atomic_load`s it, then reads the data. C is
/// ordered after A only through B's recorded release, which must keep
/// A's (an atomic's release is the previous one joined with its own): no
/// race. When A skips its `rmw`, its write races C's read: exactly one.
/// C sees both increments, so the chain is the one under test.
#[test]
fn an_atomic_cell_orders_accesses_transitively() {
    const DATA: u64 = 0;
    const CELL: u64 = 64;
    fn chain(a_releases: bool) -> ThreadFn {
        Box::new(move |ctx| {
            let a = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.write::<u64>(DATA, 7);
                if a_releases {
                    ctx.atomic_rmw(CELL, AtomicOp::Add(1));
                }
            }));
            let b = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
                ctx.tick(1_000);
                ctx.atomic_rmw(CELL, AtomicOp::Add(1));
            }));
            let c = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
                ctx.tick(2_000);
                let seen = ctx.atomic_load(CELL);
                let _: u64 = ctx.read(DATA);
                ctx.emit_str(&seen.to_string());
            }));
            for h in [a, b, c] {
                ctx.join(h);
            }
        })
    }
    for b in det_backends() {
        for (a_releases, seen, races) in [(true, "2", 0), (false, "1", 1)] {
            let out = b.run_expect(&detect_cfg(), chain(a_releases));
            assert_eq!(
                (
                    String::from_utf8_lossy(&out.output).as_ref(),
                    out.races.len()
                ),
                (seen, races),
                "{} (A releases: {a_releases})",
                b.name()
            );
        }
    }
}

/// Race detection is a capability of the deterministic backends only:
/// pthreads has no happens-before substrate to check against.
#[test]
fn detection_capability_is_pinned_per_backend() {
    let caps: Vec<(String, bool)> = all_backends()
        .iter()
        .map(|b| (b.name(), b.supports_race_detection()))
        .collect();
    assert_eq!(
        caps,
        vec![
            ("pthreads".to_owned(), false),
            ("RFDet-ci".to_owned(), true),
            ("RFDet-pf".to_owned(), true),
            ("DThreads".to_owned(), true),
            ("CoreDet-q".to_owned(), true),
        ]
    );
}

/// Detection is a pure observer of the core: a failure report (culprit,
/// its clock and slice count, wait graph) has one digest with the
/// detector on and off. While the core still merged a same-thread mutex
/// re-acquire into the open slice (§4.5) whenever it did not detect
/// races, `service.ledger@4 --panic 2:49` read two report digests on
/// RFDet-ci. Three failing runs: a planned panic under plan jitter, a
/// planned panic in the replicated service, and the AB-BA deadlock.
#[test]
fn detection_moves_no_failure_report() {
    let jitter = (1..=4u32).fold(FaultPlan::new(), |p, t| {
        p.jitter_at(t, 2, 97 * u64::from(t)).jitter_at(t, 5, 31)
    });
    let runs = [
        ("chaos.lock_panic", 3, jitter.panic_at(2, 5), Some(7)),
        ("service.ledger", 4, FaultPlan::new().panic_at(2, 49), None),
        ("chaos.abba_deadlock", 2, FaultPlan::new(), None),
    ];
    for b in det_backends() {
        for (name, threads, plan, jitter_seed) in &runs {
            let w = rfdet::workloads::by_name(name).expect("registered");
            let report = |detect_races| {
                let cfg = RunConfig {
                    fault_plan: plan.clone(),
                    jitter_seed: *jitter_seed,
                    detect_races,
                    ..detect_cfg()
                };
                let root = (w.factory)(Params::new(*threads, Size::Test));
                let err = b.run(&cfg, root).expect_err("the run fails");
                err.report_digest()
            };
            assert_eq!(
                report(true),
                report(false),
                "{name}@{threads} on {}: detection moved the failure report",
                b.name()
            );
        }
    }
}

/// The central oracle: every corpus entry reports exactly its expected
/// number of races, and the full report digest — addresses plus both
/// sites' (tid, sync-op, kind) coordinates — is identical on every
/// race-capable backend at every evaluated thread count.
#[test]
fn corpus_races_agree_across_backends() {
    let backends = det_backends();
    for w in races::corpus() {
        for threads in [2usize, 4, 8] {
            let expected = races::expected_races(w.name, threads)
                .unwrap_or_else(|| panic!("{} missing ground truth", w.name));
            let mut digests = Vec::new();
            for b in &backends {
                let out = run_detecting(b.as_ref(), w.name, threads);
                assert_eq!(
                    out.races.len(),
                    expected,
                    "{}@{threads} on {}: expected {expected} races, got {}:\n{}",
                    w.name,
                    b.name(),
                    out.races.len(),
                    rfdet::render_races(&out.races),
                );
                digests.push((b.name(), races_digest(&out.races)));
            }
            let (first_backend, first) = (&digests[0].0, digests[0].1);
            for (name, d) in &digests {
                assert_eq!(
                    d, &first,
                    "{}@{threads}: race digest on {name} diverges from {first_backend}",
                    w.name,
                );
            }
        }
    }
}

/// Reports must be rerun-stable on a single backend too (same run, same
/// canonical order, same digest) — the cheap determinism check the
/// cross-backend oracle builds on.
#[test]
fn corpus_reports_are_rerun_stable() {
    for b in det_backends() {
        for name in ["races.counter", "races.mailbox_peek"] {
            let a = run_detecting(b.as_ref(), name, 4);
            let c = run_detecting(b.as_ref(), name, 4);
            assert_eq!(
                races_digest(&a.races),
                races_digest(&c.races),
                "{name} race digest moved between reruns on {}",
                b.name()
            );
        }
    }
}

/// Zero false positives: the entire benchmark suite (race-free by
/// construction — conformance demands cross-backend byte-identical
/// output) reports no races on any race-capable backend. `racey` is
/// deliberately excluded: it is the racy stress test, and the detector
/// reporting its races is correct behaviour, not noise.
#[test]
fn benchmarks_report_zero_races() {
    let mut cfg = detect_cfg();
    cfg.space_bytes = 4 << 20; // room for test-scale inputs
    for b in det_backends() {
        for w in benchmarks() {
            let out = b.run_expect(&cfg, (w.factory)(Params::new(4, Size::Test)));
            assert!(
                out.races.is_empty(),
                "{} on {}: false positives:\n{}",
                w.name,
                b.name(),
                rfdet::render_races(&out.races),
            );
        }
        // The replicated-service workload exercises every primitive at
        // once (locks, conds, barriers, atomics, spawn/join).
        let ledger = rfdet::workloads::by_name("service.ledger").expect("service registered");
        let out = b.run_expect(&cfg, (ledger.factory)(Params::new(4, Size::Test)));
        assert!(
            out.races.is_empty(),
            "service.ledger on {}: false positives:\n{}",
            b.name(),
            rfdet::render_races(&out.races),
        );
    }
}

/// Emulates `replay races`: record a detecting run, then rebuild the
/// config from the trace (which deliberately drops `detect_races`),
/// re-enable detection explicitly, and replay twice. All three runs
/// must agree on both the terminal digest and the race digest.
#[test]
fn race_digest_survives_record_and_replay() {
    for b in det_backends() {
        let w = rfdet::workloads::by_name("races.torn_write").unwrap();
        let mut cfg = detect_cfg();
        cfg.trace = Some("races.torn_write@4".to_owned());
        let recorded = b.run_traced(&cfg, (w.factory)(Params::new(4, Size::Test)));
        let out = recorded.result.expect("recorded run succeeds");
        let trace = recorded.trace.expect("recording on");
        let mut replay_cfg = RunConfig::from_trace(&trace);
        assert!(
            !replay_cfg.detect_races,
            "detect_races must stay out of the trace projection"
        );
        replay_cfg.detect_races = true;
        for round in 0..2 {
            let again = b.run_expect(&replay_cfg, (w.factory)(Params::new(4, Size::Test)));
            assert_eq!(
                out.output_digest(),
                again.output_digest(),
                "replay {round} output digest moved on {}",
                b.name()
            );
            assert_eq!(
                races_digest(&out.races),
                races_digest(&again.races),
                "replay {round} race digest moved on {}",
                b.name()
            );
        }
    }
}

/// ddmin over the corpus's worker-enable mask: the shrunk worker set is
/// 1-minimal and still reports the target race at the same coordinates.
/// `result_peek` shrinks to a single worker; `counter` to the first
/// racing pair.
#[test]
fn ddmin_shrinks_to_a_minimal_reproducer() {
    for b in det_backends() {
        for (name, minimal) in [("races.result_peek", 1usize), ("races.counter", 2)] {
            let threads = 4usize;
            let full = run_detecting(b.as_ref(), name, threads);
            let target = full.races.first().expect("seeded race present").digest();
            let workers: Vec<usize> = (0..threads).collect();
            let mut oracle = |subset: &[usize]| {
                let mask = subset.iter().fold(0u64, |m, &t| m | (1 << t));
                let root = races::root_masked(name, Params::new(threads, Size::Test), mask)
                    .expect("corpus entry");
                let out = b.run_expect(&detect_cfg(), root);
                out.races.iter().any(|r| r.digest() == target)
            };
            let min = rfdet::trace::ddmin(&workers, &mut oracle);
            assert_eq!(
                min.len(),
                minimal,
                "{name} on {}: expected a {minimal}-worker reproducer, got {min:?}",
                b.name()
            );
            assert!(
                oracle(&min),
                "{name} on {}: minimized worker set lost the race",
                b.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Observer neutrality under schedule perturbation: with a random
    /// jitter-only fault plan (which deterministically shifts interval
    /// and quantum boundaries), the detector being on or off never
    /// moves the terminal output digest — on any race-capable backend,
    /// racy corpus and benchmark-style programs alike. The same plan
    /// plus a panic at one of main's four sync ops (two spawns, two
    /// joins) fails the run with one report digest either way.
    #[test]
    fn detection_is_digest_neutral_under_jitter(
        jitters in proptest::collection::vec((0u32..4, 0u64..6, 1u64..40), 0..4),
        seed in 1u64..1_000_000,
        panic_op in 0u64..4,
    ) {
        let mut plan = FaultPlan::new();
        for &(tid, op, ticks) in &jitters {
            plan = plan.jitter_at(tid, op, ticks);
        }
        for name in ["races.lazy_init", "racey"] {
            let w = rfdet::workloads::by_name(name).unwrap();
            for b in det_backends() {
                let mut on = detect_cfg();
                on.fault_plan = plan.clone();
                let mut off = on.clone();
                off.detect_races = false;
                let mut p = Params::new(2, Size::Test);
                p.seed = seed;
                let with = b.run_expect(&on, (w.factory)(p));
                let without = b.run_expect(&off, (w.factory)(p));
                prop_assert_eq!(
                    with.output_digest(),
                    without.output_digest(),
                    "{} on {}: detection moved the output digest", name, b.name()
                );
                prop_assert!(without.races.is_empty(), "races reported with detection off");
                let failing = |cfg: &RunConfig| {
                    let cfg = RunConfig {
                        fault_plan: cfg.fault_plan.clone().panic_at(0, panic_op),
                        ..cfg.clone()
                    };
                    b.run(&cfg, (w.factory)(p)).expect_err("main panics")
                };
                prop_assert_eq!(
                    failing(&on).report_digest(),
                    failing(&off).report_digest(),
                    "{} on {}: detection moved the failure report", name, b.name()
                );
            }
        }
    }
}
