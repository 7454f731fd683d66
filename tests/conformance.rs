//! The cross-backend conformance matrix (ISSUE 5 satellite).
//!
//! Table-driven: the matrix is built from the workload registry itself
//! (`benchmarks()` + `racey` + `propagate_heavy` + `chaos::scenarios()`),
//! so a workload added to the registry is enrolled here automatically.
//! Every entry runs on all backends × {2, 4, 8, 16} threads (16 is
//! `#[ignore]`d for scheduled/manual runs), twice per cell — and the
//! second run collects metrics, so the whole matrix doubles as an
//! end-to-end check that observation never perturbs results.
//!
//! Expectations per workload class:
//!
//! * race-free programs (all benchmarks, plan-free chaos programs):
//!   byte-identical output backend-to-backend AND run-to-run;
//! * `racey` (deliberately racy): run-to-run identical per
//!   deterministic backend — cross-backend agreement is not required,
//!   and pthreads is exempt entirely;
//! * `chaos.abba_deadlock` (guaranteed failure): deterministic backends
//!   report `Deadlock` with a rerun-stable report digest; pthreads
//!   surfaces the stall as `Wedged` via the wall-clock fallback.

use rfdet::workloads::{benchmarks, chaos, service, Params, Size, Workload};
use rfdet::{all_backends, DmtBackend, FailureKind, RunConfig, RunOutput};

/// What conformance means for one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expectation {
    /// Byte-identical output across backends and across reruns.
    CrossBackendIdentical,
    /// Identical across reruns of the same deterministic backend only.
    PerBackendStable,
    /// The run must fail, deterministically.
    DeterministicFailure,
}

/// The enrollment rule: new registry entries default to the strictest
/// expectation, so adding a workload automatically adds its conformance
/// coverage (and a racy or failing one must opt out here, visibly).
fn expectation(w: &Workload) -> Expectation {
    match w.name {
        "racey" => Expectation::PerBackendStable,
        // Race-free but order-sensitive: each round folds into a
        // mutex-guarded accumulator with a non-commutative mix, so the
        // output encodes the lock-acquisition order. Deterministic
        // backends must reproduce it run-to-run; pthreads, which fixes
        // no order, is exempt.
        "chaos.long_haul" => Expectation::PerBackendStable,
        // Race-free but schedule-shaped: the per-worker checksums fold
        // in the order cross-shard transfers land in each mailbox, which
        // each backend's arbitration fixes differently. Deterministic
        // backends must replicate it run-to-run (the replica-equivalence
        // row below goes further: independent replicas, byte-identical).
        "service.ledger" => Expectation::PerBackendStable,
        "chaos.abba_deadlock" => Expectation::DeterministicFailure,
        _ => Expectation::CrossBackendIdentical,
    }
}

/// The full table: every registered workload.
fn table() -> Vec<Workload> {
    let mut t = benchmarks();
    t.push(rfdet::workloads::by_name("racey").expect("racey registered"));
    t.push(rfdet::workloads::by_name("propagate_heavy").expect("stress registered"));
    t.extend(chaos::scenarios());
    // Visible opt-out: `service.ledger.bench` (≥1M requests per run) is
    // a throughput cell, not a conformance cell.
    t.extend(
        service::scenarios()
            .into_iter()
            .filter(|w| w.name != "service.ledger.bench"),
    );
    t
}

fn cfg(metrics: bool) -> RunConfig {
    let mut c = RunConfig::small();
    c.space_bytes = 4 << 20; // room for test-scale inputs
    c.rfdet.fault_cost_spins = 0;
    c.metrics = metrics;
    c
}

/// Runs one cell twice — plain, then with metrics on — and checks the
/// outputs byte-identical before returning the (shared) output.
fn run_cell(b: &dyn DmtBackend, w: &Workload, threads: usize) -> Vec<u8> {
    let plain = b.run_expect(&cfg(false), (w.factory)(Params::new(threads, Size::Test)));
    let observed = b.run_expect(&cfg(true), (w.factory)(Params::new(threads, Size::Test)));
    assert!(
        !plain.output.is_empty(),
        "{}@{threads} on {} produced no output",
        w.name,
        b.name()
    );
    assert_eq!(
        plain.output_digest(),
        observed.output_digest(),
        "{}@{threads} on {}: metrics collection changed the output",
        w.name,
        b.name()
    );
    let snap = observed
        .metrics
        .expect("metrics requested but not attached");
    assert_eq!(snap.backend, b.name());
    assert!(plain.metrics.is_none(), "metrics attached without opt-in");
    plain.output
}

fn digest_matrix(threads: usize) {
    for w in table() {
        let expect = expectation(&w);
        if expect == Expectation::DeterministicFailure {
            continue; // covered by `deadlock_scenario_fails_identically`
        }
        let mut reference: Option<(String, Vec<u8>)> = None;
        for b in all_backends() {
            if expect == Expectation::PerBackendStable && !b.is_deterministic() {
                continue;
            }
            let out = run_cell(b.as_ref(), &w, threads);
            match (expect, &reference) {
                (Expectation::CrossBackendIdentical, Some((ref_name, ref_out))) => {
                    assert_eq!(
                        &out,
                        ref_out,
                        "{}@{threads} disagrees between {} and {ref_name}:\n{}\nvs\n{}",
                        w.name,
                        b.name(),
                        String::from_utf8_lossy(&out),
                        String::from_utf8_lossy(ref_out),
                    );
                }
                _ => reference = Some((b.name(), out)),
            }
        }
    }
}

#[test]
fn conformance_matrix_two_threads() {
    digest_matrix(2);
}

#[test]
fn conformance_matrix_four_threads() {
    digest_matrix(4);
}

#[test]
fn conformance_matrix_eight_threads() {
    digest_matrix(8);
}

/// The widest matrix cell. `#[ignore]`d because it oversubscribes CI
/// runners (16 live threads per cell, every workload, every backend);
/// the `scaling-smoke` workflow job runs it on schedule/dispatch with
/// `-- --ignored`, and it must stay green.
#[test]
#[ignore = "16-thread matrix is for scheduled/manual CI (cargo test -- --ignored)"]
fn conformance_matrix_sixteen_threads() {
    digest_matrix(16);
}

/// The checkpoint row of the matrix: only the core backend implements
/// the consistent-cut protocol, every other backend must *say so*
/// (`supports_checkpoints() == false`) and must ignore the checkpoint
/// knobs without perturbing its result — a checkpoint request on
/// DThreads degrades to a plain run, not an error and not a silent
/// half-feature.
#[test]
fn checkpoint_support_is_pinned_to_the_core_backend() {
    let w = rfdet::workloads::by_name("chaos.long_haul").expect("registered");
    for b in all_backends() {
        let core = b.name().starts_with("RFDet");
        assert_eq!(
            b.supports_checkpoints(),
            core,
            "{}: checkpoint support flag drifted",
            b.name()
        );
        if !b.is_deterministic() {
            continue; // pthreads: no digest to compare against itself
        }
        let plain = b.run_expect(&cfg(false), (w.factory)(Params::new(3, Size::Test)));
        let mut ck = cfg(false);
        ck.checkpoint_every = 4;
        let run = b.run_traced(&ck, (w.factory)(Params::new(3, Size::Test)));
        let out = run.result.expect("checkpoint knobs must never fail a run");
        assert_eq!(
            out.output_digest(),
            plain.output_digest(),
            "{}: checkpoint_every changed the output",
            b.name()
        );
        if core {
            assert!(!run.checkpoints.is_empty(), "{}: no chain", b.name());
        } else {
            assert!(
                run.checkpoints.is_empty(),
                "{}: claims no checkpoint support but produced checkpoints",
                b.name()
            );
        }
    }
}

/// The replica-equivalence row (DESIGN.md §4.12): the service ledger run
/// as two *independently executed* replicas — same input, different
/// physical conditions (distinct jitter seeds, standing in for distinct
/// machines) — must reach byte-identical state on every deterministic
/// backend, at 2, 4 and 8 threads. This is the property the crash-
/// failover driver banks on: a restored replica re-deriving the tail
/// lands on the same bytes the primary would have produced.
#[test]
fn service_ledger_replica_equivalence() {
    let w = rfdet::workloads::by_name("service.ledger").expect("registered");
    for threads in [2usize, 4, 8] {
        for b in all_backends().into_iter().filter(|b| b.is_deterministic()) {
            let replicas: Vec<Vec<u8>> = [3u64, 11]
                .iter()
                .map(|&seed| {
                    let mut c = cfg(false);
                    c.jitter_seed = Some(seed);
                    b.run_expect(&c, (w.factory)(Params::new(threads, Size::Test)))
                        .output
                })
                .collect();
            assert_eq!(
                replicas[0],
                replicas[1],
                "{}@{threads}: independent replicas diverged on {}",
                w.name,
                b.name()
            );
            // Determinism alone is not correctness: replicas can agree
            // on a wrong answer. The ledger's own audit (balances +
            // in-flight == minted + puts − shed) must also hold.
            let text = String::from_utf8_lossy(&replicas[0]);
            assert!(
                text.contains("conserve=ok"),
                "{}@{threads}: conservation audit failed on {}: {text}",
                w.name,
                b.name()
            );
        }
    }
}

#[test]
fn deadlock_scenario_fails_identically_on_deterministic_backends() {
    let w = rfdet::workloads::by_name("chaos.abba_deadlock").expect("registered");
    for b in all_backends().into_iter().filter(|b| b.is_deterministic()) {
        let digests: Vec<u64> = (0..2)
            .map(|_| {
                let err = b
                    .run(&cfg(false), (w.factory)(Params::new(2, Size::Test)))
                    .expect_err("abba_deadlock must deadlock");
                assert_eq!(
                    err.report().kind,
                    FailureKind::Deadlock,
                    "{} misclassified the deadlock",
                    b.name()
                );
                err.report().report_digest()
            })
            .collect();
        assert_eq!(
            digests[0],
            digests[1],
            "{}: deadlock report digest not rerun-stable",
            b.name()
        );
    }
}

#[test]
fn deadlock_scenario_wedges_on_pthreads() {
    let w = rfdet::workloads::by_name("chaos.abba_deadlock").expect("registered");
    let mut c = cfg(false);
    c.deadlock_after_ms = Some(500); // wall-clock fallback, kept short
    let err = rfdet::NativeBackend
        .run(&c, (w.factory)(Params::new(2, Size::Test)))
        .expect_err("abba_deadlock must stall pthreads too");
    assert_eq!(err.report().kind, FailureKind::Wedged);
}

#[test]
fn metrics_snapshot_reports_real_phase_activity() {
    // One spot check that the matrix's metrics arm measures something:
    // a lock-heavy workload on RFDet-ci must show sync-op and wait-turn
    // samples, and the attribution must stay inside the run envelope.
    let w = rfdet::workloads::by_name("chaos.lock_panic").expect("registered");
    let out =
        rfdet::RfdetBackend::ci().run_expect(&cfg(true), (w.factory)(Params::new(4, Size::Test)));
    let snap = out.metrics.expect("metrics on");
    let sync = snap.phase(rfdet::api::obs::Phase::SyncOp).expect("phases");
    assert!(sync.count > 0, "no sync ops observed");
    let wait = snap
        .phase(rfdet::api::obs::Phase::WaitTurn)
        .expect("phases");
    assert!(wait.count > 0, "no wait-turn stalls observed");
    assert!(snap.threads >= 4, "per-thread recorders merged");
    for (name, total, frac) in snap.attribution() {
        assert!(
            (0.0..=1.0).contains(&frac) || total == 0,
            "attribution fraction out of range for {name}"
        );
    }
}

/// Stub output check so a `RunOutput` with metrics attached still
/// digests exactly like one without (the exclusion the whole matrix
/// relies on).
#[test]
fn metrics_never_enter_the_output_digest() {
    let base = RunOutput {
        output: b"same".to_vec(),
        ..RunOutput::default()
    };
    let with_metrics = RunOutput {
        output: b"same".to_vec(),
        metrics: Some(Box::new(rfdet::api::obs::MetricsSnapshot::from_histograms(
            "test",
            1,
            &[],
        ))),
        ..RunOutput::default()
    };
    assert_eq!(base.output_digest(), with_metrics.output_digest());
}
