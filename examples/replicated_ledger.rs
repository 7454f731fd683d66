//! Deterministic state-machine replication — the paper's second headline
//! application (§2 "Record and Replay": DMT lets replicas agree by
//! replaying *inputs only*).
//!
//! ```sh
//! cargo run --release --example replicated_ledger
//! ```
//!
//! The replica program is the registered `service.ledger` workload
//! (DESIGN.md §4.12): a striped in-memory ledger where N workers and the
//! main thread each own an account stripe, ingesting a deterministic
//! request stream of point gets, puts, cross-shard transfers and scans.
//! Three replicas run the same program with the same input on separate
//! RFDet instances under *different* physical conditions (distinct
//! jitter seeds — imagine separate machines); their final state must
//! match bit-for-bit, with no interleaving log shipped anywhere.
//!
//! Everything goes through the typed `run` API: a failed replica
//! surfaces as a `RunError` carrying a structured `FailureReport`, which
//! this example prints (rather than panicking) before demonstrating the
//! recovery story — crash a worker mid-stream, restore the newest
//! checkpoint, replay the tail, and converge with the unfaulted replica.

use rfdet::core::{run_failover, Verdict};
use rfdet::workloads::{service, Params, Size};
use rfdet::{FaultPlan, RfdetBackend, RunConfig};

const WORKERS: usize = 4;

fn replica_cfg(jitter_seed: u64) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.jitter_seed = Some(jitter_seed);
    cfg
}

fn main() {
    use rfdet::DmtBackend as _;
    let params = Params::new(WORKERS, Size::Test);
    let backend = RfdetBackend::ci();

    println!("three replicas, same input, independent executions:");
    let mut states = std::collections::HashSet::new();
    for replica_id in 0..3u64 {
        // Different physical conditions per "machine".
        let cfg = replica_cfg(replica_id * 7 + 1);
        match backend.run(&cfg, service::ledger(params)) {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.output).into_owned();
                println!("  replica {replica_id}: {text}");
                states.insert(text);
            }
            Err(e) => {
                // A replica failure is a first-class, typed outcome —
                // render the structured report and bail.
                eprintln!("replica {replica_id} failed:\n{}", e.report().render());
                std::process::exit(1);
            }
        }
    }
    assert_eq!(states.len(), 1, "replicas diverged!");
    println!(
        "\nAll replicas reached the identical state — including the\n\
         per-worker checksums, whose values depend on the order\n\
         cross-shard transfers land in each mailbox. Only the input was\n\
         shared; no interleaving log, no coordination.\n"
    );

    // The failover story: crash worker 2 in the last request round,
    // restore the newest checkpoint, replay the input tail, and compare
    // against an unfaulted replica.
    let rounds = service::request_rounds_per_run(WORKERS, Size::Test);
    let crash_op =
        service::OPS_INIT_ROUND + (rounds - 1) * service::ops_per_request_round(WORKERS) + 2;
    let mut cfg = replica_cfg(1);
    cfg.checkpoint_every = 2;
    cfg.trace = Some(format!("service.ledger@{WORKERS}"));
    cfg.fault_plan = FaultPlan::new().panic_at(2, crash_op);
    let report = run_failover(&backend, &cfg, &move || service::ledger(params));
    match &report.crash {
        Some(crash) => println!(
            "crash injected: {:?} on thread {} at sync op {crash_op}",
            crash.kind, crash.tid
        ),
        None => println!("crash plan never fired (unexpected at this coordinate)"),
    }
    match report.verdict {
        Verdict::Recovered(Some(epoch)) => {
            println!("recovered from checkpoint epoch {epoch}, replayed the tail");
        }
        Verdict::Recovered(None) => println!("no checkpoint available; replayed from scratch"),
        verdict => panic!("the faulted replica ended {}", verdict.name()),
    }
    let recovered = report
        .recovered_digest
        .expect("a recovered replica completes");
    let reference = report
        .reference_digest
        .expect("the unfaulted replica completes");
    println!(
        "recovered replica digest {recovered:016x} == unfaulted replica digest {reference:016x}"
    );
}
