//! §5.1 determinism experiment: run *racey* repeatedly with 2, 4 and 8
//! threads under both RFDet monitoring modes (plus DThreads and the
//! quantum backend for comparison) and verify every run produces the
//! same signature. The paper runs 1000 repetitions per configuration;
//! default here is 30 (`--runs N` to change), with jitter injection
//! varied across runs to stress physical timing.
//!
//! Since ISSUE 10 every run also carries the race detector
//! (DESIGN.md §4.13): racey is the deliberately racy stress test, so
//! each configuration must report a nonzero race count *and* a
//! rerun-stable race digest — the detector's reports are as
//! deterministic as the output signature they ride alongside. Race
//! counts are per-backend facts here (interval boundaries differ across
//! backend families on an always-racing program); the cross-backend
//! digest oracle lives in `tests/races.rs` against the seeded corpus.

use rfdet_api::{races_digest, DmtBackend, RunConfig, RunError, RunOutput};
use rfdet_bench::{render_table, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
use rfdet_workloads::{by_name, Params};

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    let racey = by_name("racey").expect("racey registered");
    let backends: Vec<Box<dyn DmtBackend>> = vec![
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ];
    println!(
        "racey determinism: {} runs per configuration, jitter varied per run, race detector on\n",
        opts.runs
    );
    let mut rows = Vec::new();
    let mut all_ok = true;
    for backend in &backends {
        for threads in [2usize, 4, 8] {
            let mut signatures = std::collections::HashSet::new();
            let mut race_digests = std::collections::HashSet::new();
            let mut races = 0usize;
            let mut first = String::new();
            let mut failed = false;
            for run in 0..opts.runs {
                let cfg = RunConfig {
                    detect_races: true,
                    // Vary physical timing run to run.
                    jitter_seed: (run % 2 == 1).then_some(u64::from(run)),
                    ..RunConfig::default()
                };
                let result: Result<RunOutput, RunError> =
                    backend.run(&cfg, (racey.factory)(Params::new(threads, opts.size)));
                let out = match result {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("{} @{threads} run {run}: {e}", backend.name());
                        failed = true;
                        break;
                    }
                };
                let sig = String::from_utf8_lossy(&out.output).trim().to_owned();
                if run == 0 {
                    first = sig.clone();
                    races = out.races.len();
                }
                signatures.insert(sig);
                race_digests.insert(races_digest(&out.races));
            }
            let ok = !failed && signatures.len() == 1 && race_digests.len() == 1;
            all_ok &= ok;
            rows.push(vec![
                backend.name(),
                threads.to_string(),
                opts.runs.to_string(),
                signatures.len().to_string(),
                races.to_string(),
                race_digests.len().to_string(),
                if failed {
                    "RUN FAILED".into()
                } else if ok {
                    "DETERMINISTIC".into()
                } else {
                    "NONDETERMINISTIC".into()
                },
                first,
            ]);
        }
    }
    let headers = "backend,threads,runs,distinct,races,race_digests,verdict,signature";
    println!("{}", render_table(headers, &rows));
    if all_ok {
        println!(
            "PASS: every configuration produced one signature and one race digest across all runs."
        );
    } else {
        println!("FAIL: some configuration diverged!");
        std::process::exit(1);
    }
}
