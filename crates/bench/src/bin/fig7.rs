//! Figure 7: execution time of all 16 applications at 4 threads,
//! normalized to pthreads, for RFDet-ci, RFDet-pf, DThreads (and,
//! beyond the paper, the CoreDet-style quantum backend).
//!
//! The paper's headline numbers on a 12-core Opteron: RFDet-ci 1.35×,
//! RFDet-pf 1.73×, DThreads ~2.5× (geometric aggregate), with worst
//! cases 2.6× (ocean) vs ~10× (lu-non). On a single-CPU host the
//! *parallel-overlap* component of RFDet's advantage cannot appear in
//! wall clock (EXPERIMENTS.md "Figure 7"); the table therefore also reports the
//! machine-independent structural counters: global fences (RFDet: always
//! zero) and serial commits.

use rfdet_api::{DmtBackend, RunConfig};
use rfdet_bench::{geomean, ms, quartiles, ratios, render_table, show, time_runs, Arm, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
use rfdet_native::NativeBackend;
use rfdet_workloads::{benchmarks, Params};

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = RunConfig::default();
    let backends: Vec<Box<dyn DmtBackend>> = vec![
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ];
    println!(
        "Figure 7: normalized execution time vs pthreads ({} threads, {} rounds, {:?} inputs;\n\
         each cell the median over rounds [range], a slowdown the median per-round ratio)\n",
        opts.threads, opts.reps, opts.size
    );
    let mut rows = Vec::new();
    let mut slowdowns: Vec<Vec<f64>> = vec![Vec::new(); backends.len()];
    for w in opts.selected(benchmarks()) {
        let params = Params::new(opts.threads, opts.size);
        let mut arms: Vec<Arm> = vec![(&NativeBackend, &cfg, params)];
        arms.extend(backends.iter().map(|b| (b.as_ref(), &cfg, params)));
        let (rounds, outs) = time_runs(&w, &arms, opts.reps);
        let mut row = vec![w.name.to_owned(), show(&rounds.ns[0], ms)];
        for (i, b) in backends.iter().enumerate() {
            let ratio = ratios(&rounds.ns[i + 1], &rounds.ns[0]);
            slowdowns[i].push(quartiles(&ratio)[1]);
            row.push(show(&ratio, |x| format!("{x:.2}x")));
            // Sanity: deterministic backends must agree on results for
            // race-free programs.
            assert_eq!(
                outs[i + 1].output,
                outs[0].output,
                "{} result mismatch on {}",
                w.name,
                b.name()
            );
        }
        // Structural evidence column from the last backend's last run.
        row.push(outs[backends.len()].stats.global_fences.to_string());
        rows.push(row);
    }
    let headers = "benchmark,pthreads(ms),RFDet-ci,RFDet-pf,DThreads,CoreDet-q,CoreDet fences";
    println!("{}", render_table(headers, &rows));
    println!("geometric mean of the median slowdowns vs pthreads:");
    for (i, b) in backends.iter().enumerate() {
        println!("  {:<10} {:.2}x", b.name(), geomean(&slowdowns[i]));
    }
    let ci = geomean(&slowdowns[0]);
    let pf = geomean(&slowdowns[1]);
    println!(
        "\nshape checks: RFDet-ci {} RFDet-pf (paper: ci < pf) — {}",
        if ci < pf { "<" } else { ">=" },
        if ci < pf { "OK" } else { "MISMATCH" }
    );
}
