//! Figure 7: execution time of all 16 applications at 4 threads,
//! normalized to pthreads, for RFDet-ci, RFDet-pf, DThreads (and,
//! beyond the paper, the CoreDet-style quantum backend).
//!
//! The paper's headline numbers on a 12-core Opteron: RFDet-ci 1.35×,
//! RFDet-pf 1.73×, DThreads ~2.5× (geometric aggregate), with worst
//! cases 2.6× (ocean) vs ~10× (lu-non). On a single-CPU host the
//! *parallel-overlap* component of RFDet's advantage cannot appear in
//! wall clock (see EXPERIMENTS.md); the table therefore also reports the
//! machine-independent structural counters: global fences (RFDet: always
//! zero) and serial commits.

use rfdet_api::DmtBackend;
use rfdet_bench::{bench_config, geomean, ms, render_table, time_workload, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
use rfdet_native::NativeBackend;
use rfdet_workloads::{benchmarks, Params};

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = bench_config();
    let backends: Vec<Box<dyn DmtBackend>> = vec![
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ];
    println!(
        "Figure 7: normalized execution time vs pthreads ({} threads, {} reps, {:?} inputs)\n",
        opts.threads, opts.reps, opts.size
    );
    let mut rows = Vec::new();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); backends.len()];
    for w in opts.selected(benchmarks()) {
        let params = Params::new(opts.threads, opts.size);
        let (base_time, base_out) = time_workload(&NativeBackend, &cfg, &w, params, opts.reps);
        let mut row = vec![w.name.to_owned(), ms(base_time)];
        for (i, b) in backends.iter().enumerate() {
            let (t, out) = time_workload(b.as_ref(), &cfg, &w, params, opts.reps);
            let ratio = t.as_secs_f64() / base_time.as_secs_f64();
            ratios[i].push(ratio);
            let fences = out.stats.global_fences;
            row.push(format!("{ratio:.2}x"));
            if i == backends.len() - 1 {
                // Structural evidence columns from the last backend pass.
                row.push(fences.to_string());
            }
            // Sanity: deterministic backends must agree on results for
            // race-free programs.
            assert_eq!(
                out.output,
                base_out.output,
                "{} result mismatch on {}",
                w.name,
                b.name()
            );
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "pthreads(ms)",
                "RFDet-ci",
                "RFDet-pf",
                "DThreads",
                "CoreDet-q",
                "CoreDet fences",
            ],
            &rows
        )
    );
    println!("geometric-mean slowdown vs pthreads:");
    for (i, b) in backends.iter().enumerate() {
        println!("  {:<10} {:.2}x", b.name(), geomean(&ratios[i]));
    }
    let ci = geomean(&ratios[0]);
    let pf = geomean(&ratios[1]);
    println!(
        "\nshape checks: RFDet-ci {} RFDet-pf (paper: ci < pf) — {}",
        if ci < pf { "<" } else { ">=" },
        if ci < pf { "OK" } else { "MISMATCH" }
    );
}
