//! Figure 8: scalability — speedup of 4- and 8-thread executions over
//! the 2-thread execution, for RFDet-ci and pthreads. The paper's claim:
//! RFDet's scalability is comparable to pthreads' (and `dedup`/`ferret`
//! are excluded at 8 threads; `lu-con` stands in for both LU variants).
//!
//! NOTE: on a single-CPU host neither backend can show real speedup;
//! the reproducible claim becomes "RFDet's thread-count scaling curve
//! tracks pthreads'", i.e. the RFDet/pthreads ratio stays roughly flat
//! across thread counts (see EXPERIMENTS.md).

use rfdet_api::DmtBackend;
use rfdet_bench::{bench_config, ms, render_table, time_workload, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_native::NativeBackend;
use rfdet_workloads::{benchmarks, Params};

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = bench_config();
    // Paper: dedup and ferret dropped (memory at 8 threads), lu-con
    // represents lu-non.
    let apps: Vec<_> = opts
        .selected(benchmarks())
        .into_iter()
        .filter(|w| !matches!(w.name, "dedup" | "ferret" | "lu-non"))
        .collect();
    println!(
        "Figure 8: speedup over the 2-thread run ({} reps, {:?} inputs)\n",
        opts.reps, opts.size
    );
    let mut rows = Vec::new();
    for w in apps {
        let mut cells = vec![w.name.to_owned()];
        let mut base2 = [0.0f64; 2];
        for (bi, backend) in [
            &RfdetBackend::ci() as &dyn DmtBackend,
            &NativeBackend as &dyn DmtBackend,
        ]
        .iter()
        .enumerate()
        {
            for (ti, threads) in [2usize, 4, 8].iter().enumerate() {
                let (t, _) = time_workload(
                    *backend,
                    &cfg,
                    &w,
                    Params::new(*threads, opts.size),
                    opts.reps,
                );
                if ti == 0 {
                    base2[bi] = t.as_secs_f64();
                    cells.push(ms(t));
                } else {
                    cells.push(format!("{:.2}x", base2[bi] / t.as_secs_f64()));
                }
            }
        }
        rows.push(cells);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "RFDet 2t(ms)",
                "RFDet 4t",
                "RFDet 8t",
                "pthreads 2t(ms)",
                "pthreads 4t",
                "pthreads 8t",
            ],
            &rows
        )
    );
    println!("(values >1x = faster than the 2-thread run of the same backend)");
}
