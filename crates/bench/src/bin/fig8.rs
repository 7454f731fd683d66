//! Figure 8: scalability — speedup of 4- and 8-thread executions over
//! the 2-thread execution, for RFDet-ci and pthreads. The paper's claim:
//! RFDet's scalability is comparable to pthreads' (and `dedup`/`ferret`
//! are excluded at 8 threads; `lu-con` stands in for both LU variants).
//!
//! NOTE: on a single-CPU host neither backend can show real speedup;
//! the reproducible claim becomes "RFDet's thread-count scaling curve
//! tracks pthreads'", i.e. the RFDet/pthreads ratio stays roughly flat
//! across thread counts (EXPERIMENTS.md "Figure 8").

use rfdet_api::{DmtBackend, RunConfig};
use rfdet_bench::{ms, ratios, render_table, show, time_runs, Arm, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_native::NativeBackend;
use rfdet_workloads::{benchmarks, Params};

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = RunConfig::default();
    // Paper: dedup and ferret dropped (memory at 8 threads), lu-con
    // represents lu-non.
    let apps = opts.selected(
        (benchmarks().into_iter())
            .filter(|w| !matches!(w.name, "dedup" | "ferret" | "lu-non"))
            .collect(),
    );
    println!(
        "Figure 8: speedup over the 2-thread run ({} rounds, {:?} inputs;\n\
         each cell the median over rounds [range], a speedup the median per-round ratio)\n",
        opts.reps, opts.size
    );
    let (ci, native) = (RfdetBackend::ci(), NativeBackend);
    let backends: [&dyn DmtBackend; 2] = [&ci, &native];
    let mut rows = Vec::new();
    for w in apps {
        // Six arms, interleaved in every round: each backend at 2, 4, 8.
        let arms: Vec<Arm> = (backends.iter())
            .flat_map(|&b| [2, 4, 8].map(|t| (b, &cfg, Params::new(t, opts.size))))
            .collect();
        let (rounds, _) = time_runs(&w, &arms, opts.reps);
        let mut cells = vec![w.name.to_owned()];
        for base in [0, 3] {
            cells.push(show(&rounds.ns[base], ms));
            for more in [base + 1, base + 2] {
                cells.push(show(&ratios(&rounds.ns[base], &rounds.ns[more]), |x| {
                    format!("{x:.2}x")
                }));
            }
        }
        rows.push(cells);
    }
    let headers = "benchmark,RFDet 2t(ms),RFDet 4t,RFDet 8t,pthreads 2t(ms),\
         pthreads 4t,pthreads 8t";
    println!("{}", render_table(headers, &rows));
    println!("(values >1x = faster than the 2-thread run of the same backend)");
}
