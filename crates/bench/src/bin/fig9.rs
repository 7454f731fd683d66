//! Figure 9: effect of the *prelock* optimization (§4.5) on the SPLASH-2
//! applications ("we chose these applications because they use plenty
//! of synchronization operations"). Method as in the paper: baseline =
//! the optimization disabled; enable it; report the improvement over
//! baseline. The paper's second column, lazy writes, is not implemented
//! (DESIGN.md §4.4).
//!
//! Besides wall time (whose prelock component needs parallel hardware),
//! we report the paper's own effectiveness metric for prelock: the
//! fraction of propagated slices pre-merged off the critical path
//! ("almost 80 % in our experiment").

use rfdet_api::RunConfig;
use rfdet_bench::{bench_config, ms, render_table, time_workload, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_workloads::{benchmarks, Params, Suite};

fn cfg_with(prelock: bool) -> RunConfig {
    let mut c = bench_config();
    c.rfdet.prelock = prelock;
    c
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let splash: Vec<_> = opts
        .selected(benchmarks())
        .into_iter()
        .filter(|w| w.suite == Suite::Splash2)
        .collect();
    println!(
        "Figure 9: prelock optimization effect on SPLASH-2 \
         ({} threads, {} reps, {:?} inputs)\n",
        opts.threads, opts.reps, opts.size
    );
    let backend = RfdetBackend::ci();
    let mut rows = Vec::new();
    for w in splash {
        let params = Params::new(opts.threads, opts.size);
        let (t_base, _) = time_workload(&backend, &cfg_with(false), &w, params, opts.reps);
        let (t_pre, out_pre) = time_workload(&backend, &cfg_with(true), &w, params, opts.reps);
        let imp = 100.0 * (t_base.as_secs_f64() - t_pre.as_secs_f64()) / t_base.as_secs_f64();
        let prelock_frac = out_pre.stats.prelock_fraction() * 100.0;
        rows.push(vec![
            w.name.to_owned(),
            ms(t_base),
            format!("{imp:+.1}%"),
            format!("{prelock_frac:.0}%"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "baseline(ms)",
                "prelock speedup",
                "premerged slices",
            ],
            &rows
        )
    );
    println!(
        "(the speedup is the wall-time improvement over the prelock-disabled\n\
         baseline; 'premerged slices' is the paper's ~80% off-critical-path metric)"
    );
}
