//! Figure 9: effect of the *prelock* and *lazy writes* optimizations
//! (§4.5) on the SPLASH-2 applications ("we chose these applications
//! because they use plenty of synchronization operations"). Method as in
//! the paper: baseline = both optimizations disabled; enable one at a
//! time; report the improvement over baseline.
//!
//! Besides wall time (whose prelock component needs parallel hardware),
//! we report the paper's own effectiveness metric for prelock: the
//! fraction of propagated slices pre-merged off the critical path
//! ("almost 80 % in our experiment"), and for lazy writes the fraction
//! of deferred bytes whose writes were elided.

use rfdet_api::RunConfig;
use rfdet_bench::{bench_config, ms, render_table, time_workload, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_workloads::{benchmarks, Params, Suite};

fn cfg_with(prelock: bool, lazy: bool) -> RunConfig {
    let mut c = bench_config();
    c.rfdet.prelock = prelock;
    c.rfdet.lazy_writes = lazy;
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
        "Figure 9: prelock / lazy-writes optimization effect on SPLASH-2 \
         ({} threads, {} reps, {:?} inputs)\n",
        opts.threads, opts.reps, opts.size
    );
    let backend = RfdetBackend::ci();
    let mut rows = Vec::new();
    for w in splash {
        let params = Params::new(opts.threads, opts.size);
        let (t_base, _) = time_workload(&backend, &cfg_with(false, false), &w, params, opts.reps);
        let (t_pre, out_pre) =
            time_workload(&backend, &cfg_with(true, false), &w, params, opts.reps);
        let (t_lazy, out_lazy) =
            time_workload(&backend, &cfg_with(false, true), &w, params, opts.reps);
        let imp = |t: std::time::Duration| {
            100.0 * (t_base.as_secs_f64() - t.as_secs_f64()) / t_base.as_secs_f64()
        };
        let prelock_frac = out_pre.stats.prelock_fraction() * 100.0;
        let lazy_stats = out_lazy.stats;
        let elide_frac = if lazy_stats.lazy_deferred_bytes == 0 {
            0.0
        } else {
            100.0 * lazy_stats.lazy_elided_bytes as f64 / lazy_stats.lazy_deferred_bytes as f64
        };
        rows.push(vec![
            w.name.to_owned(),
            ms(t_base),
            format!("{:+.1}%", imp(t_pre)),
            format!("{prelock_frac:.0}%"),
            format!("{:+.1}%", imp(t_lazy)),
            format!("{elide_frac:.0}%"),
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
                "lazy-writes speedup",
                "elided bytes",
            ],
            &rows
        )
    );
    println!(
        "(speedups are wall-time improvements over the both-disabled baseline;\n\
         'premerged slices' is the paper's ~80% off-critical-path metric)"
    );
}
