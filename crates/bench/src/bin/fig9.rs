//! Figure 9: effect of the *prelock* optimization (§4.5) on the SPLASH-2
//! applications ("we chose these applications because they use plenty
//! of synchronization operations"). Method as in the paper: baseline =
//! the optimization disabled; enable it; report the wall time against
//! baseline (the two interleaved in rounds, `rfdet_bench::measure`). The paper's second column, lazy writes, is not implemented
//! (DESIGN.md §4.4).
//!
//! Besides wall time (whose prelock component needs parallel hardware),
//! we report the paper's own effectiveness metric for prelock: the
//! fraction of propagated slices pre-merged off the critical path
//! ("almost 80 % in our experiment").

use rfdet_api::RunConfig;
use rfdet_bench::{ms, ratios, render_table, show, time_runs, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_workloads::{benchmarks, Params, Suite};

fn cfg_with(prelock: bool) -> RunConfig {
    let mut c = RunConfig::default();
    c.rfdet.prelock = prelock;
    c
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let splash = benchmarks()
        .into_iter()
        .filter(|w| w.suite == Suite::Splash2);
    println!(
        "Figure 9: prelock optimization effect on SPLASH-2 ({} threads, {} rounds, {:?} inputs;\n\
         each cell the median over rounds [range])\n",
        opts.threads, opts.reps, opts.size
    );
    let backend = RfdetBackend::ci();
    let (off, on) = (cfg_with(false), cfg_with(true));
    let mut rows = Vec::new();
    for w in opts.selected(splash.collect()) {
        let params = Params::new(opts.threads, opts.size);
        let arms = [(&backend as _, &off, params), (&backend as _, &on, params)];
        let (rounds, outs) = time_runs(&w, &arms, opts.reps);
        rows.push(vec![
            w.name.to_owned(),
            show(&rounds.ns[0], ms),
            show(&ratios(&rounds.ns[1], &rounds.ns[0]), |x| {
                format!("{x:.3}x")
            }),
            format!("{:.0}%", outs[1].stats.prelock_fraction() * 100.0),
        ]);
    }
    let headers = "benchmark,baseline(ms),prelock/baseline,premerged slices";
    println!("{}", render_table(headers, &rows));
    println!(
        "(prelock/baseline is the per-round wall-time ratio, below 1x when prelock\n\
         is faster; 'premerged slices' is the paper's ~80% off-critical-path metric)"
    );
}
