//! Table 1: profiling data of benchmark executions at 4 threads —
//! synchronization-operation counts, memory-operation counts, stores
//! that triggered a page copy, memory footprint, and GC activity.
//!
//! Columns mirror the paper: lock/unlock, wait/signal, fork/join, mem
//! (loads+stores), loads, stores, store-w/copy, then footprint for
//! pthreads / RFDet / DThreads and the RFDet GC count — plus the
//! metrics layer's phase attribution for the RFDet run (each
//! deterministic phase's share of attributable runtime overhead).

use rfdet_api::obs::Phase;
use rfdet_api::{DmtBackend, RunConfig};
use rfdet_bench::{render_table, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::DthreadsBackend;
use rfdet_workloads::{benchmarks, Params};

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = RunConfig::default();
    println!(
        "Table 1: profiling data ({} threads, {:?} inputs)\n",
        opts.threads, opts.size
    );
    let mut rows = Vec::new();
    let mut rf_cfg = cfg.clone();
    rf_cfg.metrics = true; // phase-attribution columns ride on the RFDet run
    for w in opts.selected(benchmarks()) {
        let params = Params::new(opts.threads, opts.size);
        let rf = RfdetBackend::ci().run_expect(&rf_cfg, (w.factory)(params));
        let dt = DthreadsBackend.run_expect(&cfg, (w.factory)(params));
        let s = rf.stats;
        let page = cfg.page_size;
        // Footprints: pthreads = the app's real shared footprint (the
        // DThreads engine's materialized global store stands in for it,
        // since workloads lay out static data directly); RFDet = private
        // page copies + metadata peak; DThreads = private pages + global
        // store.
        let pthreads_fp = dt.stats.shared_bytes;
        let rfdet_fp = s.private_pages * page + s.peak_meta_bytes;
        let dthreads_fp = dt.stats.private_pages * page + dt.stats.shared_bytes;
        let frac = |p: Phase| -> String {
            rf.metrics
                .as_ref()
                .and_then(|m| {
                    m.attribution()
                        .into_iter()
                        .find(|(name, _, _)| name == p.metric_name())
                })
                .map_or_else(|| "-".to_owned(), |(_, _, f)| format!("{:.0}", f * 100.0))
        };
        rows.push(vec![
            w.name.to_owned(),
            format!("{}/{}", s.locks, s.unlocks),
            format!("{}/{}", s.waits, s.signals),
            s.atomics.to_string(),
            format!("{}/{}", s.forks, s.joins),
            s.mem_ops().to_string(),
            s.loads.to_string(),
            s.stores.to_string(),
            s.stores_with_copy.to_string(),
            format!("{:.1}", s.runs_sealed as f64 / s.slices.max(1) as f64),
            mb(s.diff_bytes_scanned),
            mb(s.snapshot_bytes_copied),
            format!("{:.0}", s.snapshot_pool_hit_rate() * 100.0),
            mb(pthreads_fp),
            mb(rfdet_fp),
            mb(dthreads_fp),
            s.gc_count.to_string(),
            frac(Phase::WaitTurn),
            frac(Phase::Diff),
            frac(Phase::Snapshot),
            frac(Phase::Propagation),
        ]);
    }
    let headers = "benchmark,lock/unlock,wait/signal,atomic,fork/join,mem,load,store,\
         store w/copy,runs/slice,diff(MB),snap(MB),pool hit%,pthreads(MB),RFDet(MB),\
         DThreads(MB),GC,wait%,diff%,snap%,prop%";
    println!("{}", render_table(headers, &rows));
    println!(
        "notes: footprints are the materialized global store (pthreads), private pages\n\
         + peak metadata (RFDet), private pages + global store (DThreads);\n\
         runs/slice is runs sealed per slice: a slice's run arena is its modified\n\
         bytes + 4 per run + 8 per 64 KiB window its runs fall in;\n\
         diff(MB)/snap(MB) are bytes the end-slice diff kernel scanned and bytes the\n\
         first-write instrumentation snapshotted; pool hit% is how often a snapshot\n\
         buffer came from the recycling pool instead of a fresh allocation;\n\
         the paper's expectations to check: stores ≪ loads, store-w/copy ≪ stores,\n\
         RFDet footprint > DThreads footprint > pthreads footprint;\n\
         wait%/diff%/snap%/prop% attribute the RFDet run's deterministic-machinery\n\
         time (turn stalls, end-slice diffs, page snapshots, propagation) as shares\n\
         of total attributable overhead, from the metrics layer."
    );
}
