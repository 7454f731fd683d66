//! Run any registered benchmark workload on any backend, with timing and
//! the Table-1 profiling counters.
//!
//! ```sh
//! cargo run --release --example run_workload -- ocean RFDet-ci 4 bench
//! cargo run --release --example run_workload -- racey DThreads 8 test
//! ```

use rfdet::workloads::{benchmarks, by_name, Params, Size};
use rfdet::{all_backends, DmtBackend, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: run_workload <workload> [backend] [threads] [test|bench]");
        eprintln!(
            "workloads: racey, {}",
            benchmarks()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        eprintln!(
            "backends:  {}",
            all_backends()
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }
    let workload = by_name(&args[0]).unwrap_or_else(|| {
        eprintln!("unknown workload {:?}", args[0]);
        std::process::exit(2);
    });
    let backend_name = args.get(1).map_or("RFDet-ci", String::as_str);
    let backend: Box<dyn DmtBackend> = all_backends()
        .into_iter()
        .find(|b| b.name() == backend_name)
        .unwrap_or_else(|| {
            eprintln!("unknown backend {backend_name:?}");
            std::process::exit(2);
        });
    let threads: usize = args.get(2).map_or(4, |s| s.parse().expect("threads"));
    let size = match args.get(3).map(String::as_str) {
        Some("test") => Size::Test,
        _ => Size::Bench,
    };

    let cfg = RunConfig::default();
    let start = std::time::Instant::now();
    let out = backend.run_expect(&cfg, (workload.factory)(Params::new(threads, size)));
    let elapsed = start.elapsed();

    println!(
        "== {} on {} ({threads} threads, {size:?}) ==",
        workload.name,
        backend.name()
    );
    println!("output:  {}", String::from_utf8_lossy(&out.output).trim());
    println!("time:    {elapsed:?}");
    let s = out.stats;
    println!(
        "syncs:   lock/unlock {}/{}  wait/signal {}/{}  fork/join {}/{}  barrier {}",
        s.locks, s.unlocks, s.waits, s.signals, s.forks, s.joins, s.barriers
    );
    println!(
        "memory:  loads {}  stores {}  store-w/copy {}  page-faults {}",
        s.loads, s.stores, s.stores_with_copy, s.page_faults
    );
    println!(
        "dlrc:    slices {}  propagated {}  premerged {}  gc {} (reclaimed {})",
        s.slices, s.slices_propagated, s.prelock_premerged, s.gc_count, s.gc_reclaimed_slices
    );
    println!(
        "engine:  global fences {}  serial commits {}",
        s.global_fences, s.serial_commits
    );
}
