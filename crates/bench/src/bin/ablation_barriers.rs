//! Figure 1 / §3.1 ablation: the cost of global barriers.
//!
//! The scenario from the paper: threads T1 and T3 repeatedly acquire the
//! same lock while T2 only computes. Under DLRC, T1/T3 arbitrate through
//! Kendo and finish on their own schedule; under DThreads neither can
//! acquire the lock "until T2 reaches some synchronization operation,
//! which may be far in the future"; under quantum designs everybody
//! fences every quantum.
//!
//! We measure (a) the wall time until the two lock threads are joined
//! (the serialization the paper describes — visible even on one CPU,
//! because in DThreads T1's *first* lock cannot complete before T2's
//! exit) and (b) the structural counters. The backends run interleaved
//! in `--reps` rounds (`rfdet_bench::measure`); each time is the median
//! over rounds, and lockers/total the median of the per-round shares.

use parking_lot::Mutex;
use rfdet_api::{DmtBackend, DmtCtx, DmtCtxExt, MutexId, RunConfig};
use rfdet_bench::{measure, ms, ratios, render_table, show, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
use rfdet_native::NativeBackend;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOCK_ITERS: u64 = 300;
const COMPUTE_ITERS: u64 = 400_000_000;

/// Builds the scenario root; appends the nanoseconds from `start` until
/// both lock threads were joined to `lockers_done`.
fn scenario(lockers_done: Arc<Mutex<Vec<f64>>>, start: Instant) -> rfdet_api::ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let m = MutexId(7);
        let t1 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..LOCK_ITERS {
                ctx.lock(m);
                ctx.update::<u64>(64, |v| v + 1);
                ctx.unlock(m);
            }
        }));
        let t2 = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
            let mut acc = 1u64;
            for i in 0..COMPUTE_ITERS {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                if i % 64 == 0 {
                    ctx.tick(64);
                }
            }
            ctx.write(128, acc);
        }));
        let t3 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..LOCK_ITERS {
                ctx.lock(m);
                ctx.update::<u64>(64, |v| v + 1);
                ctx.unlock(m);
            }
        }));
        ctx.join(t1);
        ctx.join(t3);
        lockers_done.lock().push(start.elapsed().as_nanos() as f64);
        ctx.join(t2);
        let v: u64 = ctx.read(64);
        ctx.emit_str(&format!("locks={v}"));
    })
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = RunConfig::default();
    let backends: Vec<Box<dyn DmtBackend>> = vec![
        Box::new(NativeBackend),
        Box::new(RfdetBackend::ci()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ];
    println!(
        "Barrier-cost ablation (paper §3.1): 2 lock threads ({LOCK_ITERS} \
         acquisitions each) + 1 compute thread, {} rounds;\n\
         each cell the median over rounds [range]\n",
        opts.reps
    );
    // Per backend: the lockers' time in every run, and the fence count.
    let lockers: Vec<_> = backends.iter().map(|_| Arc::default()).collect();
    let fences = RefCell::new(vec![0; backends.len()]);
    let run = |i: usize| {
        let (backend, cfg, lockers, fences) = (&backends[i], &cfg, &lockers[i], &fences);
        move || {
            let out = backend.run_expect(cfg, scenario(Arc::clone(lockers), Instant::now()));
            assert_eq!(out.output, format!("locks={}", 2 * LOCK_ITERS).as_bytes());
            fences.borrow_mut()[i] = out.stats.global_fences;
        }
    };
    let totals = measure(
        opts.reps,
        Duration::ZERO,
        &mut (0..backends.len()).map(run).collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for (i, b) in backends.iter().enumerate() {
        let lockers = &lockers[i].lock()[1..]; // the first run is the warm-up
        let share = ratios(lockers, &totals.ns[i]);
        rows.push(vec![
            b.name(),
            show(lockers, ms),
            show(&totals.ns[i], ms),
            show(&share, |x| format!("{:.0}%", 100.0 * x)),
            fences.borrow()[i].to_string(),
        ]);
    }
    let headers = "backend,lockers done (ms),total (ms),lockers/total,global fences";
    println!("{}", render_table(headers, &rows));
    println!(
        "\nexpected shape: under RFDet the lock threads finish long before the\n\
         compute thread (small lockers/total, zero fences); under DThreads the\n\
         first lock acquisition already waits for the compute thread's only\n\
         synchronization point — its exit — so lockers/total ≈ 100%."
    );
}
