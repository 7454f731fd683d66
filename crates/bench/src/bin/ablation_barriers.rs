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
//! exit) and (b) the structural counters.

use parking_lot::Mutex;
use rfdet_api::{DmtBackend, DmtCtx, DmtCtxExt, MutexId};
use rfdet_bench::{bench_config, ms, render_table, BenchOpts};
use rfdet_core::RfdetBackend;
use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
use rfdet_native::NativeBackend;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOCK_ITERS: u64 = 300;
const COMPUTE_ITERS: u64 = 400_000_000;

/// Builds the scenario root; stores the elapsed time until both lock
/// threads were joined into `lockers_done`.
fn scenario(lockers_done: Arc<Mutex<Option<Duration>>>, start: Instant) -> rfdet_api::ThreadFn {
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
        *lockers_done.lock() = Some(start.elapsed());
        ctx.join(t2);
        let v: u64 = ctx.read(64);
        ctx.emit_str(&format!("locks={v}"));
    })
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let _opts = BenchOpts::from_args();
    print!("{}", rfdet_bench::provenance());
    let cfg = bench_config();
    let backends: Vec<Box<dyn DmtBackend>> = vec![
        Box::new(NativeBackend),
        Box::new(RfdetBackend::ci()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ];
    println!(
        "Barrier-cost ablation (paper §3.1): 2 lock threads ({LOCK_ITERS} \
         acquisitions each) + 1 compute thread\n"
    );
    let mut rows = Vec::new();
    for b in &backends {
        let done = Arc::new(Mutex::new(None));
        let start = Instant::now();
        let out = b.run_expect(&cfg, scenario(Arc::clone(&done), start));
        let total = start.elapsed();
        let lockers = done.lock().expect("scenario records locker time");
        assert_eq!(out.output, format!("locks={}", 2 * LOCK_ITERS).as_bytes());
        rows.push(vec![
            b.name(),
            ms(lockers),
            ms(total),
            format!(
                "{:.0}%",
                100.0 * lockers.as_secs_f64() / total.as_secs_f64()
            ),
            out.stats.global_fences.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "backend",
                "lockers done (ms)",
                "total (ms)",
                "lockers/total",
                "global fences",
            ],
            &rows
        )
    );
    println!(
        "\nexpected shape: under RFDet the lock threads finish long before the\n\
         compute thread (small lockers/total, zero fences); under DThreads the\n\
         first lock acquisition already waits for the compute thread's only\n\
         synchronization point — its exit — so lockers/total ≈ 100%."
    );
}
