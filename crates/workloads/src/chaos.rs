//! Deliberately failure-prone scenarios for the flight recorder.
//!
//! These are not benchmarks: each one is a small, deterministic program
//! whose purpose is to *fail on demand* so traces, replays, and the
//! shrinker have something real to chew on. `lock_panic` and
//! `alloc_storm` run clean until a [`rfdet_api::FaultPlan`] injects the
//! failure; `abba_deadlock` needs no plan — a barrier guarantees the
//! lock cycle forms on every backend and every schedule.
//!
//! They are registered under a `chaos.` name prefix (e.g.
//! `chaos.lock_panic`) so the replay CLI can resolve a persisted
//! trace's workload name back to a root function.

use crate::util::fork_join;
use crate::{Params, Size, Suite, Workload};
use rfdet_api::{BarrierId, DmtCtx, DmtCtxExt, MutexId, ThreadFn, ThreadHandle};

/// Contended locked counter: every thread takes the same mutex for a
/// fixed iteration count, so per-thread sync-op indices are stable and
/// a `FaultPlan` panic lands on the same program point every run.
pub fn lock_panic(p: Params) -> ThreadFn {
    let threads = p.threads.max(1) as u64;
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let m = MutexId(1);
        fork_join(ctx, threads, move |ctx, _| {
            for _ in 0..32 {
                ctx.lock(m);
                let v: u64 = ctx.read(128);
                ctx.write(128, v + 1);
                ctx.unlock(m);
            }
        });
        let v: u64 = ctx.read(128);
        ctx.emit_str(&format!("count={v}"));
    })
}

/// Classic AB-BA deadlock: a barrier guarantees both threads hold their
/// first lock before requesting the second, so the wait-for cycle forms
/// structurally — no fault plan or timing luck required. Deterministic
/// backends report `Deadlock`; the native baseline (no logical clock)
/// surfaces it as `Wedged` via the wall-clock fallback.
pub fn abba_deadlock(_p: Params) -> ThreadFn {
    Box::new(|ctx: &mut dyn DmtCtx| {
        let a = MutexId(10);
        let b = MutexId(11);
        let bar = BarrierId(9);
        let t1 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(a);
            ctx.barrier(bar, 2);
            ctx.lock(b);
            ctx.unlock(b);
            ctx.unlock(a);
        }));
        let t2 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(b);
            ctx.barrier(bar, 2);
            ctx.lock(a);
            ctx.unlock(a);
            ctx.unlock(b);
        }));
        ctx.join(t1);
        ctx.join(t2);
        ctx.emit_str("unreachable");
    })
}

/// Allocation churn: every thread allocates, touches, and frees a run
/// of heap blocks, giving `FaultPlan::fail_alloc` a dense target space.
pub fn alloc_storm(p: Params) -> ThreadFn {
    let threads = p.threads.max(1) as u64;
    Box::new(move |ctx: &mut dyn DmtCtx| {
        fork_join(ctx, threads, |ctx, _| {
            for k in 0..16u64 {
                let addr = ctx.alloc(64, 8);
                ctx.write(addr, k);
                ctx.dealloc(addr);
            }
        });
        ctx.emit_str("allocs done");
    })
}

/// A workload that never terminates: the root thread spins on `tick`,
/// making steady logical-clock progress with no sync ops — so no
/// deadlock or wedge detector ever fires and only a wall-clock timeout
/// (the replay CLI's `--timeout`, exit code 4) can end the run.
/// Deliberately *not* in [`scenarios`]: anything that enumerates the
/// registry would hang on it. It is resolvable only by name
/// (`chaos.hang`) through [`crate::by_name`].
pub fn hang(_p: Params) -> ThreadFn {
    Box::new(|ctx: &mut dyn DmtCtx| loop {
        ctx.tick(1);
    })
}

/// Each thread's round counter: one 64-byte slot per tid on a shared
/// page, written only by its owner.
const LH_CELL_BASE: u64 = 0x1000;
const LH_CELL_STRIDE: u64 = 0x40;
/// Mutex-guarded whole-run accumulator.
const LH_ACC: u64 = 0x2000;
/// Per-thread racy scratch word (owner-written, owner-read).
const LH_SCRATCH_BASE: u64 = 0x3000;
/// Per-thread compute array: one page per tid, 64 words touched per
/// round — pure per-thread work between the rounds' sync ops.
const LH_ARR_BASE: u64 = 0x8000;
const LH_ARR_WORDS: u64 = 64;

/// One multiply-xor-rotate step; enough diffusion that any divergence in
/// round order or operand values lands in the final checksums.
fn lh_mix(h: u64, v: u64) -> u64 {
    (h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(27)
        .wrapping_mul(0x0100_0000_01B3)
}

/// `(rounds, weight)` per scale: `weight` is the per-round count of
/// read-modify-write passes over the thread's compute array.
fn lh_scale(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (12, 4),
        Size::Bench => (240, 1024),
    }
}

/// Long-haul barrier-round workload built for checkpoint/restore
/// (DESIGN.md §4.11): `threads` workers *plus the main thread* run
/// `rounds` barrier-delimited rounds, so every round ends in a
/// full-membership episode — a consistent cut the core backend can
/// checkpoint.
///
/// All control state lives in deterministic memory: each thread keeps
/// its next round index in its own cell, advanced *before* the barrier.
/// That makes the body self-resuming — the identical closure serves as
/// fresh root, spawned worker, and every restored thread's body — and, because
/// the cell read also happens at the top of every fresh round, a resumed
/// thread replays the exact post-cut op sequence (same Kendo ticks, same
/// sync ops), which is what makes continuation digests byte-identical.
pub fn long_haul(p: Params) -> ThreadFn {
    let (rounds, weight) = lh_scale(p.size);
    long_haul_body(p.threads.max(1), rounds, weight, p.seed)
}

/// The shared body. `workers` excludes main; barrier parties are
/// `workers + 1`. The `tid == 0 && r == 0` spawn gate costs zero ops
/// when not taken, preserving tick parity between a fresh thread's round
/// `r` and a resumed thread starting at round `r`.
fn long_haul_body(workers: usize, rounds: u64, weight: u64, seed: u64) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let tid = u64::from(ctx.tid());
        let m = MutexId(1);
        let bar = BarrierId(1);
        let parties = workers + 1;
        let cell = LH_CELL_BASE + LH_CELL_STRIDE * tid;
        let scratch = LH_SCRATCH_BASE + 8 * tid;
        let arr = LH_ARR_BASE + 0x1000 * tid;
        loop {
            let r: u64 = ctx.read(cell);
            if tid == 0 && r == 0 {
                for _ in 0..workers {
                    ctx.spawn(long_haul_body(workers, rounds, weight, seed));
                }
            }
            if r >= rounds {
                break;
            }
            // Compute phase: `weight` read-modify-write passes over the
            // thread's own array page, which a checkpoint captures and a
            // resume must restore exactly.
            for i in 0..weight {
                let a = arr + 8 * (i % LH_ARR_WORDS);
                let v: u64 = ctx.read(a);
                ctx.write(a, lh_mix(v, seed ^ (r << 20) ^ i));
            }
            // Racy per-thread traffic: exercises slice propagation and
            // page capture without cross-thread nondeterminism.
            let s: u64 = ctx.read(scratch);
            ctx.write(scratch, lh_mix(s, seed ^ (r << 8) ^ tid));
            ctx.tick(1 + tid);
            // Locked shared traffic: acquisition order is part of the
            // checksum, so a schedule divergence after resume shows up.
            ctx.lock(m);
            let acc: u64 = ctx.read(LH_ACC);
            ctx.write(LH_ACC, lh_mix(acc, (tid << 32) | r));
            ctx.unlock(m);
            ctx.write(cell, r + 1);
            ctx.barrier(bar, parties);
        }
        let mut s: u64 = ctx.read(scratch);
        for i in 0..LH_ARR_WORDS {
            let v: u64 = ctx.read(arr + 8 * i);
            s = lh_mix(s, v);
        }
        ctx.emit_str(&format!("t{tid}:{s:016x};"));
        if tid == 0 {
            // Join order is tid order; handles are reconstructible
            // because spawn assigns dense deterministic tids.
            for t in 1..=workers {
                ctx.join(ThreadHandle(u32::try_from(t).expect("tid fits u32")));
            }
            let acc: u64 = ctx.read(LH_ACC);
            ctx.emit_str(&format!("acc={acc:016x}"));
        }
    })
}

/// The chaos scenarios (names carry the `chaos.` prefix), a view of
/// the registry.
#[must_use]
pub fn scenarios() -> Vec<Workload> {
    crate::view(&[Suite::Chaos])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Size;
    use rfdet_api::DmtBackend;
    use rfdet_dthreads::DthreadsBackend;

    #[test]
    fn lock_panic_and_alloc_storm_run_clean_without_a_plan() {
        let p = Params::new(2, Size::Test);
        let out = DthreadsBackend.run_expect(&rfdet_api::RunConfig::small(), lock_panic(p));
        assert_eq!(out.output, b"count=64");
        let out = DthreadsBackend.run_expect(&rfdet_api::RunConfig::small(), alloc_storm(p));
        assert_eq!(out.output, b"allocs done");
    }

    #[test]
    fn long_haul_output_is_schedule_and_backend_stable() {
        let p = Params::new(3, Size::Test);
        let base = DthreadsBackend.run_expect(&rfdet_api::RunConfig::small(), long_haul(p));
        let text = String::from_utf8(base.output.clone()).expect("utf8 checksums");
        assert!(text.starts_with("t0:"), "main checksum leads: {text}");
        assert!(
            text.contains("acc="),
            "whole-run accumulator emitted: {text}"
        );
        for t in 1..=3 {
            assert!(
                text.contains(&format!("t{t}:")),
                "worker {t} checksum: {text}"
            );
        }
        let again = DthreadsBackend.run_expect(&rfdet_api::RunConfig::small(), long_haul(p));
        assert_eq!(base.output, again.output, "long_haul must be deterministic");
    }

    #[test]
    fn abba_deadlocks_deterministically() {
        let mut cfg = rfdet_api::RunConfig::small();
        cfg.deadlock_after_ms = Some(2_000);
        let err = DthreadsBackend
            .run(&cfg, abba_deadlock(Params::new(2, Size::Test)))
            .expect_err("AB-BA must deadlock");
        assert_eq!(err.kind(), rfdet_api::FailureKind::Deadlock);
    }
}
