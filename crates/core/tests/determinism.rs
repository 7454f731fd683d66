//! End-to-end determinism tests for the RFDet runtime.
//!
//! Strong determinism (§3.2, §5.1): a program — *including one full of
//! data races* — must produce bit-identical output on every run, under
//! arbitrary physical timing. We perturb timing with the jitter
//! failure-injection hook and compare output digests.

use rfdet_api::{AtomicOp, BarrierId, CondId, DmtBackend, DmtCtx, DmtCtxExt, MutexId, RunConfig};
use rfdet_core::RfdetBackend;

fn cfg(jitter_seed: Option<u64>) -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.jitter_seed = jitter_seed;
    c
}

/// Racy program: three threads hammer overlapping counters without locks,
/// then main prints everything after joining.
fn racy_root(ctx: &mut dyn DmtCtx) {
    let handles: Vec<_> = (0..3u64)
        .map(|i| {
            ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                for k in 0..200u64 {
                    let a: u64 = ctx.read(64);
                    ctx.write(64, a.wrapping_mul(31).wrapping_add(i + k));
                    let b: u64 = ctx.read(128 + 8 * i);
                    ctx.write(128 + 8 * i, b + k);
                    ctx.tick(3);
                }
            }))
        })
        .collect();
    for h in handles {
        ctx.join(h);
    }
    let x: u64 = ctx.read(64);
    let y0: u64 = ctx.read(128);
    let y1: u64 = ctx.read(136);
    let y2: u64 = ctx.read(144);
    ctx.emit_str(&format!("{x},{y0},{y1},{y2}"));
}

fn digest_of(backend: &RfdetBackend, seed: Option<u64>, root: fn(&mut dyn DmtCtx)) -> u64 {
    let out = backend.run_expect(&cfg(seed), Box::new(root));
    out.output_digest()
}

#[test]
fn racy_program_is_deterministic_across_runs_and_jitter() {
    let backend = RfdetBackend::ci();
    let baseline = digest_of(&backend, None, racy_root);
    for seed in [1u64, 2, 3, 99] {
        assert_eq!(
            digest_of(&backend, Some(seed), racy_root),
            baseline,
            "jitter seed {seed} changed a racy program's output"
        );
    }
}

#[test]
fn pf_mode_is_equally_deterministic() {
    let backend = RfdetBackend::pf();
    let baseline = digest_of(&backend, None, racy_root);
    for seed in [7u64, 8] {
        assert_eq!(digest_of(&backend, Some(seed), racy_root), baseline);
    }
}

#[test]
fn ci_and_pf_agree_with_each_other() {
    // Both monitoring modes implement the same memory model, so even racy
    // results must agree between them.
    assert_eq!(
        digest_of(&RfdetBackend::ci(), None, racy_root),
        digest_of(&RfdetBackend::pf(), None, racy_root),
    );
}

fn optimization_matrix() -> Vec<(RfdetBackend, RunConfig)> {
    let mut cfgs = Vec::new();
    for detect_races in [false, true] {
        for prelock in [false, true] {
            for lazy in [false, true] {
                for backend in [RfdetBackend::ci(), RfdetBackend::pf()] {
                    let mut c = cfg(Some(5));
                    c.detect_races = detect_races;
                    c.rfdet.prelock = prelock;
                    c.rfdet.lazy_writes = lazy;
                    cfgs.push((backend, c));
                }
            }
        }
    }
    cfgs
}

/// Lock-based program whose result is schedule-independent, so every
/// optimization combination must produce the same answer.
fn locked_root(ctx: &mut dyn DmtCtx) {
    let m = MutexId(0);
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                for k in 0..60u64 {
                    ctx.lock(m);
                    let v: u64 = ctx.read(4096);
                    ctx.write(4096, v + i * 1000 + k);
                    ctx.unlock(m);
                    ctx.tick((i + 1) * 7);
                }
            }))
        })
        .collect();
    for h in handles {
        ctx.join(h);
    }
    let v: u64 = ctx.read(4096);
    ctx.emit_str(&format!("sum={v}"));
}

#[test]
fn every_optimization_combination_gives_the_same_result() {
    let expected = {
        // Compute the schedule-independent expectation directly.
        let mut v = 0u64;
        for i in 0..4u64 {
            for k in 0..60 {
                v += i * 1000 + k;
            }
        }
        format!("sum={v}").into_bytes()
    };
    for (backend, c) in optimization_matrix() {
        let out = backend.run_expect(&c, Box::new(locked_root));
        assert_eq!(
            out.output,
            expected,
            "wrong result with opts detect_races={} prelock={} lazy={} on {}",
            c.detect_races,
            c.rfdet.prelock,
            c.rfdet.lazy_writes,
            backend.name()
        );
    }
}

#[test]
fn condvar_pingpong_is_deterministic() {
    fn root(ctx: &mut dyn DmtCtx) {
        let m = MutexId(0);
        let cv = CondId(0);
        let flag = 256u64; // 0 = producer's turn, 1 = consumer's turn
        let slot = 264u64;
        let acc = 272u64;
        let consumer = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..40 {
                ctx.lock(m);
                while ctx.read::<u64>(flag) == 0 {
                    ctx.cond_wait(cv, m);
                }
                let v: u64 = ctx.read(slot);
                let a: u64 = ctx.read(acc);
                ctx.write(acc, a.wrapping_mul(3).wrapping_add(v));
                ctx.write(flag, 0u64);
                ctx.cond_signal(cv);
                ctx.unlock(m);
            }
        }));
        for i in 0..40u64 {
            ctx.lock(m);
            while ctx.read::<u64>(flag) == 1 {
                ctx.cond_wait(cv, m);
            }
            ctx.write(slot, i * i);
            ctx.write(flag, 1u64);
            ctx.cond_signal(cv);
            ctx.unlock(m);
        }
        ctx.join(consumer);
        let a: u64 = ctx.read(acc);
        ctx.emit_str(&format!("acc={a}"));
    }
    let backend = RfdetBackend::ci();
    let base = backend.run_expect(&cfg(None), Box::new(root));
    assert!(base.stats.waits > 0, "the test must actually block");
    assert!(base.stats.signals >= 80);
    for seed in [11u64, 12, 13] {
        let out = backend.run_expect(&cfg(Some(seed)), Box::new(root));
        assert_eq!(out.output, base.output);
    }
}

#[test]
fn barrier_phases_see_all_prior_writes() {
    fn root(ctx: &mut dyn DmtCtx) {
        let b = BarrierId(0);
        let n = 4u64;
        // Each thread writes its cell, barriers, then reads all cells and
        // writes a checksum; repeat for several phases.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    for phase in 0..5u64 {
                        ctx.write_idx::<u64>(1024, i, phase * 100 + i);
                        ctx.barrier(b, 4);
                        let mut sum = 0u64;
                        for j in 0..4u64 {
                            sum += ctx.read_idx::<u64>(1024, j);
                        }
                        ctx.write_idx::<u64>(2048, i, sum);
                        ctx.barrier(b, 4);
                    }
                }))
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
        let mut all = Vec::new();
        for i in 0..n {
            all.push(ctx.read_idx::<u64>(2048, i).to_string());
        }
        ctx.emit_str(&all.join(","));
    }
    let backend = RfdetBackend::ci();
    let out = backend.run_expect(&cfg(Some(3)), Box::new(root));
    // Every thread's final checksum is the phase-4 sum: Σ (400 + i).
    let expected: u64 = (0..4u64).map(|i| 400 + i).sum();
    let expected = format!("{expected},{expected},{expected},{expected}");
    assert_eq!(out.output, expected.as_bytes());
    assert_eq!(out.stats.barriers, 4 * 5 * 2);
    // And it is stable under jitter.
    let again = backend.run_expect(&cfg(Some(77)), Box::new(root));
    assert_eq!(again.output, out.output);
}

/// Regression test: the parent's writes *around* a spawn must reach
/// every child through the next sync edge. The child's initial clock is
/// seeded from the spawn boundary; seeding it from the parent's
/// post-tick clock instead made the child claim the parent's next slice
/// (stamped with exactly that clock) as already-seen, so its writes —
/// which happen after the memory fork — were filtered as redundant at
/// every later edge and lost forever. Two windows are exercised: writes
/// between two spawns (missable by the first child) and writes after
/// the last spawn (missable by the last child, the shape that lost
/// ledger deposits in `service.ledger`).
#[test]
fn children_see_parent_writes_made_after_their_fork() {
    fn root(ctx: &mut dyn DmtCtx) {
        let b = BarrierId(9);
        let child = |i: u64| {
            Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.barrier(b, 3);
                let between: u64 = ctx.read(512);
                let after: u64 = ctx.read(520);
                ctx.emit_str(&format!("t{i}:{between},{after};"));
            })
        };
        let h1 = ctx.spawn(child(1));
        ctx.write(512u64, 0xBE7_u64); // between the two spawns
        let h2 = ctx.spawn(child(2));
        ctx.write(520u64, 0xAF7E2_u64); // after the last spawn
        ctx.barrier(b, 3);
        ctx.join(h1);
        ctx.join(h2);
    }
    let backend = RfdetBackend::ci();
    let out = backend.run_expect(&cfg(None), Box::new(root));
    assert_eq!(
        String::from_utf8_lossy(&out.output),
        format!("t1:{0},{1};t2:{0},{1};", 0xBE7, 0xAF7E2)
    );
}

#[test]
fn unsynchronized_thread_never_blocks_on_others_locks() {
    // The §3.1 scenario: T1 and T3 fight over a lock while T2 only
    // computes. T2 must finish its work without any lock acquisitions
    // appearing in its path — we verify it completes and the result is
    // deterministic (progress is observable as the run terminating).
    fn root(ctx: &mut dyn DmtCtx) {
        let m = MutexId(9);
        let t1 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..100 {
                ctx.lock(m);
                ctx.update::<u64>(512, |v| v + 1);
                ctx.unlock(m);
            }
        }));
        let t2 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            let mut acc = 7u64;
            for k in 0..5000u64 {
                acc = acc.wrapping_mul(1099511628211).wrapping_add(k);
                ctx.tick(1);
            }
            ctx.write(600, acc);
        }));
        let t3 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..100 {
                ctx.lock(m);
                ctx.update::<u64>(512, |v| v + 3);
                ctx.unlock(m);
            }
        }));
        ctx.join(t1);
        ctx.join(t2);
        ctx.join(t3);
        let locks: u64 = ctx.read(512);
        let compute: u64 = ctx.read(600);
        ctx.emit_str(&format!("{locks},{compute}"));
    }
    let backend = RfdetBackend::ci();
    let a = backend.run_expect(&cfg(Some(1)), Box::new(root));
    let b = backend.run_expect(&cfg(Some(2)), Box::new(root));
    assert_eq!(a.output, b.output);
    assert!(a.output.starts_with(b"400,"));
}

#[test]
fn gc_reclaims_under_pressure_without_changing_results() {
    fn root(ctx: &mut dyn DmtCtx) {
        let m = MutexId(0);
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    for k in 0..50u64 {
                        ctx.lock(m);
                        // Fat slices: touch several pages.
                        for p in 0..4u64 {
                            ctx.write(8192 + p * 4096 + 8 * i, k * p);
                        }
                        ctx.unlock(m);
                    }
                }))
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
        let v: u64 = ctx.read(8192 + 3 * 4096 + 8);
        ctx.emit_str(&format!("{v}"));
    }
    let mut tight = cfg(None);
    tight.meta_capacity_bytes = 8 << 10; // force GC
    let out = RfdetBackend::ci().run_expect(&tight, Box::new(root));
    assert!(out.stats.gc_count > 0, "GC must have triggered");
    let mut roomy = cfg(None);
    roomy.meta_capacity_bytes = 64 << 20;
    let out2 = RfdetBackend::ci().run_expect(&roomy, Box::new(root));
    assert_eq!(out.output, out2.output, "GC must be invisible to results");
    assert_eq!(out2.stats.gc_count, 0);
}

#[test]
fn a_parked_joiner_does_not_hold_gc_back_until_its_idle_poll() {
    // Main parks in `join` for the whole run, so its published clock moves
    // only in its pre-merge rounds. Each GC pass nudges it into one, and
    // the next pass collects below it: what GC reclaims is paced by the
    // slices published, not by the 20 ms idle poll, which a run this
    // short barely reaches.
    fn root(ctx: &mut dyn DmtCtx) {
        let m = MutexId(0);
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    for k in 1..=1000u64 {
                        ctx.lock(m);
                        ctx.write(4096 + 8 * i, k);
                        ctx.unlock(m);
                    }
                }))
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
        let (a, b): (u64, u64) = (ctx.read(4096), ctx.read(4104));
        ctx.emit_str(&format!("{a},{b}"));
    }
    let mut c = cfg(None);
    c.meta_max_slices = 64;
    let out = RfdetBackend::ci().run_expect(&c, Box::new(root));
    assert_eq!(out.output, b"1000,1000");
    // 2 000 unlocks publish a slice each (the locks' slices are empty).
    assert!(
        out.stats.gc_reclaimed_slices > 1500,
        "GC reclaimed {} of 2000 published slices",
        out.stats.gc_reclaimed_slices
    );
}

#[test]
fn barrier_reused_across_episodes_survives_gc() {
    // The same BarrierId runs many episodes while a tight metadata budget
    // forces GC passes between them. Barrier propagation re-walks slice
    // lists from cursor 0, so it must cope with pruned prefixes: the
    // result has to match a run with no GC at all.
    fn root(ctx: &mut dyn DmtCtx) {
        let b = BarrierId(7);
        let n = 2u64;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    for phase in 0..20u64 {
                        // Fat writes so slices pile up and trip the GC
                        // threshold mid-sequence.
                        for p in 0..3u64 {
                            ctx.write(16384 + p * 4096 + 8 * i, phase * 10 + i);
                        }
                        ctx.barrier(b, 2);
                        let mut sum = 0u64;
                        for j in 0..n {
                            for p in 0..3u64 {
                                sum += ctx.read::<u64>(16384 + p * 4096 + 8 * j);
                            }
                        }
                        ctx.write_idx::<u64>(4096, i, sum);
                        ctx.barrier(b, 2);
                    }
                }))
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
        let a: u64 = ctx.read_idx(4096, 0);
        let c: u64 = ctx.read_idx(4096, 1);
        ctx.emit_str(&format!("{a},{c}"));
    }
    let mut tight = cfg(None);
    tight.meta_capacity_bytes = 8 << 10;
    let out = RfdetBackend::ci().run_expect(&tight, Box::new(root));
    assert!(out.stats.gc_count > 0, "GC must trigger between episodes");
    assert_eq!(out.stats.barriers, 2 * 20 * 2);
    let mut roomy = cfg(None);
    roomy.meta_capacity_bytes = 64 << 20;
    let out2 = RfdetBackend::ci().run_expect(&roomy, Box::new(root));
    assert_eq!(out2.stats.gc_count, 0);
    assert_eq!(
        out.output, out2.output,
        "pruning between barrier episodes changed the barrier's result"
    );
}

#[test]
fn contended_atomics_on_the_turn_owned_table_lose_no_update() {
    // Four threads hammer one shared cell and one private cell each. Every
    // op reads and writes the one sync table, and debug builds assert on
    // each access that no other thread holds it (turn ownership).
    fn root(ctx: &mut dyn DmtCtx) {
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    for _ in 0..100u64 {
                        ctx.atomic_rmw(904, AtomicOp::Add(i));
                        ctx.atomic_rmw(912 + 8 * i, AtomicOp::Add(1));
                    }
                }))
            })
            .collect();
        for h in handles {
            ctx.join(h);
        }
        let shared: u64 = ctx.read(904);
        let private: Vec<u64> = (0..4u64).map(|i| ctx.read(912 + 8 * i)).collect();
        ctx.emit_str(&format!("{shared} {private:?}"));
    }
    let out = RfdetBackend::ci().run_expect(&cfg(Some(9)), Box::new(root));
    assert_eq!(out.stats.atomics, 4 * 200);
    // 100 × (0 + 1 + 2 + 3) on the shared cell, 100 on each private one.
    assert_eq!(
        String::from_utf8(out.output).expect("utf-8"),
        "600 [100, 100, 100, 100]"
    );
}

#[test]
fn byte_granularity_race_merge_matches_paper_example() {
    // §4.6: y=0 initially; T2 writes y=256, T3 writes y=255 concurrently;
    // byte-granularity merging yields 511 somewhere downstream. We check
    // (a) determinism and (b) that the merged value is one of the
    // semantically-explainable outcomes {255, 256, 511}.
    fn root(ctx: &mut dyn DmtCtx) {
        let y = 700u64;
        let t2 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.write::<u32>(y, 256);
        }));
        let t3 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.write::<u32>(y, 255);
        }));
        ctx.join(t2);
        ctx.join(t3);
        let v: u32 = ctx.read(y);
        ctx.emit_str(&format!("{v}"));
    }
    let backend = RfdetBackend::ci();
    let out = backend.run_expect(&cfg(None), Box::new(root));
    let v: u32 = String::from_utf8(out.output.clone())
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        [255, 256, 511].contains(&v),
        "merged value {v} is not byte-explainable"
    );
    for seed in [21u64, 22, 23, 24] {
        let again = backend.run_expect(&cfg(Some(seed)), Box::new(root));
        assert_eq!(
            again.output, out.output,
            "race resolution must be deterministic"
        );
    }
}
