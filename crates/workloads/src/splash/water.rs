//! `water-nsquared` and `water-spatial` — molecular-dynamics kernels.
//!
//! Both integrate the same O(M²) pairwise-force system; they differ in
//! locking granularity, mirroring the originals: `water-ns` takes a
//! per-molecule lock for every force accumulation (the lock-heaviest
//! SPLASH-2 row in Table 1: ~6.3 k locks), while `water-sp` batches
//! accumulations per spatial block and locks once per block (~1.1 k).
//!
//! Force cells are fixed-point accumulators (`util::to_fixed`): several
//! threads add deltas to the same molecule's force, and integer addition
//! keeps the totals identical under every lock-acquisition order —
//! plain `f64 +=` would let the pthreads schedule perturb trajectories.

use crate::util::{add_fixed, checksum_f64s, chunk, fork_join, ids, read_fixed, LockBarrier};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const BARRIER_BASE: Addr = 4096;
const POS_BASE: Addr = 16384; // [x,y,z] per molecule
const VEL_BASE: Addr = 65536;
const FORCE_BASE: Addr = 131072;

#[derive(Clone, Copy)]
enum Granularity {
    PerMolecule,
    PerBlock,
}

fn dims(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (16, 2), // molecules, steps
        Size::Bench => (48, 4),
    }
}

fn v3(base: Addr, i: u64, d: u64) -> Addr {
    base + (i * 3 + d) * 8
}

/// Direction vector and force magnitude for a molecule pair.
fn pair_force(ctx: &mut dyn DmtCtx, i: u64, j: u64) -> ([f64; 3], f64) {
    let mut f = [0.0f64; 3];
    let mut dist2 = 1e-9f64;
    for (d, fd) in f.iter_mut().enumerate() {
        let a: f64 = ctx.read(v3(POS_BASE, i, d as u64));
        let b: f64 = ctx.read(v3(POS_BASE, j, d as u64));
        let dx = a - b;
        *fd = dx;
        dist2 += dx * dx;
    }
    (f, 1.0 / (dist2 * dist2.sqrt()))
}

fn body(p: Params, gran: Granularity, label: &'static str) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let (m, steps) = dims(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x77A7);
        for i in 0..m {
            for d in 0..3 {
                ctx.write::<f64>(v3(POS_BASE, i, d), rng.next_f64() * 10.0);
                ctx.write::<f64>(v3(VEL_BASE, i, d), 0.0);
            }
        }
        let barrier = LockBarrier::new(
            BARRIER_BASE,
            ids::barrier_mutex(0),
            ids::barrier_cond(0),
            threads,
        );
        fork_join(ctx, threads, move |ctx, t| {
            let my = chunk(m, threads, t);
            for _ in 0..steps {
                // Zero own force slots (fixed-point cells).
                for i in my.clone() {
                    for d in 0..3 {
                        ctx.write::<i64>(v3(FORCE_BASE, i, d), 0);
                    }
                }
                barrier.wait(ctx);
                // Pairwise forces: thread t owns pairs (i, j)
                // with i in its chunk, j > i; accumulation into
                // molecule j crosses chunks, hence the locks.
                match gran {
                    Granularity::PerMolecule => {
                        // water-ns: a lock around every single
                        // accumulation — the Table-1 lock-count
                        // champion of SPLASH-2.
                        for i in my.clone() {
                            for j in i + 1..m {
                                let (f, scale) = pair_force(ctx, i, j);
                                ctx.tick(8);
                                ctx.lock(ids::data_mutex(j as u32));
                                for (d, fd) in f.iter().enumerate() {
                                    add_fixed(ctx, v3(FORCE_BASE, j, d as u64), -fd * scale);
                                }
                                ctx.unlock(ids::data_mutex(j as u32));
                                ctx.lock(ids::data_mutex(i as u32));
                                for (d, fd) in f.iter().enumerate() {
                                    add_fixed(ctx, v3(FORCE_BASE, i, d as u64), fd * scale);
                                }
                                ctx.unlock(ids::data_mutex(i as u32));
                            }
                        }
                    }
                    Granularity::PerBlock => {
                        // water-sp: accumulate a whole i-row
                        // locally, then flush per spatial block
                        // under one lock — roughly 6× fewer locks
                        // than water-ns, matching the paper's
                        // 1103-vs-6314 ratio.
                        for i in my.clone() {
                            let mut local = vec![0.0f64; (m * 3) as usize];
                            for j in i + 1..m {
                                let (f, scale) = pair_force(ctx, i, j);
                                ctx.tick(8);
                                for (d, fd) in f.iter().enumerate() {
                                    local[(j * 3) as usize + d] -= fd * scale;
                                    local[(i * 3) as usize + d] += fd * scale;
                                }
                            }
                            for block in 0..threads {
                                let members = chunk(m, threads, block);
                                let touched = members.clone().any(|j| {
                                    (0..3).any(|d| local[(j * 3) as usize + d as usize] != 0.0)
                                });
                                if !touched {
                                    continue;
                                }
                                ctx.lock(ids::data_mutex(block as u32));
                                for j in members {
                                    for d in 0..3u64 {
                                        let delta = local[(j * 3 + d) as usize];
                                        if delta != 0.0 {
                                            add_fixed(ctx, v3(FORCE_BASE, j, d), delta);
                                        }
                                    }
                                }
                                ctx.unlock(ids::data_mutex(block as u32));
                            }
                        }
                    }
                }
                barrier.wait(ctx);
                // Integrate own molecules.
                for i in my.clone() {
                    for d in 0..3 {
                        let f = read_fixed(ctx, v3(FORCE_BASE, i, d));
                        let v: f64 = ctx.read(v3(VEL_BASE, i, d));
                        let x: f64 = ctx.read(v3(POS_BASE, i, d));
                        let v2 = v + 0.001 * f;
                        ctx.write(v3(VEL_BASE, i, d), v2);
                        ctx.write(v3(POS_BASE, i, d), x + 0.001 * v2);
                        ctx.tick(4);
                    }
                }
                barrier.wait(ctx);
            }
        });
        let sig = checksum_f64s(ctx, POS_BASE, m * 3);
        ctx.emit_str(&format!("{label} m={m} sig={sig:016x}\n"));
    })
}

/// `water-nsquared`: a lock around every cross-thread accumulation.
#[must_use]
pub fn root_ns(p: Params) -> ThreadFn {
    body(p, Granularity::PerMolecule, "water-ns")
}

/// `water-spatial`: coarser per-block locks.
#[must_use]
pub fn root_sp(p: Params) -> ThreadFn {
    body(p, Granularity::PerBlock, "water-sp")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_addressing() {
        assert_eq!(v3(POS_BASE, 0, 0), POS_BASE);
        assert_eq!(v3(POS_BASE, 1, 0), POS_BASE + 24);
        assert_eq!(v3(POS_BASE, 0, 2), POS_BASE + 16);
    }

    #[test]
    fn both_variants_build() {
        let _ = root_ns(Params::new(2, Size::Test));
        let _ = root_sp(Params::new(2, Size::Test));
    }
}
