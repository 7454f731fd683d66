//! `ocean` — red-black successive-over-relaxation on a square grid,
//! the synchronization shape of SPLASH-2 `ocean`: threads own row bands,
//! two lock-barriers per timestep (red sweep, black sweep) plus a
//! lock-guarded global-residual reduction. This gives the profile Table 1
//! reports: ~a thousand locks, hundreds of waits, moderate footprint.

use crate::util::{add_fixed, checksum_f64s, chunk, fork_join, ids, read_fixed, LockBarrier};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const GRID_BASE: Addr = 8192;
const BARRIER_BASE: Addr = 4096;
const RESIDUAL: Addr = 4200;
const RESIDUAL_LOCK: u32 = 0;

fn dims(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (18, 4), // n×n grid, timesteps
        Size::Bench => (66, 40),
    }
}

fn cell(n: u64, r: u64, c: u64) -> Addr {
    GRID_BASE + (r * n + c) * 8
}

/// Builds the ocean root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let (n, steps) = dims(p.size);
        let threads = p.threads as u64;
        // Deterministic initial field with fixed boundary values.
        let mut rng = rfdet_api::DetRng::new(p.seed);
        for r in 0..n {
            for c in 0..n {
                let v = if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
                    1.0
                } else {
                    rng.next_f64()
                };
                ctx.write::<f64>(cell(n, r, c), v);
            }
        }
        let barrier = LockBarrier::new(
            BARRIER_BASE,
            ids::barrier_mutex(0),
            ids::barrier_cond(0),
            threads,
        );
        fork_join(ctx, threads, move |ctx, t| {
            let rows = chunk(n - 2, threads, t);
            for _ in 0..steps {
                // Red then black sweep, barrier after each so
                // every thread reads a consistent neighbourhood.
                for colour in 0..2u64 {
                    let mut local_residual = 0.0f64;
                    for r in rows.clone() {
                        let r = r + 1;
                        for c in 1..n - 1 {
                            if (r + c) % 2 != colour {
                                continue;
                            }
                            let up: f64 = ctx.read(cell(n, r - 1, c));
                            let down: f64 = ctx.read(cell(n, r + 1, c));
                            let left: f64 = ctx.read(cell(n, r, c - 1));
                            let right: f64 = ctx.read(cell(n, r, c + 1));
                            let old: f64 = ctx.read(cell(n, r, c));
                            let new = old + 0.8 * ((up + down + left + right) / 4.0 - old);
                            ctx.write(cell(n, r, c), new);
                            local_residual += (new - old).abs();
                            ctx.tick(4);
                        }
                    }
                    // Lock-guarded reduction of the residual
                    // into a fixed-point cell, so the total is
                    // the same under every reduction order
                    // (util::to_fixed).
                    ctx.lock(ids::data_mutex(RESIDUAL_LOCK));
                    add_fixed(ctx, RESIDUAL, local_residual);
                    ctx.unlock(ids::data_mutex(RESIDUAL_LOCK));
                    barrier.wait(ctx);
                }
            }
        });
        let sig = checksum_f64s(ctx, GRID_BASE, n * n);
        let res = read_fixed(ctx, RESIDUAL);
        ctx.emit_str(&format!("ocean n={n} residual={res:.6} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_scale_with_size() {
        let (tn, _) = dims(Size::Test);
        let (bn, _) = dims(Size::Bench);
        assert!(tn < bn);
    }

    #[test]
    fn cell_addressing_is_row_major() {
        assert_eq!(cell(4, 0, 0), GRID_BASE);
        assert_eq!(cell(4, 0, 1), GRID_BASE + 8);
        assert_eq!(cell(4, 1, 0), GRID_BASE + 32);
    }
}
