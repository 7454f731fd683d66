//! `pca` — column means and covariance of a data matrix. The mean
//! reduction accumulates into shared per-column cells under per-column
//! locks — the only Phoenix kernel with meaningful lock traffic
//! (Table 1: 816 locks, 32 forks). The cells are fixed-point so the
//! sum is identical under every lock-acquisition order (see
//! `util::to_fixed`); a plain `f64 +=` here made pthreads output flap
//! run-to-run once multiple waves contended per column.

use crate::util::{add_fixed, checksum_f64s, chunk, fork_join, ids, read_fixed};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const MEAN_BASE: Addr = 4096;
const DATA_BASE: Addr = 65536;

const WAVES_MEAN: u64 = 4;
const WAVES_COV: u64 = 4;

fn dims(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (64, 8), // rows, cols
        Size::Bench => (600, 24),
    }
}

/// Builds the pca root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let (rows, cols) = dims(p.size);
        let cov_base = DATA_BASE + rows * cols * 8;
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x33);
        for i in 0..rows * cols {
            ctx.write::<f64>(DATA_BASE + i * 8, rng.next_f64() * 4.0 - 2.0);
        }
        // Phase 1: column sums via per-column locks.
        for w in 0..WAVES_MEAN {
            fork_join(ctx, threads, move |ctx, t| {
                let my_rows = chunk(rows, WAVES_MEAN * threads, w * threads + t);
                let mut local = vec![0.0f64; cols as usize];
                for r in my_rows {
                    for c in 0..cols {
                        let v: f64 = ctx.read(DATA_BASE + (r * cols + c) * 8);
                        local[c as usize] += v;
                        ctx.tick(2);
                    }
                }
                // Fixed-point cells: lock order must not leak
                // into the sum (util::to_fixed).
                for (c, s) in local.iter().enumerate() {
                    let lock = ids::data_mutex(c as u32);
                    ctx.lock(lock);
                    add_fixed(ctx, MEAN_BASE + (c as u64) * 8, *s);
                    ctx.unlock(lock);
                }
            });
        }
        for c in 0..cols {
            let s = read_fixed(ctx, MEAN_BASE + c * 8);
            ctx.write(MEAN_BASE + c * 8, s / rows as f64);
        }
        // Phase 2: covariance, owner-computes per (c1, c2) pair.
        let pairs: u64 = cols * (cols + 1) / 2;
        for w in 0..WAVES_COV {
            fork_join(ctx, threads, move |ctx, t| {
                let my = chunk(pairs, WAVES_COV * threads, w * threads + t);
                for pair in my {
                    // Unrank the (c1 ≤ c2) pair.
                    let mut c1 = 0u64;
                    let mut acc = 0u64;
                    while acc + (cols - c1) <= pair {
                        acc += cols - c1;
                        c1 += 1;
                    }
                    let c2 = c1 + (pair - acc);
                    let m1: f64 = ctx.read(MEAN_BASE + c1 * 8);
                    let m2: f64 = ctx.read(MEAN_BASE + c2 * 8);
                    let mut cov = 0.0f64;
                    for r in 0..rows {
                        let a: f64 = ctx.read(DATA_BASE + (r * cols + c1) * 8);
                        let b: f64 = ctx.read(DATA_BASE + (r * cols + c2) * 8);
                        cov += (a - m1) * (b - m2);
                        ctx.tick(3);
                    }
                    cov /= (rows - 1) as f64;
                    ctx.write(cov_base + (c1 * cols + c2) * 8, cov);
                    ctx.write(cov_base + (c2 * cols + c1) * 8, cov);
                }
            });
        }
        let sig = checksum_f64s(ctx, cov_base, cols * cols);
        ctx.emit_str(&format!("pca rows={rows} cols={cols} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {

    #[test]
    fn pair_unranking_covers_upper_triangle() {
        let cols = 5u64;
        let pairs = cols * (cols + 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for pair in 0..pairs {
            let mut c1 = 0u64;
            let mut acc = 0u64;
            while acc + (cols - c1) <= pair {
                acc += cols - c1;
                c1 += 1;
            }
            let c2 = c1 + (pair - acc);
            assert!(c1 <= c2 && c2 < cols, "pair {pair} -> ({c1},{c2})");
            assert!(seen.insert((c1, c2)));
        }
        assert_eq!(seen.len(), pairs as usize);
    }
}
