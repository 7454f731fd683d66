//! `linear_regression` — least-squares fit over a big point array.
//! Pure fork/join: each wave of workers reduces a slice into disjoint
//! partial-sum slots; main folds. Table 1: zero locks, 16 forks (4
//! waves × 4 threads), tiny footprint for pthreads but the highest
//! *relative* memory overhead under RFDet (§5.4 discusses why: no
//! synchronization means slices are never propagated or collected).

use crate::util::{chunk, fork_join};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const POINTS_BASE: Addr = 65536; // (x, y) f64 pairs
const PARTIAL_BASE: Addr = 4096; // 5 sums per worker slot

const WAVES: u64 = 4;

fn point_count(size: Size) -> u64 {
    match size {
        Size::Test => 2_000,
        Size::Bench => 120_000,
    }
}

fn partial(slot: u64, k: u64) -> Addr {
    PARTIAL_BASE + (slot * 5 + k) * 8
}

/// Builds the linear_regression root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = point_count(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x11);
        // y ≈ 3x + 7 with noise.
        for i in 0..n {
            let x = rng.next_f64() * 100.0;
            let y = 3.0 * x + 7.0 + (rng.next_f64() - 0.5);
            ctx.write::<f64>(POINTS_BASE + i * 16, x);
            ctx.write::<f64>(POINTS_BASE + i * 16 + 8, y);
        }
        // Waves of workers: wave w, worker t reduces chunk (w*T + t).
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let slice = chunk(n, WAVES * threads, w * threads + t);
                let (mut sx, mut sy, mut sxx, mut syy, mut sxy) =
                    (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for i in slice {
                    let x: f64 = ctx.read(POINTS_BASE + i * 16);
                    let y: f64 = ctx.read(POINTS_BASE + i * 16 + 8);
                    sx += x;
                    sy += y;
                    sxx += x * x;
                    syy += y * y;
                    sxy += x * y;
                    ctx.tick(5);
                }
                let slot = w * threads + t;
                for (k, v) in [sx, sy, sxx, syy, sxy].into_iter().enumerate() {
                    ctx.write(partial(slot, k as u64), v);
                }
            });
        }
        let mut sums = [0.0f64; 5];
        for slot in 0..WAVES * threads {
            for (k, s) in sums.iter_mut().enumerate() {
                let v: f64 = ctx.read(partial(slot, k as u64));
                *s += v;
            }
        }
        let nf = n as f64;
        let slope = (nf * sums[4] - sums[0] * sums[1]) / (nf * sums[2] - sums[0] * sums[0]);
        let intercept = (sums[1] - slope * sums[0]) / nf;
        ctx.emit_str(&format!(
            "linear_regression n={n} slope={slope:.4} intercept={intercept:.4}\n"
        ));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_slots_are_disjoint() {
        assert_eq!(partial(0, 4) + 8, partial(1, 0));
    }

    #[test]
    fn sizes_scale() {
        assert!(point_count(Size::Test) < point_count(Size::Bench));
    }
}
