//! `blackscholes` — closed-form European option pricing over a
//! portfolio, split across workers; one lock-guarded reduction per wave
//! accounts for the couple dozen locks Table 1 reports.

use crate::util::{add_fixed, chunk, fork_join, ids, read_fixed};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const SUM_CELL: Addr = 4096;
const OPT_BASE: Addr = 16384; // 5 f64 per option: S, K, r, v, T
const WAVES: u64 = 2;

fn option_count(size: Size) -> u64 {
    match size {
        Size::Test => 1_000,
        Size::Bench => 40_000,
    }
}

/// Cumulative normal distribution (Abramowitz–Stegun 26.2.17), the same
/// approximation the PARSEC kernel uses.
fn cndf(x: f64) -> f64 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let pdf = (-x * x / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cnd = 1.0 - pdf * poly;
    if neg {
        1.0 - cnd
    } else {
        cnd
    }
}

fn price(s: f64, k: f64, r: f64, v: f64, t: f64) -> f64 {
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * t.sqrt());
    let d2 = d1 - v * t.sqrt();
    s * cndf(d1) - k * (-r * t).exp() * cndf(d2)
}

/// Builds the blackscholes root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = option_count(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x66);
        for i in 0..n {
            let base = OPT_BASE + i * 40;
            ctx.write::<f64>(base, 20.0 + rng.next_f64() * 80.0); // S
            ctx.write::<f64>(base + 8, 20.0 + rng.next_f64() * 80.0); // K
            ctx.write::<f64>(base + 16, 0.01 + rng.next_f64() * 0.05); // r
            ctx.write::<f64>(base + 24, 0.10 + rng.next_f64() * 0.40); // v
            ctx.write::<f64>(base + 32, 0.25 + rng.next_f64() * 2.0); // T
        }
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let my = chunk(n, WAVES * threads, w * threads + t);
                let mut sum = 0.0f64;
                for i in my {
                    let base = OPT_BASE + i * 40;
                    let s: f64 = ctx.read(base);
                    let k: f64 = ctx.read(base + 8);
                    let r: f64 = ctx.read(base + 16);
                    let v: f64 = ctx.read(base + 24);
                    let t_: f64 = ctx.read(base + 32);
                    sum += price(s, k, r, v, t_);
                    ctx.tick(40);
                }
                // Fixed-point cell: schedule-invariant sum
                // under any reduction order (util::to_fixed).
                ctx.lock(ids::data_mutex(0));
                add_fixed(ctx, SUM_CELL, sum);
                ctx.unlock(ids::data_mutex(0));
            });
        }
        let total = read_fixed(ctx, SUM_CELL);
        ctx.emit_str(&format!("blackscholes n={n} sum={total:.6}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cndf_is_a_cdf() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-6);
        assert!(cndf(5.0) > 0.999);
        assert!(cndf(-5.0) < 0.001);
        assert!(cndf(1.0) > cndf(0.5));
    }

    #[test]
    fn call_price_sane() {
        // Deep in-the-money call ≈ S - K·e^{-rT}.
        let p = price(100.0, 50.0, 0.05, 0.2, 1.0);
        let intrinsic = 100.0 - 50.0 * (-0.05f64).exp();
        assert!((p - intrinsic).abs() < 0.5, "p={p} intrinsic={intrinsic}");
        // Option value is positive and below spot.
        let q = price(100.0, 100.0, 0.02, 0.3, 1.0);
        assert!(q > 0.0 && q < 100.0);
    }
}
