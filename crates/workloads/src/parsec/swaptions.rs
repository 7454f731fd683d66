//! `swaptions` — Monte-Carlo swaption pricing (HJM-flavoured): heavy
//! floating-point compute per item, almost no synchronization. Store
//! traffic is high relative to sync traffic, matching Table 1 row 14.

use crate::util::{checksum_f64s, chunk, fork_join, ids};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const PRICE_BASE: Addr = 4096;
const SWAPTION_BASE: Addr = 65536; // 3 f64 per swaption: strike, vol, maturity
const WAVES: u64 = 2;

fn counts(size: Size) -> (u64, u64) {
    match size {
        Size::Test => (16, 32), // swaptions, paths
        Size::Bench => (64, 400),
    }
}

/// One simulated forward-rate path payoff (toy HJM: lognormal short
/// rate, payoff = positive part of terminal swap value).
fn simulate(strike: f64, vol: f64, maturity: f64, rng: &mut rfdet_api::DetRng) -> f64 {
    let steps = 16;
    let dt = maturity / steps as f64;
    let mut rate = 0.04f64;
    for _ in 0..steps {
        // Box-Muller normal draw.
        let u1 = rng.next_f64().max(1e-12);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        rate *= (vol * z * dt.sqrt() - 0.5 * vol * vol * dt).exp();
    }
    (rate - strike).max(0.0) * 100.0
}

/// Builds the swaptions root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let (n, paths) = counts(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x88);
        for i in 0..n {
            let base = SWAPTION_BASE + i * 24;
            ctx.write::<f64>(base, 0.02 + rng.next_f64() * 0.06); // strike
            ctx.write::<f64>(base + 8, 0.1 + rng.next_f64() * 0.3); // vol
            ctx.write::<f64>(base + 16, 1.0 + rng.next_f64() * 9.0); // maturity
        }
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let my = chunk(n, WAVES * threads, w * threads + t);
                for i in my {
                    let base = SWAPTION_BASE + i * 24;
                    let strike: f64 = ctx.read(base);
                    let vol: f64 = ctx.read(base + 8);
                    let maturity: f64 = ctx.read(base + 16);
                    // Per-swaption RNG: the price is independent
                    // of which thread computes it.
                    let mut prng = rfdet_api::DetRng::new(0xABCD ^ i);
                    let mut sum = 0.0f64;
                    for _ in 0..paths {
                        sum += simulate(strike, vol, maturity, &mut prng);
                        ctx.tick(60);
                    }
                    ctx.write_idx::<f64>(PRICE_BASE, i, sum / paths as f64);
                }
            });
        }
        // Tiny lock-guarded epilogue (the original aggregates results).
        ctx.lock(ids::data_mutex(0));
        let sig = checksum_f64s(ctx, PRICE_BASE, n);
        ctx.unlock(ids::data_mutex(0));
        ctx.emit_str(&format!("swaptions n={n} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payoff_is_nonnegative() {
        let mut rng = rfdet_api::DetRng::new(1);
        for _ in 0..100 {
            assert!(simulate(0.04, 0.2, 5.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let mut a = rfdet_api::DetRng::new(9);
        let mut b = rfdet_api::DetRng::new(9);
        assert_eq!(
            simulate(0.03, 0.25, 2.0, &mut a).to_bits(),
            simulate(0.03, 0.25, 2.0, &mut b).to_bits()
        );
    }
}
