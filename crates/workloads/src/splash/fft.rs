//! `fft` — iterative radix-2 complex FFT, work split by butterfly range,
//! lock-barrier between stages. Matches the SPLASH-2 `fft` profile:
//! very few synchronization operations, store-heavy, large footprint
//! relative to the other kernels (Table 1 row 4).

use crate::util::{checksum_f64s, chunk, fork_join, ids, LockBarrier};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const BARRIER_BASE: Addr = 4096;
const DATA_BASE: Addr = 16384; // interleaved re,im pairs

fn points(size: Size) -> u64 {
    match size {
        Size::Test => 256,
        Size::Bench => 8192,
    }
}

fn re(i: u64) -> Addr {
    DATA_BASE + i * 16
}
fn im(i: u64) -> Addr {
    DATA_BASE + i * 16 + 8
}

/// Builds the fft root (forward transform then checksum of the
/// spectrum).
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = points(p.size);
        let threads = p.threads as u64;
        let stages = n.trailing_zeros() as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0xFF7);
        // Bit-reversed input load (standard iterative FFT layout).
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (64 - bits);
            let v = rng.next_f64() - 0.5;
            ctx.write::<f64>(re(j), v);
            ctx.write::<f64>(im(j), 0.0);
        }
        let barrier = LockBarrier::new(
            BARRIER_BASE,
            ids::barrier_mutex(0),
            ids::barrier_cond(0),
            threads,
        );
        fork_join(ctx, threads, move |ctx, t| {
            for s in 1..=stages {
                let half = 1u64 << (s - 1);
                let full = 1u64 << s;
                let groups = n / full;
                // Each thread owns a contiguous range of groups.
                let mine = chunk(groups, threads, t);
                for g in mine {
                    let base = g * full;
                    for k in 0..half {
                        let ang = -2.0 * std::f64::consts::PI * (k as f64) / (full as f64);
                        let (wr, wi) = (ang.cos(), ang.sin());
                        let a = base + k;
                        let b = base + k + half;
                        let ar: f64 = ctx.read(re(a));
                        let ai: f64 = ctx.read(im(a));
                        let br: f64 = ctx.read(re(b));
                        let bi: f64 = ctx.read(im(b));
                        let tr = br * wr - bi * wi;
                        let ti = br * wi + bi * wr;
                        ctx.write(re(a), ar + tr);
                        ctx.write(im(a), ai + ti);
                        ctx.write(re(b), ar - tr);
                        ctx.write(im(b), ai - ti);
                        ctx.tick(12);
                    }
                }
                barrier.wait(ctx);
            }
        });
        let sig = checksum_f64s(ctx, DATA_BASE, n * 2);
        ctx.emit_str(&format!("fft n={n} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_powers_of_two() {
        assert!(points(Size::Test).is_power_of_two());
        assert!(points(Size::Bench).is_power_of_two());
    }

    #[test]
    fn interleaved_layout() {
        assert_eq!(re(0), DATA_BASE);
        assert_eq!(im(0), DATA_BASE + 8);
        assert_eq!(re(1), DATA_BASE + 16);
    }
}
