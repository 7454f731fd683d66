//! `matrix_multiply` — C = A·B with row-band ownership, forked in
//! waves. Table 1: zero locks, load-dominated (A and B are read n times
//! each, C written once).

use crate::util::{checksum_f64s, chunk, fork_join};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const A_BASE: Addr = 16384;
const WAVES: u64 = 4;

fn n_of(size: Size) -> u64 {
    match size {
        Size::Test => 16,
        Size::Bench => 56,
    }
}

/// Builds the matrix_multiply root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = n_of(p.size);
        let b_base = A_BASE + n * n * 8;
        let c_base = b_base + n * n * 8;
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x22);
        for i in 0..n * n {
            ctx.write::<f64>(A_BASE + i * 8, rng.next_f64());
            ctx.write::<f64>(b_base + i * 8, rng.next_f64());
        }
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let rows = chunk(n, WAVES * threads, w * threads + t);
                for r in rows {
                    for c in 0..n {
                        let mut acc = 0.0f64;
                        for k in 0..n {
                            let a: f64 = ctx.read(A_BASE + (r * n + k) * 8);
                            let b: f64 = ctx.read(b_base + (k * n + c) * 8);
                            acc += a * b;
                        }
                        ctx.write(c_base + (r * n + c) * 8, acc);
                        ctx.tick(2 * n);
                    }
                }
            });
        }
        let sig = checksum_f64s(ctx, c_base, n * n);
        ctx.emit_str(&format!("matrix_multiply n={n} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_is_bigger() {
        assert!(n_of(Size::Test) < n_of(Size::Bench));
    }
}
