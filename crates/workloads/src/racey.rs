//! *racey* — the deterministic-execution stress test (Hill & Xu),
//! paper §5.1.
//!
//! The program is data races all the way down: every thread repeatedly
//! reads two pseudo-randomly chosen cells of a shared signature array and
//! writes a mix back to a third, with **no synchronization at all**
//! between start and join. On a conventional runtime the final signature
//! varies run to run; under strong determinism it must be bit-identical
//! across runs (the paper verifies 1000 runs × {2,4,8} threads).

use crate::util::fork_join;
use crate::{Params, Size};
use rfdet_api::{DmtCtx, DmtCtxExt, ThreadFn};

const SIG_WORDS: u64 = 64;
const SIG_BASE: u64 = 4096;

fn mix(a: u64, b: u64) -> u64 {
    a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(b ^ 0xDEAD_BEEF_CAFE_F00D)
}

/// Builds the racey root for the given parameters.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let iters: u64 = match p.size {
            Size::Test => 300,
            Size::Bench => 20_000,
        };
        // Seed the signature array.
        for i in 0..SIG_WORDS {
            ctx.write_idx::<u64>(
                SIG_BASE,
                i,
                p.seed.wrapping_add(i.wrapping_mul(0x1234_5678_9ABC_DEF1)),
            );
        }
        fork_join(ctx, p.threads as u64, move |ctx, t| {
            // Each thread's index walk is deterministic, but the
            // *interleaving* with other threads is not — unless the
            // runtime makes it so.
            let mut x = t.wrapping_mul(0x0123_4567_89AB_CDEF) | 1;
            for _ in 0..iters {
                x = mix(x, t);
                let i = x % SIG_WORDS;
                let j = (x >> 8) % SIG_WORDS;
                let k = (x >> 16) % SIG_WORDS;
                let a: u64 = ctx.read_idx(SIG_BASE, i);
                let b: u64 = ctx.read_idx(SIG_BASE, j);
                ctx.write_idx::<u64>(SIG_BASE, k, mix(a, b));
                ctx.tick(3);
            }
        });
        let sig = crate::util::checksum_u64s(ctx, SIG_BASE, SIG_WORDS);
        ctx.emit_str(&format!("racey signature: {sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    #[test]
    fn mix_is_a_pure_function() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    #[test]
    fn factory_builds_for_all_thread_counts() {
        for t in [2usize, 4, 8] {
            let _ = root(Params::new(t, Size::Test));
        }
    }
}
