//! `radix` — parallel LSD radix sort: per-thread histogram, shared
//! prefix computation, scatter. Lock-barriers separate the phases; the
//! modest lock count matches Table 1 row 5.

use crate::util::{checksum_u64s, chunk, fork_join, ids, LockBarrier};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const BARRIER_BASE: Addr = 4096;
const HIST_BASE: Addr = 8192; // per-thread histograms [t][bucket]
const OFFSET_BASE: Addr = 40960; // scatter offsets [t][bucket]
const KEYS_A: Addr = 131072;

const RADIX_BITS: u64 = 8;
const BUCKETS: u64 = 1 << RADIX_BITS;

fn key_count(size: Size) -> u64 {
    match size {
        Size::Test => 1024,
        Size::Bench => 24576,
    }
}

fn hist(t: u64, b: u64) -> Addr {
    HIST_BASE + (t * BUCKETS + b) * 8
}
fn offset(t: u64, b: u64) -> Addr {
    OFFSET_BASE + (t * BUCKETS + b) * 8
}

/// Builds the radix root. Sorts 32-bit values in four 8-bit passes
/// between two ping-pong arrays, then verifies order and checksums.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = key_count(p.size);
        let threads = p.threads as u64;
        let keys_b: Addr = KEYS_A + n * 8;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x2AD1);
        for i in 0..n {
            ctx.write_idx::<u64>(KEYS_A, i, rng.next_u64() & 0xFFFF_FFFF);
        }
        let barrier = LockBarrier::new(
            BARRIER_BASE,
            ids::barrier_mutex(0),
            ids::barrier_cond(0),
            threads,
        );
        fork_join(ctx, threads, move |ctx, t| {
            let my = chunk(n, threads, t);
            for pass in 0..4u64 {
                let (src, dst) = if pass % 2 == 0 {
                    (KEYS_A, keys_b)
                } else {
                    (keys_b, KEYS_A)
                };
                let shift = pass * RADIX_BITS;
                // Local histogram.
                let mut local = vec![0u64; BUCKETS as usize];
                for i in my.clone() {
                    let k: u64 = ctx.read_idx(src, i);
                    local[((k >> shift) & (BUCKETS - 1)) as usize] += 1;
                    ctx.tick(1);
                }
                for (b, &c) in local.iter().enumerate() {
                    ctx.write(hist(t, b as u64), c);
                }
                barrier.wait(ctx);
                // Thread 0 computes global scatter offsets:
                // bucket-major, then thread order within bucket.
                if t == 0 {
                    let mut cursor = 0u64;
                    for b in 0..BUCKETS {
                        for u in 0..threads {
                            let c: u64 = ctx.read(hist(u, b));
                            ctx.write(offset(u, b), cursor);
                            cursor += c;
                        }
                    }
                }
                barrier.wait(ctx);
                // Scatter into disjoint destination ranges.
                let mut cursors = vec![0u64; BUCKETS as usize];
                for (b, c) in cursors.iter_mut().enumerate() {
                    *c = ctx.read(offset(t, b as u64));
                }
                for i in my.clone() {
                    let k: u64 = ctx.read_idx(src, i);
                    let b = ((k >> shift) & (BUCKETS - 1)) as usize;
                    ctx.write_idx::<u64>(dst, cursors[b], k);
                    cursors[b] += 1;
                    ctx.tick(2);
                }
                barrier.wait(ctx);
            }
        });
        // Four passes: the result is back in KEYS_A.
        let mut prev: u64 = 0;
        let mut sorted = true;
        for i in 0..n {
            let k: u64 = ctx.read_idx(KEYS_A, i);
            if k < prev {
                sorted = false;
            }
            prev = k;
        }
        let sig = checksum_u64s(ctx, KEYS_A, n);
        ctx.emit_str(&format!("radix n={n} sorted={sorted} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_layout_is_disjoint_per_thread() {
        assert_eq!(hist(0, 0), HIST_BASE);
        assert_eq!(hist(1, 0), HIST_BASE + BUCKETS * 8);
        assert!(hist(3, BUCKETS - 1) < OFFSET_BASE);
    }

    #[test]
    fn offsets_fit_before_keys() {
        assert!(offset(15, BUCKETS - 1) < KEYS_A);
    }
}
