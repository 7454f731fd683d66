//! `string_match` — scan a key database for matches against a fixed set
//! of search keys (modelled as 64-bit fingerprints). Pure fork/join with
//! 8 forks (2 waves), read-dominated — the lightest workload in Table 1.

use crate::util::{chunk, fork_join};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const RESULT_BASE: Addr = 4096;
const DB_BASE: Addr = 65536;
const WAVES: u64 = 2;
const KEYS: [u64; 4] = [0x1111, 0x2222, 0x3333, 0x4444];

fn db_len(size: Size) -> u64 {
    match size {
        Size::Test => 4_000,
        Size::Bench => 200_000,
    }
}

/// Builds the string_match root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = db_len(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x55);
        for i in 0..n {
            // Plant the keys with probability ~1/256 each.
            let r = rng.next_u64();
            let v = if r % 256 < 4 {
                KEYS[(r % 4) as usize]
            } else {
                r
            };
            ctx.write_idx::<u64>(DB_BASE, i, v);
        }
        let slots = WAVES * threads;
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let slot = w * threads + t;
                let my = chunk(n, slots, slot);
                let mut hits = 0u64;
                for i in my {
                    let v: u64 = ctx.read_idx(DB_BASE, i);
                    if KEYS.contains(&v) {
                        hits += 1;
                    }
                    ctx.tick(2);
                }
                ctx.write_idx::<u64>(RESULT_BASE, slot, hits);
            });
        }
        let total: u64 = (0..slots)
            .map(|s| ctx.read_idx::<u64>(RESULT_BASE, s))
            .sum();
        ctx.emit_str(&format!("string_match n={n} hits={total}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct() {
        let set: std::collections::HashSet<_> = KEYS.iter().collect();
        assert_eq!(set.len(), KEYS.len());
    }
}
