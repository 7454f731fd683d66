//! `wordcount` — count word occurrences in a synthetic document. Words
//! are dictionary indices with a skewed distribution; workers count into
//! per-worker tables, main folds. Table 1: zero locks, 60 forks (15
//! waves × 4 threads).

use crate::util::{checksum_u64s, chunk, fork_join};
use crate::{Params, Size};
use rfdet_api::{Addr, DmtCtx, DmtCtxExt, ThreadFn};

const DICT_WORDS: u64 = 128;
const COUNT_BASE: Addr = 4096; // per-slot tables, then the folded table
const TEXT_BASE: Addr = 262144;
const WAVES: u64 = 15;

fn text_len(size: Size) -> u64 {
    match size {
        Size::Test => 4_000,
        Size::Bench => 150_000,
    }
}

fn slot_table(slot: u64) -> Addr {
    COUNT_BASE + slot * DICT_WORDS * 8
}

/// Builds the wordcount root.
#[must_use]
pub fn root(p: Params) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let n = text_len(p.size);
        let threads = p.threads as u64;
        let mut rng = rfdet_api::DetRng::new(p.seed ^ 0x44);
        // Skewed word choice: square the uniform draw.
        for i in 0..n {
            let u = rng.next_f64();
            let w = ((u * u) * DICT_WORDS as f64) as u64 % DICT_WORDS;
            ctx.write::<u32>(TEXT_BASE + i * 4, w as u32);
        }
        let slots = WAVES * threads;
        for w in 0..WAVES {
            fork_join(ctx, threads, move |ctx, t| {
                let slot = w * threads + t;
                let my = chunk(n, slots, slot);
                let mut local = vec![0u64; DICT_WORDS as usize];
                for i in my {
                    let word: u32 = ctx.read(TEXT_BASE + i * 4);
                    local[word as usize] += 1;
                    ctx.tick(1);
                }
                for (word, &c) in local.iter().enumerate() {
                    if c > 0 {
                        ctx.write_idx::<u64>(slot_table(slot), word as u64, c);
                    }
                }
            });
        }
        // Fold into the final table (slot index == slots).
        let final_table = slot_table(slots);
        for word in 0..DICT_WORDS {
            let mut total = 0u64;
            for slot in 0..slots {
                total += ctx.read_idx::<u64>(slot_table(slot), word);
            }
            ctx.write_idx::<u64>(final_table, word, total);
        }
        let total: u64 = (0..DICT_WORDS)
            .map(|wd| ctx.read_idx::<u64>(final_table, wd))
            .sum();
        let sig = checksum_u64s(ctx, final_table, DICT_WORDS);
        ctx.emit_str(&format!("wordcount words={total} sig={sig:016x}\n"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_tables_fit_below_text() {
        // 15 waves × 8 threads + final table must not collide with text.
        assert!(slot_table(15 * 8 + 1) <= TEXT_BASE);
    }
}
