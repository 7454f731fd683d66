//! The seeded-race corpus: eight small programs that each contain one
//! deliberately planted data race, paired with a *clean twin* that fixes
//! the race with real synchronization and must report zero races.
//!
//! Every variant is built so its race reports are **backend-invariant**:
//!
//! * exactly two racy participants per word — with three or more, which
//!   pair gets recorded first depends on observation order, which
//!   differs between DLRC propagation and lockstep token order;
//! * when both participants mix reads and writes on the same word (the
//!   counter, lazy-init), the participants are synchronization-free
//!   siblings, whose slices reach the detector in thread-id order on
//!   every deterministic backend (join order for DLRC, token order for
//!   the lockstep engine); single-combination races (pure write/write,
//!   or one writer and one reader) are observation-order-independent
//!   because reports are canonicalized;
//! * every racy write stores a value that differs from current memory —
//!   byte diffing is the write oracle, and a silent store produces no
//!   diff to check;
//! * racy reads are one-shot peeks, never spin loops — DLRC never
//!   propagates a spin-awaited write, so a spin would hang the run;
//! * per-worker tick counts stay far below the default quantum, so
//!   CoreDet-q never splits an interval (a quantum break would seal an
//!   interval at a smaller sync-op count than the other backends).
//!
//! Workers are always spawned and joined in thread-id order, and the
//! `mask` parameter disables workers *without unspawning them* — tids
//! and sync-op counts of the survivors are unchanged, so a race digest
//! found with all workers enabled is still the digest the minimized
//! reproducer reports. `replay races` ddmin-shrinks over this mask.

use crate::util::fork;
use crate::{Params, Suite, Workload};
use rfdet_api::{BarrierId, DmtCtx, DmtCtxExt, MutexId, ThreadFn};

/// First byte of the corpus's raced-on region (page 1 by default).
const BASE: u64 = 4096;

/// All-workers-enabled mask.
const ALL: u64 = u64::MAX;

fn on(mask: u64, t: u64) -> bool {
    mask & (1 << (t & 63)) != 0
}

/// A nonzero, per-worker, seed-derived value — never equal to current
/// (zeroed or differently-seeded) memory, so every store survives the
/// byte diff.
fn val(seed: u64, t: u64, salt: u64) -> u64 {
    seed.wrapping_mul(2 * t + 3)
        .wrapping_add(salt << 7)
        .wrapping_add(0x9E37_79B9)
        | 1
}

/// Forks `threads` workers (a masked-off one runs nothing), runs `peek`
/// on main before any join, joins, then emits a checksum of the
/// raced-on region (read after every join, so the checksum reads are
/// ordered with everything).
fn scaffold(
    p: Params,
    mask: u64,
    words: u64,
    body: impl FnOnce(&mut dyn DmtCtx, u64) + Clone + Send + 'static,
    peek: impl Fn(&mut dyn DmtCtx) + Send + 'static,
) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let workers = fork(ctx, p.threads as u64, move |ctx, t| {
            if on(mask, t) {
                body(ctx, t);
            }
        });
        peek(ctx);
        for h in workers {
            ctx.join(h);
        }
        let sig = crate::util::checksum_u64s(ctx, BASE, words);
        ctx.emit_str(&format!("races signature: {sig:016x}\n"));
    })
}

fn no_peek(_: &mut dyn DmtCtx) {}

/// `counter` — the classic unsynchronized shared counter: each worker
/// pair read-modify-writes one word with no synchronization at all.
/// One report per pair (the survivors' slices arrive in tid order, so
/// the recorded conflict is the lower tid's write against the higher
/// tid's read on every backend). The clean twin locks the pair's mutex.
fn counter(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        (p.threads as u64).div_ceil(2),
        move |ctx, t| {
            let pair = t / 2;
            let w = BASE + 8 * pair;
            let bump = val(seed, t, 1);
            if racy {
                let v: u64 = ctx.read(w);
                ctx.write(w, v.wrapping_add(bump));
            } else {
                let m = MutexId(pair as u32);
                ctx.lock(m);
                let v: u64 = ctx.read(w);
                ctx.write(w, v.wrapping_add(bump));
                ctx.unlock(m);
            }
        },
        no_peek,
    )
}

/// `handoff` — a racy flag handoff: the even worker of each pair writes
/// a data word then raises a flag; the odd worker peeks the flag once
/// and reads the data unconditionally. Two reports per pair (flag and
/// data, each writer-vs-reader). The clean twin does both sides under
/// the pair's mutex.
fn handoff(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        2 * (p.threads as u64).div_ceil(2),
        move |ctx, t| {
            let pair = t / 2;
            let data = BASE + 16 * pair;
            let flag = data + 8;
            let m = MutexId(pair as u32);
            if !racy {
                ctx.lock(m);
            }
            if t % 2 == 0 {
                ctx.write(data, val(seed, t, 2));
                ctx.write(flag, 1u64);
            } else {
                let _f: u64 = ctx.read(flag);
                let _d: u64 = ctx.read(data);
            }
            if !racy {
                ctx.unlock(m);
            }
        },
        no_peek,
    )
}

/// `lazy_init` — racy double-checked initialization: both workers of a
/// pair peek the init word, see it unset, and both initialize it plus a
/// value word. Two reports per pair (init word and value word). The
/// clean twin does the check-and-set under a mutex.
fn lazy_init(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        2 * (p.threads as u64).div_ceil(2),
        move |ctx, t| {
            let pair = t / 2;
            let init = BASE + 16 * pair;
            let value = init + 8;
            let m = MutexId(pair as u32);
            if !racy {
                ctx.lock(m);
            }
            let seen: u64 = ctx.read(init);
            if seen == 0 {
                ctx.write(value, val(seed, t, 3));
                ctx.write(init, 1u64);
            }
            if !racy {
                ctx.unlock(m);
            }
        },
        no_peek,
    )
}

/// `barrier_miss` — an off-by-one barrier: each worker writes its own
/// word, crosses a barrier, then reads its neighbour's word. In the
/// racy variant worker 0 skips the barrier (and the others' barrier
/// only counts themselves), so exactly two edges are missing: worker
/// 0's read of word 1, and the last worker's read of word 0. Two
/// reports at any thread count.
fn barrier_miss(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    let n = p.threads as u64;
    // Barrier parties = the enabled workers that will actually arrive;
    // computed from the mask so a shrunk run still releases the wall.
    let parties = (0..n).filter(|&t| on(mask, t) && (!racy || t != 0)).count();
    scaffold(
        p,
        mask,
        n,
        move |ctx, t| {
            ctx.write(BASE + 8 * t, val(seed, t, 4));
            if (!racy || t != 0) && parties > 0 {
                ctx.barrier(BarrierId(0), parties);
            }
            let _peek: u64 = ctx.read(BASE + 8 * ((t + 1) % n));
        },
        no_peek,
    )
}

/// `torn_write` — a torn two-word write: both workers of a pair store a
/// 16-byte "struct" (two adjacent words) with no synchronization. Two
/// write/write reports per pair; single-combination, so observation
/// order never matters. The clean twin stores under the pair's mutex.
fn torn_write(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        2 * (p.threads as u64).div_ceil(2),
        move |ctx, t| {
            let pair = t / 2;
            let lo = BASE + 16 * pair;
            let v = val(seed, t, 5);
            let m = MutexId(pair as u32);
            if !racy {
                ctx.lock(m);
            }
            ctx.write(lo, v);
            ctx.write(lo + 8, v ^ 0xFFFF);
            if !racy {
                ctx.unlock(m);
            }
        },
        no_peek,
    )
}

/// `mailbox_peek` — a racy mailbox peek: the producer fills a slot and
/// bumps the count under the pair's mutex; the consumer first *peeks*
/// the count without the lock, then re-reads it properly inside the
/// lock. One report per pair: the producer's locked count write against
/// the consumer's unlocked peek. The clean twin peeks under the lock.
fn mailbox_peek(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        2 * (p.threads as u64).div_ceil(2),
        move |ctx, t| {
            let pair = t / 2;
            let slot = BASE + 16 * pair;
            let count = slot + 8;
            let m = MutexId(pair as u32);
            if t % 2 == 0 {
                ctx.lock(m);
                ctx.write(slot, val(seed, t, 6));
                ctx.write(count, 1u64);
                ctx.unlock(m);
            } else {
                if !racy {
                    ctx.lock(m);
                }
                let _peek: u64 = ctx.read(count);
                if racy {
                    ctx.lock(m);
                }
                let _s: u64 = ctx.read(slot);
                let _c: u64 = ctx.read(count);
                ctx.unlock(m);
            }
        },
        no_peek,
    )
}

/// `shard_overlap` — an off-by-one shard split: each worker fills a
/// four-word shard, but the racy variant's bounds overlap each shard's
/// first word with its left neighbour's last. One write/write report
/// per adjacent worker pair (`threads - 1` total).
fn shard_overlap(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    const SHARD: u64 = 4;
    scaffold(
        p,
        mask,
        SHARD * p.threads as u64,
        move |ctx, t| {
            let start = if racy && t > 0 {
                SHARD * t - 1 // overlaps the left neighbour's last word
            } else {
                SHARD * t
            };
            for i in start..SHARD * (t + 1) {
                ctx.write(BASE + 8 * i, val(seed, t, 7 + i));
            }
        },
        no_peek,
    )
}

/// `result_peek` — harvesting a result before joining: each worker
/// writes its result word; the racy main peeks worker 0's result
/// *before* any join. One report (main's read vs worker 0's write),
/// and a 1-minimal reproducer of a single worker.
fn result_peek(p: Params, mask: u64, racy: bool) -> ThreadFn {
    let seed = p.seed;
    scaffold(
        p,
        mask,
        p.threads as u64,
        move |ctx, t| ctx.write(BASE + 8 * t, val(seed, t, 20)),
        move |ctx| {
            if racy {
                let _early: u64 = ctx.read(BASE);
            }
        },
    )
}

/// One corpus variant: its racy program and clean twin as registry
/// rows, the builder both come from (`racy` picks which; `mask` enables
/// workers), and how many race reports the racy program must produce at
/// `threads` workers with every worker enabled — the corpus's ground
/// truth. Clean twins must produce none.
struct Variant {
    racy: Workload,
    clean: Workload,
    build: fn(p: Params, mask: u64, racy: bool) -> ThreadFn,
    races: fn(threads: usize) -> usize,
}

/// Writes each variant's name once: `races.<builder>` is the racy
/// program, `races.<builder>_clean` its twin.
macro_rules! variants {
    ($($build:ident: $races:expr,)*) => {
        const VARIANTS: &[Variant] = &[$(Variant {
            racy: Workload {
                name: concat!("races.", stringify!($build)),
                suite: Suite::Races,
                factory: |p| $build(p, ALL, true),
            },
            clean: Workload {
                name: concat!("races.", stringify!($build), "_clean"),
                suite: Suite::Races,
                factory: |p| $build(p, ALL, false),
            },
            build: $build,
            races: $races,
        }),*];
    };
}

variants! {
    counter: |t| t / 2,
    handoff: |t| 2 * (t / 2),
    lazy_init: |t| 2 * (t / 2),
    barrier_miss: |_| 2,
    torn_write: |t| 2 * (t / 2),
    mailbox_peek: |t| t / 2,
    shard_overlap: |t| t.saturating_sub(1),
    result_peek: |_| 1,
}

/// The corpus's registry rows: each racy variant, then its clean twin.
pub(crate) fn entries() -> impl Iterator<Item = Workload> {
    VARIANTS.iter().flat_map(|v| [v.racy, v.clean])
}

/// The full corpus: eight racy variants interleaved with their clean
/// twins (`*_clean` suffix).
#[must_use]
pub fn corpus() -> Vec<Workload> {
    crate::view(&[Suite::Races])
}

/// The variant `name` belongs to, and whether it is the racy program.
fn variant(name: &str) -> Option<(&'static Variant, bool)> {
    VARIANTS.iter().find_map(|v| {
        let racy = v.racy.name == name;
        (racy || v.clean.name == name).then_some((v, racy))
    })
}

/// Builds a corpus workload with an explicit worker-enable `mask`
/// (bit `t` enables worker `t`) — the shrink axis `replay races` runs
/// ddmin over. `mask == u64::MAX` reproduces the registry entry.
#[must_use]
pub fn root_masked(name: &str, p: Params, mask: u64) -> Option<ThreadFn> {
    variant(name).map(|(v, racy)| (v.build)(p, mask, racy))
}

/// How many race reports variant `name` must produce at `threads`
/// workers with every worker enabled. Clean twins are always zero.
#[must_use]
pub fn expected_races(name: &str, threads: usize) -> Option<usize> {
    variant(name).map(|(v, racy)| if racy { (v.races)(threads) } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Size;

    #[test]
    fn corpus_is_racy_clean_pairs() {
        let c = corpus();
        assert_eq!(c.len(), 16, "eight variants, eight clean twins");
        for pair in c.chunks(2) {
            assert_eq!(format!("{}_clean", pair[0].name), pair[1].name);
            assert_eq!(
                expected_races(pair[1].name, 4),
                Some(0),
                "clean twins must expect zero races"
            );
            assert!(
                expected_races(pair[0].name, 4).unwrap() > 0,
                "racy variants must expect at least one race"
            );
        }
    }

    #[test]
    fn masked_roots_cover_the_corpus() {
        for w in corpus() {
            assert!(
                root_masked(w.name, Params::new(4, Size::Test), u64::MAX).is_some(),
                "no masked builder for {}",
                w.name
            );
        }
        assert!(root_masked("races.nonesuch", Params::new(4, Size::Test), 0).is_none());
    }

    #[test]
    fn factories_build_at_every_oracle_thread_count() {
        for w in corpus() {
            for t in [2usize, 4, 8] {
                let _ = (w.factory)(Params::new(t, Size::Test));
            }
        }
    }
}
