//! `service.*`: a striped in-memory ledger service (DESIGN.md §4.12).
//!
//! The promotion of `examples/replicated_ledger.rs` into a real
//! workload: `threads` workers *plus the main thread* each own one
//! account stripe via deterministic lock striping and ingest a
//! DetRng-derived request stream — point gets, puts, cross-shard
//! transfers, and range scans — in barrier-delimited rounds. Every
//! round ends in a full-membership barrier episode, so the core
//! backend's checkpointing cuts cleanly through the stream, and the
//! body is written in the `chaos.long_haul` tick-parity style (all
//! control state in deterministic memory, spawn gate free when not
//! taken) so the identical closure serves as fresh root, spawned
//! worker, and the body every restored thread resumes on.
//!
//! Cross-stripe traffic is asynchronous: a transfer debits the source
//! stripe synchronously and delivers the credit through the owner's
//! bounded mailbox queue. A full mailbox triggers the deterministic
//! [`RetryPolicy`] — bounded retries with logical-clock backoff, then
//! a deterministic shed counted in [`rfdet_api::Stats`] — so the
//! digest stays a pure function of the input even under overload.
//! Money is conserved by construction: the final report checks
//! `balances + undelivered credits == initial + puts - shed`.

use crate::{Params, Size, Suite, Workload};
use rfdet_api::{
    BarrierId, DetRng, DmtCtx, DmtCtxExt, MutexId, RetryPolicy, ThreadFn, ThreadHandle,
};

/// Per-thread round counter: one 64-byte slot per tid, owner-written.
const SV_CELL_BASE: u64 = 0x1000;
const SV_CELL_STRIDE: u64 = 0x40;
/// Per-thread counter block (checksum, retries, shed, put/shed sums),
/// owner-written, read by main in the final report.
const SV_CTR_BASE: u64 = 0x2000;
const SV_CTR_STRIDE: u64 = 0x40;
const CTR_CHECKSUM: u64 = 0;
const CTR_RETRIES: u64 = 8;
const CTR_SHED: u64 = 16;
const CTR_PUT_SUM: u64 = 24;
const CTR_SHED_SUM: u64 = 32;
/// Account stripes: one page per stripe, 64 u64 balances each.
const SV_ACCT_BASE: u64 = 0x1_0000;
const SV_STRIPE_STRIDE: u64 = 0x1000;
/// Accounts per stripe (stripe of account `a` is `a / 64`).
pub const ACCTS_PER_STRIPE: u64 = 64;
/// Credit mailboxes: one page per stripe — a depth word followed by
/// packed `(account << 32) | amount` entries.
const SV_QUEUE_BASE: u64 = 0x4_0000;
/// Every account starts with this balance.
pub const INIT_BAL: u64 = 1_000;
/// Stripe mutexes live at `SV_MUTEX_BASE + stripe`.
const SV_MUTEX_BASE: u32 = 200;

/// Sync ops a worker executes in the init round (its barrier arrival).
pub const OPS_INIT_ROUND: u64 = 1;

/// Sync ops a worker executes per request round when no retry fires:
/// phase A locks every stripe once (`2·parties`), phase B again
/// (`2·parties`), phase C locks its own stripe (`2`), plus the round
/// barrier (`1`). Retries add 2 per attempt — use this to place
/// `FaultPlan` coordinates, not to predict exact totals under load.
#[must_use]
pub fn ops_per_request_round(threads: usize) -> u64 {
    4 * (threads.max(1) as u64 + 1) + 3
}

/// One multiply-xor-rotate step (same diffusion as `chaos::lh_mix`).
fn sv_mix(h: u64, v: u64) -> u64 {
    (h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(27)
        .wrapping_mul(0x0100_0000_01B3)
}

/// Scale knobs for one run. Bench rounds are derived from the thread
/// count so `requests ≥ 1M` holds at every width.
#[derive(Clone, Copy, Debug)]
struct SvScale {
    /// Request rounds (the init round is extra).
    request_rounds: u64,
    /// Requests generated per thread per round.
    batch: u64,
    /// Mailbox capacity in credit entries.
    qcap: u64,
}

fn sv_scale(workers: usize, size: Size) -> SvScale {
    let parties = workers as u64 + 1;
    match size {
        Size::Test => SvScale {
            request_rounds: 6,
            batch: 24,
            qcap: 64,
        },
        Size::Bench => {
            let batch = 1024;
            let per_round = batch * parties;
            SvScale {
                request_rounds: 1_050_000u64.div_ceil(per_round),
                batch,
                qcap: 320,
            }
        }
    }
}

/// Request rounds one run executes (the init round is extra). Combined
/// with [`ops_per_request_round`] this places late-run [`FaultPlan`]
/// coordinates and checkpoint cadences at any scale.
///
/// [`FaultPlan`]: rfdet_api::FaultPlan
#[must_use]
pub fn request_rounds_per_run(threads: usize, size: Size) -> u64 {
    sv_scale(threads.max(1), size).request_rounds
}

/// Total requests one run ingests: `rounds × batch × parties`. Pure —
/// bench throughput cells report `requests_per_run / wall_time` without
/// instrumenting the run.
#[must_use]
pub fn requests_per_run(threads: usize, size: Size) -> u64 {
    let workers = threads.max(1);
    let s = sv_scale(workers, size);
    s.request_rounds * s.batch * (workers as u64 + 1)
}

fn stripe_mutex(s: u64) -> MutexId {
    MutexId(SV_MUTEX_BASE + u32::try_from(s).expect("stripe fits u32"))
}

fn acct_addr(acct: u64) -> u64 {
    let stripe = acct / ACCTS_PER_STRIPE;
    SV_ACCT_BASE + SV_STRIPE_STRIDE * stripe + 8 * (acct % ACCTS_PER_STRIPE)
}

fn queue_depth(s: u64) -> u64 {
    SV_QUEUE_BASE + SV_STRIPE_STRIDE * s
}

fn queue_entry(s: u64, i: u64) -> u64 {
    queue_depth(s) + 8 + 8 * i
}

/// One ledger request. Accounts are global ids in
/// `0..parties · ACCTS_PER_STRIPE`; a request's *primary* stripe (the
/// one whose lock applies it) is its account's stripe — a transfer's is
/// the debit side's.
#[derive(Clone, Copy)]
enum Req {
    Get(u64),
    Put(u64, u64),
    Transfer(u64, u64, u64),
    Scan(u64),
}

impl Req {
    fn primary_stripe(self) -> u64 {
        match self {
            Req::Get(a) | Req::Put(a, _) | Req::Transfer(a, _, _) | Req::Scan(a) => {
                a / ACCTS_PER_STRIPE
            }
        }
    }
}

/// The request mix: 40 % point gets, 25 % puts, 20 % cross-shard
/// transfers, 15 % 8-account range scans.
fn gen_requests(rng: &mut DetRng, batch: u64, total_accts: u64) -> Vec<Req> {
    (0..batch)
        .map(|_| {
            let k = rng.next_below(100);
            if k < 40 {
                Req::Get(rng.next_below(total_accts))
            } else if k < 65 {
                Req::Put(rng.next_below(total_accts), 1 + rng.next_below(99))
            } else if k < 85 {
                let from = rng.next_below(total_accts);
                let to = rng.next_below(total_accts);
                Req::Transfer(from, to, 1 + rng.next_below(49))
            } else {
                Req::Scan(rng.next_below(total_accts))
            }
        })
        .collect()
}

/// `service.ledger`: the striped ledger at the run's requested scale.
pub fn ledger(p: Params) -> ThreadFn {
    let workers = p.threads.max(1);
    service_body(workers, sv_scale(workers, p.size), p.seed)
}

/// `service.ledger.bench`: pinned to bench scale regardless of
/// `p.size`, because checkpoints and traces record only `name@threads`
/// and a resume must rederive the round count from the name alone.
pub fn ledger_bench(p: Params) -> ThreadFn {
    let workers = p.threads.max(1);
    service_body(workers, sv_scale(workers, Size::Bench), p.seed)
}

/// The shared body: fresh root, spawned worker, and a restored thread's
/// body are the same closure. Round 0 initializes the thread's own stripe; rounds
/// `1..=request_rounds` ingest; after the loop each thread reports its
/// checksum and main audits conservation.
fn service_body(workers: usize, sc: SvScale, seed: u64) -> ThreadFn {
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let tid = u64::from(ctx.tid());
        let parties = workers as u64 + 1;
        let bar = BarrierId(2);
        let cell = SV_CELL_BASE + SV_CELL_STRIDE * tid;
        let ctr = SV_CTR_BASE + SV_CTR_STRIDE * tid;
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ticks: 32,
            max_backoff_ticks: 256,
        };
        loop {
            let r: u64 = ctx.read(cell);
            if tid == 0 && r == 0 {
                for _ in 0..workers {
                    ctx.spawn(service_body(workers, sc, seed));
                }
            }
            if r > sc.request_rounds {
                break;
            }
            if r == 0 {
                for i in 0..ACCTS_PER_STRIPE {
                    ctx.write(acct_addr(tid * ACCTS_PER_STRIPE + i), INIT_BAL);
                }
            } else {
                request_round(ctx, tid, parties, sc, seed, r, ctr, policy);
            }
            ctx.write(cell, r + 1);
            ctx.barrier(bar, usize::try_from(parties).expect("parties fits usize"));
        }
        let checksum: u64 = ctx.read(ctr + CTR_CHECKSUM);
        let retries: u64 = ctx.read(ctr + CTR_RETRIES);
        let shed: u64 = ctx.read(ctr + CTR_SHED);
        ctx.emit_str(&format!("t{tid}:{checksum:016x},r{retries},s{shed};"));
        if tid == 0 {
            for t in 1..=workers {
                ctx.join(ThreadHandle(u32::try_from(t).expect("tid fits u32")));
            }
            audit(ctx, parties);
        }
    })
}

/// One request round: generate the batch, apply it stripe-by-stripe,
/// deliver cross-stripe credits through bounded mailboxes (retry then
/// shed on overflow), drain the thread's own mailbox, and fold the
/// round into the thread's deterministic counters.
#[allow(clippy::too_many_arguments)]
fn request_round(
    ctx: &mut dyn DmtCtx,
    tid: u64,
    parties: u64,
    sc: SvScale,
    seed: u64,
    r: u64,
    ctr: u64,
    policy: RetryPolicy,
) {
    // Heap churn: one short-lived block per round, so
    // `FaultPlan::fail_alloc(tid, n)` has a dense, well-indexed target
    // (the nth allocation is round n).
    let scratch = ctx.alloc(256, 8);
    ctx.write(scratch, r);
    ctx.dealloc(scratch);

    let mut rng = DetRng::new(
        seed ^ tid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let total_accts = parties * ACCTS_PER_STRIPE;
    let reqs = gen_requests(&mut rng, sc.batch, total_accts);
    let mut buckets: Vec<Vec<Req>> = vec![Vec::new(); parties as usize];
    for q in reqs {
        buckets[q.primary_stripe() as usize].push(q);
    }

    // Phase A — apply, stripe by stripe. Every stripe is locked exactly
    // once even when its bucket is empty, so per-thread sync-op indices
    // are a fixed function of the round (FaultPlan coordinates land on
    // the same program point on every backend).
    let mut checksum: u64 = ctx.read(ctr + CTR_CHECKSUM);
    let mut put_sum = 0u64;
    let mut credits: Vec<(u64, u64)> = Vec::new(); // (to_acct, amount)
    for s in 0..parties {
        ctx.lock(stripe_mutex(s));
        for q in &buckets[s as usize] {
            match *q {
                Req::Get(a) => {
                    let b: u64 = ctx.read(acct_addr(a));
                    checksum = sv_mix(checksum, b ^ a);
                }
                Req::Put(a, amt) => {
                    let b: u64 = ctx.read(acct_addr(a));
                    ctx.write(acct_addr(a), b + amt);
                    put_sum += amt;
                }
                Req::Transfer(from, to, amt) => {
                    let b: u64 = ctx.read(acct_addr(from));
                    if b >= amt {
                        ctx.write(acct_addr(from), b - amt);
                        credits.push((to, amt));
                    } else {
                        // Declined transfers still reach the digest.
                        checksum = sv_mix(checksum, 0xDEC1_14ED ^ from);
                    }
                }
                Req::Scan(a) => {
                    let stripe = a / ACCTS_PER_STRIPE;
                    let start = (a % ACCTS_PER_STRIPE).min(ACCTS_PER_STRIPE - 8);
                    for i in 0..8 {
                        let b: u64 = ctx.read(acct_addr(stripe * ACCTS_PER_STRIPE + start + i));
                        checksum = sv_mix(checksum, b);
                    }
                }
            }
        }
        ctx.unlock(stripe_mutex(s));
    }

    // Phase B — deliver credits to owner mailboxes, all-or-nothing per
    // stripe. A full mailbox backs off on the *logical* clock
    // (RetryPolicy) and retries; an exhausted budget sheds the group
    // deterministically, with the lost sum recorded for the audit.
    let mut outboxes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parties as usize];
    for (to, amt) in credits {
        outboxes[(to / ACCTS_PER_STRIPE) as usize].push((to, amt));
    }
    let mut retries_n = 0u64;
    let mut shed_n = 0u64;
    let mut shed_sum = 0u64;
    for s in 0..parties {
        let group = &outboxes[s as usize];
        let mut attempt = 0u32;
        loop {
            ctx.lock(stripe_mutex(s));
            let depth: u64 = ctx.read(queue_depth(s));
            if depth + group.len() as u64 <= sc.qcap {
                if !group.is_empty() {
                    for (i, (to, amt)) in group.iter().enumerate() {
                        ctx.write(queue_entry(s, depth + i as u64), (to << 32) | amt);
                    }
                    ctx.write(queue_depth(s), depth + group.len() as u64);
                }
                ctx.unlock(stripe_mutex(s));
                break;
            }
            ctx.unlock(stripe_mutex(s));
            match policy.backoff_ticks(attempt) {
                Some(ticks) => {
                    ctx.tick(ticks);
                    attempt += 1;
                    retries_n += 1;
                }
                None => {
                    shed_n += group.len() as u64;
                    shed_sum += group.iter().map(|&(_, amt)| amt).sum::<u64>();
                    break;
                }
            }
        }
    }

    // Phase C — drain the thread's own mailbox. Credits enqueued by
    // peers after this drain wait for the next round (or the final
    // audit, which counts them as in-flight).
    ctx.lock(stripe_mutex(tid));
    let depth: u64 = ctx.read(queue_depth(tid));
    for i in 0..depth {
        let e: u64 = ctx.read(queue_entry(tid, i));
        let (to, amt) = (e >> 32, e & 0xFFFF_FFFF);
        let b: u64 = ctx.read(acct_addr(to));
        ctx.write(acct_addr(to), b + amt);
        checksum = sv_mix(checksum, e);
    }
    if depth > 0 {
        ctx.write(queue_depth(tid), 0);
    }
    ctx.unlock(stripe_mutex(tid));

    // Fold the round into the thread's deterministic counters and the
    // run's Stats (digest-neutral bookkeeping).
    ctx.write(ctr + CTR_CHECKSUM, checksum);
    for (off, delta) in [
        (CTR_RETRIES, retries_n),
        (CTR_SHED, shed_n),
        (CTR_PUT_SUM, put_sum),
        (CTR_SHED_SUM, shed_sum),
    ] {
        let v: u64 = ctx.read(ctr + off);
        ctx.write(ctr + off, v + delta);
    }
    ctx.count_app_events(retries_n, shed_n);
}

/// Main's post-join audit: every unit of money must be on a balance, in
/// an undelivered mailbox entry, or explicitly shed.
fn audit(ctx: &mut dyn DmtCtx, parties: u64) {
    let mut balances = 0u64;
    for a in 0..parties * ACCTS_PER_STRIPE {
        let b: u64 = ctx.read(acct_addr(a));
        balances += b;
    }
    let mut in_flight = 0u64;
    let mut in_flight_n = 0u64;
    for s in 0..parties {
        let depth: u64 = ctx.read(queue_depth(s));
        in_flight_n += depth;
        for i in 0..depth {
            let e: u64 = ctx.read(queue_entry(s, i));
            in_flight += e & 0xFFFF_FFFF;
        }
    }
    let mut puts = 0u64;
    let mut shed = 0u64;
    for t in 0..parties {
        let ctr = SV_CTR_BASE + SV_CTR_STRIDE * t;
        let p: u64 = ctx.read(ctr + CTR_PUT_SUM);
        let s: u64 = ctx.read(ctr + CTR_SHED_SUM);
        puts += p;
        shed += s;
    }
    let expected = parties * ACCTS_PER_STRIPE * INIT_BAL + puts - shed;
    let actual = balances + in_flight;
    let verdict = if actual == expected { "ok" } else { "BAD" };
    ctx.emit_str(&format!(
        "total={actual:016x} q={in_flight_n} conserve={verdict}"
    ));
}

/// The service scenarios (names carry the `service.` prefix), a view
/// of the registry.
#[must_use]
pub fn scenarios() -> Vec<Workload> {
    crate::view(&[Suite::Service])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{DmtBackend, RunConfig};
    use rfdet_dthreads::DthreadsBackend;

    #[test]
    fn ledger_is_deterministic_and_conserves_money() {
        let p = Params::new(3, Size::Test);
        let base = DthreadsBackend.run_expect(&RunConfig::small(), ledger(p));
        let text = String::from_utf8(base.output.clone()).expect("utf8 report");
        assert!(text.starts_with("t0:"), "main checksum leads: {text}");
        for t in 1..=3 {
            assert!(text.contains(&format!("t{t}:")), "worker {t}: {text}");
        }
        assert!(text.contains("conserve=ok"), "money conserved: {text}");
        let again = DthreadsBackend.run_expect(&RunConfig::small(), ledger(p));
        assert_eq!(base.output, again.output, "ledger must be deterministic");
    }

    #[test]
    fn bench_scale_meets_the_million_request_floor() {
        for threads in [2, 4, 8, 16] {
            assert!(
                requests_per_run(threads, Size::Bench) >= 1_000_000,
                "{threads} threads"
            );
        }
        // Test scale stays tiny.
        assert_eq!(requests_per_run(3, Size::Test), 6 * 24 * 4);
    }

    #[test]
    fn overload_sheds_deterministically_and_still_conserves() {
        // A one-entry mailbox forces the retry/shed path without
        // needing bench scale: any credit group larger than the
        // leftover capacity backs off three times and sheds.
        let sc = SvScale {
            request_rounds: 6,
            batch: 24,
            qcap: 1,
        };
        let body = || service_body(2, sc, 0x5EED_0001);
        let out = DthreadsBackend.run_expect(&RunConfig::small(), body());
        let text = String::from_utf8(out.output.clone()).expect("utf8 report");
        assert!(text.contains("conserve=ok"), "shed money audited: {text}");
        assert!(out.stats.app_retries > 0, "retry path exercised");
        assert!(out.stats.app_shed > 0, "shed path exercised");
        let again = DthreadsBackend.run_expect(&RunConfig::small(), body());
        assert_eq!(out.output, again.output, "overload path is deterministic");
    }

    #[test]
    fn registry_names_both_scales() {
        let names: Vec<&str> = scenarios().iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["service.ledger", "service.ledger.bench"]);
    }
}
