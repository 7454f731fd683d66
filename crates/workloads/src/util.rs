//! Shared-memory building blocks for the workloads.

use rfdet_api::digest::Fnv1a;
use rfdet_api::{Addr, CondId, DmtCtx, DmtCtxExt, MutexId, ThreadHandle};

/// Spawns workers `0..n` in tid order, worker `t` running a clone of
/// `body(ctx, t)`, and returns their handles in the same order.
pub fn fork<F>(ctx: &mut dyn DmtCtx, n: u64, body: F) -> Vec<ThreadHandle>
where
    F: FnOnce(&mut dyn DmtCtx, u64) + Clone + Send + 'static,
{
    (0..n)
        .map(|t| {
            let body = body.clone();
            ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| body(ctx, t)))
        })
        .collect()
}

/// The kernels' fork/join idiom: [`fork`] workers `0..n`, then join
/// them in tid order.
pub fn fork_join<F>(ctx: &mut dyn DmtCtx, n: u64, body: F)
where
    F: FnOnce(&mut dyn DmtCtx, u64) + Clone + Send + 'static,
{
    for h in fork(ctx, n, body) {
        ctx.join(h);
    }
}

/// A SPLASH-2 `c.m4.null.POSIX`-style barrier built from one mutex and
/// one condition variable over shared memory — the configuration the
/// paper evaluates, chosen precisely because it stresses lock/wait/signal
/// traffic ("this configuration uses lock and unlock to implement
/// barrier", §5.1).
///
/// Layout: two `u64` counters (arrivals, generation) at `base`.
#[derive(Clone, Copy, Debug)]
pub struct LockBarrier {
    base: Addr,
    mutex: MutexId,
    cond: CondId,
    parties: u64,
}

impl LockBarrier {
    /// Bytes of shared memory a barrier occupies.
    pub const SHARED_BYTES: u64 = 16;

    /// Creates a barrier over `base` (16 bytes, zero-initialized) using
    /// the given sync-var IDs.
    #[must_use]
    pub fn new(base: Addr, mutex: MutexId, cond: CondId, parties: u64) -> Self {
        Self {
            base,
            mutex,
            cond,
            parties,
        }
    }

    /// Waits until all parties arrive.
    pub fn wait(&self, ctx: &mut dyn DmtCtx) {
        ctx.lock(self.mutex);
        let gen: u64 = ctx.read(self.base + 8);
        let arrived: u64 = ctx.read::<u64>(self.base) + 1;
        if arrived == self.parties {
            ctx.write::<u64>(self.base, 0);
            ctx.write::<u64>(self.base + 8, gen + 1);
            ctx.cond_broadcast(self.cond);
        } else {
            ctx.write::<u64>(self.base, arrived);
            while ctx.read::<u64>(self.base + 8) == gen {
                ctx.cond_wait(self.cond, self.mutex);
            }
        }
        ctx.unlock(self.mutex);
    }
}

/// FNV-1a over a shared `u64` array — workloads use this to fold their
/// results into a deterministic checksum.
pub fn checksum_u64s(ctx: &mut dyn DmtCtx, base: Addr, count: u64) -> u64 {
    let mut h = Fnv1a::new();
    for i in 0..count {
        let v: u64 = ctx.read_idx(base, i);
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a over a shared `f64` array via bit patterns.
pub fn checksum_f64s(ctx: &mut dyn DmtCtx, base: Addr, count: u64) -> u64 {
    let mut h = Fnv1a::new();
    for i in 0..count {
        let v: f64 = ctx.read_idx(base, i);
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Q31.32 fixed-point scale for order-invariant shared reductions.
///
/// Lock-guarded `f64` accumulation into a shared cell is race-free but
/// *schedule-sensitive*: float addition is not associative, so the
/// lock-acquisition order (nondeterministic on pthreads) leaks into the
/// low bits of the sum. Integer addition is associative and commutative,
/// so quantizing each thread's contribution once and summing in `i64`
/// makes the result identical under every interleaving — which is what
/// lets the conformance matrix demand byte-identical output from a
/// nondeterministic backend.
const FIXED_ONE: f64 = (1u64 << 32) as f64;

/// Quantizes a contribution for a fixed-point shared accumulator.
#[must_use]
pub fn to_fixed(v: f64) -> i64 {
    #[allow(clippy::cast_possible_truncation)]
    {
        (v * FIXED_ONE).round() as i64 // saturating cast: deterministic
    }
}

/// Reads back a fixed-point accumulator as `f64`.
#[must_use]
pub fn from_fixed(v: i64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        v as f64 / FIXED_ONE
    }
}

/// Adds `v` to the fixed-point accumulator at `addr` (caller holds the
/// guarding lock). Wrapping add: overflow would be wrong the same way
/// under every schedule, never differently per run.
pub fn add_fixed(ctx: &mut dyn DmtCtx, addr: Addr, v: f64) {
    let cur: i64 = ctx.read(addr);
    ctx.write(addr, cur.wrapping_add(to_fixed(v)));
}

/// Reads the fixed-point accumulator at `addr` as `f64`.
pub fn read_fixed(ctx: &mut dyn DmtCtx, addr: Addr) -> f64 {
    from_fixed(ctx.read::<i64>(addr))
}

/// Splits `0..total` into `parts` contiguous chunks; returns chunk `i`.
#[must_use]
pub fn chunk(total: u64, parts: u64, i: u64) -> std::ops::Range<u64> {
    let per = total / parts;
    let rem = total % parts;
    let start = i * per + i.min(rem);
    let len = per + u64::from(i < rem);
    start..start + len
}

/// Mutex/cond ID allocation convention: workloads carve IDs from
/// disjoint ranges so helpers never collide with app locks.
pub mod ids {
    use rfdet_api::{CondId, MutexId};

    /// Barrier sync vars live at 90_000+.
    #[must_use]
    pub fn barrier_mutex(i: u32) -> MutexId {
        MutexId(90_000 + i)
    }
    /// Condition-variable twin of [`barrier_mutex`].
    #[must_use]
    pub fn barrier_cond(i: u32) -> CondId {
        CondId(90_000 + i)
    }
    /// Application data locks live at 10_000+.
    #[must_use]
    pub fn data_mutex(i: u32) -> MutexId {
        MutexId(10_000 + i)
    }
    /// Pipeline-queue sync vars live at 50_000+.
    #[must_use]
    pub fn queue_mutex(i: u32) -> MutexId {
        MutexId(50_000 + i)
    }
    /// Condition-variable for "queue not empty".
    #[must_use]
    pub fn queue_nonempty_cond(i: u32) -> CondId {
        CondId(50_000 + 2 * i)
    }
    /// Condition-variable for "queue not full".
    #[must_use]
    pub fn queue_nonfull_cond(i: u32) -> CondId {
        CondId(50_001 + 2 * i)
    }
}

/// A bounded FIFO of `u64` items in shared memory, protected by one lock
/// and two condition variables — the pipeline plumbing of dedup/ferret.
///
/// Layout at `base`: head, tail, count, closed (4×u64), then `cap` slots.
#[derive(Clone, Copy, Debug)]
pub struct SharedQueue {
    base: Addr,
    cap: u64,
    mutex: MutexId,
    nonempty: CondId,
    nonfull: CondId,
}

impl SharedQueue {
    /// Shared bytes needed for a queue of capacity `cap`.
    #[must_use]
    pub fn shared_bytes(cap: u64) -> u64 {
        32 + 8 * cap
    }

    /// Creates a queue over zero-initialized shared memory at `base`.
    #[must_use]
    pub fn new(base: Addr, cap: u64, index: u32) -> Self {
        Self {
            base,
            cap,
            mutex: ids::queue_mutex(index),
            nonempty: ids::queue_nonempty_cond(index),
            nonfull: ids::queue_nonfull_cond(index),
        }
    }

    /// Blocking push.
    pub fn push(&self, ctx: &mut dyn DmtCtx, item: u64) {
        ctx.lock(self.mutex);
        while ctx.read::<u64>(self.base + 16) == self.cap {
            ctx.cond_wait(self.nonfull, self.mutex);
        }
        let tail: u64 = ctx.read(self.base + 8);
        ctx.write_idx::<u64>(self.base + 32, tail, item);
        ctx.write::<u64>(self.base + 8, (tail + 1) % self.cap);
        let count: u64 = ctx.read::<u64>(self.base + 16) + 1;
        ctx.write::<u64>(self.base + 16, count);
        ctx.cond_signal(self.nonempty);
        ctx.unlock(self.mutex);
    }

    /// Marks the queue closed; poppers drain remaining items then get
    /// `None`.
    pub fn close(&self, ctx: &mut dyn DmtCtx) {
        ctx.lock(self.mutex);
        ctx.write::<u64>(self.base + 24, 1);
        ctx.cond_broadcast(self.nonempty);
        ctx.unlock(self.mutex);
    }

    /// Blocking pop; `None` once closed and drained.
    pub fn pop(&self, ctx: &mut dyn DmtCtx) -> Option<u64> {
        ctx.lock(self.mutex);
        loop {
            let count: u64 = ctx.read(self.base + 16);
            if count > 0 {
                let head: u64 = ctx.read(self.base);
                let item: u64 = ctx.read_idx(self.base + 32, head);
                ctx.write::<u64>(self.base, (head + 1) % self.cap);
                ctx.write::<u64>(self.base + 16, count - 1);
                ctx.cond_signal(self.nonfull);
                ctx.unlock(self.mutex);
                return Some(item);
            }
            if ctx.read::<u64>(self.base + 24) == 1 {
                ctx.unlock(self.mutex);
                return None;
            }
            ctx.cond_wait(self.nonempty, self.mutex);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_sum_is_order_invariant() {
        // The exact failure mode: three f64 contributions whose float
        // sum depends on association order...
        let parts = [1.0f64 + 1e-16, 1e-16, -1.0];
        let fwd = (parts[0] + parts[1]) + parts[2];
        let rev = (parts[2] + parts[1]) + parts[0];
        assert_ne!(fwd.to_bits(), rev.to_bits(), "picked a sensitive case");
        // ...but whose fixed-point sum does not.
        let mut a = 0i64;
        let mut b = 0i64;
        for p in parts {
            a = a.wrapping_add(to_fixed(p));
        }
        for p in parts.iter().rev() {
            b = b.wrapping_add(to_fixed(*p));
        }
        assert_eq!(a, b);
        assert!((from_fixed(a) - 2e-16).abs() < 1.0 / (1u64 << 31) as f64);
    }

    #[test]
    fn fixed_point_roundtrip_precision() {
        for v in [0.0, 1.0, -3.75, 123_456.789, -0.000_1] {
            assert!((from_fixed(to_fixed(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn chunk_covers_everything_exactly_once() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1u64, 2, 3, 8] {
                let mut covered = 0;
                let mut next = 0;
                for i in 0..parts {
                    let r = chunk(total, parts, i);
                    assert_eq!(r.start, next, "chunks must be contiguous");
                    next = r.end;
                    covered += r.end - r.start;
                }
                assert_eq!(covered, total);
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn chunk_is_balanced() {
        for i in 0..3 {
            let r = chunk(10, 3, i);
            let len = r.end - r.start;
            assert!((3..=4).contains(&len));
        }
    }

    #[test]
    fn id_ranges_are_disjoint() {
        assert_ne!(ids::barrier_mutex(0).0, ids::data_mutex(0).0);
        assert_ne!(ids::data_mutex(0).0, ids::queue_mutex(0).0);
        assert_ne!(ids::queue_nonempty_cond(0).0, ids::queue_nonfull_cond(0).0);
        assert_ne!(ids::queue_nonempty_cond(1).0, ids::queue_nonfull_cond(0).0);
    }
}
