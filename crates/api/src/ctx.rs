//! The [`DmtCtx`] trait — the per-thread view of a DMT runtime.

use crate::{Addr, Pod, Tid};

/// Identifier of a mutex in the shared synchronization-variable table.
///
/// The paper maps each application synchronization variable to an *internal
/// synchronization variable* in the metadata space (§4.1); `MutexId` is the
/// key of that mapping. IDs are chosen by the application (any `u32`), so a
/// program can address an unbounded set of logical mutexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MutexId(pub u32);

/// Identifier of a condition variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondId(pub u32);

/// Identifier of a barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarrierId(pub u32);

/// A read-modify-write operation on a 64-bit atomic cell.
///
/// Part of the low-level-atomics extension the paper leaves as future
/// work (§4.6, §6): "we must use the Kendo algorithm to ensure that
/// atomic operations happen in a deterministic order, and we must
/// propagate memory modifications … depending on whether the atomic
/// operation being executed is an *acquire* and/or a *release*".
/// Every [`DmtCtx::atomic_rmw`] is both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOp {
    /// `fetch_add` (wrapping).
    Add(u64),
    /// `fetch_sub` (wrapping).
    Sub(u64),
    /// `swap`.
    Exchange(u64),
    /// `compare_exchange`: stores `new` iff the current value equals
    /// `expected`. The returned old value tells the caller whether it
    /// succeeded.
    CompareExchange {
        /// Value the cell must currently hold.
        expected: u64,
        /// Replacement stored on success.
        new: u64,
    },
    /// `fetch_and`.
    And(u64),
    /// `fetch_or`.
    Or(u64),
    /// `fetch_xor`.
    Xor(u64),
    /// `fetch_max`.
    Max(u64),
    /// `fetch_min`.
    Min(u64),
}

impl AtomicOp {
    /// The pure update function: new cell value for an old one.
    #[must_use]
    pub fn apply(self, old: u64) -> u64 {
        match self {
            AtomicOp::Add(v) => old.wrapping_add(v),
            AtomicOp::Sub(v) => old.wrapping_sub(v),
            AtomicOp::Exchange(v) => v,
            AtomicOp::CompareExchange { expected, new } => {
                if old == expected {
                    new
                } else {
                    old
                }
            }
            AtomicOp::And(v) => old & v,
            AtomicOp::Or(v) => old | v,
            AtomicOp::Xor(v) => old ^ v,
            AtomicOp::Max(v) => old.max(v),
            AtomicOp::Min(v) => old.min(v),
        }
    }
}

/// Handle returned by [`DmtCtx::spawn`], consumed by [`DmtCtx::join`].
///
/// Wraps the deterministic thread ID the runtime assigned to the child
/// (the paper: "we assign each new thread a deterministic thread ID —
/// calling `pthread_self` will return this ID", §4.1).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ThreadHandle(pub Tid);

/// Entry point of a spawned thread.
pub type ThreadFn = Box<dyn FnOnce(&mut dyn DmtCtx) + Send + 'static>;

/// The per-thread runtime interface: the reproduction's equivalent of the
/// interposed pthreads API plus instrumented loads/stores.
///
/// All addresses refer to the logical shared space. Deterministic backends
/// resolve reads against the thread's private view; `native` resolves them
/// against real shared memory.
///
/// # Panics
///
/// Implementations panic on API misuse that would be undefined behaviour
/// under pthreads: unlocking a mutex the thread does not hold, waiting on a
/// condition variable without holding the mutex, joining a handle twice,
/// or accessing memory outside the configured space.
pub trait DmtCtx {
    /// The calling thread's deterministic thread ID (main thread is 0).
    fn tid(&self) -> Tid;

    /// Advances the thread's logical instruction count by `n`.
    ///
    /// Models the `instrTick(k)` call the paper's compiler inserts in every
    /// basic block (§4.1). Workloads call this in compute loops so that
    /// Kendo arbitration sees the relative progress of each thread.
    fn tick(&mut self, n: u64);

    /// Reads `buf.len()` bytes at `addr` from shared memory (this thread's
    /// view of it).
    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]);

    /// Writes `data` at `addr` into shared memory (this thread's view).
    ///
    /// In deterministic backends this is the instrumented `Store` of paper
    /// Figure 4: the first write within a slice to each 64-byte line of a
    /// page (RFDet-ci) or to the page (RFDet-pf) snapshots it for later
    /// diffing.
    fn write_bytes(&mut self, addr: Addr, data: &[u8]);

    /// Acquires a mutex (deterministically, in deterministic backends).
    fn lock(&mut self, m: MutexId);

    /// Releases a mutex held by this thread.
    fn unlock(&mut self, m: MutexId);

    /// Atomically releases `m` and blocks until signalled on `c`;
    /// re-acquires `m` before returning.
    fn cond_wait(&mut self, c: CondId, m: MutexId);

    /// Wakes one waiter of `c` (deterministically the longest-waiting one).
    fn cond_signal(&mut self, c: CondId);

    /// Wakes all waiters of `c`.
    fn cond_broadcast(&mut self, c: CondId);

    /// Waits until `parties` threads have arrived at barrier `b`.
    fn barrier(&mut self, b: BarrierId, parties: usize);

    /// Spawns a new thread running `f`; returns its handle.
    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle;

    /// Blocks until the thread behind `h` finishes; its memory
    /// modifications become visible to the caller.
    fn join(&mut self, h: ThreadHandle);

    /// Allocates `size` bytes (aligned to `align`, a power of two) from the
    /// shared allocator and returns the logical address.
    fn alloc(&mut self, size: u64, align: u64) -> Addr;

    /// Returns a previously allocated block to the shared allocator.
    fn dealloc(&mut self, addr: Addr);

    /// Appends bytes to this thread's output stream. Streams are
    /// concatenated in thread-ID order into [`crate::RunOutput::output`],
    /// so output is deterministic whenever per-thread content is.
    fn emit(&mut self, bytes: &[u8]);

    /// Atomically applies `op` to the 8-byte-aligned cell at `addr` and
    /// returns the **old** value. Acquire *and* release semantics: the
    /// caller synchronizes with the previous atomic on the same cell, and
    /// its own modifications become visible to the next one.
    ///
    /// This is the §4.6/§6 extension: with it, ad hoc and lock-free
    /// synchronization (spinlocks, lock-free counters/stacks) execute
    /// correctly and deterministically, which the paper's base system
    /// explicitly does not support.
    fn atomic_rmw(&mut self, addr: Addr, op: AtomicOp) -> u64;

    /// Atomic load with acquire semantics (synchronizes with the cell's
    /// last release).
    fn atomic_load(&mut self, addr: Addr) -> u64;

    /// Atomic store with release semantics.
    fn atomic_store(&mut self, addr: Addr, value: u64);

    /// Records application-level degradation events (§4.12): `retries`
    /// requests re-attempted under a [`crate::RetryPolicy`] backoff and
    /// `shed` requests dropped after the budget ran out. Pure
    /// bookkeeping — no logical-clock cost, no sync op — so counting is
    /// digest-neutral. Backends fold these into [`crate::Stats`]; the
    /// default is a no-op for contexts that don't carry counters.
    fn count_app_events(&mut self, retries: u64, shed: u64) {
        let _ = (retries, shed);
    }
}

/// Typed convenience accessors over any [`DmtCtx`].
///
/// These are generic, so they live in an extension trait that is
/// implemented blanket-style for every context, including `dyn DmtCtx`.
pub trait DmtCtxExt: DmtCtx {
    /// Reads a `T` at `addr`.
    fn read<T: Pod>(&mut self, addr: Addr) -> T {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.read_bytes(addr, buf);
        T::load(buf)
    }

    /// Writes a `T` at `addr`.
    fn write<T: Pod>(&mut self, addr: Addr, value: T) {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        value.store(buf);
        self.write_bytes(addr, buf);
    }

    /// `read`-modify-`write` of a `T` (not atomic across threads: it is two
    /// ordinary accesses, exactly like unsynchronized C++ code).
    fn update<T: Pod>(&mut self, addr: Addr, f: impl FnOnce(T) -> T) -> T {
        let v = f(self.read::<T>(addr));
        self.write(addr, v);
        v
    }

    /// Element `i` of a `T` array starting at `base`.
    fn read_idx<T: Pod>(&mut self, base: Addr, i: u64) -> T {
        self.read(base + i * T::SIZE as u64)
    }

    /// Writes element `i` of a `T` array starting at `base`.
    fn write_idx<T: Pod>(&mut self, base: Addr, i: u64, value: T) {
        self.write(base + i * T::SIZE as u64, value);
    }

    /// Emits a UTF-8 string to the thread's output stream.
    fn emit_str(&mut self, s: &str) {
        self.emit(s.as_bytes());
    }
}

impl<C: DmtCtx + ?Sized> DmtCtxExt for C {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A minimal single-threaded context used to test the extension trait.
    #[derive(Default)]
    struct MiniCtx {
        mem: BTreeMap<Addr, u8>,
        out: Vec<u8>,
        ticks: u64,
        next: Addr,
    }

    impl DmtCtx for MiniCtx {
        fn tid(&self) -> Tid {
            0
        }
        fn tick(&mut self, n: u64) {
            self.ticks += n;
        }
        fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.mem.get(&(addr + i as u64)).copied().unwrap_or(0);
            }
        }
        fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                self.mem.insert(addr + i as u64, b);
            }
        }
        fn lock(&mut self, _: MutexId) {}
        fn unlock(&mut self, _: MutexId) {}
        fn cond_wait(&mut self, _: CondId, _: MutexId) {}
        fn cond_signal(&mut self, _: CondId) {}
        fn cond_broadcast(&mut self, _: CondId) {}
        fn barrier(&mut self, _: BarrierId, _: usize) {}
        fn spawn(&mut self, _: ThreadFn) -> ThreadHandle {
            ThreadHandle(1)
        }
        fn join(&mut self, _: ThreadHandle) {}
        fn alloc(&mut self, size: u64, align: u64) -> Addr {
            let a = self.next.next_multiple_of(align);
            self.next = a + size;
            a
        }
        fn dealloc(&mut self, _: Addr) {}
        fn emit(&mut self, bytes: &[u8]) {
            self.out.extend_from_slice(bytes);
        }
        fn atomic_rmw(&mut self, addr: Addr, op: AtomicOp) -> u64 {
            let old = self.read::<u64>(addr);
            self.write::<u64>(addr, op.apply(old));
            old
        }
        fn atomic_load(&mut self, addr: Addr) -> u64 {
            self.read::<u64>(addr)
        }
        fn atomic_store(&mut self, addr: Addr, value: u64) {
            self.write::<u64>(addr, value);
        }
    }

    #[test]
    fn typed_roundtrip_through_dyn() {
        let mut c = MiniCtx::default();
        let ctx: &mut dyn DmtCtx = &mut c;
        ctx.write::<u32>(16, 0xCAFE_BABE);
        assert_eq!(ctx.read::<u32>(16), 0xCAFE_BABE);
        ctx.write::<f64>(64, 2.5);
        assert_eq!(ctx.read::<f64>(64), 2.5);
    }

    #[test]
    fn indexed_access() {
        let mut c = MiniCtx::default();
        for i in 0..10u64 {
            c.write_idx::<u64>(0, i, i * i);
        }
        assert_eq!(c.read_idx::<u64>(0, 7), 49);
        assert_eq!(c.read::<u64>(7 * 8), 49);
    }

    #[test]
    fn update_applies_function() {
        let mut c = MiniCtx::default();
        c.write::<i32>(0, 10);
        let v = c.update::<i32>(0, |x| x * 3);
        assert_eq!(v, 30);
        assert_eq!(c.read::<i32>(0), 30);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut c = MiniCtx {
            next: 3,
            ..MiniCtx::default()
        };
        let a = c.alloc(10, 8);
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn emit_str_appends_utf8() {
        let mut c = MiniCtx::default();
        c.emit_str("ok");
        c.emit_str("!");
        assert_eq!(c.out, b"ok!");
    }

    #[test]
    fn atomic_op_semantics() {
        assert_eq!(AtomicOp::Add(5).apply(10), 15);
        assert_eq!(AtomicOp::Add(1).apply(u64::MAX), 0, "wrapping");
        assert_eq!(AtomicOp::Sub(3).apply(10), 7);
        assert_eq!(AtomicOp::Exchange(9).apply(1), 9);
        assert_eq!(
            AtomicOp::CompareExchange {
                expected: 4,
                new: 8
            }
            .apply(4),
            8
        );
        assert_eq!(
            AtomicOp::CompareExchange {
                expected: 4,
                new: 8
            }
            .apply(5),
            5,
            "failed CAS leaves the value"
        );
        assert_eq!(AtomicOp::And(0b1100).apply(0b1010), 0b1000);
        assert_eq!(AtomicOp::Or(0b1100).apply(0b1010), 0b1110);
        assert_eq!(AtomicOp::Xor(0b1100).apply(0b1010), 0b0110);
        assert_eq!(AtomicOp::Max(7).apply(3), 7);
        assert_eq!(AtomicOp::Min(7).apply(3), 3);
    }

    #[test]
    fn mini_ctx_atomics_roundtrip() {
        let mut c = MiniCtx::default();
        c.atomic_store(0, 41);
        assert_eq!(c.atomic_rmw(0, AtomicOp::Add(1)), 41);
        assert_eq!(c.atomic_load(0), 42);
    }
}
