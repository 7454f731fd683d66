//! The native per-thread context.

use crate::sync::{BarrierVar, CondVar, LockVar, Registry};
use parking_lot::Mutex;
use rfdet_api::obs::Phase;
use rfdet_api::{
    harness, Addr, BarrierId, CondId, ConfigError, DmtCtx, FailureKind, MutexId, RunConfig,
    RunHarness, SyncOp, ThreadFn, ThreadHandle, ThreadHarness, Tid,
};
use rfdet_mem::{StripAllocator, ThreadHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;

/// Shared state of one native run.
pub(crate) struct NativeShared {
    /// The shared memory: one atomic cell per byte, accessed `Relaxed`.
    /// Races are memory-safe but nondeterministic — faithful pthreads.
    pub mem: Vec<AtomicU8>,
    pub locks: Registry<LockVar>,
    pub conds: Registry<CondVar>,
    pub barriers: Registry<BarrierVar>,
    pub strips: StripAllocator,
    /// The next thread's tid, handed out in spawn order.
    next_tid: AtomicU32,
    /// Striped locks making 8-byte atomics atomic over the byte-cell
    /// memory (§4.6 extension).
    pub atomic_stripes: Vec<Mutex<()>>,
    /// The run harness. Its failure slot stays first-writer-wins in
    /// *physical* order here, this backend being nondeterministic by
    /// contract; its stop flag is what every blocking wait polls.
    pub run: RunHarness,
}

impl NativeShared {
    pub fn new(cfg: &RunConfig) -> Result<Self, ConfigError> {
        let run = RunHarness::new(cfg)?;
        let cfg = &run.cfg;
        let heap_base = rfdet_mem::heap_base(cfg.space_bytes);
        Ok(Self {
            mem: (0..cfg.space_bytes).map(|_| AtomicU8::new(0)).collect(),
            locks: Registry::default(),
            conds: Registry::default(),
            barriers: Registry::default(),
            strips: StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            next_tid: AtomicU32::new(0),
            atomic_stripes: (0..64).map(|_| Mutex::new(())).collect(),
            run,
        })
    }
}

/// Per-thread context for the native backend.
pub(crate) struct NativeCtx {
    pub shared: Arc<NativeShared>,
    pub tid: Tid,
    pub heap: ThreadHeap,
    /// Fault coordinates, trace and metrics buffers, profiling counters.
    /// Events carry no logical clocks here (the backend has none);
    /// per-thread op indices order each stream. Native has no
    /// deterministic decision path to protect, but it reports the same
    /// phase histograms so A/B comparisons against the deterministic
    /// backends line up.
    pub h: ThreadHarness,
}

impl NativeCtx {
    pub fn new(shared: Arc<NativeShared>) -> Self {
        let tid = shared.next_tid.fetch_add(1, Relaxed);
        let heap = shared.strips.heap_for(tid);
        let h = ThreadHarness::new(&shared.run, tid);
        Self {
            shared,
            tid,
            heap,
            h,
        }
    }

    /// One synchronization operation, end to end under the
    /// [`Phase::SyncOp`] envelope. Jitter ticks become a short spin — the
    /// closest native analogue of perturbing a logical clock — and a
    /// planned panic fires where the op is reached: nothing orders sync
    /// ops here, so the root cause stays first-writer-wins.
    #[inline]
    fn sync_op<R>(&mut self, op: SyncOp, body: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.h.start();
        let fault = self.h.enter_sync(op, || 0);
        for _ in 0..fault.jitter_ticks {
            std::hint::spin_loop();
        }
        self.h.raise_planned();
        let r = body(self);
        self.h.since(Phase::SyncOp, t0);
        r
    }

    /// Runs a thread's entry function; an unwind is recorded with the
    /// thread's progress. A root-cause panic stops the run (every polling
    /// waiter unwinds); `Stopped` tokens add diagnostics.
    pub fn run_body(&mut self, body: ThreadFn) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            body(self);
            // Nothing to do at a native thread's exit, but it is a sync-op
            // coordinate on every backend, so a plan can name it here too.
            self.sync_op(SyncOp::Exit, |_| ());
            self.shared.run.retire(&mut self.h);
        }));
        if let Err(payload) = result {
            let (report, kind) = (Some(self.h.report()), Some(FailureKind::Panic));
            self.shared
                .run
                .record_unwind(self.tid, payload, report, kind);
        }
    }

    /// An 8-byte atomic over the byte-cell memory, under the cell's
    /// stripe lock: reads the old value, stores `update(old)` if any,
    /// returns the old value.
    fn atomic(&mut self, addr: Addr, update: impl FnOnce(u64) -> Option<u64>) -> u64 {
        self.sync_op(SyncOp::Atomic(addr), |ctx| {
            ctx.shared.run.check_stop();
            ctx.check_range(addr, 8);
            let _guard = ctx.shared.atomic_stripes[(addr >> 3) as usize % 64].lock();
            let cell = &ctx.shared.mem[addr as usize..addr as usize + 8];
            let mut buf = [0u8; 8];
            for (b, c) in buf.iter_mut().zip(cell) {
                *b = c.load(Relaxed);
            }
            let old = u64::from_le_bytes(buf);
            if let Some(new) = update(old) {
                for (b, c) in new.to_le_bytes().iter().zip(cell) {
                    c.store(*b, Relaxed);
                }
            }
            old
        })
    }

    fn check_range(&self, addr: Addr, len: usize) {
        assert!(
            addr as usize + len <= self.shared.mem.len(),
            "shared-memory access out of bounds: addr={addr:#x} len={len}"
        );
    }
}

impl DmtCtx for NativeCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, _n: u64) {
        // No logical clocks: native threads run free.
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.h.stats.loads += 1;
        self.check_range(addr, buf.len());
        let base = addr as usize;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.shared.mem[base + i].load(Relaxed);
        }
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.h.stats.stores += 1;
        self.check_range(addr, data.len());
        let base = addr as usize;
        for (i, &b) in data.iter().enumerate() {
            self.shared.mem[base + i].store(b, Relaxed);
        }
    }

    fn lock(&mut self, m: MutexId) {
        self.sync_op(SyncOp::Lock(m), |ctx| {
            let lock = ctx.shared.locks.get(m.0);
            lock.lock(&ctx.shared.run, ctx.tid, m.0);
        });
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync_op(SyncOp::Unlock(m), |ctx| {
            ctx.shared.locks.get(m.0).unlock(ctx.tid, m.0, None)
        });
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync_op(SyncOp::CondWait(c), |ctx| {
            let cond = ctx.shared.conds.get(c.0);
            let mutex = ctx.shared.locks.get(m.0);
            cond.wait((c.0, m.0), &mutex, &ctx.shared.run, ctx.tid);
        });
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync_op(SyncOp::CondSignal(c), |ctx| {
            ctx.shared.conds.get(c.0).signal();
        });
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync_op(SyncOp::CondBroadcast(c), |ctx| {
            ctx.shared.conds.get(c.0).broadcast();
        });
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync_op(SyncOp::Barrier(b), |ctx| {
            ctx.shared
                .barriers
                .get(b.0)
                .wait((b.0, parties), &ctx.shared.run, ctx.tid);
        });
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync_op(SyncOp::Spawn, |ctx| {
            let mut child = NativeCtx::new(Arc::clone(&ctx.shared));
            let tid = child.tid;
            let handle = std::thread::Builder::new()
                .name(format!("native-{tid}"))
                .spawn(move || child.run_body(f))
                .expect("failed to spawn OS thread");
            ctx.shared.run.adopt(tid, handle);
            ThreadHandle(tid)
        })
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync_op(SyncOp::Join(h.0), |ctx| {
            assert!(h.0 != ctx.tid, "{}", harness::join_self(ctx.tid));
            let never = || harness::join_never_spawned(ctx.tid, h.0);
            assert!(h.0 < ctx.shared.next_tid.load(Relaxed), "{}", never());
            let handle = ctx
                .shared
                .run
                .claim(h.0)
                .unwrap_or_else(|| panic!("{}", harness::join_twice(ctx.tid, h.0)));
            // The child caught its own panic (recording it as the root
            // cause), so the join itself cannot fail — but if the run is
            // now stopped the joiner must unwind too.
            let _ = handle.join();
            ctx.shared.run.check_stop();
        });
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.h.enter_alloc(|| 0, size);
        self.heap.alloc(size, align)
    }

    fn dealloc(&mut self, addr: Addr) {
        self.heap.dealloc(addr);
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.h.emit(bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: rfdet_api::AtomicOp) -> u64 {
        self.atomic(addr, |old| Some(op.apply(old)))
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.atomic(addr, |_| None)
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.atomic(addr, |_| Some(value));
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.h.count_app_events(retries, shed);
    }
}
