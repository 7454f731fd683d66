//! Run-wide shared state.

use rfdet_api::{ConfigError, RunConfig, RunHarness};
use rfdet_kendo::KendoState;
use rfdet_mem::StripAllocator;
use rfdet_meta::{MetaSpace, GC_THRESHOLD};
use rfdet_trace::Recording;
use rfdet_vclock::Tid;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};

/// Logical-clock increment charged per synchronization operation (the
/// paper weights ticks by memory instructions; sync ops get a small fixed
/// surcharge so back-to-back sync ops still rotate turns fairly).
pub(crate) const SYNC_TICK: u64 = 5;

/// [`RuntimeShared::gc_host`] when no joiner hosts GC passes.
const NO_HOST: Tid = Tid::MAX;

/// Everything shared by all threads of one RFDet run.
pub(crate) struct RuntimeShared {
    /// The run harness: resolved config (`run.cfg`), fault plan, sinks,
    /// OS handles and the failure slot.
    pub run: RunHarness,
    /// The running backend's display name ("RFDet-ci" or "RFDet-pf").
    /// Stamped into traces and checkpoints, whose `run_key` covers it:
    /// two monitor modes of the same workload are different runs.
    pub backend_name: String,
    /// The backend monitors stores by page protection (RFDet-pf), not by
    /// compile-time instrumentation; set beside `backend_name`.
    pub pf: bool,
    /// Checkpoint assembly state (§4.11); inert when
    /// `cfg.checkpoint_every == 0`.
    pub ckpt: crate::checkpoint::CkptCollector,
    pub kendo: KendoState,
    pub meta: MetaSpace,
    pub strips: StripAllocator,
    /// The thread parked in `join` that runs the GC passes publishers
    /// owe (§4.5), or [`NO_HOST`]: its idle callback pre-merges first,
    /// so the pass collects below its fresh clock, and the publishers'
    /// sync chain carries no sweep.
    gc_host: AtomicU32,
    /// A publish crossed the GC threshold and handed its pass to the
    /// host; cleared when the host's pass ends.
    gc_owed: AtomicBool,
}

impl RuntimeShared {
    /// # Errors
    /// The [`ConfigError`] of an invalid `cfg`.
    pub fn new(cfg: &RunConfig) -> Result<Self, ConfigError> {
        let run = RunHarness::new(cfg)?;
        crate::supervise::filter_control_unwinds();
        let cfg = &run.cfg;
        let heap_base = rfdet_mem::heap_base(cfg.space_bytes);
        // The wall-clock bound is only the *fallback*: structural
        // deadlock detection (supervise.rs) normally fires first.
        let kendo = KendoState::new().with_deadlock_timeout(cfg.deadlock_after());
        Ok(Self {
            backend_name: "RFDet-ci".to_owned(),
            pf: false,
            ckpt: crate::checkpoint::CkptCollector::default(),
            kendo,
            meta: MetaSpace::with_max_slices(
                cfg.meta_capacity_bytes as usize,
                GC_THRESHOLD,
                cfg.meta_max_slices as usize,
            ),
            strips: StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            run,
            gc_host: AtomicU32::new(NO_HOST),
            gc_owed: AtomicBool::new(false),
        })
    }

    /// What a checkpoint of this run records, and what a checkpoint
    /// must have recorded to resume here: the run's input without its
    /// fault plan's kills (jitter decides the schedule; a kill is what
    /// recovery leaves out).
    pub(crate) fn ckpt_recording(&self) -> Recording {
        self.run.cfg.without_kills().recording(&self.backend_name)
    }

    /// Makes `tid`, blocked in `join`, the GC host unless another joiner
    /// already is; says whether it became the host.
    pub(crate) fn host_gc(&self, tid: Tid) -> bool {
        let won = self.gc_host.compare_exchange(NO_HOST, tid, SeqCst, SeqCst);
        won.is_ok()
    }

    /// Ends the host's term (it woke); publishers sweep inline again. A
    /// pass it was owed stays owed until the ex-host runs it.
    pub(crate) fn unhost_gc(&self) {
        self.gc_host.store(NO_HOST, SeqCst);
    }

    /// Hands a GC pass to the parked host: marks it owed and nudges the
    /// host, once per owed pass. `false` when no host is parked, and the
    /// caller runs the pass itself.
    pub(crate) fn owe_gc(&self) -> bool {
        let host = self.gc_host.load(SeqCst);
        if host == NO_HOST {
            return false;
        }
        if self.gc_owed.swap(true, SeqCst) || self.kendo.nudge(host) {
            return true;
        }
        // The host is already awake and will not take it.
        self.gc_owed.store(false, SeqCst);
        false
    }

    /// Whether a pass is owed to the host; the host clears it with
    /// [`Self::settle_gc`] once the pass has run, so publishes meanwhile
    /// neither re-owe nor re-nudge.
    pub(crate) fn gc_owed(&self) -> bool {
        self.gc_owed.load(SeqCst)
    }

    /// The host ran the owed pass.
    pub(crate) fn settle_gc(&self) {
        self.gc_owed.store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RfdetCtx;
    use rfdet_api::obs::Phase;
    use rfdet_api::{DmtCtx, DmtCtxExt, MutexId, ThreadFn};
    use std::sync::Arc;

    #[test]
    fn shared_construction_validates_config() {
        let s = RuntimeShared::new(&RunConfig::small()).expect("valid config");
        assert_eq!(s.meta.num_threads(), 0);
        assert_eq!(s.kendo.num_threads(), 0);
        assert!(s.strips.strip_size() > 0);
    }

    #[test]
    fn record_panic_keeps_first_message_and_aborts() {
        let s = RuntimeShared::new(&RunConfig::small()).expect("valid config");
        let _h = s.kendo.register(0);
        s.record_panic(0, Box::new("first"), None);
        s.record_panic(0, Box::new("second"), None);
        assert!(s.kendo.aborted());
        let err = s.run.take_run_error("test").unwrap();
        assert_eq!(err.report().message, "first");
    }

    /// Where one run's GC passes ran, read off the `Phase::Gc` samples.
    #[derive(Debug)]
    struct GcSplit {
        on_workers: u64,
        on_main: u64,
        passes: u64,
        peak_meta_bytes: u64,
    }

    /// Runs `root` on a metered main context with `meta_max_slices`, then
    /// joins the workers' OS threads, so their samples are in the sink
    /// before main's recorder merges into it.
    fn gc_split(meta_max_slices: u64, root: impl FnOnce(&mut RfdetCtx)) -> GcSplit {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg.meta_max_slices = meta_max_slices;
        cfg.metrics = true;
        let shared = Arc::new(RuntimeShared::new(&cfg).expect("valid config"));
        let mut main = RfdetCtx::new_main(Arc::clone(&shared));
        root(&mut main);
        for tid in 1..shared.kendo.num_threads() {
            let os = shared.run.claim(tid as Tid).expect("a spawned worker");
            os.join().expect("the worker exited cleanly");
        }
        let sink = shared.run.obs_sink.clone().expect("metrics on");
        let timed = || {
            sink.snapshot("RFDet")
                .phase(Phase::Gc)
                .expect("phase")
                .count
        };
        let on_workers = timed();
        drop(main);
        let stats = shared.meta.stats.snapshot();
        GcSplit {
            on_workers,
            on_main: timed() - on_workers,
            passes: stats.gc_count,
            peak_meta_bytes: stats.peak_meta_bytes,
        }
    }

    /// 1 000 critical sections, each publishing one slice. With `host`,
    /// each waits until the pass its publish owed has run, so a parked
    /// main sweeps at every crossing even when other tests hold the CPUs.
    fn locker(slot: u64, host: Option<Arc<RuntimeShared>>) -> ThreadFn {
        Box::new(move |ctx: &mut dyn DmtCtx| {
            for k in 1..=1000u64 {
                ctx.lock(MutexId(0));
                ctx.write(4096 + 8 * slot, k);
                ctx.unlock(MutexId(0));
                while host.as_ref().is_some_and(|s| s.gc_owed()) {
                    std::thread::yield_now();
                }
            }
        })
    }

    #[test]
    fn every_gc_pass_runs_on_main_while_it_is_parked_in_join() {
        // The worker's first op runs before main's join turn at the
        // latest, so every threshold crossing finds main parked.
        let split = gc_split(64, |ctx| {
            let w = ctx.spawn(locker(0, Some(Arc::clone(&ctx.shared))));
            ctx.join(w);
            assert_eq!(ctx.read::<u64>(4096), 1000);
        });
        assert!(split.passes > 0, "{split:?}");
        assert_eq!(split.on_workers, 0, "a worker swept: {split:?}");
        assert_eq!(split.on_main, split.passes, "{split:?}");
        // Main pre-merges right before each pass, so the pass collects
        // below its fresh clock, not the one of the pass before: each
        // pass empties the store, and the next is owed 64 slices later.
        // Sweeping inline on the worker took 30 passes here.
        assert!(split.passes <= 1000 / 64 + 1, "{split:?}");
    }

    #[test]
    fn with_no_joiner_parked_passes_run_inline_and_metadata_stays_bounded() {
        // Main runs critical sections of its own beside the workers', so
        // for most of the run nothing is parked in `join`.
        let run = |max_slices| {
            gc_split(max_slices, |ctx| {
                let ws: Vec<_> = (1..=2).map(|i| ctx.spawn(locker(i, None))).collect();
                locker(0, None)(ctx);
                for w in ws {
                    ctx.join(w);
                }
                let sums: Vec<u64> = (0..3).map(|i| ctx.read(4096 + 8 * i)).collect();
                assert_eq!(sums, [1000; 3]);
            })
        };
        let bounded = run(64);
        let unbounded = run(1 << 20);
        assert!(bounded.on_workers > 0, "{bounded:?}");
        assert_eq!(bounded.on_workers + bounded.on_main, bounded.passes);
        assert_eq!(unbounded.passes, 0, "{unbounded:?}");
        assert!(
            bounded.peak_meta_bytes * 4 < unbounded.peak_meta_bytes,
            "{bounded:?} against {unbounded:?}"
        );
    }
}
