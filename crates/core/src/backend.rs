//! The [`RfdetBackend`] entry point.

use crate::ctx::RfdetCtx;
use crate::shared::RuntimeShared;
use rfdet_api::{DmtBackend, RunConfig, ThreadFn, TracedRun};
use rfdet_trace::Checkpoint;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// How RFDet monitors memory modifications (paper §4.2 and Figure 7):
/// the one thing that tells [`RfdetBackend::ci`] from
/// [`RfdetBackend::pf`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorMode {
    /// Compile-time instrumentation (RFDet-ci): every instrumented store
    /// performs the cheap Figure-4 check — are the lines it touches
    /// already snapshotted in the current slice? — against the page's
    /// dirty-line mask. The instrumentation knows each store's address and
    /// length, so a slice snapshots and later diffs only the lines
    /// (`max(64, page_size / 64)` bytes) it stored to.
    Ci,
    /// Page protection (RFDet-pf): pages are write-protected at slice
    /// start; the first store to a page takes a simulated fault that pays
    /// `RfdetOpts::fault_cost_spins` before snapshotting (models the
    /// SIGSEGV trap + `mprotect` syscalls the paper measures as slower).
    /// A fault reveals the page, not the bytes, so the whole page is
    /// snapshotted and diffed, as in the paper.
    Pf,
}

/// The RFDet deterministic-multithreading backend.
///
/// Each [`DmtBackend::run`] call builds a fresh isolated runtime:
/// metadata space, Kendo arbitration state, and a main-thread context on
/// the calling thread. Worker threads are real OS threads; determinism
/// comes from the DLRC protocol, not from scheduling control.
#[derive(Clone, Copy, Debug)]
pub struct RfdetBackend {
    /// Store-monitoring strategy ("RFDet-ci" or "RFDet-pf").
    pub monitor: MonitorMode,
}

impl RfdetBackend {
    /// Backend monitoring stores by compile-time instrumentation.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            monitor: MonitorMode::Ci,
        }
    }

    /// Backend monitoring stores by page protection.
    #[must_use]
    pub fn pf() -> Self {
        Self {
            monitor: MonitorMode::Pf,
        }
    }
}

impl DmtBackend for RfdetBackend {
    fn name(&self) -> String {
        match self.monitor {
            MonitorMode::Ci => "RFDet-ci".to_owned(),
            MonitorMode::Pf => "RFDet-pf".to_owned(),
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_checkpoints(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        self.run_from(cfg, Start::Fresh(root), None)
    }
}

/// Where a core-backend run starts.
pub(crate) enum Start<'a> {
    /// From the beginning, with this root body on the main thread.
    Fresh(ThreadFn),
    /// At a checkpoint's cut, with every live thread on a fresh root body.
    Resume(&'a Checkpoint, &'a dyn Fn() -> ThreadFn),
}

impl RfdetBackend {
    /// The one entry to a core-backend run, fresh or resumed. With
    /// `stop_at`, the run stops cleanly once every participant has
    /// contributed to the checkpoint of that epoch — the end of a chain
    /// check ([`crate::replay_chain`], the only caller that sets it).
    pub(crate) fn run_from(
        &self,
        cfg: &RunConfig,
        start: Start<'_>,
        stop_at: Option<u64>,
    ) -> TracedRun {
        let mut shared = match RuntimeShared::new(cfg) {
            Ok(shared) => shared,
            Err(e) => return TracedRun::rejected(&self.name(), &e),
        };
        shared.backend_name = self.name();
        shared.pf = self.monitor == MonitorMode::Pf;
        shared.ckpt.stop_at = stop_at;
        let (shared, main) = match start {
            Start::Fresh(root) => {
                let shared = Arc::new(shared);
                let mut main = RfdetCtx::new_main(Arc::clone(&shared));
                main.run_body(root);
                (shared, main)
            }
            Start::Resume(ckpt, root) => crate::resume::restore(shared, ckpt, root),
        };
        teardown(&self.name(), &shared, main)
    }
}

/// The shared tail of every core-backend run (fresh or resumed): the
/// harness's run tail, plus what only this backend has — the detector
/// lives on the main context, the arbitration counters on the Kendo
/// state, and the checkpoint collector holds the captured chain.
fn teardown(name: &str, shared: &Arc<RuntimeShared>, main: RfdetCtx) -> TracedRun {
    let mut run = shared.run.finish(
        name,
        main,
        // By the time the workers are joined every one of their slices
        // has been applied at main, so the report list is sealed; the
        // metadata space and Kendo add the counters only they keep.
        |main| {
            let stats = &shared.run.stats;
            stats.merge(&shared.meta.stats.snapshot());
            let (scans, wakes, parks) = shared.kendo.handoff_counters();
            stats.handoff_scans.fetch_add(scans, Relaxed);
            stats.handoff_wakes.fetch_add(wakes, Relaxed);
            stats.turn_parks.fetch_add(parks, Relaxed);
            main.detect
                .take()
                .map_or_else(Default::default, |d| d.finish())
        },
    );
    let (checkpoints, warnings) = shared.ckpt.take_results();
    if let Err(e) = &mut run.result {
        e.report_mut().warnings.extend(warnings.iter().cloned());
    }
    run.checkpoints = checkpoints;
    run.warnings.extend(warnings);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{DmtCtx as _, DmtCtxExt, FailureKind, MutexId};

    fn small() -> RunConfig {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg
    }

    #[test]
    fn names_reflect_monitor_mode() {
        assert_eq!(RfdetBackend::ci().name(), "RFDet-ci");
        assert_eq!(RfdetBackend::pf().name(), "RFDet-pf");
        assert!(RfdetBackend::ci().is_deterministic());
    }

    #[test]
    fn single_threaded_run_produces_output() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                ctx.write::<u64>(128, 9);
                let v: u64 = ctx.read(128);
                ctx.emit_str(&format!("v={v}"));
            }),
        );
        assert_eq!(out.output, b"v=9");
        assert_eq!(out.stats.stores, 1);
        assert_eq!(out.stats.loads, 1);
    }

    #[test]
    fn spawn_join_propagates_child_writes() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                let h = ctx.spawn(Box::new(|ctx| {
                    ctx.write::<u64>(256, 1234);
                }));
                ctx.join(h);
                let v: u64 = ctx.read(256);
                ctx.emit_str(&format!("{v}"));
            }),
        );
        assert_eq!(out.output, b"1234");
        assert_eq!(out.stats.forks, 1);
        assert_eq!(out.stats.joins, 1);
    }

    #[test]
    fn child_inherits_parent_memory_at_fork() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                ctx.write::<u64>(64, 77);
                let h = ctx.spawn(Box::new(|ctx| {
                    let v: u64 = ctx.read(64);
                    ctx.emit_str(&format!("child={v};"));
                }));
                ctx.write::<u64>(64, 88); // after fork: child must not see
                ctx.join(h);
                ctx.emit_str("done;");
            }),
        );
        // Output streams concatenate in tid order: main (0) then child (1).
        assert_eq!(out.output, b"done;child=77;");
    }

    #[test]
    fn mutex_critical_sections_compose() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                let m = MutexId(1);
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        ctx.spawn(Box::new(move |ctx| {
                            for _ in 0..50 {
                                ctx.lock(m);
                                let v: u64 = ctx.read(512);
                                ctx.tick(5);
                                ctx.write(512, v + 1);
                                ctx.unlock(m);
                            }
                        }))
                    })
                    .collect();
                for h in handles {
                    ctx.join(h);
                }
                let v: u64 = ctx.read(512);
                ctx.emit_str(&format!("{v}"));
            }),
        );
        assert_eq!(out.output, b"150");
        assert_eq!(out.stats.locks, 150);
        assert_eq!(out.stats.unlocks, 150);
    }

    /// Runs a mixed locked/racy workload on a hand-built runtime (the
    /// backend doesn't expose its `RuntimeShared`) and returns the full
    /// published slice stream as `(tid, seq, mods)` triples.
    fn published_mods(seed: Option<u64>) -> Vec<(u32, u64, Vec<rfdet_mem::ModRun>)> {
        let mut cfg = small();
        cfg.jitter_seed = seed;
        // Headroom: no GC pruning mid-run, by bytes or by slice count.
        cfg.space_bytes = 64 << 20;
        cfg.meta_max_slices = 1 << 20;
        let shared = Arc::new(RuntimeShared::new(&cfg).expect("valid config"));
        let mut main = RfdetCtx::new_main(Arc::clone(&shared));
        let m = MutexId(3);
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                main.spawn(Box::new(move |ctx| {
                    for k in 0..40u64 {
                        ctx.lock(m);
                        let v: u64 = ctx.read(2048);
                        ctx.write(2048, v.wrapping_mul(31).wrapping_add(i + k));
                        ctx.unlock(m);
                        // Racy unlocked traffic on a second page.
                        ctx.write(6144 + 8 * i, k + 1);
                        ctx.tick(i + 1);
                    }
                }))
            })
            .collect();
        for h in handles {
            main.join(h);
        }
        main.on_exit();
        let _ = shared.run.finish("test", main, |_| Default::default());
        let mut all = Vec::new();
        for tid in 0..4 {
            for s in shared.meta.snapshot_list(tid) {
                all.push((s.tid, s.seq, crate::slices::tests::boxed(&s.mods)));
            }
        }
        all
    }

    /// Determinism at the metadata layer: the published `ModRun` stream —
    /// not just program output — must be bit-identical across jittered
    /// schedules. Identical output can mask divergent propagation;
    /// identical run lists cannot. This also pins the chunked diff kernel
    /// and snapshot pooling as schedule-independent.
    #[test]
    fn published_mod_run_lists_are_identical_across_jittered_schedules() {
        let baseline = published_mods(None);
        assert!(
            baseline.len() > 100,
            "workload must publish a real slice stream, got {} slices",
            baseline.len()
        );
        for seed in [4u64, 5, 42] {
            assert_eq!(
                published_mods(Some(seed)),
                baseline,
                "jitter seed {seed} changed the published ModRun stream"
            );
        }
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let err = RfdetBackend::ci()
            .run(
                &small(),
                Box::new(|ctx| {
                    let h = ctx.spawn(Box::new(|_ctx| {
                        panic!("worker exploded");
                    }));
                    ctx.join(h);
                }),
            )
            .expect_err("worker panic must fail the run");
        assert_eq!(err.kind(), FailureKind::Panic);
        let r = err.report();
        assert_eq!(r.tid, 1, "the worker, not the joining main thread");
        assert_eq!(r.message, "worker exploded");
        assert!(r.culprit.is_some(), "culprit state captured");
    }
}
