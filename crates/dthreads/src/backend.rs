//! The two backends over the lockstep engine — [`DthreadsBackend`] and
//! [`QuantumBackend`] — and the driver they share.

use crate::ctx::DtCtx;
use crate::engine::{Engine, EngineMode};
use rfdet_api::{DmtBackend, RunConfig, ThreadFn, TracedRun};
use std::sync::Arc;

/// Drives one complete run of the lockstep engine in `mode` (`backend`
/// names the caller in failure reports).
fn run_lockstep(cfg: &RunConfig, mode: EngineMode, backend: &str, root: ThreadFn) -> TracedRun {
    let engine = match Engine::new(cfg, mode) {
        Ok(engine) => Arc::new(engine),
        Err(e) => return TracedRun::rejected(backend, &e),
    };
    let (tid, image) = engine.register_main();
    let mut main = DtCtx::new(Arc::clone(&engine), tid, image);
    main.run_body(root);
    engine.run.finish(
        backend,
        main,
        |_| engine.take_races(),
        || {
            // Report the global store's materialized size as the run's
            // shared footprint (workloads lay data out directly, so
            // allocator byte counts alone would under-report).
            engine.meta.stats.shared_bytes.fetch_add(
                engine.global_store_bytes(),
                std::sync::atomic::Ordering::Relaxed,
            );
            (engine.meta.collect_output(), engine.meta.stats.snapshot())
        },
    )
}

/// The DThreads-model backend: strong determinism via isolated threads,
/// a global fence at every synchronization operation, and serial
/// token-order commits (paper §2; compared against throughout §5).
#[derive(Clone, Copy, Debug, Default)]
pub struct DthreadsBackend;

impl DmtBackend for DthreadsBackend {
    fn name(&self) -> String {
        "DThreads".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        run_lockstep(cfg, EngineMode::SyncOnly, &self.name(), root)
    }
}

/// The CoreDet/DMP-style quantum backend ("CoreDet-q" in the experiment
/// tables): the same engine, but a thread's parallel interval also ends
/// when it exhausts `cfg.quantum_ticks`, so the whole fleet executes in
/// bulk-synchronous rounds separated by global barriers even when
/// nobody synchronizes. This is the design whose two overheads
/// (unnecessary serialization of non-communicating threads, imbalance
/// between uneven quanta) motivate DLRC; the `ablation_barriers`
/// experiment measures them directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuantumBackend;

impl DmtBackend for QuantumBackend {
    fn name(&self) -> String {
        "CoreDet-q".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        run_lockstep(
            cfg,
            EngineMode::Quantum(cfg.quantum_ticks),
            &self.name(),
            root,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{DmtCtx, DmtCtxExt, MutexId};

    #[test]
    fn quantum_rounds_fire_without_synchronization() {
        let mut cfg = RunConfig::small();
        cfg.quantum_ticks = 100;
        let out = QuantumBackend.run_expect(
            &cfg,
            Box::new(|ctx| {
                let h = ctx.spawn(Box::new(|ctx| {
                    // Pure compute: no sync ops, but plenty of ticks.
                    for _ in 0..50 {
                        ctx.tick(50);
                    }
                    ctx.write::<u64>(64, 1);
                }));
                ctx.join(h);
                let v: u64 = ctx.read(64);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"1");
        // 2500 ticks / 100-tick quantum → at least ~20 forced fences.
        assert!(
            out.stats.global_fences > 10,
            "expected quantum fences, got {}",
            out.stats.global_fences
        );
    }

    #[test]
    fn results_match_dthreads_for_locked_counter() {
        fn root(ctx: &mut dyn DmtCtx) {
            let m = MutexId(0);
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        for _ in 0..30 {
                            ctx.lock(m);
                            let v: u64 = ctx.read(0);
                            ctx.write(0, v + 1);
                            ctx.unlock(m);
                        }
                    }))
                })
                .collect();
            for h in hs {
                ctx.join(h);
            }
            let v: u64 = ctx.read(0);
            ctx.emit_str(&v.to_string());
        }
        let q = QuantumBackend.run_expect(&RunConfig::small(), Box::new(root));
        let d = DthreadsBackend.run_expect(&RunConfig::small(), Box::new(root));
        assert_eq!(q.output, b"90");
        assert_eq!(d.output, b"90");
    }
}
