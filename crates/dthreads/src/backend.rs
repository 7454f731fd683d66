//! The [`DthreadsBackend`] entry point and the shared lockstep driver.

use crate::ctx::DtCtx;
use crate::engine::{Engine, EngineMode};
use rfdet_api::{DmtBackend, RunConfig, ThreadFn, TracedRun};
use std::sync::Arc;

/// Drives one complete run of the lockstep engine in `mode`. Shared by
/// the DThreads and quantum backends (`backend` names the caller in
/// failure reports).
pub fn run_lockstep(cfg: &RunConfig, mode: EngineMode, backend: &str, root: ThreadFn) -> TracedRun {
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
