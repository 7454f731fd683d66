//! The [`NativeBackend`] entry point.

use crate::ctx::{NativeCtx, NativeShared};
use rfdet_api::{DmtBackend, RunConfig, ThreadFn, TracedRun};
use std::sync::Arc;

/// Conventional nondeterministic multithreading ("pthreads" in the
/// paper's figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeBackend;

impl DmtBackend for NativeBackend {
    fn name(&self) -> String {
        "pthreads".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        let shared = match NativeShared::new(cfg) {
            Ok(shared) => Arc::new(shared),
            Err(e) => return TracedRun::rejected(&self.name(), &e),
        };
        let mut main = NativeCtx::new(Arc::clone(&shared));
        main.run_body(root);
        // Native has no race detector; never-joined threads are harvested
        // by the tail so the run quiesces.
        shared.run.finish(
            &self.name(),
            main,
            |_| Default::default(),
            || (shared.meta.collect_output(), shared.meta.stats.snapshot()),
        )
    }
}
