//! Poison-based run supervision for the native baseline.
//!
//! The native backend has no arbitration protocol to abort, so
//! supervision is cooperative: a failed run flips the poison flag, and
//! every blocking wait polls it on a short period (`POLL`). A panic is
//! therefore observed by parked peers within ~10ms; runs that stall
//! without a panic trip the wall-clock wedge fallback
//! (`RunConfig::deadlock_after_ms`). Unlike the deterministic backends
//! there is no structural deadlock detector — without a logical clock
//! the blocked-set scan cannot be made stable — so deadlocks surface as
//! `Wedged` here.

use parking_lot::{Condvar, MutexGuard};
use rfdet_api::{ConfigError, FailureKind, Family, RunConfig, RunHarness, ThreadReport, Tid};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// Poll period of the supervised wait loop.
const POLL: Duration = Duration::from_millis(10);

/// Panic token used to tear down peers once the run is poisoned.
pub(crate) struct Poisoned;

/// Shared supervision state (one per run): the run harness — whose
/// failure slot stays first-writer-wins in *physical* order here, this
/// backend being nondeterministic by contract — plus the poison flag
/// that stops a failed run.
pub(crate) struct Supervision {
    pub run: RunHarness,
    wedge_after: Option<Duration>,
    poisoned: AtomicBool,
}

impl Supervision {
    pub fn new(cfg: &RunConfig) -> Result<Self, ConfigError> {
        Ok(Self {
            run: RunHarness::new(cfg, Family::Native)?,
            wedge_after: cfg.deadlock_after(),
            poisoned: AtomicBool::new(false),
        })
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(SeqCst)
    }

    /// Unwinds with a [`Poisoned`] token if the run has failed.
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            panic_any(Poisoned);
        }
    }

    /// The one supervised wait loop: blocks on `cv` until `done` holds
    /// for the guarded state, polling on a short period. A poisoned run
    /// unwinds the waiter with a [`Poisoned`] token, and a wait that
    /// outlives the wedge bound records a `Wedged` failure (then unwinds
    /// on the next poll).
    pub fn wait_until<T>(
        &self,
        cv: &Condvar,
        guard: &mut MutexGuard<'_, T>,
        tid: Tid,
        stuck: &str,
        done: impl Fn(&T) -> bool,
    ) {
        let deadline = self.wedge_after.map(|d| Instant::now() + d);
        while !done(guard) {
            self.check_poison();
            let timed_out = cv.wait_for(guard, POLL).timed_out();
            if timed_out && !done(guard) && deadline.is_some_and(|d| Instant::now() >= d) {
                self.record_wedge(tid, format!("native: thread {tid} stuck {stuck}"));
            }
        }
    }

    /// A worker (or the root) unwound. [`Poisoned`] tokens are the
    /// secondary unwinds of an already-failed run and only contribute
    /// peer diagnostics; anything else is a root-cause panic, which
    /// poisons the run so every polling wait unwinds.
    pub fn record_worker_panic(
        &self,
        tid: Tid,
        payload: Box<dyn std::any::Any + Send>,
        report: ThreadReport,
    ) {
        let root_cause = self.run.record_unwind(tid, payload, Some(report), |p, _| {
            (!p.is::<Poisoned>()).then_some(FailureKind::Panic)
        });
        if root_cause {
            self.poisoned.store(true, SeqCst);
        }
    }

    /// A wait loop outlived the wall-clock bound.
    pub fn record_wedge(&self, tid: Tid, message: String) {
        self.run.record_failure(
            FailureKind::Wedged,
            tid,
            message,
            None,
            Vec::new(),
            Vec::new(),
        );
        self.poisoned.store(true, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_failure_wins_and_poisons() {
        let sup = Supervision::new(&RunConfig::small()).expect("valid config");
        sup.record_worker_panic(1, Box::new("boom"), ThreadReport::default());
        sup.record_wedge(0, "late wedge".into());
        assert!(sup.is_poisoned());
        let err = sup
            .run
            .take_run_error("pthreads")
            .expect("failure recorded");
        let r = err.report();
        assert_eq!(r.kind, FailureKind::Panic);
        assert_eq!(r.message, "boom");
        assert_eq!(r.backend, "pthreads");
    }

    #[test]
    fn poisoned_tokens_only_add_peer_diagnostics() {
        let sup = Supervision::new(&RunConfig::small()).expect("valid config");
        sup.record_worker_panic(2, Box::new(Poisoned), ThreadReport::default());
        assert!(!sup.is_poisoned(), "a secondary unwind is not a root cause");
        assert!(sup.run.take_run_error("pthreads").is_none());
    }

    #[test]
    #[should_panic]
    fn check_poison_unwinds_once_poisoned() {
        let sup = Supervision::new(&RunConfig::small()).expect("valid config");
        sup.record_wedge(0, "stuck".into());
        sup.check_poison();
    }
}
