//! The backend abstraction: anything that can execute a DMT workload.

use crate::{
    ConfigError, FailureKind, FailureReport, FaultPlan, RaceReport, RunConfig, RunError, Stats,
    ThreadFn,
};
use rfdet_trace::{ddmin, Checkpoint, FaultSpec, RunTrace};

/// The result of running a workload to completion under some backend.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Per-thread output streams concatenated in thread-ID order.
    pub output: Vec<u8>,
    /// Aggregated profiling counters.
    pub stats: Stats,
    /// Metrics rollup, present only when [`RunConfig::metrics`] was on.
    /// Deliberately excluded from [`Self::output_digest`]: timing varies
    /// run to run, program results must not.
    pub metrics: Option<Box<rfdet_obs::MetricsSnapshot>>,
    /// Data races detected during the run, present only when
    /// [`RunConfig::detect_races`] was on, in canonical order (sorted by
    /// address, then site keys). Excluded from [`Self::output_digest`]
    /// like `metrics` — detection is an observer, and the digest-neutral
    /// invariant (detector on/off runs produce identical digests) is
    /// pinned by the race test suite.
    pub races: Vec<RaceReport>,
}

impl RunOutput {
    /// A stable 64-bit digest of the output bytes (FNV-1a), used by the
    /// determinism tests to compare runs cheaply.
    #[must_use]
    pub fn output_digest(&self) -> u64 {
        crate::digest::fnv1a(&self.output)
    }
}

/// A run result together with its flight-recorder trace (present only
/// when [`RunConfig::trace`] was on).
#[derive(Debug)]
pub struct TracedRun {
    /// The run's outcome.
    pub result: Result<RunOutput, RunError>,
    /// The recorded trace. For failed runs it has already been persisted
    /// (best effort) and the report's `trace_path` stamped.
    pub trace: Option<Box<RunTrace>>,
    /// Checkpoints captured during the run, in epoch order. Non-empty
    /// only on backends with [`DmtBackend::supports_checkpoints`] and
    /// [`RunConfig::checkpoint_every`] `> 0`.
    pub checkpoints: Vec<Checkpoint>,
    /// Non-fatal degradations (e.g. a trace or checkpoint that could not
    /// be persisted). Warnings never change results or digests — they
    /// exist so robustness is visible instead of silent.
    pub warnings: Vec<String>,
}

impl TracedRun {
    /// The result of a run `backend` refused to start because `err`
    /// rejects its configuration: the typed error, nothing recorded.
    #[must_use]
    pub fn rejected(backend: &str, err: &ConfigError) -> Self {
        let report = FailureReport {
            backend: backend.to_owned(),
            kind: FailureKind::InvalidConfig,
            tid: 0,
            message: err.to_string(),
            culprit: None,
            wait_graph: Vec::new(),
            cycle: Vec::new(),
            peers: Vec::new(),
            trace_path: None,
            warnings: Vec::new(),
        };
        Self {
            result: Err(report.into()),
            trace: None,
            checkpoints: Vec::new(),
            warnings: Vec::new(),
        }
    }
}

/// The outcome of re-executing a recorded trace.
#[derive(Debug)]
pub struct Replay {
    /// The replay run's own outcome.
    pub result: Result<RunOutput, RunError>,
    /// The replay's own recording (replays re-record so schedules can be
    /// compared).
    pub trace: Option<Box<RunTrace>>,
    /// Whether the replay reproduced the recorded terminal digest
    /// (`report_digest` for failures, `output_digest` for clean runs).
    pub digest_match: bool,
    /// Whether the culprit thread's recorded event stream reproduced
    /// exactly ([`RunTrace::culprit_events`]). `None` when either side
    /// recorded no schedule.
    pub schedule_match: Option<bool>,
}

impl Replay {
    /// `true` when the replay verifiably reproduced the recorded run:
    /// the digest matches and the schedule comparison, when possible,
    /// agrees.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        self.digest_match && self.schedule_match != Some(false)
    }
}

/// A deterministic-multithreading execution engine.
///
/// Implementations: `rfdet-core` (the paper), `rfdet-dthreads` (DThreads
/// and the quantum design), `rfdet-native`. Each spins up a *main thread*
/// (tid 0) running `root`; the root spawns workers through its
/// [`crate::DmtCtx::spawn`].
pub trait DmtBackend: Send + Sync {
    /// Human-readable backend name, used in experiment tables
    /// ("pthreads", "RFDet-ci", "RFDet-pf", "DThreads", "CoreDet-q").
    fn name(&self) -> String;

    /// Whether the backend guarantees deterministic execution
    /// (strong determinism: identical results even with data races).
    fn is_deterministic(&self) -> bool;

    /// Whether the backend can capture deterministic checkpoints
    /// ([`RunConfig::checkpoint_every`]) and restore from them. Only the
    /// core backend implements the consistent-cut protocol; the others
    /// report `false` and ignore the checkpoint knobs, and the
    /// conformance matrix pins that split.
    fn supports_checkpoints(&self) -> bool {
        false
    }

    /// Whether the backend implements happens-before race detection
    /// ([`RunConfig::detect_races`]). All deterministic backends do; the
    /// native backend has no happens-before substrate to check against
    /// and reports `false` (the conformance matrix pins that split).
    fn supports_race_detection(&self) -> bool {
        false
    }

    /// Runs `root` as the main thread, blocks until the whole thread
    /// tree has finished or the run fails, and — when
    /// [`RunConfig::trace`] is on — returns the flight-recorder trace
    /// alongside the result. Failing traced runs persist their trace
    /// before returning (see [`rfdet_trace::persist`]).
    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun;

    /// Runs `root` as the main thread and blocks until the whole thread
    /// tree has finished or the run fails.
    ///
    /// # Errors
    /// Returns a [`RunError`] — carrying a reproducible
    /// [`crate::FailureReport`] — when the configuration is invalid,
    /// when any thread panics, when every live thread is provably
    /// blocked on another, or when the run makes no progress for the
    /// configured wall-clock bound.
    fn run(&self, cfg: &RunConfig, root: ThreadFn) -> Result<RunOutput, RunError> {
        self.run_traced(cfg, root).result
    }

    /// [`Self::run`], panicking with the rendered failure report on
    /// error. The convenience entry point for tests, benches and
    /// examples that expect a clean run.
    ///
    /// # Panics
    /// Panics with [`crate::FailureReport::render`] when the run fails.
    fn run_expect(&self, cfg: &RunConfig, root: ThreadFn) -> RunOutput {
        match self.run(cfg, root) {
            Ok(out) => out,
            Err(e) => panic!("{}", e.report().render()),
        }
    }

    /// Re-executes a recorded run: rebuilds the trace's configuration
    /// (config, seed, fault plan), runs `root` under it with recording
    /// on, and compares the terminal digest and the culprit thread's
    /// event stream against the recording. `root` must be the same
    /// workload the trace was recorded from (the trace stores only its
    /// name — closures do not serialize).
    fn replay(&self, trace: &RunTrace, root: ThreadFn) -> Replay {
        let cfg = RunConfig::from_recording(&trace.recording);
        let rerun = self.run_traced(&cfg, root);
        let digest = match &rerun.result {
            Ok(out) => out.output_digest(),
            Err(e) => e.report().report_digest(),
        };
        let digest_match = digest == trace.failure.report_digest;
        let schedule_match = match &rerun.trace {
            Some(t) if !t.events.is_empty() && !trace.events.is_empty() => {
                Some(t.culprit_events() == trace.culprit_events())
            }
            _ => None,
        };
        Replay {
            result: rerun.result,
            trace: rerun.trace,
            digest_match,
            schedule_match,
        }
    }

    /// Delta-debugs a failing trace's fault plan down to a 1-minimal
    /// sublist that still reproduces the same [`crate::FailureKind`],
    /// re-running the workload once per probe (`make_root` must hand out
    /// a fresh root closure each time). Returns the trace of a final
    /// verification run under the minimized plan — strictly smaller than
    /// the recorded one — or `None` when the trace did not fail, the
    /// plan cannot shrink, or the verification run diverged.
    fn shrink_plan(
        &self,
        trace: &RunTrace,
        make_root: &mut dyn FnMut() -> ThreadFn,
    ) -> Option<Box<RunTrace>> {
        if !trace.failure.is_failure() {
            return None;
        }
        let base = RunConfig::from_recording(&trace.recording);
        let kind = trace.failure.kind;
        let mut oracle = |subset: &[FaultSpec]| {
            let mut cfg = base.clone();
            // Probes skip recording: no event collection, no disk churn.
            cfg.trace = None;
            cfg.fault_plan = FaultPlan::from_specs(subset.to_vec());
            match self.run_traced(&cfg, make_root()).result {
                Err(e) => Some(e.report().kind) == kind,
                Ok(_) => false,
            }
        };
        let faults = &trace.recording.faults;
        let min = ddmin(faults, &mut oracle);
        if min.len() >= faults.len() {
            return None;
        }
        // One last traced run under the minimized plan produces the
        // minimal trace (and persists it, as any failing traced run).
        let mut cfg = base;
        cfg.fault_plan = FaultPlan::from_specs(min);
        self.run_traced(&cfg, make_root())
            .trace
            .filter(|t| t.failure.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = RunOutput {
            output: b"hello".to_vec(),
            ..RunOutput::default()
        };
        let b = RunOutput {
            output: b"hello".to_vec(),
            ..RunOutput::default()
        };
        let c = RunOutput {
            output: b"hellp".to_vec(),
            ..RunOutput::default()
        };
        assert_eq!(a.output_digest(), b.output_digest());
        assert_ne!(a.output_digest(), c.output_digest());
    }

    #[test]
    fn empty_digest_is_fnv_offset_basis() {
        let empty = RunOutput::default();
        assert_eq!(empty.output_digest(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn races_never_enter_the_output_digest() {
        use crate::{AccessKind, RaceSite};
        let clean = RunOutput {
            output: b"result".to_vec(),
            ..RunOutput::default()
        };
        let mut racy = clean.clone();
        racy.races.push(RaceReport {
            addr: 0x1040,
            page: 1,
            offset: 0x40,
            first: RaceSite {
                tid: 1,
                sync_op: 3,
                kind: AccessKind::Write,
                clock: 0,
            },
            second: RaceSite {
                tid: 2,
                sync_op: 5,
                kind: AccessKind::Read,
                clock: 0,
            },
        });
        assert_eq!(
            clean.output_digest(),
            racy.output_digest(),
            "reports are observations, not results"
        );
    }
}
