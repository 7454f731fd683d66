//! Per-run harness state: resolved config, sinks, OS handles, retired
//! threads' output and counters, the failure slot, the stop protocol and
//! the run tail.

use super::ThreadHarness;
use crate::{
    AtomicStats, ConfigError, FailureKind, FailureReport, FaultPlan, RaceReport, RunConfig,
    RunError, RunOutput, ThreadReport, Tid, TracedRun, WaitEdge,
};
use parking_lot::Condvar;
use rfdet_obs::ObsSink;
use rfdet_trace::{persist, FailureSummary, RunTrace, TraceSink};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll period of [`RunHarness::wait_until`].
pub(super) const POLL: Duration = Duration::from_millis(10);

/// The unwind payload of a thread torn down because the run has already
/// failed ([`RunHarness::check_stop`]): a secondary unwind, never a root
/// cause.
#[derive(Debug)]
pub struct Stopped;

/// The unwind payload of a fault the run's [`FaultPlan`] injects (a
/// planned sync-op panic or allocation failure): its canonical message,
/// which the run's typed report carries.
#[derive(Debug)]
pub struct InjectedFault(pub String);

/// Installs, once per process, the panic-hook filter that keeps the
/// harness's own caught unwinds off stderr: [`Stopped`] (it printed
/// `Box<dyn Any>`) and [`InjectedFault`] (the report says it already).
/// A program's own panic still prints.
fn filter_stopped_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !quiet_unwind(info.payload()) {
                prev(info);
            }
        }));
    });
}

/// `true` for the unwinds [`filter_stopped_unwinds`] keeps off stderr.
pub(super) fn quiet_unwind(payload: &(dyn Any + Send)) -> bool {
    payload.is::<Stopped>() || payload.is::<InjectedFault>()
}

/// The harness mutexes guard plain data that stays coherent when some
/// unrelated panic unwinds past a guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a printable message from a panic payload.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(InjectedFault(s)) = payload.downcast_ref() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Everything one run shares across its threads that is not the
/// backend's ordering or memory machinery.
#[derive(Debug)]
pub struct RunHarness {
    /// The caller's configuration, validated: the one copy every layer
    /// of the run reads.
    pub cfg: RunConfig,
    pub(super) plan: Arc<FaultPlan>,
    /// The flight-recorder sink — `Some` exactly when the config asks for
    /// a recording. Public for events no thread context records (wake
    /// taps).
    pub trace_sink: Option<Arc<TraceSink>>,
    /// The metrics sink — `Some` exactly when the config asks for
    /// metrics. Public for phases no thread context times (serial
    /// sections).
    pub obs_sink: Option<Arc<ObsSink>>,
    /// OS join handles of spawned threads, harvested by [`Self::finish`].
    handles: Mutex<HashMap<Tid, JoinHandle<()>>>,
    /// The run's counter aggregate: retired threads' [`ThreadHarness::stats`]
    /// plus the counters no thread owns, added directly.
    pub stats: AtomicStats,
    /// Retired threads' output streams, by tid.
    outputs: Mutex<BTreeMap<Tid, Vec<u8>>>,
    /// The root cause. First writer wins; `backend` is filled in at
    /// teardown.
    failure: Mutex<Option<FailureReport>>,
    /// Best-effort states of threads that unwound *after* the root cause
    /// was recorded (excluded from the report digest).
    peers: Mutex<BTreeMap<Tid, ThreadReport>>,
    /// Set once a failure is in the slot: the run is over, every thread
    /// unwinds with [`Stopped`] at its next [`Self::check_stop`].
    stopped: AtomicBool,
    /// Wall-clock bound on one supervised wait
    /// ([`RunConfig::deadlock_after`]).
    wedge_after: Option<Duration>,
}

impl RunHarness {
    /// Validates `cfg` and creates the sinks it asks for.
    ///
    /// # Errors
    /// The [`ConfigError`] of an invalid configuration
    /// ([`RunConfig::validate`]); the backend returns it as
    /// [`TracedRun::rejected`].
    pub fn new(cfg: &RunConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        filter_stopped_unwinds();
        Ok(Self {
            plan: Arc::new(cfg.fault_plan.clone()),
            trace_sink: cfg.trace.as_ref().map(|_| Arc::default()),
            obs_sink: cfg.metrics.then(Arc::default),
            handles: Mutex::default(),
            stats: AtomicStats::default(),
            outputs: Mutex::default(),
            failure: Mutex::default(),
            peers: Mutex::default(),
            stopped: AtomicBool::new(false),
            wedge_after: cfg.deadlock_after(),
            cfg: cfg.clone(),
        })
    }

    /// Hands the harness a spawned thread's OS handle; [`Self::finish`]
    /// joins whatever was not claimed back.
    pub fn adopt(&self, tid: Tid, handle: JoinHandle<()>) {
        lock(&self.handles).insert(tid, handle);
    }

    /// Claims `tid`'s OS handle back (a backend whose `join` is the OS
    /// join). `None` when unknown or already claimed.
    #[must_use]
    pub fn claim(&self, tid: Tid) -> Option<JoinHandle<()>> {
        lock(&self.handles).remove(&tid)
    }

    /// A thread's exit op: takes its output stream and folds its counters
    /// into [`Self::stats`] — where the deterministic backends order it,
    /// so a later turn's [`Self::output_of`] sees exactly the exited.
    pub fn retire(&self, h: &mut ThreadHarness) {
        self.retire_output(h.tid, std::mem::take(&mut h.output));
        self.stats.merge(&std::mem::take(&mut h.stats));
    }

    /// The output half of [`Self::retire`], for a restored run's threads
    /// that had exited at its checkpoint.
    pub fn retire_output(&self, tid: Tid, output: Vec<u8>) {
        lock(&self.outputs).insert(tid, output);
    }

    /// Retired thread `tid`'s output stream (empty before it retires).
    #[must_use]
    pub fn output_of(&self, tid: Tid) -> Vec<u8> {
        lock(&self.outputs).get(&tid).cloned().unwrap_or_default()
    }

    /// `true` once a failure has been recorded.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(SeqCst)
    }

    /// Unwinds with a [`Stopped`] token if the run has failed.
    pub fn check_stop(&self) {
        if self.is_stopped() {
            panic_any(Stopped);
        }
    }

    /// The one supervised wait loop: blocks on `cv` while `pending`
    /// reads a progress generation off the guarded state (`None` once the
    /// wait is over), polling on a short period — so a stopped run
    /// unwinds the waiter with a [`Stopped`] token within `POLL` even if
    /// nobody notifies `cv`. The wedge bound measures *quiet* time: every
    /// caller bumps the generation under the mutex when a peer makes
    /// progress, and a timed-out poll that finds it moved restarts the
    /// bound, notified or not — so a thread parked for long (a join, a
    /// barrier) while its peers keep running is not wedged. A wait whose
    /// generation stays put for the bound records a `Wedged` failure with
    /// the message and wait-for graph `stuck` reads off the guarded
    /// state, and unwinds.
    pub fn wait_until<T>(
        &self,
        cv: &Condvar,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        tid: Tid,
        pending: impl Fn(&T) -> Option<u64>,
        stuck: impl Fn(&T) -> (String, Vec<WaitEdge>),
    ) {
        // Native takes this path on every lock, contended or not, and is
        // the denominator of every slowdown: one clock read on entry
        // (ROADMAP, open item 8) and none on a notified wake-up — only a
        // timed-out poll reads the clock.
        let mut deadline = self.wedge_after.map(|d| Instant::now() + d);
        let (mut seen, mut timed_out) = (pending(guard), false);
        while let Some(now) = pending(guard) {
            if timed_out && seen != Some(now) {
                seen = Some(now);
                deadline = self.wedge_after.map(|d| Instant::now() + d);
            } else if timed_out && deadline.is_some_and(|d| Instant::now() >= d) {
                let (message, wait_graph) = stuck(guard);
                self.record_failure(
                    FailureKind::Wedged,
                    tid,
                    message,
                    None,
                    wait_graph,
                    Vec::new(),
                );
            }
            self.check_stop();
            timed_out = cv.wait_for(guard, POLL).timed_out();
        }
    }

    /// Records a failure and stops the run. The first one is the run's
    /// root cause; a later one only contributes its culprit state as a
    /// peer diagnostic. What is left to the backend is waking whichever
    /// of its sleepers do not poll [`Self::is_stopped`].
    pub fn record_failure(
        &self,
        kind: FailureKind,
        tid: Tid,
        message: String,
        culprit: Option<ThreadReport>,
        wait_graph: Vec<WaitEdge>,
        cycle: Vec<Tid>,
    ) {
        let mut slot = lock(&self.failure);
        if slot.is_none() {
            *slot = Some(FailureReport {
                backend: String::new(),
                kind,
                tid,
                message,
                culprit,
                wait_graph,
                cycle,
                peers: Vec::new(),
                trace_path: None,
                warnings: Vec::new(),
            });
        } else if let Some(c) = culprit {
            lock(&self.peers).entry(tid).or_insert(c);
        }
        drop(slot);
        self.stopped.store(true, SeqCst);
    }

    /// Records a structural deadlock: every one of the `live` remaining
    /// threads is blocked, `wait_graph` holds one edge per blocked thread
    /// sorted by waiter, `tid` is the culprit the backend names. The
    /// cycle and the message derive from the graph, which is read off
    /// deterministic queue state, so the report reproduces across reruns.
    pub fn record_deadlock(&self, tid: Tid, live: usize, wait_graph: Vec<WaitEdge>) {
        let cycle = FailureReport::find_cycle(&wait_graph);
        let message = if cycle.is_empty() {
            format!("all {live} live threads blocked with no possible waker")
        } else {
            let cyc: Vec<String> = cycle.iter().map(|t| format!("t{t}")).collect();
            format!("wait-for cycle {}", cyc.join(" -> "))
        };
        self.record_failure(FailureKind::Deadlock, tid, message, None, wait_graph, cycle);
    }

    /// Records a thread's unwind as a root cause of `kind`, with the
    /// payload's message. A [`Stopped`] payload, or `kind` `None` (the
    /// backend recognised its own arbitration's stop token), is the
    /// secondary unwind of an already-failed run and only contributes
    /// `report` as a peer diagnostic.
    pub fn record_unwind(
        &self,
        tid: Tid,
        payload: Box<dyn Any + Send>,
        report: Option<ThreadReport>,
        kind: Option<FailureKind>,
    ) {
        match kind.filter(|_| !payload.is::<Stopped>()) {
            Some(kind) => {
                let message = payload_message(payload.as_ref());
                self.record_failure(kind, tid, message, report, Vec::new(), Vec::new());
            }
            None => {
                if let Some(r) = report {
                    lock(&self.peers).entry(tid).or_insert(r);
                }
            }
        }
    }

    /// Assembles the final [`RunError`] at teardown, if the run failed.
    pub fn take_run_error(&self, backend: &str) -> Option<RunError> {
        let mut f = lock(&self.failure).take()?;
        f.backend = backend.to_owned();
        let culprit = f.tid;
        f.peers = std::mem::take(&mut *lock(&self.peers))
            .into_iter()
            .filter(|&(t, _)| t != culprit)
            .map(|(_, r)| r)
            .collect();
        Some(f.into())
    }

    /// The run tail, once the main thread's body has returned or
    /// unwound. In order: joins every adopted OS thread (children may
    /// keep spawning while we join, so until the map stays empty —
    /// workers catch their own panics, so the joins cannot fail); runs
    /// `races`, which may still need the main context, to harvest the race
    /// reports (the flag says the list hit its cap) and add the counters
    /// only the backend keeps to [`Self::stats`]; drops `main` so its
    /// trace and metrics buffers flush; builds the result — the recorded
    /// failure, or the retired output streams in tid order and the
    /// counters; assembles and, for a failed run, persists the trace;
    /// attaches the metrics rollup to a successful run.
    pub fn finish<C>(
        &self,
        backend: &str,
        mut main: C,
        races: impl FnOnce(&mut C) -> (Vec<RaceReport>, bool),
    ) -> TracedRun {
        loop {
            let handles: Vec<_> = lock(&self.handles).drain().map(|(_, h)| h).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let (races, truncated) = races(&mut main);
        drop(main);
        let mut warnings = Vec::new();
        if truncated {
            warnings.push(format!(
                "race reports truncated at {} — distinct racy pairs beyond the cap were not recorded",
                races.len()
            ));
        }
        let mut result = match self.take_run_error(backend) {
            Some(mut err) => {
                err.report_mut().warnings.extend(warnings.iter().cloned());
                Err(err)
            }
            None => {
                let mut output = Vec::new();
                for stream in lock(&self.outputs).values() {
                    output.extend_from_slice(stream);
                }
                Ok(RunOutput {
                    output,
                    stats: self.stats.snapshot(),
                    metrics: None,
                    races,
                })
            }
        };
        let trace = self.finish_trace(backend, &mut result);
        // Failing runs keep their report untouched: the report digest is
        // rerun-stable and timing is not.
        if let (Some(sink), Ok(out)) = (&self.obs_sink, &mut result) {
            out.metrics = Some(Box::new(sink.snapshot(backend)));
        }
        TracedRun {
            result,
            trace,
            checkpoints: Vec::new(),
            warnings,
        }
    }

    /// Assembles the run's [`RunTrace`] from the drained sink, persists
    /// it when the run failed (atomic rename; best effort — a full disk
    /// must not turn a reproducible failure into an I/O panic), and
    /// stamps the persisted path into the error's report. A persist
    /// failure degrades to a warning on the report instead of vanishing
    /// silently. `None` when the run was not recording.
    fn finish_trace(
        &self,
        backend: &str,
        result: &mut Result<RunOutput, RunError>,
    ) -> Option<Box<RunTrace>> {
        let sink = self.trace_sink.as_ref()?;
        let failure = match result {
            Ok(out) => FailureSummary {
                kind: None,
                tid: 0,
                report_digest: out.output_digest(),
            },
            Err(e) => FailureSummary {
                kind: Some(e.report().kind),
                tid: e.report().tid,
                report_digest: e.report().report_digest(),
            },
        };
        let trace = RunTrace {
            recording: self.cfg.recording(backend),
            events: sink.drain_sorted(),
            failure,
        };
        if let Err(e) = result {
            match persist::save(&trace) {
                Ok(path) => e.report_mut().trace_path = Some(path),
                Err(io) => e
                    .report_mut()
                    .warnings
                    .push(format!("trace not persisted: {io}")),
            }
        }
        Some(Box::new(trace))
    }
}
