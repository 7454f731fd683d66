//! Run configuration shared by all backends.

use crate::FaultPlan;
use rfdet_trace::{Recording, TraceConfig};
use std::fmt;
use std::time::Duration;

/// RFDet-specific options: the §4.5 prelock optimization and the page-fault
/// cost model. The monitoring mode is not among them — RFDet-ci and
/// RFDet-pf are two backends (`rfdet_core::RfdetBackend::{ci, pf}`),
/// as in the paper's Figure 7.
#[derive(Clone, Debug)]
pub struct RfdetOpts {
    /// Pre-merge happens-before slices while queued on a contended lock
    /// (§4.5 "Prelock").
    pub prelock: bool,
    /// Simulated cost, in no-op iterations, of one page fault on RFDet-pf
    /// (trap + two `mprotect` calls). Zero disables the cost model. A
    /// knob because callers differ: fig7, table1 and the repo benchmark's
    /// pf comparator charge the default 2000; `bench_json`'s cells and
    /// the `replay` CLI's runs set 0.
    pub fault_cost_spins: u32,
}

impl Default for RfdetOpts {
    fn default() -> Self {
        Self {
            prelock: true,
            fault_cost_spins: 2000,
        }
    }
}

/// Smallest valid [`RunConfig::space_bytes`]: the upper half of the space
/// is the shared heap, split into 256 per-thread strips
/// (`rfdet_mem::MAX_HEAP_THREADS`) that must each hold one 16-byte
/// minimum allocation. `rfdet-mem` pins the arithmetic in a unit test.
pub const MIN_SPACE_BYTES: u64 = 2 * 256 * 16;

/// Upper bound, in microseconds, of one seeded physical pause
/// ([`RunConfig::jitter_seed`]).
pub const JITTER_MAX_US: u64 = 50;

/// Why a [`RunConfig`] was rejected: the field, the value it has and the
/// constraint that value breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending `RunConfig` field.
    pub field: &'static str,
    /// Its value.
    pub value: u64,
    /// What the value must be instead.
    pub constraint: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid RunConfig: {} = {} must be {}",
            self.field, self.value, self.constraint
        )
    }
}

impl std::error::Error for ConfigError {}

/// Configuration for one run of a workload under some backend.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Size of the logical shared memory space, in bytes: a multiple of
    /// `page_size`, at least [`MIN_SPACE_BYTES`]. Also the DLRC core's
    /// metadata budget: GC runs once live slices exceed
    /// `rfdet_meta::GC_THRESHOLD` (the paper's 0.9) of it (§4.5).
    pub space_bytes: u64,
    /// Page size (power of two). The paper uses the OS page size, 4096.
    pub page_size: u64,
    /// Additional GC trigger: live-slice count. The paper's metadata
    /// pressure comes mostly from 4 KiB page snapshots, so its byte
    /// threshold fires early; our sealed slices store only byte diffs,
    /// so a pure byte threshold would let slice-pointer lists grow until
    /// the Figure-5 scan dominates. Bounding live slices keeps
    /// propagation amortized-O(live slices) exactly as in the paper.
    /// Read by the DLRC core alone — the only backend with a metadata
    /// space; the lockstep and native backends ignore it.
    pub meta_max_slices: u64,
    /// RFDet-specific options (ignored by other backends).
    pub rfdet: RfdetOpts,
    /// When `Some(seed)`, every thread sleeps a pseudo-random physical
    /// pause of up to [`JITTER_MAX_US`] before each of its sync ops is
    /// ordered, drawn from its own stream ([`crate::DetRng::jitter`] of
    /// the seed and its tid). The run harness applies it, so all five
    /// backends honour it. A deterministic backend's results must be
    /// bit-identical for every seed — this is the physical-timing
    /// perturbation the determinism tests rerun under. `None` (the
    /// default) costs one branch per sync op.
    pub jitter_seed: Option<u64>,
    /// Deterministic faults to inject (panics, failed allocations,
    /// logical-clock jitter), keyed off per-thread sync-op/allocation
    /// counts. Empty by default. See [`FaultPlan`].
    pub fault_plan: FaultPlan,
    /// Wall-clock fallback bound, in milliseconds: a thread making no
    /// progress for this long fails the run as wedged (deadlocks are
    /// normally detected structurally, long before this fires). `None`
    /// disables the fallback.
    pub deadlock_after_ms: Option<u64>,
    /// Flight recorder: when `Some(workload_name)`, the run records a
    /// [`rfdet_trace::RunTrace`] of its schedule, and a failing run
    /// persists it to
    /// `target/rfdet-traces/<digest>.trace` (override the directory with
    /// `RFDET_TRACE_DIR`). The name labels the trace so the `replay` CLI
    /// can resolve the root function again — closures do not serialize.
    /// `None` (the default) keeps the recorder off at the cost of one
    /// branch per sync op.
    pub trace: Option<String>,
    /// Deterministic-safe metrics (`rfdet_api::obs`): when `true`, the
    /// run times its hot phases — `wait_for_turn` stall, sync-op
    /// end-to-end, slice length, diff, snapshot, propagation — into
    /// log-bucketed histograms and attaches a
    /// [`rfdet_obs::MetricsSnapshot`] to the [`crate::RunOutput`].
    /// Timing is observed strictly off the deterministic decision path:
    /// no scheduling or propagation branch reads a clock, so results are
    /// bit-identical with metrics on and off (the conformance and
    /// proptest suites pin this). `false` (the default) keeps the cost
    /// at one branch per instrumented site, like `trace`.
    pub metrics: bool,
    /// Deterministic checkpointing (core backend only): capture a
    /// [`rfdet_trace::Checkpoint`] at every Nth *eligible* barrier
    /// episode — a full-membership barrier where no mutex is held and
    /// every recorded sync-var release is dominated by the episode's
    /// upper limit (a consistent cut; see DESIGN.md §4.11). `0` (the
    /// default) disables capture. Schedule-neutral: the eligibility
    /// decision only reads state inside a turn that already exists, and
    /// fragment capture runs off-turn — so, like `metrics`, this knob
    /// stays out of the trace projection and a checkpointed run's
    /// digests equal an uncheckpointed one's.
    pub checkpoint_every: u64,
    /// Where captured checkpoints persist as they seal (atomic rename,
    /// best-effort: an unwritable directory degrades to a warning, never
    /// a failed run). A run persists exactly when this is `Some`; `None`
    /// (the default) keeps the chain in memory only
    /// (`TracedRun::checkpoints`), so verification and recovery runs do
    /// not re-write the chain a recording persisted. `replay record`
    /// sets it from `--ckpt-dir`, defaulting to
    /// `rfdet_trace::persist::trace_dir()`.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Happens-before data-race detection (deterministic backends with
    /// [`crate::DmtBackend::supports_race_detection`] only): track
    /// word-granular read/write epochs over every slice's accesses and
    /// attach a [`crate::RaceReport`] to the [`crate::RunOutput`] for
    /// each conflicting, unordered pair. Detection is *digest-neutral* —
    /// output and failure digests are identical with the detector on or
    /// off (reports live outside `output_digest`), so, like `metrics`,
    /// this knob stays out of the trace projection and a replay decides
    /// for itself whether to re-detect. `false` (the default) keeps the
    /// cost at one branch per slice.
    pub detect_races: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            space_bytes: 16 << 20,
            page_size: 4096,
            meta_max_slices: 1024,
            rfdet: RfdetOpts::default(),
            jitter_seed: None,
            fault_plan: FaultPlan::new(),
            deadlock_after_ms: Some(30_000),
            trace: None,
            metrics: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            detect_races: false,
        }
    }
}

impl RunConfig {
    /// A small configuration suitable for unit tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            space_bytes: 1 << 20,
            ..Self::default()
        }
    }

    /// Number of pages in the logical space.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.space_bytes.div_ceil(self.page_size)
    }

    /// The wall-clock wedge bound as a [`Duration`].
    #[must_use]
    pub fn deadlock_after(&self) -> Option<Duration> {
        self.deadlock_after_ms.map(Duration::from_millis)
    }

    /// This run's input as the backend named `backend` records it: the
    /// one place a trace's or checkpoint's header is assembled. The
    /// determinism-relevant fields go into its codec-stable
    /// [`TraceConfig`]; the jitter seed, the fault plan and the workload
    /// label travel beside it.
    #[must_use]
    pub fn recording(&self, backend: &str) -> Recording {
        Recording {
            backend: backend.to_owned(),
            workload: self.trace.clone().unwrap_or_default(),
            seed: self.jitter_seed,
            config: TraceConfig {
                space_bytes: self.space_bytes,
                page_size: self.page_size,
                meta_max_slices: self.meta_max_slices,
                prelock: self.rfdet.prelock,
                fault_cost_spins: self.rfdet.fault_cost_spins,
                deadlock_after_ms: self.deadlock_after_ms,
            },
            faults: self.fault_plan.specs().to_vec(),
        }
    }

    /// The configuration a recording was made under — config, seed and
    /// fault plan (a checkpoint's: its jitter) — with recording
    /// re-enabled, so a replay observes its own schedule for comparison.
    #[must_use]
    pub fn from_recording(rec: &Recording) -> Self {
        let c = &rec.config;
        Self {
            space_bytes: c.space_bytes,
            page_size: c.page_size,
            meta_max_slices: c.meta_max_slices,
            rfdet: RfdetOpts {
                prelock: c.prelock,
                fault_cost_spins: c.fault_cost_spins,
            },
            jitter_seed: rec.seed,
            fault_plan: FaultPlan::from_specs(rec.faults.clone()),
            deadlock_after_ms: c.deadlock_after_ms,
            trace: Some(rec.workload.clone()),
            // Not part of the determinism-relevant projection: metrics
            // never influence results. Checkpoint capture is likewise
            // schedule-neutral (decisions ride an existing turn, capture
            // runs off-turn), so whether and where a run checkpoints is
            // replay-side policy, not a recorded input. Replays use the
            // defaults; `replay resume` and the chain replay set the
            // checkpoint knobs explicitly on top of this reconstruction.
            metrics: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            // Race detection is digest-neutral, so whether to re-detect
            // on replay is the replayer's choice (`replay races` turns it
            // back on explicitly), not a recorded input.
            detect_races: false,
        }
    }

    /// This configuration with its fault plan's kills removed
    /// ([`FaultPlan::without_kills`]): what a checkpoint records, and
    /// what every faulted run is recovered under and judged against.
    #[must_use]
    pub fn without_kills(&self) -> Self {
        Self {
            fault_plan: self.fault_plan.without_kills(),
            ..self.clone()
        }
    }

    /// Checks the constraints every backend relies on. [`crate::RunHarness::new`]
    /// calls it, so a backend returns a rejected configuration as
    /// a [`crate::RunError`] of kind `InvalidConfig` before any thread
    /// starts.
    ///
    /// # Errors
    /// The first broken constraint, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reject = |field, value, constraint: String| {
            Err(ConfigError {
                field,
                value,
                constraint,
            })
        };
        if !self.page_size.is_power_of_two() {
            return reject("page_size", self.page_size, "a power of two".to_owned());
        }
        if self.space_bytes == 0 || !self.space_bytes.is_multiple_of(self.page_size) {
            return reject(
                "space_bytes",
                self.space_bytes,
                format!("a nonzero multiple of page_size ({})", self.page_size),
            );
        }
        if self.space_bytes < MIN_SPACE_BYTES {
            return reject(
                "space_bytes",
                self.space_bytes,
                format!(
                    "at least {MIN_SPACE_BYTES}: the heap half of the space is split into \
                     256 per-thread strips of at least 16 bytes"
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cfg` as a replay reconstructs it from its recording.
    fn through_a_recording(cfg: &RunConfig) -> RunConfig {
        RunConfig::from_recording(&cfg.recording("b"))
    }

    #[test]
    fn default_is_valid() {
        assert_eq!(RunConfig::default().validate(), Ok(()));
        assert_eq!(RunConfig::small().validate(), Ok(()));
    }

    #[test]
    fn num_pages_rounds_up() {
        let mut c = RunConfig::small();
        c.space_bytes = 4096 * 3;
        assert_eq!(c.num_pages(), 3);
    }

    /// `f` applied to the small config must be rejected at `field`.
    fn rejected(f: impl FnOnce(&mut RunConfig), field: &str) -> ConfigError {
        let mut c = RunConfig::small();
        f(&mut c);
        let err = c.validate().expect_err("rejected");
        assert_eq!(err.field, field, "{err}");
        err
    }

    #[test]
    fn rejects_bad_page_size() {
        let err = rejected(|c| c.page_size = 1000, "page_size");
        assert_eq!(err.value, 1000);
        assert_eq!(
            err.to_string(),
            "invalid RunConfig: page_size = 1000 must be a power of two"
        );
        rejected(|c| c.page_size = 0, "page_size");
    }

    #[test]
    fn rejects_unaligned_empty_and_heapless_spaces() {
        let err = rejected(|c| c.space_bytes = 4096 + 7, "space_bytes");
        assert!(err.constraint.contains("multiple of page_size (4096)"));
        rejected(|c| c.space_bytes = 0, "space_bytes");
        // Page-aligned, but the heap half cannot hold 256 strips.
        let err = rejected(|c| c.space_bytes = 4096, "space_bytes");
        assert_eq!(err.value, 4096);
        assert!(err.constraint.starts_with("at least 8192"), "{err}");
        let mut smallest = RunConfig::small();
        smallest.space_bytes = MIN_SPACE_BYTES;
        assert_eq!(smallest.validate(), Ok(()));
    }

    #[test]
    fn a_recording_round_trips_through_from_recording() {
        // Every projected field away from its default, so a field that
        // `from_recording` drops shows up in the comparison.
        let mut cfg = RunConfig {
            space_bytes: 1 << 19,
            page_size: 256,
            meta_max_slices: 7,
            rfdet: RfdetOpts {
                prelock: false,
                fault_cost_spins: 3,
            },
            deadlock_after_ms: None,
            ..RunConfig::default()
        };
        cfg.jitter_seed = Some(99);
        cfg.fault_plan = FaultPlan::new().panic_at(1, 3).jitter_at(2, 0, 7);
        cfg.trace = Some("w".to_owned());
        let recording = cfg.recording("b");
        let back = RunConfig::from_recording(&recording);
        assert_eq!(back.recording("b"), recording);
        assert_eq!(back.jitter_seed, Some(99));
        assert_eq!(back.fault_plan, cfg.fault_plan);
        assert_eq!(back.trace.as_deref(), Some("w"));
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn metrics_default_off_and_stay_out_of_the_trace_projection() {
        assert!(!RunConfig::default().metrics);
        let mut cfg = RunConfig::small();
        cfg.metrics = true;
        cfg.trace = Some("w".to_owned());
        let back = through_a_recording(&cfg);
        assert!(!back.metrics, "replays run with metrics off by default");
    }

    #[test]
    fn checkpoint_knobs_stay_out_of_the_trace_projection() {
        let mut cfg = RunConfig::small();
        cfg.checkpoint_every = 4;
        cfg.checkpoint_dir = Some(std::path::PathBuf::from("/tmp/nowhere"));
        cfg.trace = Some("w".to_owned());
        let back = through_a_recording(&cfg);
        assert_eq!(back.checkpoint_every, 0, "capture is replay-side policy");
        assert_eq!(back.checkpoint_dir, None, "a replay persists nothing");
    }

    #[test]
    fn race_detection_stays_out_of_the_trace_projection() {
        let mut cfg = RunConfig::small();
        cfg.detect_races = true;
        cfg.trace = Some("w".to_owned());
        let back = through_a_recording(&cfg);
        assert!(
            !back.detect_races,
            "detection is digest-neutral: re-detecting is replay-side policy"
        );
    }

    #[test]
    fn small_config_is_smaller() {
        let small = RunConfig::small();
        let full = RunConfig::default();
        assert!(small.space_bytes < full.space_bytes);
    }
}
