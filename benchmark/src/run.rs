//! Running a workload's programs on the backends, checking every output,
//! and turning the samples into the benchmark's metrics.

use crate::spans::Spans;
use crate::stats::{geomean, median, tail};
use crate::workloads::{self, Expect, Part, Workload};
use crate::{probes, Opts};
use rfdet::api::obs::{Phase, NUM_PHASES};
use rfdet::{
    DmtBackend, DthreadsBackend, NativeBackend, QuantumBackend, RfdetBackend, RunConfig, RunOutput,
    Stats,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Set-ups per timed pass; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm-up runs per backend in one set-up of the timed pass (the traced
/// pass, whose timings are context, takes one). The first warm-up pins
/// the outputs every later run is checked against.
const WARMUPS: usize = 2;
/// Rounds in `--quick` mode, and the least a timed or metered series
/// takes however short the budget.
const MIN_ROUNDS: usize = 3;

/// A metric value with its unit, in emission order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one pass over a workload reports.
pub struct PassResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// One successful run of every part of the workload on one backend.
struct Round {
    part_ms: Vec<f64>,
    /// Counters summed over parts (`peak_meta_bytes` is in `peak_meta`).
    stats: Stats,
    /// Σ over parts of private pages × page size + peak metadata bytes.
    footprint_bytes: u64,
    peak_meta: u64,
    /// Per-phase nanosecond (or count) sums, when the run was metered.
    phase_sum: [u64; NUM_PHASES],
}

impl Round {
    fn wall_ms(&self) -> f64 {
        self.part_ms.iter().sum()
    }
}

/// What to run in each round of a measurement.
struct Arm<'a> {
    backend: &'a dyn DmtBackend,
    cfg: &'a RunConfig,
    /// Runs per round.
    reps: usize,
}

fn arm<'a>(backend: &'a dyn DmtBackend, cfg: &'a RunConfig, reps: usize) -> Arm<'a> {
    Arm { backend, cfg, reps }
}

/// Runs programs, checks outputs against what set-up pinned, and counts
/// every run attempted and failed.
struct Harness<'a> {
    opts: &'a Opts,
    name: &'a str,
    /// pthreads' warm-up output per registry program (race-free programs
    /// without an oracle here must reproduce it on every backend).
    pthreads_out: HashMap<String, Vec<u8>>,
    /// Warm-up digest per (program, backend) for schedule-shaped output.
    pinned: HashMap<(String, String), u64>,
    attempted: u64,
    failed: u64,
}

const MIB: f64 = (1u64 << 20) as f64;

fn mb(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Harness<'_> {
    fn new<'a>(opts: &'a Opts, name: &'a str) -> Harness<'a> {
        Harness {
            opts,
            name,
            pthreads_out: HashMap::new(),
            pinned: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Generates the inputs, builds the programs and warms every backend
    /// up; the first warm-up of a (program, backend) pins its output.
    fn set_up(
        &mut self,
        backends: &[&dyn DmtBackend],
        cfg: &RunConfig,
        warmups: usize,
    ) -> Workload {
        let wl = workloads::build(
            self.name,
            self.opts.threads,
            self.opts.seed,
            self.opts.quick,
        )
        .expect("workload name was validated at argument parsing");
        let mut off = Spans::disabled();
        for _ in 0..warmups {
            for b in backends {
                self.round(&wl, *b, cfg, &mut off);
            }
        }
        wl
    }

    fn check(&mut self, part: &Part, backend: &dyn DmtBackend, out: &RunOutput) -> bool {
        let native = !backend.is_deterministic();
        let output = out.output.as_slice();
        match &part.expect {
            Expect::Oracle(bytes) => output == bytes.as_slice(),
            Expect::MatchPthreads => {
                if native && !self.pthreads_out.contains_key(&part.name) {
                    self.pthreads_out.insert(part.name.clone(), output.to_vec());
                }
                self.pthreads_out
                    .get(&part.name)
                    .is_some_and(|b| b.as_slice() == output)
            }
            Expect::StablePerBackend(marker) => {
                let marked = output.windows(marker.len()).any(|w| w == marker.as_bytes());
                let digest = out.output_digest();
                let stable = native
                    || *self
                        .pinned
                        .entry((part.name.clone(), backend.name()))
                        .or_insert(digest)
                        == digest;
                marked && stable
            }
        }
    }

    /// Runs every part once on `backend`. A failed run (a `RunError` or
    /// a wrong output) is counted and voids the round, so it never
    /// reaches a timing median.
    fn round(
        &mut self,
        wl: &Workload,
        backend: &dyn DmtBackend,
        cfg: &RunConfig,
        spans: &mut Spans,
    ) -> Option<Round> {
        let label_backend = backend.name();
        let mut round = Round {
            part_ms: Vec::with_capacity(wl.parts.len()),
            stats: Stats::default(),
            footprint_bytes: 0,
            peak_meta: 0,
            phase_sum: [0; NUM_PHASES],
        };
        let mut ok = true;
        for part in &wl.parts {
            let label = format!("{label_backend} {}", part.name);
            self.attempted += 1;
            let (good, _) = spans.span("run", &label, 0, |spans| {
                let (root, _) = spans.span("build_root", &label, 0, |_| (part.build)());
                let (res, wall_ns) =
                    spans.span("backend.run", &label, 0, |_| backend.run(cfg, root));
                let (good, _) = spans.span("check_output", &label, 0, |_| match &res {
                    Ok(out) => self.check(part, backend, out),
                    Err(_) => false,
                });
                if let (true, Ok(out)) = (good, res) {
                    round.part_ms.push(ms(wall_ns));
                    round.footprint_bytes +=
                        out.stats.private_pages * cfg.page_size + out.stats.peak_meta_bytes;
                    round.peak_meta += out.stats.peak_meta_bytes;
                    round.stats += out.stats;
                    if let Some(m) = &out.metrics {
                        for p in Phase::ALL {
                            round.phase_sum[p.idx()] += m.phase(p).map_or(0, |s| s.sum);
                        }
                    }
                }
                good
            });
            if !good {
                self.failed += 1;
                ok = false;
            }
        }
        ok.then_some(round)
    }

    /// Runs rounds of `arms` — alternating which arm goes first, so that
    /// drift hits all alike — until `budget` is spent and `min_rounds`
    /// are done (exactly `MIN_ROUNDS` in quick mode). One series per arm.
    fn measure(
        &mut self,
        wl: &Workload,
        arms: &[Arm],
        budget: Duration,
        min_rounds: usize,
        spans: &mut Spans,
    ) -> Vec<Vec<Round>> {
        let mut series: Vec<Vec<Round>> = arms.iter().map(|_| Vec::new()).collect();
        let start = Instant::now();
        let mut n = 0;
        while n < min_rounds || (!self.opts.quick && start.elapsed() < budget) {
            let mut order: Vec<usize> = (0..arms.len()).collect();
            if n % 2 == 1 {
                order.reverse();
            }
            for i in order {
                for _ in 0..arms[i].reps {
                    series[i].extend(self.round(wl, arms[i].backend, arms[i].cfg, spans));
                }
            }
            n += 1;
        }
        series
    }
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Result<f64, String> {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
        .ok_or_else(|| "no run of a backend succeeded, so there is nothing to report".to_owned())
}

/// Per-part medians of a series.
fn part_medians(rounds: &[Round]) -> Result<Vec<f64>, String> {
    let parts = rounds.first().map_or(0, |r| r.part_ms.len());
    (0..parts).map(|i| med(rounds, |r| r.part_ms[i])).collect()
}

/// RFDet's slowdown against pthreads: the geometric mean, over the
/// workload's programs, of the ratio of median wall times. With one
/// program that is simply the ratio.
fn slowdown(rfdet: &[Round], native: &[Round]) -> Result<f64, String> {
    let ratios: Vec<f64> = part_medians(rfdet)?
        .iter()
        .zip(part_medians(native)?)
        .map(|(r, n)| r / n)
        .collect();
    geomean(&ratios).ok_or_else(|| "a median wall time was zero".to_owned())
}

/// The timed pass: metrics off, no spans. Reports the end-to-end metrics.
pub fn timed_pass(opts: &Opts, name: &str) -> Result<PassResult, String> {
    let cfg = RunConfig::default();
    let (ci, native) = (RfdetBackend::ci(), NativeBackend);
    let mut h = Harness::new(opts, name);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut wl = None;
    for _ in 0..if opts.quick { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        wl = Some(h.set_up(&[&native, &ci], &cfg, WARMUPS));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let wl = wl.expect("at least one set-up ran");

    let series = h.measure(
        &wl,
        &[arm(&ci, &cfg, 1), arm(&native, &cfg, wl.native_reps)],
        Duration::from_secs_f64(opts.seconds),
        MIN_ROUNDS,
        &mut Spans::disabled(),
    );
    let (rf, nat) = (&series[0], &series[1]);
    // The absolute times behind the ratio, with their sample counts.
    eprintln!(
        "benchmark: {name}: RFDet-ci median {:.3} ms over {} runs, pthreads {:.3} ms over {}",
        med(rf, Round::wall_ms)?,
        rf.len(),
        med(nat, Round::wall_ms)?,
        nat.len()
    );

    Ok(PassResult {
        metrics: vec![
            ("slowdown_x", slowdown(rf, nat)?, "x"),
            ("footprint_mb", med(rf, |r| mb(r.footprint_bytes))?, "MB"),
            (
                "setup_s",
                median(&setup_s).expect("at least one set-up ran"),
                "s",
            ),
        ],
        attempted: h.attempted,
        failed: h.failed,
    })
}

/// The traced pass: a short untraced series for reference, metered RFDet
/// rounds, the comparator backends, and the layer probes — every call
/// into the runtime inside a span. Reports the per-layer metrics and
/// returns the spans for writing out when the benchmark ends.
pub fn traced_pass(opts: &Opts, name: &str) -> Result<(PassResult, Spans), String> {
    let cfg = RunConfig::default();
    let metered_cfg = RunConfig {
        metrics: true,
        ..RunConfig::default()
    };
    let (ci, pf, native) = (RfdetBackend::ci(), RfdetBackend::pf(), NativeBackend);
    let (dthreads, quantum) = (DthreadsBackend, QuantumBackend);
    let mut h = Harness::new(opts, name);
    let mut spans = Spans::new(name);
    let wl = h.set_up(&[&native, &ci, &pf, &dthreads, &quantum], &cfg, 1);
    let share = |f: f64| Duration::from_secs_f64(opts.seconds * f);

    let plain = h.measure(
        &wl,
        &[arm(&ci, &cfg, 1), arm(&native, &cfg, wl.native_reps)],
        share(0.35),
        MIN_ROUNDS,
        &mut Spans::disabled(),
    );
    let metered = &h.measure(
        &wl,
        &[arm(&ci, &metered_cfg, 1)],
        share(0.35),
        MIN_ROUNDS,
        &mut spans,
    )[0];
    let others = h.measure(
        &wl,
        &[
            arm(&pf, &cfg, 1),
            arm(&dthreads, &cfg, 1),
            arm(&quantum, &cfg, 1),
        ],
        share(0.3),
        1,
        &mut spans,
    );
    let (rf, nat) = (&plain[0], &plain[1]);

    let run_ms = med(rf, Round::wall_ms)?;
    let native_ms = med(nat, Round::wall_ms)?;
    let metered_ms = med(metered, Round::wall_ms)?;
    let samples: Vec<f64> = rf.iter().map(Round::wall_ms).collect();
    let (tail_pct, tail_ms) = tail(&samples).expect("median above proved the series non-empty");
    let count = |f: fn(&Stats) -> u64| med(metered, |r| f(&r.stats) as f64);
    let phase = |p: Phase| med(metered, |r| ms(r.phase_sum[p.idx()]));

    let propagated = count(|s| s.slices_propagated)?;
    let redundant = count(|s| s.slices_filtered_redundant)?;
    let scanned = count(|s| s.diff_bytes_scanned)?;
    let applied = count(|s| s.mod_bytes_applied)?;
    // A ratio over nothing attempted is reported as 0, not left out: the
    // metric set must not depend on the workload.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Phase sums add up over threads, so shares are of the workers'
    // combined wall time in the metered runs.
    let worker_ms = opts.threads as f64 * metered_ms;
    let (wait_turn, snapshot, diff) = (
        phase(Phase::WaitTurn)?,
        phase(Phase::Snapshot)?,
        phase(Phase::Diff)?,
    );

    let mut m: Metrics = probes::run_all(opts.threads, opts.quick, &mut spans);
    m.extend([
        ("kendo.turn_parks", count(|s| s.turn_parks)?, "count"),
        ("kendo.handoff_wakes", count(|s| s.handoff_wakes)?, "count"),
        ("kendo.handoff_scans", count(|s| s.handoff_scans)?, "count"),
        ("kendo.wait_turn_ms", wait_turn, "ms"),
        ("kendo.wait_turn_frac", wait_turn / worker_ms, "frac"),
        ("kendo.arbitration_ms", phase(Phase::Arbitration)?, "ms"),
        ("meta.slices", count(|s| s.slices)?, "count"),
        ("meta.slices_propagated", propagated, "count"),
        ("meta.gc_count", count(|s| s.gc_count)?, "count"),
        (
            "meta.peak_meta_mb",
            med(metered, |r| mb(r.peak_meta))?,
            "MB",
        ),
        (
            "meta.propagation_useful_frac",
            ratio(propagated, propagated + redundant),
            "frac",
        ),
        (
            "mem.snapshot_mb",
            count(|s| s.snapshot_bytes_copied)? / MIB,
            "MB",
        ),
        ("mem.diff_scanned_mb", scanned / MIB, "MB"),
        ("mem.applied_mb", applied / MIB, "MB"),
        ("mem.applied_per_scanned", ratio(applied, scanned), "frac"),
        (
            "mem.scanned_kb_per_sync_op",
            ratio(scanned / 1024.0, count(Stats::sync_ops)?),
            "KB",
        ),
        ("mem.snapshot_ms", snapshot, "ms"),
        ("mem.diff_ms", diff, "ms"),
        ("mem.busy_frac", (snapshot + diff) / worker_ms, "frac"),
        ("core.run_ms", run_ms, "ms"),
        ("core.run_tail_ms", tail_ms, "ms"),
        ("core.run_tail_pct", tail_pct, "pct"),
        ("core.run_samples", samples.len() as f64, "count"),
        ("core.native_gap_ms", run_ms - native_ms, "ms"),
        ("core.run_pf_ms", med(&others[0], Round::wall_ms)?, "ms"),
        ("core.sync_ops", count(Stats::sync_ops)?, "count"),
        ("core.slices_merged", count(|s| s.slices_merged)?, "count"),
        (
            "core.prelock_premerged",
            count(|s| s.prelock_premerged)?,
            "count",
        ),
        ("core.sync_op_ms", phase(Phase::SyncOp)?, "ms"),
        ("core.propagation_ms", phase(Phase::Propagation)?, "ms"),
        (
            "obs.metered_overhead_frac",
            metered_ms / run_ms - 1.0,
            "frac",
        ),
        ("native.run_ms", native_ms, "ms"),
        ("dthreads.run_ms", med(&others[1], Round::wall_ms)?, "ms"),
        ("quantum.run_ms", med(&others[2], Round::wall_ms)?, "ms"),
        ("workloads.loads", count(|s| s.loads)?, "count"),
        ("workloads.stores", count(|s| s.stores)?, "count"),
        ("workloads.app_retries", count(|s| s.app_retries)?, "count"),
        ("workloads.app_shed", count(|s| s.app_shed)?, "count"),
        (
            "workloads.req_per_s",
            wl.items as f64 / (run_ms / 1e3),
            "1/s",
        ),
    ]);

    Ok((
        PassResult {
            metrics: m,
            attempted: h.attempted,
            failed: h.failed,
        },
        spans,
    ))
}
