//! Flight-recorder CLI: record failing runs, replay persisted traces,
//! and shrink their fault plans to minimal repros.
//!
//! Verbs and flags are the rows of [`VERBS`]; `replay` alone prints them.
//!
//! `record` runs a workload with the recorder on; if the run fails the
//! trace is persisted (honouring `RFDET_TRACE_DIR`, default
//! `target/rfdet-traces/`) and the path printed as `TRACE <path>`. With
//! `--checkpoint-every N` the core backend also persists a consistent-cut
//! checkpoint every N eligible barrier episodes (DESIGN.md §4.11).
//! `replay` re-executes a persisted trace pinned to its recorded inputs
//! and exits non-zero unless the terminal digest (and, where recorded,
//! the culprit's schedule) reproduces. `shrink` delta-debugs the
//! recorded fault plan and writes the minimized trace beside the
//! original with a `.min` tag.
//!
//! `resume` restarts a run from one persisted checkpoint and lets it
//! finish — crash recovery. `shard` takes any checkpoint of a chain and
//! verifies the chain by `rfdet_core::replay_chain`: serially, and as
//! one shard per inter-checkpoint window in parallel (`-j`).
//!
//! `failover` runs the full crash-failover cycle (DESIGN.md §4.12): an
//! unfaulted reference replica, a faulted replica killed at the given
//! FaultPlan coordinate, `rfdet_core::recover` from the faulted run's
//! last checkpoint, and a byte-identical convergence check — exit 0
//! only when the recovered digest matches the reference. `sweep` runs a
//! whole fault-plan grid (panic/fail_alloc/jitter × thread × sync-op
//! strata) under supervision, recovers failed plans the same way,
//! classifies each outcome into {converged, recovered, diverged,
//! wedged}, and writes a JSON report (default under `results/`);
//! diverged or wedged outcomes fail the sweep.
//!
//! `metrics` runs a workload once with the deterministic-safe metrics
//! layer enabled and prints the phase rollup — `json` (default) for
//! tooling, `prom` for a Prometheus text-format scrape body.
//!
//! `races` runs a workload under the deterministic race detector
//! (DESIGN.md §4.13) and prints every typed report. The report text is
//! persisted as a sidecar beside the flight-recorder traces (honouring
//! `RFDET_TRACE_DIR`), and for the seeded corpus (`races.*`) the
//! worker-enable mask is ddmin-shrunk to a 1-minimal set of workers
//! that still reproduces the first race.
//!
//! Workloads resolve through `rfdet_workloads::by_name`; the `chaos.*`
//! scenarios exist specifically to fail on demand (and
//! `chaos.long_haul` specifically to checkpoint and resume).
//!
//! Exit codes are distinct per failure class so scripts can branch:
//! `0` success, `1` divergence (digest or schedule mismatch), `2` usage
//! or unsupported configuration, `3` file I/O or codec failure, `4`
//! wedged (the run blew its `--timeout`, or ended [`RunError::Wedged`]).

use rfdet_api::trace::{persist, Checkpoint};
use rfdet_api::{DmtBackend, FaultPlan, RunConfig, RunError, RunTrace, ThreadFn, Tid};
use rfdet_bench::{each_flag, number};
use rfdet_core::{recover, ChainDivergence, RfdetBackend};
use rfdet_workloads::{by_name, Params, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

// The exit codes of the module header.
const EXIT_DIVERGED: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_IO: i32 = 3;
const EXIT_WEDGED: i32 = 4;

/// Prints `error: <message>` and exits with `code` — the one way a verb
/// gives up.
fn die(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    exit(code);
}

fn usage() -> ! {
    eprintln!("usage:");
    for (synopsis, ..) in VERBS {
        eprintln!("  replay {synopsis}");
    }
    eprintln!("exit codes: 0 ok, 1 diverged, 2 usage, 3 io, 4 wedged");
    exit(EXIT_USAGE);
}

/// Runs `f` on a worker thread, bounding it to `ms` when given; `None`
/// when it did not finish in time (the stuck thread is leaked).
fn try_with_timeout<T: Send + 'static>(
    ms: Option<u64>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let Some(ms) = ms else { return Some(f()) };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_millis(ms)).ok()
}

/// [`try_with_timeout`] for the single-run verbs: a run that cannot
/// finish in time is wedged by definition here, so the process exits `4`
/// and the stuck thread dies with it.
fn run_with_timeout<T: Send + 'static>(
    ms: Option<u64>,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    try_with_timeout(ms, f).unwrap_or_else(|| {
        let ms = ms.unwrap_or(0);
        die(
            EXIT_WEDGED,
            format!("{what} did not finish within {ms} ms: wedged"),
        )
    })
}

/// Maps a run failure to its exit code: wedged runs are a distinct
/// class (retryable, usually environmental) from divergence.
fn failure_code(e: &RunError) -> i32 {
    if matches!(e, RunError::Wedged(_)) {
        EXIT_WEDGED
    } else {
        EXIT_DIVERGED
    }
}

/// The configuration every verb that starts a fresh run builds on: the
/// small space, no pf cost model, and a wedge bound short enough for an
/// interactive tool.
fn cli_config() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(5_000);
    cfg
}

/// Backend registry keyed by the names backends report (and traces
/// store).
fn backend_by_name(name: &str) -> Option<Box<dyn DmtBackend>> {
    if let Some(core) = core_backend(name) {
        return Some(Box::new(core));
    }
    match name {
        "pthreads" => Some(Box::new(rfdet_native::NativeBackend)),
        "DThreads" => Some(Box::new(rfdet_dthreads::DthreadsBackend)),
        "CoreDet-q" => Some(Box::new(rfdet_dthreads::QuantumBackend)),
        _ => None,
    }
}

/// Checkpoint restore needs the concrete core backend (`run_resumed` is
/// not on the [`DmtBackend`] trait — no other backend can implement it).
/// `RFDet` is accepted as an alias of `RFDet-ci`.
fn core_backend(name: &str) -> Option<RfdetBackend> {
    match name {
        "RFDet" | "RFDet-ci" => Some(RfdetBackend::ci()),
        "RFDet-pf" => Some(RfdetBackend::pf()),
        _ => None,
    }
}

fn core_backend_or_die(name: &str) -> RfdetBackend {
    core_backend(name).unwrap_or_else(|| {
        let why = format!("backend {name:?} does not support checkpoint restore");
        die(EXIT_USAGE, why)
    })
}

/// Resolves a `name[@threads]` workload string (the form `record` puts
/// in the trace) to its registry entry and parameters.
fn resolve_workload(spec: &str) -> Option<(Workload, Params)> {
    let (name, threads) = match spec.split_once('@') {
        Some((n, t)) => (n, t.parse().ok()?),
        None => (spec, 2),
    };
    Some((by_name(name)?, Params::new(threads, Size::Test)))
}

fn workload_or_die(spec: &str) -> (Workload, Params) {
    resolve_workload(spec).unwrap_or_else(|| die(EXIT_USAGE, format!("unknown workload {spec:?}")))
}

fn backend_or_die(name: &str) -> Box<dyn DmtBackend> {
    backend_by_name(name).unwrap_or_else(|| die(EXIT_USAGE, format!("unknown backend {name:?}")))
}

/// The per-tid resume bodies of a workload a checkpoint can restore.
fn bodies_or_die(workload: &Workload, params: Params, why: &str) -> ResumeBodies {
    rfdet_workloads::resume_bodies(workload.name, params).unwrap_or_else(|| {
        let name = workload.name;
        die(
            EXIT_USAGE,
            format!("workload {name:?} is not resumable{why}"),
        )
    })
}

/// Loads the trace at `path` and resolves the backend and workload it
/// names.
fn trace_setup(path: &str) -> (RunTrace, Box<dyn DmtBackend>, Workload, Params) {
    let trace = persist::load(Path::new(path))
        .unwrap_or_else(|e| die(EXIT_IO, format!("cannot load trace {path}: {e}")));
    println!("{}", trace.summary());
    let (name, spec) = (&trace.backend, &trace.workload);
    let backend = backend_by_name(name)
        .unwrap_or_else(|| die(EXIT_USAGE, format!("trace names unknown backend {name:?}")));
    let (workload, params) = resolve_workload(spec)
        .unwrap_or_else(|| die(EXIT_USAGE, format!("trace names unknown workload {spec:?}")));
    (trace, backend, workload, params)
}

/// Every flag any verb takes, parsed once. Which of them a verb accepts
/// is in its row of [`VERBS`]; the rest keep their defaults.
#[derive(Default)]
struct Flags {
    backend: String,
    seed: Option<u64>,
    timeout: Option<u64>,
    /// `--every`, and `record`'s `--checkpoint-every`.
    every: Option<u64>,
    ckpt_dir: Option<PathBuf>,
    plan: FaultPlan,
    jobs: Option<usize>,
    plans: Option<usize>,
    out: Option<PathBuf>,
    format: Option<String>,
}

/// A fault-plan coordinate `TID:A[:B]` with exactly `N` numbers after
/// the thread.
fn coord<const N: usize>(s: &str) -> Option<(u32, [u64; N])> {
    let (tid, rest) = s.split_once(':')?;
    let mut parts = rest.splitn(N, ':');
    let mut nums = [0; N];
    for n in &mut nums {
        *n = parts.next()?.parse().ok()?;
    }
    Some((tid.parse().ok()?, nums))
}

/// Parses a verb's flags, strictly: a flag its row of [`VERBS`] does not
/// list, a missing value or a value that does not parse is a usage error
/// (exit 2) — never a silent default. An empty error is a bare `usage()`,
/// what these flags have always answered with.
fn parse_flags(accepted: &[&str], args: &[String]) -> Result<Flags, String> {
    fn val<T: std::str::FromStr>(v: Result<&str, String>) -> Result<T, String> {
        v.ok().and_then(|v| v.parse().ok()).ok_or_else(String::new)
    }
    let mut f = Flags {
        backend: "RFDet-ci".to_owned(),
        ..Flags::default()
    };
    each_flag(args, |flag, value| {
        if !accepted.contains(&flag) {
            return Err(String::new());
        }
        match flag {
            "--backend" => f.backend = val(value())?,
            // A seed that does not parse must not fall back to an
            // unjittered run: the recording would look seeded.
            "--seed" => f.seed = Some(number(flag, value().unwrap_or_default())?),
            "--timeout" => f.timeout = Some(val(value())?),
            "--every" | "--checkpoint-every" => f.every = Some(val(value())?),
            "--ckpt-dir" => f.ckpt_dir = Some(val(value())?),
            "-j" => f.jobs = Some(val(value())?),
            "--plans" => f.plans = Some(val(value())?),
            "--out" => f.out = Some(val(value())?),
            "--format" => f.format = Some(val(value())?),
            "--panic" | "--fail-alloc" => {
                let (tid, [n]) = value().ok().and_then(coord).ok_or_else(String::new)?;
                let plan = std::mem::take(&mut f.plan);
                f.plan = match flag {
                    "--panic" => plan.panic_at(tid, n),
                    _ => plan.fail_alloc(tid, n),
                };
            }
            "--jitter" => {
                let (tid, [op, ticks]) = value().ok().and_then(coord).ok_or_else(String::new)?;
                f.plan = std::mem::take(&mut f.plan).jitter_at(tid, op, ticks);
            }
            _ => return Err(format!("{flag} is listed for a verb but has no parser")),
        }
        Ok(())
    })?;
    Ok(f)
}

fn load_ckpt_or_die(path: &Path) -> Checkpoint {
    persist::load_checkpoint(path).unwrap_or_else(|e| {
        let path = path.display();
        die(EXIT_IO, format!("cannot load checkpoint {path}: {e}"))
    })
}

/// Resolves a checkpoint's backend and workload, or exits: both failures
/// are configuration errors, not divergence.
fn resume_setup(ckpt: &Checkpoint) -> (RfdetBackend, Workload, Params, ResumeBodies) {
    let backend = core_backend_or_die(&ckpt.backend);
    let Some((workload, params)) = resolve_workload(&ckpt.workload) else {
        die(
            EXIT_USAGE,
            format!("checkpoint names unknown workload {:?}", ckpt.workload),
        );
    };
    let why = " (its control state does not live in deterministic memory)";
    let bodies = bodies_or_die(&workload, params, why);
    (backend, workload, params, bodies)
}

type ResumeBodies = Box<dyn Fn(Tid) -> ThreadFn + Send + Sync>;

fn cmd_record(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let backend = backend_or_die(&f.backend);
    let mut cfg = cli_config();
    cfg.fault_plan = f.plan;
    cfg.jitter_seed = f.seed;
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = f.every.unwrap_or(0);
    cfg.checkpoint_dir = Some(f.ckpt_dir.unwrap_or_else(persist::trace_dir));
    if cfg.checkpoint_every > 0 && !backend.supports_checkpoints() {
        die(
            EXIT_USAGE,
            format!("backend {:?} does not support checkpoints", f.backend),
        );
    }
    let run = run_with_timeout(f.timeout, "record", move || {
        backend.run_traced(&cfg, (workload.factory)(params))
    });
    for w in &run.warnings {
        eprintln!("warning: {w}");
    }
    if let Some(first) = run.checkpoints.first() {
        println!(
            "checkpoints: {} (epochs {:?}, run key {:016x})",
            run.checkpoints.len(),
            run.checkpoints.iter().map(|c| c.epoch).collect::<Vec<_>>(),
            first.run_key()
        );
    }
    match &run.result {
        Ok(out) => {
            println!(
                "clean run: output digest {:#018x} ({} bytes)",
                out.output_digest(),
                out.output.len()
            );
            0
        }
        Err(e) => {
            println!("{e}");
            if let Some(path) = &e.report().trace_path {
                println!("TRACE {}", path.display());
            } else {
                eprintln!("warning: run failed but no trace was persisted");
            }
            failure_code(e)
        }
    }
}

fn cmd_replay(path: &str, f: Flags) -> i32 {
    let (trace, backend, workload, params) = trace_setup(path);
    let replay = {
        let root = (workload.factory)(params);
        let trace = trace.clone();
        run_with_timeout(f.timeout, "replay", move || backend.replay(&trace, root))
    };
    let digest = match &replay.result {
        Ok(out) => out.output_digest(),
        Err(e) => e.report_digest(),
    };
    let verdict = |matched| if matched { "MATCH" } else { "DIVERGED" };
    println!(
        "replay digest {digest:#018x} vs recorded {:#018x}: {}",
        trace.failure.report_digest,
        verdict(replay.digest_match)
    );
    match replay.schedule_match {
        Some(matched) => println!("culprit schedule: {}", verdict(matched)),
        None => println!("culprit schedule: not comparable (no events recorded)"),
    }
    if replay.reproduced() {
        println!("REPLAY OK");
        0
    } else {
        println!("REPLAY FAILED");
        // A replay that wedged did not diverge — it never finished.
        let failure = replay.result.as_ref().err();
        failure.map_or(EXIT_DIVERGED, failure_code)
    }
}

/// The directory a checkpoint file sits in (`.` for a bare file name).
fn dir_of(path: &Path) -> &Path {
    path.parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
}

/// Resumes under the recorded config minus the fault plan, because the
/// plan is what killed the run. New checkpoints continue the resumed
/// checkpoint's chain, in its directory.
fn cmd_resume(path: &str, f: Flags) -> i32 {
    let ckpt = load_ckpt_or_die(Path::new(path));
    println!("{}", ckpt.summary());
    let (backend, _, _, bodies) = resume_setup(&ckpt);
    let mut cfg = RunConfig::from_checkpoint(&ckpt);
    cfg.checkpoint_every = f.every.unwrap_or(0);
    cfg.checkpoint_dir = Some(dir_of(Path::new(path)).to_owned());
    let run = run_with_timeout(f.timeout, "resume", move || {
        backend.run_resumed(&cfg, &ckpt, &|tid| bodies(tid))
    });
    for w in &run.warnings {
        eprintln!("warning: {w}");
    }
    match run.result {
        Ok(out) => {
            println!(
                "resumed run completed: output digest {:#018x} ({} bytes)",
                out.output_digest(),
                out.output.len()
            );
            0
        }
        Err(e) => {
            println!("{e}");
            failure_code(&e)
        }
    }
}

fn cmd_shard(path: &str, f: Flags) -> i32 {
    let jobs = f.jobs.unwrap_or(4);
    let anchor = load_ckpt_or_die(Path::new(path));
    let files = persist::checkpoint_chain(dir_of(Path::new(path)), anchor.run_key());
    let chain: Vec<Checkpoint> = files.iter().map(|(_, p)| load_ckpt_or_die(p)).collect();
    let (n, cadence) = (chain.len(), chain.first().map_or(0, |c| c.epoch));
    println!(
        "chain: {n} checkpoints, cadence {cadence} (run key {:016x})",
        anchor.run_key()
    );
    let (backend, workload, params, bodies) = resume_setup(&anchor);
    let cfg = RunConfig::from_checkpoint(&anchor);
    let replay = run_with_timeout(f.timeout, "shard replay", move || {
        let root = move || (workload.factory)(params);
        rfdet_core::replay_chain(&backend, &cfg, &chain, &root, &*bodies, jobs)
    });
    let code = match &replay {
        Ok(_) => 0,
        Err(ChainDivergence::NotUniform(_)) => EXIT_USAGE,
        Err(ChainDivergence::Failed { error, .. }) => {
            println!("{error}");
            failure_code(error)
        }
        Err(ChainDivergence::Diverged { .. }) => EXIT_DIVERGED,
    };
    let r = replay.unwrap_or_else(|divergence| die(code, divergence));
    let (serial_ms, sharded_ms) = (r.serial.as_millis(), r.sharded.as_millis());
    println!(
        "SHARD OK: {} shards (j={jobs}) digest-identical to serial; \
         serial {serial_ms} ms, sharded {sharded_ms} ms",
        n + 1
    );
    0
}

fn cmd_shrink(path: &str, _: Flags) -> i32 {
    let (trace, backend, workload, params) = trace_setup(path);
    let mut mk = || (workload.factory)(params);
    let Some(min) = backend.shrink_plan(&trace, &mut mk) else {
        println!("plan is already minimal (or the trace did not fail); nothing written");
        return 0;
    };
    let dir = Path::new(path).parent().unwrap_or_else(|| Path::new("."));
    let out = persist::save_in(dir, &min, ".min")
        .unwrap_or_else(|e| die(EXIT_USAGE, format!("cannot save minimized trace: {e}")));
    let (from, to) = (trace.faults.len(), min.faults.len());
    println!("shrunk fault plan {from} -> {to} entries");
    println!("MINTRACE {}", out.display());
    0
}

fn cmd_failover(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let backend = core_backend_or_die(&f.backend);
    let bodies = bodies_or_die(&workload, params, "");
    let mut cfg = cli_config();
    cfg.fault_plan = f.plan;
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = f.every.unwrap_or(2);
    cfg.checkpoint_dir = f.ckpt_dir;
    let report = run_with_timeout(f.timeout, "failover", move || {
        rfdet_core::run_failover(
            &backend,
            &cfg,
            &move || (workload.factory)(params),
            &*bodies,
        )
    });
    match &report.crash {
        Some(r) => println!("crash: tid {} ({:?})", r.tid, r.kind),
        None => println!("crash: fault plan never fired (clean run)"),
    }
    match report.recovered_from_epoch {
        Some(e) => println!("recovered from checkpoint epoch {e}"),
        None => println!("recovered from scratch (no checkpoint before the crash)"),
    }
    println!(
        "reference digest {:#018x}, recovered digest {:#018x}",
        report.reference_digest, report.recovered_digest
    );
    println!(
        "full run {:.1} ms, recovery {:.1} ms (ratio {:.2})",
        report.full_run_ms,
        report.recovery_ms,
        report.recovery_ratio()
    );
    if report.converged {
        println!("FAILOVER CONVERGED");
        0
    } else {
        println!("FAILOVER DIVERGED");
        EXIT_DIVERGED
    }
}

/// Classifies one non-jitter plan: converged (clean, digest matches the
/// reference), recovered (typed failure, and [`recover`] matches),
/// diverged, or wedged.
fn classify_kill_plan(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    reference: &[u8],
    root: &dyn Fn() -> ThreadFn,
    bodies: &dyn Fn(Tid) -> ThreadFn,
) -> (&'static str, Option<u64>) {
    let run = backend.run_traced(cfg, root());
    match &run.result {
        Ok(out) if out.output == reference => ("converged", None),
        Ok(_) => ("diverged", None),
        Err(RunError::Wedged(_)) => ("wedged", None),
        Err(_) => {
            let (recovered, epoch) = recover(backend, cfg, &run, root, bodies);
            let ok = recovered.result.is_ok_and(|out| out.output == reference);
            (if ok { "recovered" } else { "diverged" }, epoch)
        }
    }
}

/// Classifies one jitter plan. Jitter legitimately perturbs the
/// deterministic schedule, so the run may differ from the unjittered
/// reference; the contract is *rerun stability* — the identical plan
/// run twice must produce byte-identical results. A typed failure
/// under jitter must still [`recover`] to a clean completion.
fn classify_jitter_plan(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    root: &dyn Fn() -> ThreadFn,
    bodies: &dyn Fn(Tid) -> ThreadFn,
) -> (&'static str, Option<u64>) {
    let a = backend.run_traced(cfg, root());
    let b = backend.run_traced(cfg, root());
    match (&a.result, &b.result) {
        (Ok(x), Ok(y)) if x.output == y.output => ("converged", None),
        (Err(RunError::Wedged(_)), _) | (_, Err(RunError::Wedged(_))) => ("wedged", None),
        (Err(x), Err(y)) if x.report().report_digest() == y.report().report_digest() => {
            if a.checkpoints.is_empty() {
                return ("recovered", None);
            }
            let (recovered, epoch) = recover(backend, cfg, &a, root, bodies);
            let ok = recovered.result.is_ok();
            (if ok { "recovered" } else { "diverged" }, epoch)
        }
        _ => ("diverged", None),
    }
}

fn cmd_sweep(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let (backend_name, every) = (f.backend, f.every.unwrap_or(2));
    let timeout_ms = f.timeout.unwrap_or(10_000);
    let Some(backend) = core_backend(&backend_name) else {
        die(
            EXIT_USAGE,
            format!("sweep needs a checkpoint-capable backend (RFDet*), got {backend_name:?}"),
        );
    };
    let bodies: Arc<dyn Fn(Tid) -> ThreadFn + Send + Sync> =
        bodies_or_die(&workload, params, "").into();

    let mut cfg = cli_config();
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = every;

    // The unfaulted reference replica every kill plan must converge to.
    let reference = {
        let cfg = cfg.clone();
        let run = try_with_timeout(Some(timeout_ms), move || {
            backend.run_traced(&cfg, (workload.factory)(params))
        })
        .unwrap_or_else(|| die(EXIT_WEDGED, "unfaulted reference run wedged"));
        match run.result {
            Ok(out) => out.output,
            Err(e) => die(
                EXIT_DIVERGED,
                format!("unfaulted reference run failed: {e}"),
            ),
        }
    };

    // The grid: every fault kind × every thread (main included) × a
    // Fibonacci ladder of sync-op (or allocation) strata, so plans land
    // in the init round, every request-round phase, and past the end.
    const STRATA: [u64; 14] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610];
    const JITTER_TICKS: u64 = 17;
    let kinds = ["panic", "fail_alloc", "jitter"];
    let mut coords: Vec<(&'static str, u32, u64)> = Vec::new();
    for kind in kinds {
        for tid in 0..=u32::try_from(params.threads).unwrap_or(u32::MAX) {
            for op in STRATA {
                coords.push((kind, tid, op));
            }
        }
    }
    if let Some(n) = f.plans {
        coords.truncate(n);
    }

    println!(
        "sweep: {} plans on {}@{} ({backend_name}, checkpoint every {every}, {timeout_ms} ms/plan)",
        coords.len(),
        workload.name,
        params.threads
    );
    // One report row per plan, and how many plans ended in each outcome.
    let mut rows: Vec<String> = Vec::new();
    let mut tally = std::collections::BTreeMap::<&str, usize>::new();
    for (kind, tid, op) in coords {
        let mut plan_cfg = cfg.clone();
        plan_cfg.fault_plan = match kind {
            "panic" => FaultPlan::new().panic_at(tid, op),
            "fail_alloc" => FaultPlan::new().fail_alloc(tid, op),
            _ => FaultPlan::new().jitter_at(tid, op, JITTER_TICKS),
        };
        let (reference, bodies) = (reference.clone(), Arc::clone(&bodies));
        let (outcome, epoch) = try_with_timeout(Some(timeout_ms), move || {
            let root = || (workload.factory)(params);
            if kind == "jitter" {
                classify_jitter_plan(&backend, &plan_cfg, &root, &*bodies)
            } else {
                classify_kill_plan(&backend, &plan_cfg, &reference, &root, &*bodies)
            }
        })
        .unwrap_or(("wedged", None));
        if outcome == "diverged" || outcome == "wedged" {
            eprintln!("plan {kind} tid={tid} op={op}: {outcome}");
        }
        *tally.entry(outcome).or_default() += 1;
        let epoch = epoch.map_or("null".to_owned(), |e| e.to_string());
        rows.push(format!(
            "    {{\"kind\": \"{kind}\", \"tid\": {tid}, \"op\": {op}, \
             \"outcome\": \"{outcome}\", \"recovered_from_epoch\": {epoch}}}"
        ));
    }

    let out_path = f.out.unwrap_or_else(|| {
        PathBuf::from(format!(
            "results/sweep_{}_{}t.json",
            workload.name, params.threads
        ))
    });
    let count = |outcome| tally.get(outcome).copied().unwrap_or(0);
    let (converged, recovered) = (count("converged"), count("recovered"));
    let (diverged, wedged) = (count("diverged"), count("wedged"));
    let (name, threads, plans) = (workload.name, params.threads, rows.len());
    let tids = threads + 1;
    let rows_json = rows.join(",\n") + if rows.is_empty() { "" } else { "\n" };
    let json = format!(
        r#"{{
  "workload": "{name}",
  "threads": {threads},
  "backend": "{backend_name}",
  "checkpoint_every": {every},
  "timeout_ms": {timeout_ms},
  "grid": {{"kinds": ["panic", "fail_alloc", "jitter"], "jitter_ticks": {JITTER_TICKS}, "tids": {tids}, "op_strata": {STRATA:?}}},
  "plans": {plans},
  "outcomes": {{"converged": {converged}, "recovered": {recovered}, "diverged": {diverged}, "wedged": {wedged}}},
  "rows": [
{rows_json}  ]
}}
"#
    );
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        die(
            EXIT_IO,
            format!("cannot write sweep report {}: {e}", out_path.display()),
        );
    }
    let verdict = if diverged + wedged == 0 {
        "OK"
    } else {
        "FAILED"
    };
    println!(
        "SWEEP {verdict}: {converged} converged, {recovered} recovered, {diverged} diverged, \
         {wedged} wedged -> {}",
        out_path.display()
    );
    if wedged > 0 {
        EXIT_WEDGED
    } else if diverged > 0 {
        EXIT_DIVERGED
    } else {
        0
    }
}

fn cmd_metrics(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let format = f.format.unwrap_or_else(|| "json".to_owned());
    if format != "json" && format != "prom" {
        die(
            EXIT_USAGE,
            format!("unknown format {format:?} (expected json or prom)"),
        );
    }
    let backend = backend_or_die(&f.backend);
    let mut cfg = cli_config();
    cfg.metrics = true;
    match backend.run(&cfg, (workload.factory)(params)) {
        Ok(out) => {
            let Some(snap) = out.metrics else {
                die(EXIT_USAGE, "metrics requested but no snapshot attached");
            };
            if format == "prom" {
                print!("{}", snap.to_prometheus());
            } else {
                println!("{}", snap.to_json());
            }
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn cmd_races(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let (backend_name, timeout) = (f.backend, f.timeout);
    let backend = backend_or_die(&backend_name);
    if !backend.supports_race_detection() {
        die(
            EXIT_USAGE,
            format!("backend {backend_name:?} has no happens-before substrate to check against"),
        );
    }
    let mut cfg = cli_config();
    cfg.detect_races = true;
    let out = {
        let cfg = cfg.clone();
        let root = (workload.factory)(params);
        run_with_timeout(timeout, "race detection", move || backend.run(&cfg, root))
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            println!("{e}");
            return failure_code(&e);
        }
    };
    let digest = rfdet_api::races_digest(&out.races);
    let rendered = rfdet_api::render_races(&out.races);
    let output_digest = out.output_digest();
    print!("{rendered}");
    println!("race digest {digest:016x} (output digest {output_digest:#018x})");
    let sidecar = format!(
        "workload {}@{}\nbackend {backend_name}\nrace digest {digest:016x}\n{rendered}",
        workload.name, params.threads
    );
    let name = format!(
        "races_{}@{}.{}.races",
        workload.name, params.threads, backend_name
    );
    match persist::save_sidecar(&persist::trace_dir(), &name, &sidecar) {
        Ok(path) => println!("RACES {}", path.display()),
        Err(e) => die(EXIT_IO, format!("cannot persist race report: {e}")),
    }
    if out.races.is_empty() {
        println!("no races detected");
        return 0;
    }
    // 1-minimal reproducer, corpus entries only: every `races.*`
    // workload takes a worker-enable mask (disabled workers still spawn,
    // so surviving tids and sync-op counts — and hence the target race's
    // digest — are unchanged under shrinking).
    if rfdet_workloads::races::root_masked(workload.name, params, u64::MAX).is_some() {
        let target = out.races[0].digest();
        let workers: Vec<usize> = (0..params.threads).collect();
        let mut oracle = |subset: &[usize]| {
            let mask = subset.iter().fold(0u64, |m, &t| m | (1 << t));
            let root = rfdet_workloads::races::root_masked(workload.name, params, mask)
                .expect("corpus entry");
            let b = backend_by_name(&backend_name).expect("resolved above");
            b.run(&cfg, root)
                .map(|out| out.races.iter().any(|r| r.digest() == target))
                .unwrap_or(false)
        };
        let min = rfdet_api::trace::ddmin(&workers, &mut oracle);
        let mask = min.iter().fold(0u64, |m, &t| m | (1 << t));
        println!("MINWORKERS {min:?} (enable mask {mask:#x}) still reproduce race {target:016x}");
    } else {
        println!(
            "(worker-mask shrinking is corpus-only; {} has no masked variant)",
            workload.name
        );
    }
    0
}

type Body = fn(&str, Flags) -> i32;

/// One row per verb: its synopsis (the usage text), the flags it accepts,
/// and its body, called with the argument and the parsed flags.
#[rustfmt::skip] // a table: a row's flag list is not one flag per line
const VERBS: &[(&str, &[&str], Body)] = &[
    (
        "record <workload>[@threads] [--backend NAME] [--seed S]\n    \
         [--checkpoint-every N] [--ckpt-dir DIR] [--timeout MS]\n    \
         [--panic TID:OP]... [--jitter TID:OP:TICKS]... [--fail-alloc TID:NTH]...",
        &["--backend", "--seed", "--checkpoint-every", "--ckpt-dir", "--timeout",
          "--panic", "--jitter", "--fail-alloc"],
        cmd_record,
    ),
    ("replay <trace-file> [--timeout MS]", &["--timeout"], cmd_replay),
    ("shrink <trace-file>", &[], cmd_shrink),
    ("resume <ckpt-file> [--every N] [--timeout MS]", &["--every", "--timeout"], cmd_resume),
    ("shard  <ckpt-file> [-j N] [--timeout MS]", &["-j", "--timeout"], cmd_shard),
    (
        "failover <workload>[@threads] [--backend NAME] [--every N]\n    \
         [--ckpt-dir DIR] [--timeout MS] [--panic TID:OP]... [--fail-alloc TID:NTH]...",
        &["--backend", "--every", "--ckpt-dir", "--timeout", "--panic", "--fail-alloc"],
        cmd_failover,
    ),
    (
        "sweep <workload>[@threads] [--backend NAME] [--plans N]\n    \
         [--every N] [--timeout MS] [--out PATH]",
        &["--backend", "--plans", "--every", "--timeout", "--out"],
        cmd_sweep,
    ),
    (
        "metrics <workload>[@threads] [--backend NAME] [--format json|prom]",
        &["--backend", "--format"],
        cmd_metrics,
    ),
    (
        "races <workload>[@threads] [--backend NAME] [--timeout MS]",
        &["--backend", "--timeout"],
        cmd_races,
    ),
];

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = |v: &String| VERBS.iter().find(|(s, ..)| s.split(' ').next() == Some(v));
    let (Some(&(_, accepted, body)), Some(arg)) = (args.first().and_then(named), args.get(1))
    else {
        usage()
    };
    let flags = parse_flags(accepted, &args[2..]).unwrap_or_else(|message| {
        if !message.is_empty() {
            eprintln!("error: {message}");
        }
        usage()
    });
    exit(body(arg, flags));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text shows exactly the flags a verb accepts, and every
    /// one of them has a parser (taking one of the sample values).
    #[test]
    fn every_verb_lists_the_flags_its_usage_shows_and_each_one_parses() {
        for &(synopsis, accepted, _) in VERBS {
            let shown = synopsis.split('[').filter(|s| s.starts_with('-'));
            let shown: Vec<&str> = shown.filter_map(|s| s.split(' ').next()).collect();
            assert_eq!(shown, accepted, "{synopsis}");
            for &flag in accepted {
                let parses = |v: &&str| parse_flags(accepted, &[flag.into(), (*v).into()]).is_ok();
                assert!(["1", "1:2", "1:2:3"].iter().any(parses), "{flag}");
            }
        }
    }
}
