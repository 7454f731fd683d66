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
//! finish — crash recovery. `verify` takes any checkpoint of a chain and
//! verifies the chain by `rfdet_core::replay_chain`: one replay from the
//! start that must seal every checkpoint of the chain, digest for digest.
//!
//! `failover` runs the full crash-failover cycle (DESIGN.md §4.12): a
//! reference replica under the plan without its kills, a faulted replica
//! killed at the given FaultPlan coordinate, and `rfdet_core::judge`'s
//! verdict on it (a `recover` from the faulted run's last checkpoint,
//! compared with the reference byte for byte) — exit 0 only when the
//! replica converged or recovered, 4 when it wedged. `sweep` runs a
//! whole fault-plan grid (panic/fail_alloc/jitter × thread × sync-op
//! strata) under supervision, judges every plan by the same
//! `rfdet_core::run_failover` into {converged, recovered, diverged,
//! wedged}, and writes a JSON report (default in the trace directory);
//! diverged or wedged outcomes fail the sweep.
//!
//! `metrics` runs a workload once with the deterministic-safe metrics
//! layer enabled and prints the phase rollup as JSON (schema
//! `rfdet-metrics/1`).
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
//! wedged (the run blew its `--timeout`, or ended `Wedged`).

use rfdet_api::trace::{persist, Checkpoint, Recording};
use rfdet_api::{DmtBackend, FailureKind, FaultPlan, RunConfig, RunError, RunTrace};
use rfdet_bench::{each_flag, number};
use rfdet_core::{ChainDivergence, RfdetBackend, Verdict};
use rfdet_workloads::{by_name, resumable, Params, Size, Workload};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::exit;
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

/// Runs `f` on a worker thread, bounding it to `ms` when given: `None`
/// when it did not finish in time (the stuck thread is leaked),
/// `Some(Err(payload))` when it panicked.
fn try_with_timeout<T: Send + 'static>(
    ms: Option<u64>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<std::thread::Result<T>> {
    let Some(ms) = ms else { return Some(Ok(f())) };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    rx.recv_timeout(Duration::from_millis(ms)).ok()
}

/// [`try_with_timeout`] for the single-run verbs: a run that cannot
/// finish in time is wedged by definition here, so the process exits `4`
/// and the stuck thread dies with it; a run that panicked panics here.
fn run_with_timeout<T: Send + 'static>(
    ms: Option<u64>,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    match try_with_timeout(ms, f) {
        Some(Ok(v)) => v,
        Some(Err(panic)) => resume_unwind(panic),
        None => {
            let ms = ms.unwrap_or(0);
            die(
                EXIT_WEDGED,
                format!("{what} did not finish within {ms} ms: wedged"),
            )
        }
    }
}

/// Maps a run failure to its exit code: wedged runs are a distinct
/// class (retryable, usually environmental) from divergence.
fn failure_code(e: &RunError) -> i32 {
    if e.kind() == FailureKind::Wedged {
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
/// in a recording) to its registry entry and parameters, or exits on an
/// unknown name or a thread count of 0 (a program with no workers).
fn workload_or_die(spec: &str) -> (Workload, Params) {
    let (name, threads) = spec.split_once('@').unwrap_or((spec, "2"));
    match (by_name(name), threads.parse()) {
        (Some(_), Ok(0)) => die(EXIT_USAGE, format!("no threads in {spec:?}")),
        (Some(workload), Ok(threads)) => (workload, Params::new(threads, Size::Test)),
        _ => die(EXIT_USAGE, format!("unknown workload {spec:?}")),
    }
}

fn backend_or_die(name: &str) -> Box<dyn DmtBackend> {
    backend_by_name(name).unwrap_or_else(|| die(EXIT_USAGE, format!("unknown backend {name:?}")))
}

/// Exits unless a checkpoint of `workload` can be resumed.
fn resumable_or_die(workload: &Workload, why: &str) {
    if !resumable(workload.name) {
        let name = workload.name;
        die(
            EXIT_USAGE,
            format!("workload {name:?} is not resumable{why}"),
        );
    }
}

/// Resolves the workload a recording names and its backend, through
/// `backend` (the full registry or the core-only one); either exits
/// with a usage error on a name this build does not know.
fn resolve<B>(rec: &Recording, backend: fn(&str) -> B) -> (B, Workload, Params) {
    let (workload, params) = workload_or_die(&rec.workload);
    (backend(&rec.backend), workload, params)
}

/// Loads the trace at `path` and resolves the backend and workload it
/// names.
fn trace_setup(path: &str) -> (RunTrace, Box<dyn DmtBackend>, Workload, Params) {
    let trace = persist::load(Path::new(path))
        .unwrap_or_else(|e| die(EXIT_IO, format!("cannot load trace {path}: {e}")));
    println!("{}", trace.summary());
    let (backend, workload, params) = resolve(&trace.recording, backend_or_die);
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
    plans: Option<usize>,
    out: Option<PathBuf>,
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
            "--plans" => f.plans = Some(val(value())?),
            "--out" => f.out = Some(val(value())?),
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
fn resume_setup(ckpt: &Checkpoint) -> (RfdetBackend, Workload, Params) {
    let (backend, workload, params) = resolve(&ckpt.recording, core_backend_or_die);
    resumable_or_die(
        &workload,
        " (its control state does not live in deterministic memory)",
    );
    (backend, workload, params)
}

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
        Err(e) => e.report().report_digest(),
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

/// Resumes under the checkpoint's recording, whose plan is already
/// kill-free: its jitter stays, the kill that crashed the run is not
/// there. New checkpoints continue the resumed checkpoint's chain, in
/// its directory.
fn cmd_resume(path: &str, f: Flags) -> i32 {
    let ckpt = load_ckpt_or_die(Path::new(path));
    println!("{}", ckpt.summary());
    let (backend, workload, params) = resume_setup(&ckpt);
    let mut cfg = RunConfig::from_recording(&ckpt.recording);
    cfg.checkpoint_every = f.every.unwrap_or(0);
    cfg.checkpoint_dir = Some(dir_of(Path::new(path)).to_owned());
    let run = run_with_timeout(f.timeout, "resume", move || {
        backend.run_resumed(&cfg, &ckpt, &|| (workload.factory)(params))
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

fn cmd_verify(path: &str, f: Flags) -> i32 {
    let anchor = load_ckpt_or_die(Path::new(path));
    let files = persist::checkpoint_chain(dir_of(Path::new(path)), anchor.run_key());
    let chain: Vec<Checkpoint> = files.iter().map(|(_, p)| load_ckpt_or_die(p)).collect();
    let (n, cadence) = (chain.len(), chain.first().map_or(0, |c| c.epoch));
    println!(
        "chain: {n} checkpoints, cadence {cadence} (run key {:016x})",
        anchor.run_key()
    );
    let (backend, workload, params) = resume_setup(&anchor);
    let cfg = RunConfig::from_recording(&anchor.recording);
    let verified = run_with_timeout(f.timeout, "chain verify", move || {
        rfdet_core::replay_chain(&backend, &cfg, &chain, &|| (workload.factory)(params))
    });
    let Err(divergence) = verified else {
        println!("CHAIN OK: {n} checkpoints reproduced");
        return 0;
    };
    let code = match &divergence {
        ChainDivergence::NotUniform(_) => EXIT_USAGE,
        ChainDivergence::Failed(error) => {
            println!("{error}");
            failure_code(error)
        }
        ChainDivergence::Diverged(_) => EXIT_DIVERGED,
    };
    die(code, divergence)
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
        .unwrap_or_else(|e| die(EXIT_IO, format!("cannot save minimized trace: {e}")));
    let (from, to) = (trace.recording.faults.len(), min.recording.faults.len());
    println!("shrunk fault plan {from} -> {to} entries");
    println!("MINTRACE {}", out.display());
    0
}

fn cmd_failover(spec: &str, f: Flags) -> i32 {
    let (workload, params) = workload_or_die(spec);
    let backend = core_backend_or_die(&f.backend);
    resumable_or_die(&workload, "");
    let mut cfg = cli_config();
    cfg.fault_plan = f.plan;
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = f.every.unwrap_or(2);
    cfg.checkpoint_dir = f.ckpt_dir;
    let report = run_with_timeout(f.timeout, "failover", move || {
        rfdet_core::run_failover(&backend, &cfg, &move || (workload.factory)(params))
    });
    match &report.crash {
        Some(r) => println!("crash: tid {} ({:?})", r.tid, r.kind),
        None => println!("crash: fault plan never fired (clean run)"),
    }
    match report.verdict {
        Verdict::Recovered(Some(e)) => println!("recovered from checkpoint epoch {e}"),
        Verdict::Recovered(None) => {
            println!("recovered from scratch (no checkpoint before the crash)");
        }
        _ => {}
    }
    let digest =
        |d: Option<u64>| d.map_or("none (the run failed)".to_owned(), |d| format!("{d:#018x}"));
    println!(
        "reference digest {}, recovered digest {}",
        digest(report.reference_digest),
        digest(report.recovered_digest)
    );
    let (word, code) = match report.verdict {
        Verdict::Wedged => ("WEDGED", EXIT_WEDGED),
        v if v.converged() => ("CONVERGED", 0),
        _ => ("DIVERGED", EXIT_DIVERGED),
    };
    println!("FAILOVER {word}");
    code
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
    resumable_or_die(&workload, "");

    let mut cfg = cli_config();
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = every;

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
        // A plan that blew its timeout is wedged; one that panicked is a
        // divergence, not a wedge.
        let failover = try_with_timeout(Some(timeout_ms), move || {
            rfdet_core::run_failover(&backend, &plan_cfg, &move || (workload.factory)(params))
        });
        let verdict = match failover {
            Some(Ok(report)) => report.verdict,
            Some(Err(_)) => Verdict::Diverged,
            None => Verdict::Wedged,
        };
        let outcome = verdict.name();
        if !verdict.converged() {
            eprintln!("plan {kind} tid={tid} op={op}: {outcome}");
        }
        *tally.entry(outcome).or_default() += 1;
        let epoch = match verdict {
            Verdict::Recovered(Some(e)) => e.to_string(),
            _ => "null".to_owned(),
        };
        rows.push(format!(
            "    {{\"kind\": \"{kind}\", \"tid\": {tid}, \"op\": {op}, \
             \"outcome\": \"{outcome}\", \"recovered_from_epoch\": {epoch}}}"
        ));
    }

    let out_path = f.out.unwrap_or_else(|| {
        let name = format!("sweep_{}_{}t.json", workload.name, params.threads);
        persist::trace_dir().join(name)
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
    let backend = backend_or_die(&f.backend);
    let mut cfg = cli_config();
    cfg.metrics = true;
    match backend.run(&cfg, (workload.factory)(params)) {
        Ok(out) => {
            let Some(snap) = out.metrics else {
                die(EXIT_USAGE, "metrics requested but no snapshot attached");
            };
            println!("{}", snap.to_json());
            0
        }
        Err(e) => {
            eprintln!("{e}");
            failure_code(&e)
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
    ("verify <ckpt-file> [--timeout MS]", &["--timeout"], cmd_verify),
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
        "metrics <workload>[@threads] [--backend NAME]",
        &["--backend"],
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

    /// A body that panics has finished, not blown its timeout: a sweep
    /// books it diverged and a single-run verb re-raises it.
    #[test]
    fn a_panicking_body_is_not_a_timeout() {
        let ran = try_with_timeout(Some(10_000), || -> u32 { panic!("body panicked") });
        assert!(matches!(ran, Some(Err(_))), "read as a timeout");
        assert!(matches!(try_with_timeout(Some(10_000), || 7), Some(Ok(7))));
    }
}
