//! Flight-recorder CLI: record failing runs, replay persisted traces,
//! and shrink their fault plans to minimal repros.
//!
//! ```text
//! replay record <workload>[@threads] [--backend NAME] [--seed S]
//!               [--checkpoint-every N] [--ckpt-dir DIR] [--timeout MS]
//!               [--panic TID:OP]... [--jitter TID:OP:TICKS]...
//!               [--fail-alloc TID:NTH]...
//! replay replay <trace-file> [--timeout MS]
//! replay shrink <trace-file>
//! replay resume <ckpt-file> [--every N] [--timeout MS]
//! replay shard  <ckpt-file> [-j N] [--timeout MS]
//! replay failover <workload>[@threads] [--backend NAME] [--every N]
//!               [--ckpt-dir DIR] [--timeout MS] [--panic TID:OP]...
//!               [--fail-alloc TID:NTH]...
//! replay sweep <workload>[@threads] [--backend NAME] [--plans N]
//!              [--every N] [--timeout MS] [--out PATH]
//! replay metrics <workload>[@threads] [--backend NAME] [--format json|prom]
//! replay races <workload>[@threads] [--backend NAME] [--timeout MS]
//! ```
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
//! finish — crash recovery. `shard` takes any checkpoint of a chain,
//! replays every inter-checkpoint window in parallel (`-j`), and proves
//! each shard's terminal checkpoint bit-identical to the recorded chain
//! — the serial replay runs too, for the wall-time comparison.
//!
//! `failover` runs the full crash-failover cycle (DESIGN.md §4.12):
//! an unfaulted reference replica, a faulted replica killed at the
//! given FaultPlan coordinate, restore from the last checkpoint, tail
//! replay, and a byte-identical convergence check — exit 0 only when
//! the recovered digest matches the reference. `sweep` enumerates a
//! whole fault-plan grid (panic/fail_alloc/jitter × thread × sync-op
//! strata), runs every plan under supervision, classifies each outcome
//! into {converged, recovered, diverged, wedged}, and writes a JSON
//! report (default under `results/`); diverged or wedged outcomes fail
//! the sweep.
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

use rfdet_api::trace::Checkpoint;
use rfdet_api::{trace::persist, DmtBackend, FaultPlan, RunConfig, RunError, RunTrace, ThreadFn};
use rfdet_core::RfdetBackend;
use rfdet_workloads::{by_name, Params, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

/// Divergence: a digest or schedule did not reproduce.
const EXIT_DIVERGED: i32 = 1;
/// Usage error or unsupported backend/workload combination.
const EXIT_USAGE: i32 = 2;
/// File I/O or codec failure.
const EXIT_IO: i32 = 3;
/// The run wedged: `--timeout` exceeded or [`RunError::Wedged`].
const EXIT_WEDGED: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         replay record <workload>[@threads] [--backend NAME] [--seed S]\n    \
           [--checkpoint-every N] [--ckpt-dir DIR] [--timeout MS]\n    \
           [--panic TID:OP]... [--jitter TID:OP:TICKS]... [--fail-alloc TID:NTH]...\n  \
         replay replay <trace-file> [--timeout MS]\n  \
         replay shrink <trace-file>\n  \
         replay resume <ckpt-file> [--every N] [--timeout MS]\n  \
         replay shard  <ckpt-file> [-j N] [--timeout MS]\n  \
         replay failover <workload>[@threads] [--backend NAME] [--every N]\n    \
           [--ckpt-dir DIR] [--timeout MS] [--panic TID:OP]... [--fail-alloc TID:NTH]...\n  \
         replay sweep <workload>[@threads] [--backend NAME] [--plans N]\n    \
           [--every N] [--timeout MS] [--out PATH]\n  \
         replay metrics <workload>[@threads] [--backend NAME] [--format json|prom]\n  \
         replay races <workload>[@threads] [--backend NAME] [--timeout MS]\n\
         exit codes: 0 ok, 1 diverged, 2 usage, 3 io, 4 wedged"
    );
    exit(EXIT_USAGE);
}

/// Runs `f` on a worker thread, bounding it to `ms` when given. A run
/// that cannot finish in time is wedged by definition here: the process
/// exits `4` and the stuck thread dies with it.
fn run_with_timeout<T: Send + 'static>(
    ms: Option<u64>,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let Some(ms) = ms else { return f() };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_millis(ms)) {
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: {what} did not finish within {ms} ms: wedged");
            exit(EXIT_WEDGED);
        }
    }
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
    match name {
        "pthreads" => Some(Box::new(rfdet_native::NativeBackend)),
        "RFDet" | "RFDet-ci" => Some(Box::new(RfdetBackend::ci())),
        "RFDet-pf" => Some(Box::new(RfdetBackend::pf())),
        "DThreads" => Some(Box::new(rfdet_dthreads::DthreadsBackend)),
        "CoreDet-q" => Some(Box::new(rfdet_dthreads::QuantumBackend)),
        _ => None,
    }
}

/// Checkpoint restore needs the concrete core backend (`run_resumed` is
/// not on the [`DmtBackend`] trait — no other backend can implement it).
fn core_backend(name: &str) -> Option<RfdetBackend> {
    match name {
        "RFDet" => Some(RfdetBackend::default()),
        "RFDet-ci" => Some(RfdetBackend::ci()),
        "RFDet-pf" => Some(RfdetBackend::pf()),
        _ => None,
    }
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

fn make_root(w: &Workload, p: Params) -> ThreadFn {
    (w.factory)(p)
}

fn parse_pair(s: &str) -> Option<(u32, u64)> {
    let (a, b) = s.split_once(':')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn parse_triple(s: &str) -> Option<(u32, u64, u64)> {
    let mut it = s.splitn(3, ':');
    let a = it.next()?.parse().ok()?;
    let b = it.next()?.parse().ok()?;
    let c = it.next()?.parse().ok()?;
    Some((a, b, c))
}

fn load_or_die(path: &str) -> RunTrace {
    match persist::load(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot load trace {path}: {e}");
            exit(EXIT_IO);
        }
    }
}

fn load_ckpt_or_die(path: &Path) -> Checkpoint {
    match persist::load_checkpoint(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot load checkpoint {}: {e}", path.display());
            exit(EXIT_IO);
        }
    }
}

/// Resolves a checkpoint's workload to its per-tid resume bodies, or
/// exits: both failures are configuration errors, not divergence.
fn resume_setup(ckpt: &Checkpoint) -> (RfdetBackend, ResumeBodies) {
    let Some(backend) = core_backend(&ckpt.backend) else {
        eprintln!(
            "error: backend {:?} does not support checkpoint restore",
            ckpt.backend
        );
        exit(EXIT_USAGE);
    };
    let Some((workload, params)) = resolve_workload(&ckpt.workload) else {
        eprintln!(
            "error: checkpoint names unknown workload {:?}",
            ckpt.workload
        );
        exit(EXIT_USAGE);
    };
    let Some(bodies) = rfdet_workloads::resume_bodies(workload.name, params) else {
        eprintln!(
            "error: workload {:?} is not resumable (its control state does not \
             live in deterministic memory)",
            workload.name
        );
        exit(EXIT_USAGE);
    };
    (backend, bodies)
}

type ResumeBodies = Box<dyn Fn(rfdet_api::Tid) -> ThreadFn + Send + Sync>;

fn cmd_record(args: &[String]) -> i32 {
    let Some(spec) = args.first() else { usage() };
    let Some((workload, params)) = resolve_workload(spec) else {
        eprintln!("error: unknown workload {spec:?}");
        return 2;
    };
    let mut backend_name = "RFDet-ci".to_owned();
    let mut plan = FaultPlan::new();
    let mut seed = None;
    let mut checkpoint_every = 0u64;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut timeout = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                // A seed that does not parse must not fall back to an
                // unjittered run: the recording would look seeded.
                let v = args.get(i + 1).map_or("", String::as_str);
                seed = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed expects a number, got {v:?}");
                    usage()
                }));
                i += 2;
            }
            "--timeout" => {
                timeout = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--checkpoint-every" => {
                checkpoint_every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--ckpt-dir" => {
                ckpt_dir = Some(PathBuf::from(
                    args.get(i + 1).cloned().unwrap_or_else(|| usage()),
                ));
                i += 2;
            }
            "--panic" => {
                let (tid, op) = args
                    .get(i + 1)
                    .and_then(|s| parse_pair(s))
                    .unwrap_or_else(|| usage());
                plan = plan.panic_at(tid, op);
                i += 2;
            }
            "--jitter" => {
                let (tid, op, ticks) = args
                    .get(i + 1)
                    .and_then(|s| parse_triple(s))
                    .unwrap_or_else(|| usage());
                plan = plan.jitter_at(tid, op, ticks);
                i += 2;
            }
            "--fail-alloc" => {
                let (tid, nth) = args
                    .get(i + 1)
                    .and_then(|s| parse_pair(s))
                    .unwrap_or_else(|| usage());
                plan = plan.fail_alloc(tid, nth);
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(backend) = backend_by_name(&backend_name) else {
        eprintln!("error: unknown backend {backend_name:?}");
        return 2;
    };
    let mut cfg = cli_config();
    cfg.fault_plan = plan;
    cfg.jitter_seed = seed;
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = checkpoint_every;
    cfg.checkpoint_dir = ckpt_dir;
    if checkpoint_every > 0 && !backend.supports_checkpoints() {
        eprintln!("error: backend {backend_name:?} does not support checkpoints");
        return EXIT_USAGE;
    }
    let run = run_with_timeout(timeout, "record", move || {
        backend.run_traced(&cfg, make_root(&workload, params))
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

fn cmd_replay(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let timeout = parse_timeout(&args[1..]);
    let trace = load_or_die(path);
    println!("{}", trace.summary());
    let Some(backend) = backend_by_name(&trace.backend) else {
        eprintln!("error: trace names unknown backend {:?}", trace.backend);
        return EXIT_USAGE;
    };
    let Some((workload, params)) = resolve_workload(&trace.workload) else {
        eprintln!("error: trace names unknown workload {:?}", trace.workload);
        return EXIT_USAGE;
    };
    let replay = {
        let root = make_root(&workload, params);
        let trace = trace.clone();
        run_with_timeout(timeout, "replay", move || backend.replay(&trace, root))
    };
    let digest = match &replay.result {
        Ok(out) => out.output_digest(),
        Err(e) => e.report_digest(),
    };
    println!(
        "replay digest {:#018x} vs recorded {:#018x}: {}",
        digest,
        trace.failure.report_digest,
        if replay.digest_match {
            "MATCH"
        } else {
            "DIVERGED"
        }
    );
    match replay.schedule_match {
        Some(true) => println!("culprit schedule: MATCH"),
        Some(false) => println!("culprit schedule: DIVERGED"),
        None => println!("culprit schedule: not comparable (no events recorded)"),
    }
    if replay.reproduced() {
        println!("REPLAY OK");
        0
    } else {
        println!("REPLAY FAILED");
        match &replay.result {
            // A replay that wedged did not diverge — it never finished.
            Err(RunError::Wedged(_)) => EXIT_WEDGED,
            _ => EXIT_DIVERGED,
        }
    }
}

/// Parses a trailing `--timeout MS` flag (shared by the run-executing
/// verbs); any other flag here is a usage error.
fn parse_timeout(args: &[String]) -> Option<u64> {
    let mut timeout = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                timeout = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            _ => usage(),
        }
    }
    timeout
}

/// `replay resume <ckpt-file>`: crash recovery. Rebuilds the run at the
/// checkpoint's consistent cut and lets it finish under the recorded
/// config — minus the fault plan, because the plan is what killed it.
fn cmd_resume(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let mut timeout = None;
    let mut every = 0u64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                timeout = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--every" => {
                every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    let ckpt = load_ckpt_or_die(Path::new(path));
    println!("{}", ckpt.summary());
    let (backend, bodies) = resume_setup(&ckpt);
    let mut cfg = RunConfig::from_checkpoint(&ckpt);
    cfg.checkpoint_every = every;
    let run = run_with_timeout(timeout, "resume", move || {
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

/// `replay shard <ckpt-file> -j N`: replays every inter-checkpoint
/// window of the chain in parallel and proves each shard's terminal
/// checkpoint bit-identical to the recorded one; the tail shard's
/// output must match the serial replay, which also provides the
/// wall-time baseline.
fn cmd_shard(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let mut jobs = 4usize;
    let mut timeout = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-j" => {
                jobs = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--timeout" => {
                timeout = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            _ => usage(),
        }
    }
    let anchor_path = Path::new(path);
    let anchor = load_ckpt_or_die(anchor_path);
    let dir = anchor_path.parent().unwrap_or_else(|| Path::new("."));
    let files = persist::checkpoint_chain(dir, anchor.run_key());
    let chain: Vec<Checkpoint> = files.iter().map(|(_, p)| load_ckpt_or_die(p)).collect();
    assert!(!chain.is_empty(), "the anchor itself is on the chain");
    // Shard windows come from the recording cadence; a gappy chain
    // (deleted files) cannot schedule its stop points.
    let every = chain[0].epoch;
    for (k, c) in chain.iter().enumerate() {
        if every == 0 || c.epoch != every * (k as u64 + 1) {
            eprintln!(
                "error: checkpoint chain is not a uniform cadence \
                 (epochs {:?}); cannot shard",
                chain.iter().map(|c| c.epoch).collect::<Vec<_>>()
            );
            return EXIT_USAGE;
        }
    }
    println!(
        "chain: {} checkpoints, cadence {every} (run key {:016x})",
        chain.len(),
        anchor.run_key()
    );
    let (backend, bodies) = resume_setup(&chain[0]);
    let Some((workload, params)) = resolve_workload(&chain[0].workload) else {
        unreachable!("resume_setup already resolved the workload");
    };
    let mut cfg = RunConfig::from_checkpoint(&chain[0]);
    cfg.checkpoint_every = every;
    cfg.persist_checkpoints = false;

    run_with_timeout(timeout, "shard replay", move || {
        // Serial baseline: the full run, start to finish.
        let t0 = Instant::now();
        let serial = backend.run_traced(&cfg, (workload.factory)(params));
        let serial_ms = t0.elapsed().as_millis();
        let serial_digest = match &serial.result {
            Ok(out) => out.output_digest(),
            Err(e) => {
                println!("{e}");
                eprintln!("error: serial replay failed; chain is not replayable");
                return failure_code(e);
            }
        };
        for (k, c) in chain.iter().enumerate() {
            let Some(own) = serial.checkpoints.get(k) else {
                eprintln!(
                    "error: serial replay produced no epoch-{} checkpoint",
                    c.epoch
                );
                return EXIT_DIVERGED;
            };
            if own.digest() != c.digest() {
                eprintln!("error: serial replay diverged at epoch {}", c.epoch);
                return EXIT_DIVERGED;
            }
        }

        // Parallel shards; the tail shard (id == chain.len()) runs to
        // completion and is compared by output, the rest by checkpoint.
        let n_shards = chain.len() + 1;
        let t1 = Instant::now();
        let shards = rfdet_bench::replay_shards(
            &backend,
            &cfg,
            &chain,
            &|| (workload.factory)(params),
            &*bodies,
            jobs,
        );
        let sharded_ms = t1.elapsed().as_millis();

        for (k, run) in shards.iter().enumerate() {
            match &run.result {
                Err(e) => {
                    println!("shard {k}: {e}");
                    return failure_code(e);
                }
                Ok(out) if k == n_shards - 1 => {
                    if out.output_digest() != serial_digest {
                        eprintln!("error: tail shard output diverged from serial replay");
                        return EXIT_DIVERGED;
                    }
                }
                Ok(_) => {
                    let Some(last) = run.checkpoints.last() else {
                        eprintln!("error: shard {k} produced no terminal checkpoint");
                        return EXIT_DIVERGED;
                    };
                    if last.digest() != chain[k].digest() {
                        eprintln!(
                            "error: shard {k} terminal checkpoint diverged at epoch {}",
                            chain[k].epoch
                        );
                        return EXIT_DIVERGED;
                    }
                }
            }
        }
        println!(
            "SHARD OK: {n_shards} shards (j={jobs}) digest-identical to serial; \
             serial {serial_ms} ms, sharded {sharded_ms} ms"
        );
        0
    })
}

fn cmd_shrink(args: &[String]) -> i32 {
    let Some(path) = args.first() else { usage() };
    let trace = load_or_die(path);
    println!("{}", trace.summary());
    let Some(backend) = backend_by_name(&trace.backend) else {
        eprintln!("error: trace names unknown backend {:?}", trace.backend);
        return 2;
    };
    let Some((workload, params)) = resolve_workload(&trace.workload) else {
        eprintln!("error: trace names unknown workload {:?}", trace.workload);
        return 2;
    };
    let mut mk = || make_root(&workload, params);
    match backend.shrink_plan(&trace, &mut mk) {
        Some(min) => {
            let dir = Path::new(path)
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .to_path_buf();
            match persist::save_in(&dir, &min, ".min") {
                Ok(out) => {
                    println!(
                        "shrunk fault plan {} -> {} entries",
                        trace.faults.len(),
                        min.faults.len()
                    );
                    println!("MINTRACE {}", out.display());
                    0
                }
                Err(e) => {
                    eprintln!("error: cannot save minimized trace: {e}");
                    2
                }
            }
        }
        None => {
            println!("plan is already minimal (or the trace did not fail); nothing written");
            0
        }
    }
}

/// Like [`run_with_timeout`] but non-fatal: returns `None` on timeout
/// (the stuck worker thread is leaked) so a sweep can classify one
/// wedged plan and keep going instead of killing the whole process.
fn try_with_timeout<T: Send + 'static>(
    ms: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_millis(ms)).ok()
}

/// `replay failover <workload>`: the full record/kill/restore/replay
/// cycle via [`rfdet_core::run_failover`], reported and exit-coded on
/// byte-identical convergence.
fn cmd_failover(args: &[String]) -> i32 {
    let Some(spec) = args.first() else { usage() };
    let Some((workload, params)) = resolve_workload(spec) else {
        eprintln!("error: unknown workload {spec:?}");
        return EXIT_USAGE;
    };
    let mut backend_name = "RFDet-ci".to_owned();
    let mut plan = FaultPlan::new();
    let mut every = 2u64;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut timeout = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--every" => {
                every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--ckpt-dir" => {
                ckpt_dir = Some(PathBuf::from(
                    args.get(i + 1).cloned().unwrap_or_else(|| usage()),
                ));
                i += 2;
            }
            "--timeout" => {
                timeout = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--panic" => {
                let (tid, op) = args
                    .get(i + 1)
                    .and_then(|s| parse_pair(s))
                    .unwrap_or_else(|| usage());
                plan = plan.panic_at(tid, op);
                i += 2;
            }
            "--fail-alloc" => {
                let (tid, nth) = args
                    .get(i + 1)
                    .and_then(|s| parse_pair(s))
                    .unwrap_or_else(|| usage());
                plan = plan.fail_alloc(tid, nth);
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(backend) = core_backend(&backend_name) else {
        eprintln!("error: backend {backend_name:?} does not support checkpoint restore");
        return EXIT_USAGE;
    };
    let Some(bodies) = rfdet_workloads::resume_bodies(workload.name, params) else {
        eprintln!("error: workload {:?} is not resumable", workload.name);
        return EXIT_USAGE;
    };
    let mut cfg = cli_config();
    cfg.fault_plan = plan;
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = every;
    if let Some(dir) = ckpt_dir {
        cfg.persist_checkpoints = true;
        cfg.checkpoint_dir = Some(dir);
    }
    let report = run_with_timeout(timeout, "failover", move || {
        rfdet_core::run_failover(
            &backend,
            &cfg,
            &move || make_root(&workload, params),
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

/// One sweep row: a fault-plan coordinate and its classified outcome.
struct PlanRow {
    kind: &'static str,
    tid: u32,
    op: u64,
    outcome: &'static str,
    epoch: Option<u64>,
}

/// Classifies one non-jitter plan: converged (clean, digest matches the
/// reference), recovered (typed failure, checkpoint-restored replay
/// matches), diverged, or wedged.
fn classify_kill_plan(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    reference: &[u8],
    workload: Workload,
    params: Params,
) -> (&'static str, Option<u64>) {
    let run = backend.run_traced(cfg, make_root(&workload, params));
    match run.result {
        Ok(out) => {
            if out.output == reference {
                ("converged", None)
            } else {
                ("diverged", None)
            }
        }
        Err(RunError::Wedged(_)) => ("wedged", None),
        Err(_) => {
            let mut clean = cfg.clone();
            clean.fault_plan = FaultPlan::new();
            let (resumed, epoch) = match run.checkpoints.last() {
                Some(ckpt) => {
                    let bodies = rfdet_workloads::resume_bodies(workload.name, params)
                        .expect("sweep workloads are resumable");
                    (
                        backend.run_resumed(&clean, ckpt, &|tid| bodies(tid)),
                        Some(ckpt.epoch),
                    )
                }
                None => (
                    backend.run_traced(&clean, make_root(&workload, params)),
                    None,
                ),
            };
            match resumed.result {
                Ok(out) if out.output == reference => ("recovered", epoch),
                Ok(_) => ("diverged", epoch),
                Err(_) => ("diverged", epoch),
            }
        }
    }
}

/// Classifies one jitter plan. Jitter legitimately perturbs the
/// deterministic schedule, so the run may differ from the unjittered
/// reference; the contract is *rerun stability* — the identical plan
/// run twice must produce byte-identical results. A typed failure
/// under jitter must still checkpoint-recover to a clean completion.
fn classify_jitter_plan(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    workload: Workload,
    params: Params,
) -> (&'static str, Option<u64>) {
    let a = backend.run_traced(cfg, make_root(&workload, params));
    let b = backend.run_traced(cfg, make_root(&workload, params));
    match (&a.result, &b.result) {
        (Ok(x), Ok(y)) => {
            if x.output == y.output {
                ("converged", None)
            } else {
                ("diverged", None)
            }
        }
        (Err(RunError::Wedged(_)), _) | (_, Err(RunError::Wedged(_))) => ("wedged", None),
        (Err(x), Err(y)) => {
            if x.report().report_digest() != y.report().report_digest() {
                return ("diverged", None);
            }
            let mut clean = cfg.clone();
            clean.fault_plan = FaultPlan::new();
            match a.checkpoints.last() {
                Some(ckpt) => {
                    let bodies = rfdet_workloads::resume_bodies(workload.name, params)
                        .expect("sweep workloads are resumable");
                    let resumed = backend.run_resumed(&clean, ckpt, &|tid| bodies(tid));
                    match resumed.result {
                        Ok(_) => ("recovered", Some(ckpt.epoch)),
                        Err(_) => ("diverged", Some(ckpt.epoch)),
                    }
                }
                None => ("recovered", None),
            }
        }
        _ => ("diverged", None),
    }
}

/// `replay sweep <workload>`: enumerate the fault-plan grid
/// (kind × thread × sync-op stratum), classify every plan, write the
/// JSON report, and fail on any diverged or wedged outcome.
fn cmd_sweep(args: &[String]) -> i32 {
    let Some(spec) = args.first() else { usage() };
    let Some((workload, params)) = resolve_workload(spec) else {
        eprintln!("error: unknown workload {spec:?}");
        return EXIT_USAGE;
    };
    let mut backend_name = "RFDet-ci".to_owned();
    let mut every = 2u64;
    let mut timeout_ms = 10_000u64;
    let mut max_plans: Option<usize> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--every" => {
                every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--timeout" => {
                timeout_ms = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--plans" => {
                max_plans = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--out" => {
                out_path = Some(PathBuf::from(
                    args.get(i + 1).cloned().unwrap_or_else(|| usage()),
                ));
                i += 2;
            }
            _ => usage(),
        }
    }
    if core_backend(&backend_name).is_none() {
        eprintln!("error: sweep needs a checkpoint-capable backend (RFDet*), got {backend_name:?}");
        return EXIT_USAGE;
    }
    if rfdet_workloads::resume_bodies(workload.name, params).is_none() {
        eprintln!("error: workload {:?} is not resumable", workload.name);
        return EXIT_USAGE;
    }

    let mut cfg = cli_config();
    cfg.trace = Some(format!("{}@{}", workload.name, params.threads));
    cfg.checkpoint_every = every;

    // The unfaulted reference replica every kill plan must converge to.
    let reference = {
        let backend = core_backend(&backend_name).expect("checked above");
        let cfg = cfg.clone();
        let Some(run) = try_with_timeout(timeout_ms, move || {
            backend.run_traced(&cfg, make_root(&workload, params))
        }) else {
            eprintln!("error: unfaulted reference run wedged");
            return EXIT_WEDGED;
        };
        match run.result {
            Ok(out) => out.output,
            Err(e) => {
                eprintln!("error: unfaulted reference run failed: {e}");
                return EXIT_DIVERGED;
            }
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
    if let Some(n) = max_plans {
        coords.truncate(n);
    }

    println!(
        "sweep: {} plans on {}@{} ({backend_name}, checkpoint every {every}, {timeout_ms} ms/plan)",
        coords.len(),
        workload.name,
        params.threads
    );
    let mut rows: Vec<PlanRow> = Vec::new();
    let mut counts = [0usize; 4]; // converged, recovered, diverged, wedged
    for (kind, tid, op) in coords {
        let mut plan_cfg = cfg.clone();
        plan_cfg.fault_plan = match kind {
            "panic" => FaultPlan::new().panic_at(tid, op),
            "fail_alloc" => FaultPlan::new().fail_alloc(tid, op),
            _ => FaultPlan::new().jitter_at(tid, op, JITTER_TICKS),
        };
        let reference = reference.clone();
        let backend_name = backend_name.clone();
        let (outcome, epoch) = try_with_timeout(timeout_ms, move || {
            let backend = core_backend(&backend_name).expect("checked above");
            if kind == "jitter" {
                classify_jitter_plan(&backend, &plan_cfg, workload, params)
            } else {
                classify_kill_plan(&backend, &plan_cfg, &reference, workload, params)
            }
        })
        .unwrap_or(("wedged", None));
        let slot = match outcome {
            "converged" => 0,
            "recovered" => 1,
            "diverged" => 2,
            _ => 3,
        };
        counts[slot] += 1;
        if outcome == "diverged" || outcome == "wedged" {
            eprintln!("plan {kind} tid={tid} op={op}: {outcome}");
        }
        rows.push(PlanRow {
            kind,
            tid,
            op,
            outcome,
            epoch,
        });
    }

    let out_path = out_path.unwrap_or_else(|| {
        PathBuf::from(format!(
            "results/sweep_{}_{}t.json",
            workload.name, params.threads
        ))
    });
    let mut json = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"workload\": \"{}\",", workload.name);
    let _ = writeln!(json, "  \"threads\": {},", params.threads);
    let _ = writeln!(json, "  \"backend\": \"{backend_name}\",");
    let _ = writeln!(json, "  \"checkpoint_every\": {every},");
    let _ = writeln!(json, "  \"timeout_ms\": {timeout_ms},");
    let _ = writeln!(
        json,
        "  \"grid\": {{\"kinds\": [\"panic\", \"fail_alloc\", \"jitter\"], \
         \"jitter_ticks\": {JITTER_TICKS}, \"tids\": {}, \"op_strata\": {STRATA:?}}},",
        params.threads + 1
    );
    let _ = writeln!(json, "  \"plans\": {},", rows.len());
    let _ = writeln!(
        json,
        "  \"outcomes\": {{\"converged\": {}, \"recovered\": {}, \"diverged\": {}, \"wedged\": {}}},",
        counts[0], counts[1], counts[2], counts[3]
    );
    let _ = writeln!(json, "  \"rows\": [");
    for (k, r) in rows.iter().enumerate() {
        let epoch = r.epoch.map_or("null".to_owned(), |e| e.to_string());
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"tid\": {}, \"op\": {}, \"outcome\": \"{}\", \
             \"recovered_from_epoch\": {}}}{}",
            r.kind,
            r.tid,
            r.op,
            r.outcome,
            epoch,
            if k + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!(
            "error: cannot write sweep report {}: {e}",
            out_path.display()
        );
        return EXIT_IO;
    }
    println!(
        "SWEEP {}: {} converged, {} recovered, {} diverged, {} wedged -> {}",
        if counts[2] == 0 && counts[3] == 0 {
            "OK"
        } else {
            "FAILED"
        },
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        out_path.display()
    );
    if counts[3] > 0 {
        EXIT_WEDGED
    } else if counts[2] > 0 {
        EXIT_DIVERGED
    } else {
        0
    }
}

fn cmd_metrics(args: &[String]) -> i32 {
    let Some(spec) = args.first() else { usage() };
    let Some((workload, params)) = resolve_workload(spec) else {
        eprintln!("error: unknown workload {spec:?}");
        return 2;
    };
    let mut backend_name = "RFDet-ci".to_owned();
    let mut format = "json".to_owned();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--format" => {
                format = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    if format != "json" && format != "prom" {
        eprintln!("error: unknown format {format:?} (expected json or prom)");
        return 2;
    }
    let Some(backend) = backend_by_name(&backend_name) else {
        eprintln!("error: unknown backend {backend_name:?}");
        return 2;
    };
    let mut cfg = cli_config();
    cfg.metrics = true;
    match backend.run(&cfg, make_root(&workload, params)) {
        Ok(out) => {
            let Some(snap) = out.metrics else {
                eprintln!("error: metrics requested but no snapshot attached");
                return 2;
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

/// `replay races <workload>`: one detecting run, a printed + persisted
/// typed race report, and — for the seeded corpus — a ddmin-shrunk
/// 1-minimal worker set that still reproduces the first race.
fn cmd_races(args: &[String]) -> i32 {
    let Some(spec) = args.first() else { usage() };
    let Some((workload, params)) = resolve_workload(spec) else {
        eprintln!("error: unknown workload {spec:?}");
        return EXIT_USAGE;
    };
    let mut backend_name = "RFDet-ci".to_owned();
    let mut timeout = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--timeout" => {
                timeout = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(backend) = backend_by_name(&backend_name) else {
        eprintln!("error: unknown backend {backend_name:?}");
        return EXIT_USAGE;
    };
    if !backend.supports_race_detection() {
        eprintln!(
            "error: backend {backend_name:?} has no happens-before substrate to check against"
        );
        return EXIT_USAGE;
    }
    let mut cfg = cli_config();
    cfg.detect_races = true;
    let out = {
        let cfg = cfg.clone();
        let root = make_root(&workload, params);
        run_with_timeout(timeout, "race detection", move || backend.run(&cfg, root))
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            println!("{e}");
            return failure_code(&e);
        }
    };
    print!("{}", rfdet_api::render_races(&out.races));
    println!(
        "race digest {:016x} (output digest {:#018x})",
        rfdet_api::races_digest(&out.races),
        out.output_digest()
    );
    let sidecar = format!(
        "workload {}@{}\nbackend {}\nrace digest {:016x}\n{}",
        workload.name,
        params.threads,
        backend_name,
        rfdet_api::races_digest(&out.races),
        rfdet_api::render_races(&out.races)
    );
    let name = format!(
        "races_{}@{}.{}.races",
        workload.name, params.threads, backend_name
    );
    match persist::save_sidecar(&persist::trace_dir(), &name, &sidecar) {
        Ok(path) => println!("RACES {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot persist race report: {e}");
            return EXIT_IO;
        }
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("failover") => cmd_failover(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("races") => cmd_races(&args[1..]),
        _ => usage(),
    };
    exit(code);
}
