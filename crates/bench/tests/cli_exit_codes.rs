//! Direct coverage of the replay CLI's exit-code contract (and of
//! `bench_json`'s usage errors), in particular the wedged path (code
//! 4): a deliberately-hung workload under `--timeout` must exit 4 — not
//! 1 (diverged) and not 3 (io).
//! Exercised against the real binary so the process-level `exit` calls
//! are what's tested, not library plumbing.

use std::process::Command;

fn replay(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .output()
        .expect("spawn replay binary")
}

#[test]
fn hung_workload_under_timeout_exits_wedged_not_diverged() {
    let out = replay(&["record", "chaos.hang@2", "--timeout", "500"]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wedged"),
        "the wedged verdict is stated"
    );
}

#[test]
fn clean_run_exits_zero() {
    let out = replay(&["record", "chaos.lock_panic@2", "--timeout", "30000"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean run"));
}

#[test]
fn injected_failure_exits_diverged() {
    let out = replay(&["record", "chaos.lock_panic@2", "--panic", "1:3"]);
    assert_eq!(out.status.code(), Some(1), "typed failure is class 1");
}

/// A failed run's secondary unwinds are caught and kept as peer
/// diagnostics, so none may reach stderr: the lockstep backends used to
/// print `panicked at … Box<dyn Any>` for every stopped thread.
#[test]
fn a_recorded_deadlock_prints_no_secondary_unwind_on_any_deterministic_backend() {
    let dir = std::env::temp_dir().join(format!("rfdet-quiet-test-{}", std::process::id()));
    for backend in ["RFDet-ci", "RFDet-pf", "DThreads", "CoreDet-q"] {
        let out = Command::new(env!("CARGO_BIN_EXE_replay"))
            .args(["record", "chaos.abba_deadlock", "--backend", backend])
            .env("RUST_BACKTRACE", "0")
            .env("RFDET_TRACE_DIR", &dir)
            .output()
            .expect("spawn replay binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{backend}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{backend}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A planned `--panic` is reported by the typed report alone: the
/// harness's hook keeps its unwind off stderr, backtrace on or off.
#[test]
fn a_planned_panic_prints_its_report_and_no_panic_message() {
    for backtrace in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_replay"))
            .args(["record", "chaos.long_haul@3", "--panic", "2:30"])
            .env("RUST_BACKTRACE", backtrace)
            .output()
            .expect("spawn replay binary");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
        let report = format!("{stdout}{stderr}");
        assert!(
            report.contains("injected fault: panic at t2 sync op 30"),
            "{report}"
        );
        assert!(!stderr.contains("panicked at"), "{stderr}");
        assert!(!stderr.contains("stack backtrace"), "{stderr}");
    }
}

#[test]
fn unknown_workload_exits_usage() {
    let out = replay(&["record", "nonesuch@2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn non_numeric_seed_exits_usage_instead_of_recording_unjittered() {
    let out = replay(&["record", "chaos.lock_panic@2", "--seed", "lucky"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--seed expects a number"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `resume`, `failover` and `races` used to read `--timeout 5s` as "no
/// timeout" and run with no watchdog at all; `shrink` ignored whatever
/// followed its file. Every verb parses the same way now.
#[test]
fn an_unparsable_or_unaccepted_flag_is_a_usage_error_on_every_verb() {
    let cases: [&[&str]; 6] = [
        &["resume", "/nonexistent/x.ckpt", "--timeout", "5s"],
        &["verify", "/nonexistent/x.ckpt", "--timeout", "5s"],
        &["failover", "service.ledger@2", "--timeout", "5s"],
        &["races", "chaos.lock_panic@2", "--timeout", "5s"],
        &["shrink", "/nonexistent/trace.bin", "--timeout", "500"],
        &["metrics", "chaos.lock_panic@2", "--every", "2"],
    ];
    for args in cases {
        let out = replay(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn bench_json_out_without_a_value_exits_usage_instead_of_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_json"))
        .arg("--out")
        .output()
        .expect("spawn bench_json binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--out expects a value"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unreadable_trace_exits_io() {
    let out = replay(&["replay", "/nonexistent/trace.bin"]);
    assert_eq!(out.status.code(), Some(3));
}

/// A file that is no checkpoint is an I/O failure (exit 3) whose message
/// names what `resume` was loading: a checkpoint and its `RFCK` magic,
/// not a trace.
#[test]
fn a_garbage_checkpoint_exits_io_naming_a_checkpoint() {
    let path = std::env::temp_dir().join(format!("rfdet-garbage-{}.ckpt", std::process::id()));
    std::fs::write(&path, b"this is not a checkpoint file").expect("write the garbage");
    let out = replay(&["resume", path.to_str().expect("utf8 path")]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("checkpoint file") && stderr.contains("RFCK"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("trace") && !stderr.contains("RFDT"),
        "{stderr}"
    );
}

/// Runs `replay` with `RFDET_TRACE_DIR` set to `dir`; returns the exit
/// code and stdout.
fn replay_in(dir: &std::path::Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .env("RFDET_TRACE_DIR", dir)
        .output()
        .expect("spawn replay binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout)
}

/// The path a `replay` stdout line `<tag> <path>` names.
fn tagged_path(stdout: &str, tag: &str) -> String {
    let line = stdout.lines().find_map(|l| l.strip_prefix(tag));
    line.unwrap_or_else(|| panic!("no {tag}line: {stdout}"))
        .to_owned()
}

/// A minimized trace that cannot be saved is an I/O failure (exit 3),
/// not a usage error: with the `.min` target a non-empty directory, the
/// rename onto it fails whoever runs the test.
#[test]
fn a_minimized_trace_that_cannot_be_saved_exits_io() {
    let dir = std::env::temp_dir().join(format!("rfdet-shrink-io-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let record = [
        "record",
        "chaos.lock_panic@2",
        "--panic",
        "1:3",
        "--jitter",
        "0:1000:5",
    ];
    let (code, stdout) = replay_in(&dir, &record);
    assert_eq!(code, Some(1), "{stdout}");
    // A shrink re-records the minimized plan under the same report
    // digest, over the recorded file: shrink a copy, twice.
    let trace = dir.join("recorded.trace");
    std::fs::copy(tagged_path(&stdout, "TRACE "), &trace).expect("copy the trace");
    let trace = trace.to_str().expect("utf8 path");
    let (code, stdout) = replay_in(&dir, &["shrink", trace]);
    assert_eq!(code, Some(0), "the decoy jitter shrinks away: {stdout}");
    let min = tagged_path(&stdout, "MINTRACE ");
    std::fs::remove_file(&min).expect("remove the minimized trace");
    std::fs::create_dir_all(std::path::Path::new(&min).join("occupied")).expect("block its path");
    let (code, stdout) = replay_in(&dir, &["shrink", trace]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(3), "{stdout}");
}

/// `verify` reproduces a whole recorded chain (exit 0) and refuses one
/// with a missing file (exit 2): a gap is not a divergence.
#[test]
fn verify_passes_a_whole_chain_and_refuses_a_gappy_one() {
    let dir = std::env::temp_dir().join(format!("rfdet-verify-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ckpt_dir = dir.to_str().expect("utf8 path");
    let record = [
        "record",
        "chaos.long_haul@3",
        "--checkpoint-every",
        "4",
        "--ckpt-dir",
        ckpt_dir,
    ];
    let (code, stdout) = replay_in(&dir, &record);
    assert_eq!(code, Some(0), "{stdout}");
    let key = stdout.split("run key ").nth(1).and_then(|k| k.get(..16));
    let key = key.unwrap_or_else(|| panic!("no run key: {stdout}"));
    let file = |epoch: u64| dir.join(format!("{key}.e{epoch:06}.ckpt"));
    let first = file(4);
    let first = first.to_str().expect("utf8 path");
    let (code, stdout) = replay_in(&dir, &["verify", first]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("CHAIN OK: 3 checkpoints reproduced"),
        "{stdout}"
    );
    std::fs::remove_file(file(8)).expect("remove the middle checkpoint");
    let (code, stdout) = replay_in(&dir, &["verify", first]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(2), "{stdout}");
}

#[test]
fn failover_on_the_service_ledger_converges() {
    // Crash worker 2 in the last request round at 4 threads (op
    // 1 + 5·23 + 2): restore from epoch 6, replay the tail, converge.
    let out = replay(&[
        "failover",
        "service.ledger@4",
        "--panic",
        "2:118",
        "--every",
        "2",
        "--timeout",
        "60000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("FAILOVER CONVERGED"), "{stdout}");
    assert!(
        stdout.contains("recovered from checkpoint epoch 6"),
        "{stdout}"
    );
}

/// The rows of a sweep report, one per plan, without the separating
/// commas (a report's last row has none).
fn sweep_rows(report: &str) -> Vec<&str> {
    let rows = report.lines().filter(|l| l.contains("\"kind\""));
    rows.map(|l| l.trim_end_matches(',')).collect()
}

/// The first 14 plans of the committed 210-plan sweep — panics on main
/// at every sync-op stratum, recovered from scratch and from epochs 2, 4
/// and 6 or converged — row for row: a change to the verdict that moves
/// any of them fails here, not in a hand-run regeneration.
#[test]
fn tiny_sweep_classifies_without_wedge_or_divergence() {
    let dir = std::env::temp_dir().join(format!("rfdet-sweep-test-{}", std::process::id()));
    let out_path = dir.join("sweep.json");
    std::fs::create_dir_all(&dir).expect("create sweep dir");
    let out = replay(&[
        "sweep",
        "service.ledger@4",
        "--plans",
        "14",
        "--timeout",
        "30000",
        "--out",
        out_path.to_str().expect("utf8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("SWEEP OK"), "{stdout}");
    let report = std::fs::read_to_string(&out_path).expect("sweep report written");
    std::fs::remove_dir_all(&dir).ok();
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sweep_service.ledger_4t.json"
    );
    let golden = std::fs::read_to_string(golden).expect("committed sweep");
    assert_eq!(sweep_rows(&report), sweep_rows(&golden)[..14]);
}

/// Without `--out` the report goes to the trace directory, never under
/// the working directory: run from the repo root, a `results/` default
/// overwrote the tracked acceptance sweep.
#[test]
fn a_sweep_without_out_writes_its_report_into_the_trace_dir() {
    let base = std::env::temp_dir().join(format!("rfdet-sweep-default-{}", std::process::id()));
    let (cwd, traces) = (base.join("cwd"), base.join("traces"));
    std::fs::create_dir_all(&cwd).expect("create working dir");
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(["sweep", "service.ledger@2", "--plans", "1"])
        .args(["--timeout", "30000"])
        .current_dir(&cwd)
        .env("RUST_BACKTRACE", "0")
        .env("RFDET_TRACE_DIR", &traces)
        .output()
        .expect("spawn replay binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let report = traces.join("sweep_service.ledger_2t.json");
    assert!(report.is_file(), "no report in the trace dir: {stdout}");
    assert!(!cwd.join("results").exists(), "wrote under the cwd");
    std::fs::remove_dir_all(&base).ok();
}

/// A filter that matches no workload is a usage error naming the filter
/// and the workloads, not a panic in the geometric mean of nothing.
#[test]
fn a_filter_that_matches_nothing_exits_usage_without_a_backtrace() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig7"))
        .args(["--quick", "--filter", "zzz"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn fig7 binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("\"zzz\"") && stderr.contains("ocean"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("backtrace"),
        "{stderr}"
    );
}

/// A reader that stops early (`table1 --quick | head -1`) closes the
/// pipe under the binary; its next print must end it quietly with the
/// shell's `SIGPIPE` status, not panic with a backtrace.
#[test]
fn a_closed_stdout_ends_table1_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--quick")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn table1 binary");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().expect("wait for table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!first.is_empty(), "table1 printed nothing");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "the shell's SIGPIPE status");
}
