//! Deterministic debugging of a data race — the motivating use case of
//! the paper's introduction.
//!
//! ```sh
//! cargo run --release --example race_debugging
//! ```
//!
//! The "application" has a bug: a worker publishes a result pointer
//! (well, index) *before* finishing the result's payload, and a reader
//! races with it. On a conventional runtime the crash-y observation is
//! intermittent and schedule-dependent; under RFDet it reproduces
//! **identically on every run**, so you can bisect, add prints, and
//! re-run without losing the bug. The paper: strong determinism makes
//! "the most severe races reproducible, and thus, debuggable" (§2).

use rfdet::{trace, DmtBackend, DmtCtx, DmtCtxExt, FaultPlan, RfdetBackend, RunConfig, RunError};

const READY_FLAG: u64 = 4096;
const PAYLOAD: u64 = 4104; // 8 u64s
const OBSERVED: u64 = 8192;

fn buggy_program(ctx: &mut dyn DmtCtx) {
    // Writer: fills the payload, then sets the ready flag — but with an
    // ad hoc (racy) flag instead of a lock or condvar.
    let writer = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
        for i in 0..8u64 {
            ctx.write_idx::<u64>(PAYLOAD, i, 0xA0 + i);
            ctx.tick(50); // simulated work between field writes
        }
        ctx.write::<u64>(READY_FLAG, 1);
    }));
    // Reader: spins briefly on the flag, then reads the payload. The bug:
    // under DLRC the flag write is a *racy* write, so the reader may see
    // ready=1 while payload writes are not yet visible — or never see the
    // flag at all — but it sees the SAME thing every run.
    let reader = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
        let mut spins = 0u64;
        while ctx.read::<u64>(READY_FLAG) == 0 && spins < 500 {
            spins += 1;
            ctx.tick(1);
        }
        let mut sum = 0u64;
        for i in 0..8u64 {
            sum = sum.wrapping_add(ctx.read_idx::<u64>(PAYLOAD, i));
        }
        ctx.write::<u64>(OBSERVED, sum);
        ctx.write::<u64>(OBSERVED + 8, spins);
    }));
    ctx.join(writer);
    ctx.join(reader);
    let sum: u64 = ctx.read(OBSERVED);
    let spins: u64 = ctx.read(OBSERVED + 8);
    let complete: u64 = (0..8).map(|i| 0xA0 + i).sum();
    let verdict = if sum == complete {
        "complete"
    } else {
        "TORN/STALE"
    };
    ctx.emit_str(&format!(
        "reader saw sum={sum:#x} ({verdict}) after {spins} spins"
    ));
}

fn main() {
    let cfg = RunConfig::default();
    let backend = RfdetBackend::ci();
    println!("the same buggy execution, ten times under RFDet:");
    let mut distinct = std::collections::HashSet::new();
    for i in 0..10 {
        // Vary physical timing — results must not move.
        let mut c = cfg.clone();
        c.jitter_seed = Some(i);
        let out = backend.run_expect(&c, Box::new(buggy_program));
        let text = String::from_utf8_lossy(&out.output).into_owned();
        println!("  run {i}: {text}");
        distinct.insert(text);
    }
    assert_eq!(distinct.len(), 1);
    println!(
        "\nThe racy observation is frozen: every run (under injected jitter!)\n\
         reproduces the identical buggy state. Add instrumentation, re-run,\n\
         and the bug is still there — that is the DMT debugging story.\n\
         (Note DLRC also explains WHY the reader can spin 500 times and\n\
         never see the flag: without synchronization there is no\n\
         happens-before edge, so the writer's update must not become\n\
         visible — ad hoc synchronization is unsupported by design, §4.6.)"
    );

    // Act two: crash the writer mid-publication with a deterministic
    // injected fault. The run comes back as a typed `RunError` carrying a
    // full failure report — and because the fault is keyed to the logical
    // schedule, the report digest is identical on every rerun.
    println!("\nnow killing the writer at its first sync op (its exit), twice:");
    let mut digests = std::collections::HashSet::new();
    for attempt in 0..2 {
        let mut c = cfg.clone();
        c.jitter_seed = Some(attempt);
        c.fault_plan = FaultPlan::new().panic_at(1, 0);
        let err = backend
            .run(&c, Box::new(buggy_program))
            .expect_err("the injected fault must fail the run");
        assert!(matches!(err, RunError::WorkerPanicked(_)));
        digests.insert(err.report_digest());
        if attempt == 0 {
            println!("{}", err.report().render());
        }
    }
    assert_eq!(digests.len(), 1);
    println!("both crashes produced the same report digest: the failure itself is reproducible.");

    // Act three: the flight recorder. Crash once more with recording on —
    // the failing run persists its schedule trace to disk — then replay
    // that trace and watch the recorder verify its own reproduction.
    println!("\nfinally, recording the crash and replaying it from the persisted trace:");
    let mut c = cfg.clone();
    c.jitter_seed = Some(0);
    c.fault_plan = FaultPlan::new().panic_at(1, 0);
    c.trace = Some("race_debugging".to_owned());
    let run = backend.run_traced(&c, Box::new(buggy_program));
    let err = run
        .result
        .expect_err("the injected fault must fail the run");
    let path = err
        .report()
        .trace_path
        .clone()
        .expect("failing traced runs persist their schedule");
    println!("  trace persisted to {}", path.display());
    let recorded = trace::persist::load(&path).expect("the persisted trace decodes");
    println!("  {}", recorded.summary());
    let replay = backend.replay(&recorded, Box::new(buggy_program));
    assert!(
        replay.reproduced(),
        "replay must reproduce the recorded digest and culprit schedule"
    );
    println!(
        "  replay reproduced the crash: digest match={}, culprit schedule match={:?}\n\
         \nThe crash is now an artifact: a {}-byte file anyone can replay\n\
         (`cargo run -p rfdet-bench --bin replay -- replay <file>`), shrink,\n\
         and debug — no flaky reproduction steps attached.",
        replay.digest_match,
        replay.schedule_match,
        recorded.encode().len(),
    );
}
