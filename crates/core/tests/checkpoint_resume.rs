//! End-to-end checkpoint/restore and chain-check tests (DESIGN.md
//! §4.11), driven through the resumable `chaos.long_haul` workload.
//!
//! The invariant under test everywhere: a run continued from a
//! consistent-cut checkpoint is *byte-identical* to the uninterrupted
//! run — same output, same later checkpoints — because the cut captures
//! every determinism-relevant input (clocks, pages, heap, sync table,
//! fault coordinates) and the workload's root, restarted on every
//! restored thread, replays the exact post-cut op sequence.

use rfdet_api::{
    BarrierId, DmtBackend, DmtCtx, DmtCtxExt, FaultPlan, RunConfig, ThreadFn, ThreadHandle,
    TracedRun,
};
use rfdet_core::{replay_chain, ChainDivergence, RfdetBackend};
use rfdet_trace::{persist, Checkpoint};
use rfdet_workloads::{chaos, Params, Size};

/// Worker count; barrier parties are `WORKERS + 1` (main participates).
const WORKERS: usize = 3;
/// 12 test-size rounds with a cadence of 4 → checkpoints at 4, 8, 12.
const EVERY: u64 = 4;

fn params() -> Params {
    Params::new(WORKERS, Size::Test)
}

fn base_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(10_000);
    cfg.checkpoint_every = EVERY;
    cfg.trace = Some(format!("chaos.long_haul@{WORKERS}"));
    cfg
}

fn run_full() -> TracedRun {
    RfdetBackend::ci().run_traced(&base_cfg(), chaos::long_haul(params()))
}

fn resumed(cfg: &RunConfig, ckpt: &Checkpoint) -> TracedRun {
    RfdetBackend::ci().run_resumed(cfg, ckpt, &|| chaos::long_haul(params()))
}

#[test]
fn full_run_collects_the_checkpoint_chain() {
    let run = run_full();
    let out = run.result.expect("clean long_haul run");
    assert!(!out.output.is_empty());
    let epochs: Vec<u64> = run.checkpoints.iter().map(|c| c.epoch).collect();
    assert_eq!(epochs, vec![4, 8, 12], "cadence 4 over 12 eligible rounds");
    for c in &run.checkpoints {
        assert_eq!(c.threads.len(), WORKERS + 1, "full membership");
        assert!(c.threads.iter().all(|t| t.alive));
        assert!(c.finished.is_empty());
        assert_eq!(c.recording.backend, "RFDet-ci");
    }
    assert!(run.warnings.is_empty(), "no persistence warnings in-memory");
    // 3 checkpoints × 4 threads contributed.
    assert_eq!(out.stats.checkpoints_contributed, 12);
}

#[test]
fn crash_resume_recovers_to_the_identical_digest() {
    let baseline = run_full();
    let base_out = baseline.result.as_ref().expect("clean baseline").clone();

    // Crash the run mid-flight, after the epoch-8 checkpoint persisted:
    // worker 2 executes 3 sync ops per round, so op 30 lands in round 10.
    let dir = std::env::temp_dir().join(format!("rfdet-ckpt-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let mut faulted_cfg = base_cfg();
    faulted_cfg.checkpoint_dir = Some(dir.clone());
    faulted_cfg.fault_plan = FaultPlan::new().panic_at(2, 30);
    let crashed = RfdetBackend::ci().run_traced(&faulted_cfg, chaos::long_haul(params()));
    let err = crashed
        .result
        .expect_err("injected panic must fail the run");
    assert_eq!(err.report().tid, 2);
    assert!(crashed.warnings.is_empty(), "persistence must have worked");

    // Recover from the latest on-disk checkpoint: epoch 8, the last one
    // sealed before the crash.
    let run_key = crashed
        .checkpoints
        .first()
        .expect("pre-crash chain")
        .run_key();
    let chain = persist::checkpoint_chain(&dir, run_key);
    assert_eq!(
        chain.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![4, 8],
        "epoch 12 was never reached"
    );
    let (_, path) = chain.last().expect("latest checkpoint");
    let ckpt = persist::load_checkpoint(path).expect("decode persisted checkpoint");
    assert_eq!(ckpt.epoch, 8);

    // Resume under the recorded config minus the fault plan (the crash
    // cause): the continuation must converge on the clean run exactly.
    let resume = resumed(&base_cfg(), &ckpt);
    let out = resume.result.expect("resumed run completes");
    assert_eq!(out.output, base_out.output, "byte-identical recovery");
    assert_eq!(out.output_digest(), base_out.output_digest());
    assert_eq!(
        resume
            .checkpoints
            .iter()
            .map(Checkpoint::digest)
            .collect::<Vec<_>>(),
        vec![baseline.checkpoints[2].digest()],
        "the resumed run reproduces the epoch-12 checkpoint bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_checkpoint_dir_degrades_to_warnings_not_failure() {
    // Point checkpoint_dir *under a regular file*, which fails with
    // ENOTDIR for any user (a read-only directory would be bypassed by
    // root, which CI containers run as). Persistence must degrade to
    // one warning per missed checkpoint; the run itself — output,
    // in-memory chain, digests — must be untouched.
    let file = std::env::temp_dir().join(format!("rfdet-ckpt-notdir-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("create blocker file");
    let mut cfg = base_cfg();
    cfg.checkpoint_dir = Some(file.join("ckpts"));
    let run = RfdetBackend::ci().run_traced(&cfg, chaos::long_haul(params()));
    std::fs::remove_file(&file).ok();

    let baseline = run_full();
    let out = run
        .result
        .expect("persistence failure must not fail the run");
    assert_eq!(
        out.output,
        baseline.result.expect("clean baseline").output,
        "degraded run is still byte-identical"
    );
    assert_eq!(run.checkpoints.len(), 3, "in-memory chain is complete");
    assert_eq!(run.warnings.len(), 3, "one warning per unpersisted epoch");
    for w in &run.warnings {
        assert!(w.contains("not persisted"), "warning text: {w}");
    }
}

fn check(chain: &[Checkpoint]) -> Result<(), ChainDivergence> {
    replay_chain(&RfdetBackend::ci(), &base_cfg(), chain, &|| {
        chaos::long_haul(params())
    })
}

/// `replay_chain` replays from the start and requires exactly the
/// chain's checkpoints, digest for digest, up to the chain's last epoch.
#[test]
fn the_chain_check_verifies_refuses_and_pins_the_divergence() {
    let baseline = run_full();
    baseline.result.expect("clean baseline");
    let chain = &baseline.checkpoints;
    assert_eq!(chain.len(), 3);
    if let Err(e) = check(chain) {
        panic!("a clean chain verifies: {e}");
    }

    // A chain with a gap cannot be paired with the replay's checkpoints.
    let gappy = [chain[0].clone(), chain[2].clone()];
    match check(&gappy) {
        Err(ChainDivergence::NotUniform(epochs)) => assert_eq!(epochs, [4, 12]),
        other => panic!("a gappy chain must be refused, got {other:?}"),
    }

    // One page byte of the middle checkpoint changed.
    let mut tampered = chain.clone();
    let threads = tampered[1].threads.iter_mut();
    let page = threads.flat_map(|t| &mut t.pages).next().expect("a page");
    page.data[0] ^= 1;
    match check(&tampered) {
        Err(ChainDivergence::Diverged(epoch)) => assert_eq!(epoch, 8),
        other => panic!("a changed checkpoint must diverge, got {other:?}"),
    }

    // The replay stops at the chain's last epoch: a replay that ran on
    // would seal epoch 12, which this prefix does not have.
    if let Err(e) = check(&chain[..2]) {
        panic!("the replay seals nothing past the chain: {e}");
    }
}

/// Two workers write one word with no lock between them, in the round
/// after the first cut. Each thread keeps its round index in its own
/// cell, so the one closure serves as fresh root, worker and restored
/// thread.
fn racy_after_the_first_cut() -> ThreadFn {
    Box::new(|ctx: &mut dyn DmtCtx| {
        let tid = ctx.tid();
        let cell = 0x1000 + 0x40 * u64::from(tid);
        loop {
            let round: u64 = ctx.read(cell);
            if tid == 0 && round == 0 {
                for _ in 0..2 {
                    ctx.spawn(racy_after_the_first_cut());
                }
            }
            if round == 2 {
                break;
            }
            if round == 1 && tid > 0 {
                ctx.write(0x2000, u64::from(tid));
            }
            ctx.write(cell, round + 1);
            ctx.barrier(BarrierId(1), 3);
        }
        if tid == 0 {
            ctx.join(ThreadHandle(1));
            ctx.join(ThreadHandle(2));
        }
    })
}

/// A resumed main detects races like a fresh one: a cut is a
/// full-membership barrier, so no race straddles it.
#[test]
fn a_resumed_run_detects_the_race_past_its_cut() {
    let mut cfg = base_cfg();
    cfg.checkpoint_every = 1;
    cfg.detect_races = true;
    cfg.trace = Some("racy_after_the_first_cut@2".to_owned());
    let backend = RfdetBackend::ci();
    let fresh = backend.run_traced(&cfg, racy_after_the_first_cut());
    let races = fresh.result.expect("clean fresh run").races;
    assert_eq!(races.len(), 1, "the unlocked write pair: {races:?}");
    let first_cut = &fresh.checkpoints[0];
    assert_eq!(first_cut.epoch, 1);
    let resumed = backend.run_resumed(&cfg, first_cut, &racy_after_the_first_cut);
    assert_eq!(resumed.result.expect("clean resume").races, races);
}

/// The recording under test for a jittered chain: 1000 extra ticks at
/// worker 1's 30th sync op (round 10), which moves the schedule and the
/// output digest.
fn jittered_cfg() -> RunConfig {
    let mut cfg = base_cfg();
    cfg.fault_plan = FaultPlan::new().jitter_at(1, 30, 1000);
    cfg
}

fn run_jittered() -> TracedRun {
    RfdetBackend::ci().run_traced(&jittered_cfg(), chaos::long_haul(params()))
}

/// A checkpoint carries its run's jitter, so the config read back from
/// its own recording resumes the jittered run, not the unjittered one.
#[test]
fn a_jittered_checkpoint_resumes_under_its_own_recording() {
    let jittered = run_jittered();
    let digest = jittered.result.expect("clean jittered run").output_digest();
    let plain = run_full().result.expect("clean baseline").output_digest();
    assert_ne!(digest, plain, "the jitter moves the output");
    for ckpt in &jittered.checkpoints {
        assert_eq!(ckpt.recording.faults.len(), 1, "epoch {}", ckpt.epoch);
        let cfg = RunConfig::from_recording(&ckpt.recording);
        let out = resumed(&cfg, ckpt).result.expect("resumed run completes");
        assert_eq!(
            out.output_digest(),
            digest,
            "resumed from epoch {}",
            ckpt.epoch
        );
    }
}

/// The config read back from a jittered chain's own recording replays
/// that chain.
#[test]
fn the_jittered_chain_verifies_under_its_own_recording() {
    let jittered = run_jittered();
    jittered.result.expect("clean jittered run");
    let chain = &jittered.checkpoints;
    let cfg = RunConfig::from_recording(&chain[0].recording);
    let root = || chaos::long_haul(params());
    if let Err(e) = replay_chain(&RfdetBackend::ci(), &cfg, chain, &root) {
        panic!("{e}");
    }
}

/// The run key covers the jitter, which is input, and not the kills,
/// which a checkpoint does not record: a jittered chain never shares a
/// key with an unjittered one, and a crashed jittered attempt shares
/// its key with the jitter-only re-record that recovery resumes.
#[test]
fn a_run_key_covers_the_jitter_and_not_the_kills() {
    let key = |run: &TracedRun| run.checkpoints.first().expect("a chain").run_key();
    let jittered = run_jittered();
    assert_ne!(key(&jittered), key(&run_full()));
    let mut crashing = jittered_cfg();
    crashing.fault_plan = crashing.fault_plan.panic_at(2, 30);
    let crashed = RfdetBackend::ci().run_traced(&crashing, chaos::long_haul(params()));
    assert!(crashed.result.is_err(), "the planned panic fires");
    assert_eq!(key(&crashed), key(&jittered));
    assert_eq!(crashed.checkpoints[0], jittered.checkpoints[0]);
}

/// Resuming a jittered checkpoint under a config without its jitter
/// would finish some other run; `run_resumed` refuses it loudly.
#[test]
#[should_panic(expected = "checkpoint was not recorded")]
fn a_jittered_checkpoint_does_not_resume_without_its_jitter() {
    let jittered = run_jittered();
    let _ = resumed(&base_cfg(), &jittered.checkpoints[0]);
}
