//! Property-based cross-backend equivalence.
//!
//! Generates random *race-free* multithreaded programs (every shared cell
//! is only touched under its own lock; thread structure is fork/join with
//! optional barrier phases) and checks that all five backends — including
//! nondeterministic pthreads — compute identical results, and that the
//! deterministic backends are jitter-stable.
//!
//! This is the empirical form of the paper's §3.3 correctness argument:
//! for race-free programs DLRC is sequentially consistent, so its results
//! must match a conventional execution.

use proptest::prelude::*;
use rfdet::{
    BarrierId, DmtBackend, DmtCtx, DmtCtxExt, DthreadsBackend, FaultPlan, MutexId, NativeBackend,
    QuantumBackend, RfdetBackend, RunConfig,
};

/// One step of a worker's script.
#[derive(Clone, Debug)]
enum Step {
    /// Add `delta` to cell `cell` under that cell's lock.
    LockedAdd { cell: u8, delta: u8 },
    /// Multiply cell by 3 and add thread id, under the lock.
    LockedMix { cell: u8 },
    /// Compute locally for `n` ticks.
    Compute { n: u8 },
    /// Wait at the phase barrier (all workers share it).
    Barrier,
    /// **Racy** unsynchronized read-modify-write of a cell.
    RacyMix { cell: u8 },
    /// Deterministic atomic fetch-add (the §4.6 extension).
    AtomicAdd { cell: u8, delta: u8 },
}

const CELLS: u64 = 8;
const CELL_BASE: u64 = 4096;

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..CELLS as u8, 1u8..20).prop_map(|(cell, delta)| Step::LockedAdd { cell, delta }),
        (0u8..CELLS as u8).prop_map(|cell| Step::LockedMix { cell }),
        (1u8..40).prop_map(|n| Step::Compute { n }),
        Just(Step::Barrier),
    ]
}

/// Steps including data races and atomics — only meaningful for the
/// strong-determinism property (results are schedule-dependent but must
/// be schedule-*deterministic*).
fn arb_racy_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..CELLS as u8, 1u8..20).prop_map(|(cell, delta)| Step::LockedAdd { cell, delta }),
        (0u8..CELLS as u8).prop_map(|cell| Step::RacyMix { cell }),
        (0u8..CELLS as u8, 1u8..20).prop_map(|(cell, delta)| Step::AtomicAdd { cell, delta }),
        (1u8..40).prop_map(|n| Step::Compute { n }),
        Just(Step::Barrier),
    ]
}

fn arb_racy_program() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(prop::collection::vec(arb_racy_step(), 1..12), 2..4).prop_map(
        |mut scripts| {
            let max_barriers = scripts
                .iter()
                .map(|s| s.iter().filter(|x| matches!(x, Step::Barrier)).count())
                .max()
                .unwrap_or(0);
            for s in &mut scripts {
                let have = s.iter().filter(|x| matches!(x, Step::Barrier)).count();
                for _ in have..max_barriers {
                    s.push(Step::Barrier);
                }
            }
            scripts
        },
    )
}

/// Scripts for 2–3 workers. Every script gets the same number of
/// barriers (the max across workers) appended so barrier arity matches.
fn arb_program() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(prop::collection::vec(arb_step(), 1..12), 2..4).prop_map(|mut scripts| {
        let max_barriers = scripts
            .iter()
            .map(|s| s.iter().filter(|x| matches!(x, Step::Barrier)).count())
            .max()
            .unwrap_or(0);
        for s in &mut scripts {
            let have = s.iter().filter(|x| matches!(x, Step::Barrier)).count();
            for _ in have..max_barriers {
                s.push(Step::Barrier);
            }
        }
        scripts
    })
}

fn run_program(backend: &dyn DmtBackend, scripts: &[Vec<Step>], jitter: Option<u64>) -> Vec<u8> {
    run_program_faulted(backend, scripts, jitter, &FaultPlan::new())
        .expect("fault-free program must succeed")
}

/// Like [`run_program`] but with an injected [`FaultPlan`]; a failed run
/// yields `Err(report_digest)`.
fn run_program_faulted(
    backend: &dyn DmtBackend,
    scripts: &[Vec<Step>],
    jitter: Option<u64>,
    plan: &FaultPlan,
) -> Result<Vec<u8>, u64> {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.jitter_seed = jitter;
    cfg.fault_plan = plan.clone();
    let parties = scripts.len();
    let scripts = scripts.to_vec();
    let out = backend.run(
        &cfg,
        Box::new(move |ctx: &mut dyn DmtCtx| {
            let handles: Vec<_> = scripts
                .iter()
                .cloned()
                .enumerate()
                .map(|(tid, script)| {
                    ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        for step in &script {
                            match step {
                                Step::LockedAdd { cell, delta } => {
                                    let m = MutexId(u32::from(*cell));
                                    ctx.lock(m);
                                    let v: u64 = ctx.read_idx(CELL_BASE, u64::from(*cell));
                                    ctx.write_idx::<u64>(
                                        CELL_BASE,
                                        u64::from(*cell),
                                        v + u64::from(*delta),
                                    );
                                    ctx.unlock(m);
                                }
                                Step::LockedMix { cell } => {
                                    let m = MutexId(u32::from(*cell));
                                    ctx.lock(m);
                                    let v: u64 = ctx.read_idx(CELL_BASE, u64::from(*cell));
                                    ctx.write_idx::<u64>(
                                        CELL_BASE,
                                        u64::from(*cell),
                                        v.wrapping_mul(3).wrapping_add(tid as u64),
                                    );
                                    ctx.unlock(m);
                                }
                                Step::Compute { n } => ctx.tick(u64::from(*n)),
                                Step::Barrier => ctx.barrier(BarrierId(0), parties),
                                Step::RacyMix { cell } => {
                                    let v: u64 = ctx.read_idx(CELL_BASE, u64::from(*cell));
                                    ctx.write_idx::<u64>(
                                        CELL_BASE,
                                        u64::from(*cell),
                                        v.wrapping_mul(6364136223846793005)
                                            .wrapping_add(tid as u64 + 1),
                                    );
                                }
                                Step::AtomicAdd { cell, delta } => {
                                    ctx.atomic_rmw(
                                        CELL_BASE + u64::from(*cell) * 8,
                                        rfdet::AtomicOp::Add(u64::from(*delta)),
                                    );
                                }
                            }
                        }
                    }))
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let mut cells = Vec::new();
            for c in 0..CELLS {
                cells.push(ctx.read_idx::<u64>(CELL_BASE, c).to_string());
            }
            ctx.emit_str(&cells.join(","));
        }),
    );
    match out {
        Ok(out) => Ok(out.output),
        Err(err) => Err(err.report().report_digest()),
    }
}

proptest! {
    // Each case runs 6 full executions; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// LockedMix is order-sensitive (mul then add), so this also checks
    /// that every deterministic backend picks ONE schedule and that a
    /// jittered rerun picks the same one. pthreads may legitimately pick
    /// a different schedule — but on mix-free programs all results agree.
    #[test]
    fn deterministic_backends_are_jitter_stable(scripts in arb_program()) {
        let backends: Vec<Box<dyn DmtBackend>> = vec![
            Box::new(RfdetBackend::ci()),
            Box::new(RfdetBackend::pf()),
            Box::new(DthreadsBackend),
            Box::new(QuantumBackend),
        ];
        for b in &backends {
            let a = run_program(b.as_ref(), &scripts, None);
            let c = run_program(b.as_ref(), &scripts, Some(0xDEC0DE));
            prop_assert_eq!(
                &a, &c,
                "{} unstable on {:?}", b.name(), scripts
            );
        }
    }

    /// For programs whose result is schedule-independent (commutative
    /// updates only), every backend — pthreads included — must agree
    /// exactly.
    #[test]
    fn commutative_programs_agree_everywhere(scripts in arb_program()) {
        let scripts: Vec<Vec<Step>> = scripts
            .into_iter()
            .map(|s| {
                s.into_iter()
                    .map(|step| match step {
                        // Replace the order-sensitive op with an add.
                        Step::LockedMix { cell } => Step::LockedAdd { cell, delta: 7 },
                        other => other,
                    })
                    .collect()
            })
            .collect();
        let reference = run_program(&NativeBackend, &scripts, None);
        let backends: Vec<Box<dyn DmtBackend>> = vec![
            Box::new(RfdetBackend::ci()),
            Box::new(RfdetBackend::pf()),
            Box::new(DthreadsBackend),
            Box::new(QuantumBackend),
        ];
        for b in &backends {
            let got = run_program(b.as_ref(), &scripts, None);
            prop_assert_eq!(
                &got, &reference,
                "{} disagrees with pthreads on {:?}", b.name(), scripts
            );
        }
    }

    /// Strong determinism on *racy* programs: whatever a deterministic
    /// backend computes for a program full of data races and atomics, it
    /// must compute again under three different jitter schedules.
    #[test]
    fn racy_programs_are_strongly_deterministic(scripts in arb_racy_program()) {
        let backends: Vec<Box<dyn DmtBackend>> = vec![
            Box::new(RfdetBackend::ci()),
            Box::new(RfdetBackend::pf()),
            Box::new(DthreadsBackend),
            Box::new(QuantumBackend),
        ];
        for b in &backends {
            let baseline = run_program(b.as_ref(), &scripts, None);
            for seed in [1u64, 0xBEEF, u64::MAX / 3] {
                let again = run_program(b.as_ref(), &scripts, Some(seed));
                prop_assert_eq!(
                    &again, &baseline,
                    "{} racy result moved under jitter {} on {:?}",
                    b.name(), seed, scripts
                );
            }
        }
    }

    /// Injected faults are part of the deterministic surface: the same
    /// program with the same [`FaultPlan`] must either succeed with the
    /// same output or fail with a byte-identical report digest, under
    /// every jitter schedule. (A plan targeting an op index the thread
    /// never reaches simply doesn't fire — the Ok/Ok branch.)
    #[test]
    fn fault_reports_are_jitter_stable(scripts in arb_program(), target in 0u64..6) {
        let plan = FaultPlan::new()
            .panic_at(1, target)
            .jitter_at(2, 1, 17);
        let backends: Vec<Box<dyn DmtBackend>> = vec![
            Box::new(RfdetBackend::ci()),
            Box::new(RfdetBackend::pf()),
            Box::new(DthreadsBackend),
            Box::new(QuantumBackend),
        ];
        for b in &backends {
            let baseline = run_program_faulted(b.as_ref(), &scripts, None, &plan);
            for seed in [3u64, 0xFACE] {
                let again = run_program_faulted(b.as_ref(), &scripts, Some(seed), &plan);
                prop_assert_eq!(
                    &again, &baseline,
                    "{} fault outcome moved under jitter {} (plan {:?}) on {:?}",
                    b.name(), seed, plan, scripts
                );
            }
        }
    }
}
