//! The supervised-teardown matrix (DESIGN.md §4.7).
//!
//! A worker that dies while its peers are parked must not wedge the run:
//! every backend has to wake the parked threads, tear the run down in
//! bounded time, and hand back a typed [`RunError`] whose report names
//! the injected fault. Each scenario here parks peers on a different
//! primitive (mutex, barrier, condvar, join, atomic spin) and kills one
//! thread through a [`FaultPlan`]; a watchdog thread enforces the time
//! bound so a supervision regression fails the test instead of hanging
//! the suite.

use rfdet::{
    all_backends, BarrierId, CondId, DmtBackend, DmtCtx, DmtCtxExt, FailureKind, FaultPlan,
    MutexId, RunConfig, RunError, RunOutput, ThreadFn, ThreadHandle, Tid,
};
use std::sync::mpsc;
use std::time::Duration;

/// Generous wall-clock bound: supervised teardown is expected in
/// milliseconds, but CI machines can be slow. Well under the 30 s
/// default wedge fallback, so passing here proves the *supervisor*
/// acted, not the timeout.
const BOUND: Duration = Duration::from_secs(20);

fn small_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.fault_plan = plan;
    cfg
}

/// Runs `root` on `backend` under a watchdog: panics if the run does not
/// terminate (either way) within [`BOUND`].
fn run_bounded(
    backend: Box<dyn DmtBackend>,
    cfg: RunConfig,
    root: ThreadFn,
) -> Result<RunOutput, RunError> {
    let name = backend.name();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(backend.run(&cfg, root));
    });
    rx.recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{name}: run did not terminate within {BOUND:?}"))
}

fn assert_injected_panic(name: &str, result: Result<RunOutput, RunError>, victim: Tid) {
    let err = match result {
        Ok(_) => panic!("{name}: the injected fault must fail the run"),
        Err(e) => e,
    };
    assert_eq!(
        err.kind(),
        FailureKind::Panic,
        "{name}: expected a Panic, got {err}"
    );
    let r = err.report();
    assert_eq!(r.tid, victim, "{name}: wrong culprit tid in {r:?}");
    assert!(
        r.message.contains("injected fault"),
        "{name}: report message should name the injected fault, got {:?}",
        r.message
    );
}

/// Victim (t1) takes the mutex and dies at its unlock (sync op 1) while
/// two peers are parked trying to acquire it.
fn mutex_scenario() -> (ThreadFn, FaultPlan) {
    let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
        let m = MutexId(7);
        let mut handles = vec![ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(m); // op 0
            ctx.tick(50_000);
            ctx.unlock(m); // op 1 — injected panic fires here
        }))];
        for _ in 0..2 {
            handles.push(ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.lock(m);
                ctx.unlock(m);
            })));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (root, FaultPlan::new().panic_at(1, 1))
}

/// Victim (t1) dies at a 3-party barrier the two peers already reached.
fn barrier_scenario() -> (ThreadFn, FaultPlan) {
    let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
        let b = BarrierId(3);
        let mut handles = vec![ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.tick(100_000); // arrive last in logical time
            ctx.barrier(b, 3); // op 0 — injected panic fires here
        }))];
        for _ in 0..2 {
            handles.push(ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.barrier(b, 3);
            })));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (root, FaultPlan::new().panic_at(1, 0))
}

/// Peers park in `cond_wait` for a flag the victim (t1) was supposed to
/// set; the victim dies at its first lock instead, so nobody will ever
/// signal.
fn condvar_scenario() -> (ThreadFn, FaultPlan) {
    const FLAG: u64 = 64;
    let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
        let m = MutexId(1);
        let c = CondId(1);
        let mut handles = vec![ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.tick(100_000);
            ctx.lock(m); // op 0 — injected panic fires here
            ctx.write::<u64>(FLAG, 1);
            ctx.cond_broadcast(c);
            ctx.unlock(m);
        }))];
        for _ in 0..2 {
            handles.push(ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.lock(m);
                while ctx.read::<u64>(FLAG) == 0 {
                    ctx.cond_wait(c, m);
                }
                ctx.unlock(m);
            })));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (root, FaultPlan::new().panic_at(1, 0))
}

/// A peer blocks joining the victim (t1), which dies before finishing.
fn join_scenario() -> (ThreadFn, FaultPlan) {
    let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
        let m = MutexId(2);
        let victim = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(m); // op 0
            ctx.tick(50_000);
            ctx.unlock(m); // op 1 — injected panic fires here
        }));
        let victim_tid = victim.0;
        let peer = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.join(ThreadHandle(victim_tid));
        }));
        ctx.join(peer);
    });
    (root, FaultPlan::new().panic_at(1, 1))
}

/// Peers spin on an atomic flag (an ad hoc wait built from RMW cells)
/// that the victim (t1) dies before publishing.
fn atomic_scenario() -> (ThreadFn, FaultPlan) {
    const FLAG: u64 = 128;
    let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
        let mut handles = vec![ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.tick(100_000);
            ctx.atomic_store(FLAG, 1); // op 0 — injected panic fires here
        }))];
        for _ in 0..2 {
            handles.push(ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                while ctx.atomic_load(FLAG) == 0 {
                    ctx.tick(10);
                }
            })));
        }
        for h in handles {
            ctx.join(h);
        }
    });
    (root, FaultPlan::new().panic_at(1, 0))
}

fn panic_matrix(scenario: fn() -> (ThreadFn, FaultPlan), label: &str) {
    for backend in all_backends() {
        let name = backend.name();
        let (root, plan) = scenario();
        let result = run_bounded(backend, small_cfg(plan), root);
        assert_injected_panic(&format!("{name}/{label}"), result, 1);
    }
}

#[test]
fn injected_panic_with_peers_parked_on_a_mutex() {
    panic_matrix(mutex_scenario, "mutex");
}

#[test]
fn injected_panic_with_peers_parked_at_a_barrier() {
    panic_matrix(barrier_scenario, "barrier");
}

#[test]
fn injected_panic_with_peers_parked_on_a_condvar() {
    panic_matrix(condvar_scenario, "condvar");
}

#[test]
fn injected_panic_with_a_peer_parked_in_join() {
    panic_matrix(join_scenario, "join");
}

#[test]
fn injected_panic_with_peers_spinning_on_an_atomic() {
    panic_matrix(atomic_scenario, "atomic-spin");
}

/// Classic AB-BA: a barrier guarantees both threads hold their first
/// lock before requesting the second, so the cycle forms on every
/// backend and every schedule.
fn abba_scenario() -> ThreadFn {
    Box::new(|ctx: &mut dyn DmtCtx| {
        let a = MutexId(10);
        let b = MutexId(11);
        let bar = BarrierId(9);
        let t1 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(a);
            ctx.barrier(bar, 2);
            ctx.lock(b);
            ctx.unlock(b);
            ctx.unlock(a);
        }));
        let t2 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(b);
            ctx.barrier(bar, 2);
            ctx.lock(a);
            ctx.unlock(a);
            ctx.unlock(b);
        }));
        ctx.join(t1);
        ctx.join(t2);
    })
}

#[test]
fn abba_deadlock_is_typed_cyclic_and_reproducible() {
    for make in deterministic_backends() {
        let mut digests = Vec::new();
        for _ in 0..2 {
            let backend = make();
            let name = backend.name();
            let result = run_bounded(backend, small_cfg(FaultPlan::new()), abba_scenario());
            let err = result.expect_err("AB-BA must deadlock");
            assert_eq!(
                err.kind(),
                FailureKind::Deadlock,
                "{name}: expected Deadlock, got {err}"
            );
            let r = err.report();
            assert!(
                !r.cycle.is_empty(),
                "{name}: deadlock report must carry the wait-for cycle, got {r:?}"
            );
            assert!(
                !r.wait_graph.is_empty(),
                "{name}: deadlock report must carry the wait graph"
            );
            digests.push(err.report().report_digest());
        }
        assert_eq!(
            digests[0], digests[1],
            "deadlock report digest must be identical across reruns"
        );
    }
}

/// Golden report digests (kind, culprit, message, wait-for graph and
/// cycle) of the AB-BA deadlock on the four deterministic backends,
/// generated at the commit before the sync-object state moved into one
/// turn-owned table.
#[test]
fn abba_deadlock_report_matches_the_golden() {
    let golden = [
        ("RFDet-ci", 0xf11d_624a_4766_30c5),
        ("RFDet-pf", 0x4fb0_6029_18c6_13bf),
        ("DThreads", 0xce97_471b_b7d3_b648),
        ("CoreDet-q", 0xd9c6_dbfd_310a_027d),
    ];
    let got: Vec<(String, u64)> = deterministic_backends()
        .iter()
        .map(|make| {
            let backend = make();
            let name = backend.name();
            let err = run_bounded(backend, small_cfg(FaultPlan::new()), abba_scenario())
                .expect_err("AB-BA must deadlock");
            assert_eq!(err.kind(), FailureKind::Deadlock, "{name}: {err}");
            assert_eq!(err.report().cycle, [1, 2], "{name}: {err}");
            (name, err.report().report_digest())
        })
        .collect();
    let golden: Vec<(String, u64)> = golden.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert_eq!(got, golden, "got {got:x?}");
}

/// The native baseline has no logical clock, so the same AB-BA surfaces
/// through the wall-clock fallback as a `Wedged` run — still typed,
/// still bounded.
#[test]
fn native_abba_surfaces_as_wedged_within_the_configured_bound() {
    let mut cfg = small_cfg(FaultPlan::new());
    cfg.deadlock_after_ms = Some(300);
    let result = run_bounded(Box::new(rfdet::NativeBackend), cfg, abba_scenario());
    let err = result.expect_err("native AB-BA must trip the wedge fallback");
    assert_eq!(
        err.kind(),
        FailureKind::Wedged,
        "expected Wedged, got {err}"
    );
    assert!(err.report().message.contains("stuck"));
}

/// What a worker's panic *says* never decides what it *is*: the core
/// once classified unwinds by message prefix, so a worker panicking with
/// the arbiter's own words ended the run `Ok("")` or `Wedged` on
/// RFDet-ci/pf. Payload types decide; a payload that is no string still
/// names its thread.
#[test]
fn a_worker_panic_is_a_panic_whatever_its_payload_says() {
    type Raise = fn() -> !;
    let cases: [(Raise, &str); 4] = [
        (|| panic!("plain boom"), "plain boom"),
        (
            || panic!("kendo: run aborted by me"),
            "kendo: run aborted by me",
        ),
        (
            || panic!("kendo: thread 7 is unhappy"),
            "kendo: thread 7 is unhappy",
        ),
        (
            || std::panic::panic_any(42u32),
            "panic with non-string payload",
        ),
    ];
    for (raise, message) in cases {
        for backend in all_backends() {
            let name = backend.name();
            let root: ThreadFn = Box::new(move |ctx: &mut dyn DmtCtx| {
                let h = ctx.spawn(Box::new(move |_: &mut dyn DmtCtx| raise()));
                ctx.join(h);
                ctx.emit_str("done");
            });
            let err = match run_bounded(backend, small_cfg(FaultPlan::new()), root) {
                Ok(out) => panic!(
                    "{name}: {message:?} must fail the run, got Ok({:?})",
                    String::from_utf8_lossy(&out.output)
                ),
                Err(e) => e,
            };
            assert_eq!(
                err.kind(),
                FailureKind::Panic,
                "{name}: {message:?}: expected a Panic, got {err}"
            );
            assert_eq!(
                (err.report().tid, err.report().message.as_str()),
                (1, message),
                "{name}"
            );
        }
    }
}

/// The mirror case: a *real* arbitration starvation is still `Wedged`.
/// The worker holds the minimal clock and never ticks (it sleeps past the
/// bound without a `DmtCtx` call), so main starves waiting for its turn.
#[test]
fn a_real_kendo_starvation_still_ends_wedged() {
    for backend in [rfdet::RfdetBackend::ci(), rfdet::RfdetBackend::pf()] {
        let name = backend.name();
        let mut cfg = small_cfg(FaultPlan::new());
        cfg.deadlock_after_ms = Some(300);
        let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
            let h = ctx.spawn(Box::new(|_: &mut dyn DmtCtx| {
                std::thread::sleep(Duration::from_millis(700));
            }));
            ctx.join(h);
        });
        let err = run_bounded(Box::new(backend), cfg, root).expect_err("main starves");
        assert_eq!(
            err.kind(),
            FailureKind::Wedged,
            "{name}: expected Wedged, got {err}"
        );
        let r = err.report();
        assert_eq!(r.tid, 0, "{name}");
        assert!(
            r.message
                .starts_with("kendo: thread 0 starved waiting for its turn for 300ms (parked; "),
            "{name}: {}",
            r.message
        );
    }
}

/// The wedge bound measures time without progress, not time parked: main
/// sits in `join` for over three bounds while the workers keep taking a
/// lock, and the run is clean on every backend. (The lockstep fence wait
/// once counted from the moment it began, and Kendo's parks from the
/// moment each began; both ended this run `Wedged`.)
#[test]
fn a_long_park_while_peers_make_progress_is_not_a_wedge() {
    for backend in all_backends() {
        let name = backend.name();
        let mut cfg = small_cfg(FaultPlan::new());
        cfg.deadlock_after_ms = Some(300);
        let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
            let worker = || -> ThreadFn {
                Box::new(|ctx: &mut dyn DmtCtx| {
                    for _ in 0..20 {
                        std::thread::sleep(Duration::from_millis(50));
                        ctx.lock(MutexId(0));
                        ctx.unlock(MutexId(0));
                    }
                })
            };
            let (a, b) = (ctx.spawn(worker()), ctx.spawn(worker()));
            ctx.join(a);
            ctx.join(b);
            ctx.emit_str("done");
        });
        let out = run_bounded(backend, cfg, root).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.output, b"done", "{name}");
    }
}

#[test]
fn failed_allocation_is_an_injected_typed_panic() {
    for backend in all_backends() {
        let name = backend.name();
        let root: ThreadFn = Box::new(|ctx: &mut dyn DmtCtx| {
            let h = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
                let _ = ctx.alloc(64, 8); // allocation 0
                let _ = ctx.alloc(64, 8); // allocation 1 — injected failure
            }));
            ctx.join(h);
        });
        let cfg = small_cfg(FaultPlan::new().fail_alloc(1, 1));
        let result = run_bounded(backend, cfg, root);
        let err = result.expect_err("the failed allocation must fail the run");
        assert_eq!(
            err.kind(),
            FailureKind::Panic,
            "{name}: expected a Panic, got {err}"
        );
        assert!(
            err.report().message.contains("allocation"),
            "{name}: message should name the allocation, got {:?}",
            err.report().message
        );
    }
}

/// Jitter faults perturb the deterministic schedule without failing it:
/// the run still succeeds and — plan being part of the config — two runs
/// under the same plan agree byte for byte.
#[test]
fn jitter_plan_keeps_runs_deterministic() {
    const CELL: u64 = 0;
    let program = || -> ThreadFn {
        Box::new(|ctx: &mut dyn DmtCtx| {
            let m = MutexId(4);
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        for _ in 0..10 {
                            ctx.lock(m);
                            let v = ctx.read::<u64>(CELL);
                            ctx.write::<u64>(CELL, v + 1);
                            ctx.unlock(m);
                        }
                    }))
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            let total = ctx.read::<u64>(CELL);
            ctx.emit_str(&format!("total={total}"));
        })
    };
    let plan = FaultPlan::new().jitter_at(1, 3, 41).jitter_at(2, 5, 13);
    for make in deterministic_backends() {
        let name = make().name();
        let a = run_bounded(make(), small_cfg(plan.clone()), program())
            .unwrap_or_else(|e| panic!("{name}: jittered run must succeed, got {e}"));
        let b = run_bounded(make(), small_cfg(plan.clone()), program())
            .unwrap_or_else(|e| panic!("{name}: jittered run must succeed, got {e}"));
        assert_eq!(
            a.output, b.output,
            "{name}: same jitter plan must reproduce the same output"
        );
        assert!(
            String::from_utf8_lossy(&a.output).contains("total=30"),
            "{name}: jitter must not change the result, got {:?}",
            String::from_utf8_lossy(&a.output)
        );
    }
}

/// With a panic planned on two threads, the root cause is a function of
/// the sync order, not of who reaches its op first in wall time. Workers
/// A (t1) and B (t2) meet at a barrier, then each takes the mutex — the
/// planned point, op 1 on both. A is logically earlier: B charges 1000
/// ticks first (and A has the lower tid, the lockstep token order). One
/// run stalls A for 100 ms of wall time before its `lock`, the other
/// stalls B; every deterministic backend must blame A both times, with
/// one report digest. (Delivering the panic where the op is *reached*
/// blames B whenever A is the slow one.)
#[test]
fn the_ordered_panic_is_the_root_cause_whichever_thread_is_slow() {
    fn scenario(stall_a: bool) -> ThreadFn {
        let worker = move |is_b: bool| -> ThreadFn {
            Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.barrier(BarrierId(0), 2); // op 0
                if is_b {
                    ctx.tick(1000);
                }
                if is_b != stall_a {
                    std::thread::sleep(Duration::from_millis(100));
                }
                ctx.lock(MutexId(0)); // op 1 — planned on both workers
                ctx.unlock(MutexId(0));
            })
        };
        Box::new(move |ctx: &mut dyn DmtCtx| {
            let a = ctx.spawn(worker(false));
            let b = ctx.spawn(worker(true));
            ctx.join(a);
            ctx.join(b);
        })
    }
    let plan = FaultPlan::new().panic_at(1, 1).panic_at(2, 1);
    for make in deterministic_backends() {
        let name = make().name();
        let digests: Vec<u64> = [true, false]
            .into_iter()
            .map(|stall_a| {
                let result = run_bounded(make(), small_cfg(plan.clone()), scenario(stall_a));
                let err = result.expect_err("a planned panic fails the run");
                assert_eq!(
                    err.report().tid,
                    1,
                    "{name} (A stalled: {stall_a}): the logically earlier panic is the root cause"
                );
                err.report().report_digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1], "{name}: one failure, one digest");
    }
}

/// The core seals a slice before its op's turn and publishes it in turn;
/// a plan's jitter ticks land in between (`enter_op` seals, charges the
/// ticks, then waits), so every jittered op stalls there in logical
/// time. The seeded pause comes just before the seal (the harness sleeps
/// it on entry), so it moves every op's seal and turn in wall time.
/// Neither the outputs nor a failure report may notice: the output
/// digests are pinned from the build that sealed inside the turn, the
/// `chaos.lock_panic` report digests from the last build with slice
/// merging, running with `detect_races = true` (merging was off there,
/// as it is everywhere since).
#[test]
fn a_stall_between_the_seal_and_the_turn_changes_no_digest() {
    use rfdet::workloads::{by_name, Params, Size};
    let plan = || {
        (1..=4u32).fold(FaultPlan::new(), |p, t| {
            p.jitter_at(t, 2, 97 * u64::from(t)).jitter_at(t, 5, 31)
        })
    };
    let cfg = |plan| RunConfig {
        jitter_seed: Some(7),
        ..small_cfg(plan)
    };
    let root = |name, threads| {
        let w = by_name(name).expect("registered");
        (w.factory)(Params::new(threads, Size::Test))
    };
    type Make = fn() -> Box<dyn DmtBackend>;
    let cores: [(Make, u64); 2] = [
        (
            || Box::new(rfdet::RfdetBackend::ci()),
            0x47e3_2d64_c065_743a,
        ),
        (
            || Box::new(rfdet::RfdetBackend::pf()),
            0xeb61_406b_9b58_2d60,
        ),
    ];
    for (make, lock_panic) in cores {
        let name = make().name();
        for (workload, want) in [
            ("sync_heavy", 0xf792_c970_55ab_5513),
            ("racey", 0x4127_c2cd_c495_4516),
        ] {
            let out = run_bounded(make(), cfg(plan()), root(workload, 4))
                .unwrap_or_else(|e| panic!("{name}/{workload}: {e}"));
            assert_eq!(out.output_digest(), want, "{name}/{workload}");
        }
        let err = run_bounded(
            make(),
            cfg(plan().panic_at(2, 5)),
            root("chaos.lock_panic", 3),
        )
        .expect_err("the planned panic fails the run");
        assert_eq!(err.report().tid, 2, "{name}");
        assert_eq!(
            err.report().report_digest(),
            lock_panic,
            "{name}/chaos.lock_panic"
        );
    }
}

/// Fresh-instance constructors for the deterministic backends, so
/// reproducibility tests can run each one twice.
fn deterministic_backends() -> [fn() -> Box<dyn DmtBackend>; 4] {
    [
        || Box::new(rfdet::RfdetBackend::ci()),
        || Box::new(rfdet::RfdetBackend::pf()),
        || Box::new(rfdet::DthreadsBackend),
        || Box::new(rfdet::QuantumBackend),
    ]
}
