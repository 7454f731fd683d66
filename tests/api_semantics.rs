//! Cross-backend semantics of the pthreads-style API surface:
//! condition-variable wake ordering, barrier reuse, misuse panics.

use rfdet::api::harness::{join_never_spawned, join_twice};
use rfdet::{
    all_backends, BarrierId, CondId, DmtBackend, DmtCtx, DmtCtxExt, DthreadsBackend, FailureKind,
    MutexId, NativeBackend, QuantumBackend, RfdetBackend, RunConfig, ThreadFn, ThreadHandle,
};

fn cfg() -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c
}

fn det_backends() -> Vec<Box<dyn DmtBackend>> {
    vec![
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ]
}

#[test]
fn broadcast_wakes_every_waiter() {
    for b in det_backends() {
        let out = b.run_expect(
            &cfg(),
            Box::new(|ctx| {
                let m = MutexId(0);
                let cv = CondId(0);
                let waiters: Vec<_> = (0..3u64)
                    .map(|i| {
                        ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                            ctx.lock(m);
                            while ctx.read::<u64>(0) == 0 {
                                ctx.cond_wait(cv, m);
                            }
                            ctx.update::<u64>(8, |v| v + (i + 1));
                            ctx.unlock(m);
                        }))
                    })
                    .collect();
                // Let everyone reach the wait, then broadcast once.
                ctx.tick(10_000);
                ctx.lock(m);
                ctx.write::<u64>(0, 1);
                ctx.cond_broadcast(cv);
                ctx.unlock(m);
                for w in waiters {
                    ctx.join(w);
                }
                let sum: u64 = ctx.read(8);
                ctx.emit_str(&sum.to_string());
            }),
        );
        assert_eq!(out.output, b"6", "{} lost a broadcast waiter", b.name());
    }
}

#[test]
fn signal_with_no_waiter_is_lost() {
    // pthreads semantics: a signal with no waiter does nothing; the later
    // waiter must rely on its predicate, which the producer already set.
    for b in det_backends() {
        let out = b.run_expect(
            &cfg(),
            Box::new(|ctx| {
                let m = MutexId(0);
                let cv = CondId(0);
                ctx.lock(m);
                ctx.write::<u64>(0, 1);
                ctx.cond_signal(cv); // nobody waiting: lost
                ctx.unlock(m);
                let h = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.lock(m);
                    while ctx.read::<u64>(0) == 0 {
                        ctx.cond_wait(cv, m);
                    }
                    ctx.write::<u64>(8, 99);
                    ctx.unlock(m);
                }));
                ctx.join(h);
                let v: u64 = ctx.read(8);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"99", "{}", b.name());
    }
}

/// A signal issued after `unlock` finds the mutex free and hands it to
/// the waiter at once. The waiter must then see what the mutex's last
/// holder wrote — here `x`, not the signaler, which set the predicate
/// before `x` took the mutex and never synchronized with it since. The
/// ticks place, in logical time, the wait, the signaler's section, `x`'s
/// section, then the signal; on any schedule both increments happen
/// under the mutex, so a waiter that missed `x`'s update loses it.
#[test]
fn a_signal_after_unlock_hands_the_waiter_the_mutexs_last_release() {
    let (m, cv, ready, total) = (MutexId(0), CondId(0), 0u64, 8u64);
    for b in all_backends() {
        let out = b.run_expect(
            &cfg(),
            Box::new(move |ctx| {
                let waiter = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.lock(m);
                    while ctx.read::<u64>(ready) == 0 {
                        ctx.cond_wait(cv, m);
                    }
                    ctx.update::<u64>(total, |v| v + 1);
                    ctx.unlock(m);
                }));
                let x = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.tick(2_000);
                    ctx.lock(m);
                    ctx.update::<u64>(total, |v| v + 42);
                    ctx.unlock(m);
                }));
                let signaler = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.tick(1_000);
                    ctx.lock(m);
                    ctx.write::<u64>(ready, 1);
                    ctx.unlock(m);
                    ctx.tick(2_000);
                    ctx.cond_signal(cv);
                }));
                for h in [waiter, x, signaler] {
                    ctx.join(h);
                }
                let v: u64 = ctx.read(total);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, (42 + 1).to_string().as_bytes(), "{}", b.name());
    }
}

/// The signal is a release, and the woken waiter acquires it. Here the
/// signaler stores `x` after its last unlock, then signals: the waiter is
/// granted the free mutex at the signal, and the mutex's last release
/// predates the store, so only the signal's own edge carries `x`. The
/// signaler polls `waiting` under the mutex, so it signals only once the
/// waiter has released the mutex into its `cond_wait`.
#[test]
fn a_signal_is_a_release_the_woken_waiter_acquires() {
    let (m, cv) = (MutexId(0), CondId(0));
    let (waiting, ready, x) = (0u64, 8u64, 16u64);
    for b in det_backends() {
        for seed in 0..16 {
            let jittered = RunConfig {
                jitter_seed: Some(seed),
                ..cfg()
            };
            let out = b.run_expect(
                &jittered,
                Box::new(move |ctx| {
                    let waiter = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        ctx.lock(m);
                        ctx.write::<u64>(waiting, 1);
                        while ctx.read::<u64>(ready) == 0 {
                            ctx.cond_wait(cv, m);
                        }
                        let v: u64 = ctx.read(x);
                        ctx.unlock(m);
                        ctx.emit_str(&format!("x={v}"));
                    }));
                    let signaler = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        loop {
                            ctx.lock(m);
                            let w: u64 = ctx.read(waiting);
                            ctx.unlock(m);
                            if w == 1 {
                                break;
                            }
                        }
                        ctx.lock(m);
                        ctx.write::<u64>(ready, 1);
                        ctx.unlock(m);
                        ctx.write::<u64>(x, 42);
                        ctx.cond_signal(cv);
                    }));
                    ctx.join(waiter);
                    ctx.join(signaler);
                }),
            );
            let out = String::from_utf8_lossy(&out.output);
            assert_eq!(out, "x=42", "{} jitter seed {seed}", b.name());
        }
    }
}

#[test]
fn barriers_are_reusable_across_generations() {
    for b in det_backends() {
        let out = b.run_expect(
            &cfg(),
            Box::new(|ctx| {
                let bar = BarrierId(3);
                let hs: Vec<_> = (0..2u64)
                    .map(|i| {
                        ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                            for phase in 0..10u64 {
                                if i == 0 {
                                    ctx.write::<u64>(0, phase * 2 + 1);
                                }
                                ctx.barrier(bar, 2);
                                let v: u64 = ctx.read(0);
                                ctx.write_idx::<u64>(64, i, v + phase);
                                ctx.barrier(bar, 2);
                            }
                        }))
                    })
                    .collect();
                for h in hs {
                    ctx.join(h);
                }
                let a: u64 = ctx.read_idx(64, 0);
                let b_: u64 = ctx.read_idx(64, 1);
                ctx.emit_str(&format!("{a},{b_}"));
            }),
        );
        // Final phase 9: value 19, +9 → 28 for both.
        assert_eq!(out.output, b"28,28", "{}", b.name());
    }
}

/// A write race between barrier participants resolves by ascending tid
/// (§4.1: "the thread with the smallest ID merges its modifications
/// first"), so each participant reads back the highest-tid *other*
/// writer's value, and the join order leaves main with the highest tid's
/// — whichever order the participants arrive in.
#[test]
fn a_barrier_resolves_a_write_race_by_ascending_tid_whatever_the_arrival_order() {
    const RANKS: [[u64; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for b in [RfdetBackend::ci(), RfdetBackend::pf()] {
        for ranks in RANKS {
            let out = b.run_expect(
                &cfg(),
                Box::new(move |ctx| {
                    let bar = BarrierId(0);
                    let hs: Vec<_> = (0..3u64)
                        .map(|i| {
                            ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                                // Worker i arrives `ranks[i]`-th.
                                ctx.tick(10_000 * ranks[i as usize]);
                                ctx.write::<u64>(0, 100 + i);
                                ctx.barrier(bar, 3);
                                let v: u64 = ctx.read(0);
                                ctx.write_idx::<u64>(64, i, v);
                            }))
                        })
                        .collect();
                    for h in hs {
                        ctx.join(h);
                    }
                    let seen: Vec<u64> = (0..3).map(|i| ctx.read_idx(64, i)).collect();
                    let v: u64 = ctx.read(0);
                    ctx.emit_str(&format!("{seen:?} {v}"));
                }),
            );
            assert_eq!(
                out.output,
                b"[102, 102, 101] 102",
                "{}, arrival ranks {ranks:?}",
                b.name()
            );
        }
    }
}

#[test]
fn rfdet_rejects_unlock_of_unheld_mutex() {
    let err = RfdetBackend::ci()
        .run(
            &cfg(),
            Box::new(|ctx| {
                ctx.unlock(MutexId(5));
            }),
        )
        .expect_err("unlocking an unheld mutex must fail the run");
    assert_eq!(err.kind(), FailureKind::Panic);
    assert_eq!(err.report().tid, 0);
}

/// A load or store outside the configured space fails the run with the
/// one out-of-bounds message — the access's `addr` and `len`, and the
/// `space` it missed on the backends that page it — whether it stays in
/// one (nonexistent) page or straddles into it, by one byte or by pages.
/// Stores used to escape from a page-table or dirty-line index instead.
#[test]
fn out_of_range_accesses_are_one_typed_error_on_every_backend() {
    let (space, page) = (cfg().space_bytes, cfg().page_size);
    let cases: [(&str, u64, usize); 4] = [
        ("in-page, one byte past", space, 1),
        ("straddling, one byte past", space - 7, 8),
        ("in-page, far past", space + page + 16, 8),
        ("straddling, far past", space + 2 * page - 4, 8),
    ];
    for backend in all_backends() {
        for (what, addr, len) in cases {
            for store in [false, true] {
                let name = format!(
                    "{} {} {what}",
                    backend.name(),
                    if store { "store" } else { "load" }
                );
                let err = backend
                    .run(
                        &cfg(),
                        Box::new(move |ctx| {
                            let mut buf = vec![1u8; len];
                            if store {
                                ctx.write_bytes(addr, &buf);
                            } else {
                                ctx.read_bytes(addr, &mut buf);
                            }
                        }),
                    )
                    .expect_err(&name);
                assert_eq!(err.kind(), FailureKind::Panic, "{name}: {err}");
                let msg = &err.report().message;
                let mut want = vec![
                    "shared-memory access out of bounds".to_owned(),
                    format!("addr={addr:#x}"),
                    format!("len={len}"),
                ];
                if backend.is_deterministic() {
                    want.push(format!("space={space:#x}"));
                }
                for part in want {
                    assert!(msg.contains(&part), "{name}: no {part:?} in {msg:?}");
                }
                assert!(!msg.contains("index"), "{name}: raw slice panic {msg:?}");
            }
        }
    }
}

/// API misuse — each case undefined behaviour under pthreads — fails the
/// run with one `Panic` charged to the misusing thread, with one message,
/// on every deterministic backend: the checks are written once, on the
/// sync table's records, and the lockstep engine records a misuse in its
/// serial phase, in token order, for the thread whose op it is. In the
/// bystander cases t1 closes the lockstep fence of t2's misuse; stalled
/// 200 ms, it used to be named the culprit on DThreads and CoreDet-q,
/// because the engine failed on the stack of whichever thread closed the
/// fence. Each report digest is rerun-stable, stall or no stall, and
/// the bystander's is the same under every jitter seed. A join of a tid
/// no spawn handed out is checked against the spawn count before any
/// backend indexes by it (it used to panic out of bounds on RFDet and
/// deadlock the lockstep engine).
#[test]
fn misuse_is_one_panic_charged_to_the_misusing_thread_on_every_backend() {
    fn bystander(stall_ms: u64) -> ThreadFn {
        Box::new(move |ctx: &mut dyn DmtCtx| {
            let b = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.lock(MutexId(9));
                std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                ctx.unlock(MutexId(9));
            }));
            let m = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| ctx.unlock(MutexId(5))));
            ctx.join(b);
            ctx.join(m);
        })
    }
    let not_held = |tid: u32| format!("thread {tid} unlocking mutex 5 it does not hold");
    // (what, program, culprit, message)
    type Case = (&'static str, fn() -> ThreadFn, u32, String);
    let cases: [Case; 11] = [
        (
            "unlock of a never-locked mutex",
            || Box::new(|ctx| ctx.unlock(MutexId(5))),
            0,
            not_held(0),
        ),
        (
            "unlock by a non-owner",
            || {
                Box::new(|ctx| {
                    ctx.lock(MutexId(5));
                    let h = ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| ctx.unlock(MutexId(5))));
                    ctx.join(h);
                })
            },
            1,
            not_held(1),
        ),
        (
            "double unlock",
            || {
                Box::new(|ctx| {
                    ctx.lock(MutexId(5));
                    ctx.unlock(MutexId(5));
                    ctx.unlock(MutexId(5));
                })
            },
            0,
            not_held(0),
        ),
        (
            "cond_wait without the mutex",
            || Box::new(|ctx| ctx.cond_wait(CondId(2), MutexId(5))),
            0,
            "thread 0 waiting on cond 2 without holding mutex 5".into(),
        ),
        (
            "recursive lock",
            || {
                Box::new(|ctx| {
                    ctx.lock(MutexId(5));
                    ctx.lock(MutexId(5));
                })
            },
            0,
            "recursive lock of mutex 5 by thread 0".into(),
        ),
        (
            "join self",
            || Box::new(|ctx| ctx.join(ThreadHandle(0))),
            0,
            "thread 0 joining itself".into(),
        ),
        (
            "join twice",
            || {
                Box::new(|ctx| {
                    let h = ctx.spawn(Box::new(|_: &mut dyn DmtCtx| {}));
                    let again = ThreadHandle(h.0);
                    ctx.join(h);
                    ctx.join(again);
                })
            },
            0,
            join_twice(0, 1),
        ),
        (
            "zero-party barrier",
            || Box::new(|ctx| ctx.barrier(BarrierId(3), 0)),
            0,
            "barrier 3 with zero parties".into(),
        ),
        ("bystander", || bystander(0), 2, not_held(2)),
        ("slow bystander", || bystander(200), 2, not_held(2)),
        (
            "join of a never-spawned tid",
            || {
                Box::new(|ctx| {
                    let h = ctx.spawn(Box::new(|_: &mut dyn DmtCtx| {}));
                    ctx.join(h);
                    ctx.join(ThreadHandle(7));
                })
            },
            0,
            join_never_spawned(0, 7),
        ),
    ];
    for backend in det_backends() {
        let name = backend.name();
        let digests: Vec<u64> = cases
            .iter()
            .map(|(what, body, tid, message)| {
                let runs: Vec<u64> = (0..2)
                    .map(|_| {
                        let err = backend
                            .run(&cfg(), body())
                            .expect_err("misuse must fail the run");
                        assert_eq!(err.kind(), FailureKind::Panic, "{name} {what}: {err}");
                        let r = err.report();
                        assert_eq!((r.tid, &r.message), (*tid, message), "{name} {what}");
                        err.report().report_digest()
                    })
                    .collect();
                assert_eq!(runs[0], runs[1], "{name} {what}: rerun-stable digest");
                runs[0]
            })
            .collect();
        assert_eq!(
            digests[8], digests[9],
            "{name}: whoever closes the fence, one report"
        );
        // Seeded pauses vary which thread closes that fence, no sleep in
        // the program needed.
        for seed in 0..16 {
            let jittered = RunConfig {
                jitter_seed: Some(seed),
                ..cfg()
            };
            let err = backend
                .run(&jittered, bystander(0))
                .expect_err("misuse must fail the run");
            let r = err.report();
            assert_eq!(
                (r.tid, &r.message, err.report().report_digest()),
                (2, &not_held(2), digests[8]),
                "{name} bystander under jitter seed {seed}"
            );
        }
    }
    // Native keeps no sync table, but each misuse is the same panic in
    // the same words: its mutex records its owner, its second join finds
    // the OS handle claimed by the first, and a join of a tid past its
    // spawn count is checked against that count.
    for (what, body, tid, message) in &cases {
        let runs: Vec<u64> = (0..2)
            .map(|_| {
                let err = NativeBackend
                    .run(&cfg(), body())
                    .expect_err("misuse must fail the run");
                assert_eq!(err.kind(), FailureKind::Panic, "pthreads {what}: {err}");
                assert_eq!(
                    (err.report().tid, &err.report().message),
                    (*tid, message),
                    "pthreads {what}"
                );
                err.report().report_digest()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "pthreads {what}: rerun-stable digest");
    }
}

#[test]
fn deadlock_is_detected_not_hung() {
    // Two threads take two locks in opposite order without ordering
    // discipline — a classic deadlock. The supervisor's structural
    // detector (parked threads scanning the blocked set) must return a
    // typed error with the wait-for cycle, fast — no wall-clock wait.
    let mut c = cfg();
    c.jitter_seed = None;
    let start = std::time::Instant::now();
    let err = RfdetBackend::ci()
        .run(
            &c,
            Box::new(|ctx| {
                let a = MutexId(1);
                let b = MutexId(2);
                let t1 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.lock(a);
                    ctx.tick(100_000);
                    ctx.lock(b);
                    ctx.unlock(b);
                    ctx.unlock(a);
                }));
                let t2 = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                    ctx.lock(b);
                    ctx.tick(100_000);
                    ctx.lock(a);
                    ctx.unlock(a);
                    ctx.unlock(b);
                }));
                ctx.join(t1);
                ctx.join(t2);
            }),
        )
        .expect_err("deadlock must be detected");
    assert_eq!(err.kind(), FailureKind::Deadlock, "typed: {err}");
    let r = err.report();
    assert!(!r.cycle.is_empty(), "wait-for cycle identified: {r:?}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "structural detection must not wait for a wall-clock watchdog"
    );
}

#[test]
fn thread_ids_are_deterministic_and_dense() {
    for b in det_backends() {
        let out = b.run_expect(
            &cfg(),
            Box::new(|ctx| {
                assert_eq!(ctx.tid(), 0, "main thread is tid 0");
                let mut ids = Vec::new();
                let hs: Vec<_> = (0..3)
                    .map(|_| {
                        ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
                            let tid = ctx.tid();
                            ctx.write_idx::<u64>(0, u64::from(tid), u64::from(tid) + 1);
                        }))
                    })
                    .collect();
                for h in &hs {
                    ids.push(h.0);
                }
                for h in hs {
                    ctx.join(h);
                }
                ctx.emit_str(&format!("{ids:?}"));
            }),
        );
        assert_eq!(out.output, b"[1, 2, 3]", "{}", b.name());
    }
}
