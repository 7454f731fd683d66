//! The run harness's cross-backend contract (DESIGN.md §4.14).
//!
//! "Thread t's k-th sync op" must be the same program point on every
//! backend, or a `FaultPlan` — and every comparison between backends —
//! means something different on each. One race-free program uses every
//! op kind once its schedule cannot change any thread's op sequence;
//! its recorded per-thread `(op, kind, arg)` streams must then be
//! identical on all five backends (clocks differ by design), and one
//! `panic_at(t, k)` must name the same operation everywhere.
//!
//! Within RFDet the clocks are part of the contract too: the Kendo clock
//! a thread has at each of its sync ops is a function of the program, so
//! the full `(op, kind, arg, clock)` streams of two sync-dense programs
//! are pinned against goldens — however and whenever the runtime chooses
//! to *publish* that clock.

use rfdet::api::DetRng;
use rfdet::trace::digest::Fnv1a;
use rfdet::trace::{op, TraceEvent};
use rfdet::workloads::{by_name, Params, Size};
use rfdet::{
    all_backends, AtomicOp, BarrierId, CondId, DmtBackend, DmtCtx, DmtCtxExt, FaultPlan, MutexId,
    RfdetBackend, RunConfig, RunError, ThreadFn, Tid,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLAG: u64 = 64;
const CELL: u64 = 128;

/// Main spawns a waiter (t1) and a signaller (t2). The waiter holds the
/// mutex across the barrier, so the signaller cannot set the flag before
/// the waiter has checked it: exactly one `cond_wait`, on any schedule.
/// Atomics and allocations come in fixed counts — nothing spins.
fn every_op_kind() -> ThreadFn {
    Box::new(|ctx: &mut dyn DmtCtx| {
        let (m, c, idle, b) = (MutexId(1), CondId(2), CondId(3), BarrierId(4));
        let waiter = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.lock(m); // op 0
            ctx.barrier(b, 2); // op 1
            while ctx.read::<u64>(FLAG) == 0 {
                ctx.cond_wait(c, m); // op 2
            }
            ctx.unlock(m); // op 3
            let a = ctx.alloc(32, 8);
            ctx.dealloc(a);
            ctx.atomic_rmw(CELL, AtomicOp::Add(1)); // op 4, then exit = op 5
        }));
        let signaller = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
            ctx.barrier(b, 2);
            ctx.lock(m);
            ctx.write::<u64>(FLAG, 1);
            ctx.cond_signal(c);
            ctx.unlock(m);
            ctx.cond_broadcast(idle); // nobody waits: still an op
            ctx.atomic_store(CELL + 8, 7);
        }));
        let a = ctx.alloc(16, 8);
        ctx.dealloc(a);
        ctx.join(waiter);
        ctx.join(signaller);
        let total = ctx.atomic_load(CELL);
        ctx.emit_str(&format!("cell={total}"));
    })
}

fn traced_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.trace = Some("harness.every_op_kind".to_owned());
    cfg.fault_plan = plan;
    cfg.deadlock_after_ms = Some(10_000);
    cfg
}

/// One thread's sync-op stream as `(op, kind, arg)` and its allocation
/// indices.
type ThreadStreams = (Vec<(u64, u8, Option<u64>)>, Vec<u64>);

/// Each thread's streams. The two counters are separate coordinates, and
/// wakes (core only) belong to the waker's turn, not to the woken
/// thread's program.
fn projection(events: &[TraceEvent], threads: Tid) -> Vec<ThreadStreams> {
    (0..threads)
        .map(|tid| {
            let of = |alloc: bool| {
                let mut evs: Vec<_> = events
                    .iter()
                    .filter(|e| {
                        e.tid == tid && e.kind != op::WAKE && (e.kind == op::ALLOC) == alloc
                    })
                    .map(|e| (e.op, e.kind, e.arg))
                    .collect();
                evs.sort_unstable();
                evs
            };
            (of(false), of(true).into_iter().map(|e| e.0).collect())
        })
        .collect()
}

/// `jitter_seed` reaches every backend: the harness sleeps a thread's
/// seeded pause at each of its sync ops before the backend orders it, so
/// a single thread's `OPS` atomic loads take at least the sum of the
/// first `OPS` pauses of its stream — `sleep` never returns early, so
/// the bound cannot flake. Without the pauses the loop finishes well
/// inside that sum on every backend.
#[test]
fn every_backend_sleeps_the_seeded_pauses() {
    const OPS: usize = 1000;
    const SEED: u64 = 3;
    let mut stream = DetRng::jitter(SEED, 0);
    let asked: Duration = (0..OPS).map(|_| stream.next_pause()).sum();
    let cfg = RunConfig {
        jitter_seed: Some(SEED),
        ..RunConfig::small()
    };
    for backend in all_backends() {
        let took = Arc::new(Mutex::new(Duration::ZERO));
        let out = Arc::clone(&took);
        backend.run_expect(
            &cfg,
            Box::new(move |ctx: &mut dyn DmtCtx| {
                let t0 = Instant::now();
                for _ in 0..OPS {
                    ctx.atomic_load(CELL);
                }
                *out.lock().expect("unpoisoned") = t0.elapsed();
            }),
        );
        let took = *took.lock().expect("unpoisoned");
        assert!(
            took >= asked,
            "{}: {OPS} ops in {took:?}, but the seed asked for {asked:?} of pauses",
            backend.name()
        );
    }
}

#[test]
fn sync_op_coordinates_are_the_same_program_points_on_every_backend() {
    let mut reference = None;
    for backend in all_backends() {
        let name = backend.name();
        let run = backend.run_traced(&traced_cfg(FaultPlan::new()), every_op_kind());
        let out = run.result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.output, b"cell=1", "{name}");
        let trace = run
            .trace
            .unwrap_or_else(|| panic!("{name}: recording was on"));
        let got = projection(&trace.events, 3);
        // Every kind really is in there, at the indices the program's
        // comments name.
        let waiter: Vec<u8> = got[1].0.iter().map(|e| e.1).collect();
        assert_eq!(
            waiter,
            [
                op::LOCK,
                op::BARRIER,
                op::COND_WAIT,
                op::UNLOCK,
                op::ATOMIC,
                op::EXIT
            ],
            "{name}"
        );
        assert_eq!(got[1].0[2], (2, op::COND_WAIT, Some(2)), "{name}");
        assert_eq!(got[0].0[0], (0, op::SPAWN, None), "{name}");
        assert_eq!(got[0].0[2], (2, op::JOIN, Some(1)), "{name}");
        assert!(got[2].0.iter().any(|e| e.1 == op::COND_BROADCAST), "{name}");
        assert!(got[2].0.iter().any(|e| e.1 == op::COND_SIGNAL), "{name}");
        assert_eq!(got[0].1, [0], "{name}: main allocates once");
        assert_eq!(got[1].1, [0], "{name}: the waiter allocates once");
        match &reference {
            None => reference = Some((name, got)),
            Some((ref_name, want)) => {
                assert_eq!(&got, want, "{name} and {ref_name} disagree on a coordinate");
            }
        }
    }
}

#[test]
fn one_fault_plan_names_the_same_operation_on_every_backend() {
    // The waiter's op 2 is its `cond_wait` — while it holds the mutex the
    // signaller queues on, and main sits in `join`.
    for backend in all_backends() {
        let name = backend.name();
        let err = backend
            .run_traced(
                &traced_cfg(FaultPlan::new().panic_at(1, 2)),
                every_op_kind(),
            )
            .result
            .expect_err("the planned panic fails the run");
        assert!(matches!(err, RunError::WorkerPanicked(_)), "{name}: {err}");
        let r = err.report();
        assert_eq!(r.message, FaultPlan::panic_message(1, 2), "{name}");
        let culprit = r
            .culprit
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no culprit"));
        assert_eq!(
            (culprit.tid, culprit.sync_ops, culprit.last_op.as_deref()),
            (1, 3, Some("cond_wait(2)")),
            "{name}"
        );
    }
}

/// Event count and FNV-1a of every recorded event of `workload` at four
/// threads under RFDet-ci — sync ops, allocations and wakes, each with
/// its Kendo clock, in the trace's deterministic order.
fn clocked_stream_digest(workload: &str) -> (usize, u64) {
    let w = by_name(workload).expect("registered");
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.trace = Some(workload.to_owned());
    let run = RfdetBackend::ci().run_traced(&cfg, (w.factory)(Params::new(4, Size::Test)));
    run.result.unwrap_or_else(|e| panic!("{workload}: {e}"));
    let events = run.trace.expect("recording was on").events;
    let mut h = Fnv1a::new();
    for e in &events {
        h.write(&e.tid.to_le_bytes());
        h.write(&e.op.to_le_bytes());
        h.write(&[e.kind]);
        h.write(&e.arg.unwrap_or(u64::MAX).to_le_bytes());
        h.write(&e.clock.to_le_bytes());
    }
    (events.len(), h.finish())
}

/// Goldens generated by this very function at the commit before clock
/// publication became chunked (PR 18's parent): every recorded clock is
/// the value it was when each access published its own tick.
#[test]
fn per_op_clocks_match_the_per_access_publication_golden() {
    for (workload, golden) in [
        ("sync_heavy", (496, 0x3866_c0de_43cb_8923)),
        ("racey", (17, 0x5fc3_9a43_839c_7b6e)),
    ] {
        let got = clocked_stream_digest(workload);
        assert_eq!(got, clocked_stream_digest(workload), "{workload}: rerun");
        assert_eq!(got, golden, "{workload}: got ({}, {:#018x})", got.0, got.1);
    }
}

/// `(epoch, digest)` of every checkpoint `service.ledger@4` seals on
/// RFDet-ci at `checkpoint_every = 2`. The encoded checkpoint carries the
/// sync-var table and the finished set, so this chain pins what the
/// runtime's sync-object state feeds into a cut, byte for byte.
fn ledger_checkpoint_chain() -> Vec<(u64, u64)> {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(10_000);
    cfg.checkpoint_every = 2;
    cfg.trace = Some("service.ledger@4".to_owned());
    let w = by_name("service.ledger").expect("registered");
    let run = RfdetBackend::ci().run_traced(&cfg, (w.factory)(Params::new(4, Size::Test)));
    run.result
        .unwrap_or_else(|e| panic!("service.ledger@4: {e}"));
    run.checkpoints
        .iter()
        .map(|c| (c.epoch, c.digest()))
        .collect()
}

/// Golden generated by [`ledger_checkpoint_chain`] with `detect_races =
/// true` at the last commit with slice merging: detection turned merging
/// off there, so that run already sealed one slice per sync op, as every
/// run does since. Re-pinned at checkpoint version 4, which adds the
/// recording's fault list after the config: each of these files, with
/// its (empty) list removed and the version set back to 3, hashes to the
/// version-3 golden (`0x4c83_9810_8290_33e9`, `0xaffb_1d60_43cc_152c`,
/// `0x1a05_2543_0a93_a896`). Re-pinned at checkpoint version 5, which
/// drops `meta_capacity_bytes` from the config: each file with that slot
/// put back after `page_size` (`4 << 20`, what `RunConfig::small` held),
/// the version set back to 4 and the checksum recomputed hashes to the
/// version-4 golden (`0x0be2_906a_7932_0623`, `0x1cef_1406_7ac5_bd98`,
/// `0x0881_7e83_b37a_e8c9`).
#[test]
fn ledger_checkpoint_chain_matches_the_golden() {
    let golden: &[(u64, u64)] = &[
        (2, 0x8981_a55a_46e6_5ab4),
        (4, 0x1b1e_cfba_7086_e815),
        (6, 0xea78_b6b8_81b6_aa49),
    ];
    let got = ledger_checkpoint_chain();
    assert_eq!(got, ledger_checkpoint_chain(), "rerun");
    assert_eq!(got, golden, "got {got:x?}");
}
