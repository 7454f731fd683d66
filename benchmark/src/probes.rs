//! Layer probes: each times one layer's public functions directly, from
//! outside, on inputs shaped by the workloads' thread count. A probe
//! runs a fixed number of batches of a fixed number of operations — one
//! `probe.<layer>.<fn>` span per batch — and reports the median batch's
//! time per operation.

use crate::run::Metrics;
use crate::spans::Spans;
use crate::stats::median;
use rfdet::kendo::KendoState;
use rfdet::mem::{diff, ModRun, PrivateSpace};
use rfdet::meta::{MetaSpace, SliceRec, SyncKey};
use rfdet::vclock::VClock;
use rfdet::{AtomicOp, DmtBackend, DmtCtx, MutexId, RfdetBackend, RunConfig};
use std::hint::black_box;

const PAGE: usize = 4096;

struct Prober<'a> {
    spans: &'a mut Spans,
    batches: usize,
    /// Divides every batch's operation count (quick mode).
    shrink: u64,
    out: Metrics,
}

impl Prober<'_> {
    /// Times `batches` batches of `f`, which performs `ops` operations
    /// per call (already shrunk; use [`Prober::ops`]). `unit` is `"ns"`
    /// or `"us"` per operation.
    fn probe(&mut self, name: &'static str, unit: &'static str, ops: u64, mut f: impl FnMut()) {
        let span_name = format!("probe.{name}");
        let per_op: Vec<f64> = (0..self.batches)
            .map(|_| {
                let ((), ns) = self.spans.span(&span_name, "", ops, |_| f());
                ns as f64 / ops as f64
            })
            .collect();
        let ns = median(&per_op).expect("at least one batch");
        let scale = if unit == "us" { 1e-3 } else { 1.0 };
        self.out.push((name, ns * scale, unit));
    }

    fn ops(&self, full: u64) -> u64 {
        (full / self.shrink).max(1)
    }
}

/// Two clocks of `n` components with `a ≤ b`, so `leq` scans them all.
fn clocks(n: u64) -> (VClock, VClock) {
    let a: Vec<u64> = (0..n).map(|i| 5 + i * 3 % 7).collect();
    let b = a.iter().map(|x| x + 1).collect();
    (VClock::from_components(a), VClock::from_components(b))
}

fn vclock(p: &mut Prober, threads: usize) {
    let ops = p.ops(1_000_000);
    for (n, leq, join) in [
        (threads as u64 + 1, "vclock.leq_ns", "vclock.join_ns"),
        (16, "vclock.leq16_ns", "vclock.join16_ns"),
    ] {
        let (a, b) = clocks(n);
        p.probe(leq, "ns", ops, || {
            for _ in 0..ops {
                black_box(black_box(&a).leq(black_box(&b)));
            }
        });
        let mut x = a.clone();
        p.probe(join, "ns", ops, || {
            for _ in 0..ops {
                black_box(&mut x).join(black_box(&b));
            }
        });
    }
    let (a, _) = clocks(threads as u64 + 1);
    p.probe("vclock.clone_ns", "ns", ops, || {
        for _ in 0..ops {
            black_box(black_box(&a).clone());
        }
    });
}

fn kendo(p: &mut Prober) {
    let ops = p.ops(1_000_000);
    let k = KendoState::new();
    let h = k.register(0);
    p.probe("kendo.tick_ns", "ns", ops, || {
        for _ in 0..ops {
            h.tick(1);
        }
    });
    let ops = p.ops(200_000);
    p.probe("kendo.turn_uncontended_ns", "ns", ops, || {
        for _ in 0..ops {
            k.wait_for_turn(&h);
            k.release_turn(&h, 1);
        }
    });
    // Two registered threads at equal clocks, each releasing with a tick
    // of one: the turn strictly alternates, so every release is one
    // hand-off to the other thread. `ops` counts transfers.
    let turns = p.ops(10_000);
    p.probe("kendo.handoff_ns", "ns", 2 * turns, || {
        let k = KendoState::new();
        let (a, b) = (k.register(0), k.register(0));
        let take_turns = |me| {
            for _ in 0..turns {
                k.wait_for_turn(me);
                k.release_turn(me, 1);
            }
            k.wait_for_turn(me);
            k.finish(me);
        };
        std::thread::scope(|s| {
            s.spawn(|| take_turns(&b));
            take_turns(&a);
        });
    });
}

fn meta(p: &mut Prober) {
    let ops = p.ops(20_000);
    p.probe("meta.publish_slice_ns", "ns", ops, || {
        let meta = MetaSpace::new(1 << 30, 0.9);
        meta.register_thread();
        for seq in 1..=ops {
            let rec = SliceRec::new(
                0,
                seq,
                VClock::from_components(vec![seq]),
                vec![ModRun::new(0, vec![1, 2, 3, 4, 5, 6, 7, 8].into())],
            );
            black_box(meta.publish_slice(rec));
        }
    });

    // A 1000-slice list scanned the way an acquire does: from a cursor,
    // with prefix-closed early exit — 5 slices are new.
    let list = MetaSpace::new(1 << 30, 0.9);
    list.register_thread();
    for seq in 0..1000u64 {
        list.publish_slice(SliceRec::new(
            0,
            seq,
            VClock::from_components(vec![seq + 1]),
            vec![],
        ));
    }
    let (upper, lower) = (
        VClock::from_components(vec![805]),
        VClock::from_components(vec![800]),
    );
    let ops = p.ops(100_000);
    p.probe("meta.filter_cursor_ns", "ns", ops, || {
        for _ in 0..ops {
            black_box(list.filter_list_from(0, black_box(&upper), black_box(&lower), 800, true));
        }
    });

    let ops = p.ops(500_000);
    p.probe("meta.sync_var_lookup_ns", "ns", ops, || {
        for i in 0..ops {
            black_box(list.sync_var(SyncKey::Mutex((i % 8) as u32)));
        }
    });

    // One GC pass over 10 k slices, all at or below the only thread's
    // published clock and so all reclaimable. Filling the store is
    // outside the span.
    let slices = p.ops(10_000);
    let batches = p.batches;
    let mut stores: Vec<MetaSpace> = (0..batches)
        .map(|_| {
            let m = MetaSpace::with_max_slices(1 << 30, 0.9, usize::MAX);
            m.register_thread();
            for seq in 0..slices {
                m.publish_slice(SliceRec::new(
                    0,
                    seq,
                    VClock::from_components(vec![seq + 1]),
                    vec![ModRun::new(0, vec![1; 8].into())],
                ));
            }
            m.publish_vc(0, &VClock::from_components(vec![slices + 1]));
            m
        })
        .collect();
    p.probe("meta.gc_sweep_us", "us", 1, || {
        let m = stores.pop().expect("one filled store per batch");
        black_box(m.run_gc());
    });
}

fn mem(p: &mut Prober) {
    let cfg = RunConfig::default();
    let mut space = PrivateSpace::new(cfg.space_bytes, cfg.page_size);
    for page in 0..64u64 {
        space.write(page * PAGE as u64, &[1u8; PAGE]);
    }
    let span_bytes = 64 * PAGE as u64;

    let ops = p.ops(1_000_000);
    let mut addr = 0;
    p.probe("mem.write_hot_ns", "ns", ops, || {
        for _ in 0..ops {
            addr = (addr + 8) % span_bytes;
            space.write(addr, &7u64.to_le_bytes());
        }
    });
    let mut buf = [0u8; 8];
    p.probe("mem.read_ns", "ns", ops, || {
        for _ in 0..ops {
            addr = (addr + 8) % span_bytes;
            space.read(addr, &mut buf);
            black_box(buf);
        }
    });
    // What the first store to a page in a slice costs in `mem`: the
    // snapshot copy of the page, then the store.
    let ops = p.ops(50_000);
    let mut snap = vec![0u8; PAGE];
    p.probe("mem.first_write_ns", "ns", ops, || {
        for i in 0..ops {
            let page = i % 64;
            space.snapshot_page_into(page as usize, &mut snap);
            space.write(page * PAGE as u64 + 8, &i.to_le_bytes());
            black_box(&snap);
        }
    });
    let ops = p.ops(2_000);
    p.probe("mem.fork_us", "us", ops, || {
        for _ in 0..ops {
            black_box(space.fork());
        }
    });

    let clean = vec![0u8; PAGE];
    let mut sparse = clean.clone();
    sparse[2048..2056].fill(7);
    let dense: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8 + 1).collect();
    let ops = p.ops(20_000);
    for (name, current) in [
        ("mem.diff_sparse_ns", &sparse),
        ("mem.diff_dense_ns", &dense),
        ("mem.diff_clean_ns", &clean),
    ] {
        p.probe(name, "ns", ops, || {
            for _ in 0..ops {
                let mut out = Vec::new();
                diff::diff_page(0, black_box(&clean), black_box(current), &mut out);
                black_box(out);
            }
        });
    }

    let sparse_runs: Vec<ModRun> = (0..16u64)
        .map(|i| ModRun::new(i * 256, vec![9u8; 8].into()))
        .collect();
    let dense_run = [ModRun::new(0, dense.clone().into())];
    let ops = p.ops(100_000);
    for (name, runs) in [
        ("mem.apply_sparse_ns", &sparse_runs[..]),
        ("mem.apply_dense_ns", &dense_run[..]),
    ] {
        p.probe(name, "ns", ops, || {
            for _ in 0..ops {
                black_box(space.apply_runs(black_box(runs)));
            }
        });
    }
}

fn core(p: &mut Prober) {
    let cfg = RunConfig::default();
    let run = |root: rfdet::ThreadFn| {
        RfdetBackend::ci()
            .run(&cfg, root)
            .expect("a probe program cannot fail");
    };
    let ops = p.ops(20_000);
    p.probe("core.lock_pair_ns", "ns", ops, || {
        run(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..ops {
                ctx.lock(MutexId(1));
                ctx.unlock(MutexId(1));
            }
        }));
    });
    p.probe("core.atomic_rmw_ns", "ns", ops, || {
        run(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..ops {
                ctx.atomic_rmw(4096, AtomicOp::Add(1));
            }
        }));
    });
    let ops = p.ops(200);
    p.probe("core.spawn_join_us", "us", ops, || {
        run(Box::new(move |ctx: &mut dyn DmtCtx| {
            for _ in 0..ops {
                let h = ctx.spawn(Box::new(|_: &mut dyn DmtCtx| {}));
                ctx.join(h);
            }
        }));
    });
    let ops = p.ops(20);
    p.probe("core.empty_run_us", "us", ops, || {
        for _ in 0..ops {
            run(Box::new(|_: &mut dyn DmtCtx| {}));
        }
    });
}

/// Runs every probe; `threads` shapes the vector clocks.
pub fn run_all(threads: usize, quick: bool, spans: &mut Spans) -> Metrics {
    let mut p = Prober {
        spans,
        batches: if quick { 3 } else { 9 },
        shrink: if quick { 20 } else { 1 },
        out: Vec::new(),
    };
    vclock(&mut p, threads);
    kendo(&mut p);
    meta(&mut p);
    mem(&mut p);
    core(&mut p);
    p.out
}
