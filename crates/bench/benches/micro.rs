//! Criterion micro-benchmarks of the runtime's building blocks: the
//! costs Figure 7 decomposes into (store instrumentation, page
//! snapshot + diff, propagation filtering, Kendo arbitration).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rfdet_mem::{diff, Page, PrivateSpace, SliceSnapshots};
use rfdet_meta::{MetaSpace, SliceRec};
use rfdet_vclock::VClock;
use std::hint::black_box;

fn bench_vclock(c: &mut Criterion) {
    let a = VClock::from_components(vec![5, 3, 9, 1, 7, 2, 8, 4]);
    let b = VClock::from_components(vec![6, 3, 9, 2, 7, 2, 8, 4]);
    c.bench_function("vclock/leq", |bench| {
        bench.iter(|| black_box(black_box(&a).leq(black_box(&b))))
    });
    c.bench_function("vclock/join", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.join(black_box(&b));
                x
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_space(c: &mut Criterion) {
    c.bench_function("space/write_u64", |bench| {
        let mut s = PrivateSpace::new(1 << 20, 4096);
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 8) % (1 << 16);
            s.write(i, &7u64.to_le_bytes());
        })
    });
    c.bench_function("space/read_u64", |bench| {
        let mut s = PrivateSpace::new(1 << 20, 4096);
        s.write(0, &[1u8; 4096]);
        let mut buf = [0u8; 8];
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 8) % 4096;
            s.read(i, &mut buf);
            black_box(buf);
        })
    });
    c.bench_function("space/fork_cow", |bench| {
        let mut s = PrivateSpace::new(1 << 20, 4096);
        for p in 0..64u64 {
            s.write(p * 4096, &[1u8]);
        }
        bench.iter(|| black_box(s.fork()))
    });
}

fn bench_diff(c: &mut Criterion) {
    // The chunked/scalar pairs are the A/B evidence for the word-at-a-time
    // kernel: same inputs, same output run lists (pinned by the
    // differential proptests), different scan loop.
    let snapshot = vec![0u8; 4096];
    let mut sparse = snapshot.clone();
    for i in (0..4096).step_by(512) {
        sparse[i] = 1;
    }
    let dense: Vec<u8> = (0..4096).map(|i| (i % 251) as u8 + 1).collect();
    let cases = [
        ("sparse", &sparse),
        ("dense", &dense),
        ("identical", &snapshot),
    ];
    for (name, current) in cases {
        c.bench_function(format!("diff/page_{name}"), |bench| {
            bench.iter(|| {
                let mut out = Vec::new();
                diff::diff_page(0, black_box(&snapshot), black_box(current), &mut out);
                black_box(out)
            })
        });
        c.bench_function(format!("diff/page_{name}_scalar"), |bench| {
            bench.iter(|| {
                let mut out = Vec::new();
                diff::diff_page_scalar(0, black_box(&snapshot), black_box(current), &mut out);
                black_box(out)
            })
        });
    }
    // Fragmented page: short runs separated by short gaps — the shape on
    // which per-run cost dominates the scan.
    let mut frag = snapshot.clone();
    for i in (0..4096).step_by(24) {
        frag[i..i + 8].copy_from_slice(&[7u8; 8]);
    }
    c.bench_function("diff/page_fragmented", |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            diff::diff_page(0, black_box(&snapshot), black_box(&frag), &mut out);
            black_box(out)
        })
    });
}

fn bench_slice_snapshots(c: &mut Criterion) {
    // The dirty-line path in `page-sparse`'s slice shape: one 8-byte
    // store into each of 128 pages, then the seal. Both cells time one
    // whole slice's worth (128 first stores; one seal over 128 one-line
    // pages), the other half running untimed as set-up. The `diff/*`
    // cells above time the same kernel over a full mask.
    const PAGES: u64 = 128;
    let state = std::cell::RefCell::new((
        PrivateSpace::new(1 << 20, 4096),
        SliceSnapshots::new(256, 4096, 256),
        0u64,
    ));
    for p in 0..PAGES {
        state.borrow_mut().0.write(p * 4096, &[1u8; 4096]);
    }
    let store_slice = || {
        let (space, snaps, round) = &mut *state.borrow_mut();
        *round += 1;
        for p in 0..PAGES {
            let (page, off) = (p as usize, 8 * p as usize);
            let need = snaps.missing_lines(page, off, 8);
            if need != 0 {
                let current = space.page(page).map(Page::bytes);
                black_box(snaps.record(page, need, current));
            }
            space.write_page(page, off, &round.to_le_bytes());
        }
    };
    let seal = || {
        let (space, snaps, _) = &mut *state.borrow_mut();
        let mut out = Vec::new();
        black_box(snaps.seal(space, &mut out));
        out
    };
    c.bench_function("snap/first_store_line", |bench| {
        bench.iter_batched(seal, |_| store_slice(), BatchSize::SmallInput)
    });
    seal();
    c.bench_function("slice/seal_128_sparse_pages", |bench| {
        bench.iter_batched(store_slice, |()| seal(), BatchSize::SmallInput)
    });
}

fn bench_meta(c: &mut Criterion) {
    c.bench_function("meta/publish_slice", |bench| {
        let meta = MetaSpace::new(1 << 30, 0.9);
        meta.register_thread();
        let mut seq = 0u64;
        bench.iter(|| {
            seq += 1;
            let rec = SliceRec::new(
                0,
                seq,
                VClock::from_components(vec![seq]),
                vec![rfdet_mem::ModRun::new(0, vec![1, 2, 3, 4].into())],
            );
            black_box(meta.publish_slice(rec))
        })
    });
    c.bench_function("meta/propagation_cursor_1000", |bench| {
        // Same 1000-slice list, but scanned the way the runtime does:
        // from a cursor with prefix-closed early exit — this is why
        // propagation is O(new slices) instead of O(list).
        let meta = MetaSpace::new(1 << 30, 0.9);
        meta.register_thread();
        for seq in 0..1000u64 {
            let rec = SliceRec::new(0, seq, VClock::from_components(vec![seq + 1]), vec![]);
            meta.publish_slice(rec);
        }
        let upper = VClock::from_components(vec![805]);
        let lower = VClock::from_components(vec![800]);
        bench.iter(|| {
            let (batch, _, cursor) =
                meta.filter_list_from(0, black_box(&upper), black_box(&lower), 800, true);
            black_box((batch, cursor))
        })
    });
    c.bench_function("meta/propagation_filter_1000", |bench| {
        // Filtering cost over a 1000-slice list (the Figure-5 loop body).
        let meta = MetaSpace::new(1 << 30, 0.9);
        meta.register_thread();
        for seq in 0..1000u64 {
            let rec = SliceRec::new(
                0,
                seq,
                VClock::from_components(vec![seq + 1, seq / 2]),
                vec![],
            );
            meta.publish_slice(rec);
        }
        let upper = VClock::from_components(vec![800, 400]);
        let lower = VClock::from_components(vec![300, 150]);
        bench.iter(|| {
            let list = meta.snapshot_list(0);
            let picked: usize = list
                .iter()
                .filter(|s| s.time.leq(&upper) && !s.time.leq(&lower))
                .count();
            black_box(picked)
        })
    });
}

fn bench_kendo(c: &mut Criterion) {
    c.bench_function("kendo/tick", |bench| {
        let k = rfdet_kendo::KendoState::new();
        let h = k.register(0);
        bench.iter(|| h.tick(1))
    });
    c.bench_function("kendo/uncontended_turn", |bench| {
        let k = rfdet_kendo::KendoState::new();
        let h = k.register(0);
        bench.iter(|| {
            k.wait_for_turn(&h);
            h.tick(1);
        })
    });
}

fn bench_sync_ops(c: &mut Criterion) {
    use rfdet_api::{AtomicOp, DmtBackend, DmtCtx, MutexId, RunConfig};
    // End-to-end cost of one uncontended deterministic sync op (the unit
    // the Figure-7 overheads are made of). Measured by running a fixed
    // batch inside one RFDet instance per iteration.
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    c.bench_function("rfdet/1000_uncontended_lock_unlock", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(|ctx: &mut dyn DmtCtx| {
                    for _ in 0..1000 {
                        ctx.lock(MutexId(1));
                        ctx.unlock(MutexId(1));
                    }
                }),
            )
        })
    });
    c.bench_function("rfdet/1000_atomic_fetch_add", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(|ctx: &mut dyn DmtCtx| {
                    for _ in 0..1000 {
                        ctx.atomic_rmw(4096, AtomicOp::Add(1));
                    }
                }),
            )
        })
    });
}

fn bench_contended_sync(c: &mut Criterion) {
    use rfdet_api::{AtomicOp, DmtBackend, DmtCtx, MutexId, RunConfig};
    // The de-contention benchmarks: 4 threads hammering the sync-op hot
    // path. Per-thread-distinct objects isolate the runtime's own shared
    // structures (sync-var table, queue locks, registries) — the paper's
    // point is that independent sync objects must not serialize on
    // runtime-internal state. The shared-object variants add the
    // propagation work on top.
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    const THREADS: u64 = 4;
    const OPS: u64 = 250;
    let spawn_workers = |ctx: &mut dyn DmtCtx, body: fn(&mut dyn DmtCtx, u64)| {
        let hs: Vec<_> = (0..THREADS)
            .map(|i| ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| body(ctx, i))))
            .collect();
        for h in hs {
            ctx.join(h);
        }
    };
    c.bench_function("rfdet/4t_atomics_distinct_cells", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(move |ctx: &mut dyn DmtCtx| {
                    spawn_workers(ctx, |ctx, i| {
                        for _ in 0..OPS {
                            ctx.atomic_rmw(4096 + i * 64, AtomicOp::Add(1));
                        }
                    });
                }),
            )
        })
    });
    c.bench_function("rfdet/4t_atomics_shared_cell", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(move |ctx: &mut dyn DmtCtx| {
                    spawn_workers(ctx, |ctx, _| {
                        for _ in 0..OPS {
                            ctx.atomic_rmw(4096, AtomicOp::Add(1));
                        }
                    });
                }),
            )
        })
    });
    c.bench_function("rfdet/4t_locks_distinct_mutexes", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(move |ctx: &mut dyn DmtCtx| {
                    spawn_workers(ctx, |ctx, i| {
                        #[allow(clippy::cast_possible_truncation)]
                        let m = MutexId(i as u32);
                        for _ in 0..OPS {
                            ctx.lock(m);
                            ctx.unlock(m);
                        }
                    });
                }),
            )
        })
    });
    c.bench_function("rfdet/4t_locks_shared_mutex", |bench| {
        bench.iter(|| {
            rfdet_core::RfdetBackend::ci().run(
                &cfg,
                Box::new(move |ctx: &mut dyn DmtCtx| {
                    spawn_workers(ctx, |ctx, _| {
                        for _ in 0..OPS {
                            ctx.lock(MutexId(0));
                            ctx.unlock(MutexId(0));
                        }
                    });
                }),
            )
        })
    });
}

fn bench_propagation_heavy(c: &mut Criterion) {
    use rfdet_api::{DmtBackend, DmtCtx, DmtCtxExt, MutexId, RunConfig};
    // Propagate-heavy workload: 4 threads pass one lock around while every
    // slice dirties several pages, so each acquire pulls the other
    // threads' run lists through apply_slice. This is the end-to-end
    // surface for zero-copy propagation (eager: batched apply_runs; lazy:
    // pending RunHandles, no deep copies).
    const THREADS: u64 = 4;
    const OPS: u64 = 100;
    for lazy in [false, true] {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg.rfdet.lazy_writes = lazy;
        let id = if lazy {
            "rfdet/4t_propagate_heavy_lazy"
        } else {
            "rfdet/4t_propagate_heavy_eager"
        };
        c.bench_function(id, |bench| {
            bench.iter(|| {
                rfdet_core::RfdetBackend::ci().run(
                    &cfg,
                    Box::new(move |ctx: &mut dyn DmtCtx| {
                        let hs: Vec<_> = (0..THREADS)
                            .map(|i| {
                                ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                                    for k in 0..OPS {
                                        ctx.lock(MutexId(0));
                                        for p in 0..4u64 {
                                            ctx.write(8192 + p * 4096 + 8 * i, k + 1);
                                        }
                                        ctx.unlock(MutexId(0));
                                    }
                                }))
                            })
                            .collect();
                        for h in hs {
                            ctx.join(h);
                        }
                    }),
                )
            })
        });
    }
}

criterion_group!(
    benches,
    bench_vclock,
    bench_space,
    bench_diff,
    bench_slice_snapshots,
    bench_meta,
    bench_kendo,
    bench_sync_ops,
    bench_contended_sync,
    bench_propagation_heavy
);
criterion_main!(benches);
