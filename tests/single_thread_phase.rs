//! The single-thread phase: while main is a run's only thread, RFDet
//! takes no snapshot of its stores and publishes none of its slices —
//! every later thread forks main's memory and starts with a clock that
//! covers them. These tests pin that the skipped work was dead: children
//! read every byte main wrote alone, through a fork or a mutex, and
//! main's first store after a spawn is tracked again.

use rfdet::{
    all_backends, races_digest, DmtBackend, DmtCtx, DmtCtxExt, MutexId, RfdetBackend, RunConfig,
    ThreadFn,
};

fn cfg() -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c
}

fn rfdet_backends() -> [RfdetBackend; 2] {
    [RfdetBackend::ci(), RfdetBackend::pf()]
}

/// Bytes main initializes before its first spawn: four pages.
const INIT_BYTES: u64 = 4 * 4096;

fn pattern(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

#[test]
fn stores_made_alone_take_no_snapshot_and_every_child_reads_them() {
    let body = || -> ThreadFn {
        Box::new(|ctx| {
            for i in 0..INIT_BYTES / 8 {
                ctx.write::<u64>(8 * i, pattern(i));
            }
            let children: Vec<_> = (0..2)
                .map(|_| {
                    ctx.spawn(Box::new(|ctx: &mut dyn DmtCtx| {
                        let ok = (0..INIT_BYTES / 8).all(|i| ctx.read::<u64>(8 * i) == pattern(i));
                        ctx.emit_str(if ok { "ok;" } else { "stale;" });
                    }))
                })
                .collect();
            for h in children {
                ctx.join(h);
            }
        })
    };
    for b in rfdet_backends() {
        let name = b.name();
        let out = b.run_expect(&cfg(), body());
        assert_eq!(out.output, b"ok;ok;", "{name}");
        let s = &out.stats;
        assert_eq!(s.stores, INIT_BYTES / 8, "{name}");
        assert_eq!(
            (
                s.stores_with_copy,
                s.snapshot_bytes_copied,
                s.diff_bytes_scanned
            ),
            (0, 0, 0),
            "{name}: nothing after the spawn stores"
        );
        assert_eq!(s.page_faults, 0, "{name}: no simulated fault either");
        assert_eq!(s.mod_bytes_applied, 0, "{name}: the fork carried the bytes");
    }
}

#[test]
fn a_mutex_released_alone_hands_main_s_writes_to_a_child() {
    let body = || -> ThreadFn {
        Box::new(|ctx| {
            let m = MutexId(1);
            ctx.write::<u64>(128, 9);
            ctx.lock(m);
            ctx.write::<u64>(64, 7);
            ctx.unlock(m);
            let child = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                ctx.lock(m);
                let (a, b) = (ctx.read::<u64>(64), ctx.read::<u64>(128));
                ctx.unlock(m);
                ctx.emit_str(&format!("{a} {b}"));
            }));
            ctx.join(child);
        })
    };
    for b in all_backends() {
        let out = b.run_expect(&cfg(), body());
        assert_eq!(out.output, b"7 9", "{}", b.name());
    }
}

/// A flag left set past the spawn would keep main's later slices
/// unpublished: the child would spin on a stale flag and print `stale`.
#[test]
fn main_s_first_store_after_a_spawn_is_tracked_and_reaches_a_locking_child() {
    let body = || -> ThreadFn {
        Box::new(|ctx| {
            let m = MutexId(1);
            ctx.write::<u64>(64, 1);
            let child = ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                for _ in 0..100_000 {
                    ctx.lock(m);
                    let (flag, v) = (ctx.read::<u64>(4096), ctx.read::<u64>(64));
                    ctx.unlock(m);
                    if flag == 1 {
                        ctx.emit_str(&v.to_string());
                        return;
                    }
                }
                ctx.emit_str("stale");
            }));
            ctx.lock(m);
            ctx.write::<u64>(64, 2);
            ctx.write::<u64>(4096, 1);
            ctx.unlock(m);
            ctx.join(child);
        })
    };
    for b in all_backends() {
        let name = b.name();
        let out = b.run_expect(&cfg(), body());
        assert_eq!(out.output, b"2", "{name}");
    }
    for b in rfdet_backends() {
        let out = b.run_expect(&cfg(), body());
        assert_eq!(
            out.stats.stores_with_copy,
            2,
            "{}: pages 0 and 1 after the spawn, none before",
            b.name()
        );
    }
}

/// Main's accesses made alone happen before every other access, so they
/// are in no race: the reports equal the lockstep engine's, which
/// observes every access.
#[test]
fn race_reports_are_unchanged_by_the_single_thread_phase() {
    let body = || -> ThreadFn {
        Box::new(|ctx| {
            ctx.write::<u64>(64, 1);
            let _: u64 = ctx.read(128);
            let children: Vec<_> = (0..2u64)
                .map(|i| {
                    ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        ctx.write::<u64>(64, i + 2);
                        ctx.write::<u64>(128, i + 2);
                    }))
                })
                .collect();
            for h in children {
                ctx.join(h);
            }
        })
    };
    let mut detect = cfg();
    detect.detect_races = true;
    let reports: Vec<_> = all_backends()
        .into_iter()
        .filter(|b| b.supports_race_detection())
        .map(|b| (b.name(), b.run_expect(&detect, body()).races))
        .collect();
    let (first, races) = &reports[0];
    assert_eq!(races.len(), 2, "{first}: the children race on both words");
    for (name, r) in &reports {
        assert_eq!(races_digest(r), races_digest(races), "{name} vs {first}");
    }
}
