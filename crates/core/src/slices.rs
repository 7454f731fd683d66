//! Slice lifecycle (paper §4.2).
//!
//! A *slice* is a synchronization-free interval of one thread's execution.
//! Every synchronization operation ends the current slice: the *seal*
//! diffs the snapshotted lines and packs the runs into one arena (ahead of
//! the op's turn, but for an atomic's in-turn store), and in turn the
//! *publication* stamps them with the slice's vector time into a
//! [`rfdet_meta::SliceRec`] in the metadata space.

use crate::ctx::RfdetCtx;
use rfdet_api::obs::Phase;
use rfdet_mem::RunList;
use rfdet_meta::SliceRec;

impl RfdetCtx {
    /// Seals the open slice: diffs its dirty lines and packs the runs into
    /// one arena, recycling the snapshot buffers; a thread that is
    /// [`alone`](RfdetCtx::alone) only forgets its marks. Thread-local
    /// work, so [`Self::enter_op`] runs it ahead of the turn.
    pub(crate) fn seal_slice(&mut self) -> (Option<RunList>, u64) {
        // One clock read ends the slice wall and starts the diff.
        let diff_t0 = self.obs_boundary_start();
        if let (Some(t0), Some(now)) = (self.slice_t0.take(), diff_t0) {
            let ops =
                (self.h.stats.loads + self.h.stats.stores).saturating_sub(self.slice_ops_base);
            self.h.sample(Phase::SliceOps, ops);
            self.h
                .sample(Phase::SliceWall, now.duration_since(t0).as_nanos() as u64);
        }
        let scanned = if self.alone {
            self.snaps.forget();
            0
        } else {
            self.snaps.seal(&self.space, &mut self.runs)
        };
        let mods = self.runs.finish();
        self.obs_since_boundary(Phase::Diff, diff_t0);
        (mods, scanned)
    }

    /// Ends the current slice: seals it unless its op already did, then
    /// publishes it stamped with `vc` (unchanged since `begin_slice`) —
    /// the in-turn half. Runs GC if the publication crossed the metadata
    /// threshold (§4.5).
    pub(crate) fn end_slice(&mut self) {
        let (mods, scanned) = self.sealed.take().unwrap_or_else(|| self.seal_slice());
        self.h.stats.diff_bytes_scanned += scanned;
        self.h.stats.slices += 1;
        // Race detection seals the slice's word-read set alongside the
        // diff. Read-only slices must then publish too — a remote read
        // can race a write, and the detecting thread only sees accesses
        // that reach it as published slices. Their empty mod list applies
        // as a no-op everywhere, so propagation results are unchanged.
        // A thread that is alone seals no runs and publishes no reads:
        // every later thread's clock covers the slice.
        let reads = if self.track_reads {
            self.read_set.seal(self.shared.run.cfg.page_size)
        } else {
            Vec::new()
        };
        if mods.is_some() || (!reads.is_empty() && !self.alone) {
            let (time, mods) = (self.vc.clone(), mods.unwrap_or_default());
            let mut rec = SliceRec::sealed(self.tid, self.slice_seq, time, mods);
            if self.track_reads {
                rec = rec.with_access(reads, self.h.sync_ops(), self.in_atomic);
            }
            // Main's own slices never come back to it through propagation
            // — observe them at the seal (the detector lives on tid 0).
            if let Some(det) = self.detect.as_mut() {
                det.observe_slice(&rec);
            }
            let gc_needed = self.shared.meta.publish_slice_for(&self.meta_thread, rec);
            // Defer the pass itself: end_slice runs inside the Kendo
            // turn, and a GC scan there would serialize every thread.
            self.gc_pending |= gc_needed;
        }
        self.slice_seq += 1;
    }

    /// Runs a deferred GC pass (call off-turn) and nudges parked threads
    /// into a pre-merge round, the only thing that advances their GC bound.
    pub(crate) fn run_pending_gc(&mut self) {
        if self.gc_pending {
            self.gc_pending = false;
            self.shared.meta.run_gc();
            self.shared.kendo.nudge_parked();
        }
    }

    /// Starts a new slice at the current vector clock. In `pf` mode the
    /// whole space is write-protected now (§4.2: "protect shared memory
    /// with no write permission at the beginning of each slice") because
    /// the seal left no page snapshotted (see `RfdetCtx::record_store`).
    pub(crate) fn begin_slice(&mut self) {
        // Consume (not re-store) the boundary: the new slice starts at
        // the previous phase's end read, and whatever runs next is user
        // code, not an adjacent instrumented phase.
        self.slice_t0 = self.obs_boundary_start();
        self.slice_ops_base = self.h.stats.loads + self.h.stats.stores;
        debug_assert!(
            self.snaps.dirty_pages() == 0 && self.sealed.is_none(),
            "begin_slice with the previous slice unpublished"
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::shared::RuntimeShared;
    use crate::RfdetCtx;
    use rfdet_api::{DmtCtx as _, DmtCtxExt, MonitorMode, RunConfig};
    use rfdet_mem::{ModRun, RunList, Runs};
    use std::sync::Arc;

    /// A published arena's runs, boxed for comparison.
    pub(crate) fn boxed(list: &RunList) -> Vec<ModRun> {
        let boxed = |(addr, data): (u64, &[u8])| ModRun::new(addr, data.into());
        list.iter_runs().map(boxed).collect()
    }

    fn ctx_with(monitor: MonitorMode) -> RfdetCtx {
        let mut cfg = RunConfig::small();
        cfg.rfdet.monitor = monitor;
        cfg.rfdet.fault_cost_spins = 0;
        let mut ctx = RfdetCtx::new_main(Arc::new(RuntimeShared::new(&cfg).expect("valid config")));
        ctx.alone = false; // exercise the slice machinery without spawning
        ctx
    }

    #[test]
    fn first_write_snapshots_page_ci() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u64>(100, 7);
        assert_eq!(ctx.h.stats.stores_with_copy, 1);
        ctx.write::<u64>(108, 8); // same page: no second snapshot
        assert_eq!(ctx.h.stats.stores_with_copy, 1);
        ctx.write::<u64>(5000, 9); // second page
        assert_eq!(ctx.h.stats.stores_with_copy, 2);
        assert_eq!(ctx.h.stats.stores, 3);
    }

    #[test]
    fn pf_mode_counts_faults() {
        let mut ctx = ctx_with(MonitorMode::Pf);
        ctx.write::<u64>(100, 7);
        ctx.write::<u64>(108, 8);
        assert_eq!(ctx.h.stats.page_faults, 1, "one fault per page per slice");
        assert_eq!(ctx.h.stats.stores_with_copy, 1);
    }

    #[test]
    fn end_slice_publishes_byte_diffs() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u32>(16, 0xAABBCCDD);
        ctx.end_slice();
        let list = ctx.shared.meta.snapshot_list(0);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].mod_bytes(), 4);
        assert_eq!(list[0].tid, 0);
        assert_eq!(list[0].time, ctx.vc, "slice stamped with its start time");
    }

    #[test]
    fn redundant_writes_publish_nothing() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        // Write zero over fresh (zero) memory — §4.6: the slice must be
        // empty and is not published.
        ctx.write::<u64>(64, 0);
        ctx.end_slice();
        assert!(ctx.shared.meta.snapshot_list(0).is_empty());
        assert_eq!(ctx.h.stats.slices, 1, "the slice still happened");
    }

    #[test]
    fn slice_seq_advances_and_snapshots_reset() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u8>(0, 1);
        ctx.end_slice();
        ctx.begin_slice();
        ctx.write::<u8>(1, 2);
        assert_eq!(
            ctx.h.stats.stores_with_copy, 2,
            "same page snapshots again in a new slice"
        );
        ctx.end_slice();
        let list = ctx.shared.meta.snapshot_list(0);
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].seq, 0);
        assert_eq!(list[1].seq, 1);
    }

    #[test]
    fn pf_reprotects_each_slice() {
        let mut ctx = ctx_with(MonitorMode::Pf);
        ctx.write::<u8>(0, 1);
        ctx.end_slice();
        ctx.begin_slice();
        ctx.write::<u8>(0, 2);
        assert_eq!(ctx.h.stats.page_faults, 2);
    }

    #[test]
    fn steady_state_slices_hit_the_snapshot_pool() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        // First slice: cold pool, one miss per stored-to page.
        ctx.write::<u64>(0, 1);
        ctx.write::<u64>(4096, 2);
        assert_eq!(ctx.h.stats.snapshot_pool_misses, 2);
        assert_eq!(ctx.h.stats.snapshot_pool_hits, 0);
        ctx.end_slice();
        ctx.begin_slice();
        // Steady state: both buffers come back from the pool.
        ctx.write::<u64>(0, 3);
        ctx.write::<u64>(4096, 4);
        assert_eq!(ctx.h.stats.snapshot_pool_hits, 2);
        assert_eq!(ctx.h.stats.snapshot_pool_misses, 2);
        // One line per store, not one page.
        let line = ctx.snaps.line_bytes() as u64;
        assert_eq!(line, 64);
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 4 * line);
        ctx.end_slice();
        assert_eq!(ctx.h.stats.diff_bytes_scanned, 4 * line);
    }

    #[test]
    fn one_store_slice_copies_and_scans_one_line() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u64>(4096 + 200, 7);
        ctx.end_slice();
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 64);
        assert_eq!(ctx.h.stats.diff_bytes_scanned, 64);
        assert_eq!(ctx.h.stats.stores_with_copy, 1);
        // A store straddling two lines, and one straddling two pages.
        ctx.begin_slice();
        ctx.write::<u64>(60, u64::MAX);
        ctx.write::<u64>(2 * 4096 - 4, u64::MAX);
        ctx.end_slice();
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 64 + 128 + 128);
        assert_eq!(ctx.h.stats.diff_bytes_scanned, 64 + 128 + 128);
        assert_eq!(ctx.h.stats.stores_with_copy, 1 + 3, "pages 0, 1 and 2");
        let list = ctx.shared.meta.snapshot_list(0);
        let runs: Vec<(u64, usize)> = list[1]
            .mods
            .iter_runs()
            .map(|(a, d)| (a, d.len()))
            .collect();
        assert_eq!(
            runs,
            vec![(60, 8), (2 * 4096 - 4, 4), (2 * 4096, 4)],
            "a run crosses a line boundary whole; diffing stays per page"
        );
    }

    #[test]
    fn atomic_mini_slice_copies_and_scans_one_line() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        assert_eq!(ctx.atomic_rmw(4096, rfdet_api::AtomicOp::Add(5)), 0);
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 64);
        assert_eq!(ctx.h.stats.diff_bytes_scanned, 64);
        assert_eq!(ctx.atomic_rmw(4096, rfdet_api::AtomicOp::Add(1)), 5);
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 128);
        assert_eq!(ctx.h.stats.diff_bytes_scanned, 128);
        // A pure load stores nothing, so it snapshots nothing.
        assert_eq!(ctx.atomic_load(4096), 6);
        assert_eq!(ctx.h.stats.snapshot_bytes_copied, 128);
    }

    /// A slice with line-straddling, page-straddling, repeated and
    /// same-value stores.
    fn mixed_stores(ctx: &mut RfdetCtx) {
        ctx.write::<u64>(100, 1);
        ctx.write::<u64>(60, 2);
        ctx.write::<u64>(4096 - 3, u64::MAX);
        ctx.write::<u64>(3 * 4096 + 512, 0); // same value: no run
        ctx.write::<u8>(3 * 4096 + 4095, 9);
        ctx.write::<u64>(100, 3);
    }

    #[test]
    fn pf_mode_copies_and_scans_whole_pages_and_publishes_what_ci_does() {
        let mut pf = ctx_with(MonitorMode::Pf);
        let mut ci = ctx_with(MonitorMode::Ci);
        for ctx in [&mut pf, &mut ci] {
            mixed_stores(ctx);
            ctx.end_slice();
            ctx.begin_slice();
            mixed_stores(ctx); // second slice: everything is a same-value store
            ctx.write::<u16>(4095, 0x0102);
            ctx.end_slice();
        }
        let page = pf.shared.run.cfg.page_size;
        assert_eq!(pf.h.stats.stores_with_copy, 6, "pages 0, 1, 3, twice");
        assert_eq!(pf.h.stats.snapshot_bytes_copied, 6 * page);
        assert_eq!(pf.h.stats.diff_bytes_scanned, 6 * page);
        assert_eq!(ci.h.stats.stores_with_copy, 6);
        assert!(ci.h.stats.snapshot_bytes_copied < page);
        assert_eq!(
            ci.h.stats.diff_bytes_scanned,
            ci.h.stats.snapshot_bytes_copied
        );
        let mods = |ctx: &RfdetCtx| -> Vec<Vec<ModRun>> {
            let list = ctx.shared.meta.snapshot_list(0);
            list.iter().map(|s| boxed(&s.mods)).collect()
        };
        assert_eq!(mods(&pf).len(), 2);
        assert_eq!(mods(&pf), mods(&ci));
    }

    #[test]
    fn main_alone_seals_nothing_until_its_first_spawn() {
        use rfdet_api::DmtCtx;
        for monitor in [MonitorMode::Ci, MonitorMode::Pf] {
            let mut ctx = ctx_with(monitor);
            ctx.alone = true; // as `new_main` leaves it
            ctx.write::<u64>(100, 7);
            ctx.write::<u64>(5000, 8);
            let child = ctx.spawn(Box::new(|_: &mut dyn DmtCtx| {}));
            assert!(!ctx.alone, "{monitor:?}");
            let s = &ctx.h.stats;
            assert_eq!(
                (s.stores_with_copy, s.snapshot_bytes_copied, s.page_faults),
                (0, 0, 0),
                "{monitor:?}"
            );
            assert_eq!((s.diff_bytes_scanned, s.slices), (0, 1), "{monitor:?}");
            assert!(ctx.shared.meta.snapshot_list(0).is_empty(), "{monitor:?}");
            // The first store after the spawn is tracked and published.
            ctx.write::<u64>(100, 9);
            assert_eq!(ctx.h.stats.stores_with_copy, 1, "{monitor:?}");
            ctx.join(child);
            let list = ctx.shared.meta.snapshot_list(0);
            let own: Vec<_> = list.iter().filter(|s| s.tid == 0).collect();
            assert_eq!(own.len(), 1, "{monitor:?}");
            assert_eq!(own[0].seq, 1, "{monitor:?}: the spawn's slice is seq 0");
            assert_eq!(
                boxed(&own[0].mods),
                vec![ModRun::new(100, vec![9].into())],
                "{monitor:?}"
            );
        }
    }

    #[test]
    fn reads_do_not_snapshot() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        let _: u64 = ctx.read(128);
        assert_eq!(ctx.h.stats.stores_with_copy, 0);
        assert_eq!(ctx.h.stats.loads, 1);
        ctx.end_slice();
        assert!(ctx.shared.meta.snapshot_list(0).is_empty());
    }

    #[test]
    fn alloc_tracks_shared_bytes() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        let a = ctx.alloc(100, 8);
        assert!(a >= rfdet_mem::heap_base(ctx.shared.run.cfg.space_bytes));
        assert_eq!(ctx.h.stats.shared_bytes, 100);
        ctx.dealloc(a);
    }
}
