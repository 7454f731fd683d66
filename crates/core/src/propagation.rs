//! Memory modification propagation (paper §4.3, Figure 5).

use crate::ctx::{peer_of, RfdetCtx};
use rfdet_api::obs::Phase;
use rfdet_api::Tid;
use rfdet_mem::{page_groups, RunRange, Runs};
use rfdet_meta::{Mailbox, SliceRef};
use rfdet_vclock::VClock;

impl RfdetCtx {
    /// The acquire (§4.1): joins `from`'s release time `time` into the
    /// vector clock and propagates every slice of `from`'s list between
    /// the old clock and `time`. A thread's view changes here and only
    /// here, by the releaser's view. The lower limit is a copy of the
    /// old clock in the scratch buffer (`clone_from` reuses its
    /// allocation).
    pub(crate) fn acquire(&mut self, from: Tid, time: &VClock) {
        let mut lower = std::mem::take(&mut self.scratch_lower);
        lower.clone_from(&self.vc);
        self.vc.join(time);
        self.propagate_from(from, time, &lower);
        self.scratch_lower = lower;
    }

    /// `DoMemoryModificationPropagation` (Figure 5): pull from `from`'s
    /// slice-pointer list every slice `S` with
    /// `S.time ≤ upper` (*upperlimit*: S happens-before the release we
    /// synchronized with) and `¬(S.time ≤ lower)` (*lowerlimit*: not
    /// already seen), apply its modifications in list order, and append it
    /// to our own list (transitive propagation).
    pub(crate) fn propagate_from(&mut self, from: Tid, upper: &VClock, lower: &VClock) {
        let t0 = self.obs_boundary_start();
        let cursor = self.cursor(from);
        // `upper` is a release time of `from`, so the list is
        // prefix-closed under it: start at the cursor, stop at the first
        // entry above the limit.
        let mut batch = std::mem::take(&mut self.batch);
        let (redundant, new_cursor) = self
            .peer(from)
            .filter_slices_from(upper, lower, cursor, &mut batch);
        self.set_cursor(from, new_cursor);
        self.h.stats.slices_filtered_redundant += redundant;
        for s in &batch {
            self.h.stats.slices_propagated += 1;
            self.apply_slice(s);
        }
        self.meta_thread.append_slices(&mut batch);
        self.batch = batch;
        self.obs_since_boundary(Phase::Propagation, t0);
    }

    /// Applies one slice's modifications to local memory — directly, or
    /// deferred into per-page pending queues when lazy writes are on.
    ///
    /// Both paths are zero-copy over the slice's shared arena and walk it
    /// in [`page_groups`]: the lazy path pushes one
    /// [`rfdet_mem::RunRange`] per group (a single `Arc` bump, no byte
    /// copies), and the eager path's batched apply resolves each target
    /// page once per group instead of once per run.
    pub(crate) fn apply_slice(&mut self, s: &SliceRef) {
        // Race detection: main (the only thread with a detector) checks
        // every incoming slice's accesses against its epoch table before
        // merging the bytes. Application order at a thread respects
        // happens-before, which is exactly the discipline the collector
        // needs for its one-directional check.
        if let Some(det) = self.detect.as_mut() {
            det.observe_slice(s);
        }
        if self.shared.run.cfg.rfdet.lazy_writes {
            for group in page_groups(&s.mods, self.space.page_size()) {
                let page = self.space.page_of(s.mods.run(group.start).0);
                let group = RunRange::new(&s.mods, group.start, group.end);
                self.h.stats.lazy_deferred_bytes += group.byte_len() as u64;
                // The first deposit on a page protects it; repeats add
                // nothing (a page is `NO_ACCESS` iff it has a pending
                // queue), so run lists that interleave pages, and repeat
                // deposits onto a still-pending page, count no extra
                // protect calls.
                if self.pending.push(page, group) {
                    self.h.stats.lazy_protect_calls += 1;
                }
            }
        } else {
            self.h.stats.mod_bytes_applied += self.space.apply(&s.mods);
        }
    }

    /// [`Self::apply_slice`] for merges performed while the thread is
    /// blocked (prelock, §4.5). Deferral exists to move apply work off
    /// the critical path — but a premerge already *is* off the critical
    /// path, so depositing here would only convert free idle-time work
    /// into a fault the thread pays inside its next turn. Apply eagerly
    /// instead, draining any previously deposited queues on the touched
    /// pages first so per-page application order stays propagation
    /// order.
    pub(crate) fn apply_slice_idle(&mut self, s: &SliceRef) {
        // Premerge applies slices main would otherwise apply at the
        // acquire — same happens-before-consistent order, same check.
        if let Some(det) = self.detect.as_mut() {
            det.observe_slice(s);
        }
        if self.shared.run.cfg.rfdet.lazy_writes && !self.pending.is_empty() {
            for group in page_groups(&s.mods, self.space.page_size()) {
                self.drain_pending(self.space.page_of(s.mods.run(group.start).0));
            }
        }
        self.h.stats.mod_bytes_applied += self.space.apply(&s.mods);
    }

    /// Prelock pre-merge (§4.5): while blocked behind `source` (the lock
    /// predecessor, or the join target), merge every slice that must
    /// happen-before our eventual acquire — everything at or below the
    /// source's *published* clock, which always precedes the release we
    /// will synchronize with. Runs fully off the critical path, and also
    /// advances our own published clock so a long park does not pin the
    /// garbage collector (the §5.4 pathology).
    ///
    /// Only the bound is read under our mailbox lock: a waker deposits
    /// its handoff into that mailbox *before* waking us, so a bound read
    /// while the box is verifiably empty was taken before the source
    /// completed its release — a sound pre-release bound, and published
    /// clocks are monotone, so it stays sound after the lock drops. The
    /// merge work itself (filter, apply, append, publish) touches only
    /// our own state and the source list's own lock, so holding the
    /// mailbox lock across it would do nothing but stall the waker's
    /// deposit — which is exactly the critical path prelock exists to
    /// shorten.
    pub(crate) fn premerge_round(&mut self, source: Tid) {
        let mut bound = {
            let guard = self.meta_thread.mailbox.lock();
            if !guard.is_empty() {
                // A handoff is already in flight; the wake path takes over.
                return;
            }
            peer_of(&mut self.peers, &self.shared.meta, source).get_published_vc()
        };
        // Off-by-one guard: the source's *open* (unpublished) slice is
        // timestamped with exactly this published value (timestamps are
        // pre-tick clocks), so claiming `≤ bound` as seen would lose its
        // writes. Stepping the source's own component back one excludes
        // precisely that open slice: every published slice of the source
        // is strictly older in the source component, and no foreign slice
        // can reach it.
        let sc = bound.get(source);
        if sc == 0 {
            return;
        }
        bound.set(source, sc - 1);
        let mut lower = std::mem::take(&mut self.scratch_lower);
        lower.clone_from(&self.vc);
        if bound.leq(&lower) {
            self.scratch_lower = lower;
            return;
        }
        let cursor = self.cursor(source);
        let mut batch = std::mem::take(&mut self.batch);
        let (_, new_cursor) = self
            .peer(source)
            .filter_slices_from(&bound, &lower, cursor, &mut batch);
        self.set_cursor(source, new_cursor);
        for s in &batch {
            self.h.stats.prelock_premerged += 1;
            self.apply_slice_idle(s);
        }
        self.meta_thread.append_slices(&mut batch);
        self.batch = batch;
        self.vc.join(&bound);
        // Everything ≤ bound is now reflected (or queued) locally.
        self.meta_thread.set_published_vc(&self.vc);
        self.scratch_lower = lower;
    }

    /// Consumes a wakeup mailbox: one acquire per deposited edge, in
    /// deposit order. Pre-merged slices are excluded automatically: the
    /// pre-merge joined their times into `vc`, so the lowerlimit filters
    /// them.
    pub(crate) fn apply_mailbox(&mut self, mail: &Mailbox) {
        for src in &mail.sources {
            self.acquire(src.from, &src.time);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::shared::RuntimeShared;
    use crate::RfdetCtx;
    use rfdet_api::{DmtCtxExt, RunConfig};
    use rfdet_mem::Runs;
    use rfdet_vclock::VClock;
    use std::sync::Arc;

    /// Builds two sibling contexts sharing one runtime, bypassing spawn
    /// (unit-level plumbing only; real spawning is tested in sync.rs).
    fn two_ctxs(lazy: bool) -> (RfdetCtx, RfdetCtx) {
        let mut cfg = RunConfig::small();
        cfg.rfdet.lazy_writes = lazy;
        cfg.rfdet.fault_cost_spins = 0;
        let shared = Arc::new(RuntimeShared::new(&cfg).expect("valid config"));
        let mut a = RfdetCtx::new_main(Arc::clone(&shared));
        a.alone = false; // `b` is registered by hand below, not spawned
        let meta = shared.meta.register_thread();
        let kendo = shared.kendo.register(1);
        let mut vc = VClock::new();
        vc.tick(1);
        let b = RfdetCtx::from_parts(shared, kendo, meta, None, vc);
        (a, b)
    }

    #[test]
    fn propagation_transfers_happens_before_slices() {
        let (mut a, mut b) = two_ctxs(false);
        a.write::<u64>(64, 99);
        let release_time = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        assert_eq!(b.read::<u64>(64), 0, "not visible before propagation");
        b.acquire(0, &release_time);
        assert_eq!(b.read::<u64>(64), 99);
        assert_eq!(b.h.stats.slices_propagated, 1);
    }

    #[test]
    fn upperlimit_excludes_later_slices() {
        let (mut a, mut b) = two_ctxs(false);
        a.write::<u64>(64, 1);
        let release_time = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);
        a.begin_slice();
        a.write::<u64>(64, 2); // x=2 after the release: must stay hidden
        a.end_slice();

        b.acquire(0, &release_time);
        assert_eq!(b.read::<u64>(64), 1, "Figure 6: x=2 is not yet visible");
    }

    #[test]
    fn lowerlimit_filters_already_seen() {
        let (mut a, mut b) = two_ctxs(false);
        a.write::<u64>(64, 1);
        let t1 = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.acquire(0, &t1);
        assert_eq!(b.h.stats.slices_propagated, 1);

        // Second propagation from the same release: nothing new — the
        // cursor skips the already-consumed prefix outright (and the
        // lowerlimit would filter anything it still scanned).
        let applied_before = b.h.stats.mod_bytes_applied;
        b.acquire(0, &t1);
        assert_eq!(b.h.stats.slices_propagated, 1);
        assert_eq!(
            b.h.stats.mod_bytes_applied, applied_before,
            "no re-application"
        );
    }

    #[test]
    fn transitive_propagation_through_middle_thread() {
        // T0 -> T1 -> (T1's list now carries T0's slice) — a third context
        // pulling from T1 sees T0's write without ever talking to T0.
        let (mut a, mut b) = two_ctxs(false);
        a.write::<u64>(64, 42);
        let t_rel = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.acquire(0, &t_rel);
        b.end_slice(); // publish b's (empty) slice; list already has T0's
        let b_rel = b.vc.clone();
        b.vc.tick(1);

        // Third thread:
        let shared = Arc::clone(&b.shared);
        let meta = shared.meta.register_thread();
        let kendo = shared.kendo.register(9);
        let mut vc = VClock::new();
        vc.tick(2);
        let mut c = RfdetCtx::from_parts(shared, kendo, meta, None, vc);
        c.acquire(1, &b_rel);
        assert_eq!(c.read::<u64>(64), 42, "transitivity via slice pointers");
    }

    #[test]
    fn lazy_writes_defer_until_access() {
        let (mut a, mut b) = two_ctxs(true);
        a.write::<u64>(64, 7);
        let t = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.acquire(0, &t);
        assert!(b.h.stats.lazy_deferred_bytes >= 1);
        assert_eq!(b.h.stats.mod_bytes_applied, 0, "nothing applied yet");
        assert_eq!(b.read::<u64>(64), 7, "fault applies on first access");
        assert!(b.h.stats.mod_bytes_applied >= 1);
        assert_eq!(b.h.stats.page_faults, 1);
    }

    /// A store to a page with pending lazy writes, in the slice that
    /// faults it: the line snapshot must be taken *after* the pending
    /// runs are applied, or the remote bytes would seal as local
    /// modifications. Returns the storing thread's published runs and the
    /// page it ends with.
    fn store_onto_pending_page(lazy: bool) -> (Vec<rfdet_mem::ModRun>, Vec<u8>) {
        let (mut a, mut b) = two_ctxs(lazy);
        a.write::<u64>(64, 0x1111_1111_1111_1111); // line 1
        a.write::<u64>(256, 0x2222_2222_2222_2222); // line 4
        let t = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.acquire(0, &t);
        b.begin_slice();
        b.write::<u8>(70, 0x33); // into line 1, inside a's run
        b.write::<u64>(128, 0x4444_4444_4444_4444); // line 2, untouched by a
        b.end_slice();
        assert_eq!(b.h.stats.page_faults, u64::from(lazy));
        // b's list also carries a's slice (transitive propagation).
        let list = b.shared.meta.snapshot_list(1);
        let own: Vec<_> = list.iter().filter(|s| s.tid == 1).collect();
        assert_eq!(own.len(), 1);
        let mut page = vec![0u8; 4096];
        b.space.read(0, &mut page);
        (crate::slices::tests::boxed(&own[0].mods), page)
    }

    #[test]
    fn store_after_lazy_fault_snapshots_post_apply_bytes() {
        use rfdet_mem::ModRun;
        let (lazy_mods, lazy_page) = store_onto_pending_page(true);
        assert_eq!(
            lazy_mods,
            vec![
                ModRun::new(70, vec![0x33].into()),
                ModRun::new(128, vec![0x44; 8].into())
            ],
            "only b's own bytes: a's run was applied before the snapshot"
        );
        let (eager_mods, eager_page) = store_onto_pending_page(false);
        assert_eq!(lazy_mods, eager_mods);
        assert_eq!(lazy_page, eager_page);
        assert_eq!(
            &lazy_page[64..72],
            &[0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x33, 0x11]
        );
        assert_eq!(&lazy_page[256..264], &[0x22; 8]);
    }

    #[test]
    fn lazy_writes_share_runs_without_deep_copies() {
        let (mut a, mut b) = two_ctxs(true);
        // Two pages, several runs each.
        a.write::<u64>(0, 1);
        a.write::<u64>(64, 2);
        a.write::<u64>(4096, 3);
        let t = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.acquire(0, &t);
        let published = b.shared.meta.snapshot_list(0);
        assert_eq!(published.len(), 1);
        // Every pending entry aliases the published slice's arena — the
        // lazy path defers by Arc bump, not by copying run bytes — and one
        // slice contributes exactly one group per touched page.
        let queued_runs: usize = b
            .pending
            .values()
            .flat_map(|groups| groups.iter().map(Runs::count))
            .sum();
        assert_eq!(queued_runs, published[0].mods.count());
        for groups in b.pending.values() {
            assert_eq!(groups.len(), 1, "one RunRange per (slice, page) group");
            for (_, data) in groups.iter().flat_map(Runs::iter_runs) {
                let mut arena = published[0].mods.iter_runs();
                assert!(arena.any(|(_, d)| std::ptr::eq(d, data)));
            }
        }
        assert_eq!(b.h.stats.lazy_protect_calls, b.pending.len() as u64);
    }

    #[test]
    fn interleaved_page_runs_protect_each_page_exactly_once() {
        use rfdet_mem::ModRun;
        use rfdet_meta::{SliceRec, SliceRef};
        let (a, mut b) = two_ctxs(true);
        drop(a);
        // A hand-built run list alternating between two pages — the shape
        // the old `last_protected` single-cell dedupe re-protected on
        // every alternation.
        let mods = vec![
            ModRun::new(0, vec![1].into()),
            ModRun::new(4096, vec![2].into()),
            ModRun::new(8, vec![3].into()),
            ModRun::new(4104, vec![4].into()),
            ModRun::new(16, vec![5].into()),
        ];
        let mut t = VClock::new();
        t.tick(0);
        let s: SliceRef = std::sync::Arc::new(SliceRec::new(0, 0, t, mods));
        b.apply_slice(&s);
        assert_eq!(
            b.h.stats.lazy_protect_calls, 2,
            "two distinct pages, two protection transitions"
        );
        // Alternation costs a group per switch, but a re-deposit on the
        // still-pending pages adds no further protection calls.
        b.apply_slice(&s);
        assert_eq!(b.h.stats.lazy_protect_calls, 2);
        assert_eq!(b.read::<u64>(0) & 0xFF, 1, "fault still applies runs");
        assert_eq!(b.h.stats.page_faults, 1);
    }

    #[test]
    fn lazy_writes_elide_superseded_values() {
        let (mut a, mut b) = two_ctxs(true);
        // Enough updates to the same location, one slice each, to push
        // the pending queue past the overlay threshold (shallower queues
        // apply sequentially and skip elision accounting by design).
        let updates = 6u64;
        for v in 1..=updates {
            a.write::<u64>(64, v);
            let t = a.vc.clone();
            a.end_slice();
            a.vc.tick(0);
            a.begin_slice();
            b.acquire(0, &t);
        }
        assert_eq!(b.read::<u64>(64), updates, "newest value wins");
        // Byte-granularity diffing means each update is one changed byte;
        // earlier ones are superseded before the fault applies them.
        assert!(
            b.h.stats.lazy_elided_bytes >= 1,
            "superseded update bytes were never written (elided {})",
            b.h.stats.lazy_elided_bytes
        );
    }

    #[test]
    fn conflicting_concurrent_writes_remote_wins_in_order() {
        // Two propagation sources applied in deposit order: the later one
        // overwrites — the deterministic "remote overwrites local" policy.
        let (mut a, mut b) = two_ctxs(false);
        a.write::<u64>(64, 5);
        let t = a.vc.clone();
        a.end_slice();
        a.vc.tick(0);

        b.write::<u64>(64, 6); // b's own concurrent write
        b.end_slice();
        b.vc.tick(1);
        b.begin_slice();
        b.acquire(0, &t);
        assert_eq!(b.read::<u64>(64), 5, "remote write overwrites local");
    }
}
