//! Memory modification propagation (paper §4.3, Figure 5).

use crate::ctx::{peer_of, RfdetCtx};
use rfdet_api::obs::Phase;
use rfdet_api::Tid;
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

    /// Applies one slice's modifications to local memory, one page
    /// lookup per page group, zero-copy over the slice's shared arena
    /// ([`rfdet_mem::PrivateSpace::apply`]). Prelock pre-merges apply
    /// through here too: the same work, done while blocked.
    pub(crate) fn apply_slice(&mut self, s: &SliceRef) {
        // Race detection: main (the only thread with a detector) checks
        // every incoming slice's accesses against its epoch table before
        // merging the bytes. Application order at a thread respects
        // happens-before, which is exactly the discipline the collector
        // needs for its one-directional check.
        if let Some(det) = self.detect.as_mut() {
            det.observe_slice(s);
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
            self.apply_slice(s);
        }
        self.meta_thread.append_slices(&mut batch);
        self.batch = batch;
        self.vc.join(&bound);
        // Everything ≤ bound is now reflected locally.
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
    use rfdet_vclock::VClock;
    use std::sync::Arc;

    /// Builds two sibling contexts sharing one runtime, bypassing spawn
    /// (unit-level plumbing only; real spawning is tested in sync.rs).
    fn two_ctxs() -> (RfdetCtx, RfdetCtx) {
        let mut cfg = RunConfig::small();
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
        let (mut a, mut b) = two_ctxs();
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
        let (mut a, mut b) = two_ctxs();
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
        let (mut a, mut b) = two_ctxs();
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
        let (mut a, mut b) = two_ctxs();
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

    /// A store into a page that propagation just wrote, in the next
    /// slice: the line snapshot holds the propagated bytes, so the seal
    /// publishes only the storing thread's own modifications.
    #[test]
    fn store_after_propagation_snapshots_post_apply_bytes() {
        use rfdet_mem::ModRun;
        let (mut a, mut b) = two_ctxs();
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
        assert_eq!(b.h.stats.page_faults, 0);
        // b's list also carries a's slice (transitive propagation).
        let list = b.shared.meta.snapshot_list(1);
        let own: Vec<_> = list.iter().filter(|s| s.tid == 1).collect();
        assert_eq!(own.len(), 1);
        assert_eq!(
            crate::slices::tests::boxed(&own[0].mods),
            vec![
                ModRun::new(70, vec![0x33].into()),
                ModRun::new(128, vec![0x44; 8].into())
            ],
            "only b's own bytes: a's run was applied before the snapshot"
        );
        let mut page = vec![0u8; 4096];
        b.space.read(0, &mut page);
        assert_eq!(
            &page[64..72],
            &[0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x33, 0x11]
        );
        assert_eq!(&page[256..264], &[0x22; 8]);
    }

    #[test]
    fn conflicting_concurrent_writes_remote_wins_in_order() {
        // Two propagation sources applied in deposit order: the later one
        // overwrites — the deterministic "remote overwrites local" policy.
        let (mut a, mut b) = two_ctxs();
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
