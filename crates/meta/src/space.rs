//! The [`MetaSpace`]: slice store, GC, sync vars, thread registry.

use crate::handoff::Mailbox;
use crate::slice::{SliceRec, SliceRef};
use crate::syncvar::{SyncKey, SyncTable, SyncVar};
use parking_lot::{Mutex, MutexGuard, RwLock};
use rfdet_api::AtomicStats;
use rfdet_vclock::{Tid, VClock};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Fraction of the metadata capacity at which GC triggers (the paper's
/// value, §4.5 "Garbage Collection").
pub const GC_THRESHOLD: f64 = 0.9;

/// A slice-pointer list with a monotone count of prefix-pruned entries,
/// so consumers can keep *absolute* cursors across GC.
///
/// Key structural invariant (*release-prefix closure*): for any release
/// time `U` of the owning thread, the entries with `time ≤ U` form a
/// prefix of the list — anything that happened before the release was, by
/// the completeness invariant, already merged (hence appended) before the
/// release executed, and everything appended later is causally newer.
/// Propagation exploits this with per-source cursors and early exit.
#[derive(Debug, Default)]
pub struct SliceList {
    /// Live entries, in deterministic propagation order.
    pub entries: Vec<SliceRef>,
    /// Entries removed from the front by GC since the beginning of time.
    /// `pruned + entries.len()` is the list's absolute length.
    pub pruned: u64,
}

/// Per-thread metadata visible to every other thread.
#[derive(Debug)]
pub struct ThreadMeta {
    /// Deterministic thread ID.
    pub tid: Tid,
    /// The thread's *slice pointers* list (paper §4.3): every slice that
    /// happens-before the thread's current point, in deterministic
    /// propagation order. Other threads scan this at acquires.
    pub slice_list: Mutex<SliceList>,
    /// The thread's vector clock as of its last synchronization operation.
    /// Published *after* the corresponding propagation completes, so a
    /// published time of `t` guarantees the thread's memory reflects every
    /// slice ≤ `t` (the GC safety condition).
    pub published_vc: Mutex<VClock>,
    /// Where the thread's wakers deposit its acquire edges while it is
    /// blocked; drained when it wakes.
    pub mailbox: Mutex<Mailbox>,
    /// Cleared when the thread exits (finished threads do not hold back
    /// GC).
    pub alive: AtomicBool,
}

impl ThreadMeta {
    fn new(tid: Tid) -> Self {
        Self {
            tid,
            slice_list: Mutex::new(SliceList::default()),
            published_vc: Mutex::new(VClock::new()),
            mailbox: Mutex::new(Mailbox::default()),
            alive: AtomicBool::new(true),
        }
    }

    /// Publishes this thread's vector clock — call only after the memory
    /// reflects every slice ≤ `vc`.
    pub fn set_published_vc(&self, vc: &VClock) {
        self.published_vc.lock().clone_from(vc);
    }

    /// Reads this thread's published vector clock.
    #[must_use]
    pub fn get_published_vc(&self) -> VClock {
        self.published_vc.lock().clone()
    }

    /// The Figure-5 filter over this thread's slice list; see
    /// [`MetaSpace::filter_list_from`] for the cursor/prefix contract.
    /// Exposed on `ThreadMeta` so consumers holding a cached handle skip
    /// the registry lookup on every propagation.
    #[must_use]
    pub fn filter_slices_from(
        &self,
        upper: &VClock,
        lower: &VClock,
        cursor: u64,
    ) -> (Vec<SliceRef>, u64, u64) {
        let list = self.slice_list.lock();
        let mut batch = Vec::new();
        let mut redundant = 0;
        let start = cursor.saturating_sub(list.pruned) as usize;
        let mut new_cursor = cursor.max(list.pruned);
        for s in list.entries.iter().skip(start) {
            if s.time.leq(upper) {
                if s.time.leq(lower) {
                    redundant += 1;
                } else {
                    batch.push(Arc::clone(s));
                }
                new_cursor += 1;
            } else {
                break;
            }
        }
        (batch, redundant, new_cursor)
    }

    /// Appends propagated slices to this thread's list (transitive
    /// propagation, paper Figure 5 line 8).
    pub fn append_slices(&self, slices: &[SliceRef]) {
        self.slice_list
            .lock()
            .entries
            .extend(slices.iter().cloned());
    }
}

/// Result of one garbage-collection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Slices removed from the store.
    pub reclaimed_slices: u64,
    /// Metadata bytes freed.
    pub reclaimed_bytes: u64,
}

/// The shared metadata space.
///
/// Sized like the paper's reserved shared-memory region: publication
/// charges each slice's footprint against `capacity_bytes`, and crossing
/// `gc_trigger_bytes` makes the *publishing* thread run a GC pass
/// (§4.5 "Garbage Collection").
#[derive(Debug)]
pub struct MetaSpace {
    threads: RwLock<Vec<Arc<ThreadMeta>>>,
    /// All live (not yet collected) slices, for GC scanning.
    store: Mutex<Vec<SliceRef>>,
    usage: AtomicUsize,
    live_slices: AtomicUsize,
    capacity_bytes: usize,
    gc_trigger_bytes: usize,
    max_slices: usize,
    /// Adaptive slice-count floor for the next GC trigger: raised after a
    /// pass that could not reclaim much (some thread lags behind), so an
    /// uncollectable backlog does not cause a GC scan per publish.
    gc_floor: AtomicUsize,
    /// Every sync object's queue and last release (§4.1). Only the
    /// Kendo turn holder touches it, so its one lock is never contended.
    sync: Mutex<SyncTable>,
    /// The metadata space's own counters — GC passes, reclaimed slices,
    /// peak usage — which the DLRC core adds to the run's aggregate at
    /// teardown.
    pub stats: AtomicStats,
}

impl MetaSpace {
    /// Creates a metadata space with the given capacity and GC threshold
    /// (fraction of capacity, the paper uses 0.9). GC also triggers when
    /// live slices exceed `max_slices` (see `RunConfig::meta_max_slices`).
    #[must_use]
    pub fn new(capacity_bytes: usize, gc_threshold: f64) -> Self {
        Self::with_max_slices(capacity_bytes, gc_threshold, 4096)
    }

    /// [`MetaSpace::new`] with an explicit live-slice GC trigger.
    #[must_use]
    pub fn with_max_slices(capacity_bytes: usize, gc_threshold: f64, max_slices: usize) -> Self {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let trigger = (capacity_bytes as f64 * gc_threshold) as usize;
        Self {
            threads: RwLock::new(Vec::new()),
            store: Mutex::new(Vec::new()),
            usage: AtomicUsize::new(0),
            live_slices: AtomicUsize::new(0),
            capacity_bytes,
            gc_trigger_bytes: trigger,
            max_slices,
            gc_floor: AtomicUsize::new(max_slices),
            sync: Mutex::new(SyncTable::default()),
            stats: AtomicStats::default(),
        }
    }

    /// Registers the next thread; IDs are dense and sequential, so callers
    /// must invoke this under a deterministic order (the runtime does so
    /// inside the parent's Kendo turn).
    pub fn register_thread(&self) -> Arc<ThreadMeta> {
        let mut threads = self.threads.write();
        let tid = threads.len() as Tid;
        let meta = Arc::new(ThreadMeta::new(tid));
        threads.push(Arc::clone(&meta));
        meta
    }

    /// Looks up a thread's metadata.
    ///
    /// # Panics
    /// Panics if `tid` was never registered.
    #[must_use]
    pub fn thread(&self, tid: Tid) -> Arc<ThreadMeta> {
        Arc::clone(&self.threads.read()[tid as usize])
    }

    /// Number of registered threads (alive or not).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.read().len()
    }

    /// Current metadata usage in bytes.
    #[must_use]
    pub fn usage_bytes(&self) -> usize {
        self.usage.load(Relaxed)
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Publishes a sealed slice: stores it, appends it to the owner's
    /// slice-pointer list, accounts usage, and reports whether the GC
    /// trigger was crossed.
    pub fn publish_slice(&self, rec: SliceRec) -> (SliceRef, bool) {
        let owner = self.thread(rec.tid);
        self.publish_slice_for(&owner, rec)
    }

    /// [`MetaSpace::publish_slice`] for a caller already holding the
    /// owner's handle — the hot path, which must not touch the thread
    /// registry lock.
    pub fn publish_slice_for(&self, owner: &ThreadMeta, rec: SliceRec) -> (SliceRef, bool) {
        debug_assert_eq!(owner.tid, rec.tid, "slice published to wrong owner");
        let bytes = rec.heap_bytes();
        let slice: SliceRef = Arc::new(rec);
        self.store.lock().push(Arc::clone(&slice));
        owner.slice_list.lock().entries.push(Arc::clone(&slice));
        let new_usage = self.usage.fetch_add(bytes, Relaxed) + bytes;
        let live = self.live_slices.fetch_add(1, Relaxed) + 1;
        self.stats.note_meta_bytes(new_usage as u64);
        (
            slice,
            new_usage > self.gc_trigger_bytes || live > self.gc_floor.load(Relaxed),
        )
    }

    /// Snapshot of a thread's slice-pointer list, in list order.
    #[must_use]
    pub fn snapshot_list(&self, tid: Tid) -> Vec<SliceRef> {
        self.thread(tid).slice_list.lock().entries.clone()
    }

    /// The Figure-5 filter executed under the source list's lock: returns
    /// the slices with `time ≤ upper` and `¬(time ≤ lower)`, in list
    /// order, plus the number filtered as already-seen.
    ///
    /// `cursor` is the caller's absolute position in this list: entries
    /// before it were fully processed under an earlier (≤) upper limit
    /// and are skipped outright. `upper` must be a release time of
    /// `from`, so release-prefix closure lets the scan stop at the first
    /// entry above the limit. Returns the new cursor alongside the batch.
    ///
    /// # Panics
    ///
    /// Unless `prefix_closed` is `true`: every scan is prefix-closed. The
    /// argument stays only for the benchmark's `meta.filter_cursor_ns`
    /// probe, which passes `true`.
    #[must_use]
    pub fn filter_list_from(
        &self,
        from: Tid,
        upper: &VClock,
        lower: &VClock,
        cursor: u64,
        prefix_closed: bool,
    ) -> (Vec<SliceRef>, u64, u64) {
        assert!(prefix_closed, "every slice-list scan is prefix-closed");
        self.thread(from).filter_slices_from(upper, lower, cursor)
    }

    /// Publishes `tid`'s vector clock — call only after the memory
    /// reflects every slice ≤ `vc`.
    pub fn publish_vc(&self, tid: Tid, vc: &VClock) {
        self.thread(tid).set_published_vc(vc);
    }

    /// Marks a thread dead (it stops holding back GC).
    pub fn mark_dead(&self, tid: Tid) {
        self.thread(tid).alive.store(false, Relaxed);
    }

    /// Runs one GC pass: computes the greatest lower bound of every live
    /// thread's published clock and drops all slices at or below it
    /// ("such slices have already been merged into the local memory
    /// spaces of all threads", §4.5).
    pub fn run_gc(&self) -> GcOutcome {
        let glb = {
            let threads = self.threads.read();
            let mut live = threads.iter().filter(|t| t.alive.load(Relaxed));
            let Some(first) = live.next() else {
                return GcOutcome::default();
            };
            let mut glb = first.published_vc.lock().clone();
            for t in live {
                glb.meet(&t.published_vc.lock());
            }
            glb
        };

        let mut outcome = GcOutcome::default();
        {
            let mut store = self.store.lock();
            store.retain(|s| {
                if s.time.leq(&glb) {
                    outcome.reclaimed_slices += 1;
                    outcome.reclaimed_bytes += s.heap_bytes() as u64;
                    false
                } else {
                    true
                }
            });
        }
        // Prune every thread's slice-pointer list so the Arcs actually
        // drop. Only the longest collectible *prefix* is removed: that
        // keeps consumers' absolute cursors valid (entries never move to
        // a smaller absolute index) and is almost as effective, because
        // old slices cluster at the front.
        for t in self.threads.read().iter() {
            let mut list = t.slice_list.lock();
            let cut = list.entries.iter().take_while(|s| s.time.leq(&glb)).count();
            if cut > 0 {
                list.entries.drain(..cut);
                list.pruned += cut as u64;
            }
        }
        self.usage
            .fetch_sub(outcome.reclaimed_bytes as usize, Relaxed);
        let live_after = self
            .live_slices
            .fetch_sub(outcome.reclaimed_slices as usize, Relaxed)
            - outcome.reclaimed_slices as usize;
        // Re-arm the count trigger above whatever could not be collected,
        // with a minimum slack so an uncollectable backlog never causes a
        // GC request per publish.
        let slack = (self.max_slices / 4).max(4);
        self.gc_floor
            .store(self.max_slices.max(live_after + slack), Relaxed);
        self.stats.gc_count.fetch_add(1, Relaxed);
        self.stats
            .gc_reclaimed_slices
            .fetch_add(outcome.reclaimed_slices, Relaxed);
        outcome
    }

    /// The sync table, for the Kendo turn holder — the only thread that
    /// ever touches it while the run is going. Debug builds check that
    /// claim on every call: the lock must be free. Hold the guard across
    /// no slice end, turn release, block or park.
    ///
    /// # Panics
    /// In debug builds, if another thread holds the table.
    pub fn sync_in_turn(&self) -> MutexGuard<'_, SyncTable> {
        let table = self.sync.try_lock();
        debug_assert!(table.is_some(), "the sync table is turn-owned");
        table.unwrap_or_else(|| self.sync.lock())
    }

    /// The sync table, for a reader outside any turn that has proved no
    /// turn is running: the deadlock detector's wait-for graph, which
    /// two parked threads may build at once.
    pub fn sync_table(&self) -> MutexGuard<'_, SyncTable> {
        self.sync.lock()
    }

    /// A copy of `key`'s release record (empty before any release).
    #[must_use]
    pub fn sync_var(&self, key: SyncKey) -> SyncVar {
        self.sync.lock().var(key).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_mem::ModRun;

    fn meta() -> MetaSpace {
        MetaSpace::new(10_000, 0.5)
    }

    fn slice(tid: Tid, seq: u64, time: &[u64], nbytes: usize) -> SliceRec {
        SliceRec::new(
            tid,
            seq,
            VClock::from_components(time.to_vec()),
            vec![ModRun::new(0, vec![1; nbytes].into())],
        )
    }

    #[test]
    fn register_assigns_dense_tids() {
        let m = meta();
        assert_eq!(m.register_thread().tid, 0);
        assert_eq!(m.register_thread().tid, 1);
        assert_eq!(m.num_threads(), 2);
        assert_eq!(m.thread(1).tid, 1);
    }

    #[test]
    fn publish_accounts_usage_and_triggers_gc_flag() {
        let m = meta();
        m.register_thread();
        let (_, gc1) = m.publish_slice(slice(0, 0, &[1], 100));
        assert!(!gc1);
        assert!(m.usage_bytes() > 100);
        let (_, gc2) = m.publish_slice(slice(0, 1, &[2], 6000));
        assert!(gc2, "crossing 50% of 10k must request GC");
    }

    #[test]
    fn publish_appends_to_owner_list() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.publish_slice(slice(1, 0, &[0, 1], 4));
        assert_eq!(m.snapshot_list(1).len(), 1);
        assert!(m.snapshot_list(0).is_empty());
    }

    #[test]
    fn gc_reclaims_only_globally_seen_slices() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        let (s_old, _) = m.publish_slice(slice(0, 0, &[1], 10));
        let (_s_new, _) = m.publish_slice(slice(0, 1, &[5], 10));
        // Thread 0 has seen everything; thread 1 only up to [2].
        m.publish_vc(0, &VClock::from_components(vec![9, 9]));
        m.publish_vc(1, &VClock::from_components(vec![2, 3]));
        let before = m.usage_bytes();
        let out = m.run_gc();
        assert_eq!(out.reclaimed_slices, 1, "only the [1] slice is ≤ glb=[2,3]");
        assert!(m.usage_bytes() < before);
        // The old slice is gone from the owner's list too.
        assert!(!m.snapshot_list(0).iter().any(|s| Arc::ptr_eq(s, &s_old)));
        assert_eq!(m.snapshot_list(0).len(), 1);
    }

    #[test]
    fn dead_threads_do_not_hold_back_gc() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.publish_slice(slice(0, 0, &[1], 10));
        m.publish_vc(0, &VClock::from_components(vec![9, 9]));
        m.publish_vc(1, &VClock::new()); // never saw anything
        assert_eq!(m.run_gc().reclaimed_slices, 0);
        m.mark_dead(1);
        assert_eq!(m.run_gc().reclaimed_slices, 1);
    }

    #[test]
    fn gc_with_no_threads_is_noop() {
        let m = meta();
        assert_eq!(m.run_gc(), GcOutcome::default());
    }

    #[test]
    fn sync_var_reads_the_table_by_key() {
        let m = meta();
        m.sync_in_turn()
            .var_mut(SyncKey::Mutex(3))
            .record_release(2, VClock::from_components(vec![0, 0, 7]));
        assert_eq!(
            m.sync_var(SyncKey::Mutex(3)).edge(0),
            Some((2, VClock::from_components(vec![0, 0, 7])))
        );
        assert_eq!(m.sync_var(SyncKey::Mutex(4)).last_tid, None);
        assert_eq!(m.sync_var(SyncKey::Cond(3)).last_tid, None, "another class");
        assert!(
            !m.sync_table().mutexes.contains_key(&4),
            "a read creates no record"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the sync table is turn-owned")]
    fn a_second_in_turn_holder_is_caught() {
        let m = meta();
        let _reader = m.sync_table();
        let _ = m.sync_in_turn();
    }

    #[test]
    fn publish_slice_for_matches_publish_slice() {
        let m = meta();
        let owner = m.register_thread();
        let (s, _) = m.publish_slice_for(&owner, slice(0, 0, &[1], 4));
        assert_eq!(m.snapshot_list(0).len(), 1);
        assert!(Arc::ptr_eq(&m.snapshot_list(0)[0], &s));
    }

    #[test]
    fn published_vc_roundtrip() {
        let m = meta();
        let t = m.register_thread();
        let vc = VClock::from_components(vec![4, 2]);
        m.publish_vc(0, &vc);
        assert_eq!(t.get_published_vc(), vc);
    }
}
