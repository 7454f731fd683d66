//! Internal synchronization variables (paper §4.1).
//!
//! "Our approach is to map each synchronization variable to an *internal
//! synchronization variable* that is allocated in the metadata space. …
//! we add two fields to each internal synchronization variable: `lastTid`
//! and `lastTime`" — the ID of the last releasing thread and the vector
//! time of that release.
//!
//! Kendo's total order means only the turn holder ever reads or writes a
//! sync variable or its object's wait queue, so all of it lives in one
//! [`SyncTable`]: one record per object, carrying its queueing state
//! beside its release, behind one lock that is never contended.
//!
//! Both deterministic families keep their sync objects here — the DLRC
//! core inside the Kendo turn, the lockstep engine inside its serial
//! phase — and both run the one set of misuse checks written on the
//! records: each returns the misuse's message, which the core raises on
//! the misusing thread and the engine records for it in token order.

use rfdet_api::{harness, WaitEdge};
use rfdet_trace::SyncKey;
use rfdet_vclock::{Tid, VClock};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The table's hasher. Its keys are small integers (object ids, tids,
/// cell addresses) that no adversary picks, so lookups inside the turn
/// need not pay for SipHash: one multiply mixes a key, and the rotation
/// brings the well-mixed high bits down to the bucket index, so 8-aligned
/// addresses spread too. Deterministic, which is harmless: every
/// iteration over the table sorts what it collects.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by a small integer, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The release bookkeeping of one internal synchronization variable.
#[derive(Clone, Debug, Default)]
pub struct SyncVar {
    /// Last thread to release the variable (`None` before any release).
    pub last_tid: Option<Tid>,
    /// Vector time of that release.
    pub last_time: VClock,
}

impl SyncVar {
    /// Records a release by `tid` at `time` — done "before we release the
    /// synchronization variable" (§4.1).
    pub fn record_release(&mut self, tid: Tid, time: VClock) {
        self.last_tid = Some(tid);
        self.last_time = time;
    }

    /// Records a release as `previous release ⊔ time` — for the lockstep
    /// engine's atomics, whose time is sealed before their own acquire.
    pub fn join_release(&mut self, tid: Tid, time: &VClock) {
        self.last_tid = Some(tid);
        self.last_time.join(time);
    }

    /// The acquire edge `acquirer` takes from this variable: the last
    /// release's `(lastTid, lastTime)` when a *different* thread made it,
    /// so the acquirer must propagate from that thread up to that time.
    /// `None` before any release, and for a same-thread re-acquire, which
    /// has nothing to propagate: its own writes are already in place.
    #[must_use]
    pub fn edge(&self, acquirer: Tid) -> Option<(Tid, VClock)> {
        let from = self.last_tid.filter(|&t| t != acquirer)?;
        Some((from, self.last_time.clone()))
    }
}

/// An application mutex: its owner, its reservation queue (§4.5
/// *Prelock*: the deterministic acquisition order, fixed at enqueue time
/// inside the Kendo turn) and its last release.
#[derive(Debug, Default)]
pub struct MutexRec {
    /// Current owner.
    pub owner: Option<Tid>,
    /// Threads queued for the mutex, in acquisition order.
    pub queue: VecDeque<Tid>,
    /// The last unlock (or `cond_wait` release).
    pub release: SyncVar,
}

impl MutexRec {
    /// Takes mutex `m` for `tid` if it is free (no owner, nobody queued).
    ///
    /// # Errors
    /// The misuse when `tid` already holds `m`.
    pub fn try_lock(&mut self, m: u32, tid: Tid) -> Result<bool, String> {
        if self.owner == Some(tid) {
            return Err(harness::recursive_lock(m, tid));
        }
        let free = self.owner.is_none() && self.queue.is_empty();
        if free {
            self.owner = Some(tid);
        }
        Ok(free)
    }
}

/// An application condition variable.
#[derive(Debug, Default)]
pub struct CondRec {
    /// `(waiter, mutex to re-acquire)`, in arrival order.
    pub waiters: VecDeque<(Tid, u32)>,
    /// The last signal or broadcast.
    pub release: SyncVar,
}

impl CondRec {
    /// A signal or broadcast by `tid` at `time`: records the release and
    /// pops the woken `(waiter, mutex)` pairs, longest-waiting first.
    pub fn signal(&mut self, tid: Tid, time: VClock, broadcast: bool) -> Vec<(Tid, u32)> {
        self.release.record_release(tid, time);
        let n = if broadcast {
            self.waiters.len()
        } else {
            usize::from(!self.waiters.is_empty())
        };
        self.waiters.drain(..n).collect()
    }
}

/// An application barrier.
#[derive(Debug, Default)]
pub struct BarrierRec {
    /// `(tid, release time)` of each arrival this episode.
    pub arrivals: Vec<(Tid, VClock)>,
    /// The last arrival.
    pub release: SyncVar,
}

impl BarrierRec {
    /// `tid` arrives at barrier `b` of `parties` at `time`; returns the
    /// episode's arrivals, in arrival order, when it completes it.
    ///
    /// # Errors
    /// The misuse of zero parties, or of more arrivals than parties.
    pub fn arrive(
        &mut self,
        b: u32,
        tid: Tid,
        time: VClock,
        parties: usize,
    ) -> Result<Option<Vec<(Tid, VClock)>>, String> {
        if parties == 0 {
            return Err(harness::zero_parties(b));
        }
        self.release.record_release(tid, time.clone());
        self.arrivals.push((tid, time));
        let n = self.arrivals.len();
        if n > parties {
            return Err(format!(
                "barrier {b} overfull: {n} arrivals for {parties} parties"
            ));
        }
        Ok((n == parties).then(|| std::mem::take(&mut self.arrivals)))
    }
}

/// A thread's lifetime: released at exit, acquired at join.
#[derive(Debug, Default)]
pub struct ThreadRec {
    /// The thread has executed its exit operation.
    pub finished: bool,
    /// A join of it has been ordered; a second one is a misuse.
    pub joined: bool,
    /// Joiners parked until it does.
    pub joiners: Vec<Tid>,
    /// The exit.
    pub release: SyncVar,
}

/// Every sync object's record, by class. An atomic cell has no queue, so
/// its record is its release alone.
#[derive(Debug, Default)]
pub struct SyncTable {
    /// Mutexes by id.
    pub mutexes: IntMap<u32, MutexRec>,
    /// Condition variables by id.
    pub conds: IntMap<u32, CondRec>,
    /// Barriers by id.
    pub barriers: IntMap<u32, BarrierRec>,
    /// Thread lifetimes by tid.
    pub threads: IntMap<Tid, ThreadRec>,
    /// Atomic cells by address.
    pub atomics: IntMap<u64, SyncVar>,
}

impl SyncTable {
    /// The release record of `key`, if its object has a record.
    #[must_use]
    pub fn var(&self, key: SyncKey) -> Option<&SyncVar> {
        match key {
            SyncKey::Mutex(id) => self.mutexes.get(&id).map(|r| &r.release),
            SyncKey::Cond(id) => self.conds.get(&id).map(|r| &r.release),
            SyncKey::Barrier(id) => self.barriers.get(&id).map(|r| &r.release),
            SyncKey::Thread(tid) => self.threads.get(&tid).map(|r| &r.release),
            SyncKey::Atomic(addr) => self.atomics.get(&addr),
        }
    }

    /// The release record of `key`, creating its object's record on
    /// first touch.
    pub fn var_mut(&mut self, key: SyncKey) -> &mut SyncVar {
        match key {
            SyncKey::Mutex(id) => &mut self.mutexes.entry(id).or_default().release,
            SyncKey::Cond(id) => &mut self.conds.entry(id).or_default().release,
            SyncKey::Barrier(id) => &mut self.barriers.entry(id).or_default().release,
            SyncKey::Thread(tid) => &mut self.threads.entry(tid).or_default().release,
            SyncKey::Atomic(addr) => self.atomics.entry(addr).or_default(),
        }
    }

    /// Releases mutex `m` held by `tid` at `time` — an `unlock`, or a
    /// `cond_wait` on `cond`, which also queues `tid` on it — and passes
    /// `m` to the first queued thread, which it returns with a copy of
    /// `time` for its hand-off edge. Only a hand-off copies the clock.
    ///
    /// # Errors
    /// The misuse when `tid` does not hold `m`.
    pub fn release_mutex(
        &mut self,
        tid: Tid,
        m: u32,
        cond: Option<u32>,
        time: VClock,
    ) -> Result<Option<(Tid, VClock)>, String> {
        let mx = self.mutexes.entry(m).or_default();
        if mx.owner != Some(tid) {
            return Err(harness::not_held(tid, m, cond));
        }
        mx.release.record_release(tid, time);
        mx.owner = mx.queue.pop_front();
        let next = mx.owner.map(|w| (w, mx.release.last_time.clone()));
        if let Some(c) = cond {
            self.conds.entry(c).or_default().waiters.push_back((tid, m));
        }
        Ok(next)
    }

    /// `tid` joins `target`, where `spawned` tids (`0..spawned`) are
    /// registered: the exit release of a finished target, else `None`
    /// with `tid` queued among its joiners.
    ///
    /// # Errors
    /// The misuse of a thread joining itself, a thread that was never
    /// spawned, or a thread that was already joined.
    pub fn join(
        &mut self,
        tid: Tid,
        target: Tid,
        spawned: usize,
    ) -> Result<Option<&SyncVar>, String> {
        if target == tid {
            return Err(harness::join_self(tid));
        }
        if target as usize >= spawned {
            return Err(harness::join_never_spawned(tid, target));
        }
        let th = self.threads.entry(target).or_default();
        if std::mem::replace(&mut th.joined, true) {
            return Err(harness::join_twice(tid, target));
        }
        if th.finished {
            Ok(Some(&th.release))
        } else {
            th.joiners.push(tid);
            Ok(None)
        }
    }

    /// `tid`'s exit at `time`; returns the joiners it releases.
    pub fn exit(&mut self, tid: Tid, time: VClock) -> Vec<Tid> {
        let th = self.threads.entry(tid).or_default();
        th.release.record_release(tid, time);
        th.finished = true;
        std::mem::take(&mut th.joiners)
    }

    /// The wait-for graph of a stalled run: an edge per queued or
    /// `retrying` locker (the lockstep engine retries a busy lock instead
    /// of queueing it), parked condvar waiter, early barrier arrival and
    /// joiner.
    #[must_use]
    pub fn wait_graph(&self, retrying: impl IntoIterator<Item = (Tid, u32)>) -> Vec<WaitEdge> {
        let owner = |m: u32| self.mutexes.get(&m).and_then(|mx| mx.owner);
        let queued = self
            .mutexes
            .iter()
            .flat_map(|(&id, mx)| mx.queue.iter().map(move |&w| (w, id, mx.owner)));
        WaitEdge::graph(
            queued.chain(retrying.into_iter().map(|(w, m)| (w, m, owner(m)))),
            self.conds
                .iter()
                .flat_map(|(&id, c)| c.waiters.iter().map(move |&(w, _)| (w, id))),
            self.barriers
                .iter()
                .flat_map(|(&id, b)| b.arrivals.iter().map(move |&(w, _)| (w, id))),
            self.threads
                .iter()
                .flat_map(|(&tid, th)| th.joiners.iter().map(move |&w| (w, tid))),
        )
    }

    /// Every recorded release as `(key, lastTid, lastTime)`, sorted by
    /// key — the projection checkpoints capture.
    #[must_use]
    pub fn releases(&self) -> Vec<(SyncKey, Tid, VClock)> {
        let mutexes = self.mutexes.keys().copied().map(SyncKey::Mutex);
        let conds = self.conds.keys().copied().map(SyncKey::Cond);
        let barriers = self.barriers.keys().copied().map(SyncKey::Barrier);
        let threads = self.threads.keys().copied().map(SyncKey::Thread);
        let atomics = self.atomics.keys().copied().map(SyncKey::Atomic);
        let keys = mutexes
            .chain(conds)
            .chain(barriers)
            .chain(threads)
            .chain(atomics);
        let mut out: Vec<_> = keys
            .filter_map(|key| {
                let v = self.var(key)?;
                Some((key, v.last_tid?, v.last_time.clone()))
            })
            .collect();
        out.sort_unstable_by_key(|&(key, _, _)| key);
        out
    }

    /// The threads that have exited, ascending.
    #[must_use]
    pub fn finished(&self) -> Vec<Tid> {
        let finished = self.threads.iter().filter(|(_, r)| r.finished);
        let mut out: Vec<Tid> = finished.map(|(&t, _)| t).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::WaitTarget;

    #[test]
    fn fresh_var_has_no_edge() {
        let v = SyncVar::default();
        assert_eq!(v.edge(0), None);
        assert!(v.last_tid.is_none());
    }

    #[test]
    fn only_a_cross_thread_release_is_an_edge() {
        let mut v = SyncVar::default();
        let mut t = VClock::new();
        t.tick(1);
        v.record_release(1, t.clone());
        assert_eq!(v.edge(0), Some((1, t.clone())));
        assert_eq!(v.edge(1), None, "same-thread re-acquire propagates nothing");
        assert_eq!(v.last_time, t);
    }

    #[test]
    fn later_release_overwrites() {
        let mut v = SyncVar::default();
        v.record_release(1, VClock::from_components(vec![0, 3]));
        v.record_release(2, VClock::from_components(vec![0, 3, 9]));
        assert_eq!(v.last_tid, Some(2));
        assert_eq!(v.last_time.get(2), 9);
    }

    #[test]
    fn releases_are_the_sorted_recorded_vars_and_finished_the_exited_threads() {
        let mut t = SyncTable::default();
        t.var_mut(SyncKey::Atomic(64))
            .record_release(1, VClock::new());
        t.var_mut(SyncKey::Thread(2))
            .record_release(2, VClock::new());
        t.var_mut(SyncKey::Mutex(9))
            .record_release(0, VClock::new());
        t.conds.entry(5).or_default(); // touched, never released
        t.threads.entry(1).or_default().joiners.push(0);
        t.threads.entry(2).or_default().finished = true;
        let keys: Vec<SyncKey> = t.releases().into_iter().map(|(k, _, _)| k).collect();
        assert_eq!(
            keys,
            [SyncKey::Mutex(9), SyncKey::Thread(2), SyncKey::Atomic(64)]
        );
        assert_eq!(t.finished(), [2]);
    }

    #[test]
    fn each_misuse_is_one_message_naming_the_thread_and_the_object() {
        let mut t = SyncTable::default();
        let now = VClock::new();
        let mx = t.mutexes.entry(5).or_default();
        assert_eq!(mx.try_lock(5, 1), Ok(true));
        assert_eq!(
            mx.try_lock(5, 1),
            Err("recursive lock of mutex 5 by thread 1".into())
        );
        assert_eq!(mx.try_lock(5, 2), Ok(false), "busy, not a misuse");
        assert_eq!(
            t.release_mutex(2, 5, None, now.clone()),
            Err("thread 2 unlocking mutex 5 it does not hold".into())
        );
        assert_eq!(
            t.release_mutex(2, 6, None, now.clone()),
            Err("thread 2 unlocking mutex 6 it does not hold".into()),
            "never locked"
        );
        assert_eq!(
            t.release_mutex(2, 5, Some(3), now.clone()),
            Err("thread 2 waiting on cond 3 without holding mutex 5".into())
        );
        assert!(t.conds.get(&3).is_none_or(|c| c.waiters.is_empty()));
        assert_eq!(
            t.join(4, 4, 5).err().as_deref(),
            Some("thread 4 joining itself")
        );
        assert_eq!(
            t.join(4, 5, 5).err(),
            Some(rfdet_api::harness::join_never_spawned(4, 5))
        );
        assert!(!t.threads.contains_key(&5), "no record for a misuse");
        let b = t.barriers.entry(7).or_default();
        assert_eq!(
            b.arrive(7, 0, now.clone(), 0),
            Err("barrier 7 with zero parties".into())
        );
        assert_eq!(b.arrive(7, 0, now.clone(), 2), Ok(None));
        assert_eq!(
            b.arrive(7, 1, now.clone(), 1).err(),
            Some("barrier 7 overfull: 2 arrivals for 1 parties".into())
        );
    }

    #[test]
    fn a_release_hands_over_queues_the_waiter_and_graphs_the_rest() {
        let mut t = SyncTable::default();
        let at = |c: u64| VClock::from_components(vec![c]);
        let mx = t.mutexes.entry(0).or_default();
        assert_eq!(mx.try_lock(0, 0), Ok(true));
        mx.queue.push_back(1);
        // A cond_wait releases to the queue head and queues the waiter.
        assert_eq!(t.release_mutex(0, 0, Some(9), at(3)), Ok(Some((1, at(3)))));
        assert_eq!(t.mutexes[&0].release.last_time, at(3));
        assert_eq!(t.conds[&9].waiters, [(0, 0)]);
        assert_eq!(
            t.conds.get_mut(&9).map(|c| c.signal(2, at(4), true)),
            Some(vec![(0, 0)])
        );
        // An atomic's release keeps the one before it.
        let cell = t.atomics.entry(64).or_default();
        cell.join_release(1, &VClock::from_components(vec![0, 5]));
        cell.join_release(2, &VClock::from_components(vec![3]));
        assert_eq!(cell.last_time, VClock::from_components(vec![3, 5]));
        let exit_time = |exit: Option<&SyncVar>| exit.map(|v| v.last_time.clone());
        assert_eq!(t.join(3, 2, 5).map(exit_time), Ok(None));
        assert_eq!(t.exit(2, at(8)), [3]);
        assert_eq!(
            t.join(4, 2, 5).map(exit_time),
            Err(rfdet_api::harness::join_twice(4, 2)),
            "thread 3 joined it first"
        );
        t.threads.entry(2).or_default().joined = false;
        assert_eq!(t.join(4, 2, 5).map(exit_time), Ok(Some(at(8))));
        // t1 owns mutex 0; t5 retries it (the lockstep engine's locker).
        let holder = Some(1);
        assert_eq!(
            t.wait_graph([(5, 0)]),
            [WaitEdge {
                waiter: 5,
                target: WaitTarget::Mutex { id: 0, holder }
            }]
        );
    }

    #[test]
    fn aligned_cell_addresses_spread_over_the_buckets() {
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IntHasher>::default();
        for step in [1u64, 8, 4096] {
            let buckets: BTreeSet<u64> = (0..64).map(|i| build.hash_one(i * step) & 63).collect();
            assert!(
                buckets.len() >= 24,
                "step {step}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn keys_are_distinct_namespaces() {
        assert_ne!(SyncKey::Mutex(1), SyncKey::Cond(1));
        assert_ne!(SyncKey::Cond(1), SyncKey::Barrier(1));
        assert_ne!(SyncKey::Barrier(1), SyncKey::Thread(1));
    }
}
