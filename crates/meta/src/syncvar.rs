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

use rfdet_vclock::{Tid, VClock};
use std::collections::{HashMap, VecDeque};

/// Key of an internal synchronization variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SyncKey {
    /// An application mutex.
    Mutex(u32),
    /// An application condition variable.
    Cond(u32),
    /// An application barrier.
    Barrier(u32),
    /// The implicit sync var of a thread's lifetime: *release* at exit,
    /// *acquire* at join.
    Thread(Tid),
    /// A low-level atomic cell, keyed by its address (the §4.6 extension:
    /// every atomic operation acquires *and* releases this variable).
    Atomic(u64),
}

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

    /// The acquire edge `acquirer` takes from this variable: the last
    /// release's `(lastTid, lastTime)` when a *different* thread made it,
    /// so the acquirer must propagate from that thread up to that time.
    /// `None` before any release, and for a same-thread re-acquire, which
    /// has nothing to propagate (§4.5 slice merging).
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

/// An application condition variable.
#[derive(Debug, Default)]
pub struct CondRec {
    /// `(waiter, mutex to re-acquire)`, in arrival order.
    pub waiters: VecDeque<(Tid, u32)>,
    /// The last signal or broadcast.
    pub release: SyncVar,
}

/// An application barrier.
#[derive(Debug, Default)]
pub struct BarrierRec {
    /// `(tid, release time)` of each arrival this episode.
    pub arrivals: Vec<(Tid, VClock)>,
    /// The last arrival.
    pub release: SyncVar,
}

/// A thread's lifetime: released at exit, acquired at join.
#[derive(Debug, Default)]
pub struct ThreadRec {
    /// The thread has executed its exit operation.
    pub finished: bool,
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
    pub mutexes: HashMap<u32, MutexRec>,
    /// Condition variables by id.
    pub conds: HashMap<u32, CondRec>,
    /// Barriers by id.
    pub barriers: HashMap<u32, BarrierRec>,
    /// Thread lifetimes by tid.
    pub threads: HashMap<Tid, ThreadRec>,
    /// Atomic cells by address.
    pub atomics: HashMap<u64, SyncVar>,
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
        assert_eq!(v.edge(1), None, "same-thread re-acquire merges slices");
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
    fn keys_are_distinct_namespaces() {
        assert_ne!(SyncKey::Mutex(1), SyncKey::Cond(1));
        assert_ne!(SyncKey::Cond(1), SyncKey::Barrier(1));
        assert_ne!(SyncKey::Barrier(1), SyncKey::Thread(1));
    }
}
