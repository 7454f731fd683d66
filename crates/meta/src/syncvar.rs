//! Internal synchronization variables (paper §4.1).
//!
//! "Our approach is to map each synchronization variable to an *internal
//! synchronization variable* that is allocated in the metadata space. …
//! we add two fields to each internal synchronization variable: `lastTid`
//! and `lastTime`" — the ID of the last releasing thread and the vector
//! time of that release.

use rfdet_vclock::{Tid, VClock};

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
    fn keys_are_distinct_namespaces() {
        assert_ne!(SyncKey::Mutex(1), SyncKey::Cond(1));
        assert_ne!(SyncKey::Cond(1), SyncKey::Barrier(1));
        assert_ne!(SyncKey::Barrier(1), SyncKey::Thread(1));
    }
}
