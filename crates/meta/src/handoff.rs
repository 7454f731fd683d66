//! Deterministic wakeup mailboxes.
//!
//! A blocked thread cannot decide anything for itself, so the thread that
//! deterministically causes its wakeup (the unlocker, signaler, last
//! barrier arriver, or exiting joinee) deposits everything the sleeper
//! needs — the releases it synchronizes with, one acquire edge each (a
//! barrier episode deposits every other participant's arrival) — into
//! the sleeper's mailbox ([`crate::ThreadMeta::mailbox`]) *during the
//! waker's Kendo turn*, before flipping it back to `Active`.

use rfdet_vclock::{Tid, VClock};

/// One release this wakeup synchronizes with: the internal sync var's
/// (`lastTid`, `lastTime`) captured at handoff time (§4.1).
#[derive(Clone, Debug)]
pub struct AcquireSource {
    /// The releasing thread — the propagation source list to read.
    pub from: Tid,
    /// Vector time of the release (the propagation *upperlimit*).
    pub time: VClock,
}

/// Accumulated wakeup information for one blocking episode.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Acquire edges (mutex handoff, condvar signal, join, the other
    /// participants' barrier arrivals in ascending tid), in the
    /// deterministic order they were deposited.
    pub sources: Vec<AcquireSource>,
    /// `Some(epoch)` when the barrier episode that woke the thread seeds
    /// a checkpoint (§4.11): the thread contributes its fragment right
    /// after its merge. Stamped by the last arriver *before* any wake,
    /// so every participant of the episode sees the same decision.
    pub checkpoint: Option<u64>,
}

impl Mailbox {
    /// Takes the accumulated contents, leaving the mailbox empty for the
    /// next blocking episode.
    pub fn drain(&mut self) -> Mailbox {
        std::mem::take(self)
    }

    /// `true` when nothing was deposited (e.g. joining an
    /// already-finished thread never blocks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty() && self.checkpoint.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_resets() {
        let mut m = Mailbox::default();
        m.sources.push(AcquireSource {
            from: 1,
            time: VClock::new(),
        });
        let taken = m.drain();
        assert_eq!(taken.sources.len(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn accumulates_multiple_sources() {
        // A cond waiter gets the signal edge first, then the mutex edge
        // from a later unlock — both must survive until the final wake.
        let mut m = Mailbox::default();
        m.sources.push(AcquireSource {
            from: 2,
            time: VClock::from_components(vec![0, 0, 5]),
        });
        m.sources.push(AcquireSource {
            from: 1,
            time: VClock::from_components(vec![0, 9]),
        });
        assert_eq!(m.sources.len(), 2);
        assert_eq!(m.sources[0].from, 2, "deposit order preserved");
    }
}
