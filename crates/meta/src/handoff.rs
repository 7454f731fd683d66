//! Deterministic wakeup mailboxes.
//!
//! A blocked thread cannot decide anything for itself, so the thread that
//! deterministically causes its wakeup (the unlocker, signaler, last
//! barrier arriver, or exiting joinee) deposits everything the sleeper
//! needs — which releases it synchronized with, and for barriers the
//! merged upper limit — into the sleeper's mailbox
//! ([`crate::ThreadMeta::mailbox`]) *during the waker's Kendo turn*,
//! before flipping it back to `Active`.

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

/// Barrier wakeups carry the merged view instead of a single source.
#[derive(Clone, Debug)]
pub struct BarrierHandoff {
    /// Every participant of this barrier episode, ascending tid — the
    /// deterministic merge order of §4.1 ("the thread with the smallest
    /// ID merges its modifications first").
    pub participants: Vec<Tid>,
    /// Join of all participants' release times: the upperlimit.
    pub upper: VClock,
    /// `Some(epoch)` when this episode seeds a checkpoint (§4.11): each
    /// woken participant contributes its fragment right after its merge.
    /// Stamped by the last arriver *before* any mailbox deposit, so
    /// every participant of the episode sees the same decision.
    pub checkpoint: Option<u64>,
}

/// Accumulated wakeup information for one blocking episode.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Ordinary acquire edges (mutex handoff, condvar signal, join),
    /// in the deterministic order they were deposited.
    pub sources: Vec<AcquireSource>,
    /// Set instead of `sources` for barrier wakeups.
    pub barrier: Option<BarrierHandoff>,
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
        self.sources.is_empty() && self.barrier.is_none()
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
