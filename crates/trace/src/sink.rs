//! Event collection: per-thread buffers draining into a shared sink.
//!
//! The recording hot path must cost one branch when disabled and one
//! `Vec::push` when enabled, so events buffer thread-locally in a
//! [`TraceBuf`] and flush to the run-wide [`TraceSink`] in bulk — on
//! drop, which also covers panic unwinds (the whole point of a flight
//! recorder is surviving the crash). The core backend's wakes push
//! straight into the sink; they run inside serialized turns, so the sink
//! mutex is effectively uncontended.

use crate::TraceEvent;
use std::sync::{Arc, Mutex, MutexGuard};

/// Run-wide event store shared by every thread's [`TraceBuf`].
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

/// A poisoned sink mutex only means some unrelated panic unwound past a
/// guard; the event data itself is append-only and stays coherent.
fn lock(m: &Mutex<Vec<TraceEvent>>) -> MutexGuard<'_, Vec<TraceEvent>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl TraceSink {
    /// Pushes one event directly (used for the core backend's wakes).
    pub fn push(&self, e: TraceEvent) {
        lock(&self.events).push(e);
    }

    /// Moves a buffer's events into the sink.
    pub fn append(&self, buf: &mut Vec<TraceEvent>) {
        lock(&self.events).append(buf);
    }

    /// Takes every event collected so far, sorted by
    /// [`TraceEvent::sort_key`] — a deterministic order for a
    /// deterministic event multiset, independent of flush timing.
    #[must_use]
    pub fn drain_sorted(&self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut *lock(&self.events));
        events.sort_unstable_by_key(TraceEvent::sort_key);
        events
    }
}

/// A thread's private event buffer; flushes to the sink on drop (normal
/// exit and panic unwind alike).
#[derive(Debug)]
pub struct TraceBuf {
    buf: Vec<TraceEvent>,
    sink: Arc<TraceSink>,
}

impl TraceBuf {
    /// A new buffer draining into `sink`.
    #[must_use]
    pub fn new(sink: Arc<TraceSink>) -> Self {
        Self {
            buf: Vec::new(),
            sink,
        }
    }

    /// Records one event (thread-local, no locking).
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        self.buf.push(e);
    }

    /// Flushes buffered events to the sink early (drop does this too).
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.sink.append(&mut self.buf);
        }
    }
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op;

    fn ev(tid: u32, op_idx: u64, clock: u64) -> TraceEvent {
        TraceEvent {
            tid,
            op: op_idx,
            kind: op::LOCK,
            arg: None,
            clock,
        }
    }

    #[test]
    fn buffers_flush_on_drop_and_drain_sorts() {
        let sink = Arc::new(TraceSink::default());
        {
            let mut b1 = TraceBuf::new(Arc::clone(&sink));
            let mut b0 = TraceBuf::new(Arc::clone(&sink));
            b1.push(ev(1, 1, 20));
            b1.push(ev(1, 0, 10));
            b0.push(ev(0, 0, 5));
        }
        let events = sink.drain_sorted();
        assert_eq!(
            events,
            vec![ev(0, 0, 5), ev(1, 0, 10), ev(1, 1, 20)],
            "sorted by (tid, clock, op) regardless of flush order"
        );
        assert!(sink.drain_sorted().is_empty(), "drain empties the sink");
    }

    #[test]
    fn buffers_flush_during_panic_unwind() {
        let sink = Arc::new(TraceSink::default());
        let s2 = Arc::clone(&sink);
        let result = std::panic::catch_unwind(move || {
            let mut b = TraceBuf::new(s2);
            b.push(ev(3, 0, 0));
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(sink.drain_sorted().len(), 1, "event survived the unwind");
    }

    #[test]
    fn direct_push_interleaves_with_buffers() {
        let sink = Arc::new(TraceSink::default());
        sink.push(TraceEvent {
            tid: 1,
            op: u64::MAX,
            kind: op::WAKE,
            arg: None,
            clock: 15,
        });
        let mut b = TraceBuf::new(Arc::clone(&sink));
        b.push(ev(1, 0, 15));
        b.flush();
        let events = sink.drain_sorted();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, op::LOCK, "sync op before same-clock wake");
        assert_eq!(events[1].kind, op::WAKE);
    }
}
