//! Sample collection: per-thread histograms merging into a shared sink.
//!
//! Mirrors the flight recorder's `TraceBuf`/`TraceSink` split: the hot
//! path must cost one branch when metrics are off and no shared state
//! when on. Each thread records `(phase, value)` samples straight into
//! its private histograms ([`ObsRecorder`]; a bucket search and an
//! increment, lock-free because thread-local), and the histograms merge
//! into the run-wide [`ObsSink`] on drop, which also covers panic
//! unwinds.
//! Single-threaded runtime sections (the lockstep serial phase, Kendo
//! turn bodies) may push straight into the sink; its mutex is
//! effectively uncontended there.

use crate::{Histogram, MetricsSnapshot, Phase, NUM_PHASES};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct SinkInner {
    hists: Vec<Histogram>,
    threads: u64,
}

/// Run-wide metrics store shared by every thread's [`ObsRecorder`].
#[derive(Debug)]
pub struct ObsSink {
    inner: Mutex<SinkInner>,
}

/// A poisoned sink mutex only means some unrelated panic unwound past a
/// guard; histogram merges are commutative increments and stay coherent.
fn lock(m: &Mutex<SinkInner>) -> MutexGuard<'_, SinkInner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for ObsSink {
    fn default() -> Self {
        Self {
            inner: Mutex::new(SinkInner {
                hists: vec![Histogram::new(); NUM_PHASES],
                threads: 0,
            }),
        }
    }
}

impl ObsSink {
    /// Records one sample directly (for single-threaded runtime
    /// sections; per-thread paths go through [`ObsRecorder`]).
    pub fn record(&self, phase: Phase, value: u64) {
        lock(&self.inner).hists[phase.idx()].record(value);
    }

    /// Folds one thread's per-phase histograms into the run rollup.
    pub fn merge(&self, hists: &[Histogram]) {
        let mut inner = lock(&self.inner);
        inner.threads += 1;
        for (agg, h) in inner.hists.iter_mut().zip(hists) {
            agg.merge(h);
        }
    }

    /// Number of thread recorders merged so far.
    #[must_use]
    pub fn threads_merged(&self) -> u64 {
        lock(&self.inner).threads
    }

    /// Rolls the collected histograms up into an exportable
    /// [`MetricsSnapshot`] labelled with the backend's name.
    #[must_use]
    pub fn snapshot(&self, backend: &str) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot::from_histograms(backend, inner.threads, &inner.hists)
    }
}

/// A thread's private histograms; merges into the sink on drop (normal
/// exit and panic unwind alike).
#[derive(Debug)]
pub struct ObsRecorder {
    hists: Vec<Histogram>,
    sink: Arc<ObsSink>,
}

impl ObsRecorder {
    /// A new recorder draining into `sink`.
    #[must_use]
    pub fn new(sink: Arc<ObsSink>) -> Self {
        Self {
            hists: vec![Histogram::new(); NUM_PHASES],
            sink,
        }
    }

    /// Records one sample into the thread's own histogram — never
    /// touches shared state.
    #[inline]
    pub fn record(&mut self, phase: Phase, value: u64) {
        self.hists[phase.idx()].record(value);
    }

    /// Flushes the histograms into the sink early (drop does this too).
    /// The local histograms reset, so flushing twice cannot
    /// double-count.
    pub fn flush(&mut self) {
        self.sink.merge(&self.hists);
        for h in &mut self.hists {
            *h = Histogram::new();
        }
    }
}

impl Drop for ObsRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_merge_on_drop() {
        let sink = Arc::new(ObsSink::default());
        {
            let mut a = ObsRecorder::new(Arc::clone(&sink));
            let mut b = ObsRecorder::new(Arc::clone(&sink));
            a.record(Phase::WaitTurn, 100);
            a.record(Phase::SyncOp, 5_000);
            b.record(Phase::WaitTurn, 300);
        }
        let snap = sink.snapshot("test");
        assert_eq!(sink.threads_merged(), 2);
        let wait = snap.phase(Phase::WaitTurn).unwrap();
        assert_eq!(wait.count, 2);
        assert_eq!(wait.sum, 400);
        assert_eq!(snap.phase(Phase::SyncOp).unwrap().count, 1);
    }

    #[test]
    fn samples_survive_panic_unwind() {
        let sink = Arc::new(ObsSink::default());
        let s2 = Arc::clone(&sink);
        let result = std::panic::catch_unwind(move || {
            let mut r = ObsRecorder::new(s2);
            r.record(Phase::Snapshot, 42);
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(
            sink.snapshot("test").phase(Phase::Snapshot).unwrap().count,
            1
        );
    }

    #[test]
    fn double_flush_does_not_double_count() {
        let sink = Arc::new(ObsSink::default());
        let mut r = ObsRecorder::new(Arc::clone(&sink));
        r.record(Phase::SyncOp, 10);
        r.flush();
        drop(r); // flushes again, but the local histograms were reset
        assert_eq!(sink.snapshot("test").phase(Phase::SyncOp).unwrap().count, 1);
    }

    #[test]
    fn direct_sink_records_interleave_with_recorders() {
        let sink = Arc::new(ObsSink::default());
        sink.record(Phase::SerialApply, 9);
        let mut r = ObsRecorder::new(Arc::clone(&sink));
        r.record(Phase::SerialApply, 11);
        drop(r);
        let snap = sink.snapshot("test");
        let p = snap.phase(Phase::SerialApply).unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.sum, 20);
    }
}
