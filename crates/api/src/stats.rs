//! Per-run profiling counters — the raw material of the paper's Table 1.
//!
//! The counters are listed once, in the `stats!` invocation below, which
//! generates the per-thread [`Stats`], its `+=`, and the run-wide
//! lock-free mirror [`AtomicStats`]. Each counter names how two values
//! combine: `sum` for counts, `max` for peaks.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counters that add up across threads and merges.
mod sum {
    use super::{AtomicU64, Relaxed};

    pub(super) fn fold(a: u64, b: u64) -> u64 {
        a + b
    }

    pub(super) fn fold_atomic(a: &AtomicU64, b: u64) {
        a.fetch_add(b, Relaxed);
    }
}

/// Peaks: the largest value wins.
mod max {
    use super::{AtomicU64, Relaxed};

    pub(super) fn fold(a: u64, b: u64) -> u64 {
        a.max(b)
    }

    pub(super) fn fold_atomic(a: &AtomicU64, b: u64) {
        a.fetch_max(b, Relaxed);
    }
}

macro_rules! stats {
    ($($(#[$doc:meta])* $fold:ident $field:ident,)*) => {
        /// Aggregated counters for one run.
        ///
        /// Mirrors the columns of paper Table 1 ("Profiling data of
        /// benchmark executions with 4 threads") plus the optimization
        /// counters used in the §4.5 discussion (e.g. the fraction of
        /// propagation work the *prelock* optimization moves off the
        /// critical path).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Stats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl AddAssign for Stats {
            fn add_assign(&mut self, rhs: Self) {
                $(self.$field = $fold::fold(self.$field, rhs.$field);)*
            }
        }

        /// Shared, lock-free mirror of [`Stats`].
        ///
        /// Hot paths keep thread-local `Stats` and flush them here at
        /// thread exit; slow paths (GC, fences) update directly.
        #[derive(Debug, Default)]
        pub struct AtomicStats {
            $(
                #[doc = concat!("See [`Stats::", stringify!($field), "`].")]
                pub $field: AtomicU64,
            )*
        }

        impl AtomicStats {
            /// Adds a thread-local `Stats` into the shared aggregate.
            pub fn merge(&self, s: &Stats) {
                $($fold::fold_atomic(&self.$field, s.$field);)*
            }

            /// Reads out a consistent-enough snapshot (run has quiesced).
            #[must_use]
            pub fn snapshot(&self) -> Stats {
                Stats {
                    $($field: self.$field.load(Relaxed),)*
                }
            }
        }
    };
}

stats! {
    // ---- sync ops (Table 1, columns 2-4) ----
    /// `pthread_mutex_lock` count.
    sum locks,
    /// `pthread_mutex_unlock` count.
    sum unlocks,
    /// `pthread_cond_wait` count.
    sum waits,
    /// `pthread_cond_signal` + `pthread_cond_broadcast` count.
    sum signals,
    /// `pthread_create` count.
    sum forks,
    /// `pthread_join` count.
    sum joins,
    /// Barrier arrivals.
    sum barriers,
    /// Atomic operations (`atomic_rmw`/`atomic_load`/`atomic_store`) — the
    /// §4.6 extension. A distinct sync-op class: atomics acquire *and*
    /// release a cell's sync var in one turn, so folding them into `locks`
    /// would misstate both columns.
    sum atomics,

    // ---- memory ops (Table 1, columns 5-8) ----
    /// Shared-memory load operations.
    sum loads,
    /// Shared-memory store operations.
    sum stores,
    /// Stores that triggered a page snapshot ("store w/ copy", column 9).
    /// RFDet takes none while main is the run's only thread (DESIGN.md
    /// §4.2, *The single-thread phase*).
    sum stores_with_copy,
    /// RFDet-pf write faults; none for main's stores while it is the
    /// run's only thread.
    sum page_faults,

    // ---- memory footprint & GC (Table 1, columns 10-13) ----
    /// Bytes of shared memory the application allocated.
    sum shared_bytes,
    /// Private pages materialized, summed over all threads (each thread
    /// contributes its final count at exit) — the `(N-1)*SharedMemory`
    /// term of §5.4.
    sum private_pages,
    /// Peak metadata-space usage in bytes.
    max peak_meta_bytes,
    /// Garbage-collection passes (Table 1 last column).
    sum gc_count,
    /// Slices reclaimed by GC.
    sum gc_reclaimed_slices,

    // ---- DLRC internals ----
    /// Slices created (one per synchronization-free interval).
    sum slices,
    /// Always 0 since slice merging (§4.5) was removed; kept only for
    /// the frozen benchmark's `core.slices_merged` probe.
    sum slices_merged,
    /// Slices propagated into some thread (appended to a slice-pointer
    /// list).
    sum slices_propagated,
    /// Slices filtered out as redundant by the lowerlimit check.
    sum slices_filtered_redundant,
    /// Modification bytes applied to private memories.
    sum mod_bytes_applied,
    /// Slices pre-merged while queued on a lock (prelock, §4.5). The paper
    /// reports ~80 % of propagation moved into the parallel phase.
    sum prelock_premerged,

    // ---- memory-pipeline fast path (diff kernel + snapshot pool) ----
    /// Bytes compared by the end-of-slice diff kernel: the dirty lines of
    /// every stored-to page under RFDet-ci (equal to
    /// `snapshot_bytes_copied`), whole pages under RFDet-pf. Zero for
    /// the slices main runs as the run's only thread, which are not
    /// diffed.
    sum diff_bytes_scanned,
    /// Bytes copied taking snapshots at first write (Figure 4 line 6):
    /// under RFDet-ci one line (`max(64, page_size / 64)` bytes) per line
    /// first stored to in a slice, so this over the line size counts line
    /// copies; under RFDet-pf one page per page first stored to. Main's
    /// stores before its first spawn copy nothing.
    sum snapshot_bytes_copied,
    /// Pages first stored to in a slice whose snapshot buffer came from
    /// the per-thread pool (no allocation).
    sum snapshot_pool_hits,
    /// Pages first stored to in a slice that had to allocate a fresh
    /// snapshot buffer (cold pool, or pooling disabled).
    sum snapshot_pool_misses,

    // ---- DThreads / quantum internals ----
    /// Global fence phases executed (DThreads / quantum backends).
    sum global_fences,
    /// Serial-phase commits (token-ordered diff publications).
    sum serial_commits,

    // ---- checkpoint/restore (§4.11) ----
    /// Checkpoint fragments this run contributed (one per live thread
    /// per captured epoch; `captured epochs = this / live threads`).
    sum checkpoints_contributed,

    // ---- application-level degradation (RetryPolicy, §4.12) ----
    /// Requests that were retried after a deterministic backoff (each
    /// retry attempt counts once, however many a single request needs).
    sum app_retries,
    /// Requests shed after the retry budget was exhausted — graceful
    /// degradation the digest accounts for instead of hiding.
    sum app_shed,

    // ---- turn arbitration (Kendo successor handoff) ----
    /// Successor scans run by turn holders at release (one per turn
    /// transition).
    sum handoff_scans,
    /// Targeted unparks of a designated successor (scans where the next
    /// thread was parked rather than still polling).
    sum handoff_wakes,
    /// Times a non-designated turn-waiter parked instead of spinning.
    sum turn_parks,
}

impl Stats {
    /// Table-1-style "memory ops" total.
    #[must_use]
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total synchronization operations.
    #[must_use]
    pub fn sync_ops(&self) -> u64 {
        self.locks
            + self.unlocks
            + self.waits
            + self.signals
            + self.forks
            + self.joins
            + self.barriers
            + self.atomics
    }

    /// Fraction of propagated slices handled off the critical path by
    /// prelock, in `[0,1]`.
    #[must_use]
    pub fn prelock_fraction(&self) -> f64 {
        if self.slices_propagated == 0 {
            0.0
        } else {
            self.prelock_premerged as f64 / self.slices_propagated as f64
        }
    }

    /// Fraction of page snapshots served allocation-free from the buffer
    /// pool, in `[0,1]`.
    #[must_use]
    pub fn snapshot_pool_hit_rate(&self) -> f64 {
        let total = self.snapshot_pool_hits + self.snapshot_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.snapshot_pool_hits as f64 / total as f64
        }
    }
}

impl AtomicStats {
    /// Raises the metadata-usage peak (a load first: no new peak, no write).
    pub fn note_meta_bytes(&self, bytes: u64) {
        if bytes > self.peak_meta_bytes.load(Relaxed) {
            self.peak_meta_bytes.fetch_max(bytes, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = Stats {
            locks: 2,
            unlocks: 2,
            waits: 1,
            signals: 1,
            forks: 4,
            joins: 4,
            barriers: 3,
            atomics: 5,
            loads: 100,
            stores: 50,
            ..Stats::default()
        };
        assert_eq!(s.sync_ops(), 22);
        assert_eq!(s.mem_ops(), 150);
    }

    #[test]
    fn add_assign_sums_counts_and_maxes_peaks() {
        let mut a = Stats {
            locks: 1,
            peak_meta_bytes: 10,
            private_pages: 5,
            ..Stats::default()
        };
        let b = Stats {
            locks: 2,
            peak_meta_bytes: 7,
            private_pages: 9,
            ..Stats::default()
        };
        a += b;
        assert_eq!(a.locks, 3);
        assert_eq!(a.peak_meta_bytes, 10, "peaks take max");
        assert_eq!(a.private_pages, 14, "per-thread footprints sum");
    }

    #[test]
    fn merge_and_snapshot() {
        let a = AtomicStats::default();
        let s1 = Stats {
            locks: 3,
            stores: 10,
            peak_meta_bytes: 100,
            ..Stats::default()
        };
        let s2 = Stats {
            locks: 2,
            peak_meta_bytes: 50,
            private_pages: 7,
            ..Stats::default()
        };
        a.merge(&s1);
        a.merge(&s2);
        let out = a.snapshot();
        assert_eq!(out.locks, 5);
        assert_eq!(out.stores, 10);
        assert_eq!(out.peak_meta_bytes, 100, "peaks take max");
        assert_eq!(out.private_pages, 7);
    }

    #[test]
    fn note_peaks_monotone() {
        let a = AtomicStats::default();
        a.note_meta_bytes(10);
        a.note_meta_bytes(5);
        let s = a.snapshot();
        assert_eq!(s.peak_meta_bytes, 10);
    }

    #[test]
    fn prelock_fraction_bounds() {
        let mut s = Stats::default();
        assert_eq!(s.prelock_fraction(), 0.0);
        s.slices_propagated = 10;
        s.prelock_premerged = 8;
        assert!((s.prelock_fraction() - 0.8).abs() < 1e-12);
    }
}
