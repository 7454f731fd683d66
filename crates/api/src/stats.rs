//! Per-run profiling counters — the raw material of the paper's Table 1.

use std::ops::AddAssign;

/// Aggregated counters for one run.
///
/// Mirrors the columns of paper Table 1 ("Profiling data of benchmark
/// executions with 4 threads") plus the optimization counters used in the
/// §4.5 discussion (e.g. the fraction of propagation work the *prelock*
/// optimization moves off the critical path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    // ---- sync ops (Table 1, columns 2-4) ----
    /// `pthread_mutex_lock` count.
    pub locks: u64,
    /// `pthread_mutex_unlock` count.
    pub unlocks: u64,
    /// `pthread_cond_wait` count.
    pub waits: u64,
    /// `pthread_cond_signal` + `pthread_cond_broadcast` count.
    pub signals: u64,
    /// `pthread_create` count.
    pub forks: u64,
    /// `pthread_join` count.
    pub joins: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// Atomic operations (`atomic_rmw`/`atomic_load`/`atomic_store`) — the
    /// §4.6 extension. A distinct sync-op class: atomics acquire *and*
    /// release a cell's sync var in one turn, so folding them into `locks`
    /// would misstate both columns.
    pub atomics: u64,

    // ---- memory ops (Table 1, columns 5-8) ----
    /// Shared-memory load operations.
    pub loads: u64,
    /// Shared-memory store operations.
    pub stores: u64,
    /// Stores that triggered a page snapshot ("store w/ copy", column 9).
    pub stores_with_copy: u64,
    /// Simulated page faults taken (Pf monitoring / lazy writes).
    pub page_faults: u64,

    // ---- memory footprint & GC (Table 1, columns 10-13) ----
    /// Bytes of shared memory the application allocated.
    pub shared_bytes: u64,
    /// Private pages materialized, summed over all threads (each thread
    /// contributes its final count at exit) — the `(N-1)*SharedMemory`
    /// term of §5.4.
    pub private_pages: u64,
    /// Peak metadata-space usage in bytes.
    pub peak_meta_bytes: u64,
    /// Garbage-collection passes (Table 1 last column).
    pub gc_count: u64,
    /// Slices reclaimed by GC.
    pub gc_reclaimed_slices: u64,

    // ---- DLRC internals ----
    /// Slices created (one per synchronization-free interval).
    pub slices: u64,
    /// Slices whose creation was elided by slice merging (§4.5).
    pub slices_merged: u64,
    /// Slices propagated into some thread (appended to a slice-pointer
    /// list).
    pub slices_propagated: u64,
    /// Slices filtered out as redundant by the lowerlimit check.
    pub slices_filtered_redundant: u64,
    /// Modification bytes applied to private memories.
    pub mod_bytes_applied: u64,
    /// Slices pre-merged while queued on a lock (prelock, §4.5). The paper
    /// reports ~80 % of propagation moved into the parallel phase.
    pub prelock_premerged: u64,
    /// Modification bytes whose application was deferred by lazy writes.
    pub lazy_deferred_bytes: u64,
    /// Deferred bytes later dropped because a newer value superseded them
    /// before the page was touched (the lazy-writes saving, §4.5).
    pub lazy_elided_bytes: u64,
    /// `NO_ACCESS` protection transitions performed by lazy-write deposits.
    /// Each pending page is protected exactly once until its fault clears
    /// it — interleaved-page run lists and repeat deposits pay nothing —
    /// so this counts what `mprotect` calls a real implementation would
    /// issue.
    pub lazy_protect_calls: u64,

    // ---- memory-pipeline fast path (diff kernel + snapshot pool) ----
    /// Bytes compared by the end-of-slice diff kernel: the dirty lines of
    /// every stored-to page under RFDet-ci (equal to
    /// `snapshot_bytes_copied`), whole pages under RFDet-pf.
    pub diff_bytes_scanned: u64,
    /// Bytes copied taking snapshots at first write (Figure 4 line 6):
    /// under RFDet-ci one line (`max(64, page_size / 64)` bytes) per line
    /// first stored to in a slice, so this over the line size counts line
    /// copies; under RFDet-pf one page per page first stored to.
    pub snapshot_bytes_copied: u64,
    /// Pages first stored to in a slice whose snapshot buffer came from
    /// the per-thread pool (no allocation).
    pub snapshot_pool_hits: u64,
    /// Pages first stored to in a slice that had to allocate a fresh
    /// snapshot buffer (cold pool, or pooling disabled).
    pub snapshot_pool_misses: u64,

    // ---- DThreads / quantum internals ----
    /// Global fence phases executed (DThreads / quantum backends).
    pub global_fences: u64,
    /// Serial-phase commits (token-ordered diff publications).
    pub serial_commits: u64,

    // ---- runtime-internal contention (RFDet sharded hot path) ----
    /// Sync-var handles served from the per-thread cache (no shard lock).
    pub sync_var_cache_hits: u64,
    /// Sync-var handles that had to consult the sharded table.
    pub sync_var_cache_misses: u64,
    /// Sync-var shard locks that were held by another thread on arrival.
    pub shard_lock_contended: u64,
    /// Sync-queue class locks that were held by another thread on arrival.
    pub queue_lock_contended: u64,

    // ---- checkpoint/restore (§4.11) ----
    /// Checkpoint fragments this run contributed (one per live thread
    /// per captured epoch; `captured epochs = this / live threads`).
    pub checkpoints_contributed: u64,

    // ---- application-level degradation (RetryPolicy, §4.12) ----
    /// Requests that were retried after a deterministic backoff (each
    /// retry attempt counts once, however many a single request needs).
    pub app_retries: u64,
    /// Requests shed after the retry budget was exhausted — graceful
    /// degradation the digest accounts for instead of hiding.
    pub app_shed: u64,

    // ---- turn arbitration (Kendo successor handoff) ----
    /// Successor scans run by turn holders at release (one per turn
    /// transition).
    pub handoff_scans: u64,
    /// Targeted unparks of a designated successor (scans where the next
    /// thread was parked rather than still polling).
    pub handoff_wakes: u64,
    /// Times a non-designated turn-waiter parked instead of spinning.
    pub turn_parks: u64,
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

impl AddAssign for Stats {
    fn add_assign(&mut self, rhs: Self) {
        macro_rules! add {
            ($($f:ident),* $(,)?) => { $( self.$f += rhs.$f; )* };
        }
        add!(
            locks,
            unlocks,
            waits,
            signals,
            forks,
            joins,
            barriers,
            atomics,
            loads,
            stores,
            stores_with_copy,
            page_faults,
            shared_bytes,
            gc_count,
            gc_reclaimed_slices,
            slices,
            slices_merged,
            slices_propagated,
            slices_filtered_redundant,
            mod_bytes_applied,
            prelock_premerged,
            lazy_deferred_bytes,
            lazy_elided_bytes,
            lazy_protect_calls,
            diff_bytes_scanned,
            snapshot_bytes_copied,
            snapshot_pool_hits,
            snapshot_pool_misses,
            global_fences,
            serial_commits,
            private_pages,
            sync_var_cache_hits,
            sync_var_cache_misses,
            shard_lock_contended,
            queue_lock_contended,
            checkpoints_contributed,
            app_retries,
            app_shed,
            handoff_scans,
            handoff_wakes,
            turn_parks
        );
        // Peaks take the maximum, not the sum.
        self.peak_meta_bytes = self.peak_meta_bytes.max(rhs.peak_meta_bytes);
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
    fn prelock_fraction_bounds() {
        let mut s = Stats::default();
        assert_eq!(s.prelock_fraction(), 0.0);
        s.slices_propagated = 10;
        s.prelock_premerged = 8;
        assert!((s.prelock_fraction() - 0.8).abs() < 1e-12);
    }
}
