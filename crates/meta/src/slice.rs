//! Published slices.

use rfdet_mem::{ModRun, ReadRun, RunList, Runs};
use rfdet_vclock::{Tid, VClock};
use std::sync::Arc;

/// An immutable, published slice: the paper's
/// `<tid, modifications, timestamp>` triple (§4.2) plus a per-thread
/// sequence number for debugging and deterministic identity.
#[derive(Debug)]
pub struct SliceRec {
    /// Thread that executed the slice.
    pub tid: Tid,
    /// Index of this slice within its thread (0-based).
    pub seq: u64,
    /// Vector-clock timestamp taken at slice start.
    pub time: VClock,
    /// Ordered byte-granularity modifications computed by page diffing,
    /// in one shared arena: every consumer of the slice — each acquiring
    /// thread, transitive propagation — shares it instead of copying runs.
    pub mods: RunList,
    /// Word-granular read runs, recorded only when the run detects races
    /// (empty otherwise — read sets never influence propagation, they
    /// ride the slice so the detecting thread can check them against its
    /// epoch table). Boxed, not shared: only the detecting thread reads
    /// it, and an empty box allocates nothing.
    pub reads: Box<[ReadRun]>,
    /// Per-thread sync-op index of the operation that sealed the slice —
    /// the race detector's backend-independent logical coordinate. Zero
    /// when detection is off (the counter still exists, but stamping it
    /// is detection-only bookkeeping).
    pub sync_op: u64,
    /// `true` for the mini-slice an atomic RMW executes in. Atomics are
    /// synchronization, not data accesses — the detector skips atomic
    /// slices entirely (their happens-before edges still flow through
    /// the recorded release clocks).
    pub atomic: bool,
    heap_bytes: usize,
}

/// Shared handle to a published slice. Slice-pointer lists store these;
/// the backing memory is freed when the last list drops its pointer.
pub type SliceRef = Arc<SliceRec>;

impl SliceRec {
    /// A slice of boxed runs, packed into one arena here.
    #[must_use]
    pub fn new(tid: Tid, seq: u64, time: VClock, mods: Vec<ModRun>) -> Self {
        Self::sealed(tid, seq, time, RunList::pack(&mods))
    }

    /// A slice of runs already sealed into their arena. Its metadata
    /// footprint is exact: the arena (bytes, 4 per run and 8 per window
    /// group), the clock's heap and the record itself.
    #[must_use]
    pub fn sealed(tid: Tid, seq: u64, time: VClock, mods: RunList) -> Self {
        let heap_bytes = mods.heap_bytes() + time.heap_bytes() + std::mem::size_of::<Self>();
        Self {
            tid,
            seq,
            time,
            mods,
            reads: Box::default(),
            sync_op: 0,
            atomic: false,
            heap_bytes,
        }
    }

    /// Attaches the race detector's access metadata (read set, sealing
    /// sync-op coordinate, atomic-slice flag), charging the read runs to
    /// the slice's metadata-space footprint.
    #[must_use]
    pub fn with_access(mut self, reads: Vec<ReadRun>, sync_op: u64, atomic: bool) -> Self {
        self.heap_bytes += reads.len() * std::mem::size_of::<ReadRun>();
        self.reads = reads.into();
        self.sync_op = sync_op;
        self.atomic = atomic;
        self
    }

    /// Metadata-space bytes consumed by this slice (used for the GC
    /// trigger, §4.5).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Total modified bytes.
    #[must_use]
    pub fn mod_bytes(&self) -> usize {
        self.mods.byte_len()
    }

    /// `true` when the slice carries no modifications (it still carries
    /// happens-before information and is still published — an empty slice
    /// is how a redundant write stays invisible, §4.6).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mods.count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_bytes_are_the_arena_the_clock_and_the_record() {
        let mods = vec![
            ModRun::new(0, vec![1, 2, 3].into()),
            ModRun::new(64, vec![4].into()),
        ];
        let time = VClock::from_components(vec![1; 40]);
        let clock = time.heap_bytes();
        assert!(clock > 0, "a clock past the inline capacity");
        let s = SliceRec::new(1, 0, time, mods);
        assert_eq!(s.mod_bytes(), 4);
        assert_eq!(
            s.heap_bytes(),
            4 + 4 * 2 + 8 + clock + std::mem::size_of::<SliceRec>(),
            "bytes, an entry a run, one window header"
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn access_metadata_rides_and_is_accounted() {
        let plain = SliceRec::new(1, 0, VClock::new(), vec![]);
        assert!(plain.reads.is_empty());
        assert!(!plain.atomic);
        let tagged = SliceRec::new(1, 0, VClock::new(), vec![]).with_access(
            vec![ReadRun { addr: 64, words: 2 }],
            7,
            true,
        );
        assert_eq!(tagged.reads.len(), 1);
        assert_eq!(tagged.sync_op, 7);
        assert!(tagged.atomic);
        assert!(tagged.heap_bytes() > plain.heap_bytes());
    }

    #[test]
    fn empty_slice() {
        let s = SliceRec::new(0, 5, VClock::from_components(vec![2]), vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mod_bytes(), 0);
        assert_eq!(s.seq, 5);
    }
}
