//! The memory substrate of the RFDet reproduction.
//!
//! The paper runs "threads" as processes created with `clone()` so each has
//! an isolated address space (§4, Figure 3). This crate provides the
//! software equivalent: a paged, copy-on-write [`PrivateSpace`] over a flat
//! logical address space. It also provides:
//!
//! * [`diff`] — byte-granularity page diffing that converts a page snapshot
//!   plus the current page into a modification list (§4.2, §4.6);
//! * [`SliceSnapshots`] — the open slice's snapshots at dirty-line
//!   granularity: copy and diff only the lines a slice stored to (or, with
//!   a full mask, whole pages), for every deterministic backend;
//! * [`StripAllocator`]/[`ThreadHeap`] — the deterministic shared allocator
//!   replacing the paper's modified Hoard (§4.4): every thread allocates
//!   from a statically assigned strip of the heap area, so allocation is
//!   deterministic without any cross-thread coordination and the same
//!   virtual address is never handed to two threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod alloc;
pub mod diff;
mod page;
pub mod race;
mod snap;
mod space;

pub use alloc::{StripAllocator, ThreadHeap, MAX_HEAP_THREADS};
pub use diff::{ModRun, RunBuilder, RunList, Runs};
pub use page::Page;
pub use race::{RaceCollector, ReadRun, ReadTracker, SliceAccess, WORD_BYTES};
pub use snap::{Recorded, SliceSnapshots, SNAP_POOL_PAGES};
pub use space::PrivateSpace;

/// The maximal spans of consecutive set bits of `mask`, in ascending
/// order, as `(first bit, one past the last bit)`.
pub(crate) fn bit_spans(mask: u64) -> impl Iterator<Item = (usize, usize)> {
    let mut bits = mask;
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let first = bits.trailing_zeros();
        let end = first + (!(bits >> first)).trailing_zeros();
        bits = u64::MAX.checked_shl(end).map_or(0, |above| bits & above);
        Some((first as usize, end as usize))
    })
}

/// Returns the base address of the heap area managed by the shared
/// allocator. Addresses below this (excluding page zero, which is kept
/// unmapped to catch null-pointer-style bugs) form the "static data"
/// region that workloads lay out directly.
#[must_use]
pub fn heap_base(space_bytes: u64) -> u64 {
    space_bytes / 2
}
