//! Flat per-page store for lazy-write pending queues (§4.5).
//!
//! The first lazy-writes implementation kept pending queues in a
//! `BTreeMap<usize, Vec<RunRange>>`. Profiling the propagate-heavy
//! adversary showed the map itself was the residual cost: the average
//! fault applies only a few bytes, so the `remove` on every fault and
//! the `entry().or_default()` on every deposit — pointer-chasing tree
//! ops — dominated the actual memory work. This table replaces them
//! with direct indexing: a `Vec` of queues addressed by page number,
//! where deposit and take are a bounds check and a slot access.
//!
//! Capacity is never thrown away. [`PendingTable::take`] hands the
//! caller the queue for application and [`PendingTable::put_back`]
//! returns the (cleared) vector to its slot, so steady-state faults
//! allocate nothing — the same recycling discipline as `snap_pool` and
//! the fault-side [`rfdet_mem::PageOverlay`].

use rfdet_mem::RunRange;

/// Per-page pending lazy-write queues, indexed by page number.
#[derive(Debug, Default)]
pub(crate) struct PendingTable {
    /// `slots[page]` holds the page's deposits in propagation order.
    /// Grown on demand to the highest deposited page; empty slots keep
    /// their capacity across fault/deposit cycles.
    slots: Vec<Vec<RunRange>>,
    /// Number of pages with a non-empty queue. The access-path gate:
    /// when zero, reads and writes skip the per-page check entirely.
    len: usize,
}

impl PendingTable {
    /// True iff no page has pending modifications.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages with pending modifications.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True iff `page` has pending modifications — the page is
    /// `NO_ACCESS` (§4.5): its protection is its non-empty queue.
    #[inline]
    pub(crate) fn contains(&self, page: usize) -> bool {
        self.slots.get(page).is_some_and(|q| !q.is_empty())
    }

    /// Appends a deposit to `page`'s queue. Returns `true` when this is
    /// the first pending deposit on the page — the deposit that makes it
    /// `NO_ACCESS` (a page is protected exactly while its queue is
    /// non-empty; see [`Self::contains`]).
    #[inline]
    pub(crate) fn push(&mut self, page: usize, group: RunRange) -> bool {
        if page >= self.slots.len() {
            self.slots.resize_with(page + 1, Vec::new);
        }
        let slot = &mut self.slots[page];
        let first = slot.is_empty();
        if first {
            self.len += 1;
        }
        slot.push(group);
        first
    }

    /// Detaches `page`'s queue for application, or `None` when nothing
    /// is pending. The caller must clear the returned vector and hand
    /// it to [`Self::put_back`] so the slot keeps its capacity.
    #[inline]
    pub(crate) fn take(&mut self, page: usize) -> Option<Vec<RunRange>> {
        let slot = self.slots.get_mut(page)?;
        if slot.is_empty() {
            return None;
        }
        self.len -= 1;
        Some(std::mem::take(slot))
    }

    /// Returns a queue vector taken by [`Self::take`] to its slot,
    /// preserving its capacity for the next deposit burst.
    #[inline]
    pub(crate) fn put_back(&mut self, page: usize, queue: Vec<RunRange>) {
        debug_assert!(queue.is_empty(), "put_back expects a cleared queue");
        debug_assert!(
            self.slots[page].is_empty(),
            "slot {page} re-filled while its queue was detached"
        );
        self.slots[page] = queue;
    }

    /// Pages with pending modifications, in ascending page order (the
    /// deterministic flush order).
    pub(crate) fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(p, _)| p)
    }

    /// The queues of all pending pages, in ascending page order.
    #[cfg(test)]
    pub(crate) fn values(&self) -> impl Iterator<Item = &Vec<RunRange>> {
        self.slots.iter().filter(|q| !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_mem::{ModRun, RunList};

    fn group() -> RunRange {
        let list = RunList::pack(&[ModRun::new(0, vec![1, 2].into())]);
        RunRange::new(&list, 0, 1)
    }

    #[test]
    fn push_reports_first_deposit_per_page() {
        let mut t = PendingTable::default();
        assert!(t.is_empty());
        assert!(t.push(3, group()), "first deposit");
        assert!(!t.push(3, group()), "second deposit on the same page");
        assert!(t.push(0, group()));
        assert_eq!(t.len(), 2);
        assert!(t.contains(3) && t.contains(0) && !t.contains(1));
        assert!(!t.contains(1 << 20), "beyond any slot ever grown");
        assert_eq!(t.pages().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn take_then_put_back_keeps_capacity() {
        let mut t = PendingTable::default();
        for _ in 0..8 {
            t.push(5, group());
        }
        let mut q = t.take(5).expect("page 5 pending");
        assert_eq!(q.len(), 8);
        assert!(t.is_empty());
        assert!(t.take(5).is_none(), "already drained");
        let cap = q.capacity();
        q.clear();
        t.put_back(5, q);
        // The next deposit burst reuses the recycled buffer: the slot
        // starts with the old capacity, so no allocation below it.
        assert!(t.push(5, group()));
        let q2 = t.take(5).expect("pending again");
        assert_eq!(q2.capacity(), cap);
    }

    #[test]
    fn take_of_unknown_page_is_none() {
        let mut t = PendingTable::default();
        assert!(t.take(0).is_none());
        assert!(t.take(1 << 20).is_none(), "beyond any slot ever grown");
    }
}
