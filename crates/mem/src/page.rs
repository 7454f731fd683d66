//! Pages: exclusively owned, or shared copy-on-write.

use std::sync::Arc;

/// One page of the logical shared space.
///
/// A page is in one of two states. **Owned**: this `Page` alone holds the
/// bytes, and a store is a plain write — no reference count to consult.
/// **Shared**: the bytes sit behind an `Arc` other spaces may also hold,
/// and the first write takes them back (without copying if every other
/// holder is gone, by copying otherwise). [`Page::share`] is the only
/// owned → shared edge and [`Page::bytes_mut`] the only shared → owned
/// one, so a page written between two forks pays for sharing once.
///
/// This mirrors the paper's use of `clone()`-without-`CLONE_VM` plus
/// kernel COW: "the child process will inherit the memory of its creating
/// process automatically" (§4.1), and "all threads are given a copy of
/// T's local memory (using copy-on-write)" at barriers — where, too, a
/// page nobody else maps is written at memory speed.
#[derive(Debug)]
pub struct Page(Repr);

#[derive(Debug)]
enum Repr {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Page {
    /// A fresh zero page of `size` bytes.
    #[must_use]
    pub fn zeroed(size: usize) -> Self {
        Self(Repr::Owned(vec![0; size]))
    }

    /// A page initialized from `data`.
    #[must_use]
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self(Repr::Owned(data))
    }

    /// Read-only view of the page bytes.
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Shared(a) => a,
        }
    }

    /// Mutable view; a shared page becomes owned first.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        if let Repr::Shared(_) = self.0 {
            self.take_ownership();
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Shared(_) => unreachable!("ownership was just taken"),
        }
    }

    /// Shared → owned: unwraps the `Arc` when this is its last holder,
    /// copies the bytes when it is not.
    #[cold]
    fn take_ownership(&mut self) {
        if let Repr::Shared(a) = std::mem::replace(&mut self.0, Repr::Owned(Vec::new())) {
            self.0 = Repr::Owned(Arc::try_unwrap(a).unwrap_or_else(|a| a.to_vec()));
        }
    }

    /// A second handle to this page's bytes: the page becomes shared (if
    /// it was not already) and both handles copy on their next write.
    #[must_use]
    pub fn share(&mut self) -> Self {
        let bytes = match std::mem::replace(&mut self.0, Repr::Owned(Vec::new())) {
            Repr::Owned(v) => Arc::new(v),
            Repr::Shared(a) => a,
        };
        self.0 = Repr::Shared(Arc::clone(&bytes));
        Self(Repr::Shared(bytes))
    }

    /// `true` if another `Page` currently shares the backing storage.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        match &self.0 {
            Repr::Owned(_) => false,
            Repr::Shared(a) => Arc::strong_count(a) > 1,
        }
    }

    /// Copies the current contents into an owned buffer (a *snapshot* in
    /// the paper's terminology, Figure 4 line 6).
    #[must_use]
    pub fn snapshot(&self) -> Box<[u8]> {
        self.bytes().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = Page::zeroed(64);
        assert_eq!(p.bytes().len(), 64);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn cow_isolates_shares() {
        let mut a = Page::zeroed(16);
        let b = a.share();
        assert!(a.is_shared());
        a.bytes_mut()[3] = 9;
        assert!(!a.is_shared());
        assert_eq!(a.bytes()[3], 9);
        assert_eq!(
            b.bytes()[3],
            0,
            "the other handle must not observe the write"
        );
    }

    #[test]
    fn owned_write_does_not_copy() {
        let mut a = Page::zeroed(16);
        let before = a.bytes().as_ptr();
        a.bytes_mut()[0] = 1;
        assert_eq!(a.bytes().as_ptr(), before);
    }

    #[test]
    fn last_holder_takes_the_bytes_back_without_copying() {
        let mut a = Page::from_bytes(vec![5; 16]);
        let before = a.bytes().as_ptr();
        drop(a.share());
        assert!(!a.is_shared(), "the other handle is gone");
        a.bytes_mut()[0] = 1;
        assert_eq!(a.bytes().as_ptr(), before, "unwrapped, not copied");
        assert_eq!(a.bytes()[1], 5);
    }

    #[test]
    fn snapshot_is_independent_copy() {
        let mut a = Page::from_bytes(vec![1, 2, 3]);
        let snap = a.snapshot();
        a.bytes_mut()[0] = 42;
        assert_eq!(&*snap, &[1, 2, 3]);
        assert_eq!(a.bytes()[0], 42);
    }
}
