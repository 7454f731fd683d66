//! The [`VClock`] type.

use crate::{LTime, Tid};
use std::fmt;

/// Components stored inline before spilling to the heap: main and six
/// workers, so that a whole clock (a length byte, the enum tag and seven
/// components) is one 64-byte cache line. Every sync op copies a clock
/// several times and hands some of those copies to other cores; at 16
/// components a clock was 136 bytes, three lines. Clocks that grow past
/// this spill to a `Vec` and never come back (spilling is one-way, like
/// `Vec` growth).
const INLINE: usize = 7;

/// Storage: a fixed inline buffer for small clocks, a `Vec` past that.
///
/// Invariant (`Inline`): `buf[len..]` is all zeros, so componentwise
/// loops may read the full buffer and `trim` only needs to move `len`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [LTime; INLINE] },
    Heap(Vec<LTime>),
}

/// A vector clock over deterministic thread IDs.
///
/// Components for threads beyond the stored length are implicitly zero, so
/// clocks created before a thread existed compare correctly against clocks
/// created after it. Storage is indexed by [`Tid`]; thread IDs are dense
/// (assigned in creation order) so this is compact, and clocks of up to
/// 7 threads live entirely inline in one 64-byte line (no heap
/// allocation — the hot propagation paths clone and scratch-copy clocks
/// constantly, and a sync op hands its copies to other cores). Wider
/// clocks spill to the heap once and stay there.
///
/// `VClock` implements the standard partial order used by DLRC:
/// `a ≤ b` iff every component of `a` is ≤ the corresponding component of
/// `b`; `a < b` (a *happens before* b) iff `a ≤ b` and `a ≠ b`.
pub struct VClock {
    repr: Repr,
}

const _: () = assert!(
    std::mem::size_of::<VClock>() == 64,
    "a clock is one cache line"
);

impl Default for VClock {
    fn default() -> Self {
        Self {
            repr: Repr::Inline {
                len: 0,
                buf: [0; INLINE],
            },
        }
    }
}

impl Clone for VClock {
    fn clone(&self) -> Self {
        Self {
            repr: self.repr.clone(),
        }
    }

    /// Allocation-reusing copy: a heap destination keeps its buffer
    /// (`clear` + `extend`), an inline destination is a plain memcpy.
    /// The propagation scratch clocks lean on this.
    fn clone_from(&mut self, source: &Self) {
        if let Repr::Heap(dst) = &mut self.repr {
            dst.clear();
            dst.extend_from_slice(source.as_slice());
        } else {
            self.repr = source.repr.clone();
        }
    }
}

/// Equality and hashing are over the *stored* components, exactly as the
/// previous `Vec`-backed derive behaved: `⟨1,0⟩` (stored length 2) and
/// `⟨1⟩` (stored length 1) are distinct. Construction paths that trim
/// (`from_components`, `meet`) keep semantically-equal clocks equal in
/// practice; preserving the storage-sensitive semantics keeps every
/// existing digest and test stable.
impl PartialEq for VClock {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VClock {}

impl std::hash::Hash for VClock {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Matches the old derived impl: `Vec` hashes as its slice.
        self.as_slice().hash(state);
    }
}

impl VClock {
    /// An all-zero clock (the minimum element of the partial order).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a clock from raw components (mostly for tests).
    #[must_use]
    pub fn from_components(components: Vec<LTime>) -> Self {
        let mut c = if components.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..components.len()].copy_from_slice(&components);
            Self {
                repr: Repr::Inline {
                    len: components.len() as u8,
                    buf,
                },
            }
        } else {
            Self {
                repr: Repr::Heap(components),
            }
        };
        c.trim();
        c
    }

    /// The stored components (implicit zeros beyond the end).
    #[inline]
    fn as_slice(&self) -> &[LTime] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [LTime] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Grows the stored length to at least `n` (zero-filling), spilling
    /// inline storage to the heap when `n` exceeds the inline capacity.
    fn grow_to(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if n <= INLINE {
                    if n > *len as usize {
                        *len = n as u8; // buf[len..] already zero
                    }
                } else {
                    let mut v = Vec::with_capacity(n);
                    v.extend_from_slice(&buf[..*len as usize]);
                    v.resize(n, 0);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => {
                if n > v.len() {
                    v.resize(n, 0);
                }
            }
        }
    }

    /// Shrinks the stored length to at most `n`.
    fn truncate(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if n < *len as usize {
                    buf[n..*len as usize].fill(0); // restore the invariant
                    *len = n as u8;
                }
            }
            Repr::Heap(v) => v.truncate(n),
        }
    }

    /// The logical time of thread `tid` in this clock.
    #[inline]
    #[must_use]
    pub fn get(&self, tid: Tid) -> LTime {
        self.as_slice().get(tid as usize).copied().unwrap_or(0)
    }

    /// Sets the component for `tid` to `time`.
    pub fn set(&mut self, tid: Tid, time: LTime) {
        let idx = tid as usize;
        if idx >= self.len() {
            if time == 0 {
                return;
            }
            self.grow_to(idx + 1);
        }
        self.as_mut_slice()[idx] = time;
    }

    /// Increments the component for `tid` by one and returns the new value.
    pub fn tick(&mut self, tid: Tid) -> LTime {
        let idx = tid as usize;
        if idx >= self.len() {
            self.grow_to(idx + 1);
        }
        let c = &mut self.as_mut_slice()[idx];
        *c += 1;
        *c
    }

    /// Componentwise maximum: `self ⊔= other`.
    ///
    /// This is the least-upper-bound used at acquire operations (paper
    /// §4.2: "update the vector clock to `timestamp ⊔ Time(R)`").
    pub fn join(&mut self, other: &Self) {
        let theirs = other.as_slice();
        if theirs.len() > self.len() {
            self.grow_to(theirs.len());
        }
        for (mine, theirs) in self.as_mut_slice().iter_mut().zip(theirs) {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
    }

    /// Componentwise minimum: `self ⊓= other`.
    ///
    /// The greatest-lower-bound over all live threads' clocks identifies
    /// garbage slices (paper §4.5: "a slice is garbage when the timestamp of
    /// the slice is less than the current vector clock of every thread").
    pub fn meet(&mut self, other: &Self) {
        // Missing components are zero, so the meet can never be longer than
        // the shorter operand.
        let theirs = other.as_slice();
        self.truncate(theirs.len());
        for (mine, theirs) in self.as_mut_slice().iter_mut().zip(theirs) {
            if *theirs < *mine {
                *mine = *theirs;
            }
        }
        self.trim();
    }

    /// `true` iff every component of `self` is ≤ the matching component of
    /// `other` — i.e. `self` happens-before-or-equals `other`.
    ///
    /// This is the predicate behind both propagation filters of paper
    /// Figure 5: a slice is inside the *upperlimit* when
    /// `slice.time ≤ upperlimit`, and already seen (below the *lowerlimit*)
    /// when `slice.time ≤ lowerlimit`.
    #[inline]
    #[must_use]
    pub fn leq(&self, other: &Self) -> bool {
        let mine = self.as_slice();
        let theirs = other.as_slice();
        if mine.len() > theirs.len() && mine[theirs.len()..].iter().any(|&c| c != 0) {
            return false;
        }
        mine.iter().zip(theirs).all(|(a, b)| a <= b)
    }

    /// Scalar-epoch inclusion: `true` iff an event stamped `time` on
    /// `tid`'s clock happens-before-or-at this clock — FastTrack's
    /// `e ⊑ V` check, the race detector's one comparison per epoch. An
    /// epoch `(tid, time)` stands for the full clock of the access that
    /// created it; since that access's own component was `time` and every
    /// later access by `tid` only grows it, `time ≤ self[tid]` is exactly
    /// "this clock has propagated past the access".
    #[inline]
    #[must_use]
    pub fn includes(&self, tid: Tid, time: LTime) -> bool {
        self.get(tid) >= time
    }

    /// Number of stored components (threads this clock has heard of).
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` iff the clock is the zero clock.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().iter().all(|&c| c == 0)
    }

    /// Approximate heap footprint, for metadata-space accounting.
    /// Inline clocks cost no heap at all — the common case after the
    /// small-vec change, which is the point.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<LTime>(),
        }
    }

    /// The stored components, exactly as held (including interior
    /// zeros). This is the codec projection: feeding the result back
    /// through [`VClock::from_components`] reconstructs an equal clock,
    /// which [`VClock::iter`] (skips zeros) cannot guarantee on its own
    /// because equality and hashing are storage-sensitive.
    #[must_use]
    pub fn components(&self) -> Vec<LTime> {
        self.as_slice().to_vec()
    }

    /// Iterates `(tid, time)` pairs with nonzero time.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, LTime)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != 0)
            .map(|(i, &t)| (i as Tid, t))
    }

    fn trim(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                // buf[len..] is already zero: only the length moves.
                while *len > 0 && buf[*len as usize - 1] == 0 {
                    *len -= 1;
                }
            }
            Repr::Heap(v) => {
                while v.last() == Some(&0) {
                    v.pop();
                }
            }
        }
    }
}

impl fmt::Debug for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VClock{:?}", self.as_slice())
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<(Tid, LTime)> for VClock {
    fn from_iter<I: IntoIterator<Item = (Tid, LTime)>>(iter: I) -> Self {
        let mut c = VClock::new();
        for (tid, t) in iter {
            c.set(tid, t);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(parts: &[LTime]) -> VClock {
        VClock::from_components(parts.to_vec())
    }

    #[test]
    fn zero_clock_is_minimum() {
        let z = VClock::new();
        let a = vc(&[1, 2]);
        assert!(z.leq(&a));
        assert!(!a.leq(&z));
        assert!(z.leq(&z));
    }

    #[test]
    fn get_and_set_roundtrip() {
        let mut c = VClock::new();
        assert_eq!(c.get(7), 0);
        c.set(7, 42);
        assert_eq!(c.get(7), 42);
        assert_eq!(c.get(6), 0);
        assert_eq!(c.get(8), 0);
    }

    #[test]
    fn set_zero_beyond_len_is_noop() {
        let mut c = VClock::new();
        c.set(100, 0);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn tick_increments() {
        let mut c = VClock::new();
        assert_eq!(c.tick(2), 1);
        assert_eq!(c.tick(2), 2);
        assert_eq!(c.get(2), 2);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn leq_with_different_lengths() {
        let short = vc(&[1]);
        let long = vc(&[1, 0, 3]);
        assert!(short.leq(&long));
        assert!(!long.leq(&short));
        // Trailing zeros in the longer clock must not break symmetry.
        let padded = vc(&[1, 0, 0]);
        assert!(padded.leq(&short));
        assert!(short.leq(&padded));
        assert_eq!(padded, short); // from_components trims
    }

    #[test]
    fn join_is_lub() {
        let mut a = vc(&[3, 1]);
        let b = vc(&[2, 5, 7]);
        a.join(&b);
        assert_eq!(a, vc(&[3, 5, 7]));
        assert!(vc(&[3, 1]).leq(&a));
        assert!(b.leq(&a));
    }

    #[test]
    fn meet_is_glb() {
        let a = vc(&[3, 1, 9]);
        let b = vc(&[2, 5]);
        let mut m = a.clone();
        m.meet(&b);
        assert_eq!(m, vc(&[2, 1]));
        assert!(m.leq(&a));
        assert!(m.leq(&b));
    }

    #[test]
    fn display_formats() {
        let a = vc(&[1, 2]);
        assert_eq!(format!("{a}"), "⟨1,2⟩");
        assert_eq!(format!("{a:?}"), "VClock[1, 2]");
    }

    #[test]
    fn from_iter_builds_sparse() {
        let c: VClock = [(3u32, 5u64), (0, 1)].into_iter().collect();
        assert_eq!(c.get(0), 1);
        assert_eq!(c.get(3), 5);
        assert_eq!(c.get(2), 0);
    }

    #[test]
    fn iter_skips_zeros() {
        let c = vc(&[0, 2, 0, 4]);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn small_clocks_stay_inline() {
        let mut c = VClock::new();
        for t in 0..INLINE as Tid {
            c.tick(t);
        }
        assert_eq!(c.heap_bytes(), 0, "7 threads fit inline");
        assert_eq!(c.len(), INLINE);
    }

    #[test]
    fn spill_past_inline_capacity_preserves_components() {
        let mut c = VClock::new();
        for t in 0..INLINE as Tid {
            c.set(t, u64::from(t) + 1);
        }
        assert_eq!(c.heap_bytes(), 0);
        c.set(INLINE as Tid, 99); // component 8: spills
        assert!(c.heap_bytes() > 0);
        for t in 0..INLINE as Tid {
            assert_eq!(c.get(t), u64::from(t) + 1, "spill keeps old components");
        }
        assert_eq!(c.get(INLINE as Tid), 99);
        // Cross-representation comparisons still work.
        let inline = vc(&[1]);
        assert!(inline.leq(&c));
        assert!(!c.leq(&inline));
    }

    #[test]
    fn ops_work_identically_across_the_spill_boundary() {
        // join an inline clock into a heap clock and vice versa.
        let big: VClock = (0..20).map(|t| (t as Tid, t as LTime + 1)).collect();
        let small = vc(&[100, 0, 3]);
        let (mut j1, mut j2) = (big.clone(), small.clone());
        j1.join(&small);
        j2.join(&big);
        assert_eq!(j1, j2);
        assert_eq!(j1.get(0), 100);
        assert_eq!(j1.get(19), 20);
        let mut m = big.clone();
        m.meet(&small);
        assert_eq!(m, vc(&[1, 0, 3]), "meet truncates to the shorter clock");
    }

    #[test]
    fn truncate_restores_the_inline_zero_invariant() {
        // meet() shrinks then trims: interior state must stay consistent.
        let a = vc(&[1, 2, 3, 4]);
        let mut b = a.clone();
        b.meet(&vc(&[1])); // -> ⟨1⟩
        assert_eq!(b, vc(&[1]));
        // Regrow through the zeroed region: old bytes must not resurface.
        b.set(3, 7);
        assert_eq!(b.get(1), 0);
        assert_eq!(b.get(2), 0);
        assert_eq!(b.get(3), 7);
    }

    #[test]
    fn clone_from_reuses_heap_allocation() {
        let big: VClock = (0..20).map(|t| (t as Tid, 5)).collect();
        let mut scratch = big.clone();
        let small = vc(&[1, 2]);
        scratch.clone_from(&small);
        assert_eq!(scratch, small);
        assert!(
            scratch.heap_bytes() > 0,
            "heap destination keeps its buffer for reuse"
        );
        scratch.clone_from(&big);
        assert_eq!(scratch, big);
    }

    #[test]
    fn eq_and_hash_remain_storage_sensitive() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |c: &VClock| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        // set() inside the stored range can leave trailing zeros stored:
        // such clocks are *stored-length* distinct, as with the old Vec.
        let mut padded = vc(&[1, 5]);
        padded.set(1, 0); // stored ⟨1,0⟩
        let trimmed = vc(&[1]);
        assert_ne!(padded, trimmed);
        assert_ne!(hash(&padded), hash(&trimmed));
        assert_eq!(hash(&vc(&[1, 2, 3])), hash(&vc(&[1, 2, 3])));
    }
}
