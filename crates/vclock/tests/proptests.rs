//! Property tests for the vector-clock partial order.
//!
//! DLRC's determinism argument leans entirely on happens-before being a
//! correct partial order with `join` as least-upper-bound and `meet` as
//! greatest-lower-bound, so we check the lattice laws exhaustively.

use proptest::prelude::*;
use rfdet_vclock::{Tid, VClock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

fn arb_vclock() -> impl Strategy<Value = VClock> {
    prop::collection::vec(0u64..50, 0..6).prop_map(VClock::from_components)
}

fn lub(a: &VClock, b: &VClock) -> VClock {
    let mut j = a.clone();
    j.join(b);
    j
}

proptest! {
    #[test]
    fn leq_reflexive(a in arb_vclock()) {
        prop_assert!(a.leq(&a));
    }

    #[test]
    fn leq_antisymmetric(a in arb_vclock(), b in arb_vclock()) {
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn leq_transitive(a in arb_vclock(), b in arb_vclock(), c in arb_vclock()) {
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    #[test]
    fn join_is_least_upper_bound(a in arb_vclock(), b in arb_vclock(), c in arb_vclock()) {
        let j = lub(&a, &b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        // Least: any other upper bound dominates the join.
        if a.leq(&c) && b.leq(&c) {
            prop_assert!(j.leq(&c));
        }
    }

    #[test]
    fn meet_is_greatest_lower_bound(a in arb_vclock(), b in arb_vclock(), c in arb_vclock()) {
        let mut m = a.clone();
        m.meet(&b);
        prop_assert!(m.leq(&a));
        prop_assert!(m.leq(&b));
        if c.leq(&a) && c.leq(&b) {
            prop_assert!(c.leq(&m));
        }
    }

    #[test]
    fn join_commutative_associative(a in arb_vclock(), b in arb_vclock(), c in arb_vclock()) {
        prop_assert_eq!(lub(&a, &b), lub(&b, &a));
        prop_assert_eq!(lub(&lub(&a, &b), &c), lub(&a, &lub(&b, &c)));
    }

    #[test]
    fn tick_strictly_increases(a in arb_vclock(), tid in 0u32..8) {
        let mut b = a.clone();
        b.tick(tid);
        prop_assert!(a.leq(&b) && a != b);
        prop_assert_eq!(b.get(tid), a.get(tid) + 1);
    }

    #[test]
    fn concurrent_slices_stay_unordered_after_independent_ticks(
        a in arb_vclock(), t1 in 0u32..4, t2 in 4u32..8
    ) {
        // Two threads ticking independently from a common ancestor are
        // concurrent — the scenario DLRC must resolve with the tid
        // tie-breaker.
        let mut x = a.clone();
        let mut y = a.clone();
        x.tick(t1);
        y.tick(t2);
        prop_assert!(!x.leq(&y) && !y.leq(&x));
    }
}

/// The reference model: a clock as the map of its nonzero components,
/// written without any of `VClock`'s storage (no inline buffer, no
/// spill, no trimming).
type Model = BTreeMap<Tid, u64>;

fn model(parts: &[u64]) -> Model {
    let nonzero = parts.iter().enumerate().filter(|(_, &t)| t != 0);
    nonzero.map(|(i, &t)| (i as Tid, t)).collect()
}

fn model_leq(a: &Model, b: &Model) -> bool {
    a.iter().all(|(tid, t)| b.get(tid).is_some_and(|u| t <= u))
}

fn model_merge(a: &Model, b: &Model, pick: fn(u64, u64) -> u64) -> Model {
    let tids: BTreeSet<Tid> = a.keys().chain(b.keys()).copied().collect();
    let at = |m: &Model, tid| m.get(&tid).copied().unwrap_or(0);
    let merged = tids
        .into_iter()
        .map(|tid| (tid, pick(at(a, tid), at(b, tid))));
    merged.filter(|&(_, t)| t != 0).collect()
}

fn hash_of(c: &VClock) -> u64 {
    let mut h = DefaultHasher::new();
    c.hash(&mut h);
    h.finish()
}

/// `c` holds exactly `m`: every component up past the widest clock
/// generated, and equality and hashing against the same clock built
/// from the model's pairs.
fn holds(c: &VClock, m: &Model) {
    for tid in 0..24 {
        assert_eq!(c.get(tid), m.get(&tid).copied().unwrap_or(0), "tid {tid}");
    }
    let rebuilt: VClock = m.iter().map(|(&tid, &t)| (tid, t)).collect();
    assert_eq!(c, &rebuilt);
    assert_eq!(hash_of(c), hash_of(&rebuilt));
}

/// Clocks of 0 to 20 components with small values, so that they cross
/// the 7-component inline capacity and often compare equal or ordered.
fn arb_parts() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4, 0..=20)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn clocks_across_the_inline_boundary_match_the_map_model(
        x in arb_parts(), y in arb_parts()
    ) {
        let (a, b) = (VClock::from_components(x.clone()), VClock::from_components(y.clone()));
        let (ma, mb) = (model(&x), model(&y));
        holds(&a, &ma);
        holds(&b, &mb);
        prop_assert_eq!(a.leq(&b), model_leq(&ma, &mb));
        prop_assert_eq!(b.leq(&a), model_leq(&mb, &ma));
        prop_assert_eq!(a == b, ma == mb);
        if ma == mb {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        let mut joined = a.clone();
        joined.join(&b);
        holds(&joined, &model_merge(&ma, &mb, u64::max));
        let mut met = a.clone();
        met.meet(&b);
        holds(&met, &model_merge(&ma, &mb, u64::min));
        holds(&a.clone(), &ma);
        // `clone_from` in both directions: a wide destination keeps its
        // heap buffer for a narrow source, a narrow one spills for a
        // wide source.
        let mut copied = a.clone();
        copied.clone_from(&b);
        holds(&copied, &mb);
        prop_assert_eq!(&copied, &b);
        copied.clone_from(&a);
        holds(&copied, &ma);
    }
}
