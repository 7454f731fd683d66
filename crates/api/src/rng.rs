//! A tiny deterministic PRNG for workloads and jitter injection.

use crate::{Tid, JITTER_MAX_US};
use std::time::Duration;

/// SplitMix64 — a fast, high-quality 64-bit PRNG with trivially
/// reproducible state.
///
/// Workloads use this (never wall-clock or OS entropy) so that a workload's
/// behaviour is a pure function of its inputs — the paper's broad notion of
/// *input* includes pseudo-random seeds (§3.4).
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift: adequate uniformity for workload generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Splits off an independent generator (for per-thread streams).
    pub fn split(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// Thread `tid`'s physical-jitter stream under `seed`
    /// ([`crate::RunConfig::jitter_seed`]).
    #[must_use]
    pub fn jitter(seed: u64, tid: Tid) -> Self {
        Self::new(seed ^ u64::from(tid).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next physical pause of a jitter stream: zero on about half the
    /// draws, so fast paths are still exercised, else uniform in
    /// `[0, JITTER_MAX_US]` µs.
    pub fn next_pause(&mut self) -> Duration {
        let r = self.next_u64();
        if r & 1 == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((r >> 1) % (JITTER_MAX_US + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_in_range() {
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = DetRng::new(5);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn next_below_zero_panics() {
        DetRng::new(0).next_below(0);
    }

    #[test]
    fn rough_uniformity() {
        // Not a statistical test — just a sanity check that all buckets of
        // next_below are reachable.
        let mut r = DetRng::new(123);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
