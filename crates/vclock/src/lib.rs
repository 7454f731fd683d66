//! Vector clocks and happens-before machinery for RFDet.
//!
//! Deterministic lazy release consistency (DLRC) stamps every *slice* of
//! synchronization-free execution with a vector clock, and decides memory
//! visibility by comparing those timestamps (paper §4.2: "given two slices
//! A and B, A → B if and only if Time(A) < Time(B)").
//!
//! This crate is intentionally small and dependency-free so every other
//! crate in the workspace can share one happens-before implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod clock;

pub use clock::VClock;

/// Thread identifier used throughout the runtime.
///
/// Thread IDs are assigned deterministically by the runtime in creation
/// order (the paper assigns "a deterministic thread ID" at `pthread_create`,
/// §4.1), so they double as the deterministic tie-breaker for conflict
/// resolution and barrier merge order.
pub type Tid = u32;

/// Logical time of a single component of a vector clock.
pub type LTime = u64;
