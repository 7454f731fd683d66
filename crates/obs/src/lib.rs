//! Deterministic-safe observability for the RFDet runtimes.
//!
//! The runtime's coarse `AtomicStats` counters can say *how many* slices
//! ran, but not *where a slice spends its time* or what the p99
//! `wait_for_turn` stall is — the questions the paper's own evaluation
//! (Tables 1–2, the Fig. 9 scalability study, the prelock ablation) is
//! built on. This crate adds that introspection without
//! perturbing determinism:
//!
//! * [`Histogram`] — log-bucketed (power-of-~1.25) latency histograms
//!   with bounded, allocation-free recording.
//! * [`Phase`] — the instrumented hot phases (wait-for-turn stall,
//!   sync-op end-to-end, slice length in ops and wall time, end-of-slice
//!   diff, snapshot, propagation/apply, idle wakeups, lockstep fence
//!   wait and serial apply).
//! * [`ObsRecorder`] — a per-thread sample ring draining into private
//!   histograms, merged into the run-wide [`ObsSink`] on drop (panic
//!   unwinds included), mirroring the flight recorder's `TraceBuf`.
//! * [`MetricsSnapshot`] — the per-run rollup with phase attribution,
//!   exporting as JSON.
//!
//! # The off-decision-path invariant
//!
//! Timing here is *observed*, never *consulted*: no scheduling,
//! propagation, or conflict-resolution branch may read a clock or a
//! metric. Recording is strictly write-only from the runtime's point of
//! view — values flow from `Instant` reads into these buffers and out
//! through [`MetricsSnapshot`], and nothing flows back. The digest
//! equality suites (`tests/conformance.rs`, the metrics proptests) pin
//! the consequence: outputs and failure reports are bit-identical with
//! metrics on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod hist;
mod phase;
mod sink;
mod snapshot;

pub use hist::{Histogram, NUM_BUCKETS};
pub use phase::{Phase, Unit, NUM_PHASES};
pub use sink::{ObsRecorder, ObsSink};
pub use snapshot::{MetricsSnapshot, PhaseSnapshot};
