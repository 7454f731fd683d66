//! A from-scratch DThreads-model backend (Liu, Curtsinger, Berger —
//! SOSP'11), the paper's main comparison point, plus the
//! CoreDet/DMP-style quantum backend over the same *lockstep engine*.
//!
//! # The model (paper §2, Figure 1)
//!
//! Execution alternates between:
//!
//! * a **parallel phase** — threads run isolated in private spaces; the
//!   phase ends when *every* live thread reaches a synchronization
//!   operation (this wait is the implicit **global fence** RFDet
//!   eliminates);
//! * a **serial phase** — in deterministic token order (ascending thread
//!   ID), each arrived thread commits its byte-granularity diffs into the
//!   *global store* and executes its synchronization operation against
//!   global state; afterwards every thread whose operation completed
//!   re-bases its private space on the new global store (copy-on-write).
//!
//! The two costs the RFDet paper attributes to this design are both
//! visible here by construction: a compute-heavy thread delays every
//! fence (imbalance), and all commits serialize through the token.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
mod ctx;
mod detect;
mod engine;

pub use backend::{DthreadsBackend, QuantumBackend, QUANTUM_TICKS};
