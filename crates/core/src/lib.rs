//! RFDet — deterministic multithreading without global barriers.
//!
//! This crate is the paper's primary contribution: a runtime implementing
//! **deterministic lazy release consistency** (DLRC, §3):
//!
//! 1. synchronization operations execute in a deterministic total order
//!    (Kendo arbitration, `rfdet-kendo`);
//! 2. each thread runs in a private memory space (`rfdet-mem`), and a
//!    modification by thread T1 is visible in T2 **iff** it happens-before
//!    T2's current instruction — enforced by slicing execution at
//!    synchronization operations, timestamping slices with vector clocks,
//!    and propagating slice modification lists at acquire operations with
//!    the upper/lower-limit filter of paper Figure 5.
//!
//! There are **no global barriers anywhere in this crate** — the property
//! the paper's title advertises. A thread that performs no synchronization
//! never blocks; threads contending on one lock never delay a third.
//!
//! # Quick start
//!
//! ```
//! use rfdet_api::{DmtBackend, DmtCtxExt, MutexId, RunConfig};
//! use rfdet_core::RfdetBackend;
//!
//! let backend = RfdetBackend::ci();
//! let out = backend.run_expect(&RunConfig::small(), Box::new(|ctx| {
//!     let m = MutexId(0);
//!     let counter = 4096; // an address in the static region
//!     let children: Vec<_> = (0..2)
//!         .map(|_| {
//!             ctx.spawn(Box::new(move |ctx| {
//!                 for _ in 0..100 {
//!                     ctx.lock(m);
//!                     let v: u64 = ctx.read(counter);
//!                     ctx.write(counter, v + 1);
//!                     ctx.unlock(m);
//!                 }
//!             }))
//!         })
//!         .collect();
//!     for c in children {
//!         ctx.join(c);
//!     }
//!     let total: u64 = ctx.read(counter);
//!     ctx.emit_str(&format!("total={total}"));
//! }));
//! assert_eq!(out.output, b"total=200");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
mod checkpoint;
mod ctx;
pub mod failover;
mod pending;
mod propagation;
mod race;
mod resume;
mod shared;
mod slices;
mod supervise;
mod sync;

pub use backend::{MonitorMode, RfdetBackend};
pub use ctx::RfdetCtx;
pub use failover::{recover, run_failover, FailoverReport};
pub use resume::{replay_chain, ChainDivergence, ChainReplay};
