//! The backend-independent DMT programming surface.
//!
//! RFDet (the paper) interposes on POSIX pthreads: programs call
//! `pthread_mutex_lock`, `pthread_create`, … and the runtime substitutes
//! deterministic implementations. In this reproduction the equivalent
//! surface is the [`DmtCtx`] trait: workloads are written once against
//! `&mut dyn DmtCtx` and can then run on any backend —
//!
//! * `rfdet-core` — the paper's contribution (DLRC, no global barriers),
//! * `rfdet-dthreads` — the DThreads comparison point and a
//!   CoreDet/DMP-style lockstep-quantum design over the same engine,
//! * `rfdet-native` — plain nondeterministic "pthreads".
//!
//! Shared memory is a flat logical byte space addressed by [`Addr`];
//! deterministic backends give every thread a private view of it and
//! propagate modifications according to their memory model. `tick`
//! models the compile-time instruction-count instrumentation the paper
//! inserts in every basic block (§4.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod backend;
mod config;
mod ctx;
mod error;
mod fault;
pub mod harness;
mod pod;
mod race;
mod retry;
mod rng;
mod stats;

pub use backend::{DmtBackend, Replay, RunOutput, TracedRun};
pub use config::{ConfigError, RfdetOpts, RunConfig, JITTER_MAX_US, MIN_SPACE_BYTES};
pub use ctx::{AtomicOp, BarrierId, CondId, DmtCtx, DmtCtxExt, MutexId, ThreadFn, ThreadHandle};
pub use error::{FailureReport, RunError, ThreadReport, WaitEdge, WaitTarget};
pub use fault::{FaultPlan, SyncOpFault};
pub use harness::{RunHarness, SyncOp, ThreadHarness};
pub use pod::Pod;
pub use race::{races_digest, render_races, AccessKind, RaceReport, RaceSite};
pub use retry::RetryPolicy;
pub use rng::DetRng;
pub use stats::{AtomicStats, Stats};

pub use rfdet_obs as obs;
pub use rfdet_trace as trace;
pub use rfdet_trace::digest;
pub use rfdet_trace::{FailureKind, FaultAction, FaultSpec, RunTrace};
pub use rfdet_vclock::Tid;

/// A byte address in the logical shared memory space.
pub type Addr = u64;
