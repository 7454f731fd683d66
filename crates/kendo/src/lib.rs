//! Kendo-style deterministic synchronization arbitration (paper §2, §4.1).
//!
//! "A thread is allowed to perform synchronization only if it has executed
//! fewer instructions than all other threads." This crate implements that
//! rule over *logical* instruction counts (the `instrTick` instrumentation
//! of §4.1 — the paper deliberately avoids hardware performance counters
//! because their determinism is unproven).
//!
//! # Protocol
//!
//! Every thread has a *slot* holding a monotone logical clock and a status
//! (`Active`, `Blocked`, `Finished`). A synchronization operation may
//! execute only while its thread is the unique minimum of
//! `(clock, tid)` over all `Active` threads — [`KendoState::wait_for_turn`]
//! blocks until then. The operation runs, mutates whatever deterministic
//! state it needs, and finally calls [`KendoState::release_turn`] (a tick
//! plus the successor scan), which releases the turn.
//!
//! *Which* thread runs next is a pure function of the clocks; *how* the
//! next thread finds out is an implementation choice: the releasing turn
//! holder computes the successor and hands it a baton (one scan per
//! transition, everyone else parks). A waiter that is not named, and a
//! blocked thread waiting for its waker, wait in one loop (spin, yield
//! for a learned budget, sleep) whose starvation bound is *quiet* time:
//! it starves only once no thread's clock or status has moved for the
//! whole bound. This crate's
//! tests hold the admitted `(tid, clock)` sequence equal to a sequential
//! model of the rule above that shares no code with the arbiter.
//!
//! # The invariants that make this deterministic
//!
//! 1. Clocks never decrease, and a thread's clock advances only through
//!    its own execution (or a waker's deterministic handoff).
//! 2. While a thread holds the turn it is *strictly* minimal, so turn
//!    bodies are serialized in real time **in `(clock, tid)` order** — the
//!    same order in every run.
//! 3. A blocked thread is reactivated only *inside the turn of the thread
//!    that deterministically causes the wakeup* (unlocker, signaler, last
//!    barrier arriver, exiting joinee), with a new clock strictly greater
//!    than the waker's. The reactivated slot is therefore visible to every
//!    later turn-taker in every run, and the waker stays minimal until its
//!    own tick.
//!
//! 4. A thread publishes its clock in chunks ([`TickBatch`], one
//!    [`PUBLISH_STRIDE`] at a time, as Kendo does) and exactly at every
//!    point that reads or orders by it. A published clock is a lower bound
//!    of the true one; admission compares the candidate's *exact* clock
//!    against those lower bounds, so a lagging peer delays an admission
//!    and never changes which thread is admitted.
//!
//! Together these give: the sequence of turn bodies, and everything they
//! observe, is a pure function of logical clocks — physical timing only
//! affects *when* things happen, never *what* happens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod state;

pub use state::{
    Aborted, KendoHandle, KendoState, Starved, Status, TickBatch, WakeTap, MAX_THREADS,
    PUBLISH_STRIDE,
};
