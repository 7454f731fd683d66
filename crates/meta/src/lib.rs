//! The metadata space (paper §4, Figure 3).
//!
//! In RFDet the *metadata space* is a shared-memory region mapped at the
//! same virtual address in every isolated thread; it holds everything
//! threads use to communicate: published slices, internal synchronization
//! variables, and per-thread bookkeeping. This crate is the Rust
//! equivalent: a process-wide [`MetaSpace`] shared via `Arc`. Slice
//! lists, published clocks and mailboxes are locked per thread, so
//! threads propagating off turn do not serialize (the whole point of
//! removing global barriers); the sync-object state, which only the
//! Kendo turn holder touches, is one table behind one lock.
//!
//! Contents:
//!
//! * [`SliceRec`]/[`SliceRef`] — published slices (§4.2);
//! * [`MetaSpace`] — the slice store with usage accounting and garbage
//!   collection (§4.5), the turn-owned [`SyncTable`] (§4.1: each sync
//!   object's queue and its `lastTid`/`lastTime` release in one record),
//!   and the thread registry: one [`ThreadMeta`] per thread
//!   (slice-pointer list, published vector clock, wakeup [`Mailbox`]).
//!
//! Only the DLRC core builds a `MetaSpace`. The [`SyncTable`] alone
//! serves both deterministic families: the lockstep engine keeps its
//! sync objects in one too, and the misuse checks on its records are the
//! ones both families run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod handoff;
mod slice;
mod space;
mod syncvar;

pub use handoff::{AcquireSource, Mailbox};
pub use rfdet_trace::SyncKey;
pub use slice::{SliceRec, SliceRef};
pub use space::{GcOutcome, MetaSpace, ThreadMeta, GC_THRESHOLD};
pub use syncvar::{BarrierRec, CondRec, MutexRec, SyncTable, SyncVar, ThreadRec};
