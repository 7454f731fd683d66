//! The metadata space (paper §4, Figure 3).
//!
//! In RFDet the *metadata space* is a shared-memory region mapped at the
//! same virtual address in every isolated thread; it holds everything
//! threads use to communicate: published slices, internal synchronization
//! variables, and per-thread bookkeeping. This crate is the Rust
//! equivalent: a process-wide [`MetaSpace`] shared via `Arc`, with
//! fine-grained locking so that threads touching unrelated metadata do not
//! serialize (the whole point of removing global barriers).
//!
//! Contents:
//!
//! * [`SliceRec`]/[`SliceRef`] — published slices (§4.2);
//! * [`MetaSpace`] — the slice store with usage accounting and garbage
//!   collection (§4.5), the internal sync-var table (§4.1), and the
//!   thread registry: one [`ThreadMeta`] per thread (slice-pointer list,
//!   published vector clock, wakeup [`Mailbox`], output stream).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod handoff;
mod slice;
mod space;
mod syncvar;

pub use handoff::{AcquireSource, BarrierHandoff, Mailbox};
pub use slice::{SliceRec, SliceRef};
pub use space::{GcOutcome, MetaSpace, SyncVarRef, ThreadMeta, DEFAULT_SYNC_SHARDS, GC_THRESHOLD};
pub use syncvar::{SyncKey, SyncVar};
