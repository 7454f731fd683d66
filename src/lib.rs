//! # rfdet — deterministic multithreading without global barriers
//!
//! A from-scratch Rust reproduction of *"Efficient Deterministic
//! Multithreading Without Global Barriers"* (Lu, Zhou, Bergan, Wang —
//! PPoPP 2014): the **RFDet** runtime implementing **deterministic lazy
//! release consistency (DLRC)**, plus everything needed to evaluate it —
//! a pthreads-style baseline, a DThreads-model comparator, a
//! CoreDet-style quantum comparator, and the paper's 17 workloads.
//!
//! This crate is the façade: it re-exports the public API of every
//! sub-crate. Start with [`RfdetBackend`] and the [`DmtCtx`] trait, or
//! run `cargo run --release --example quickstart`.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`api`] | `rfdet-api` | the `DmtCtx` programming surface, configs, stats |
//! | [`trace`] | `rfdet-trace` | flight recorder: schedule traces, replay, shrinking |
//! | [`vclock`] | `rfdet-vclock` | vector clocks / happens-before |
//! | [`mem`] | `rfdet-mem` | COW private spaces, page diffing, allocator |
//! | [`meta`] | `rfdet-meta` | slice store, GC, the turn-owned sync table |
//! | [`kendo`] | `rfdet-kendo` | deterministic turn arbitration |
//! | [`core`] | `rfdet-core` | **the paper's contribution: the DLRC runtime** |
//! | [`native`] | `rfdet-native` | nondeterministic "pthreads" baseline |
//! | [`dthreads`] | `rfdet-dthreads` | DThreads-model and CoreDet/DMP-style quantum comparators (one lockstep engine) |
//! | [`workloads`] | `rfdet-workloads` | racey + 16 benchmark kernels |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rfdet_api as api;
pub use rfdet_core as core;
pub use rfdet_dthreads as dthreads;
pub use rfdet_kendo as kendo;
pub use rfdet_mem as mem;
pub use rfdet_meta as meta;
pub use rfdet_native as native;
pub use rfdet_vclock as vclock;
pub use rfdet_workloads as workloads;

pub use rfdet_api::{
    races_digest, render_races, trace, AccessKind, Addr, AtomicOp, BarrierId, CondId, ConfigError,
    DmtBackend, DmtCtx, DmtCtxExt, FailureKind, FailureReport, FaultAction, FaultPlan, FaultSpec,
    MutexId, Pod, RaceReport, RaceSite, Replay, RetryPolicy, RfdetOpts, RunConfig, RunError,
    RunOutput, RunTrace, Stats, ThreadFn, ThreadHandle, ThreadReport, Tid, TracedRun, WaitEdge,
    WaitTarget,
};
pub use rfdet_core::{MonitorMode, RfdetBackend};
pub use rfdet_dthreads::{DthreadsBackend, QuantumBackend};
pub use rfdet_native::NativeBackend;

/// All five backends, labelled as in the paper's figures.
#[must_use]
pub fn all_backends() -> Vec<Box<dyn DmtBackend>> {
    vec![
        Box::new(NativeBackend),
        Box::new(RfdetBackend::ci()),
        Box::new(RfdetBackend::pf()),
        Box::new(DthreadsBackend),
        Box::new(QuantumBackend),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_roster() {
        let names: Vec<String> = all_backends().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["pthreads", "RFDet-ci", "RFDet-pf", "DThreads", "CoreDet-q"]
        );
        let det: Vec<bool> = all_backends()
            .iter()
            .map(|b| b.is_deterministic())
            .collect();
        assert_eq!(det, vec![false, true, true, true, true]);
    }
}
