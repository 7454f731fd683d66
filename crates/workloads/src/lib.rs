//! The evaluation workloads (paper §5.1).
//!
//! *racey* (the determinism stress test) plus re-implementations of the
//! 16 SPLASH-2 / Phoenix / Parsec applications' computational kernels and
//! synchronization patterns, written once against [`rfdet_api::DmtCtx`]
//! so every backend runs the identical program.
//!
//! Fidelity notes (see DESIGN.md §2):
//!
//! * each kernel reproduces its original's *synchronization profile*
//!   (lock/wait/signal/fork frequencies — Table 1) and *memory profile*
//!   (store density, footprint shape), scaled to laptop size;
//! * the SPLASH-2 applications use the paper's `c.m4.null.POSIX`
//!   configuration, where barriers are built from locks and condition
//!   variables ([`util::LockBarrier`]) — which is why Table 1 reports
//!   zero `barrier` operations;
//! * every workload emits a checksum through [`rfdet_api::DmtCtx::emit`],
//!   so output digests decide determinism and cross-backend agreement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chaos;
pub mod parsec;
pub mod phoenix;
pub mod races;
pub mod racey;
pub mod service;
pub mod splash;
pub mod stress;
pub mod util;

use rfdet_api::ThreadFn;

/// Workload input scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Tiny inputs for unit tests (< 50 ms on any backend).
    Test,
    /// Laptop-scale benchmark inputs.
    Bench,
}

/// Common parameters for one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Worker thread count (the paper evaluates 2, 4, 8).
    pub threads: usize,
    /// Input scale.
    pub size: Size,
    /// Seed for the workload's deterministic input generator.
    pub seed: u64,
}

impl Params {
    /// Standard parameters: `threads` workers at bench scale.
    #[must_use]
    pub fn new(threads: usize, size: Size) -> Self {
        Self {
            threads,
            size,
            seed: 0x5EED_0001,
        }
    }
}

/// Benchmark-suite provenance, for experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// SPLASH-2 (c.m4.null.POSIX configuration).
    Splash2,
    /// Phoenix map-reduce kernels.
    Phoenix,
    /// PARSEC applications.
    Parsec,
    /// The racey determinism stress test.
    Stress,
}

/// A registered workload.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name as it appears in the paper's tables.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// Builds the root thread function for the given parameters.
    pub factory: fn(Params) -> ThreadFn,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

/// Whether a checkpoint of workload `name` can be resumed: the workload
/// keeps all control state in deterministic memory, so its root, started
/// on every restored thread, continues from the cut (DESIGN.md §4.11).
/// Resuming any other workload would rerun pre-cut effects and silently
/// diverge.
#[must_use]
pub fn resumable(name: &str) -> bool {
    matches!(
        name,
        "chaos.long_haul" | "service.ledger" | "service.ledger.bench"
    )
}

/// Every benchmark application, in the paper's Table 1 order.
#[must_use]
pub fn benchmarks() -> Vec<Workload> {
    vec![
        Workload {
            name: "ocean",
            suite: Suite::Splash2,
            factory: splash::ocean::root,
        },
        Workload {
            name: "water-ns",
            suite: Suite::Splash2,
            factory: splash::water::root_ns,
        },
        Workload {
            name: "water-sp",
            suite: Suite::Splash2,
            factory: splash::water::root_sp,
        },
        Workload {
            name: "fft",
            suite: Suite::Splash2,
            factory: splash::fft::root,
        },
        Workload {
            name: "radix",
            suite: Suite::Splash2,
            factory: splash::radix::root,
        },
        Workload {
            name: "lu-con",
            suite: Suite::Splash2,
            factory: splash::lu::root_contiguous,
        },
        Workload {
            name: "lu-non",
            suite: Suite::Splash2,
            factory: splash::lu::root_noncontiguous,
        },
        Workload {
            name: "linear_regression",
            suite: Suite::Phoenix,
            factory: phoenix::linear_regression::root,
        },
        Workload {
            name: "matrix_multiply",
            suite: Suite::Phoenix,
            factory: phoenix::matrix_multiply::root,
        },
        Workload {
            name: "pca",
            suite: Suite::Phoenix,
            factory: phoenix::pca::root,
        },
        Workload {
            name: "wordcount",
            suite: Suite::Phoenix,
            factory: phoenix::wordcount::root,
        },
        Workload {
            name: "string_match",
            suite: Suite::Phoenix,
            factory: phoenix::string_match::root,
        },
        Workload {
            name: "blackscholes",
            suite: Suite::Parsec,
            factory: parsec::blackscholes::root,
        },
        Workload {
            name: "swaptions",
            suite: Suite::Parsec,
            factory: parsec::swaptions::root,
        },
        Workload {
            name: "dedup",
            suite: Suite::Parsec,
            factory: parsec::dedup::root,
        },
        Workload {
            name: "ferret",
            suite: Suite::Parsec,
            factory: parsec::ferret::root,
        },
    ]
}

/// Looks a workload up by name (`racey` and the `chaos.*` failure
/// scenarios included) — the resolver the replay CLI uses to turn a
/// persisted trace's workload name back into a root function.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    if name == "racey" {
        return Some(Workload {
            name: "racey",
            suite: Suite::Stress,
            factory: racey::root,
        });
    }
    if name == "propagate_heavy" {
        return Some(Workload {
            name: "propagate_heavy",
            suite: Suite::Stress,
            factory: stress::propagate_heavy,
        });
    }
    if name == "sync_heavy" {
        return Some(Workload {
            name: "sync_heavy",
            suite: Suite::Stress,
            factory: stress::sync_heavy,
        });
    }
    if name == "chaos.hang" {
        // Deliberately never terminates — resolvable by name for the
        // replay CLI's `--timeout` wedged-exit path, but kept out of
        // `chaos::scenarios()` so nothing that enumerates the registry
        // (conformance, sweeps) ever runs it.
        return Some(Workload {
            name: "chaos.hang",
            suite: Suite::Stress,
            factory: chaos::hang,
        });
    }
    if name.starts_with("chaos.") {
        return chaos::scenarios().into_iter().find(|w| w.name == name);
    }
    if name.starts_with("races.") {
        return races::corpus().into_iter().find(|w| w.name == name);
    }
    if name.starts_with("service.") {
        return service::scenarios().into_iter().find(|w| w.name == name);
    }
    benchmarks().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_table() {
        let names: Vec<&str> = benchmarks().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "ocean",
                "water-ns",
                "water-sp",
                "fft",
                "radix",
                "lu-con",
                "lu-non",
                "linear_regression",
                "matrix_multiply",
                "pca",
                "wordcount",
                "string_match",
                "blackscholes",
                "swaptions",
                "dedup",
                "ferret",
            ]
        );
    }

    #[test]
    fn by_name_finds_everything() {
        assert!(by_name("racey").is_some());
        for w in benchmarks() {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        for w in chaos::scenarios() {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nonesuch").is_none());
        assert!(by_name("chaos.nonesuch").is_none());
    }

    #[test]
    fn only_the_self_resuming_workloads_are_resumable() {
        assert!(resumable("chaos.long_haul"));
        for w in service::scenarios() {
            assert!(resumable(w.name), "{}", w.name);
        }
        for name in ["chaos.lock_panic", "racey", "ocean", "service.nonesuch"] {
            assert!(!resumable(name), "{name}");
        }
    }
}
