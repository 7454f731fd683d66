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
//!   so output digests decide determinism and cross-backend agreement;
//! * the fork/join kernels fork through [`util::fork_join`] (workers in
//!   tid order, joined in tid order), and every workload is one row of
//!   one registry table, which [`by_name`] and the views read.

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

/// The suite a workload comes from. The registry's views each list
/// one or more suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// SPLASH-2 (c.m4.null.POSIX configuration).
    Splash2,
    /// Phoenix map-reduce kernels.
    Phoenix,
    /// PARSEC applications.
    Parsec,
    /// racey and the synthetic adversaries: resolvable by name only.
    Stress,
    /// The `chaos.*` failure scenarios ([`chaos::scenarios`]).
    Chaos,
    /// The `service.*` ledger ([`service::scenarios`]).
    Service,
    /// The `races.*` seeded-race corpus ([`races::corpus`]).
    Races,
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

const fn w(name: &'static str, suite: Suite, factory: fn(Params) -> ThreadFn) -> Workload {
    Workload {
        name,
        suite,
        factory,
    }
}

/// Every workload but the race corpus, whose rows come from its own
/// table of variants ([`races`]): the paper's applications in Table 1
/// order, then the rest.
#[rustfmt::skip] // a table: one row per workload
const WORKLOADS: &[Workload] = &[
    w("ocean", Suite::Splash2, splash::ocean::root),
    w("water-ns", Suite::Splash2, splash::water::root_ns),
    w("water-sp", Suite::Splash2, splash::water::root_sp),
    w("fft", Suite::Splash2, splash::fft::root),
    w("radix", Suite::Splash2, splash::radix::root),
    w("lu-con", Suite::Splash2, splash::lu::root_contiguous),
    w("lu-non", Suite::Splash2, splash::lu::root_noncontiguous),
    w("linear_regression", Suite::Phoenix, phoenix::linear_regression::root),
    w("matrix_multiply", Suite::Phoenix, phoenix::matrix_multiply::root),
    w("pca", Suite::Phoenix, phoenix::pca::root),
    w("wordcount", Suite::Phoenix, phoenix::wordcount::root),
    w("string_match", Suite::Phoenix, phoenix::string_match::root),
    w("blackscholes", Suite::Parsec, parsec::blackscholes::root),
    w("swaptions", Suite::Parsec, parsec::swaptions::root),
    w("dedup", Suite::Parsec, parsec::dedup::root),
    w("ferret", Suite::Parsec, parsec::ferret::root),
    w("racey", Suite::Stress, racey::root),
    w("propagate_heavy", Suite::Stress, stress::propagate_heavy),
    w("sync_heavy", Suite::Stress, stress::sync_heavy),
    // Never terminates: resolvable for the replay CLI's `--timeout`
    // wedged-exit path, but listed in no view, so nothing that
    // enumerates one (conformance, sweeps) ever runs it.
    w("chaos.hang", Suite::Stress, chaos::hang),
    w("chaos.lock_panic", Suite::Chaos, chaos::lock_panic),
    w("chaos.abba_deadlock", Suite::Chaos, chaos::abba_deadlock),
    w("chaos.alloc_storm", Suite::Chaos, chaos::alloc_storm),
    w("chaos.long_haul", Suite::Chaos, chaos::long_haul),
    w("service.ledger", Suite::Service, service::ledger),
    w("service.ledger.bench", Suite::Service, service::ledger_bench),
];

/// Every registered workload, in table order.
fn registry() -> impl Iterator<Item = Workload> {
    WORKLOADS.iter().copied().chain(races::entries())
}

/// The registered workloads of `suites`, in table order.
pub(crate) fn view(suites: &[Suite]) -> Vec<Workload> {
    registry().filter(|w| suites.contains(&w.suite)).collect()
}

/// The workloads whose checkpoints can be resumed: each keeps all
/// control state in deterministic memory, so its root, started on every
/// restored thread, continues from the cut (DESIGN.md §4.11).
const RESUMABLE: [&str; 3] = ["chaos.long_haul", "service.ledger", "service.ledger.bench"];

/// Whether a checkpoint of workload `name` can be resumed
/// ([`RESUMABLE`]). Resuming any other workload would rerun pre-cut
/// effects and silently diverge.
#[must_use]
pub fn resumable(name: &str) -> bool {
    RESUMABLE.contains(&name)
}

/// Every benchmark application, in the paper's Table 1 order.
#[must_use]
pub fn benchmarks() -> Vec<Workload> {
    view(&[Suite::Splash2, Suite::Phoenix, Suite::Parsec])
}

/// Looks a workload up by name — any registered workload, `chaos.hang`
/// included — the resolver the replay CLI uses to turn a persisted
/// trace's workload name back into a root function.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    registry().find(|w| w.name == name)
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
        let views = [
            benchmarks(),
            chaos::scenarios(),
            service::scenarios(),
            races::corpus(),
        ];
        let mut seen = std::collections::HashSet::new();
        for w in views.iter().flatten() {
            let found = by_name(w.name).unwrap_or_else(|| panic!("{} unresolved", w.name));
            assert_eq!((found.name, found.suite), (w.name, w.suite));
            assert!(seen.insert(w.name), "{} listed twice", w.name);
        }
        assert_eq!(seen.len(), 16 + 4 + 2 + 16);
        for name in ["racey", "propagate_heavy", "sync_heavy", "chaos.hang"] {
            assert_eq!(
                by_name(name).map(|w| w.suite),
                Some(Suite::Stress),
                "{name}"
            );
            assert!(!seen.contains(name), "{name} must be in no view");
        }
        for name in RESUMABLE {
            assert!(by_name(name).is_some(), "resumable {name} is unregistered");
        }
        assert!(by_name("nonesuch").is_none());
        assert!(by_name("chaos.nonesuch").is_none());
        assert!(by_name("races.nonesuch_clean").is_none());
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
