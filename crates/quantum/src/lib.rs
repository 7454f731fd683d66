//! A CoreDet/DMP-style lockstep-quantum backend (paper §2, Figure 1).
//!
//! Same engine as the DThreads backend, but a thread's parallel interval
//! also ends when it exhausts an instruction (tick) *quantum* — so the
//! whole fleet executes in bulk-synchronous rounds separated by global
//! barriers even when nobody synchronizes. This is the design whose two
//! overheads (unnecessary serialization of non-communicating threads,
//! imbalance between uneven quanta) motivate DLRC; the
//! `ablation_barriers` experiment measures them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use rfdet_api::{DmtBackend, RunConfig, ThreadFn, TracedRun};
use rfdet_dthreads::{run_lockstep, EngineMode};

/// The quantum-based strongly deterministic backend ("CoreDet-q" in the
/// experiment tables).
#[derive(Clone, Copy, Debug, Default)]
pub struct QuantumBackend;

impl DmtBackend for QuantumBackend {
    fn name(&self) -> String {
        "CoreDet-q".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        run_lockstep(
            cfg,
            EngineMode::Quantum(cfg.quantum_ticks),
            &self.name(),
            root,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{DmtCtx, DmtCtxExt, MutexId};

    #[test]
    fn quantum_rounds_fire_without_synchronization() {
        let mut cfg = RunConfig::small();
        cfg.quantum_ticks = 100;
        let out = QuantumBackend.run_expect(
            &cfg,
            Box::new(|ctx| {
                let h = ctx.spawn(Box::new(|ctx| {
                    // Pure compute: no sync ops, but plenty of ticks.
                    for _ in 0..50 {
                        ctx.tick(50);
                    }
                    ctx.write::<u64>(64, 1);
                }));
                ctx.join(h);
                let v: u64 = ctx.read(64);
                ctx.emit_str(&v.to_string());
            }),
        );
        assert_eq!(out.output, b"1");
        // 2500 ticks / 100-tick quantum → at least ~20 forced fences.
        assert!(
            out.stats.global_fences > 10,
            "expected quantum fences, got {}",
            out.stats.global_fences
        );
    }

    #[test]
    fn results_match_dthreads_for_locked_counter() {
        fn root(ctx: &mut dyn DmtCtx) {
            let m = MutexId(0);
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    ctx.spawn(Box::new(move |ctx: &mut dyn DmtCtx| {
                        for _ in 0..30 {
                            ctx.lock(m);
                            let v: u64 = ctx.read(0);
                            ctx.write(0, v + 1);
                            ctx.unlock(m);
                        }
                    }))
                })
                .collect();
            for h in hs {
                ctx.join(h);
            }
            let v: u64 = ctx.read(0);
            ctx.emit_str(&v.to_string());
        }
        let q = QuantumBackend.run_expect(&RunConfig::small(), Box::new(root));
        let d = rfdet_dthreads::DthreadsBackend.run_expect(&RunConfig::small(), Box::new(root));
        assert_eq!(q.output, b"90");
        assert_eq!(d.output, b"90");
    }
}
