//! Run-wide shared state.

use rfdet_api::trace::{op, TraceEvent};
use rfdet_api::{ConfigError, RunConfig, RunHarness};
use rfdet_kendo::KendoState;
use rfdet_mem::StripAllocator;
use rfdet_meta::{MetaSpace, GC_THRESHOLD};
use std::sync::Arc;

/// Logical-clock increment charged per synchronization operation (the
/// paper weights ticks by memory instructions; sync ops get a small fixed
/// surcharge so back-to-back sync ops still rotate turns fairly).
pub(crate) const SYNC_TICK: u64 = 5;

/// Everything shared by all threads of one RFDet run.
pub(crate) struct RuntimeShared {
    /// The run harness: resolved config (`run.cfg`), fault plan, sinks,
    /// OS handles and the failure slot.
    pub run: RunHarness,
    /// The running backend's display name ("RFDet", "RFDet-ci",
    /// "RFDet-pf"). Stamped into checkpoints, whose `run_key` covers it:
    /// two monitor modes of the same workload are different runs.
    pub backend_name: String,
    /// Checkpoint assembly state (§4.11); inert when
    /// `cfg.checkpoint_every == 0`.
    pub ckpt: crate::checkpoint::CkptCollector,
    pub kendo: KendoState,
    pub meta: MetaSpace,
    pub strips: StripAllocator,
}

impl RuntimeShared {
    /// # Errors
    /// The [`ConfigError`] of an invalid `cfg`.
    pub fn new(cfg: &RunConfig) -> Result<Self, ConfigError> {
        let run = RunHarness::new(cfg)?;
        crate::supervise::filter_control_unwinds();
        let cfg = &run.cfg;
        let heap_base = rfdet_mem::heap_base(cfg.space_bytes);
        // The wall-clock bound is only the *fallback*: structural
        // deadlock detection (supervise.rs) normally fires first.
        let kendo = KendoState::new().with_deadlock_timeout(cfg.deadlock_after());
        if let Some(sink) = &run.trace_sink {
            // Wakes run inside the waker's turn, so they are schedule
            // events in their own right: record (woken tid, new clock).
            let sink = Arc::clone(sink);
            kendo.set_wake_tap(Box::new(move |tid, clock| {
                sink.push(TraceEvent {
                    tid,
                    op: u64::MAX,
                    kind: op::WAKE,
                    arg: None,
                    clock,
                });
            }));
        }
        Ok(Self {
            backend_name: "RFDet".to_owned(),
            ckpt: crate::checkpoint::CkptCollector::default(),
            kendo,
            meta: MetaSpace::with_max_slices(
                cfg.meta_capacity_bytes as usize,
                GC_THRESHOLD,
                cfg.meta_max_slices as usize,
            ),
            strips: StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_construction_validates_config() {
        let s = RuntimeShared::new(&RunConfig::small()).expect("valid config");
        assert_eq!(s.meta.num_threads(), 0);
        assert_eq!(s.kendo.num_threads(), 0);
        assert!(s.strips.strip_size() > 0);
    }

    #[test]
    fn record_panic_keeps_first_message_and_aborts() {
        let s = RuntimeShared::new(&RunConfig::small()).expect("valid config");
        let _h = s.kendo.register(0);
        s.record_panic(0, Box::new("first"), None);
        s.record_panic(0, Box::new("second"), None);
        assert!(s.kendo.aborted());
        let err = s.run.take_run_error("test").unwrap();
        assert_eq!(err.report().message, "first");
    }
}
