//! Restore a run from a consistent-cut checkpoint (DESIGN.md §4.11).
//!
//! [`RfdetBackend::run_resumed`] reconstructs every thread's
//! deterministic state — Kendo clock, vector clock, private pages, heap
//! allocator, fault-plan coordinates, output — exactly as it was at the
//! checkpointed barrier episode, then lets the run continue under the
//! normal DLRC protocol. Soundness of the *empty* propagation state
//! (no slice lists, zero cursors) is the checkpoint eligibility
//! invariant: at capture, every participant's clock dominated the
//! episode's upper limit and every recorded release was ≤ upper, so no
//! future acquire can need a pre-cut slice.
//!
//! Thread bodies do not serialize; the caller supplies a *resume body*
//! per tid (see `rfdet-workloads`' resumable workloads), which must
//! continue from deterministic memory — typically a round index each
//! thread keeps in its own private space, restored with the pages.

use crate::backend::teardown;
use crate::checkpoint::{ckpt_to_heap, class_to_key};
use crate::ctx::RfdetCtx;
use crate::shared::RuntimeShared;
use crate::RfdetBackend;
use rfdet_api::{DmtBackend, RunConfig, ThreadFn, Tid, TracedRun};
use rfdet_kendo::KendoHandle;
use rfdet_mem::PrivateSpace;
use rfdet_meta::ThreadMeta;
use rfdet_trace::{Checkpoint, CkptThread};
use rfdet_vclock::VClock;
use std::sync::Arc;

/// Everything a live thread needs to rebuild its context, prepared in
/// registration order on the coordinating thread before any worker runs.
struct LiveSeed {
    kendo: KendoHandle,
    meta: Arc<ThreadMeta>,
    vc: VClock,
    frag: CkptThread,
}

/// Rebuilds one thread's context from its checkpoint fragment.
fn build_ctx(shared: Arc<RuntimeShared>, seed: LiveSeed) -> RfdetCtx {
    let mut space = PrivateSpace::new(shared.run.cfg.space_bytes, shared.run.cfg.page_size);
    // Re-materialize exactly the recorded page set: the next
    // checkpoint's page list must be byte-identical to the original
    // run's, and `write` materializes precisely the page it touches.
    for p in &seed.frag.pages {
        space.write(space.page_base(p.index as usize), &p.data);
    }
    let mut ctx = RfdetCtx::from_parts(shared, seed.kendo, seed.meta, Some(space), seed.vc);
    ctx.slice_seq = seed.frag.slice_seq;
    ctx.h
        .restore_coordinates(seed.frag.sync_ops, seed.frag.allocs);
    ctx.heap.restore_state(&ckpt_to_heap(&seed.frag.heap));
    ctx
}

impl RfdetBackend {
    /// Resumes a checkpointed run: rebuilds the runtime at `ckpt`'s cut
    /// and executes each live thread's resume body (`body_for(tid)`)
    /// under the normal protocol until completion (or the next
    /// `stop_at_checkpoint`). Determinism gives byte-identical
    /// continuation: output, digests and later checkpoints match the
    /// uninterrupted run's exactly.
    ///
    /// `cfg` must reconstruct the recorded run's determinism-relevant
    /// configuration (use [`RunConfig::from_trace`] or the checkpoint's
    /// own config); the checkpoint knobs on top of it are the caller's
    /// policy (e.g. `stop_at_checkpoint` for shard replay).
    ///
    /// # Panics
    /// Panics when the checkpoint does not belong to this backend/config
    /// pair — resuming under a different protocol would silently
    /// diverge, which is strictly worse than failing loudly.
    pub fn run_resumed(
        &self,
        cfg: &RunConfig,
        ckpt: &Checkpoint,
        body_for: &dyn Fn(Tid) -> ThreadFn,
    ) -> TracedRun {
        let shared = match self.runtime(cfg) {
            Ok(shared) => shared,
            Err(e) => return TracedRun::rejected(&self.name(), &e),
        };
        assert_eq!(
            ckpt.backend, shared.backend_name,
            "checkpoint was recorded by backend {:?}, resuming under {:?}",
            ckpt.backend, shared.backend_name
        );
        assert_eq!(
            ckpt.config,
            shared.run.cfg.trace_config(),
            "checkpoint config does not match the resume config"
        );
        // Continue the original epoch numbering, so the resumed run's
        // next checkpoints land at the same epochs with the same ids.
        shared.ckpt.seed_episodes(ckpt.epoch);

        // Dense re-registration in tid order, all on this thread: tids
        // and kendo slots must line up exactly as the original run
        // created them.
        let mut live: Vec<LiveSeed> = Vec::new();
        for t in &ckpt.threads {
            let meta = shared.meta.register_thread();
            assert_eq!(meta.tid, t.tid, "checkpoint tids must be dense, ascending");
            let kendo = shared.kendo.register(t.clock);
            *meta.output.lock() = t.output.clone();
            if t.alive {
                let vc = VClock::from_components(t.vc.clone());
                // Publish the clock before any thread runs: a peer may
                // premerge against this thread immediately, and a zero
                // clock would misfilter its slices.
                meta.set_published_vc(&vc);
                live.push(LiveSeed {
                    kendo,
                    meta,
                    vc,
                    frag: t.clone(),
                });
            } else {
                shared.kendo.finish_forced(t.tid);
                shared.meta.mark_dead(t.tid);
            }
        }
        // The sync-var table: every recorded (lastTid, lastTime). The
        // propagation these entries would normally trigger is already in
        // every survivor's memory (eligibility), but the times must be
        // exact so post-resume acquires filter identically.
        for v in &ckpt.sync_vars {
            shared
                .meta
                .sync_var(class_to_key(v.class, v.id))
                .lock()
                .record_release(v.last_tid, VClock::from_components(v.last_time.clone()));
        }
        shared.queues.joins.lock().finished = ckpt.finished.iter().copied().collect();
        // Registration seeded the clocks; hand the arbitration baton to
        // the deterministic front-runner.
        shared.kendo.reseed_baton();

        let shared = Arc::new(shared);
        let mut main_seed = None;
        for seed in live {
            let tid = seed.frag.tid;
            if tid == 0 {
                main_seed = Some(seed);
                continue;
            }
            let body = body_for(tid);
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("rfdet-{tid}"))
                .spawn(move || build_ctx(worker_shared, seed).run_body(body))
                .expect("failed to spawn OS thread");
            shared.run.adopt(tid, handle);
        }
        // Main (tid 0) runs on the calling thread, like a fresh run —
        // but rebuilt from its fragment instead of `new_main`.
        let main_seed = main_seed.expect(
            "checkpoint has no live main thread (full membership requires main at the barrier)",
        );
        let mut main = build_ctx(Arc::clone(&shared), main_seed);
        main.run_body(body_for(0));
        teardown(&self.name(), &shared, main)
    }
}
