//! Consistent-cut checkpoint capture (DESIGN.md §4.11).
//!
//! A checkpoint rides a *full-membership barrier episode*: the one point
//! in the DLRC protocol where every live thread is provably at the same
//! synchronization boundary without any global barrier being added —
//! the application already paid for this one. Eligibility is decided
//! inside the last arriver's turn ([`decide`]); per-thread state is then
//! captured *off turn* by each participant right after its own barrier
//! merge ([`contribute`]), so capture parallelizes exactly like
//! propagation does and the turn pipeline never stalls on page copies.
//!
//! Eligibility (all three, checked in-turn):
//!
//! 1. **Full membership** — every live thread is a participant of this
//!    episode. Threads parked on mutexes/condvars/joins are live but not
//!    at the barrier, so their in-flight wakeup state would be lost.
//! 2. **No mutex held, no waiter queued** — mutex ownership is runtime
//!    queue state the checkpoint record deliberately does not carry.
//! 3. **Every recorded release ≤ upper** — post-merge, each participant's
//!    clock dominates the episode's upper limit, so every slice any
//!    future acquire could need has already been propagated into every
//!    survivor. That is what makes "restore with empty slice lists and
//!    zero cursors" sound. The check matters for *unjoined dead
//!    threads*: their exit release can exceed `upper`, and restoring
//!    without their unpropagated slices would lose their writes to a
//!    later joiner — such episodes are simply ineligible.
//!
//! The episode counter advances only on eligible episodes, so epoch
//! numbering is itself deterministic: the same run always checkpoints at
//! the same episodes with the same contents, which is what lets a chain
//! check compare checkpoint digests byte-for-byte.

use crate::ctx::RfdetCtx;
use parking_lot::Mutex;
use rfdet_api::Tid;
use rfdet_trace::{persist, Checkpoint, CkptHeap, CkptPage, CkptSyncVar, CkptThread};
use rfdet_vclock::VClock;

/// Panic payload for the clean stop at an epoch ([`CkptCollector::stop_at`]):
/// after contributing to the target epoch every participant unwinds with
/// this token, the backend recognizes it and finishes the thread without
/// recording a failure. Partial output plus the terminal checkpoint *are*
/// the result.
/// The panic hook keeps it off stderr (`supervise::filter_control_unwinds`).
pub(crate) struct CkptStop;

/// One live thread's contribution to a pending checkpoint.
struct PendingCkpt {
    /// Number of live participants still expected to contribute.
    expected: usize,
    /// The checkpoint under construction: global seal data and
    /// dead-thread entries were filled in-turn by [`decide`]; live
    /// fragments arrive off-turn through [`CkptCollector::add_fragment`].
    ckpt: Checkpoint,
}

#[derive(Default)]
struct CkptInner {
    /// Eligible-episode counter — the epoch id. Seeded from the source
    /// checkpoint on resume so a resumed run's chain continues the
    /// original numbering.
    episodes: u64,
    pending: Option<PendingCkpt>,
    collected: Vec<Checkpoint>,
    warnings: Vec<String>,
}

/// Run-wide checkpoint assembly state, one per [`crate::shared::RuntimeShared`].
///
/// The lock is uncontended in the steady state: [`decide`] runs inside a
/// turn, and the off-turn [`contribute`] calls take it once per
/// participant per checkpointed episode.
#[derive(Default)]
pub(crate) struct CkptCollector {
    inner: Mutex<CkptInner>,
    /// The epoch a chain check stops at (set before the run starts, only
    /// by [`crate::replay_chain`]): every participant unwinds with [`CkptStop`]
    /// right after contributing to it.
    pub stop_at: Option<u64>,
}

impl CkptCollector {
    /// Seeds the eligible-episode counter (resume: continue the source
    /// run's epoch numbering instead of restarting at 1).
    pub fn seed_episodes(&self, episodes: u64) {
        self.inner.lock().episodes = episodes;
    }

    /// Records a non-fatal degradation (e.g. an unpersistable file).
    pub fn warn(&self, msg: String) {
        self.inner.lock().warnings.push(msg);
    }

    /// Drains the run's results at teardown.
    pub fn take_results(&self) -> (Vec<Checkpoint>, Vec<String>) {
        let mut inner = self.inner.lock();
        (
            std::mem::take(&mut inner.collected),
            std::mem::take(&mut inner.warnings),
        )
    }

    /// Deposits one live thread's fragment. Returns the sealed
    /// checkpoint when this was the last expected contribution — the
    /// caller persists it *outside* the lock.
    fn add_fragment(&self, frag: CkptThread) -> Option<Checkpoint> {
        let mut inner = self.inner.lock();
        let pending = inner
            .pending
            .as_mut()
            .expect("fragment contributed with no checkpoint pending");
        pending.ckpt.threads.push(frag);
        pending.expected -= 1;
        if pending.expected > 0 {
            return None;
        }
        let mut sealed = inner.pending.take().expect("just observed").ckpt;
        sealed.threads.sort_by_key(|t| t.tid);
        Some(sealed)
    }
}

/// Decides, inside the last arriver's turn, whether the barrier episode
/// with these `(tid, release time)` arrivals seeds a checkpoint. Returns
/// the epoch to stamp into every woken participant's
/// [`rfdet_meta::Mailbox::checkpoint`] when it does.
///
/// Running in-turn is what makes the *global* seal data (the sync table,
/// dead threads' output) safe to read without racing: no
/// other thread can execute an op boundary until this turn releases, and
/// the woken participants run only off-turn work until their next op.
pub(crate) fn decide(ctx: &mut RfdetCtx, arrivals: &[(Tid, VClock)]) -> Option<u64> {
    let every = ctx.shared.run.cfg.checkpoint_every;
    if every == 0 {
        return None;
    }
    let table = ctx.shared.meta.sync_in_turn();
    let finished = table.finished();
    let live = ctx.shared.meta.num_threads() - finished.len();
    if arrivals.len() != live {
        return None;
    }
    if table
        .mutexes
        .values()
        .any(|m| m.owner.is_some() || !m.queue.is_empty())
    {
        return None;
    }
    let releases = table.releases();
    drop(table);
    let mut upper = VClock::new();
    for (_, time) in arrivals {
        upper.join(time);
    }
    let mut sync_vars: Vec<CkptSyncVar> = Vec::new();
    for (key, last_tid, last_time) in releases {
        if !last_time.leq(&upper) {
            // An undominated release (typically an unjoined dead
            // thread's exit): its slices are not yet everywhere, so the
            // empty-slice-list restore would lose them.
            return None;
        }
        sync_vars.push(CkptSyncVar {
            key,
            last_tid,
            last_time: last_time.components(),
        });
    }
    sync_vars.sort_by_key(|v| v.key);

    let mut inner = ctx.shared.ckpt.inner.lock();
    inner.episodes += 1;
    let epoch = inner.episodes;
    if !epoch.is_multiple_of(every) {
        return None;
    }
    debug_assert!(
        inner.pending.is_none(),
        "previous checkpoint still pending at a new eligible episode"
    );
    // Dead threads' deterministic residue is their output stream (their
    // writes are, by eligibility, already propagated everywhere). Safe
    // to read in-turn: dead threads no longer mutate anything.
    let mut threads: Vec<CkptThread> = Vec::with_capacity(ctx.shared.meta.num_threads());
    for &tid in &finished {
        threads.push(CkptThread {
            tid,
            alive: false,
            clock: 0,
            vc: Vec::new(),
            slice_seq: 0,
            sync_ops: 0,
            allocs: 0,
            output: ctx.shared.run.output_of(tid),
            heap: CkptHeap::default(),
            pages: Vec::new(),
        });
    }
    inner.pending = Some(PendingCkpt {
        expected: arrivals.len(),
        ckpt: Checkpoint {
            epoch,
            recording: ctx.shared.ckpt_recording(),
            upper: upper.components(),
            sync_vars,
            finished,
            threads,
        },
    });
    Some(epoch)
}

/// Contributes the calling thread's fragment to the pending checkpoint
/// for `epoch`. Runs *off turn*, right after the thread's own barrier
/// merge (`op_epilogue`), in both barrier arms. The last contributor
/// seals, and persists when the run names a `checkpoint_dir`; every
/// contributor then honors [`CkptCollector::stop_at`] by unwinding with
/// [`CkptStop`].
pub(crate) fn contribute(ctx: &mut RfdetCtx, epoch: u64) {
    let pages: Vec<usize> = ctx.space.materialized_indices().collect();
    let frag = CkptThread {
        tid: ctx.tid,
        alive: true,
        clock: ctx.clock(),
        vc: ctx.vc.components(),
        slice_seq: ctx.slice_seq,
        sync_ops: ctx.h.sync_ops(),
        allocs: ctx.h.allocs(),
        output: ctx.h.output().to_vec(),
        heap: ctx.heap.export_state(),
        pages: pages
            .into_iter()
            .map(|idx| CkptPage {
                index: idx as u64,
                data: ctx.space.snapshot_page(idx).into_vec(),
            })
            .collect(),
    };
    ctx.h.stats.checkpoints_contributed += 1;
    if let Some(sealed) = ctx.shared.ckpt.add_fragment(frag) {
        debug_assert_eq!(sealed.epoch, epoch);
        // Persistence runs outside the collector lock: disk latency must
        // not serialize against other threads' (hypothetical) bookkeeping.
        if let Some(dir) = &ctx.shared.run.cfg.checkpoint_dir {
            if let Err(io) = persist::save_checkpoint_in(dir, &sealed) {
                ctx.shared.ckpt.warn(format!(
                    "checkpoint epoch {} not persisted: {io}",
                    sealed.epoch
                ));
            }
        }
        ctx.shared.ckpt.inner.lock().collected.push(sealed);
    }
    if ctx.shared.ckpt.stop_at == Some(epoch) {
        std::panic::panic_any(CkptStop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_seals_after_last_fragment_in_tid_order() {
        let col = CkptCollector::default();
        {
            let mut inner = col.inner.lock();
            inner.pending = Some(PendingCkpt {
                expected: 2,
                ckpt: Checkpoint {
                    epoch: 1,
                    recording: rfdet_api::RunConfig::small().recording("RFDet-ci"),
                    upper: vec![1, 1],
                    sync_vars: Vec::new(),
                    finished: Vec::new(),
                    threads: Vec::new(),
                },
            });
        }
        let frag = |tid| CkptThread {
            tid,
            alive: true,
            clock: 5,
            vc: vec![1, 1],
            slice_seq: 0,
            sync_ops: 0,
            allocs: 0,
            output: Vec::new(),
            heap: CkptHeap::default(),
            pages: Vec::new(),
        };
        assert!(col.add_fragment(frag(1)).is_none());
        let sealed = col.add_fragment(frag(0)).expect("last fragment seals");
        assert_eq!(
            sealed.threads.iter().map(|t| t.tid).collect::<Vec<_>>(),
            [0, 1],
            "threads sorted ascending regardless of contribution order"
        );
        let (collected, warnings) = col.take_results();
        assert!(collected.is_empty(), "sealer pushes, not add_fragment");
        assert!(warnings.is_empty());
    }
}
