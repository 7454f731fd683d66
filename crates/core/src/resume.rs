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
//! Thread bodies do not serialize; every restored live thread starts on
//! the workload's own root, which must continue from deterministic
//! memory — typically a round index each thread keeps in its own private
//! space, restored with the pages (`rfdet_workloads::resumable`).
//!
//! [`replay_chain`] is the one verified sharded replay of a recorded
//! chain: the only code that schedules shards and the only code that
//! compares replayed checkpoints with a chain.

use crate::backend::Start;
use crate::checkpoint::class_to_key;
use crate::ctx::RfdetCtx;
use crate::shared::RuntimeShared;
use crate::RfdetBackend;
use parking_lot::Mutex;
use rfdet_api::{DmtBackend, RunConfig, RunError, ThreadFn, TracedRun};
use rfdet_kendo::KendoHandle;
use rfdet_mem::PrivateSpace;
use rfdet_meta::ThreadMeta;
use rfdet_trace::{Checkpoint, CkptThread};
use rfdet_vclock::VClock;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    let frag = seed.frag;
    ctx.slice_seq = frag.slice_seq;
    ctx.heap.restore_state(&frag.heap);
    ctx.h.restore(frag.sync_ops, frag.allocs, frag.output);
    ctx
}

impl RfdetBackend {
    /// Resumes a checkpointed run: rebuilds the runtime at `ckpt`'s cut
    /// and starts each live thread on a fresh `root()` under the normal
    /// protocol until completion. Determinism gives byte-identical
    /// continuation: output, digests and later checkpoints match the
    /// uninterrupted run's exactly.
    ///
    /// `cfg` without its kills must record what `ckpt` recorded:
    /// backend, workload, seed, configuration and jitter
    /// ([`RunConfig::from_recording`] of the checkpoint's own recording
    /// is one); the checkpoint knobs on top of it are the caller's
    /// policy.
    ///
    /// # Panics
    /// Panics when the checkpoint's recording differs — resuming under
    /// another protocol or another schedule would silently diverge,
    /// which is strictly worse than failing loudly.
    pub fn run_resumed(
        &self,
        cfg: &RunConfig,
        ckpt: &Checkpoint,
        root: &dyn Fn() -> ThreadFn,
    ) -> TracedRun {
        self.run_from(cfg, Start::Resume(ckpt, root), None)
    }
}

/// Rebuilds `shared` at `ckpt`'s cut, starts every live worker on
/// `root()` and runs main's on the calling thread (the resume half of
/// [`RfdetBackend::run_from`]).
pub(crate) fn restore(
    shared: RuntimeShared,
    ckpt: &Checkpoint,
    root: &dyn Fn() -> ThreadFn,
) -> (Arc<RuntimeShared>, RfdetCtx) {
    assert_eq!(
        ckpt.recording,
        shared.ckpt_recording(),
        "checkpoint was not recorded by this backend under the resume config without its kills"
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
            shared.run.retire_output(t.tid, t.output.clone());
        }
    }
    // The sync-var table: every recorded (lastTid, lastTime). The
    // propagation these entries would normally trigger is already in
    // every survivor's memory (eligibility), but the times must be
    // exact so post-resume acquires filter identically.
    let mut table = shared.meta.sync_in_turn();
    for v in &ckpt.sync_vars {
        table
            .var_mut(class_to_key(v.class, v.id))
            .record_release(v.last_tid, VClock::from_components(v.last_time.clone()));
    }
    for &tid in &ckpt.finished {
        table.threads.entry(tid).or_default().finished = true;
    }
    drop(table);
    // Registration seeded the clocks; hand the arbitration baton to
    // the deterministic front-runner.
    shared.kendo.reseed_baton();

    let shared = Arc::new(shared);
    // Tids are dense and ascending, so a live main (tid 0) leads `live`.
    let mut live = live.into_iter();
    let main_seed = live.next().filter(|seed| seed.frag.tid == 0).expect(
        "checkpoint has no live main thread (full membership requires main at the barrier)",
    );
    for seed in live {
        let tid = seed.frag.tid;
        let body = root();
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("rfdet-{tid}"))
            .spawn(move || build_ctx(worker_shared, seed).run_body(body))
            .expect("failed to spawn OS thread");
        shared.run.adopt(tid, handle);
    }
    // Main runs on the calling thread, like a fresh run — but rebuilt
    // from its fragment instead of `new_main`.
    let mut main = build_ctx(Arc::clone(&shared), main_seed);
    main.run_body(root());
    (shared, main)
}

/// What a verified [`replay_chain`] measured.
#[derive(Clone, Copy, Debug)]
pub struct ChainReplay {
    /// Wall time of the serial replay, start to finish.
    pub serial: Duration,
    /// Wall time of the sharded replay, all shards.
    pub sharded: Duration,
}

/// Why [`replay_chain`] refused or failed a chain. `shard: None` is the
/// serial replay; shard `chain.len()` is the tail shard.
#[derive(Debug)]
pub enum ChainDivergence {
    /// The epochs (listed) are not one cadence `c, 2c, 3c, …` — a file
    /// of the chain is missing — so the shard stops cannot be scheduled.
    NotUniform(Vec<u64>),
    /// A replay run ended in a failure.
    Failed {
        /// The failed run.
        shard: Option<usize>,
        /// Its failure.
        error: RunError,
    },
    /// A run did not reproduce the chain's checkpoint at `epoch` — or,
    /// for the tail shard (`epoch: None`), the serial replay's output.
    Diverged {
        /// The diverged run.
        shard: Option<usize>,
        /// The checkpoint it missed or changed.
        epoch: Option<u64>,
    },
}

impl fmt::Display for ChainDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let run =
            |shard: Option<usize>| shard.map_or("serial replay".into(), |k| format!("shard {k}"));
        match *self {
            Self::NotUniform(ref epochs) => write!(
                f,
                "checkpoint chain is not a uniform cadence (epochs {epochs:?}); cannot shard"
            ),
            Self::Failed { shard, .. } => {
                write!(f, "{} failed; chain is not replayable", run(shard))
            }
            Self::Diverged { shard, epoch } => match epoch {
                Some(e) => write!(f, "{} diverged at epoch {e}", run(shard)),
                None => write!(f, "tail shard output diverged from serial replay"),
            },
        }
    }
}

/// Verified sharded replay of a recorded checkpoint `chain` (DESIGN.md
/// §4.11): refuses a chain whose epochs are not one cadence; runs the
/// serial replay from `root` and compares every checkpoint it seals with
/// the chain; runs the `chain.len() + 1` shards on up to `jobs` threads
/// and compares each stopping shard's terminal checkpoint with the
/// chain, and the tail shard's output with the serial replay's. `cfg`
/// is the recording's configuration; the cadence comes from the chain,
/// and nothing is persisted.
///
/// # Errors
/// The first [`ChainDivergence`], in that order.
pub fn replay_chain(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    chain: &[Checkpoint],
    root: &(dyn Fn() -> ThreadFn + Sync),
    jobs: usize,
) -> Result<ChainReplay, ChainDivergence> {
    let epochs: Vec<u64> = chain.iter().map(|c| c.epoch).collect();
    let every = epochs.first().copied().unwrap_or(0);
    if every == 0 || epochs.iter().zip(1..).any(|(&e, k)| e != every * k) {
        return Err(ChainDivergence::NotUniform(epochs));
    }
    let mut cfg = cfg.clone();
    cfg.checkpoint_every = every;
    cfg.checkpoint_dir = None;
    let failed = |shard| move |error| ChainDivergence::Failed { shard, error };
    let diverged = |shard, epoch| Err(ChainDivergence::Diverged { shard, epoch });

    let t0 = Instant::now();
    let serial_run = backend.run_traced(&cfg, root());
    let serial = t0.elapsed();
    let serial_out = serial_run.result.map_err(failed(None))?;
    for (k, cut) in chain.iter().enumerate() {
        if serial_run.checkpoints.get(k).map(Checkpoint::digest) != Some(cut.digest()) {
            return diverged(None, Some(cut.epoch));
        }
    }

    let t1 = Instant::now();
    let shards = run_shards(backend, &cfg, chain, root, jobs);
    let sharded = t1.elapsed();
    for (k, run) in shards.into_iter().enumerate() {
        let out = run.result.map_err(failed(Some(k)))?;
        let cut = chain.get(k);
        let reproduced = match cut {
            Some(cut) => run.checkpoints.last().map(Checkpoint::digest) == Some(cut.digest()),
            None => out.output == serial_out.output,
        };
        if !reproduced {
            return diverged(Some(k), cut.map(|c| c.epoch));
        }
    }
    Ok(ChainReplay { serial, sharded })
}

/// Runs the shards of `chain` on up to `jobs` threads: shard 0 runs
/// `root` from the start to the first checkpoint, shard `k` resumes
/// checkpoint `k - 1` and stops at checkpoint `k`, and the tail shard
/// runs to completion. Returns their runs in shard order.
fn run_shards(
    backend: &RfdetBackend,
    cfg: &RunConfig,
    chain: &[Checkpoint],
    root: &(dyn Fn() -> ThreadFn + Sync),
    jobs: usize,
) -> Vec<TracedRun> {
    let n_shards = chain.len() + 1;
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<TracedRun>>> = (0..n_shards).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n_shards) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n_shards {
                    break;
                }
                let start = match k.checked_sub(1) {
                    None => Start::Fresh(root()),
                    Some(from) => Start::Resume(&chain[from], root),
                };
                let run = backend.run_from(cfg, start, chain.get(k).map(|c| c.epoch));
                *results[k].lock() = Some(run);
            });
        }
    });
    let runs = results.into_iter().map(Mutex::into_inner);
    runs.map(|run| run.expect("every shard index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_workloads::{chaos, Params, Size};

    #[test]
    fn a_shard_stop_is_a_clean_partial_stop() {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg.checkpoint_every = 4;
        cfg.trace = Some("chaos.long_haul@3".to_owned());
        let root = chaos::long_haul(Params::new(3, Size::Test));
        let run = RfdetBackend::ci().run_from(&cfg, Start::Fresh(root), Some(4));
        let out = run.result.expect("a shard stop is not a failure");
        assert!(
            out.output.is_empty(),
            "long_haul emits only after its final round"
        );
        let epochs: Vec<u64> = run.checkpoints.iter().map(|c| c.epoch).collect();
        assert_eq!(epochs, [4]);
    }
}
