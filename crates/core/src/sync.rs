//! Deterministic synchronization operations (paper §4.1).
//!
//! Every operation follows the same shape:
//!
//! 1. [`RfdetCtx::enter_op`] — the harness assigns the op its per-thread
//!    coordinate, every op but `lock` seals the slice (diff and packing,
//!    thread-local: until its turn only the thread touches its space),
//!    then Kendo admits it at a deterministic point in the global
//!    synchronization order (`wait_for_turn`);
//! 2. *in turn*: publish the slice (`lock` seals it here first: only its
//!    turn decides whether slice merging keeps it open), record releases
//!    in the internal sync-var table, tick the vector clock, mutate the
//!    deterministic queues, deposit handoffs into blocked threads'
//!    mailboxes, publish the in-turn clock, and finally tick the Kendo
//!    clock (releasing the turn);
//! 3. *off turn*: the actual memory-modification propagation — the
//!    expensive part — runs in parallel with other threads' turns. This
//!    is exactly what "no global barriers" buys.
//!
//! Blocking operations park **after** their final tick; their waker
//! deposits the acquire edges and reactivates them with a deterministic
//! clock from inside its own turn.

use crate::ctx::RfdetCtx;
use crate::handoff::{AcquireSource, BarrierHandoff};
use parking_lot::{Mutex, MutexGuard};
use rfdet_api::obs::Phase;
use rfdet_api::{BarrierId, CondId, MutexId, SyncOp, ThreadFn, ThreadHandle, Tid};
use rfdet_meta::SyncKey;
use rfdet_vclock::VClock;
use std::sync::Arc;

/// Locks a queue-class mutex, counting the case where another thread held
/// it on arrival (the contention the per-class split is meant to shrink).
fn lock_counted<'a, T>(m: &'a Mutex<T>, contended: &mut u64) -> MutexGuard<'a, T> {
    match m.try_lock() {
        Some(g) => g,
        None => {
            *contended += 1;
            m.lock()
        }
    }
}

/// Ends the slice, optionally records a release, ticks the vector clock.
/// Returns the release time (`lower` — the just-ended slice's timestamp).
fn op_boundary(ctx: &mut RfdetCtx, release: Option<SyncKey>) -> VClock {
    let lower = ctx.vc.clone();
    ctx.end_slice();
    if let Some(key) = release {
        let var = ctx.sync_var(key);
        var.lock().record_release(ctx.tid, lower.clone());
    }
    ctx.vc.tick(ctx.tid);
    lower
}

/// Post-propagation epilogue shared by every operation (runs off-turn).
fn op_epilogue(ctx: &mut RfdetCtx) {
    ctx.begin_slice();
    ctx.meta_thread.set_published_vc(&ctx.vc);
    ctx.run_pending_gc();
}

/// Blocks, consumes the wakeup mailbox, and finishes the acquire. When
/// `premerge_source` is set (and the prelock optimization is on), the
/// park loop keeps pre-merging the source's published slices off the
/// critical path (§4.5).
fn block_and_acquire(ctx: &mut RfdetCtx, premerge_source: Option<Tid>) {
    let kendo_handle = ctx.kendo.clone();
    let shared = Arc::clone(&ctx.shared);
    // Parked threads double as the deadlock detector: the park-idle
    // callback runs the cheap all-blocked scan (supervise.rs), so a
    // stable deadlock is found by the threads inside it — no watchdog
    // thread, no wall clock.
    let idles = match premerge_source.filter(|_| ctx.shared.run.cfg.rfdet.prelock) {
        Some(src) => {
            // First round immediately, then periodically while parked.
            ctx.premerge_round(src);
            shared.kendo.park_until_active(&kendo_handle, || {
                ctx.premerge_round(src);
                shared.check_deadlock();
            })
        }
        None => shared
            .kendo
            .park_until_active(&kendo_handle, || shared.check_deadlock()),
    };
    ctx.h.sample(Phase::IdleWakeups, idles);
    // The boundary stored at sync-op entry predates the park; reseed so
    // the mailbox propagation below is not billed for the blocked time.
    ctx.obs_reseed_boundary();
    let mail = ctx.mailbox.lock().drain();
    debug_assert!(!mail.is_empty(), "woken without a handoff");
    // Peek the checkpoint decision before the mailbox is consumed; the
    // fragment is contributed only after the merge completes below.
    let ckpt_epoch = mail.barrier.as_ref().and_then(|b| b.checkpoint);
    ctx.apply_mailbox(mail);
    debug_assert_eq!(
        ctx.vc,
        ctx.meta_thread.get_turn_vc(),
        "post-wake clock must equal the in-turn published clock"
    );
    op_epilogue(ctx);
    if let Some(epoch) = ckpt_epoch {
        crate::checkpoint::contribute(ctx, epoch);
    }
}

enum LockPath {
    /// Lock taken immediately; propagate from the recorded release edge,
    /// if any (`(releaser, release time)` — only the clock is copied out
    /// of the sync var, never the whole var).
    Fast(Option<(Tid, VClock)>),
    /// Same-thread re-acquire: keep the slice open (§4.5 slice merging).
    Merged,
    /// Enqueued behind `pred` (the prelock pre-merge source).
    Queued { pred: Tid },
}

pub(crate) fn lock_impl(ctx: &mut RfdetCtx, m: MutexId) {
    ctx.enter_op(SyncOp::Lock(m));
    let key = SyncKey::Mutex(m.0);
    let enqueued = {
        let mut mxs = lock_counted(
            &ctx.shared.queues.mutexes,
            &mut ctx.h.stats.queue_lock_contended,
        );
        let mx = mxs.entry(m.0).or_default();
        assert_ne!(
            mx.owner,
            Some(ctx.tid),
            "recursive lock of mutex {} by thread {}",
            m.0,
            ctx.tid
        );
        if mx.owner.is_none() && mx.queue.is_empty() {
            mx.owner = Some(ctx.tid);
            None
        } else {
            let pred = mx
                .queue
                .back()
                .copied()
                .or(mx.owner)
                .expect("contended mutex must have an owner or queue");
            mx.queue.push_back(ctx.tid);
            Some(pred)
        }
    };
    let path = match enqueued {
        Some(pred) => LockPath::Queued { pred },
        None => {
            let var = ctx.sync_var(key);
            let sv = var.lock();
            if ctx.shared.run.cfg.rfdet.slice_merging && sv.last_tid == Some(ctx.tid) {
                LockPath::Merged
            } else if sv.needs_propagation(ctx.tid) {
                let from = sv.last_tid.expect("needs_propagation implies a releaser");
                LockPath::Fast(Some((from, sv.last_time.clone())))
            } else {
                LockPath::Fast(None)
            }
        }
    };
    match path {
        LockPath::Merged => {
            ctx.h.stats.slices_merged += 1;
            ctx.release_turn();
        }
        LockPath::Fast(edge) => {
            op_boundary(ctx, None);
            let turn_vc = match &edge {
                Some((_, time)) => ctx.vc.joined(time),
                None => ctx.vc.clone(),
            };
            ctx.meta_thread.set_turn_vc(&turn_vc);
            ctx.release_turn();
            // Turn released — propagation proceeds in parallel with other
            // threads' synchronization. No global barrier anywhere.
            if let Some((from, time)) = edge {
                let lower = ctx.vc.clone();
                ctx.vc.join(&time);
                ctx.propagate_from(from, &time, &lower);
            }
            op_epilogue(ctx);
        }
        LockPath::Queued { pred } => {
            op_boundary(ctx, None);
            ctx.meta_thread.set_turn_vc(&ctx.vc);
            ctx.shared.kendo.block(&ctx.kendo);
            ctx.release_turn();
            // §4.5 Prelock: merge everything that must happen-before our
            // eventual acquire while the lock holder still works.
            block_and_acquire(ctx, Some(pred));
        }
    }
}

pub(crate) fn unlock_impl(ctx: &mut RfdetCtx, m: MutexId) {
    ctx.enter_op(SyncOp::Unlock(m));
    let lower = op_boundary(ctx, Some(SyncKey::Mutex(m.0)));
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    let next = {
        let mut mxs = lock_counted(
            &ctx.shared.queues.mutexes,
            &mut ctx.h.stats.queue_lock_contended,
        );
        let mx = mxs
            .get_mut(&m.0)
            .unwrap_or_else(|| panic!("unlock of never-locked mutex {}", m.0));
        assert_eq!(
            mx.owner,
            Some(ctx.tid),
            "thread {} unlocking mutex {} it does not hold",
            ctx.tid,
            m.0
        );
        mx.owner = mx.queue.pop_front();
        mx.owner
    };
    if let Some(w) = next {
        handoff_release(ctx, w, lower);
        ctx.shared.kendo.wake(w, ctx.clock() + 1);
    }
    ctx.release_turn();
    op_epilogue(ctx);
}

/// Deposits a release edge into a blocked thread's mailbox and extends its
/// in-turn clock — both inside the caller's turn.
fn handoff_release(ctx: &mut RfdetCtx, target: Tid, time: VClock) {
    let peer = ctx.peer(target);
    peer.mailbox.lock().sources.push(AcquireSource {
        from: ctx.tid,
        time: time.clone(),
    });
    peer.meta.join_turn_vc(&time);
}

pub(crate) fn wait_impl(ctx: &mut RfdetCtx, c: CondId, m: MutexId) {
    ctx.enter_op(SyncOp::CondWait(c));
    // cond_wait releases the mutex…
    let lower = op_boundary(ctx, Some(SyncKey::Mutex(m.0)));
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    let next = {
        let mut mxs = lock_counted(
            &ctx.shared.queues.mutexes,
            &mut ctx.h.stats.queue_lock_contended,
        );
        let mx = mxs
            .get_mut(&m.0)
            .unwrap_or_else(|| panic!("cond_wait with never-locked mutex {}", m.0));
        assert_eq!(
            mx.owner,
            Some(ctx.tid),
            "thread {} waiting on cond {} without holding mutex {}",
            ctx.tid,
            c.0,
            m.0
        );
        mx.owner = mx.queue.pop_front();
        mx.owner
    };
    lock_counted(
        &ctx.shared.queues.conds,
        &mut ctx.h.stats.queue_lock_contended,
    )
    .entry(c.0)
    .or_default()
    .push_back((ctx.tid, m.0));
    if let Some(w) = next {
        handoff_release(ctx, w, lower);
        ctx.shared.kendo.wake(w, ctx.clock() + 1);
    }
    // …then blocks until signalled (and until it re-owns the mutex: the
    // signaler either grants it immediately or moves us to the mutex
    // queue, in which case the eventual unlocker completes the wakeup).
    ctx.shared.kendo.block(&ctx.kendo);
    ctx.release_turn();
    block_and_acquire(ctx, None);
}

pub(crate) fn signal_impl(ctx: &mut RfdetCtx, c: CondId, broadcast: bool) {
    ctx.enter_op(if broadcast {
        SyncOp::CondBroadcast(c)
    } else {
        SyncOp::CondSignal(c)
    });
    let lower = op_boundary(ctx, Some(SyncKey::Cond(c.0)));
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    // Pop waiters deterministically (FIFO — enqueue order was itself
    // turn-ordered) and arrange each one's mutex re-acquisition.
    let popped: Vec<(Tid, u32)> = {
        let mut conds = lock_counted(
            &ctx.shared.queues.conds,
            &mut ctx.h.stats.queue_lock_contended,
        );
        let queue = conds.entry(c.0).or_default();
        let n = if broadcast {
            queue.len()
        } else {
            usize::from(!queue.is_empty())
        };
        queue.drain(..n).collect()
    };
    let mut wake_now: Vec<Tid> = Vec::new();
    for (w, mid) in popped {
        // The signal edge (release of the condvar).
        let peer = ctx.peer(w);
        peer.mailbox.lock().sources.push(AcquireSource {
            from: ctx.tid,
            time: lower.clone(),
        });
        peer.meta.join_turn_vc(&lower);
        let granted = {
            let mut mxs = lock_counted(
                &ctx.shared.queues.mutexes,
                &mut ctx.h.stats.queue_lock_contended,
            );
            let mx = mxs.entry(mid).or_default();
            if mx.owner.is_none() && mx.queue.is_empty() {
                // Mutex free: grant it to the waiter right now, with the
                // mutex's own release edge.
                mx.owner = Some(w);
                true
            } else {
                // Mutex busy: park the waiter in the reservation queue;
                // the unlocker will finish the handoff.
                mx.queue.push_back(w);
                false
            }
        };
        if granted {
            let var = ctx.sync_var(SyncKey::Mutex(mid));
            let edge = {
                let sv = var.lock();
                if sv.needs_propagation(w) {
                    let from = sv.last_tid.expect("propagation implies releaser");
                    Some((from, sv.last_time.clone()))
                } else {
                    None
                }
            };
            if let Some((from, time)) = edge {
                peer.mailbox.lock().sources.push(AcquireSource {
                    from,
                    time: time.clone(),
                });
                peer.meta.join_turn_vc(&time);
            }
            wake_now.push(w);
        }
    }
    for w in wake_now {
        ctx.shared.kendo.wake(w, ctx.clock() + 1);
    }
    ctx.release_turn();
    op_epilogue(ctx);
}

pub(crate) fn barrier_impl(ctx: &mut RfdetCtx, b: BarrierId, parties: usize) {
    assert!(parties > 0, "barrier with zero parties");
    ctx.enter_op(SyncOp::Barrier(b));
    let lower = op_boundary(ctx, Some(SyncKey::Barrier(b.0)));
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    let arrivals = {
        let mut barriers = lock_counted(
            &ctx.shared.queues.barriers,
            &mut ctx.h.stats.queue_lock_contended,
        );
        let st = barriers.entry(b.0).or_default();
        st.arrivals.push((ctx.tid, lower));
        assert!(
            st.arrivals.len() <= parties,
            "barrier {} overfull: {} arrivals for {} parties",
            b.0,
            st.arrivals.len(),
            parties
        );
        if st.arrivals.len() == parties {
            Some(std::mem::take(&mut st.arrivals))
        } else {
            None
        }
    };
    match arrivals {
        None => {
            ctx.shared.kendo.block(&ctx.kendo);
            ctx.release_turn();
            block_and_acquire(ctx, None);
        }
        Some(arrivals) => {
            // Last arriver: compute the merged view and release everyone.
            let mut upper = VClock::new();
            for (_, t) in &arrivals {
                upper.join(t);
            }
            let participants: Vec<Tid> = arrivals.iter().map(|(t, _)| *t).collect();
            // Checkpoint eligibility is decided here, inside the last
            // arriver's turn, *before* any deposit or wake: the global
            // seal data (sync-var table, join table, dead outputs) is
            // race-free, and every participant learns the same epoch.
            let checkpoint = crate::checkpoint::decide(ctx, &participants, &upper);
            let handoff = BarrierHandoff {
                participants: participants.clone(),
                upper: upper.clone(),
                checkpoint,
            };
            for &w in &participants {
                if w == ctx.tid {
                    continue;
                }
                let peer = ctx.peer(w);
                peer.mailbox.lock().barrier = Some(handoff.clone());
                peer.meta.join_turn_vc(&upper);
                ctx.shared.kendo.wake(w, ctx.clock() + 1);
            }
            ctx.meta_thread.join_turn_vc(&upper);
            ctx.release_turn();
            // Own merge, off turn.
            let my_lower = ctx.vc.clone();
            ctx.vc.join(&upper);
            ctx.propagate_barrier(&handoff, &my_lower);
            op_epilogue(ctx);
            if let Some(epoch) = checkpoint {
                crate::checkpoint::contribute(ctx, epoch);
            }
        }
    }
}

pub(crate) fn spawn_impl(ctx: &mut RfdetCtx, f: ThreadFn) -> ThreadHandle {
    ctx.enter_op(SyncOp::Spawn);
    // Lazy pending must be materialized before the child inherits the
    // space, or the child would read stale bytes.
    ctx.flush_pending();
    let lower = op_boundary(ctx, None); // create is a release; the child
                                        // inherits memory directly, no
                                        // sync var needed (§4.1)
    ctx.meta_thread.set_turn_vc(&ctx.vc);

    // Deterministic registration inside the parent's turn.
    let child_meta = ctx.shared.meta.register_thread();
    let child_tid = child_meta.tid;
    let child_kendo = ctx.shared.kendo.register(ctx.clock() + 1);
    assert_eq!(child_kendo.tid(), child_tid, "registry tid mismatch");
    let child_mailbox = ctx.shared.register_mailbox();
    // The child's clock starts from the *pre-tick* boundary clock, not
    // the parent's post-tick `vc`: slices are stamped with their start
    // time, so the slice the parent opens right after this boundary will
    // carry exactly the post-tick clock. A child seeded with that value
    // would claim the slice as already-seen — yet its writes happen
    // after the fork, so every later filter would drop it and the
    // child would read stale memory forever. Same off-by-one discipline
    // as the pre-merge bound (propagation.rs): exclude the open slice.
    let mut child_vc = lower;
    child_vc.tick(child_tid);
    // The child inherits the parent's memory (COW fork) and, for
    // transitive propagation, the parent's slice-pointer list.
    let child_space = ctx.space.fork();
    child_meta.slice_list.lock().entries = ctx.meta_thread.slice_list.lock().entries.clone();
    // The child has (by inheritance) seen everything the parent saw, so
    // the parent's propagation cursors are valid starting points.
    let child_cursors = ctx.cursors.clone();
    child_meta.set_published_vc(&child_vc);
    child_meta.set_turn_vc(&child_vc);

    let shared = Arc::clone(&ctx.shared);
    let handle = std::thread::Builder::new()
        .name(format!("rfdet-{child_tid}"))
        .spawn(move || {
            let mut child = RfdetCtx::from_parts(
                Arc::clone(&shared),
                child_kendo,
                child_meta,
                child_mailbox,
                Some(child_space),
                child_vc,
            );
            child.cursors = child_cursors;
            child.run_body(f);
        })
        .expect("failed to spawn OS thread");
    ctx.shared.run.adopt(child_tid, handle);
    ctx.release_turn();
    op_epilogue(ctx);
    ThreadHandle(child_tid)
}

pub(crate) fn join_impl(ctx: &mut RfdetCtx, h: ThreadHandle) {
    let target = h.0;
    assert_ne!(target, ctx.tid, "thread joining itself");
    ctx.enter_op(SyncOp::Join(target));
    let already_finished = {
        let mut joins = lock_counted(
            &ctx.shared.queues.joins,
            &mut ctx.h.stats.queue_lock_contended,
        );
        if joins.finished.contains(&target) {
            true
        } else {
            joins.waiters.entry(target).or_default().push(ctx.tid);
            false
        }
    };
    if already_finished {
        let var = ctx.sync_var(SyncKey::Thread(target));
        let exit_time = var.lock().last_time.clone();
        op_boundary(ctx, None);
        let turn_vc = ctx.vc.joined(&exit_time);
        ctx.meta_thread.set_turn_vc(&turn_vc);
        ctx.release_turn();
        let lower = ctx.vc.clone();
        ctx.vc.join(&exit_time);
        ctx.propagate_from(target, &exit_time, &lower);
        op_epilogue(ctx);
    } else {
        op_boundary(ctx, None);
        ctx.meta_thread.set_turn_vc(&ctx.vc);
        ctx.shared.kendo.block(&ctx.kendo);
        ctx.release_turn();
        // The join target's published clock always precedes its exit
        // time, so it is a sound prelock source for the parked joiner.
        block_and_acquire(ctx, Some(target));
    }
}

/// Low-level atomics (the §4.6/§6 extension).
///
/// An atomic operation is a synchronization operation that both acquires
/// and releases the cell's internal sync var. Unlike mutexes there is no
/// ownership to hand off, so the whole read-modify-write — including the
/// acquire-side propagation — executes inside one Kendo turn; this keeps
/// consecutive atomics on the same cell strictly serialized (otherwise a
/// second thread could read the sync var between our acquire and our
/// release and miss our update). Atomic cells are expected to carry tiny
/// modification sets, so the in-turn propagation is short.
pub(crate) fn atomic_impl(
    ctx: &mut RfdetCtx,
    addr: rfdet_api::Addr,
    op: Option<rfdet_api::AtomicOp>,
    store: Option<u64>,
) -> u64 {
    assert_eq!(addr % 8, 0, "atomic cells must be 8-byte aligned");
    ctx.enter_op(SyncOp::Atomic(addr));
    let key = SyncKey::Atomic(addr);
    let var = ctx.sync_var(key);
    let edge = {
        let sv = var.lock();
        if sv.needs_propagation(ctx.tid) {
            let from = sv.last_tid.expect("propagation implies a releaser");
            Some((from, sv.last_time.clone()))
        } else {
            None
        }
    };
    // Acquire boundary: close the current slice, join the cell's last
    // release, and propagate — all in turn (see above).
    op_boundary(ctx, None);
    if let Some((from, time)) = edge {
        let lower = ctx.vc.clone();
        ctx.vc.join(&time);
        ctx.propagate_from(from, &time, &lower);
    }
    // The mini-slice between the two boundaries holds only the atomic
    // access itself; tag it so the race detector skips it (an atomic is
    // synchronization — its ordering flows through the release clock
    // recorded below, not through the data-race check).
    ctx.in_atomic = true;
    ctx.begin_slice();
    // The modification itself, through the instrumented in-turn path (a
    // normal write would tick the Kendo clock and release the turn).
    let mut buf = [0u8; 8];
    ctx.read_in_turn(addr, &mut buf);
    let old = u64::from_le_bytes(buf);
    match (op, store) {
        (Some(op), None) => ctx.write_in_turn(addr, &op.apply(old).to_le_bytes()),
        (None, Some(v)) => ctx.write_in_turn(addr, &v.to_le_bytes()),
        (None, None) => {} // pure load
        (Some(_), Some(_)) => unreachable!("rmw and store are exclusive"),
    }
    // Release boundary: publish the one-op slice and record the release.
    op_boundary(ctx, Some(key));
    ctx.in_atomic = false;
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    ctx.release_turn();
    op_epilogue(ctx);
    old
}

/// The implicit exit operation: releases `SyncKey::Thread(tid)` and wakes
/// joiners. Runs when the thread's entry function returns.
pub(crate) fn exit_impl(ctx: &mut RfdetCtx) {
    ctx.enter_op(SyncOp::Exit);
    let lower = op_boundary(ctx, Some(SyncKey::Thread(ctx.tid)));
    ctx.meta_thread.set_turn_vc(&ctx.vc);
    ctx.meta_thread.set_published_vc(&ctx.vc);
    let waiters = {
        let mut joins = lock_counted(
            &ctx.shared.queues.joins,
            &mut ctx.h.stats.queue_lock_contended,
        );
        joins.finished.insert(ctx.tid);
        joins.waiters.remove(&ctx.tid).unwrap_or_default()
    };
    for w in waiters {
        handoff_release(ctx, w, lower.clone());
        ctx.shared.kendo.wake(w, ctx.clock() + 1);
    }
    ctx.shared.meta.mark_dead(ctx.tid);
    // Flush thread-local profiling into the shared aggregate.
    ctx.h.stats.private_pages = ctx.space.materialized_pages() as u64;
    ctx.shared.meta.stats.merge(&ctx.h.stats);
    ctx.shared.kendo.finish(&ctx.kendo);
}

impl RfdetCtx {
    /// Applies every lazy-pending page (used before forking a child).
    /// A runtime-initiated flush, not a program access: no fault is
    /// charged (see [`RfdetCtx::drain_pending`]).
    pub(crate) fn flush_pending(&mut self) {
        let pages: Vec<usize> = self.pending.pages().collect();
        for p in pages {
            self.drain_pending(p);
        }
    }
}
