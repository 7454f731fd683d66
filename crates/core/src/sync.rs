//! Deterministic synchronization operations (paper §4.1).
//!
//! Every operation is a composition of the same few steps, each defined
//! once:
//!
//! 1. [`RfdetCtx::enter_op`] — the harness assigns the op its per-thread
//!    coordinate, seals the slice (diff and packing, thread-local: until
//!    its turn only the thread touches its space), then Kendo admits it
//!    at a deterministic point in the global synchronization order
//!    (`wait_for_turn`);
//! 2. *in turn*: [`op_boundary`] publishes the slice and ticks the
//!    vector clock; in one lookup of the object's record in the
//!    turn-owned [`SyncTable`](rfdet_meta::SyncTable) the op records
//!    its release and mutates the object's queue; [`deposit`] hands a
//!    release edge to each thread the op wakes; then the Kendo clock
//!    ticks, releasing the turn;
//! 3. *off turn*: [`RfdetCtx::acquire`] joins each edge's time and runs
//!    the memory-modification propagation — the expensive part — in
//!    parallel with other threads' turns. This is exactly what "no
//!    global barriers" buys.
//!
//! A blocking operation ends in [`park`] **after** its final tick; its
//! waker deposits the acquire edges and reactivates it with a
//! deterministic clock from inside its own turn.

use crate::ctx::RfdetCtx;
use rfdet_api::obs::Phase;
use rfdet_api::trace::{op, TraceEvent};
use rfdet_api::{BarrierId, CondId, MutexId, SyncOp, ThreadFn, ThreadHandle, Tid};
use rfdet_meta::AcquireSource;
use rfdet_vclock::VClock;
use std::sync::Arc;

/// Ends the slice and ticks the vector clock.
fn end_op_slice(ctx: &mut RfdetCtx) {
    ctx.end_slice();
    ctx.vc.tick(ctx.tid);
}

/// [`end_op_slice`] for a releasing op: returns the release time
/// (`lower` — the just-ended slice's timestamp), which the op records
/// on its object's record. An op that releases nothing copies no clock.
fn op_boundary(ctx: &mut RfdetCtx) -> VClock {
    let lower = ctx.vc.clone();
    end_op_slice(ctx);
    lower
}

/// Post-propagation epilogue shared by every operation (runs off-turn).
fn op_epilogue(ctx: &mut RfdetCtx) {
    ctx.begin_slice();
    ctx.meta_thread.set_published_vc(&ctx.vc);
    ctx.run_pending_gc();
}

/// The hand-off, inside the caller's turn: deposits the release edge
/// `(from, time)` into blocked thread `target`'s mailbox, for it to
/// acquire when it wakes.
fn deposit(ctx: &mut RfdetCtx, target: Tid, from: Tid, time: VClock) {
    let peer = ctx.peer(target);
    peer.mailbox
        .lock()
        .sources
        .push(AcquireSource { from, time });
}

/// Raises a misuse the sync table's checks found, on the misusing
/// thread, inside its turn.
fn raise<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|misuse| panic!("{misuse}"))
}

/// Reactivates blocked thread `w` one tick past the caller's clock. A
/// wake runs inside the waker's turn, so it is a schedule event in its
/// own right: a recording run traces `(w, its new clock)`.
fn wake(ctx: &RfdetCtx, w: Tid) {
    let clock = ctx.clock() + 1;
    ctx.shared.kendo.wake(w, clock);
    if let Some(sink) = &ctx.shared.run.trace_sink {
        sink.push(TraceEvent {
            tid: w,
            op: u64::MAX,
            kind: op::WAKE,
            arg: None,
            clock,
        });
    }
}

/// A non-blocking acquire of `edge` (the lock fast path, joining a
/// finished thread), after the op's slice has ended: releases the turn,
/// then acquires — propagation proceeds in parallel with other threads'
/// synchronization.
fn acquire_now(ctx: &mut RfdetCtx, edge: Option<(Tid, VClock)>) {
    ctx.release_turn();
    if let Some((from, time)) = edge {
        ctx.acquire(from, &time);
    }
    op_epilogue(ctx);
}

/// The blocking tail: blocks, releases the turn, parks until a waker has
/// deposited its edges, then acquires them. When `premerge_source` is
/// set (and the prelock optimization is on), the park loop keeps
/// pre-merging the source's published slices off the critical path
/// (§4.5). A thread parked in `join` (`hosts_gc`) runs the GC passes
/// that publishers owe, after each pre-merge round and once more after
/// the wake-up, unless another joiner already does.
///
/// Debug builds check the pre-merge here: a thread's clock moves only by
/// what it acquires, so after the mailbox it must equal the clock it
/// blocked with joined with every time it was handed. A pre-merge that
/// claimed more than that would have skipped slices it never received.
fn park(ctx: &mut RfdetCtx, premerge_source: Option<Tid>, hosts_gc: bool) {
    #[cfg(debug_assertions)]
    let blocked_vc = ctx.vc.clone();
    ctx.shared.kendo.block(&ctx.kendo);
    let host = hosts_gc && ctx.shared.host_gc(ctx.tid);
    // No GC host: run this op's pass now, before a peer can publish again.
    if !ctx.shared.gc_hosted() {
        ctx.run_pending_gc();
    }
    ctx.release_turn();
    let kendo_handle = ctx.kendo.clone();
    let shared = Arc::clone(&ctx.shared);
    let premerge = premerge_source.filter(|_| shared.run.cfg.rfdet.prelock);
    let idle = |ctx: &mut RfdetCtx| {
        if let Some(src) = premerge {
            ctx.premerge_round(src);
        }
        if host {
            ctx.run_owed_gc();
        }
    };
    // First round immediately, then at each idle poll and nudge. Parked
    // threads double as the deadlock detector: the callback also runs
    // the cheap all-blocked scan (supervise.rs), so a stable deadlock is
    // found by the threads inside it — no watchdog thread, no wall clock.
    idle(ctx);
    let idles = shared.kendo.park_until_active(&kendo_handle, || {
        idle(ctx);
        shared.check_deadlock();
    });
    ctx.h.sample(Phase::IdleWakeups, idles);
    // The boundary stored at sync-op entry predates the park; reseed so
    // the mailbox propagation below is not billed for the blocked time.
    ctx.obs_reseed_boundary();
    let mail = ctx.meta_thread.mailbox.lock().drain();
    debug_assert!(!mail.is_empty(), "woken without a handoff");
    ctx.apply_mailbox(&mail);
    #[cfg(debug_assertions)]
    {
        let mut delivered = blocked_vc;
        for src in &mail.sources {
            delivered.join(&src.time);
        }
        assert_eq!(
            ctx.vc, delivered,
            "a pre-merge claimed more than the wake-up delivered"
        );
    }
    op_epilogue(ctx);
    if host {
        // A pass owed too late for the park runs now, still off turn,
        // below the clock the wake-up delivered.
        shared.unhost_gc();
        ctx.run_owed_gc();
    }
    // The checkpoint fragment is contributed only after the merge.
    if let Some(epoch) = mail.checkpoint {
        crate::checkpoint::contribute(ctx, epoch);
    }
}

pub(crate) fn lock_impl(ctx: &mut RfdetCtx, m: MutexId) {
    ctx.enter_op(SyncOp::Lock(m));
    let tid = ctx.tid;
    // Free: the edge to acquire (none when the caller made the last
    // release). Busy: the thread the caller queues behind.
    let free = {
        let mut table = ctx.shared.meta.sync_in_turn();
        let mx = table.mutexes.entry(m.0).or_default();
        if raise(mx.try_lock(m.0, tid)) {
            Ok(mx.release.edge(tid))
        } else {
            let pred = mx
                .queue
                .back()
                .copied()
                .or(mx.owner)
                .expect("contended mutex must have an owner or queue");
            mx.queue.push_back(tid);
            Err(pred)
        }
    };
    end_op_slice(ctx);
    match free {
        Ok(edge) => acquire_now(ctx, edge),
        // §4.5 Prelock: merge everything that must happen-before our
        // eventual acquire while the lock holder still works.
        Err(pred) => park(ctx, Some(pred), false),
    }
}

pub(crate) fn unlock_impl(ctx: &mut RfdetCtx, m: MutexId) {
    ctx.enter_op(SyncOp::Unlock(m));
    let lower = op_boundary(ctx);
    let next = {
        let mut table = ctx.shared.meta.sync_in_turn();
        raise(table.release_mutex(ctx.tid, m.0, None, lower))
    };
    hand_over(ctx, next);
    ctx.release_turn();
    op_epilogue(ctx);
}

/// Hands a released mutex to the next owner, if anyone was queued:
/// deposits the release edge and wakes it.
fn hand_over(ctx: &mut RfdetCtx, next: Option<(Tid, VClock)>) {
    if let Some((w, time)) = next {
        deposit(ctx, w, ctx.tid, time);
        wake(ctx, w);
    }
}

pub(crate) fn wait_impl(ctx: &mut RfdetCtx, c: CondId, m: MutexId) {
    ctx.enter_op(SyncOp::CondWait(c));
    let lower = op_boundary(ctx);
    // cond_wait releases the mutex and queues on the condvar…
    let next = {
        let mut table = ctx.shared.meta.sync_in_turn();
        raise(table.release_mutex(ctx.tid, m.0, Some(c.0), lower))
    };
    hand_over(ctx, next);
    // …then blocks until signalled (and until it re-owns the mutex: the
    // signaler either grants it immediately or moves us to the mutex
    // queue, in which case the eventual unlocker completes the wakeup).
    park(ctx, None, false);
}

pub(crate) fn signal_impl(ctx: &mut RfdetCtx, c: CondId, broadcast: bool) {
    ctx.enter_op(if broadcast {
        SyncOp::CondBroadcast(c)
    } else {
        SyncOp::CondSignal(c)
    });
    let lower = op_boundary(ctx);
    let tid = ctx.tid;
    // Pop waiters deterministically (FIFO — enqueue order was itself
    // turn-ordered) and arrange each one's mutex re-acquisition: a free
    // mutex is granted at once, with the mutex's own release edge; a busy
    // one queues the waiter, and the unlocker finishes the hand-off.
    let mut popped = Vec::new();
    {
        let mut table = ctx.shared.meta.sync_in_turn();
        let cond = table.conds.entry(c.0).or_default();
        for (w, mid) in cond.signal(tid, lower.clone(), broadcast) {
            let mx = table.mutexes.entry(mid).or_default();
            // A waiter released its mutex in `cond_wait`: never recursive.
            if mx.try_lock(mid, w) == Ok(true) {
                popped.push((w, true, mx.release.edge(w)));
            } else {
                mx.queue.push_back(w);
                popped.push((w, false, None));
            }
        }
    }
    for (w, granted, edge) in popped {
        // The signal edge (release of the condvar).
        deposit(ctx, w, tid, lower.clone());
        if let Some((from, time)) = edge {
            deposit(ctx, w, from, time);
        }
        if granted {
            wake(ctx, w);
        }
    }
    ctx.release_turn();
    op_epilogue(ctx);
}

pub(crate) fn barrier_impl(ctx: &mut RfdetCtx, b: BarrierId, parties: usize) {
    ctx.enter_op(SyncOp::Barrier(b));
    let lower = op_boundary(ctx);
    let arrivals = {
        let mut table = ctx.shared.meta.sync_in_turn();
        let barrier = table.barriers.entry(b.0).or_default();
        raise(barrier.arrive(b.0, ctx.tid, lower, parties))
    };
    let Some(arrivals) = arrivals else {
        return park(ctx, None, false);
    };
    // Last arriver. Checkpoint eligibility is decided here, inside its
    // turn, *before* any deposit or wake: the global seal data (the sync
    // table, dead outputs) is race-free, and every participant learns
    // the same epoch.
    let checkpoint = crate::checkpoint::decide(ctx, &arrivals);
    // Each participant acquires every other arrival in ascending tid
    // (§4.1: "the thread with the smallest ID merges its modifications
    // first"): a slice below the episode's join is below the arrival of
    // whichever participant saw most of its owner, so it lies in that
    // participant's list prefix. Wakes go out in arrival order; ours is
    // the last arrival.
    let woken: Vec<Tid> = arrivals[..parties - 1].iter().map(|&(w, _)| w).collect();
    let mut edges = arrivals;
    edges.sort_unstable_by_key(|&(tid, _)| tid);
    for w in woken {
        for (from, time) in &edges {
            if *from != w {
                deposit(ctx, w, *from, time.clone());
            }
        }
        ctx.peer(w).mailbox.lock().checkpoint = checkpoint;
        wake(ctx, w);
    }
    ctx.release_turn();
    // Own merge, off turn.
    for (from, time) in &edges {
        if *from != ctx.tid {
            ctx.acquire(*from, time);
        }
    }
    op_epilogue(ctx);
    if let Some(epoch) = checkpoint {
        crate::checkpoint::contribute(ctx, epoch);
    }
}

pub(crate) fn spawn_impl(ctx: &mut RfdetCtx, f: ThreadFn) -> ThreadHandle {
    ctx.enter_op(SyncOp::Spawn);
    // Create is a release; the child inherits memory directly, no sync
    // var needed (§4.1).
    let lower = op_boundary(ctx);
    // The caller stops being alone before anything forks its space: from
    // here on a thread exists whose clock does not cover its slices.
    ctx.alone = false;

    // Deterministic registration inside the parent's turn.
    let child_meta = ctx.shared.meta.register_thread();
    let child_tid = child_meta.tid;
    let child_kendo = ctx.shared.kendo.register(ctx.clock() + 1);
    assert_eq!(child_kendo.tid(), child_tid, "registry tid mismatch");
    // The child's clock starts from the *pre-tick* boundary clock, not
    // the parent's post-tick `vc`: a slice is stamped with the clock it
    // runs under, so the slice the parent opens right after this boundary
    // will carry exactly the post-tick clock. A child seeded with that value
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

    let shared = Arc::clone(&ctx.shared);
    let handle = std::thread::Builder::new()
        .name(format!("rfdet-{child_tid}"))
        .spawn(move || {
            let mut child = RfdetCtx::from_parts(
                Arc::clone(&shared),
                child_kendo,
                child_meta,
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
    ctx.enter_op(SyncOp::Join(target));
    // Finished: the edge to its exit. Running: the caller joins its queue.
    let finished = {
        let spawned = ctx.shared.meta.num_threads();
        let mut table = ctx.shared.meta.sync_in_turn();
        raise(table.join(ctx.tid, target, spawned)).map(|exit| exit.edge(ctx.tid))
    };
    end_op_slice(ctx);
    match finished {
        Some(edge) => acquire_now(ctx, edge),
        // The join target's published clock always precedes its exit
        // time, so it is a sound prelock source for the parked joiner.
        None => park(ctx, Some(target), true),
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
    let edge = {
        let mut table = ctx.shared.meta.sync_in_turn();
        table.atomics.entry(addr).or_default().edge(ctx.tid)
    };
    // Acquire boundary: close the current slice, join the cell's last
    // release, and propagate — all in turn (see above).
    end_op_slice(ctx);
    if let Some((from, time)) = edge {
        ctx.acquire(from, &time);
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
    let lower = op_boundary(ctx);
    {
        let mut table = ctx.shared.meta.sync_in_turn();
        let cell = table.atomics.entry(addr).or_default();
        cell.record_release(ctx.tid, lower);
    }
    ctx.in_atomic = false;
    ctx.release_turn();
    op_epilogue(ctx);
    old
}

/// The implicit exit operation: releases `SyncKey::Thread(tid)` and wakes
/// joiners. Runs when the thread's entry function returns.
pub(crate) fn exit_impl(ctx: &mut RfdetCtx) {
    ctx.enter_op(SyncOp::Exit);
    let lower = op_boundary(ctx);
    ctx.meta_thread.set_published_vc(&ctx.vc);
    let joiners = ctx.shared.meta.sync_in_turn().exit(ctx.tid, lower.clone());
    for w in joiners {
        deposit(ctx, w, ctx.tid, lower.clone());
        wake(ctx, w);
    }
    ctx.shared.meta.mark_dead(ctx.tid);
    // In turn, so a later checkpoint reads exactly the exited threads'
    // output.
    ctx.h.stats.private_pages = ctx.space.materialized_pages() as u64;
    ctx.shared.run.retire(&mut ctx.h);
    ctx.shared.kendo.finish(&ctx.kendo);
}
