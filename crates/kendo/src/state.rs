//! The arbitration state machine.
//!
//! **Successor handoff**: the turn holder alone computes the next
//! minimal `(clock, tid)` when it releases the turn and publishes it in
//! a packed [`AtomicU64`] baton. Waiters check one uncontended load;
//! non-designated waiters park on their own slot condvar, notified only
//! if asleep. One O(T) scan per turn *transition*, by one thread.
//!
//! **One park**: a non-designated turn-waiter and a `Blocked` thread wait
//! in the same loop (`KendoState::park`) — spin, yield, then sleep on
//! the slot condvar — with one abort check, one nudge and idle-callback
//! path, and one starvation bound measured in *quiet* time: it restarts
//! whenever any slot's clock or status has moved.
//!
//! Two references check the handoff, neither on its path: the original
//! broadcast predicate (`has_turn`: is my `(clock, tid)` minimal over
//! `Active` threads?) backs the `debug_assert` on every baton grant, and
//! this module's tests hold the admitted `(tid, clock)` sequence equal to
//! a sequential model of the turn order that shares no code with the
//! arbiter.

use parking_lot::{Condvar, Mutex};
use rfdet_vclock::Tid;
use std::panic::panic_any;
use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pads a value to its own cache line so per-thread slots never falsely
/// share one (the only piece of `crossbeam` this crate used; inlined so
/// the workspace builds offline).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Thread status in the arbitration protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Participates in turn arbitration; other threads wait for its clock.
    Active = 0,
    /// Physically blocked (on a lock queue, condition variable, join or
    /// barrier); skipped by the minimum computation. May only be set by
    /// the thread itself during its own turn, and cleared by a waker
    /// during *its* turn.
    Blocked = 1,
    /// Exited; never returns to the protocol.
    Finished = 2,
}

impl Status {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Status::Active,
            1 => Status::Blocked,
            2 => Status::Finished,
            _ => unreachable!("invalid status byte"),
        }
    }
}

#[derive(Debug, Default)]
struct Slot {
    clock: CachePadded<AtomicU64>,
    status: CachePadded<AtomicU8>,
    /// Parking support for blocked threads and non-designated
    /// turn-waiters; the lock holds when the last notify was sent.
    park_lock: Mutex<Option<Instant>>,
    park_cv: Condvar,
    /// Armed in the sleep stage before each `ready` check ([`Slot::notify_if_asleep`]).
    sleeping: AtomicBool,
    /// Set by [`KendoState::nudge_parked`]. Padded: a spinning turn-waiter
    /// polls it, and must not share the line the releaser's notify locks.
    nudged: CachePadded<AtomicBool>,
    /// Written by the owner alone, so a hand-off writes no shared line.
    own: CachePadded<Owned>,
}

/// A slot's owner-written state, each field a relaxed load and store.
#[derive(Debug, Default)]
struct Owned {
    /// Its share of [`KendoState::handoff_counters`].
    scans: AtomicU64,
    wakes: AtomicU64,
    turn_parks: AtomicU64,
    /// Learned yields after [`MIN_YIELDS`], per kind of [`Wait`].
    yields: [AtomicU32; 2],
    /// Notify-to-running of its notified sleeps, a moving average in ns.
    wake_ns: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Relaxed) + 1, Relaxed);
}

impl Slot {
    fn new(clock: u64, status: Status) -> Self {
        Self {
            clock: CachePadded(AtomicU64::new(clock)),
            status: CachePadded(AtomicU8::new(status as u8)),
            ..Self::default()
        }
    }

    /// Consumes a pending nudge; a plain load while there is none.
    fn take_nudge(&self) -> bool {
        self.nudged.load(SeqCst) && self.nudged.swap(false, SeqCst)
    }

    /// Notifies (and disarms) an armed sleeper; says whether it did. The caller
    /// stored (`SeqCst`) what `ready` reads, the owner armed before reading it.
    fn notify_if_asleep(&self) -> bool {
        if !self.sleeping.load(SeqCst) {
            return false;
        }
        let mut last_notify = self.park_lock.lock();
        if !self.sleeping.swap(false, SeqCst) {
            return false;
        }
        *last_notify = Some(Instant::now());
        self.park_cv.notify_all();
        true
    }

    /// Learns from a sleep `asleep..woke`, last notified at `notified`:
    /// the `wait` budget doubles if the notify came sooner than the wake-up
    /// then took, else loses an eighth; the wake-up average moves an eighth.
    fn learn(&self, wait: Wait, asleep: Instant, notified: Option<Instant>, woke: Instant) {
        if let Some(at) = notified {
            let took = woke.saturating_duration_since(at).as_nanos() as u64;
            let avg = self.own.wake_ns.load(Relaxed);
            let avg = if avg == 0 { took } else { avg };
            let next = (avg - avg / 8 + took / 8).max(1);
            self.own.wake_ns.store(next, Relaxed);
        }
        let notified = notified.unwrap_or(asleep).max(asleep);
        let budget = &self.own.yields[wait as usize];
        let yields = budget.load(Relaxed);
        let next = if notified - asleep <= woke.saturating_duration_since(notified) {
            (yields * 2).clamp(1, MAX_YIELDS)
        } else {
            yields.saturating_sub((yields / 8).max(1))
        };
        budget.store(next, Relaxed);
    }
}

/// Maximum threads per run: the baton packs the tid into its low byte
/// and reserves `0xFF` for the NONE sentinel.
pub const MAX_THREADS: usize = 255;

/// Baton value meaning "no active thread is designated" (terminal:
/// every registered thread is blocked or finished). Its low byte is
/// `0xFF`, which no valid tid can match.
const BATON_NONE: u64 = u64::MAX;

/// How long a parked thread sleeps between looking for its wakeup (or the
/// abort flag) when no one has signalled it: 20 ms, per the paper's Kendo
/// lineage. Wall-clock only — wakeups are delivered deterministically.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// A park's spins, its yields before the learned budget, and the budget's cap.
const SPINS: u32 = 64;
const MIN_YIELDS: u32 = 32;
const MAX_YIELDS: u32 = 1 << 14;

/// Logical-clock units a thread may accumulate before publishing them to
/// its slot (Kendo's chunked clock publication), and — the same number —
/// the published-clock boundary at which [`KendoState::tick_off_turn`]
/// checks for a stale designation. One constant because one event: a
/// [`TickBatch`] publishes at least a stride at a time, so every
/// off-turn publication crosses a boundary and pays the single baton load
/// that keeps a compute-bound designated thread from stranding waiters.
/// A larger chunk bought no wall time on any workload (EXPERIMENTS.md
/// "Change ledger", `results/access_fast_path_ab.txt`); a smaller one
/// puts the shared `lock xadd` back on the access path.
pub const PUBLISH_STRIDE: u64 = 64;

/// A thread's unpublished off-turn ticks: a plain counter beside the
/// thread's [`KendoHandle`], so an instrumented access costs an add and a
/// compare, not a read-modify-write of the shared slot.
///
/// The published clock is then a *lower bound* of the thread's true
/// clock, which arbitration tolerates (admission needs the baton clock
/// to equal the candidate's exact clock; a lagging peer can only delay
/// it) — provided the owner [`flush`](Self::flush)es before every point
/// that reads its clock or orders by it: sync-op entry, a recorded
/// allocation, exit and unwind. A thread waiting for its turn, `Blocked`
/// or `Finished` therefore never holds unpublished ticks.
#[derive(Debug, Default)]
pub struct TickBatch {
    pending: u64,
}

impl TickBatch {
    /// Advances the owner's clock by `n`, publishing once a
    /// [`PUBLISH_STRIDE`] is pending.
    #[inline]
    pub fn tick(&mut self, kendo: &KendoState, me: &KendoHandle, n: u64) {
        self.pending += n;
        if self.pending >= PUBLISH_STRIDE {
            self.flush(kendo, me);
        }
    }

    /// Publishes whatever is pending; afterwards `me.clock()` is exact.
    pub fn flush(&mut self, kendo: &KendoState, me: &KendoHandle) {
        if self.pending > 0 {
            kendo.tick_off_turn(me, std::mem::take(&mut self.pending));
        }
    }

    /// Ticks not yet published.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.pending
    }
}

#[inline]
fn pack(clock: u64, tid: Tid) -> u64 {
    debug_assert!(clock < 1 << 56, "kendo clock overflows the baton");
    (clock << 8) | u64::from(tid) & 0xFF
}

#[inline]
fn baton_tid(b: u64) -> Tid {
    (b & 0xFF) as Tid
}

#[inline]
fn baton_clock(b: u64) -> u64 {
    b >> 8
}

/// The unwind payload of every waiter once the run is aborted
/// ([`KendoState::set_abort`]): the secondary unwind of a run that has
/// already failed, never a root cause.
#[derive(Debug)]
pub struct Aborted;

/// The unwind payload of the waiter whose wall-clock starvation bound
/// tripped (it aborts the run first, so every peer unwinds [`Aborted`]).
/// Displays the diagnosis: who starved, for how long, the slot table.
#[derive(Debug)]
pub struct Starved(String);

impl std::fmt::Display for Starved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Grow-only lock-free slot table: a fixed array of `OnceLock` cells
/// plus a published length. Readers on the hot path (`has_turn`, the
/// handoff scan, the park fingerprint, `finish_forced`) take no lock;
/// writers (`register`) are serialized by the registration mutex and
/// publish the new length with `Release` so a reader that observes index
/// `i` also observes slot `i` initialized.
struct SlotTable {
    slots: Box<[OnceLock<Arc<Slot>>]>,
    len: AtomicUsize,
}

impl SlotTable {
    fn new() -> Self {
        Self {
            slots: (0..MAX_THREADS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len.load(Acquire)
    }

    /// Appends a slot; caller must hold the registration lock.
    fn push(&self, slot: Arc<Slot>) -> usize {
        let i = self.len.load(Acquire);
        assert!(i < MAX_THREADS, "kendo: more than {MAX_THREADS} threads");
        assert!(self.slots[i].set(slot).is_ok(), "slot {i} registered twice");
        self.len.store(i + 1, Release);
        i
    }

    #[inline]
    fn get(&self, i: usize) -> &Arc<Slot> {
        self.slots[i]
            .get()
            .expect("slot index past registered length")
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = (usize, &Arc<Slot>)> {
        (0..self.len()).map(move |i| (i, self.get(i)))
    }
}

/// A thread's cached handle to its own slot (keeps the hot `tick` path to
/// one uncontended atomic add).
#[derive(Clone, Debug)]
pub struct KendoHandle {
    slot: Arc<Slot>,
    tid: Tid,
}

impl KendoHandle {
    /// The thread this handle belongs to.
    #[must_use]
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Advances this thread's logical clock by `n`.
    #[inline]
    pub fn tick(&self, n: u64) {
        self.slot.clock.fetch_add(n, SeqCst);
    }

    /// This thread's current logical clock.
    #[inline]
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.slot.clock.load(SeqCst)
    }
}

/// What a park waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// The baton to name the waiter: a non-designated turn-waiter.
    Turn,
    /// A waker to flip the waiter back to `Active`: a `Blocked` thread.
    Blocked,
}

/// The global arbitration state shared by all threads of one run.
pub struct KendoState {
    slots: SlotTable,
    /// Serializes `register` (a cold path; runtime registrations happen
    /// inside the parent's turn anyway, but tests register freely).
    register_lock: Mutex<()>,
    /// The handoff baton: `(clock << 8) | tid` of the thread currently
    /// designated to hold (or next take) the turn, or [`BATON_NONE`].
    ///
    /// Ownership invariant: only the thread named by the baton may scan
    /// and republish it. While a turn is in progress the baton holds the
    /// holder's `(arrival clock, tid)`; the holder's release tick makes
    /// that pair stale against its own clock, and the holder then runs
    /// the successor scan and hands the baton off. Scans are sound
    /// without an epoch guard because status changes (block, wake,
    /// finish, register) happen only inside turns — which cannot run
    /// concurrently with the unique baton owner's scan — and clocks are
    /// monotone, so an observed minimum stays a minimum.
    baton: CachePadded<AtomicU64>,
    /// The starvation bound: how long a park may sleep while no slot's
    /// clock or status moves (`None`: forever).
    deadlock_after: Option<Duration>,
    /// Period of a parked thread's idle re-check (condvar wait timeout and
    /// idle-callback cadence): [`IDLE_POLL`] unless a test overrides it.
    idle_poll: Duration,
    /// Test-only: a stall between a park's last `ready` check and wait.
    #[cfg(test)]
    sleep_entry_stall: Duration,
    /// Set when some thread panicked: every waiter unwinds instead of
    /// spinning forever on a protocol that will never advance.
    abort: AtomicBool,
    /// Bumped on every non-monotone event (wake, register): a *wake* can
    /// re-activate a blocked thread with a lower clock mid-scan. A
    /// `has_turn` scan with the epoch unchanged across it is sound: a
    /// wake landing after it comes from a turn-holder whose clock the scan
    /// already saw (and rejected, had it been smaller).
    wake_epoch: AtomicU64,
}

impl std::fmt::Debug for KendoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KendoState")
            .field("threads", &self.num_threads())
            .field("deadlock_after", &self.deadlock_after)
            .field("aborted", &self.aborted())
            .field("state", &self.debug_state())
            .finish_non_exhaustive()
    }
}

impl Default for KendoState {
    fn default() -> Self {
        Self::new()
    }
}

impl KendoState {
    /// Creates an empty arbitration state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: SlotTable::new(),
            register_lock: Mutex::new(()),
            baton: CachePadded(AtomicU64::new(BATON_NONE)),
            deadlock_after: Some(Duration::from_secs(30)),
            idle_poll: IDLE_POLL,
            #[cfg(test)]
            sleep_entry_stall: Duration::ZERO,
            abort: AtomicBool::new(false),
            wake_epoch: AtomicU64::new(0),
        }
    }

    /// Aborts the run: all threads waiting in [`KendoState::wait_for_turn`]
    /// or [`KendoState::park_until_active`] panic promptly. Used to
    /// propagate a panic out of one thread without deadlocking the rest.
    pub fn set_abort(&self) {
        self.abort.store(true, SeqCst);
        // Kick every parked thread — blocked parkers and turn-waiters
        // alike share the slot condvar — so they observe the flag.
        for (_, slot) in self.slots.iter() {
            let _guard = slot.park_lock.lock();
            slot.park_cv.notify_all();
        }
    }

    /// Has every parked thread but `me` run its idle callback now rather
    /// than at its next idle poll. RFDet nudges after each GC pass: a
    /// parked thread's published clock, which bounds what GC may collect,
    /// moves only in that callback's pre-merge, so without the nudge how
    /// much metadata a run holds would be paced by wall time. `me` is the
    /// thread that ran the pass: parked or not, it needs no nudge.
    pub fn nudge_parked(&self, me: Tid) {
        for (i, slot) in self.slots.iter() {
            if i != me as usize {
                Self::nudge_slot(slot);
            }
        }
    }

    /// Has `target` run its idle callback now, if it is parked; says
    /// whether it was. RFDet hands a GC pass to a parked joiner this way.
    pub fn nudge(&self, target: Tid) -> bool {
        Self::nudge_slot(self.slots.get(target as usize))
    }

    fn nudge_slot(slot: &Slot) -> bool {
        let parked = Status::from_u8(slot.status.load(SeqCst)) == Status::Blocked;
        if parked {
            slot.nudged.store(true, SeqCst);
            slot.notify_if_asleep();
        }
        parked
    }

    /// `true` once the run has been aborted.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.abort.load(SeqCst)
    }

    fn check_abort(&self) {
        if self.aborted() {
            panic_any(Aborted);
        }
    }

    /// Overrides the deadlock-detection timeout (`None` disables it).
    #[must_use]
    pub fn with_deadlock_timeout(mut self, t: Option<Duration>) -> Self {
        self.deadlock_after = t;
        self
    }

    /// Handoff-protocol counters, summed over the slots: `(successor
    /// scans, scans that notified a sleeping successor, turn waits that
    /// reached the sleep stage)`.
    #[must_use]
    pub fn handoff_counters(&self) -> (u64, u64, u64) {
        let sum = |f: fn(&Owned) -> &AtomicU64| {
            let each = self.slots.iter().map(|(_, s)| f(&s.own).load(Relaxed));
            each.sum()
        };
        (sum(|o| &o.scans), sum(|o| &o.wakes), sum(|o| &o.turn_parks))
    }

    /// Epoch-stable stable-deadlock scan: `Some(blocked tids)` iff at
    /// least one registered thread is `Blocked` and **every** registered,
    /// non-`Finished` thread is `Blocked`, with `wake_epoch` unchanged
    /// across the scan (a mid-scan register or wake reports `None`).
    /// A clean scan proves a *stable* deadlock: wakes happen only inside
    /// a turn, which only `Active` threads take, so no future wake can
    /// originate inside the run — no wall clock needed.
    #[must_use]
    pub fn blocked_snapshot(&self) -> Option<Vec<Tid>> {
        let epoch_before = self.wake_epoch.load(SeqCst);
        let mut blocked = Vec::new();
        for (i, s) in self.slots.iter() {
            match Status::from_u8(s.status.load(SeqCst)) {
                Status::Active => return None,
                Status::Blocked => blocked.push(i as Tid),
                Status::Finished => {}
            }
        }
        if blocked.is_empty() || self.wake_epoch.load(SeqCst) != epoch_before {
            return None;
        }
        Some(blocked)
    }

    /// Registers the next thread with an initial clock and returns its
    /// slot handle. Thread IDs are dense and sequential; callers must
    /// invoke this under a deterministic order (inside the parent's turn).
    pub fn register(&self, initial_clock: u64) -> KendoHandle {
        let guard = self.register_lock.lock();
        let slot = Arc::new(Slot::new(initial_clock, Status::Active));
        let tid = self.slots.push(Arc::clone(&slot)) as Tid;
        // Seed or lower the baton when the newcomer is the minimum. A
        // runtime registration happens inside the parent's turn, where
        // the child's clock (parent + 1) can never undercut the holder's
        // baton pair — so this fires only for the first thread and for
        // pre-run test registration, where no turn is in progress and
        // re-aiming the baton at the true minimum is exactly right.
        let packed = pack(initial_clock, tid);
        if packed < self.baton.load(SeqCst) {
            self.baton.store(packed, SeqCst);
        }
        drop(guard);
        self.wake_epoch.fetch_add(1, SeqCst);
        KendoHandle { slot, tid }
    }

    /// Number of registered threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.slots.len()
    }

    /// `true` iff `(clock, tid)` is minimal over all `Active` threads —
    /// verified by an epoch-stable scan (see `wake_epoch`). This is the
    /// spin-scan arbitration predicate, retained as the debug oracle the
    /// baton grant is checked against.
    fn has_turn(&self, me: &KendoHandle) -> bool {
        let epoch_before = self.wake_epoch.load(SeqCst);
        let my_clock = me.clock();
        for (i, s) in self.slots.iter() {
            if i as Tid == me.tid {
                continue;
            }
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let c = s.clock.load(SeqCst);
            if (c, i as Tid) < (my_clock, me.tid) {
                return false;
            }
        }
        // A wake or register slipped in mid-scan: the snapshot may be
        // inconsistent (a thread observed Blocked may now be Active with
        // a smaller clock). Retry.
        self.wake_epoch.load(SeqCst) == epoch_before
    }

    /// The minimal `(clock, tid)` over `Active` threads, if any.
    fn min_active(&self) -> Option<(u64, Tid)> {
        self.slots
            .iter()
            .filter(|(_, s)| Status::from_u8(s.status.load(SeqCst)) == Status::Active)
            .map(|(i, s)| (s.clock.load(SeqCst), i as Tid))
            .min()
    }

    /// The successor scan: publishes [`Self::min_active`] into the baton.
    /// Returns `true` iff the caller itself is the minimum (it then holds
    /// the turn); otherwise the designated successor is notified if it
    /// sleeps.
    ///
    /// Soundness: only the baton owner calls this, so no turn body — no
    /// block/wake/finish/register — runs concurrently: statuses are frozen
    /// and clocks only grow, so the observed minimum is the true one at
    /// publication. (A designated thread that ticks past the observed
    /// clock is stale-named, and repairs the designation by the same rule.)
    fn scan_and_publish(&self, me: &KendoHandle) -> bool {
        bump(&me.slot.own.scans);
        match self.min_active() {
            None => {
                // Terminal: everyone blocked or finished. Parked blocked
                // threads own deadlock detection from here.
                self.baton.store(BATON_NONE, SeqCst);
                false
            }
            Some((clock, tid)) => {
                // Publish before the notify (`Slot::notify_if_asleep`).
                self.baton.store(pack(clock, tid), SeqCst);
                if tid == me.tid {
                    return true;
                }
                if self.slots.get(tid as usize).notify_if_asleep() {
                    bump(&me.slot.own.wakes);
                }
                false
            }
        }
    }

    /// Releases the turn after a sync operation: advances the caller's
    /// clock by `n` and runs the successor scan. The caller must hold the
    /// turn.
    pub fn release_turn(&self, me: &KendoHandle, n: u64) {
        me.tick(n);
        self.scan_and_publish(me);
    }

    /// Off-turn clock advance with stale-designation repair (the paper's
    /// §3.1 no-blocking property: a thread that never synchronizes must
    /// not delay threads that do).
    ///
    /// The successor scan can designate a compute-bound thread (minimal
    /// clock, `Active`) nowhere near the arbiter; ticking only through
    /// [`KendoHandle::tick`], it would strand the waiters it has since
    /// ticked past until its next sync op — potentially forever. So
    /// whenever an off-turn tick crosses a [`PUBLISH_STRIDE`] boundary,
    /// the thread loads the baton once and, if it is named with a
    /// now-stale clock, rescans. The runtime calls this through a
    /// [`TickBatch`], a stride's worth at a time.
    ///
    /// Sound: a stale designation can never be *taken* (admission needs
    /// the baton clock to equal the thread's own, and clocks are
    /// monotone), so the named thread is the unique legal scanner wherever
    /// it notices, and no turn body — no status change — can start while
    /// the baton names it. Live: a designated thread that stops ticking
    /// has a frozen clock every waiter must wait for anyway; one that
    /// keeps ticking crosses a boundary within a stride. Which thread is
    /// admitted next is still exactly the minimal `(clock, tid)`.
    pub fn tick_off_turn(&self, me: &KendoHandle, n: u64) {
        let old = me.slot.clock.fetch_add(n, SeqCst);
        let new = old + n;
        if old / PUBLISH_STRIDE == new / PUBLISH_STRIDE {
            return;
        }
        let b = self.baton.load(SeqCst);
        if b != BATON_NONE && baton_tid(b) == me.tid && baton_clock(b) < new {
            self.scan_and_publish(me);
        }
    }

    /// Blocks until the calling thread holds the turn.
    ///
    /// On return the caller is the unique minimal active thread and stays
    /// so until it ticks; everything it does in between is serialized
    /// against every other turn body, in deterministic order.
    ///
    /// One uncontended baton load per check, and no clock read unless the
    /// wait sleeps. The designated successor takes the turn (or repairs a
    /// stale designation); everyone else parks until the baton names it.
    pub fn wait_for_turn(&self, me: &KendoHandle) {
        loop {
            // Abort check must precede the fast-path return: a thread
            // that is always the designated leader would otherwise never
            // observe the abort.
            self.check_abort();
            let b = self.baton.load(SeqCst);
            if baton_tid(b) == me.tid {
                let my_clock = me.clock();
                let bc = baton_clock(b);
                if bc == my_clock {
                    debug_assert!(
                        self.has_turn(me),
                        "baton grant disagrees with the scan oracle: t{} clock={} state={}",
                        me.tid,
                        my_clock,
                        self.debug_state()
                    );
                    return;
                }
                // Stale designation: we ticked past the clock the scan
                // observed (off-turn memory ticks). Clock monotonicity
                // means the baton can only lag, never lead.
                debug_assert!(
                    bc < my_clock,
                    "baton clock {bc} ahead of its owner t{} at {my_clock}",
                    me.tid
                );
                // We are the unique baton owner: rescan and either take
                // the turn or hand off to the real minimum.
                if self.scan_and_publish(me) {
                    debug_assert!(self.has_turn(me), "post-rescan grant fails the oracle");
                    return;
                }
            } else if b == BATON_NONE && self.scan_and_publish(me) {
                // No designated thread, yet we are Active: a state only
                // test harnesses can construct (the runtime's last active
                // thread always republishes before anyone new can wait).
                // Safe to scan — with no turn in progress, statuses are
                // frozen and any published minimum is valid.
                return;
            } else {
                // Not designated. The successor scan that picks us will
                // publish our exact pair (a parked thread's clock is
                // frozen), and notify our condvar if we sleep.
                let named = || baton_tid(self.baton.load(SeqCst)) == me.tid;
                self.park(me, Wait::Turn, named, || {});
            }
        }
    }

    /// Marks the calling thread blocked. **Must be called while holding
    /// the turn**, immediately before the final tick of a blocking
    /// operation.
    pub fn block(&self, me: &KendoHandle) {
        debug_assert!(
            self.has_turn(me),
            "block() outside of turn: t{} clock={} state={}",
            me.tid,
            me.clock(),
            self.debug_state()
        );
        me.slot.status.store(Status::Blocked as u8, SeqCst);
    }

    /// Marks the calling thread finished. Must be called while holding
    /// the turn; the turn is implicitly released (finished threads are
    /// skipped by arbitration), so this also runs the successor scan.
    pub fn finish(&self, me: &KendoHandle) {
        debug_assert!(self.has_turn(me), "finish() outside of turn");
        me.slot.status.store(Status::Finished as u8, SeqCst);
        self.scan_and_publish(me);
    }

    /// Marks a thread finished without the turn assertion. Only for panic
    /// cleanup after [`KendoState::set_abort`] (no baton repair needed:
    /// every waiter is already unwinding on the abort flag) and for
    /// checkpoint-restore registration of already-dead threads (the
    /// restorer calls [`KendoState::reseed_baton`] afterwards).
    pub fn finish_forced(&self, tid: Tid) {
        self.slots
            .get(tid as usize)
            .status
            .store(Status::Finished as u8, SeqCst);
    }

    /// Re-aims the baton at the minimal `(clock, tid)` over `Active`
    /// threads (or the empty baton).
    /// For checkpoint restore, **before the run starts**: restore also
    /// registers already-finished threads (tids must stay dense) and
    /// `finish_forced` never republishes, so the baton `register` seeded
    /// could name a `Finished` thread and hang the resumed run at its first
    /// turn. Not for concurrent use: no notify is issued.
    pub fn reseed_baton(&self) {
        let packed = self.min_active().map_or(BATON_NONE, |(c, t)| pack(c, t));
        self.baton.store(packed, SeqCst);
    }

    /// Reactivates a blocked thread with a deterministic new clock.
    ///
    /// **Must be called from inside the waker's turn**, and `new_clock`
    /// must be strictly greater than the waker's current clock — this
    /// keeps the waker minimal until its own tick and makes the order of
    /// the wakeup deterministic. (The waker's release scan then decides
    /// whether the woken thread is the next successor.)
    pub fn wake(&self, target: Tid, new_clock: u64) {
        let slot = Arc::clone(self.slots.get(target as usize));
        debug_assert_eq!(
            Status::from_u8(slot.status.load(SeqCst)),
            Status::Blocked,
            "wake of a non-blocked thread {target}"
        );
        // Clock first, then status: a concurrent has_turn() that observes
        // Active will also observe the new clock or a larger one.
        slot.clock.store(new_clock, SeqCst);
        slot.status.store(Status::Active as u8, SeqCst);
        slot.notify_if_asleep();
        self.wake_epoch.fetch_add(1, SeqCst);
    }

    /// Parks the calling thread until some waker flips it back to
    /// `Active`. Call after [`KendoState::block`] + the final tick of the
    /// blocking operation.
    ///
    /// `on_idle` runs at every idle poll and every nudge
    /// ([`KendoState::nudge_parked`]) that finds the thread still parked.
    /// RFDet pre-merges there, off the critical path (§4.5), and runs its
    /// deadlock scan. Returns how many such *idle wakeups* there were; the
    /// metrics layer histograms the count so spurious-wakeup regressions
    /// are visible, and it must never feed back into scheduling.
    pub fn park_until_active(&self, me: &KendoHandle, on_idle: impl FnMut()) -> u64 {
        let active = || Status::from_u8(me.slot.status.load(SeqCst)) == Status::Active;
        self.park(me, Wait::Blocked, active, on_idle)
    }

    /// The one wait loop, for both kinds of [`Wait`]: until `ready`, spin
    /// [`SPINS`] times, yield while the slot's learned budget lasts, then
    /// sleep on the slot condvar with [`IDLE_POLL`] timeouts, which teaches
    /// the budget and the wake-up time ([`Slot::learn`]). Two yields in a
    /// row that each outlast two wake-ups ran other threads of this CPU:
    /// the waiter sleeps at once and leaves the CPU to them. Every stage
    /// checks the abort flag and serves a nudge; the sleep also runs
    /// `on_idle` once per idle poll. Returns the idle wakeups.
    /// The starvation bound is quiet time: any slot's clock or status
    /// moving since the last wake-up ([`Self::fingerprint`]) restarts it.
    fn park(
        &self,
        me: &KendoHandle,
        wait: Wait,
        ready: impl Fn() -> bool,
        mut on_idle: impl FnMut(),
    ) -> u64 {
        let slot = &me.slot;
        let budget = SPINS + MIN_YIELDS + slot.own.yields[wait as usize].load(Relaxed);
        let wake = Duration::from_nanos(slot.own.wake_ns.load(Relaxed));
        let mut idle_wakeups: u64 = 0;
        let mut checks: u32 = 0;
        let (mut last_yield, mut slow_yields) = (None::<Instant>, 0);
        loop {
            if ready() {
                return idle_wakeups;
            }
            self.check_abort();
            if slot.take_nudge() {
                idle_wakeups += 1;
                on_idle();
            }
            checks += 1;
            if checks >= budget {
                break;
            }
            if checks < SPINS {
                std::hint::spin_loop();
                continue;
            }
            let now = Instant::now();
            let slow = last_yield.is_some_and(|at| now - at > wake * 2);
            last_yield = Some(now);
            slow_yields = if slow { slow_yields + 1 } else { 0 };
            if slow_yields == 2 {
                break;
            }
            std::thread::yield_now();
        }
        if wait == Wait::Turn {
            bump(&slot.own.turn_parks);
        }
        let mut guard = slot.park_lock.lock();
        *guard = None;
        slot.sleeping.store(true, SeqCst);
        let asleep = Instant::now();
        let (mut seen, mut quiet_since) = (self.fingerprint(), asleep);
        let mut next_idle = asleep + self.idle_poll;
        while !ready() {
            self.check_abort();
            if !slot.nudged.load(SeqCst) {
                #[cfg(test)]
                std::thread::sleep(self.sleep_entry_stall);
                slot.park_cv.wait_for(&mut guard, self.idle_poll);
            }
            if ready() {
                break;
            }
            idle_wakeups += 1;
            let now = Instant::now();
            if slot.take_nudge() || now >= next_idle {
                // Run the callback without the park lock so wakers are
                // never blocked on it.
                drop(guard);
                on_idle();
                guard = slot.park_lock.lock();
                next_idle = Instant::now() + self.idle_poll;
            }
            let moved = self.fingerprint();
            if moved != seen {
                (seen, quiet_since) = (moved, now);
            } else if let Some(limit) = self.deadlock_after {
                if now.duration_since(quiet_since) > limit && !ready() {
                    drop(guard);
                    self.starve(me, wait, limit);
                }
            }
            slot.sleeping.store(true, SeqCst); // a notify disarmed it
        }
        slot.sleeping.store(false, SeqCst);
        let notified = guard.take();
        drop(guard);
        slot.learn(wait, asleep, notified, Instant::now());
        idle_wakeups
    }

    /// A hash of every slot's clock and status: what a park compares
    /// across wake-ups to tell its peers' progress from quiet.
    fn fingerprint(&self) -> u64 {
        self.slots.iter().fold(0, |h, (_, s)| {
            let status = u64::from(s.status.load(SeqCst)) << 62;
            (h ^ s.clock.load(SeqCst) ^ status).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Ends a park whose starvation bound tripped. Aborts the run first,
    /// so every *other* waiter (parked or spinning) wakes and unwinds too,
    /// then unwinds this one with the diagnosis.
    fn starve(&self, me: &KendoHandle, wait: Wait, limit: Duration) -> ! {
        self.set_abort();
        let state = self.debug_state();
        panic_any(Starved(match wait {
            Wait::Turn => format!(
                "kendo: thread {} starved waiting for its turn for {limit:?} \
                 (parked; clock={}, state={state})",
                me.tid,
                me.clock()
            ),
            Wait::Blocked => format!(
                "kendo: thread {} parked for {limit:?} without wakeup — \
                 likely an application deadlock (state={state})",
                me.tid
            ),
        }))
    }

    /// Snapshot of all slots for diagnostics.
    #[must_use]
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, slot) in self.slots.iter() {
            let status = Status::from_u8(slot.status.load(SeqCst));
            let _ = write!(s, "[t{i} {status:?}@{}]", slot.clock.load(SeqCst));
        }
        let b = self.baton.load(SeqCst);
        if b == BATON_NONE {
            s.push_str(" baton=none");
        } else {
            let _ = write!(s, " baton=t{}@{}", baton_tid(b), baton_clock(b));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn register_assigns_sequential_tids() {
        let k = KendoState::new();
        assert_eq!(k.register(0).tid(), 0);
        assert_eq!(k.register(1).tid(), 1);
        assert_eq!(k.num_threads(), 2);
    }

    #[test]
    fn tick_and_clock() {
        let k = KendoState::new();
        let h = k.register(5);
        assert_eq!(h.clock(), 5);
        h.tick(3);
        assert_eq!(h.clock(), 8);
        assert_eq!(k.slots.get(0).clock.load(SeqCst), 8);
    }

    #[test]
    fn single_thread_always_has_turn() {
        let k = KendoState::new();
        let h = k.register(0);
        k.wait_for_turn(&h); // returns immediately
        k.release_turn(&h, 1);
        k.wait_for_turn(&h);
    }

    #[test]
    fn lower_clock_wins_tie_by_tid() {
        let k = KendoState::new();
        let a = k.register(10);
        let b = k.register(10);
        // Equal clocks: tid 0 is minimal.
        assert!(k.has_turn(&a));
        assert!(!k.has_turn(&b));
        a.tick(1);
        assert!(k.has_turn(&b));
        assert!(!k.has_turn(&a));
    }

    #[test]
    fn blocked_threads_are_skipped() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        assert!(!k.has_turn(&b));
        k.block(&a); // a has the turn (clock 0) and blocks itself
        assert!(k.has_turn(&b));
    }

    #[test]
    fn finished_threads_are_skipped() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        k.finish(&a);
        assert!(k.has_turn(&b));
    }

    #[test]
    fn finish_hands_the_baton_to_the_survivor() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        k.finish(&a);
        // The successor scan must have designated b: its wait returns
        // without any other thread running.
        k.wait_for_turn(&b);
    }

    #[test]
    fn release_turn_designates_the_next_minimum() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(3);
        k.wait_for_turn(&a);
        k.release_turn(&a, 5); // a: 0 -> 5; b (3) is now minimal
        k.wait_for_turn(&b);
        k.release_turn(&b, 5); // b: 3 -> 8; a (5) minimal again
        k.wait_for_turn(&a);
        let (scans, _, _) = k.handoff_counters();
        assert!(scans >= 2, "each release runs one successor scan");
    }

    #[test]
    fn stale_designation_is_repaired_by_the_owner() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let b = k.register(3);
        k.wait_for_turn(&a);
        k.release_turn(&a, 1); // a: 0 -> 1, still minimal: baton = (1, a)
        a.tick(10); // off-turn ticks make the designation stale (a=11 > b=3)
        let k2 = Arc::clone(&k);
        let t = std::thread::spawn(move || {
            // Stranded on the stale baton until the owner's next wait
            // repairs the designation — the runtime analogue is the
            // holder's next sync op.
            k2.wait_for_turn(&b);
            k2.release_turn(&b, 20); // b: 3 -> 23; a (11) minimal again
        });
        k.wait_for_turn(&a); // owner rescans, hands off to b, then waits
        t.join().unwrap();
    }

    #[test]
    fn wake_restores_participation_with_new_clock() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(50);
        k.block(&a);
        assert!(k.has_turn(&b));
        k.wake(0, 60);
        assert_eq!(a.clock(), 60);
        assert_eq!(Status::from_u8(a.slot.status.load(SeqCst)), Status::Active);
        assert!(k.has_turn(&b), "b (50) still beats rewoken a (60)");
        b.tick(11);
        assert!(k.has_turn(&a));
    }

    #[test]
    fn park_returns_after_wake() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            k2.wake(0, 42);
        });
        k.park_until_active(&a, || {});
        assert_eq!(a.clock(), 42);
        waker.join().unwrap();
    }

    #[test]
    fn idle_poll_knob_counts_idle_wakeups() {
        let k = Arc::new(KendoState {
            idle_poll: Duration::from_millis(5),
            ..KendoState::new()
        });
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            k2.wake(0, 42);
        });
        let idles = k.park_until_active(&a, || {});
        waker.join().unwrap();
        assert_eq!(a.clock(), 42);
        assert!(
            idles >= 1,
            "a 200 ms park polling every 5 ms must observe idle wakeups, got {idles}"
        );
    }

    #[test]
    fn a_nudge_runs_the_idle_callback_without_waiting_for_the_idle_poll() {
        let k = Arc::new(KendoState {
            idle_poll: Duration::from_secs(60),
            ..KendoState::new()
        });
        let a = k.register(0);
        let b = k.register(10);
        k.block(&a);
        let (ran, seen) = std::sync::mpsc::channel();
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            // One nudge, whichever park stage it lands in.
            k2.nudge_parked(1);
            let seen_in_time = seen.recv_timeout(Duration::from_secs(5)).is_ok();
            k2.wake(0, 42);
            seen_in_time
        });
        let idles = k.park_until_active(&a, || {
            let _ = ran.send(());
        });
        assert!(
            waker.join().unwrap(),
            "no idle callback within 5 s of a nudge"
        );
        assert!(idles >= 1, "the nudged callback is an idle wakeup");
        assert_eq!(a.clock(), 42);
        assert!(!b.slot.nudged.load(SeqCst), "an active slot is left alone");
    }

    #[test]
    fn a_targeted_nudge_reaches_only_a_parked_slot() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(10);
        assert!(!k.nudge(1), "an active slot is not parked");
        assert!(!b.slot.nudged.load(SeqCst));
        k.block(&a);
        assert!(k.nudge(0), "a blocked slot is parked");
        assert!(a.slot.take_nudge(), "the nudge is pending for its park");
        k.nudge_parked(0);
        assert!(
            !a.slot.nudged.load(SeqCst),
            "the caller does not nudge itself"
        );
    }

    /// How a test thread's off-turn ticks reach its slot.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Publish {
        /// Every tick at once: the published clock is exact.
        Exact,
        /// Through a [`TickBatch`], flushed before each turn.
        Chunked,
    }

    /// One thread's program: per round, the off-turn ticks it executes
    /// before its next turn, and the tick that releases that turn.
    type Program = Vec<(Vec<u64>, u64)>;

    /// Runs one thread per program (all registered at clock 0 before any
    /// starts, each finishing in a last turn of its own) and returns the
    /// admission order with the clock each turn was admitted at.
    fn admissions(k: Arc<KendoState>, programs: Vec<Program>, publish: Publish) -> Vec<(Tid, u64)> {
        let order = Arc::new(Mutex::new(Vec::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let n = programs.len();
        let handles: Vec<_> = programs
            .into_iter()
            .map(|program| {
                let k = Arc::clone(&k);
                let order = Arc::clone(&order);
                let started = Arc::clone(&started);
                let h = k.register(0);
                std::thread::spawn(move || {
                    started.fetch_add(1, SeqCst);
                    while started.load(SeqCst) < n {
                        std::hint::spin_loop();
                    }
                    let mut batch = TickBatch::default();
                    for (off_turn, release) in program {
                        for t in off_turn {
                            match publish {
                                Publish::Exact => k.tick_off_turn(&h, t),
                                Publish::Chunked => batch.tick(&k, &h, t),
                            }
                        }
                        batch.flush(&k, &h);
                        k.wait_for_turn(&h);
                        order.lock().push((h.tid(), h.clock()));
                        k.release_turn(&h, release);
                    }
                    k.wait_for_turn(&h);
                    k.finish(&h);
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        Arc::try_unwrap(order).unwrap().into_inner()
    }

    /// The turn order the arbiter must produce, as a sequential model that
    /// shares no code with it: a thread arrives at its clock plus the
    /// round's off-turn ticks, the minimal `(arrival clock, tid)` is
    /// admitted and advances by its release tick, and a thread retires
    /// after its last turn (its finishing turn admits no one it delays).
    fn model(programs: &[Program]) -> Vec<(Tid, u64)> {
        let mut clock = vec![0; programs.len()];
        let mut round = vec![0; programs.len()];
        let mut order = Vec::new();
        loop {
            let next = (0..programs.len())
                .filter(|&t| round[t] < programs[t].len())
                .map(|t| (clock[t] + programs[t][round[t]].0.iter().sum::<u64>(), t))
                .min();
            let Some((arrival, t)) = next else {
                return order;
            };
            order.push((t as Tid, arrival));
            clock[t] = arrival + programs[t][round[t]].1;
            round[t] += 1;
        }
    }

    #[test]
    fn handoff_admits_the_models_turn_sequence_under_contention() {
        // N threads each take 30 turns, releasing by an uneven,
        // deterministic amount.
        for n in [2u64, 4, 8] {
            let programs: Vec<Program> = (0..n)
                .map(|i| (0..30).map(|round| (vec![], 1 + (i + round) % 3)).collect())
                .collect();
            let admitted = admissions(
                Arc::new(KendoState::new()),
                programs.clone(),
                Publish::Exact,
            );
            assert_eq!(admitted.len() as u64, n * 30);
            assert_eq!(admitted, model(&programs), "{n} threads");
        }
    }

    /// Programs for `threads` threads: a few rounds each of off-turn
    /// ticks — mostly access-sized, some spanning several strides, some
    /// rounds with none — and a small release tick.
    fn arb_programs(threads: usize) -> impl Strategy<Value = Vec<Program>> {
        let tick = prop_oneof![1u64..4, 1u64..4, 1u64..4, 1u64..3 * PUBLISH_STRIDE];
        let round = (prop::collection::vec(tick, 0..40), 1u64..4);
        prop::collection::vec(prop::collection::vec(round, 1..6), threads..threads + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Lagging publication changes when a turn is admitted, never
        /// which: handoff over chunk-published clocks, as over exact ones,
        /// admits the very `(tid, clock)` sequence the model computes.
        #[test]
        fn chunked_publication_admits_the_models_turn_sequence(
            two in arb_programs(2),
            four in arb_programs(4),
            eight in arb_programs(8),
        ) {
            for programs in [two, four, eight] {
                let expected = model(&programs);
                prop_assert_eq!(expected.len(), programs.iter().map(Vec::len).sum::<usize>());
                for publish in [Publish::Exact, Publish::Chunked] {
                    let k = Arc::new(KendoState::new());
                    prop_assert_eq!(&admissions(k, programs.clone(), publish), &expected);
                }
            }
        }
    }

    #[test]
    fn tick_batch_publishes_a_stride_at_a_time_and_on_flush() {
        let k = KendoState::new();
        let h = k.register(0);
        let mut batch = TickBatch::default();
        for _ in 0..PUBLISH_STRIDE - 1 {
            batch.tick(&k, &h, 1);
        }
        assert_eq!((h.clock(), batch.pending()), (0, PUBLISH_STRIDE - 1));
        batch.tick(&k, &h, 1);
        assert_eq!((h.clock(), batch.pending()), (PUBLISH_STRIDE, 0));
        batch.tick(&k, &h, 5);
        batch.flush(&k, &h);
        batch.flush(&k, &h); // nothing pending: publishes nothing
        assert_eq!((h.clock(), batch.pending()), (PUBLISH_STRIDE + 5, 0));
        batch.tick(&k, &h, 3 * PUBLISH_STRIDE); // a large tick goes out whole
        assert_eq!(h.clock(), 4 * PUBLISH_STRIDE + 5);
    }

    /// How the compute-bound thread of the liveness regression below
    /// stops computing.
    #[derive(Clone, Copy, Debug)]
    enum Leave {
        SyncOp,
        Exit,
        Unwind,
    }

    /// A designated compute-bound thread sitting on less than a stride of
    /// unpublished ticks never crosses a repair boundary, so nothing it
    /// does off-turn releases the waiter parked behind its stale
    /// designation. Its flush points must: entering a sync op or exiting
    /// hands the turn to the waiter first (the waiter's clock is the
    /// smaller), and an unwind ends the waiter's wait through the abort.
    #[test]
    fn partial_chunk_holder_never_strands_a_parked_waiter() {
        for leave in [Leave::SyncOp, Leave::Exit, Leave::Unwind] {
            let k =
                Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_secs(30))));
            let a = k.register(0);
            let compute = k.register(0);
            k.wait_for_turn(&a);
            k.release_turn(&a, 1); // a@1; the scan designates compute@0
            assert_eq!(baton_tid(k.baton.load(SeqCst)), compute.tid());
            let order = Arc::new(Mutex::new(Vec::new()));
            let waiter = {
                let (k, order) = (Arc::clone(&k), Arc::clone(&order));
                std::thread::spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        k.wait_for_turn(&a);
                        order.lock().push(a.tid());
                        k.release_turn(&a, 100);
                    }))
                    .is_ok()
                })
            };
            // Let the waiter park behind the designation.
            while k.handoff_counters().2 == 0 {
                std::thread::yield_now();
            }
            let mut batch = TickBatch::default();
            batch.tick(&k, &compute, 10); // true clock 10 > a's 1, published 0
            assert_eq!((compute.clock(), batch.pending()), (0, 10));
            assert!(order.lock().is_empty(), "{leave:?}: waiter admitted early");
            batch.flush(&k, &compute);
            match leave {
                Leave::SyncOp | Leave::Exit => {
                    k.wait_for_turn(&compute);
                    order.lock().push(compute.tid());
                    if matches!(leave, Leave::SyncOp) {
                        k.release_turn(&compute, 1);
                    } else {
                        k.finish(&compute);
                    }
                    assert!(waiter.join().unwrap(), "{leave:?}");
                    assert_eq!(*order.lock(), [0, 1], "{leave:?}: waiter goes first");
                }
                Leave::Unwind => {
                    k.set_abort();
                    k.finish_forced(compute.tid());
                    assert!(!waiter.join().unwrap(), "the abort unwinds the waiter");
                    assert_eq!(compute.clock(), 10, "nothing left unpublished");
                }
            }
        }
    }

    #[test]
    fn woken_thread_resumes_from_the_wake_clock_with_nothing_pending() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let b = k.register(0);
        let mut batch = TickBatch::default();
        batch.tick(&k, &a, 10);
        batch.flush(&k, &a); // sync-op entry
        let waker = {
            let k = Arc::clone(&k);
            std::thread::spawn(move || {
                k.wait_for_turn(&b); // b@0 goes first and is not the waker yet
                k.release_turn(&b, 50);
                k.wait_for_turn(&b); // after a blocked at 10: b@50 holds the turn
                k.wake(0, b.clock() + 1);
                k.release_turn(&b, 1);
            })
        };
        k.wait_for_turn(&a);
        k.block(&a);
        k.release_turn(&a, 1);
        k.park_until_active(&a, || {});
        waker.join().unwrap();
        assert_eq!((a.clock(), batch.pending()), (51, 0));
        batch.tick(&k, &a, 5);
        batch.flush(&k, &a);
        assert_eq!(a.clock(), 56, "pre-block ticks are not published twice");
    }

    #[test]
    fn parked_turn_waiter_observes_abort() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(None));
        let _a = k.register(0); // designated leader; never progresses
        let b = k.register(10);
        let k2 = Arc::clone(&k);
        let waiter = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k2.wait_for_turn(&b))).is_err()
        });
        // Give b time to pass the spin stage and park on its condvar.
        std::thread::sleep(Duration::from_millis(50));
        let (_, _, parks) = k.handoff_counters();
        assert!(parks >= 1, "non-designated waiter must park, not spin");
        k.set_abort();
        assert!(
            waiter.join().unwrap(),
            "abort must unwind a parked turn-waiter"
        );
    }

    /// `handoff_wakes` counts the notifies a sleeping successor needed:
    /// a release that designates a successor that is awake — here, one
    /// not waiting at all — runs a scan and sends no wake.
    #[test]
    fn a_release_to_an_awake_successor_counts_a_scan_and_no_wake() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(1);
        k.wait_for_turn(&a);
        k.release_turn(&a, 5); // a@5: b@1 is the successor
        assert_eq!(baton_tid(k.baton.load(SeqCst)), b.tid());
        assert_eq!(k.handoff_counters(), (1, 0, 0));
    }

    #[test]
    fn the_yield_budget_doubles_after_a_short_sleep_and_loses_an_eighth_after_a_long_one() {
        let slot = Slot::new(0, Status::Active);
        let yields = || slot.own.yields[Wait::Turn as usize].load(Relaxed);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        assert_eq!(yields(), 0);
        // Notified 1 ms into the sleep, awake 2 ms later: short.
        slot.learn(Wait::Turn, t0, Some(ms(1)), ms(3));
        // Ready before any notify: short.
        slot.learn(Wait::Turn, t0, None, ms(1));
        assert_eq!(yields(), 2);
        for _ in 0..20 {
            slot.learn(Wait::Turn, t0, Some(t0), ms(1));
        }
        assert_eq!(yields(), MAX_YIELDS);
        // Notified 5 ms into the sleep, awake 1 ms later: long.
        slot.learn(Wait::Turn, t0, Some(ms(5)), ms(6));
        assert_eq!(yields(), MAX_YIELDS - MAX_YIELDS / 8);
        for _ in 0..200 {
            slot.learn(Wait::Turn, t0, Some(ms(5)), ms(5));
        }
        assert_eq!(yields(), 0, "spins alone");
        slot.learn(Wait::Turn, t0, None, t0);
        assert_eq!(yields(), 1, "and back");
        let blocked = slot.own.yields[Wait::Blocked as usize].load(Relaxed);
        assert_eq!(blocked, 0, "each kind of wait learns its own budget");
    }

    #[test]
    fn the_wake_up_time_starts_at_the_first_notified_sleep_then_moves_an_eighth() {
        let slot = Slot::new(0, Status::Active);
        let wake = || slot.own.wake_ns.load(Relaxed);
        let t0 = Instant::now();
        let us = |n| t0 + Duration::from_micros(n);
        slot.learn(Wait::Turn, t0, None, us(100));
        assert_eq!(wake(), 0, "a sleep nobody notified measures no wake-up");
        slot.learn(Wait::Turn, t0, Some(us(10)), us(90));
        assert_eq!(wake(), 80_000);
        slot.learn(Wait::Blocked, t0, Some(us(10)), us(10));
        assert_eq!(wake(), 70_000, "one wake-up time for both kinds of wait");
    }

    /// A turn-waiter whose yields each outlast two of its wake-ups sleeps
    /// after two of them, whatever its budget: here a billion yields,
    /// minutes of yielding on any host.
    #[test]
    fn slow_yields_end_the_yield_stage_whatever_the_budget() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let b = k.register(1);
        b.slot.own.wake_ns.store(1, Relaxed);
        b.slot.own.yields[Wait::Turn as usize].store(1 << 30, Relaxed);
        let b_slot = Arc::clone(&b.slot);
        k.wait_for_turn(&a);
        let waiter = {
            let k = Arc::clone(&k);
            std::thread::spawn(move || {
                k.wait_for_turn(&b);
                k.finish(&b);
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !b_slot.sleeping.load(SeqCst) {
            assert!(Instant::now() < deadline, "still yielding after 10 s");
            std::thread::yield_now();
        }
        k.finish(&a);
        waiter.join().unwrap();
        assert!(!k.aborted());
    }

    /// Returns once `slot`'s owner is in its park's sleep stage (holding
    /// its park lock, or asleep): spinning first, so on two cores the
    /// caller's store lands while the owner holds the lock, then
    /// yielding, so one core makes progress too.
    fn until_asleep(slot: &Slot) {
        let mut polls = 0u32;
        while !slot.sleeping.load(SeqCst) && slot.park_lock.try_lock().is_some() {
            polls += 1;
            if polls < 10_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// What the waiter thread of the race below reports, and when.
    #[derive(Debug, PartialEq)]
    enum Ack {
        /// Its turn wait returned.
        Turn,
        /// Its blocked park ran the idle callback.
        Nudged,
        /// Its blocked park returned.
        Woke,
    }

    /// No wake-up is lost to the `sleeping` flag: each round, a waiter
    /// whose yield budget is reset to the minimum enters the sleep stage,
    /// and stalls there between its last `ready` check and its wait,
    /// while one waker after another — the designating scan, a nudge on
    /// odd rounds, a `wake` — stores what `ready` reads and tests the
    /// flag. The idle poll is two seconds, so only a notify ends a sleep
    /// within the half-second acknowledgement: a lost one misses it. The
    /// waiter does not hang on: a lost nudge, whose `ready` stays false,
    /// ends it `Starved` at the first poll past the one-second bound.
    #[test]
    fn a_waker_racing_the_sleeping_store_is_never_lost() {
        const ROUNDS: u32 = 200;
        let k = Arc::new(KendoState {
            idle_poll: Duration::from_secs(2),
            deadlock_after: Some(Duration::from_secs(1)),
            sleep_entry_stall: Duration::from_micros(100),
            ..KendoState::new()
        });
        let a = k.register(0);
        let b = k.register(0);
        let b_slot = Arc::clone(&b.slot);
        let (ack, acks) = std::sync::mpsc::channel();
        let waiter = {
            let k = Arc::clone(&k);
            std::thread::spawn(move || {
                let min_budget = || {
                    for budget in &b.slot.own.yields {
                        budget.store(0, Relaxed);
                    }
                };
                for _ in 0..ROUNDS {
                    min_budget();
                    k.wait_for_turn(&b);
                    ack.send(Ack::Turn).unwrap();
                    k.block(&b);
                    k.release_turn(&b, 1);
                    min_budget();
                    k.park_until_active(&b, || ack.send(Ack::Nudged).unwrap());
                    ack.send(Ack::Woke).unwrap();
                }
                k.wait_for_turn(&b);
                k.finish(&b);
            })
        };
        let expect = |what: Ack, round: u32| {
            let got = acks.recv_timeout(Duration::from_millis(500));
            assert_eq!(got, Ok(what), "round {round}: a lost wake-up");
        };
        k.wait_for_turn(&a);
        for round in 0..ROUNDS {
            until_asleep(&b_slot);
            k.release_turn(&a, 2); // designates b, one below a
            expect(Ack::Turn, round);
            k.wait_for_turn(&a); // b blocked itself and handed back
            if round % 2 == 1 {
                until_asleep(&b_slot);
                k.nudge_parked(0);
                expect(Ack::Nudged, round);
            }
            until_asleep(&b_slot);
            k.wake(1, a.clock() + 1);
            expect(Ack::Woke, round);
        }
        k.release_turn(&a, 2);
        waiter.join().unwrap();
        k.wait_for_turn(&a);
        k.finish(&a);
        assert!(!k.aborted());
    }

    #[test]
    fn blocked_snapshot_only_when_every_live_thread_is_blocked() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(1);
        assert!(k.blocked_snapshot().is_none(), "both threads active");
        k.block(&a);
        assert!(k.blocked_snapshot().is_none(), "b still active");
        k.block(&b);
        assert_eq!(k.blocked_snapshot(), Some(vec![0, 1]));
    }

    #[test]
    fn blocked_snapshot_skips_finished_threads() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(1);
        k.block(&a);
        k.finish(&b);
        assert_eq!(k.blocked_snapshot(), Some(vec![0]));
    }

    #[test]
    fn blocked_snapshot_none_when_all_finished_or_empty() {
        let k = KendoState::new();
        assert!(k.blocked_snapshot().is_none());
        let a = k.register(0);
        k.finish(&a);
        assert!(k.blocked_snapshot().is_none());
    }

    #[test]
    fn timeout_aborts_the_whole_run_not_just_the_scanner() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_millis(100))));
        let _a = k.register(10); // minimal active thread; never progresses
        let b = k.register(10); // loses the tid tie-break: starves
        let c = k.register(0); // will park
        k.block(&c); // c holds the turn (clock 0) and blocks itself
        let k2 = Arc::clone(&k);
        let starved = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k2.wait_for_turn(&b))).is_err()
        });
        // Whichever bound trips first must flip the global abort, so the
        // other waiter — parked on a different slot, with no wakeup ever
        // coming — unwinds too.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.park_until_active(&c, || {})
        }));
        assert!(res.is_err(), "abort must reach parked peers");
        assert!(k.aborted());
        assert!(starved.join().unwrap());
    }

    /// Both starvation diagnoses, byte for byte (failure-report digests
    /// hash the message).
    #[test]
    fn starvation_unwinds_with_the_typed_diagnosis() {
        let turn = "kendo: thread 1 starved waiting for its turn for 150ms \
                    (parked; clock=10, state=[t0 Active@0][t1 Active@10] baton=t0@0)";
        let blocked = "kendo: thread 0 parked for 150ms without wakeup — likely an \
                       application deadlock (state=[t0 Blocked@0][t1 Active@10] baton=t0@0)";
        for (wait, expected) in [(Wait::Turn, turn), (Wait::Blocked, blocked)] {
            let k = KendoState::new().with_deadlock_timeout(Some(Duration::from_millis(150)));
            let a = k.register(0); // never ticks
            let b = k.register(10);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match wait {
                Wait::Turn => k.wait_for_turn(&b), // b can never win
                Wait::Blocked => {
                    k.block(&a); // and nobody wakes it
                    k.park_until_active(&a, || {});
                }
            }))
            .expect_err("the bound trips");
            let starved = payload.downcast::<Starved>().expect("typed payload");
            assert_eq!(starved.to_string(), expected);
            // Everyone else leaves through the abort, with the other token.
            assert!(k.aborted());
            let peer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.check_abort()))
                .expect_err("aborted");
            assert!(peer.is::<Aborted>());
        }
    }

    /// The bound is quiet time: a non-designated turn-waiter parked for
    /// three bounds does not starve while the leader's clock keeps moving
    /// below it, and takes its turn once the leader passes it.
    #[test]
    fn a_turn_waiter_behind_a_moving_leader_does_not_starve() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_millis(150))));
        let leader = k.register(0);
        let waiter = k.register(1_000);
        let parked = {
            let k = Arc::clone(&k);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    k.wait_for_turn(&waiter);
                    k.finish(&waiter);
                }))
                .is_ok()
            })
        };
        for _ in 0..45 {
            std::thread::sleep(Duration::from_millis(10));
            leader.tick(1); // progress, still below the waiter
        }
        assert!(k.handoff_counters().2 >= 1, "the waiter parked");
        k.wait_for_turn(&leader);
        k.release_turn(&leader, 1_000); // 1 045 > 1 000: the waiter goes
        assert!(parked.join().unwrap(), "the waiter starved: {k:?}");
        assert!(!k.aborted());
    }

    /// §3.1 repair: a compute-bound thread that the successor scan
    /// designated (minimal clock, never entering the arbiter) must hand
    /// the baton onward from its off-turn ticks once it passes the
    /// waiter — without this, the waiter parks until the compute
    /// thread's next sync op, which may be arbitrarily far away.
    #[test]
    fn off_turn_ticks_repair_stale_designation() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_secs(30))));
        let a = k.register(0);
        let compute = k.register(0);
        // a takes and releases its turn; the scan designates `compute`
        // (clock 0 beats a's post-release clock).
        k.wait_for_turn(&a);
        k.release_turn(&a, 1);
        assert_eq!(baton_tid(k.baton.load(SeqCst)), compute.tid());
        let k2 = Arc::clone(&k);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            // Parks: the baton names `compute`, whose clock is below a's.
            k2.wait_for_turn(&a);
            tx.send(()).unwrap();
        });
        // The compute thread never calls wait_for_turn; its off-turn
        // ticks alone must republish the baton to `a` once they cross a
        // stride boundary past a's clock.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            k.tick_off_turn(&compute, PUBLISH_STRIDE);
            match rx.try_recv() {
                Ok(()) => break,
                Err(_) => assert!(Instant::now() < deadline, "waiter still parked"),
            }
            std::thread::yield_now();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn reseed_baton_skips_finished_registrations() {
        // Restore registers dead threads too (dense tids); the baton may
        // then name a Finished thread. Reseed must re-aim it at the live
        // minimum.
        let k = KendoState::new();
        let dead = k.register(0);
        let live = k.register(7);
        k.finish_forced(dead.tid());
        assert_eq!(baton_tid(k.baton.load(SeqCst)), dead.tid(), "stale seed");
        k.reseed_baton();
        assert_eq!(baton_tid(k.baton.load(SeqCst)), live.tid());
        k.wait_for_turn(&live); // returns: the designation is repaired
    }

    #[test]
    fn reseed_baton_with_no_active_threads_is_none() {
        let k = KendoState::new();
        let a = k.register(0);
        k.finish_forced(a.tid());
        k.reseed_baton();
        assert_eq!(k.baton.load(SeqCst), BATON_NONE);
    }

    #[test]
    fn baton_packing_round_trips() {
        let b = pack(123_456, 17);
        assert_eq!(baton_tid(b), 17);
        assert_eq!(baton_clock(b), 123_456);
        // Tuple order is preserved by integer order on the packed form.
        assert!(pack(5, 0) < pack(5, 1));
        assert!(pack(5, 200) < pack(6, 0));
        assert!(pack(6, 0) < BATON_NONE);
    }
}
