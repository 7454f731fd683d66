//! The arbitration state machine.
//!
//! **Successor handoff**: the turn holder alone computes the next
//! minimal `(clock, tid)` when it releases the turn and publishes it in
//! a packed [`AtomicU64`] baton. Waiters check one uncontended load;
//! non-designated waiters park on their own slot condvar and are woken
//! by a targeted notify. One O(T) scan per turn *transition*, by one
//! thread.
//!
//! The original protocol — **broadcast spin-scan**, every waiter
//! repeatedly running the O(T) epoch-stable scan, O(T²) cache-coherence
//! traffic per transition — survives as the oracle handoff is checked
//! against: its predicate (`has_turn`) backs the `debug_assert` on every
//! baton grant, and its waiter is compiled into this crate's tests,
//! which pin that both admit the identical turn sequence (the turn is
//! always granted to the unique minimal `(clock, tid)` over `Active`
//! threads).

use parking_lot::{Condvar, Mutex, RwLock};
use rfdet_vclock::Tid;
use std::panic::panic_any;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pads a value to its own cache line so per-thread slots never falsely
/// share one (the only piece of `crossbeam` this crate used; inlined so
/// the workspace builds offline).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
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

/// Which turn-arbitration strategy a [`KendoState`] runs. Test-only: the
/// runtime always hands off; the scan is the tests' reference.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArbitrationMode {
    /// Successor handoff via the packed baton (one scan per transition,
    /// by the releasing thread; everyone else parks).
    #[default]
    Handoff,
    /// Every waiter spin-scans all slots (the original broadcast
    /// protocol, kept as the oracle the handoff path is checked against).
    SpinScan,
}

#[derive(Debug)]
struct Slot {
    clock: CachePadded<AtomicU64>,
    status: CachePadded<AtomicU8>,
    /// Parking support for blocked threads and non-designated
    /// turn-waiters.
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Set (under `park_lock`) by [`KendoState::nudge_parked`].
    nudged: AtomicBool,
}

impl Slot {
    fn new(clock: u64, status: Status) -> Self {
        Self {
            clock: CachePadded::new(AtomicU64::new(clock)),
            status: CachePadded::new(AtomicU8::new(status as u8)),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            nudged: AtomicBool::new(false),
        }
    }
}

/// Maximum threads per run: the baton packs the tid into its low byte
/// and reserves `0xFF` for the NONE sentinel.
pub const MAX_THREADS: usize = 255;

/// Baton value meaning "no active thread is designated" (terminal:
/// every registered thread is blocked or finished). Its low byte is
/// `0xFF`, which no valid tid can match.
const BATON_NONE: u64 = u64::MAX;

/// How long a parked thread sleeps between looking for its wakeup (or
/// the abort flag) when no one has signalled it: 20 ms, per the paper's
/// Kendo lineage. Purely a liveness/latency trade-off — the wakeups
/// themselves are delivered deterministically.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Logical-clock units a thread may accumulate before publishing them to
/// its slot (Kendo's chunked clock publication), and — the same number —
/// the published-clock boundary at which [`KendoState::tick_off_turn`]
/// checks for a stale designation. One constant because one event: a
/// [`TickBatch`] publishes at least a stride at a time, so every
/// off-turn publication crosses a boundary and pays the single baton load
/// that keeps a compute-bound designated thread from stranding waiters.
/// A larger chunk bought no wall time on any workload (EXPERIMENTS.md
/// "Access fast path"); a smaller one puts the shared `lock xadd` back on
/// the access path.
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
/// handoff scan, `status_of`, `finish_forced`) take no lock at all;
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

/// How aggressively waiters spin before parking (see
/// `KendoState::spin_tier`). Purely a wall-clock policy: affects *when*
/// a waiter sleeps, never *which* thread is admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpinTier {
    /// Threads ≤ CPUs: long yield phases, parking is the exception.
    Dedicated,
    /// Mild oversubscription (≤ 8×): short yield phases.
    Shared,
    /// Heavy oversubscription (≥ 8×): park right after the inline spin.
    Saturated,
}

/// Observer of deterministic wakeups, set by the runtime's flight
/// recorder: called with `(woken tid, its new clock)` from inside the
/// waker's turn — a deterministic point of the schedule, which is what
/// makes wake events recordable at all.
pub type WakeTap = Box<dyn Fn(Tid, u64) + Send + Sync>;

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
    #[cfg(test)]
    mode: ArbitrationMode,
    /// How long a parked thread waits between deadlock scans.
    deadlock_after: Option<Duration>,
    /// Period of a parked thread's idle re-check (condvar wait timeout
    /// and idle-callback cadence): [`IDLE_POLL`] unless a test overrides
    /// it.
    idle_poll: Duration,
    /// Set when some thread panicked: every waiter unwinds instead of
    /// spinning forever on a protocol that will never advance.
    abort: AtomicBool,
    /// Bumped on every non-monotone event (wake, register). The
    /// `has_turn` scan is not atomic; ticks are monotone so stale reads
    /// only make the scan conservative, but a *wake* can re-activate a
    /// blocked thread with a lower clock. Requiring the epoch to be
    /// unchanged across the scan makes a successful scan sound: any
    /// wake that lands after a clean scan must come from a turn-holder
    /// whose clock the scan already saw (and rejected, had it been
    /// smaller).
    wake_epoch: AtomicU64,
    /// Successor scans run (one per turn transition).
    handoff_scans: AtomicU64,
    /// Targeted unparks issued to a designated successor.
    handoff_wakes: AtomicU64,
    /// Times a non-designated turn-waiter gave up spinning and parked.
    turn_parks: AtomicU64,
    /// Host parallelism, read once at construction. Purely a spin-length
    /// hint: when registered threads exceed it, waiters shorten their
    /// yield phases and park early — a runnable waiter on an
    /// oversubscribed host steals quanta from the turn holder, so the
    /// yield storm costs more than the condvar round trip it avoids.
    /// Never consulted for any scheduling *decision*.
    cpus: usize,
    /// Flight-recorder wake observer. Cold: read under an uncontended
    /// `RwLock` only on the wake path (already a slow path), `None` when
    /// recording is off.
    wake_tap: RwLock<Option<WakeTap>>,
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
            baton: CachePadded::new(AtomicU64::new(BATON_NONE)),
            #[cfg(test)]
            mode: ArbitrationMode::Handoff,
            deadlock_after: Some(Duration::from_secs(30)),
            idle_poll: IDLE_POLL,
            abort: AtomicBool::new(false),
            wake_epoch: AtomicU64::new(0),
            handoff_scans: AtomicU64::new(0),
            handoff_wakes: AtomicU64::new(0),
            turn_parks: AtomicU64::new(0),
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            wake_tap: RwLock::new(None),
        }
    }

    /// Spin-length tier, from the registered-threads : host-CPUs ratio.
    /// Spinning is a latency win only while the spinner does not steal
    /// the quantum the waker needs; the more oversubscribed the host,
    /// the sooner a waiter should be off the run queue. Thresholds
    /// measured on the reference host (see DESIGN.md §4.10): at 8×
    /// oversubscription any yield phase costs 30-50% wall time on the
    /// contended benches, while at 2-4× a short yield phase still beats
    /// the condvar round trip.
    fn spin_tier(&self) -> SpinTier {
        let t = self.slots.len();
        if t >= 8 * self.cpus {
            SpinTier::Saturated
        } else if t > self.cpus {
            SpinTier::Shared
        } else {
            SpinTier::Dedicated
        }
    }

    /// Installs the wake observer (see [`WakeTap`]). The runtime sets
    /// this once at run start, before any thread can wake another.
    pub fn set_wake_tap(&self, tap: WakeTap) {
        *self.wake_tap.write() = Some(tap);
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

    /// Has every parked thread run its idle callback now rather than at
    /// its next idle poll. RFDet nudges after each GC pass: a parked
    /// thread's published clock, which bounds what GC may collect, moves
    /// only in that callback's pre-merge, so without the nudge how much
    /// metadata a run holds would be paced by wall time.
    pub fn nudge_parked(&self) {
        for (_, slot) in self.slots.iter() {
            if Status::from_u8(slot.status.load(SeqCst)) == Status::Blocked {
                let _guard = slot.park_lock.lock();
                slot.nudged.store(true, SeqCst);
                slot.park_cv.notify_all();
            }
        }
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

    /// Overrides the parked-thread idle re-check period (clamped to
    /// ≥ 1 ms so a degenerate knob cannot turn parks into spins).
    #[must_use]
    pub fn with_idle_poll(mut self, period: Duration) -> Self {
        self.idle_poll = period.max(Duration::from_millis(1));
        self
    }

    /// Selects the arbitration strategy (default: [`ArbitrationMode::Handoff`]).
    #[cfg(test)]
    #[must_use]
    pub fn with_arbitration(mut self, mode: ArbitrationMode) -> Self {
        self.mode = mode;
        self
    }

    /// `true` when this state runs the scan oracle instead of handoff —
    /// only ever in this crate's tests.
    #[inline]
    fn spin_scan(&self) -> bool {
        #[cfg(test)]
        return self.mode == ArbitrationMode::SpinScan;
        #[cfg(not(test))]
        false
    }

    /// Handoff-protocol counters: `(successor scans, targeted unparks,
    /// turn-waiter parks)`.
    #[must_use]
    pub fn handoff_counters(&self) -> (u64, u64, u64) {
        (
            self.handoff_scans.load(Relaxed),
            self.handoff_wakes.load(Relaxed),
            self.turn_parks.load(Relaxed),
        )
    }

    /// Epoch-stable stable-deadlock scan: `Some(blocked tids)` iff at
    /// least one registered thread is `Blocked` and **every** registered,
    /// non-`Finished` thread is `Blocked` — verified with `wake_epoch`
    /// unchanged across the scan, exactly like `has_turn`.
    ///
    /// Why a clean scan proves a *stable* deadlock: a `Blocked` thread
    /// never wakes another thread (wakes happen only inside a waker's
    /// turn, and only `Active` threads take turns), so once every live
    /// thread is observed `Blocked` under one epoch, no future wake can
    /// originate inside the run. The state is permanent — no wall clock
    /// needed. A mid-scan register or wake bumps the epoch and the scan
    /// reports `None` (caller retries later).
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

    /// A thread's current clock.
    #[must_use]
    pub fn clock_of(&self, tid: Tid) -> u64 {
        self.slots.get(tid as usize).clock.load(SeqCst)
    }

    /// A thread's current status.
    #[must_use]
    pub fn status_of(&self, tid: Tid) -> Status {
        Status::from_u8(self.slots.get(tid as usize).status.load(SeqCst))
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

    /// The successor scan: one O(T) pass over the slot table computing
    /// the minimal `(clock, tid)` over `Active` threads, published into
    /// the baton. Returns `true` iff the caller itself is the minimum
    /// (it then holds the turn); otherwise the designated successor is
    /// unparked with a targeted notify.
    ///
    /// Soundness: only the baton owner calls this, so no turn body — and
    /// therefore no block/wake/finish/register — runs concurrently.
    /// Statuses are frozen for the duration of the scan and clocks only
    /// grow, so the observed minimum is the true minimum at publication
    /// time. (A designated thread that ticks past the observed clock
    /// before reading the baton sees the stale pair, becomes the unique
    /// scanner by the same ownership rule, and repairs the designation.)
    fn scan_and_publish(&self, me: &KendoHandle) -> bool {
        self.handoff_scans.fetch_add(1, Relaxed);
        let mut best: Option<(u64, Tid)> = None;
        for (i, s) in self.slots.iter() {
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let cand = (s.clock.load(SeqCst), i as Tid);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        match best {
            None => {
                // Terminal: everyone blocked or finished. Parked blocked
                // threads own deadlock detection from here.
                self.baton.store(BATON_NONE, SeqCst);
                false
            }
            Some((clock, tid)) => {
                // Publish before the notify: a parker re-checks the baton
                // under its own park lock before sleeping, so the store →
                // lock → notify order makes lost wakeups impossible.
                self.baton.store(pack(clock, tid), SeqCst);
                if tid == me.tid {
                    return true;
                }
                let slot = self.slots.get(tid as usize);
                let _guard = slot.park_lock.lock();
                slot.park_cv.notify_all();
                self.handoff_wakes.fetch_add(1, Relaxed);
                false
            }
        }
    }

    /// Releases the turn after a sync operation: advances the caller's
    /// clock by `n` and runs the successor scan. The caller must hold the
    /// turn. (Under the scan oracle the tick alone releases it — every
    /// waiter is scanning.)
    pub fn release_turn(&self, me: &KendoHandle, n: u64) {
        me.tick(n);
        if !self.spin_scan() {
            self.scan_and_publish(me);
        }
    }

    /// Off-turn clock advance with stale-designation repair.
    ///
    /// The paper's §3.1 no-blocking property: a thread that never
    /// synchronizes must not delay threads that do. Under handoff, the
    /// successor scan can designate a compute-bound thread (minimal
    /// clock, `Active`) that is nowhere near the arbiter; if that thread
    /// only ever advanced its clock through the plain [`KendoHandle::tick`],
    /// waiters it has since ticked past would stay parked until it next
    /// entered a sync op — potentially forever. So off-turn ticks route
    /// here: whenever the clock crosses a [`PUBLISH_STRIDE`] boundary, the
    /// thread checks one baton load and, if it is named with a now-stale
    /// clock, repairs the designation by rescanning. The runtime's threads
    /// call this through a [`TickBatch`], a stride's worth at a time.
    ///
    /// Soundness: a stale designation can never be *taken* (admission
    /// requires the baton clock to equal the thread's current clock, and
    /// clocks are monotone), so the named thread is the unique legal
    /// scanner whether it notices in the arbiter or out here. Statuses
    /// still only change inside turn bodies, and no turn body can start
    /// while the baton names this thread, so the scan's frozen-status
    /// argument carries over unchanged.
    ///
    /// Liveness of the amortization: if the designated thread stops
    /// ticking entirely its clock is frozen, so by the admission rule
    /// every waiter must wait for it regardless — no repair could help.
    /// If it keeps ticking, it crosses a boundary within a stride and
    /// repairs. Wall-clock only: which thread is admitted next is still
    /// exactly the minimal `(clock, tid)`, whenever the scan runs.
    pub fn tick_off_turn(&self, me: &KendoHandle, n: u64) {
        let old = me.slot.clock.fetch_add(n, SeqCst);
        if self.spin_scan() {
            return;
        }
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
    pub fn wait_for_turn(&self, me: &KendoHandle) {
        #[cfg(test)]
        if self.spin_scan() {
            return self.wait_for_turn_scan(me);
        }
        self.wait_for_turn_handoff(me);
    }

    /// Handoff waiter: one uncontended baton load per check. The
    /// designated successor takes the turn (or repairs a stale
    /// designation); everyone else spins briefly and then parks until
    /// the targeted unpark.
    fn wait_for_turn_handoff(&self, me: &KendoHandle) {
        let start = Instant::now();
        let mut spins: u32 = 0;
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
                spins = 0;
                continue;
            }
            if b == BATON_NONE {
                // No designated thread, yet we are Active: a state only
                // test harnesses can construct (the runtime's last active
                // thread always republishes before anyone new can wait).
                // Safe to scan — with no turn in progress, statuses are
                // frozen and any published minimum is valid.
                if self.scan_and_publish(me) {
                    return;
                }
            }
            spins += 1;
            // Oversubscribed hosts park almost immediately: the targeted
            // unpark makes spinning pure overhead once the CPUs are full
            // of peers that all want the quantum we are burning.
            let park_after: u32 = match self.spin_tier() {
                SpinTier::Dedicated => 256,
                SpinTier::Shared => 96,
                SpinTier::Saturated => 64,
            };
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < park_after {
                std::thread::yield_now();
            } else {
                // Not designated: park. The successor scan that picks us
                // will publish our exact pair (a parked thread's clock is
                // frozen) and notify our condvar.
                self.park_for_baton(me, start);
                spins = 0;
            }
        }
    }

    /// Parks a non-designated turn-waiter on its own slot condvar until
    /// the baton names it (or the run aborts / the starvation bound
    /// trips). Wakeup sources: the targeted handoff notify, the
    /// `set_abort` sweep, and the `idle_poll` timeout for re-checks.
    fn park_for_baton(&self, me: &KendoHandle, start: Instant) {
        self.turn_parks.fetch_add(1, Relaxed);
        let mut guard = me.slot.park_lock.lock();
        loop {
            self.check_abort();
            if baton_tid(self.baton.load(SeqCst)) == me.tid {
                return;
            }
            me.slot.park_cv.wait_for(&mut guard, self.idle_poll);
            if let Some(limit) = self.deadlock_after {
                if start.elapsed() > limit {
                    // Abort first so every *other* waiter (parked or
                    // spinning) wakes and unwinds too, instead of only
                    // the thread that noticed.
                    drop(guard);
                    self.set_abort();
                    panic_any(Starved(format!(
                        "kendo: thread {} starved waiting for its turn for {:?} \
                         (parked; clock={}, state={})",
                        me.tid,
                        limit,
                        me.clock(),
                        self.debug_state()
                    )));
                }
            }
        }
    }

    /// The original broadcast waiter: every waiter spin-scans all slots.
    #[cfg(test)]
    fn wait_for_turn_scan(&self, me: &KendoHandle) {
        let mut spins: u32 = 0;
        let start = Instant::now();
        loop {
            // Abort check must precede the fast-path return: a thread
            // that is always the clock leader (all peers dead or parked)
            // would otherwise never observe the abort and could spin
            // forever on application state nobody will ever publish.
            self.check_abort();
            if self.has_turn(me) {
                return;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 4096 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(20));
                if let Some(limit) = self.deadlock_after {
                    if start.elapsed() > limit {
                        // Abort first so every *other* waiter (parked or
                        // spinning) wakes and unwinds too, instead of
                        // only the thread that noticed.
                        self.set_abort();
                        panic_any(Starved(format!(
                            "kendo: thread {} starved waiting for its turn for {:?} \
                             (clock={}, state={})",
                            me.tid,
                            limit,
                            me.clock(),
                            self.debug_state()
                        )));
                    }
                }
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
        if !self.spin_scan() {
            self.scan_and_publish(me);
        }
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

    /// Re-aims the baton at the true minimal `(clock, tid)` over `Active`
    /// threads (or the empty baton when none remain). For checkpoint
    /// restore, **before the run starts**: `register` seeds the baton
    /// with the minimum over *all* registrations, but restore also
    /// registers already-finished threads (tids must stay dense), and
    /// `finish_forced` never republishes — without the reseed the baton
    /// could name a `Finished` thread forever and the resumed run would
    /// hang at its first turn. Not for concurrent use: no thread may be
    /// waiting yet (no notify is issued).
    pub fn reseed_baton(&self) {
        let mut best: Option<(u64, Tid)> = None;
        for (i, s) in self.slots.iter() {
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let cand = (s.clock.load(SeqCst), i as Tid);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let packed = best.map_or(BATON_NONE, |(c, t)| pack(c, t));
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
        {
            let _guard = slot.park_lock.lock();
            slot.status.store(Status::Active as u8, SeqCst);
            slot.park_cv.notify_all();
        }
        self.wake_epoch.fetch_add(1, SeqCst);
        if let Some(tap) = self.wake_tap.read().as_ref() {
            tap(target, new_clock);
        }
    }

    /// Parks the calling thread until some waker flips it back to
    /// `Active`. Call after [`KendoState::block`] + the final tick of the
    /// blocking operation.
    ///
    /// Two-stage wait: a yield-polling stage first — a yielding thread
    /// keeps a tiny vruntime, so the scheduler runs it promptly after the
    /// waker's store even when a compute-bound thread saturates the CPU
    /// (futex wakeups on a loaded single CPU otherwise cost a scheduler
    /// granule per lock handoff, serializing handoff-heavy programs) —
    /// then a condvar sleep for long parks so join-style waits do not
    /// burn cycles.
    pub fn park_until_active(&self, me: &KendoHandle) {
        self.park_until_active_with(me, || {});
    }

    /// [`KendoState::park_until_active`] with an idle callback, invoked
    /// periodically while still parked. RFDet uses this to run prelock
    /// pre-merging off the critical path (§4.5) and to keep a blocked
    /// thread's published clock advancing so it does not pin garbage
    /// collection.
    ///
    /// Returns the number of *idle wakeups*: sleep timeouts (one per
    /// [`KendoState::with_idle_poll`] period) and nudges
    /// ([`KendoState::nudge_parked`], which run the callback at once)
    /// that found the thread still parked. The metrics layer histograms
    /// this so spurious-wakeup regressions are visible; the count must
    /// never feed back into scheduling.
    pub fn park_until_active_with(&self, me: &KendoHandle, mut on_idle: impl FnMut()) -> u64 {
        let start = Instant::now();
        // Stage 1: poll. Typical lock/condvar handoffs land here; a
        // yielding thread keeps a tiny vruntime so the scheduler runs it
        // promptly after the waker's store even on a saturated CPU. On an
        // oversubscribed host that logic inverts — every yielding blocked
        // thread competes with the waker for the quantum it needs to
        // reach the wake call — so the poll stage is cut short and the
        // condvar (whose waiters cost the waker nothing) carries the wait.
        // Measured on the 1-CPU reference host at 16 threads: any yield
        // phase here costs 30-50% wall time over parking straight after
        // the inline spin (21.8 ms vs 33+ ms on bench-scale
        // propagate-heavy) — each runnable yielder multiplies context
        // switches on the critical wake chain. At 2-4× oversubscription
        // the inversion is partial: a short yield phase still wins over
        // an immediate futex round trip.
        let poll_cap: u32 = match self.spin_tier() {
            SpinTier::Dedicated => 20_000,
            SpinTier::Shared => 192,
            SpinTier::Saturated => 64,
        };
        let mut idle_wakeups: u64 = 0;
        let mut polls: u32 = 0;
        while Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active {
            self.check_abort();
            // A nudge is served here too: at `Dedicated` the poll stage
            // can outlast a whole run.
            if me.slot.nudged.swap(false, SeqCst) {
                idle_wakeups += 1;
                on_idle();
            }
            polls += 1;
            if polls < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if polls > poll_cap {
                break; // long park: fall through to sleeping
            }
        }
        // Stage 2: sleep on the slot condvar, doing idle work between
        // timeouts and nudges.
        let mut guard = me.slot.park_lock.lock();
        let mut next_idle = Instant::now() + self.idle_poll;
        while Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active {
            self.check_abort();
            if !me.slot.nudged.load(SeqCst) {
                me.slot.park_cv.wait_for(&mut guard, self.idle_poll);
            }
            if Status::from_u8(me.slot.status.load(SeqCst)) == Status::Active {
                break;
            }
            idle_wakeups += 1;
            if me.slot.nudged.swap(false, SeqCst) || Instant::now() >= next_idle {
                // Run the callback without the park lock so wakers are
                // never blocked on it.
                drop(guard);
                on_idle();
                guard = me.slot.park_lock.lock();
                next_idle = Instant::now() + self.idle_poll;
            }
            if let Some(limit) = self.deadlock_after {
                if start.elapsed() > limit
                    && Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active
                {
                    // Wake-all before unwinding: peers parked on other
                    // slots must not be left behind.
                    drop(guard);
                    self.set_abort();
                    panic_any(Starved(format!(
                        "kendo: thread {} parked for {:?} without wakeup — \
                         likely an application deadlock (state={})",
                        me.tid,
                        limit,
                        self.debug_state()
                    )));
                }
            }
        }
        idle_wakeups
    }

    /// Snapshot of all slots for diagnostics.
    #[must_use]
    pub fn debug_state(&self) -> String {
        let mut s = String::new();
        for (i, slot) in self.slots.iter() {
            use std::fmt::Write;
            let _ = write!(
                s,
                "[t{} {:?}@{}]",
                i,
                Status::from_u8(slot.status.load(SeqCst)),
                slot.clock.load(SeqCst)
            );
        }
        let b = self.baton.load(SeqCst);
        use std::fmt::Write;
        if b == BATON_NONE {
            let _ = write!(s, " baton=none");
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
        assert_eq!(k.clock_of(0), 8);
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
        assert_eq!(k.clock_of(0), 60);
        assert_eq!(k.status_of(0), Status::Active);
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
        k.park_until_active(&a);
        assert_eq!(a.clock(), 42);
        waker.join().unwrap();
    }

    #[test]
    fn idle_poll_knob_counts_idle_wakeups() {
        let k = Arc::new(KendoState::new().with_idle_poll(Duration::from_millis(5)));
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            k2.wake(0, 42);
        });
        let idles = k.park_until_active_with(&a, || {});
        waker.join().unwrap();
        assert_eq!(a.clock(), 42);
        assert!(
            idles >= 1,
            "a 200 ms park polling every 5 ms must observe idle wakeups, got {idles}"
        );
    }

    #[test]
    fn a_nudge_runs_the_idle_callback_without_waiting_for_the_idle_poll() {
        let k = Arc::new(KendoState::new().with_idle_poll(Duration::from_secs(60)));
        let a = k.register(0);
        let b = k.register(10);
        k.block(&a);
        let (ran, seen) = std::sync::mpsc::channel();
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            // One nudge, whichever park stage it lands in.
            k2.nudge_parked();
            let seen_in_time = seen.recv_timeout(Duration::from_secs(5)).is_ok();
            k2.wake(0, 42);
            seen_in_time
        });
        let idles = k.park_until_active_with(&a, || {
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
    fn degenerate_idle_poll_clamps_to_one_ms() {
        let k = KendoState::new().with_idle_poll(Duration::ZERO);
        assert_eq!(k.idle_poll, Duration::from_millis(1));
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

    /// N threads each take `rounds` turns, releasing by an uneven,
    /// deterministic amount; returns the admission order.
    fn contended_order(k: Arc<KendoState>, n: u64, rounds: u64) -> Vec<Tid> {
        let programs = (0..n)
            .map(|i| {
                (0..rounds)
                    .map(|round| (vec![], 1 + (i + round) % 3))
                    .collect()
            })
            .collect();
        admissions(k, programs, Publish::Exact)
            .into_iter()
            .map(|(tid, _)| tid)
            .collect()
    }

    #[test]
    fn turn_order_is_deterministic_under_contention() {
        let run = || contended_order(Arc::new(KendoState::new()), 4, 50);
        let a = run();
        let b = run();
        let c = run();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn handoff_admits_the_same_turn_sequence_as_the_scan_oracle() {
        // The cross-mode pin: for several thread counts, the successor
        // handoff must admit exactly the order the broadcast scan does.
        for n in [2u64, 4, 8] {
            let rounds = 30;
            let handoff = contended_order(
                Arc::new(KendoState::new().with_arbitration(ArbitrationMode::Handoff)),
                n,
                rounds,
            );
            let scan = contended_order(
                Arc::new(KendoState::new().with_arbitration(ArbitrationMode::SpinScan)),
                n,
                rounds,
            );
            assert_eq!(handoff, scan, "mode divergence at {n} threads");
            assert_eq!(handoff.len() as u64, n * rounds);
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
        /// which: handoff over chunk-published clocks admits the very
        /// `(tid, clock)` sequence the scan oracle admits over exact ones.
        #[test]
        fn chunked_publication_admits_the_scan_oracles_turn_sequence(
            two in arb_programs(2),
            four in arb_programs(4),
            eight in arb_programs(8),
        ) {
            for programs in [two, four, eight] {
                let turns: usize = programs.iter().map(Vec::len).sum();
                let oracle = admissions(
                    Arc::new(KendoState::new().with_arbitration(ArbitrationMode::SpinScan)),
                    programs.clone(),
                    Publish::Exact,
                );
                let chunked = admissions(Arc::new(KendoState::new()), programs, Publish::Chunked);
                prop_assert_eq!(oracle.len(), turns);
                prop_assert_eq!(chunked, oracle);
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
            assert_eq!((k.clock_of(compute.tid()), batch.pending()), (0, 10));
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
                    assert_eq!(k.clock_of(compute.tid()), 10, "nothing left unpublished");
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
        k.park_until_active(&a);
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

    #[test]
    fn wake_tap_observes_wakes_inside_the_waker_turn() {
        let k = KendoState::new();
        let a = k.register(0);
        let _b = k.register(50);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        k.set_wake_tap(Box::new(move |tid, clock| seen2.lock().push((tid, clock))));
        k.block(&a);
        k.wake(0, 60);
        assert_eq!(*seen.lock(), vec![(0, 60)]);
        assert_eq!(a.clock(), 60, "tap observation does not perturb the wake");
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
        // b's starvation timeout must flip the global abort so c — parked
        // on a different slot, with no wakeup ever coming — unwinds too.
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.park_until_active(&c)));
        assert!(res.is_err(), "abort must reach parked peers");
        assert!(k.aborted());
        assert!(starved.join().unwrap());
    }

    #[test]
    fn starvation_unwinds_with_the_typed_diagnosis_in_both_modes() {
        for mode in [ArbitrationMode::Handoff, ArbitrationMode::SpinScan] {
            let k = KendoState::new()
                .with_arbitration(mode)
                .with_deadlock_timeout(Some(Duration::from_millis(150)));
            let _a = k.register(0); // never ticks, never blocked
            let b = k.register(10);
            // b can never win.
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.wait_for_turn(&b)))
                    .expect_err("the bound trips");
            let starved = payload.downcast::<Starved>().expect("typed payload");
            let message = starved.to_string();
            let who = "kendo: thread 1 starved waiting for its turn for 150ms";
            let slots = "[t0 Active@0][t1 Active@10] baton=t0@0)";
            assert!(
                message.starts_with(who) && message.ends_with(slots),
                "{mode:?}: {message}"
            );
            // Everyone else leaves through the abort, with the other token.
            assert!(k.aborted());
            let peer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.check_abort()))
                .expect_err("aborted");
            assert!(peer.is::<Aborted>());
        }
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
