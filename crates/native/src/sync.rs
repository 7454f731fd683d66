//! Conventional synchronization primitives keyed by application IDs.
//!
//! The native backend has no arbitration protocol to abort, so
//! supervision is cooperative: every blocking wait goes through
//! [`RunHarness::wait_until`], which polls the run's stop flag — a failed
//! run unwinds its parked peers within a poll period, and a wait nobody
//! notifies for `RunConfig::deadlock_after_ms` records `Wedged`. Unlike the
//! deterministic backends there is no structural deadlock detector —
//! without a logical clock the blocked-set scan cannot be made stable —
//! so deadlocks surface as `Wedged` here.

use parking_lot::{Condvar, Mutex, MutexGuard};
use rfdet_api::{RunHarness, Tid};
use std::collections::HashMap;
use std::sync::Arc;

/// [`RunHarness::wait_until`] with this backend's wedge message.
fn wait_until<T>(
    run: &RunHarness,
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    tid: Tid,
    stuck: &str,
    done: impl Fn(&T) -> bool,
) {
    let wedge = |_: &T| (format!("native: thread {tid} stuck {stuck}"), Vec::new());
    run.wait_until(cv, guard, tid, done, wedge);
}

/// A pthreads-style mutex usable through split `lock`/`unlock` calls.
#[derive(Debug, Default)]
pub(crate) struct LockVar {
    locked: Mutex<bool>,
    cv: Condvar,
}

impl LockVar {
    pub fn lock(&self, run: &RunHarness, tid: Tid) {
        let mut g = self.locked.lock();
        wait_until(run, &self.cv, &mut g, tid, "acquiring a mutex", |held| {
            !*held
        });
        *g = true;
    }

    pub fn unlock(&self) {
        let mut g = self.locked.lock();
        assert!(*g, "unlock of unlocked mutex");
        *g = false;
        drop(g);
        self.cv.notify_one();
    }
}

/// A condition variable whose internal lock brackets the release of the
/// application mutex, avoiding lost wakeups.
#[derive(Debug, Default)]
pub(crate) struct CondVar {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl CondVar {
    /// Atomically releases `mutex` and waits for a signal; re-acquires
    /// `mutex` before returning.
    pub fn wait(&self, mutex: &LockVar, run: &RunHarness, tid: Tid) {
        let mut g = self.gen.lock();
        let my_gen = *g;
        mutex.unlock();
        wait_until(run, &self.cv, &mut g, tid, "in cond_wait", |gen| {
            *gen != my_gen
        });
        drop(g);
        mutex.lock(run, tid);
    }

    pub fn signal(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_one();
    }

    pub fn broadcast(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_all();
    }
}

/// A reusable counting barrier.
#[derive(Debug, Default)]
pub(crate) struct BarrierVar {
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl BarrierVar {
    pub fn wait(&self, parties: usize, run: &RunHarness, tid: Tid) {
        let mut g = self.state.lock();
        g.0 += 1;
        if g.0 >= parties {
            g.0 = 0;
            g.1 += 1;
            drop(g);
            self.cv.notify_all();
        } else {
            let gen = g.1;
            wait_until(run, &self.cv, &mut g, tid, "at a barrier", |st| st.1 != gen);
        }
    }
}

/// Lazily-created registry of synchronization variables.
#[derive(Debug, Default)]
pub(crate) struct Registry<T> {
    map: Mutex<HashMap<u32, Arc<T>>>,
}

impl<T: Default> Registry<T> {
    pub fn get(&self, id: u32) -> Arc<T> {
        Arc::clone(self.map.lock().entry(id).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{FailureKind, RunConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sup() -> Arc<RunHarness> {
        Arc::new(RunHarness::new(&RunConfig::small()).expect("valid config"))
    }

    #[test]
    fn lockvar_provides_mutual_exclusion() {
        let lv = Arc::new(LockVar::default());
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicU64::new(0));
        let sup = sup();
        let hs: Vec<_> = (0..4)
            .map(|i| {
                let lv = Arc::clone(&lv);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                let sup = Arc::clone(&sup);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        lv.lock(&sup, i);
                        assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                        counter.fetch_add(1, Ordering::SeqCst);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        lv.unlock();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 800);
    }

    #[test]
    #[should_panic(expected = "unlock of unlocked")]
    fn unlock_without_lock_panics() {
        LockVar::default().unlock();
    }

    #[test]
    fn barrier_releases_all() {
        let b = Arc::new(BarrierVar::default());
        let released = Arc::new(AtomicU64::new(0));
        let sup = sup();
        let hs: Vec<_> = (0..3)
            .map(|i| {
                let b = Arc::clone(&b);
                let released = Arc::clone(&released);
                let sup = Arc::clone(&sup);
                std::thread::spawn(move || {
                    b.wait(3, &sup, i);
                    released.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(released.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stopping_the_run_releases_a_parked_lock_waiter() {
        let lv = Arc::new(LockVar::default());
        let sup = sup();
        lv.lock(&sup, 0);
        let h = {
            let lv = Arc::clone(&lv);
            let sup = Arc::clone(&sup);
            std::thread::spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    lv.lock(&sup, 1);
                }));
                assert!(r.is_err(), "waiter must unwind once the run is stopped");
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        sup.record_failure(
            FailureKind::Wedged,
            0,
            "test stop".into(),
            None,
            Vec::new(),
            Vec::new(),
        );
        h.join().unwrap();
    }

    #[test]
    fn registry_shares_instances() {
        let r: Registry<LockVar> = Registry::default();
        let a = r.get(1);
        let b = r.get(1);
        let c = r.get(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
