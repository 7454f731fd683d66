//! Successor-handoff arbitration, seen from the whole runtime.
//!
//! Handoff must be *invisible*: which thread is admitted next is a pure
//! function of logical clocks, and arbitration only changes how the
//! winner finds out (a baton handoff + targeted unpark). The kendo crate
//! pins the raw turn *sequence* against a sequential model of the turn
//! order at the unit level; here the whole runtime — wakes, blocks, mailboxes,
//! propagation — rides on top, and these tests pin that the machinery
//! engages and that parked waiters do not hide a deadlock.

use rfdet::workloads::{chaos, stress, Params, Size};
use rfdet::{DmtBackend, FailureKind, RfdetBackend, RunConfig};

fn cfg(seed: Option<u64>) -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.jitter_seed = seed;
    // Plenty for a Size::Test workload; short enough that a handoff
    // liveness bug fails the suite instead of hanging it.
    c.deadlock_after_ms = Some(20_000);
    c
}

/// The handoff machinery actually engages on the RFDet backend: turn
/// transitions run successor scans.
#[test]
fn handoff_counters_report_engagement() {
    let out = RfdetBackend::ci()
        .run(&cfg(None), stress::sync_heavy(Params::new(8, Size::Test)))
        .expect("clean run");
    assert!(
        out.stats.handoff_scans > 0,
        "handoff must run successor scans"
    );
}

/// Structural deadlock detection still fires promptly when the
/// non-successor waiters are *parked* (not spinning): an AB-BA deadlock
/// is typed and carries the same reproducible digest on a rerun under a
/// jittered physical schedule.
#[test]
fn parked_waiters_do_not_mask_deadlock_detection() {
    let threads = 2;
    let mk = || chaos::abba_deadlock(Params::new(threads, Size::Test));
    let backend = RfdetBackend::ci();
    let t0 = std::time::Instant::now();
    let first = backend.run(&cfg(None), mk());
    let elapsed = t0.elapsed();
    let rerun = backend.run(&cfg(Some(7)), mk());
    let (a, b) = match (&first, &rerun) {
        (Err(a), Err(b))
            if a.kind() == FailureKind::Deadlock && b.kind() == FailureKind::Deadlock =>
        {
            (a, b)
        }
        other => panic!("expected two Deadlock errors, got {other:?}"),
    };
    assert_eq!(a.report().report_digest(), b.report().report_digest());
    assert!(
        elapsed < std::time::Duration::from_secs(15),
        "structural detection must beat the wall-clock fallback (took {elapsed:?})"
    );
}
