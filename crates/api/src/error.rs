//! Typed run failures.
//!
//! A deterministic runtime's killer feature is that *failing* runs
//! reproduce exactly, so failures must be artifacts, not hangs or
//! free-form panics. Every way a run can end abnormally is a
//! [`RunError`], its [`FailureReport`]: how the run ended, who failed, at
//! which point of the deterministic schedule, and — for deadlocks — the
//! wait-for cycle reconstructed from the runtime's own sync-queue state.
//!
//! Reports split into a *deterministic projection* and best-effort
//! diagnostics. The projection (failure kind, culprit thread, its
//! vector clock / slice count / sync-op count / last operation, and the
//! sorted wait-for graph for deadlocks) is a pure function of the
//! deterministic schedule, so [`FailureReport::report_digest`] over it is
//! bit-identical across reruns of the same failing schedule. Peer-thread
//! states captured while the run tears down depend on physical timing
//! (how far each peer got before the abort reached it) and are therefore
//! reported in [`FailureReport::peers`] but excluded from the digest.

use crate::Tid;
use rfdet_trace::FailureKind;
use rfdet_vclock::VClock;
use std::fmt;
use std::path::PathBuf;

/// What a blocked thread is waiting on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitTarget {
    /// Queued on a mutex; `holder` is the current owner if any.
    Mutex {
        /// Application mutex ID.
        id: u32,
        /// Current owner (absent if the mutex is in handoff).
        holder: Option<Tid>,
    },
    /// Parked on a condition variable (no wait-for edge: any thread
    /// could signal it).
    Cond {
        /// Application condvar ID.
        id: u32,
    },
    /// Arrived early at a barrier (waits on every party that has not
    /// arrived yet; not representable as a single edge).
    Barrier {
        /// Application barrier ID.
        id: u32,
    },
    /// Joining a thread that has not exited.
    Join {
        /// The joined (still running) thread.
        target: Tid,
    },
}

impl WaitTarget {
    /// The single thread this wait is for, when one exists (mutex owner
    /// or join target). Condvar and barrier waits have no unique edge.
    #[must_use]
    pub fn waits_on(&self) -> Option<Tid> {
        match self {
            WaitTarget::Mutex { holder, .. } => *holder,
            WaitTarget::Join { target } => Some(*target),
            WaitTarget::Cond { .. } | WaitTarget::Barrier { .. } => None,
        }
    }
}

impl fmt::Display for WaitTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitTarget::Mutex {
                id,
                holder: Some(h),
            } => write!(f, "mutex {id} held by t{h}"),
            WaitTarget::Mutex { id, holder: None } => write!(f, "mutex {id} (in handoff)"),
            WaitTarget::Cond { id } => write!(f, "cond {id}"),
            WaitTarget::Barrier { id } => write!(f, "barrier {id}"),
            WaitTarget::Join { target } => write!(f, "join of t{target}"),
        }
    }
}

/// One edge of the wait-for graph at the moment of a deadlock.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitEdge {
    /// The blocked thread.
    pub waiter: Tid,
    /// What it is blocked on.
    pub target: WaitTarget,
}

impl WaitEdge {
    /// The wait-for graph of a stalled run, read off a backend's queue
    /// state: `(waiter, mutex, holder)` per queued locker, `(waiter, id)`
    /// per parked condvar waiter and per early barrier arrival,
    /// `(waiter, joined thread)` per joiner. Sorted by waiter (a blocked
    /// thread has one edge; ties would order by target), so the graph —
    /// and the report digest over it — does not depend on the order the
    /// backend's maps were visited in.
    #[must_use]
    pub fn graph(
        lockers: impl IntoIterator<Item = (Tid, u32, Option<Tid>)>,
        cond_waiters: impl IntoIterator<Item = (Tid, u32)>,
        barrier_arrivals: impl IntoIterator<Item = (Tid, u32)>,
        joiners: impl IntoIterator<Item = (Tid, Tid)>,
    ) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        let mut push = |waiter, target| edges.push(WaitEdge { waiter, target });
        for (w, id, holder) in lockers {
            push(w, WaitTarget::Mutex { id, holder });
        }
        for (w, id) in cond_waiters {
            push(w, WaitTarget::Cond { id });
        }
        for (w, id) in barrier_arrivals {
            push(w, WaitTarget::Barrier { id });
        }
        for (w, target) in joiners {
            push(w, WaitTarget::Join { target });
        }
        edges.sort_unstable();
        edges
    }
}

/// Deterministic progress summary of one thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadReport {
    /// Thread ID.
    pub tid: Tid,
    /// Vector clock at capture.
    pub vc: VClock,
    /// Slices published (the thread's position in its own slice stream).
    pub slices: u64,
    /// Synchronization operations started.
    pub sync_ops: u64,
    /// The last synchronization operation the thread started, rendered
    /// (e.g. `lock(3)`).
    pub last_op: Option<String>,
}

impl fmt::Display for ThreadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{}: vc={} slices={} sync_ops={} last_op={}",
            self.tid,
            self.vc,
            self.slices,
            self.sync_ops,
            self.last_op.as_deref().unwrap_or("-")
        )
    }
}

/// Everything known about a failed run. See the module docs for which
/// fields are deterministic and which are best-effort diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureReport {
    /// Backend name (`DmtBackend::name`).
    pub backend: String,
    /// Failure classification ([`RunError::kind`]).
    pub kind: FailureKind,
    /// The culprit thread: the panicking/starved thread, or the smallest
    /// tid in the blocked set for a deadlock.
    pub tid: Tid,
    /// The panic message, or a synthesized description for deadlocks.
    pub message: String,
    /// Deterministic state of the culprit thread at the failure point
    /// (absent when the failing thread's context was not recoverable).
    pub culprit: Option<ThreadReport>,
    /// Deadlocks: one edge per blocked thread, sorted by waiter tid.
    pub wait_graph: Vec<WaitEdge>,
    /// Deadlocks: the wait-for cycle when one exists through
    /// single-target edges, rotated so the smallest tid leads.
    pub cycle: Vec<Tid>,
    /// Best-effort states of the *other* threads at teardown. Excluded
    /// from [`Self::report_digest`]: how far a peer got before the abort
    /// reached it depends on physical timing.
    pub peers: Vec<ThreadReport>,
    /// Where the flight recorder persisted this failure's trace, when
    /// recording was on ([`crate::RunConfig::trace`]). Excluded from
    /// [`Self::report_digest`]: a path reflects the environment, not the
    /// schedule.
    pub trace_path: Option<PathBuf>,
    /// Non-fatal degradations hit while producing this report — e.g. the
    /// trace or a checkpoint could not be persisted (read-only directory,
    /// full disk). Excluded from [`Self::report_digest`] like
    /// [`Self::trace_path`]: I/O health reflects the environment, not
    /// the schedule, and a reproducible failure must never be masked by
    /// an unpersistable artifact.
    pub warnings: Vec<String>,
}

impl FailureReport {
    /// Finds a wait-for cycle through the single-target edges of
    /// `graph`. Deterministic: walks chains starting from the smallest
    /// waiter tid; the returned cycle is rotated so its smallest tid
    /// leads. Empty when no cycle exists (e.g. an all-condvar deadlock).
    #[must_use]
    pub fn find_cycle(graph: &[WaitEdge]) -> Vec<Tid> {
        let mut next: Vec<(Tid, Tid)> = graph
            .iter()
            .filter_map(|e| e.target.waits_on().map(|t| (e.waiter, t)))
            .collect();
        next.sort_unstable();
        let follow = |t: Tid| -> Option<Tid> {
            next.binary_search_by_key(&t, |&(w, _)| w)
                .ok()
                .map(|i| next[i].1)
        };
        for &(start, _) in &next {
            // Walk the chain from `start`; a revisit of a node on the
            // current path is a cycle.
            let mut path: Vec<Tid> = vec![start];
            let mut cur = start;
            while let Some(n) = follow(cur) {
                if let Some(pos) = path.iter().position(|&p| p == n) {
                    let mut cycle = path.split_off(pos);
                    // Canonical rotation: smallest tid first.
                    let min_idx = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &t)| t)
                        .map_or(0, |(i, _)| i);
                    cycle.rotate_left(min_idx);
                    return cycle;
                }
                path.push(n);
                cur = n;
            }
        }
        Vec::new()
    }

    /// A stable digest of the deterministic projection of this report
    /// (FNV-1a, like [`crate::RunOutput::output_digest`]). Two runs of
    /// the same failing schedule — same config, seed and `FaultPlan` —
    /// produce byte-identical digests. Peer diagnostics are excluded.
    #[must_use]
    pub fn report_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv1a::new();
        let mut eat = |bytes: &[u8]| h.write(bytes);
        eat(self.backend.as_bytes());
        eat(&[self.kind as u8]);
        eat(&self.tid.to_le_bytes());
        eat(self.message.as_bytes());
        if let Some(c) = &self.culprit {
            eat(&c.tid.to_le_bytes());
            for (tid, t) in c.vc.iter() {
                eat(&tid.to_le_bytes());
                eat(&t.to_le_bytes());
            }
            eat(&c.slices.to_le_bytes());
            eat(&c.sync_ops.to_le_bytes());
            eat(c.last_op.as_deref().unwrap_or("-").as_bytes());
        }
        for e in &self.wait_graph {
            eat(&e.waiter.to_le_bytes());
            eat(e.target.to_string().as_bytes());
        }
        for t in &self.cycle {
            eat(&t.to_le_bytes());
        }
        h.finish()
    }

    /// Renders the full report (deterministic projection first, then the
    /// best-effort peer states) for humans.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "run failed on backend {}: {:?}", self.backend, self.kind);
        let _ = writeln!(s, "  culprit: t{} — {}", self.tid, self.message);
        if let Some(c) = &self.culprit {
            let _ = writeln!(s, "  at: {c}");
        }
        if !self.wait_graph.is_empty() {
            let _ = writeln!(s, "  wait-for graph:");
            for e in &self.wait_graph {
                let _ = writeln!(s, "    t{} waits on {}", e.waiter, e.target);
            }
        }
        if !self.cycle.is_empty() {
            let cycle: Vec<String> = self.cycle.iter().map(|t| format!("t{t}")).collect();
            let _ = writeln!(s, "  cycle: {} -> {}", cycle.join(" -> "), cycle[0]);
        }
        if !self.peers.is_empty() {
            let _ = writeln!(s, "  peers at teardown (non-deterministic diagnostics):");
            for p in &self.peers {
                let _ = writeln!(s, "    {p}");
            }
        }
        let _ = write!(s, "  report digest: {:#018x}", self.report_digest());
        if let Some(p) = &self.trace_path {
            let _ = write!(s, "\n  trace: {}", p.display());
        }
        for w in &self.warnings {
            let _ = write!(s, "\n  warning: {w}");
        }
        s
    }
}

/// Why [`crate::DmtBackend::run`] did not produce a [`crate::RunOutput`]:
/// its failure report, whose [`FailureReport::kind`] says how the run
/// ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError(Box<FailureReport>);

impl RunError {
    /// How the run ended.
    #[must_use]
    pub fn kind(&self) -> FailureKind {
        self.0.kind
    }

    /// The failure report.
    #[must_use]
    pub fn report(&self) -> &FailureReport {
        &self.0
    }

    /// Mutable access to the report (the flight recorder stamps
    /// [`FailureReport::trace_path`] after persisting).
    pub fn report_mut(&mut self) -> &mut FailureReport {
        &mut self.0
    }
}

impl From<FailureReport> for RunError {
    fn from(report: FailureReport) -> Self {
        Self(Box::new(report))
    }
}

/// Multi-line: what failed, the rerun-stable digest, and (when the
/// flight recorder was on) where the trace landed and how to replay it —
/// so a bare `?`-propagated error from an example or bin is actionable.
impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.report();
        match r.kind {
            FailureKind::Panic => writeln!(f, "worker t{} panicked: {}", r.tid, r.message)?,
            FailureKind::Deadlock => writeln!(f, "deadlock: {}", r.message)?,
            FailureKind::Wedged => writeln!(f, "run wedged: {}", r.message)?,
            FailureKind::InvalidConfig => writeln!(f, "run not started: {}", r.message)?,
        }
        write!(
            f,
            "  backend: {}\n  report digest: {:#018x}",
            r.backend,
            r.report_digest()
        )?;
        if let Some(p) = &r.trace_path {
            write!(
                f,
                "\n  trace: {}\n  replay: cargo run -p rfdet-bench --bin replay -- replay {}",
                p.display(),
                p.display()
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kind: FailureKind) -> FailureReport {
        FailureReport {
            backend: "test".to_owned(),
            kind,
            tid: 1,
            message: "boom".to_owned(),
            culprit: Some(ThreadReport {
                tid: 1,
                vc: VClock::new(),
                slices: 3,
                sync_ops: 7,
                last_op: Some("lock(0)".to_owned()),
            }),
            wait_graph: Vec::new(),
            cycle: Vec::new(),
            peers: Vec::new(),
            trace_path: None,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn digest_ignores_peer_diagnostics() {
        let a = report(FailureKind::Panic);
        let mut b = a.clone();
        b.peers.push(ThreadReport {
            tid: 2,
            ..ThreadReport::default()
        });
        assert_eq!(a.report_digest(), b.report_digest());
    }

    #[test]
    fn digest_covers_the_deterministic_projection() {
        let a = report(FailureKind::Panic);
        let mut b = a.clone();
        b.message = "other".to_owned();
        assert_ne!(a.report_digest(), b.report_digest());
        let mut c = a.clone();
        c.culprit.as_mut().unwrap().sync_ops = 8;
        assert_ne!(a.report_digest(), c.report_digest());
    }

    #[test]
    fn graph_is_sorted_by_waiter_whatever_order_the_queues_were_read_in() {
        let graph = WaitEdge::graph(
            [(3, 9, None), (1, 4, Some(2))],
            [(5, 1)],
            [(0, 7)],
            [(4, 3), (2, 1)],
        );
        let rendered: Vec<String> = graph
            .iter()
            .map(|e| format!("t{} -> {}", e.waiter, e.target))
            .collect();
        assert_eq!(
            rendered,
            [
                "t0 -> barrier 7",
                "t1 -> mutex 4 held by t2",
                "t2 -> join of t1",
                "t3 -> mutex 9 (in handoff)",
                "t4 -> join of t3",
                "t5 -> cond 1",
            ]
        );
        assert_eq!(FailureReport::find_cycle(&graph), vec![1, 2]);
    }

    #[test]
    fn find_cycle_resolves_ab_ba() {
        let graph = vec![
            WaitEdge {
                waiter: 1,
                target: WaitTarget::Mutex {
                    id: 0,
                    holder: Some(2),
                },
            },
            WaitEdge {
                waiter: 2,
                target: WaitTarget::Mutex {
                    id: 1,
                    holder: Some(1),
                },
            },
        ];
        assert_eq!(FailureReport::find_cycle(&graph), vec![1, 2]);
    }

    #[test]
    fn find_cycle_skips_dead_end_chains() {
        // 1 -> 2 -> 3 -> 2: the cycle is {2, 3}; 1 is outside it.
        let graph = vec![
            WaitEdge {
                waiter: 1,
                target: WaitTarget::Join { target: 2 },
            },
            WaitEdge {
                waiter: 2,
                target: WaitTarget::Mutex {
                    id: 0,
                    holder: Some(3),
                },
            },
            WaitEdge {
                waiter: 3,
                target: WaitTarget::Mutex {
                    id: 1,
                    holder: Some(2),
                },
            },
        ];
        assert_eq!(FailureReport::find_cycle(&graph), vec![2, 3]);
    }

    #[test]
    fn find_cycle_empty_for_condvar_waits() {
        let graph = vec![WaitEdge {
            waiter: 1,
            target: WaitTarget::Cond { id: 4 },
        }];
        assert!(FailureReport::find_cycle(&graph).is_empty());
    }

    #[test]
    fn the_error_is_its_report() {
        for kind in [
            FailureKind::Panic,
            FailureKind::Deadlock,
            FailureKind::Wedged,
            FailureKind::InvalidConfig,
        ] {
            let e = RunError::from(report(kind));
            assert_eq!((e.kind(), e.report()), (kind, &report(kind)));
        }
    }

    #[test]
    fn render_mentions_culprit_and_digest() {
        let r = report(FailureKind::Panic);
        let s = r.render();
        assert!(s.contains("t1"));
        assert!(s.contains("boom"));
        assert!(s.contains("report digest"));
    }

    #[test]
    fn digest_ignores_the_trace_path() {
        let a = report(FailureKind::Panic);
        let mut b = a.clone();
        b.trace_path = Some(PathBuf::from("/tmp/x.trace"));
        assert_eq!(a.report_digest(), b.report_digest());
        assert!(b.render().contains("/tmp/x.trace"));
    }

    #[test]
    fn digest_ignores_warnings_but_render_shows_them() {
        let a = report(FailureKind::Panic);
        let mut b = a.clone();
        b.warnings.push("trace not persisted: disk full".to_owned());
        assert_eq!(
            a.report_digest(),
            b.report_digest(),
            "I/O health must not perturb the reproducibility digest"
        );
        assert!(b.render().contains("warning: trace not persisted"));
    }

    #[test]
    fn display_is_multi_line_and_actionable() {
        let mut e = RunError::from(report(FailureKind::Panic));
        let s = e.to_string();
        assert!(s.contains("panicked"));
        assert!(s.contains("report digest: 0x"));
        assert!(!s.contains("replay:"), "no replay hint without a trace");

        e.report_mut().trace_path = Some(PathBuf::from("target/rfdet-traces/ab.trace"));
        let s = e.to_string();
        assert!(s.lines().count() >= 4, "multi-line: {s:?}");
        assert!(s.contains("trace: target/rfdet-traces/ab.trace"));
        assert!(s.contains("replay"));
    }
}
