//! Typed data-race reports.
//!
//! A deterministic backend running with [`crate::RunConfig::detect_races`]
//! attaches a [`RaceReport`] to the [`crate::RunOutput`] for every pair of
//! conflicting accesses not ordered by its happens-before relation. Because
//! the schedule itself is deterministic, a report is reproducible by
//! construction: re-running the same workload under the same configuration
//! yields the same reports at the same logical coordinates, and the
//! coordinates are *backend-independent* — the sync-op index of the
//! synchronization operation that sealed each access's slice is a property
//! of the program, not of the backend's clock discipline. [`RaceReport::digest`]
//! covers exactly the backend-independent fields, so the cross-backend
//! oracle tests can compare reports from DLRC, DThreads and CoreDet-q
//! bit-for-bit.

use crate::Addr;
use rfdet_vclock::Tid;
use std::fmt;

/// Which side of a conflicting pair an access was.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// The access read the word.
    Read,
    /// The access wrote (part of) the word.
    Write,
}

impl AccessKind {
    fn code(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One side of a race: which thread touched the word, and *when* in the
/// program's own logical time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceSite {
    /// Deterministic thread id of the accessor.
    pub tid: Tid,
    /// Logical coordinate: the per-thread synchronization-operation index
    /// at which the access's slice was sealed (the sync op that ended the
    /// sync-free interval containing the access). Identical across
    /// deterministic backends for the same program.
    pub sync_op: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// The accessor's own logical-clock component when the slice sealed
    /// (Kendo clock on DLRC, phase clock on the lockstep backends).
    /// Diagnostic only — tick disciplines differ per backend, so this is
    /// deliberately *excluded* from [`RaceReport::digest`].
    pub clock: u64,
}

impl RaceSite {
    /// Digest-relevant projection, ordered so site canonicalization and
    /// hashing agree.
    fn key(&self) -> (Tid, u64, u8) {
        (self.tid, self.sync_op, self.kind.code())
    }
}

/// A pair of conflicting, happens-before-unordered accesses to one
/// machine word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Word-aligned byte address of the contested word.
    pub addr: Addr,
    /// Page index (`addr / page_size`).
    pub page: u64,
    /// Byte offset within the page.
    pub offset: u64,
    /// The site that was applied first (canonical order: smaller
    /// `(tid, sync_op, kind)` key).
    pub first: RaceSite,
    /// The other site.
    pub second: RaceSite,
}

impl RaceReport {
    /// Orders the two sites canonically so the report compares and
    /// digests identically regardless of which side a backend observed
    /// first. Returns `self` for builder-style use.
    #[must_use]
    pub fn canonical(mut self) -> Self {
        if self.second.key() < self.first.key() {
            std::mem::swap(&mut self.first, &mut self.second);
        }
        self
    }

    /// A rerun-stable 64-bit digest (FNV-1a) over the backend-independent
    /// fields: the word address and both sites' `(tid, sync_op, kind)` in
    /// canonical order. `clock` is excluded — tick counts are a backend
    /// property, not a program property.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let (a, b) = if self.second.key() < self.first.key() {
            (&self.second, &self.first)
        } else {
            (&self.first, &self.second)
        };
        let mut h = crate::digest::Fnv1a::new();
        let mut mix = |v: u64| h.write(&v.to_le_bytes());
        mix(self.addr);
        for s in [a, b] {
            mix(u64::from(s.tid));
            mix(s.sync_op);
            mix(u64::from(s.kind.code()));
        }
        h.finish()
    }

    /// One human-readable line: `race @0x00001040 (page 1 +0x40) t1 write@op3 <-> t2 read@op5 digest=…`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "race @{:#010x} (page {} +{:#x}) t{} {}@op{} <-> t{} {}@op{} digest={:016x}",
            self.addr,
            self.page,
            self.offset,
            self.first.tid,
            self.first.kind,
            self.first.sync_op,
            self.second.tid,
            self.second.kind,
            self.second.sync_op,
            self.digest(),
        )
    }
}

/// A combined order-sensitive digest over a whole report list (FNV-1a of
/// the per-report digests). The rerun-stability tests compare this one
/// number instead of walking report lists.
#[must_use]
pub fn races_digest(reports: &[RaceReport]) -> u64 {
    let mut h = crate::digest::Fnv1a::new();
    for r in reports {
        h.write(&r.digest().to_le_bytes());
    }
    h.finish()
}

/// Renders a report list as the text sidecar persisted alongside
/// flight-recorder traces: one [`RaceReport::render`] line per race,
/// preceded by a count header.
#[must_use]
pub fn render_races(reports: &[RaceReport]) -> String {
    let mut out = format!("{} race(s)\n", reports.len());
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(tid: Tid, sync_op: u64, kind: AccessKind, clock: u64) -> RaceSite {
        RaceSite {
            tid,
            sync_op,
            kind,
            clock,
        }
    }

    fn report(first: RaceSite, second: RaceSite) -> RaceReport {
        RaceReport {
            addr: 0x1040,
            page: 1,
            offset: 0x40,
            first,
            second,
        }
    }

    #[test]
    fn digest_is_site_order_independent() {
        let a = site(1, 3, AccessKind::Write, 10);
        let b = site(2, 5, AccessKind::Read, 99);
        assert_eq!(report(a, b).digest(), report(b, a).digest());
        assert_eq!(report(b, a).canonical(), report(a, b));
    }

    #[test]
    fn digest_ignores_clock_but_not_coordinates() {
        let a = site(1, 3, AccessKind::Write, 10);
        let b = site(2, 5, AccessKind::Read, 99);
        let base = report(a, b);
        let mut reclocked = base.clone();
        reclocked.first.clock = 77;
        assert_eq!(base.digest(), reclocked.digest(), "clock is diagnostic");
        let mut moved = base.clone();
        moved.second.sync_op = 6;
        assert_ne!(base.digest(), moved.digest());
        let mut other_word = base.clone();
        other_word.addr = 0x1048;
        assert_ne!(base.digest(), other_word.digest());
        let mut other_kind = base;
        other_kind.second.kind = AccessKind::Write;
        assert_ne!(other_kind.digest(), report(a, b).digest());
    }

    #[test]
    fn list_digest_covers_every_report() {
        let a = site(1, 3, AccessKind::Write, 0);
        let b = site(2, 5, AccessKind::Read, 0);
        let r = report(a, b);
        assert_ne!(races_digest(&[]), races_digest(std::slice::from_ref(&r)));
        assert_ne!(
            races_digest(std::slice::from_ref(&r)),
            races_digest(&[r.clone(), r.clone()])
        );
        assert_eq!(races_digest(std::slice::from_ref(&r)), races_digest(&[r]));
    }

    #[test]
    fn render_mentions_both_sites() {
        let text = report(
            site(1, 3, AccessKind::Write, 0),
            site(2, 5, AccessKind::Read, 0),
        )
        .render();
        assert!(text.contains("t1 write@op3"), "{text}");
        assert!(text.contains("t2 read@op5"), "{text}");
        let sidecar = render_races(&[]);
        assert!(sidecar.starts_with("0 race(s)"), "{sidecar}");
    }
}
