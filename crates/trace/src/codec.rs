//! Serde-free binary codec for [`RunTrace`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RFDT" | version u32 | payload | checksum u64
//! ```
//!
//! The checksum is FNV-1a over every preceding byte, so a torn or
//! bit-flipped file fails decoding even if the length happens to line
//! up. Strings and lists are length-prefixed; `Option<u64>` is a flag
//! byte plus the value. Version bumps are decode-rejected rather than
//! migrated: a trace is a debugging artifact of one build lineage, not a
//! long-term archive format.

use crate::digest::fnv1a;
use crate::{FailureSummary, RunTrace, TraceConfig, TraceEvent, TraceFault};
use std::fmt;

/// File magic.
pub const MAGIC: [u8; 4] = *b"RFDT";
/// Current format version. Version 1 carried a 17-field [`TraceConfig`],
/// version 2 a 12-field one with the retired `slice_merging` flag; their
/// traces are rejected, not migrated.
pub const VERSION: u32 = 3;

/// Why a byte buffer failed to decode as a [`RunTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with the `RFDT` magic.
    BadMagic,
    /// The format version is not the one this build reads and writes.
    UnsupportedVersion(u32),
    /// The buffer ended mid-field (torn file).
    Truncated,
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// Bytes remain after the checksum (corrupt or concatenated file).
    TrailingBytes,
    /// A length prefix is implausibly large for the buffer.
    BadLength,
    /// A checkpoint sync var's `(class, id)` names no sync-object class,
    /// or an id its class cannot hold (only an atomic's is wider than 32
    /// bits).
    BadSyncVar(u8, u64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a RFDT trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "truncated trace file"),
            TraceError::BadChecksum => write!(f, "trace checksum mismatch (corrupt file)"),
            TraceError::TrailingBytes => write!(f, "trailing bytes after trace checksum"),
            TraceError::BadLength => write!(f, "implausible length prefix in trace file"),
            TraceError::BadSyncVar(c, id) => write!(f, "invalid checkpoint sync var ({c}, {id})"),
        }
    }
}

impl std::error::Error for TraceError {}

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::BadLength)?;
        if end > self.buf.len() {
            return Err(TraceError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, TraceError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    pub(crate) fn boolean(&mut self) -> Result<bool, TraceError> {
        Ok(self.u8()? != 0)
    }
    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, TraceError> {
        Ok(if self.u8()? != 0 {
            Some(self.u64()?)
        } else {
            None
        })
    }
    pub(crate) fn str(&mut self) -> Result<String, TraceError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::BadLength)
    }
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, TraceError> {
        let len = self.list_len(1)?;
        Ok(self.take(len)?.to_vec())
    }
    /// Guards list length prefixes against absurd values before any
    /// allocation: each element needs at least `min_elem` bytes.
    pub(crate) fn list_len(&mut self, min_elem: usize) -> Result<usize, TraceError> {
        let len = self.u64()? as usize;
        if len.saturating_mul(min_elem.max(1)) > self.buf.len() {
            return Err(TraceError::BadLength);
        }
        Ok(len)
    }
}

/// What the config's retired `jitter_max_us` slot (between
/// `quantum_ticks` and `deadlock_after_ms`) holds: the field's last
/// value, written unchanged and skipped on read, so the version-3 layout
/// and every digest over it stay as they were.
const JITTER_SLOT: u64 = 50;

pub(crate) fn write_config(w: &mut Writer, c: &TraceConfig) {
    w.u64(c.space_bytes);
    w.u64(c.page_size);
    w.u64(c.meta_capacity_bytes);
    w.u64(c.meta_max_slices);
    w.u8(c.monitor);
    w.boolean(c.prelock);
    w.boolean(c.lazy_writes);
    w.u32(c.fault_cost_spins);
    w.u64(c.quantum_ticks);
    w.u64(JITTER_SLOT);
    w.opt_u64(c.deadlock_after_ms);
}

pub(crate) fn read_config(r: &mut Reader<'_>) -> Result<TraceConfig, TraceError> {
    Ok(TraceConfig {
        space_bytes: r.u64()?,
        page_size: r.u64()?,
        meta_capacity_bytes: r.u64()?,
        meta_max_slices: r.u64()?,
        monitor: r.u8()?,
        prelock: r.boolean()?,
        lazy_writes: r.boolean()?,
        fault_cost_spins: r.u32()?,
        quantum_ticks: r.u64()?,
        // Skips the `JITTER_SLOT` first.
        deadlock_after_ms: r.u64().and_then(|_| r.opt_u64())?,
    })
}

impl RunTrace {
    /// Serializes the trace (see the module docs for the layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.str(&self.backend);
        w.str(&self.workload);
        w.opt_u64(self.seed);
        write_config(&mut w, &self.config);
        w.u64(self.faults.len() as u64);
        for f in &self.faults {
            w.u32(f.tid);
            w.u8(f.code);
            w.u64(f.a);
            w.u64(f.b);
        }
        w.u64(self.events.len() as u64);
        for e in &self.events {
            w.u32(e.tid);
            w.u64(e.op);
            w.u8(e.kind);
            w.opt_u64(e.arg);
            w.u64(e.clock);
        }
        w.u8(self.failure.kind);
        w.u32(self.failure.tid);
        w.u64(self.failure.report_digest);
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Decodes a buffer produced by [`RunTrace::encode`].
    ///
    /// # Errors
    /// Returns a [`TraceError`] for any malformed input: wrong magic or
    /// version, truncation, checksum mismatch, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(if bytes.starts_with(&MAGIC) || MAGIC.starts_with(bytes) {
                TraceError::Truncated
            } else {
                TraceError::BadMagic
            });
        }
        if bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[bytes.len() - 8..]);
        if fnv1a(body) != u64::from_le_bytes(tail) {
            return Err(TraceError::BadChecksum);
        }
        let mut r = Reader { buf: body, pos: 4 };
        let version = r.u32()?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let backend = r.str()?;
        let workload = r.str()?;
        let seed = r.opt_u64()?;
        let config = read_config(&mut r)?;
        let n_faults = r.list_len(21)?;
        let mut faults = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            faults.push(TraceFault {
                tid: r.u32()?,
                code: r.u8()?,
                a: r.u64()?,
                b: r.u64()?,
            });
        }
        let n_events = r.list_len(22)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(TraceEvent {
                tid: r.u32()?,
                op: r.u64()?,
                kind: r.u8()?,
                arg: r.opt_u64()?,
                clock: r.u64()?,
            });
        }
        let failure = FailureSummary {
            kind: r.u8()?,
            tid: r.u32()?,
            report_digest: r.u64()?,
        };
        if r.pos != body.len() {
            return Err(TraceError::TrailingBytes);
        }
        Ok(RunTrace {
            backend,
            workload,
            seed,
            config,
            faults,
            events,
            failure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_config;
    use crate::{op, FAULT_JITTER, FAULT_PANIC, KIND_PANIC};

    fn sample() -> RunTrace {
        RunTrace {
            backend: "RFDet-ci".into(),
            workload: "lock_panic".into(),
            seed: Some(42),
            config: test_config(),
            faults: vec![
                TraceFault {
                    tid: 1,
                    code: FAULT_PANIC,
                    a: 4,
                    b: 0,
                },
                TraceFault {
                    tid: 2,
                    code: FAULT_JITTER,
                    a: 1,
                    b: 50,
                },
            ],
            events: vec![
                TraceEvent {
                    tid: 0,
                    op: 0,
                    kind: op::SPAWN,
                    arg: None,
                    clock: 5,
                },
                TraceEvent {
                    tid: 1,
                    op: 0,
                    kind: op::LOCK,
                    arg: Some(3),
                    clock: 12,
                },
                TraceEvent {
                    tid: 1,
                    op: u64::MAX,
                    kind: op::WAKE,
                    arg: None,
                    clock: 30,
                },
            ],
            failure: FailureSummary {
                kind: KIND_PANIC,
                tid: 1,
                report_digest: 0xdead_beef_cafe_f00d,
            },
        }
    }

    #[test]
    fn round_trips_exactly() {
        let t = sample();
        let bytes = t.encode();
        assert_eq!(RunTrace::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(RunTrace::decode(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn rejects_retired_and_unknown_versions() {
        for version in [1, 2, 99] {
            let mut bytes = sample().encode();
            bytes[4] = version;
            // Fix up the checksum so the version check is what fires.
            let body_len = bytes.len() - 8;
            let sum = crate::digest::fnv1a(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                RunTrace::decode(&bytes),
                Err(TraceError::UnsupportedVersion(u32::from(version)))
            );
        }
    }

    #[test]
    fn rejects_every_truncation_point() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                RunTrace::decode(&bytes[..len]).is_err(),
                "decode accepted a {len}-byte prefix of a {}-byte trace",
                bytes.len()
            );
        }
    }

    #[test]
    fn rejects_single_bit_flips() {
        let bytes = sample().encode();
        for i in [5, 20, bytes.len() / 2, bytes.len() - 9] {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(
                RunTrace::decode(&b).is_err(),
                "decode accepted a bit flip at byte {i}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(b"junk");
        // Trailing bytes shift the checksum window, so this surfaces as
        // a checksum failure — still an error, which is what matters.
        assert!(RunTrace::decode(&bytes).is_err());
    }

    #[test]
    fn empty_lists_round_trip() {
        let mut t = sample();
        t.faults.clear();
        t.events.clear();
        t.seed = None;
        assert_eq!(RunTrace::decode(&t.encode()).unwrap(), t);
    }
}
