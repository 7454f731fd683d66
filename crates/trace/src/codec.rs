//! Serde-free binary codec for [`RunTrace`] and [`Checkpoint`].
//!
//! [`Checkpoint`]: crate::Checkpoint
//!
//! Both file kinds share one envelope (all integers little-endian):
//!
//! ```text
//! magic | version u32 | body | checksum u64
//! ```
//!
//! and both bodies hold the run's [`Recording`], written by one
//! [`write_recording`]: a trace's body is `recording | events | failure`,
//! a checkpoint's `epoch | recording | cut state`.
//!
//! The checksum is FNV-1a over every preceding byte, so a torn or
//! bit-flipped file fails decoding even if the length happens to line
//! up. Strings and lists are length-prefixed; `Option<u64>` is a flag
//! byte plus the value. Version bumps are decode-rejected rather than
//! migrated: a trace is a debugging artifact of one build lineage, not a
//! long-term archive format.

use crate::digest::fnv1a;
use crate::{FailureSummary, Recording, RunTrace, TraceConfig, TraceEvent, TraceFault};
use std::fmt;

/// File magic.
pub const MAGIC: [u8; 4] = *b"RFDT";
/// Current format version. Version 1 carried a 17-field [`TraceConfig`],
/// version 2 a 12-field one with the retired `slice_merging` flag; their
/// traces are rejected, not migrated.
pub const VERSION: u32 = 3;

/// Why a byte buffer failed to decode as a [`RunTrace`] or a
/// [`Checkpoint`](crate::Checkpoint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with the magic its kind expects (held
    /// here: `RFDT` for a trace, `RFCK` for a checkpoint).
    BadMagic([u8; 4]),
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
            TraceError::BadMagic(m) => {
                write!(f, "not an {} file (bad magic)", String::from_utf8_lossy(m))
            }
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            TraceError::Truncated => write!(f, "truncated file"),
            TraceError::BadChecksum => write!(f, "checksum mismatch (corrupt file)"),
            TraceError::TrailingBytes => write!(f, "trailing bytes after the checksum"),
            TraceError::BadLength => write!(f, "implausible length prefix"),
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
    /// A length-prefixed list, each item written by `each`.
    pub(crate) fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
        for item in items {
            each(self, item);
        }
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
    fn list_len(&mut self, min_elem: usize) -> Result<usize, TraceError> {
        let len = self.u64()? as usize;
        if len.saturating_mul(min_elem.max(1)) > self.buf.len() {
            return Err(TraceError::BadLength);
        }
        Ok(len)
    }
    /// A length-prefixed list of items of at least `min_elem` bytes
    /// each, each read by `each`.
    pub(crate) fn list<T>(
        &mut self,
        min_elem: usize,
        mut each: impl FnMut(&mut Self) -> Result<T, TraceError>,
    ) -> Result<Vec<T>, TraceError> {
        let len = self.list_len(min_elem)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(each(self)?);
        }
        Ok(items)
    }
}

/// The config's four retired slots, each written with the value its
/// field last held and skipped on read, so the version-3 layout and
/// every digest over it stay as they were: `monitor` (a byte, 1 iff the
/// recording backend is RFDet-pf — the mode is the backend's now, so
/// the name says it), `lazy_writes` (a byte, 0: every acquire applies
/// what it propagates), `quantum_ticks` (CoreDet-q's quantum, now
/// `rfdet_dthreads::QUANTUM_TICKS`) and `jitter_max_us` (now
/// `rfdet_api::JITTER_MAX_US`).
const QUANTUM_SLOT: u64 = 10_000;
const JITTER_SLOT: u64 = 50;

/// Writes `c` as recorded by the backend named `backend`.
fn write_config(w: &mut Writer, backend: &str, c: &TraceConfig) {
    w.u64(c.space_bytes);
    w.u64(c.page_size);
    w.u64(c.meta_capacity_bytes);
    w.u64(c.meta_max_slices);
    w.u8(u8::from(backend == "RFDet-pf"));
    w.boolean(c.prelock);
    w.boolean(false);
    w.u32(c.fault_cost_spins);
    w.u64(QUANTUM_SLOT);
    w.u64(JITTER_SLOT);
    w.opt_u64(c.deadlock_after_ms);
}

fn read_config(r: &mut Reader<'_>) -> Result<TraceConfig, TraceError> {
    Ok(TraceConfig {
        space_bytes: r.u64()?,
        page_size: r.u64()?,
        meta_capacity_bytes: r.u64()?,
        meta_max_slices: r.u64()?,
        // Skips the `monitor` byte first.
        prelock: r.take(1).and_then(|_| r.boolean())?,
        // Skips the `lazy_writes` byte first.
        fault_cost_spins: r.take(1).and_then(|_| r.u32())?,
        // Skips the `QUANTUM_SLOT` and the `JITTER_SLOT` first.
        deadlock_after_ms: r.take(16).and_then(|_| r.opt_u64())?,
    })
}

/// Writes a run's input, the shared head of both bodies.
pub(crate) fn write_recording(w: &mut Writer, rec: &Recording) {
    w.str(&rec.backend);
    w.str(&rec.workload);
    w.opt_u64(rec.seed);
    write_config(w, &rec.backend, &rec.config);
    w.list(&rec.faults, |w, f| {
        w.u32(f.tid);
        w.u8(f.code);
        w.u64(f.a);
        w.u64(f.b);
    });
}

pub(crate) fn read_recording(r: &mut Reader<'_>) -> Result<Recording, TraceError> {
    Ok(Recording {
        backend: r.str()?,
        workload: r.str()?,
        seed: r.opt_u64()?,
        config: read_config(r)?,
        faults: r.list(21, |r| {
            Ok(TraceFault {
                tid: r.u32()?,
                code: r.u8()?,
                a: r.u64()?,
                b: r.u64()?,
            })
        })?,
    })
}

/// The envelope of both file kinds: `magic | version | body | checksum`,
/// the body written by `body`.
pub(crate) fn seal(magic: [u8; 4], version: u32, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&magic);
    w.u32(version);
    body(&mut w);
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Checks the magic, the checksum and the version of a [`seal`]ed
/// buffer, then reads its body with `body`, which must consume all of
/// it.
pub(crate) fn open<T>(
    magic: [u8; 4],
    version: u32,
    bytes: &[u8],
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, TraceError>,
) -> Result<T, TraceError> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(if bytes.starts_with(&magic) || magic.starts_with(bytes) {
            TraceError::Truncated
        } else {
            TraceError::BadMagic(magic)
        });
    }
    if bytes[..4] != magic {
        return Err(TraceError::BadMagic(magic));
    }
    let (head, tail) = bytes.split_at(bytes.len() - 8);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(tail);
    if fnv1a(head) != u64::from_le_bytes(sum) {
        return Err(TraceError::BadChecksum);
    }
    let mut r = Reader { buf: head, pos: 4 };
    let found = r.u32()?;
    if found != version {
        return Err(TraceError::UnsupportedVersion(found));
    }
    let value = body(&mut r)?;
    if r.pos != head.len() {
        return Err(TraceError::TrailingBytes);
    }
    Ok(value)
}

impl RunTrace {
    /// Serializes the trace (see the module docs for the layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        seal(MAGIC, VERSION, |w| {
            write_recording(w, &self.recording);
            w.list(&self.events, |w, e| {
                w.u32(e.tid);
                w.u64(e.op);
                w.u8(e.kind);
                w.opt_u64(e.arg);
                w.u64(e.clock);
            });
            w.u8(self.failure.kind);
            w.u32(self.failure.tid);
            w.u64(self.failure.report_digest);
        })
    }

    /// Decodes a buffer produced by [`RunTrace::encode`].
    ///
    /// # Errors
    /// Returns a [`TraceError`] for any malformed input: wrong magic or
    /// version, truncation, checksum mismatch, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        open(MAGIC, VERSION, bytes, |r| {
            Ok(RunTrace {
                recording: read_recording(r)?,
                events: r.list(22, |r| {
                    Ok(TraceEvent {
                        tid: r.u32()?,
                        op: r.u64()?,
                        kind: r.u8()?,
                        arg: r.opt_u64()?,
                        clock: r.u64()?,
                    })
                })?,
                failure: FailureSummary {
                    kind: r.u8()?,
                    tid: r.u32()?,
                    report_digest: r.u64()?,
                },
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{test_config, test_recording};
    use crate::{op, FAULT_JITTER, FAULT_PANIC, KIND_PANIC};

    fn sample() -> RunTrace {
        RunTrace {
            recording: Recording {
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
            },
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
        assert_eq!(RunTrace::decode(&bytes), Err(TraceError::BadMagic(MAGIC)));
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
        t.recording.faults.clear();
        t.events.clear();
        t.recording.seed = None;
        assert_eq!(RunTrace::decode(&t.encode()).unwrap(), t);
    }

    /// The version-3 config block, retired slots included, as written
    /// before the monitor mode and CoreDet-q's quantum left the config:
    /// the bytes and the trace digests below were generated by that
    /// build, the checkpoint digests by the first version-4 one (the
    /// checkpoint's recording gained its fault list after the config). A
    /// moved retired slot, or a monitor byte that stops reading 1
    /// exactly for RFDet-pf, fails here before any recorded artifact
    /// changes its digest.
    #[test]
    fn config_bytes_keep_the_version_3_layout() {
        const BLOCK: &str = "0000100000000000\
                             0010000000000000\
                             0000400000000000\
                             0004000000000000\
                             {monitor}0100\
                             00000000\
                             1027000000000000\
                             3200000000000000\
                             013075000000000000";
        // (backend, monitor byte, trace digest, checkpoint digest)
        let goldens = [
            (
                "RFDet-ci",
                "00",
                0x89f6_5369_2c53_1fae,
                0xdbe8_1216_63b5_8a20,
            ),
            (
                "RFDet-pf",
                "01",
                0xa6fe_5f5d_2b8a_cdf8,
                0x8730_fe3a_a083_5191,
            ),
            (
                "CoreDet-q",
                "00",
                0x9816_769c_d3f2_2f52,
                0x987b_7ab1_975a_ee0f,
            ),
        ];
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        for (backend, monitor, trace_digest, ckpt_digest) in goldens {
            let block = BLOCK.replace("{monitor}", monitor);
            let trace = RunTrace {
                recording: test_recording(backend, vec![]),
                events: vec![],
                failure: FailureSummary {
                    kind: crate::KIND_NONE,
                    tid: 0,
                    report_digest: 0,
                },
            };
            let ckpt = crate::Checkpoint {
                epoch: 1,
                recording: test_recording(backend, vec![]),
                upper: vec![],
                sync_vars: vec![],
                finished: vec![],
                threads: vec![],
            };
            // Magic, version (and a checkpoint's epoch), the two strings
            // and the absent seed precede the config.
            let at = |header: usize| header + 4 + backend.len() + 4 + 3 + 1;
            for (bytes, header, digest) in [
                (trace.encode(), 8, trace_digest),
                (ckpt.encode(), 16, ckpt_digest),
            ] {
                let start = at(header);
                assert_eq!(hex(&bytes[start..start + 64]), block, "{backend}");
                assert_eq!(crate::digest::fnv1a(&bytes), digest, "{backend}");
            }
            assert_eq!(RunTrace::decode(&trace.encode()), Ok(trace));
            assert_eq!(crate::Checkpoint::decode(&ckpt.encode()), Ok(ckpt));
        }
    }

    /// A version-3 trace recorded with lazy writes on carries a lazy byte
    /// of 1. It still decodes, and re-encodes with the retired slot's 0.
    #[test]
    fn a_config_block_with_the_lazy_byte_set_decodes_and_reencodes_with_0() {
        let t = sample();
        let written = t.encode();
        // Magic, version, the two strings and the seed precede the
        // config; the lazy byte follows four u64s, monitor and prelock.
        let rec = &t.recording;
        let lazy_at = 8 + 4 + rec.backend.len() + 4 + rec.workload.len() + 9 + 32 + 2;
        assert_eq!(written[lazy_at], 0);
        let mut lazy = written.clone();
        lazy[lazy_at] = 1;
        let body_len = lazy.len() - 8;
        let sum = crate::digest::fnv1a(&lazy[..body_len]);
        lazy[body_len..].copy_from_slice(&sum.to_le_bytes());
        let decoded = RunTrace::decode(&lazy).expect("a lazy-run trace decodes");
        assert_eq!(decoded, t);
        assert_eq!(decoded.encode(), written);
    }
}
