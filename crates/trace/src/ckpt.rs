//! Deterministic checkpoints: a consistent cut of one run, on disk.
//!
//! A [`Checkpoint`] captures everything the core backend needs to
//! reconstruct every thread's `DmtCtx` at an *eligible* full-membership
//! barrier episode (see DESIGN.md §4.11 for eligibility): per-thread
//! Kendo clocks and vector clocks, the sync-var table, the thread
//! heaps, emitted output, and the materialized pages of each private
//! space. Because the runtime is deterministic, resuming from a
//! checkpoint and running to the next one reproduces that next
//! checkpoint *byte-identically* — which is what lets sharded replay
//! verify each shard against the recorded chain instead of re-running
//! the whole schedule serially.
//!
//! Layout mirrors the [`RunTrace`](crate::RunTrace) codec: magic
//! `RFCK` | version | payload | trailing FNV-1a checksum, all integers
//! little-endian, decode rejecting torn, bit-flipped, trailing-garbage
//! and future-version buffers with a typed [`TraceError`].

use crate::codec::{read_config, write_config, Reader, Writer};
use crate::digest::fnv1a;
use crate::{TraceConfig, TraceError};
use rfdet_vclock::Tid;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 4] = *b"RFCK";
/// Current checkpoint format version. Version 1 embedded the 17-field
/// [`TraceConfig`], version 2 the 12-field one with the retired
/// `slice_merging` flag; their checkpoints are rejected, not migrated.
pub const CKPT_VERSION: u32 = 3;

/// Sync-var class codes (mirror `rfdet_meta::SyncKey`, kept numeric so
/// this crate stays meta-independent).
pub mod sync_class {
    /// `SyncKey::Mutex`.
    pub const MUTEX: u8 = 0;
    /// `SyncKey::Cond`.
    pub const COND: u8 = 1;
    /// `SyncKey::Barrier`.
    pub const BARRIER: u8 = 2;
    /// `SyncKey::Thread`.
    pub const THREAD: u8 = 3;
    /// `SyncKey::Atomic`.
    pub const ATOMIC: u8 = 4;
}

/// One internal sync variable's `(lastTid, lastTime)` at the cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptSyncVar {
    /// Class code (see [`sync_class`]).
    pub class: u8,
    /// The id within the class (mutex/cond/barrier id, tid, address).
    pub id: u64,
    /// The last releasing thread.
    pub last_tid: Tid,
    /// Its vector time at the release (stored components, exact).
    pub last_time: Vec<u64>,
}

/// One size-classed free list of a thread heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptFreeList {
    /// The size class (log2 of the block size).
    pub class: u32,
    /// Free block addresses in LIFO order (order is allocation-visible:
    /// the next alloc of this class pops the back).
    pub addrs: Vec<u64>,
}

/// A thread heap's allocator state at the cut.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CkptHeap {
    /// The bump cursor.
    pub cursor: u64,
    /// Total live allocated bytes (stats only).
    pub allocated_bytes: u64,
    /// Per-class free lists, ascending class.
    pub free: Vec<CkptFreeList>,
    /// Live blocks as `(addr, class)`, ascending addr.
    pub live: Vec<(u64, u32)>,
}

/// One materialized page of a thread's private space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptPage {
    /// Page index within the space.
    pub index: u64,
    /// The full page contents (`config.page_size` bytes).
    pub data: Vec<u8>,
}

/// One thread's deterministic state at the cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptThread {
    /// The thread id.
    pub tid: Tid,
    /// `false` for threads that had already exited: only `output` (and
    /// the implied join-table entry) carries information for them.
    pub alive: bool,
    /// The Kendo logical clock (0 for dead threads).
    pub clock: u64,
    /// The vector clock, stored components exact.
    pub vc: Vec<u64>,
    /// Slices published so far.
    pub slice_seq: u64,
    /// Sync ops performed so far (the `FaultPlan` coordinate — restoring
    /// it is what keeps pre-cut faults from re-firing).
    pub sync_ops: u64,
    /// Allocations performed so far (`FaultPlan::fail_alloc` coordinate).
    pub allocs: u64,
    /// Bytes emitted so far.
    pub output: Vec<u8>,
    /// Heap allocator state (empty default for dead threads).
    pub heap: CkptHeap,
    /// Every materialized page, ascending index. The exact set matters:
    /// restore re-materializes precisely these pages so the next
    /// checkpoint's page list is byte-identical.
    pub pages: Vec<CkptPage>,
}

/// A consistent cut of one deterministic run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The eligible-episode counter value at capture (1-based; the Nth
    /// eligible full-membership barrier episode).
    pub epoch: u64,
    /// Recording backend name.
    pub backend: String,
    /// Workload label (resume resolves restartable bodies by this name).
    pub workload: String,
    /// The jitter seed.
    pub seed: Option<u64>,
    /// The determinism-relevant configuration.
    pub config: TraceConfig,
    /// The barrier episode's merged upper limit, stored components exact.
    pub upper: Vec<u64>,
    /// Every sync var with a recorded release, sorted by `(class, id)`.
    pub sync_vars: Vec<CkptSyncVar>,
    /// Tids that had exited before the cut, ascending.
    pub finished: Vec<Tid>,
    /// Per-thread state, ascending tid, one entry per registered tid.
    pub threads: Vec<CkptThread>,
}

impl Checkpoint {
    /// A stable identity for the *run* this checkpoint belongs to: the
    /// FNV of the schedule-determining inputs (backend, workload, seed,
    /// config). Checkpoints of the same logical run — including a crashed
    /// attempt and its re-record — share a key, which is how crash
    /// recovery finds "the latest checkpoint of this run" on disk
    /// without knowing the (yet-unwritten) trace digest.
    #[must_use]
    pub fn run_key(&self) -> u64 {
        let mut w = Writer { buf: Vec::new() };
        w.str(&self.backend);
        w.str(&self.workload);
        w.opt_u64(self.seed);
        write_config(&mut w, &self.backend, &self.config);
        fnv1a(&w.buf)
    }

    /// FNV digest of the encoded checkpoint — the shard-verification
    /// token: a replayed shard's terminal checkpoint must reproduce the
    /// recorded one's digest exactly.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Serializes the checkpoint (see the module docs for the layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&CKPT_MAGIC);
        w.u32(CKPT_VERSION);
        w.u64(self.epoch);
        w.str(&self.backend);
        w.str(&self.workload);
        w.opt_u64(self.seed);
        write_config(&mut w, &self.backend, &self.config);
        w.u64(self.upper.len() as u64);
        for &c in &self.upper {
            w.u64(c);
        }
        w.u64(self.sync_vars.len() as u64);
        for v in &self.sync_vars {
            w.u8(v.class);
            w.u64(v.id);
            w.u32(v.last_tid);
            w.u64(v.last_time.len() as u64);
            for &c in &v.last_time {
                w.u64(c);
            }
        }
        w.u64(self.finished.len() as u64);
        for &t in &self.finished {
            w.u32(t);
        }
        w.u64(self.threads.len() as u64);
        for t in &self.threads {
            w.u32(t.tid);
            w.boolean(t.alive);
            w.u64(t.clock);
            w.u64(t.vc.len() as u64);
            for &c in &t.vc {
                w.u64(c);
            }
            w.u64(t.slice_seq);
            w.u64(t.sync_ops);
            w.u64(t.allocs);
            w.bytes(&t.output);
            w.u64(t.heap.cursor);
            w.u64(t.heap.allocated_bytes);
            w.u64(t.heap.free.len() as u64);
            for fl in &t.heap.free {
                w.u32(fl.class);
                w.u64(fl.addrs.len() as u64);
                for &a in &fl.addrs {
                    w.u64(a);
                }
            }
            w.u64(t.heap.live.len() as u64);
            for &(addr, class) in &t.heap.live {
                w.u64(addr);
                w.u32(class);
            }
            w.u64(t.pages.len() as u64);
            for p in &t.pages {
                w.u64(p.index);
                w.bytes(&p.data);
            }
        }
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Decodes a buffer produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    /// Returns a [`TraceError`] for any malformed input: wrong magic or
    /// version, truncation, checksum mismatch, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < CKPT_MAGIC.len() + 4 + 8 {
            return Err(
                if bytes.starts_with(&CKPT_MAGIC) || CKPT_MAGIC.starts_with(bytes) {
                    TraceError::Truncated
                } else {
                    TraceError::BadMagic
                },
            );
        }
        if bytes[..4] != CKPT_MAGIC {
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
        if version != CKPT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let epoch = r.u64()?;
        let backend = r.str()?;
        let workload = r.str()?;
        let seed = r.opt_u64()?;
        let config = read_config(&mut r)?;
        let n_upper = r.list_len(8)?;
        let mut upper = Vec::with_capacity(n_upper);
        for _ in 0..n_upper {
            upper.push(r.u64()?);
        }
        let n_vars = r.list_len(21)?;
        let mut sync_vars = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            let class = r.u8()?;
            let id = r.u64()?;
            let narrow = class < sync_class::ATOMIC && u32::try_from(id).is_ok();
            if !(narrow || class == sync_class::ATOMIC) {
                return Err(TraceError::BadSyncVar(class, id));
            }
            let last_tid = r.u32()?;
            let n = r.list_len(8)?;
            let mut last_time = Vec::with_capacity(n);
            for _ in 0..n {
                last_time.push(r.u64()?);
            }
            sync_vars.push(CkptSyncVar {
                class,
                id,
                last_tid,
                last_time,
            });
        }
        let n_fin = r.list_len(4)?;
        let mut finished = Vec::with_capacity(n_fin);
        for _ in 0..n_fin {
            finished.push(r.u32()?);
        }
        let n_threads = r.list_len(8)?;
        let mut threads = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let tid = r.u32()?;
            let alive = r.boolean()?;
            let clock = r.u64()?;
            let n = r.list_len(8)?;
            let mut vc = Vec::with_capacity(n);
            for _ in 0..n {
                vc.push(r.u64()?);
            }
            let slice_seq = r.u64()?;
            let sync_ops = r.u64()?;
            let allocs = r.u64()?;
            let output = r.bytes()?;
            let cursor = r.u64()?;
            let allocated_bytes = r.u64()?;
            let n_free = r.list_len(12)?;
            let mut free = Vec::with_capacity(n_free);
            for _ in 0..n_free {
                let class = r.u32()?;
                let n = r.list_len(8)?;
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    addrs.push(r.u64()?);
                }
                free.push(CkptFreeList { class, addrs });
            }
            let n_live = r.list_len(12)?;
            let mut live = Vec::with_capacity(n_live);
            for _ in 0..n_live {
                let addr = r.u64()?;
                let class = r.u32()?;
                live.push((addr, class));
            }
            let n_pages = r.list_len(16)?;
            let mut pages = Vec::with_capacity(n_pages);
            for _ in 0..n_pages {
                let index = r.u64()?;
                let data = r.bytes()?;
                pages.push(CkptPage { index, data });
            }
            threads.push(CkptThread {
                tid,
                alive,
                clock,
                vc,
                slice_seq,
                sync_ops,
                allocs,
                output,
                heap: CkptHeap {
                    cursor,
                    allocated_bytes,
                    free,
                    live,
                },
                pages,
            });
        }
        if r.pos != body.len() {
            return Err(TraceError::TrailingBytes);
        }
        Ok(Checkpoint {
            epoch,
            backend,
            workload,
            seed,
            config,
            upper,
            sync_vars,
            finished,
            threads,
        })
    }

    /// A short human-readable summary line.
    #[must_use]
    pub fn summary(&self) -> String {
        let live = self.threads.iter().filter(|t| t.alive).count();
        let pages: usize = self.threads.iter().map(|t| t.pages.len()).sum();
        format!(
            "checkpoint: epoch={} workload={:?} threads={} ({live} live) pages={pages} digest={:#018x}",
            self.epoch,
            self.workload,
            self.threads.len(),
            self.digest(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_config;

    pub(crate) fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 3,
            backend: "RFDet-ci".into(),
            workload: "chaos.long_haul@4".into(),
            seed: Some(7),
            config: test_config(),
            upper: vec![10, 22, 0, 31],
            sync_vars: vec![
                CkptSyncVar {
                    class: sync_class::MUTEX,
                    id: 0,
                    last_tid: 2,
                    last_time: vec![4, 9],
                },
                CkptSyncVar {
                    class: sync_class::BARRIER,
                    id: 1,
                    last_tid: 3,
                    last_time: vec![10, 22, 0, 31],
                },
            ],
            finished: vec![1],
            threads: vec![
                CkptThread {
                    tid: 0,
                    alive: true,
                    clock: 812,
                    vc: vec![10, 22, 0, 31],
                    slice_seq: 12,
                    sync_ops: 40,
                    allocs: 3,
                    output: b"partial".to_vec(),
                    heap: CkptHeap {
                        cursor: 0x1000,
                        allocated_bytes: 256,
                        free: vec![CkptFreeList {
                            class: 6,
                            addrs: vec![0x40, 0x80],
                        }],
                        live: vec![(0x100, 8)],
                    },
                    pages: vec![CkptPage {
                        index: 2,
                        data: vec![0xAB; 64],
                    }],
                },
                CkptThread {
                    tid: 1,
                    alive: false,
                    clock: 0,
                    vc: vec![],
                    slice_seq: 0,
                    sync_ops: 0,
                    allocs: 0,
                    output: b"done".to_vec(),
                    heap: CkptHeap::default(),
                    pages: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let c = sample();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let c = sample();
        assert_eq!(c.digest(), sample().digest());
        let mut d = sample();
        d.threads[0].clock += 1;
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn run_key_ignores_epoch_and_state() {
        let a = sample();
        let mut b = sample();
        b.epoch = 99;
        b.threads.clear();
        b.upper.clear();
        assert_eq!(a.run_key(), b.run_key(), "same run inputs, same key");
        let mut c = sample();
        c.seed = Some(8);
        assert_ne!(a.run_key(), c.run_key(), "different seed, different run");
    }

    #[test]
    fn rejects_bad_magic_and_trace_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Checkpoint::decode(&bytes), Err(TraceError::BadMagic));
        // A RunTrace buffer must not decode as a checkpoint.
        let mut t = bytes.clone();
        t[..4].copy_from_slice(b"RFDT");
        assert_eq!(Checkpoint::decode(&t), Err(TraceError::BadMagic));
    }

    #[test]
    fn rejects_retired_and_unknown_versions() {
        for version in [1, 2, 99] {
            let mut bytes = sample().encode();
            bytes[4] = version;
            let body_len = bytes.len() - 8;
            let sum = fnv1a(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&bytes),
                Err(TraceError::UnsupportedVersion(u32::from(version)))
            );
        }
    }

    #[test]
    fn rejects_every_truncation_point() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "decode accepted a {len}-byte prefix of a {}-byte checkpoint",
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
                Checkpoint::decode(&b).is_err(),
                "decode accepted a bit flip at byte {i}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.extend_from_slice(b"junk");
        assert!(Checkpoint::decode(&bytes).is_err());
    }
}
