//! Deterministic checkpoints: a consistent cut of one run, on disk.
//!
//! A [`Checkpoint`] captures everything the core backend needs to
//! reconstruct every thread's `DmtCtx` at an *eligible* full-membership
//! barrier episode (see DESIGN.md §4.11 for eligibility): per-thread
//! Kendo clocks and vector clocks, the sync-var table, the thread
//! heaps, emitted output, and the materialized pages of each private
//! space. Because the runtime is deterministic, resuming from a
//! checkpoint and running to the next one reproduces that next
//! checkpoint *byte-identically* — which is what lets one replay from
//! the start verify every checkpoint of a recorded chain.
//!
//! The file is the [`RunTrace`](crate::RunTrace)'s envelope with magic
//! `RFCK`, around `epoch | recording | cut state`: the codec module's
//! one writer lays out the [`Recording`], and the envelope's decode
//! rejects torn, bit-flipped, trailing-garbage and other-version
//! buffers with a typed [`TraceError`].

use crate::codec::{
    open, read_recording, read_sync_key, seal, write_recording, write_sync_key, Reader, Writer,
};
use crate::digest::fnv1a;
use crate::{Recording, TraceError};
use rfdet_vclock::Tid;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 4] = *b"RFCK";
/// Current checkpoint format version. Version 1 embedded the 17-field
/// [`TraceConfig`](crate::TraceConfig), version 2 the 12-field one with
/// the retired `slice_merging` flag, version 3 no fault plan, version 4
/// the retired `meta_capacity_bytes`; their checkpoints are rejected,
/// not migrated.
pub const CKPT_VERSION: u32 = 5;

/// Key of an internal synchronization variable. A checkpoint records
/// its variant as a class byte (the declaration order, 0 to 4) and its
/// id as a u64; the derived `Ord` (class, then id) is the order a
/// checkpoint lists its sync vars in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SyncKey {
    /// An application mutex.
    Mutex(u32),
    /// An application condition variable.
    Cond(u32),
    /// An application barrier.
    Barrier(u32),
    /// The implicit sync var of a thread's lifetime: *release* at exit,
    /// *acquire* at join.
    Thread(Tid),
    /// A low-level atomic cell, keyed by its address (the §4.6 extension:
    /// every atomic operation acquires *and* releases this variable).
    Atomic(u64),
}

/// One internal sync variable's `(lastTid, lastTime)` at the cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptSyncVar {
    /// The variable.
    pub key: SyncKey,
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
    /// The run's input with its fault plan's kills left out — the plan
    /// a recovery from this cut runs under: jitter decides the
    /// schedule, a kill is the fault recovery drops.
    pub recording: Recording,
    /// The barrier episode's merged upper limit, stored components exact.
    pub upper: Vec<u64>,
    /// Every sync var with a recorded release, sorted by key.
    pub sync_vars: Vec<CkptSyncVar>,
    /// Tids that had exited before the cut, ascending.
    pub finished: Vec<Tid>,
    /// Per-thread state, ascending tid, one entry per registered tid.
    pub threads: Vec<CkptThread>,
}

impl Checkpoint {
    /// A stable identity for the *run* this checkpoint belongs to: the
    /// FNV of its encoded [`Recording`]. Checkpoints of the same logical
    /// run — including a crashed attempt and its re-record, since the
    /// recording holds no kills — share a key, which is how crash
    /// recovery finds "the latest checkpoint of this run" on disk
    /// without knowing the (yet-unwritten) trace digest; a jittered and
    /// an unjittered run do not.
    #[must_use]
    pub fn run_key(&self) -> u64 {
        let mut w = Writer { buf: Vec::new() };
        write_recording(&mut w, &self.recording);
        fnv1a(&w.buf)
    }

    /// FNV digest of the encoded checkpoint — the chain-verification
    /// token: each checkpoint a chain check's replay seals must reproduce
    /// the recorded one's digest exactly.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Serializes the checkpoint (see the module docs for the layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        seal(CKPT_MAGIC, CKPT_VERSION, |w| self.write_body(w))
    }

    /// Decodes a buffer produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    /// Returns a [`TraceError`] for any malformed input: wrong magic or
    /// version, truncation, checksum mismatch, trailing bytes, or a code
    /// that names no variant of its type.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        open(CKPT_MAGIC, CKPT_VERSION, bytes, Self::read_body)
    }

    fn write_body(&self, w: &mut Writer) {
        w.u64(self.epoch);
        write_recording(w, &self.recording);
        w.list(&self.upper, |w, &c| w.u64(c));
        w.list(&self.sync_vars, |w, v| {
            write_sync_key(w, v.key);
            w.u32(v.last_tid);
            w.list(&v.last_time, |w, &c| w.u64(c));
        });
        w.list(&self.finished, |w, &t| w.u32(t));
        w.list(&self.threads, |w, t| {
            w.u32(t.tid);
            w.boolean(t.alive);
            w.u64(t.clock);
            w.list(&t.vc, |w, &c| w.u64(c));
            w.u64(t.slice_seq);
            w.u64(t.sync_ops);
            w.u64(t.allocs);
            w.bytes(&t.output);
            w.u64(t.heap.cursor);
            w.u64(t.heap.allocated_bytes);
            w.list(&t.heap.free, |w, fl| {
                w.u32(fl.class);
                w.list(&fl.addrs, |w, &a| w.u64(a));
            });
            w.list(&t.heap.live, |w, &(addr, class)| {
                w.u64(addr);
                w.u32(class);
            });
            w.list(&t.pages, |w, p| {
                w.u64(p.index);
                w.bytes(&p.data);
            });
        });
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, TraceError> {
        Ok(Checkpoint {
            epoch: r.u64()?,
            recording: read_recording(r)?,
            upper: r.list(8, Reader::u64)?,
            sync_vars: r.list(21, |r| {
                Ok(CkptSyncVar {
                    key: read_sync_key(r)?,
                    last_tid: r.u32()?,
                    last_time: r.list(8, Reader::u64)?,
                })
            })?,
            finished: r.list(4, Reader::u32)?,
            threads: r.list(8, |r| {
                Ok(CkptThread {
                    tid: r.u32()?,
                    alive: r.boolean()?,
                    clock: r.u64()?,
                    vc: r.list(8, Reader::u64)?,
                    slice_seq: r.u64()?,
                    sync_ops: r.u64()?,
                    allocs: r.u64()?,
                    output: r.bytes()?,
                    heap: CkptHeap {
                        cursor: r.u64()?,
                        allocated_bytes: r.u64()?,
                        free: r.list(12, |r| {
                            Ok(CkptFreeList {
                                class: r.u32()?,
                                addrs: r.list(8, Reader::u64)?,
                            })
                        })?,
                        live: r.list(12, |r| Ok((r.u64()?, r.u32()?)))?,
                    },
                    pages: r.list(16, |r| {
                        Ok(CkptPage {
                            index: r.u64()?,
                            data: r.bytes()?,
                        })
                    })?,
                })
            })?,
        })
    }

    /// A short human-readable summary line.
    #[must_use]
    pub fn summary(&self) -> String {
        let live = self.threads.iter().filter(|t| t.alive).count();
        let pages: usize = self.threads.iter().map(|t| t.pages.len()).sum();
        format!(
            "checkpoint: epoch={} workload={:?} threads={} ({live} live) pages={pages} faults={} \
             digest={:#018x}",
            self.epoch,
            self.recording.workload,
            self.threads.len(),
            self.recording.faults.len(),
            self.digest(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_config;
    use crate::{FaultAction, FaultSpec};

    pub(crate) fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 3,
            recording: Recording {
                backend: "RFDet-ci".into(),
                workload: "chaos.long_haul@4".into(),
                seed: Some(7),
                config: test_config(),
                faults: vec![FaultSpec {
                    tid: 1,
                    action: FaultAction::JitterTicks {
                        op: 30,
                        ticks: 1000,
                    },
                }],
            },
            upper: vec![10, 22, 0, 31],
            sync_vars: vec![
                CkptSyncVar {
                    key: SyncKey::Mutex(0),
                    last_tid: 2,
                    last_time: vec![4, 9],
                },
                CkptSyncVar {
                    key: SyncKey::Barrier(1),
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
        c.recording.seed = Some(8);
        assert_ne!(a.run_key(), c.run_key(), "different seed, different run");
        let mut d = sample();
        d.recording.faults.clear();
        assert_ne!(a.run_key(), d.run_key(), "different jitter, different run");
    }

    #[test]
    fn rejects_bad_magic_and_trace_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let bad_magic = Err(TraceError::BadMagic(CKPT_MAGIC));
        assert_eq!(Checkpoint::decode(&bytes), bad_magic);
        // A RunTrace buffer must not decode as a checkpoint.
        let mut t = bytes.clone();
        t[..4].copy_from_slice(b"RFDT");
        assert_eq!(Checkpoint::decode(&t), bad_magic);
    }

    #[test]
    fn rejects_retired_and_unknown_versions() {
        for version in [1, 2, 3, 4, 99] {
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
