//! Decode robustness sweep: a corrupted trace or checkpoint buffer must
//! always come back as a typed `TraceError`, never as a panic and
//! never as a silently-wrong value.
//!
//! Crash recovery reads these files at the worst possible moment — right
//! after a process died mid-write or mid-fsync — so the codec's failure
//! behaviour is as load-bearing as its happy path. Three corruption
//! families are swept here:
//!
//! * truncation at an arbitrary byte (torn file),
//! * a single bit flip at an arbitrary position (media corruption; the
//!   trailing FNV checksum makes any flip detectable, including flips
//!   inside the checksum itself), and
//! * wholly random buffers (wrong file fed to the loader), where the
//!   only obligation is "no panic, and anything accepted must re-encode
//!   to exactly the bytes that were decoded".

use proptest::prelude::*;
use rfdet_trace::{
    op, Checkpoint, CkptFreeList, CkptHeap, CkptPage, CkptSyncVar, CkptThread, FailureKind,
    FailureSummary, FaultAction, FaultSpec, Recording, RunTrace, SyncKey, TraceConfig, TraceEvent,
};

fn config() -> TraceConfig {
    TraceConfig {
        space_bytes: 1 << 20,
        page_size: 4096,
        meta_max_slices: 64,
        prelock: false,
        fault_cost_spins: 50,
        deadlock_after_ms: Some(2000),
    }
}

/// A trace with every field class populated (faults, events with and
/// without args, a failure summary) so corruption lands on all of them.
fn sample_trace() -> RunTrace {
    RunTrace {
        recording: Recording {
            backend: "RFDet-ci".into(),
            workload: "chaos.long_haul@3".into(),
            seed: Some(7),
            config: config(),
            faults: vec![FaultSpec {
                tid: 2,
                action: FaultAction::PanicAtSyncOp { op: 30 },
            }],
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
                op: 3,
                kind: op::LOCK,
                arg: Some(1),
                clock: 41,
            },
        ],
        failure: FailureSummary {
            kind: Some(FailureKind::Panic),
            tid: 2,
            report_digest: 0x1234_5678_9abc_def0,
        },
    }
}

/// A checkpoint with every nested structure populated — a jitter
/// entry in its recording, sync vars, live and dead threads, heap free
/// lists, pages — so truncation points and bit flips exercise every
/// reader path.
fn sample_checkpoint() -> Checkpoint {
    Checkpoint {
        epoch: 8,
        recording: Recording {
            backend: "RFDet-ci".into(),
            workload: "chaos.long_haul@3".into(),
            seed: None,
            config: config(),
            faults: vec![FaultSpec {
                tid: 1,
                action: FaultAction::JitterTicks {
                    op: 30,
                    ticks: 1000,
                },
            }],
        },
        upper: vec![12, 9, 9, 9],
        sync_vars: vec![CkptSyncVar {
            key: SyncKey::Mutex(1),
            last_tid: 2,
            last_time: vec![3, 0, 7, 0],
        }],
        finished: vec![3],
        threads: vec![
            CkptThread {
                tid: 0,
                alive: true,
                clock: 97,
                vc: vec![12, 9, 9, 9],
                slice_seq: 8,
                sync_ops: 24,
                allocs: 1,
                output: b"t0 partial".to_vec(),
                heap: CkptHeap {
                    cursor: 0x2_0000,
                    allocated_bytes: 128,
                    free: vec![CkptFreeList {
                        class: 7,
                        addrs: vec![0x2_0080, 0x2_0100],
                    }],
                    live: vec![(0x2_0000, 7)],
                },
                pages: vec![
                    CkptPage {
                        index: 1,
                        data: vec![0xAB; 64],
                    },
                    CkptPage {
                        index: 9,
                        data: vec![0x00; 64],
                    },
                ],
            },
            CkptThread {
                tid: 3,
                alive: false,
                clock: 0,
                vc: vec![],
                slice_seq: 0,
                sync_ops: 11,
                allocs: 0,
                output: b"t3 done".to_vec(),
                heap: CkptHeap::default(),
                pages: vec![],
            },
        ],
    }
}

proptest! {
    /// A torn trace file (any strict prefix) decodes to a typed error.
    #[test]
    fn truncated_trace_is_a_typed_error(raw in any::<u64>()) {
        let bytes = sample_trace().encode();
        let cut = (raw as usize) % bytes.len();
        prop_assert!(RunTrace::decode(&bytes[..cut]).is_err());
    }

    /// A torn checkpoint file (any strict prefix) decodes to a typed
    /// error.
    #[test]
    fn truncated_checkpoint_is_a_typed_error(raw in any::<u64>()) {
        let bytes = sample_checkpoint().encode();
        let cut = (raw as usize) % bytes.len();
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }

    /// Any single bit flip in a trace buffer is caught — the trailing
    /// FNV checksum covers every preceding byte, and a flip inside the
    /// checksum itself breaks the comparison from the other side.
    #[test]
    fn bitflipped_trace_is_a_typed_error(raw in any::<u64>(), bit in 0u8..8) {
        let mut bytes = sample_trace().encode();
        let pos = (raw as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(RunTrace::decode(&bytes).is_err());
    }

    /// Any single bit flip in a checkpoint buffer is caught.
    #[test]
    fn bitflipped_checkpoint_is_a_typed_error(raw in any::<u64>(), bit in 0u8..8) {
        let mut bytes = sample_checkpoint().encode();
        let pos = (raw as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(Checkpoint::decode(&bytes).is_err());
    }

    /// Feeding arbitrary bytes to either decoder never panics, and the
    /// astronomically-unlikely accept must be exact: whatever decodes
    /// must re-encode to the very bytes that were decoded.
    #[test]
    fn random_buffers_never_panic(buf in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(t) = RunTrace::decode(&buf) {
            prop_assert_eq!(t.encode(), buf.clone());
        }
        if let Ok(c) = Checkpoint::decode(&buf) {
            prop_assert_eq!(c.encode(), buf);
        }
    }

    /// Splicing a random byte run over a trace buffer either errors or
    /// (when the splice happened to be an identity write) decodes the
    /// original value back.
    #[test]
    fn spliced_trace_never_panics(
        raw in any::<u64>(),
        junk in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let clean = sample_trace();
        let mut bytes = clean.encode();
        let pos = (raw as usize) % bytes.len();
        let end = (pos + junk.len()).min(bytes.len());
        bytes[pos..end].copy_from_slice(&junk[..end - pos]);
        if let Ok(t) = RunTrace::decode(&bytes) {
            prop_assert_eq!(t, clean);
        }
    }
}

/// The fixtures above must themselves be codec-clean, or the corruption
/// sweeps would be vacuous (corrupting an already-invalid buffer).
#[test]
fn fixtures_round_trip() {
    let t = sample_trace();
    assert_eq!(RunTrace::decode(&t.encode()).unwrap(), t);
    let c = sample_checkpoint();
    assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    assert_ne!(c.digest(), 0);
}
