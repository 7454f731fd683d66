//! Tests for the cursor/prefix propagation machinery: absolute cursors,
//! early exit under prefix closure, and prefix-only GC pruning.

use rfdet_mem::ModRun;
use rfdet_meta::{MetaSpace, SliceRec};
use rfdet_vclock::VClock;

fn vc(parts: &[u64]) -> VClock {
    VClock::from_components(parts.to_vec())
}

fn publish(meta: &MetaSpace, tid: u32, seq: u64, time: &[u64]) {
    let rec = SliceRec::new(
        tid,
        seq,
        vc(time),
        vec![ModRun::new(seq * 8, vec![seq as u8 + 1].into())],
    );
    meta.publish_slice(rec);
}

#[test]
fn cursor_skips_consumed_prefix() {
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    for seq in 0..10 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    // First scan up to time [5]: entries with time ≤ [5] are seqs 0..=4.
    let (batch, redundant, cursor) = meta.filter_list_from(0, &vc(&[5]), &VClock::new(), 0, true);
    assert_eq!(batch.len(), 5);
    assert_eq!(redundant, 0);
    assert_eq!(cursor, 5);
    // Second scan from the cursor up to [8]: seqs 5..=7 — the early
    // entries are never revisited even with a zero lowerlimit.
    let (batch, redundant, cursor) =
        meta.filter_list_from(0, &vc(&[8]), &VClock::new(), cursor, true);
    assert_eq!(batch.len(), 3);
    assert_eq!(redundant, 0, "cursor made the lowerlimit unnecessary");
    assert_eq!(cursor, 8);
}

#[test]
fn prefix_closed_scan_stops_at_first_newer_entry() {
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    for seq in 0..100 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    // upper [3]: a prefix-closed scan must stop after 4 entries
    // (3 matches + the first non-match), not walk all 100.
    let (batch, _, cursor) = meta.filter_list_from(0, &vc(&[3]), &VClock::new(), 0, true);
    assert_eq!(batch.len(), 3);
    assert_eq!(cursor, 3, "cursor stops at the boundary");
}

#[test]
fn lowerlimit_still_filters_within_the_window() {
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    for seq in 0..6 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    let (batch, redundant, _) = meta.filter_list_from(0, &vc(&[6]), &vc(&[2]), 0, true);
    assert_eq!(redundant, 2, "seqs 0,1 (times [1],[2]) already seen");
    assert_eq!(batch.len(), 4);
}

#[test]
fn gc_prunes_prefix_only_and_cursors_survive() {
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    meta.register_thread();
    // Thread 0 publishes interleaved old/new slices: times [1],[2],[9],[3].
    publish(&meta, 0, 0, &[1]);
    publish(&meta, 0, 1, &[2]);
    publish(&meta, 0, 2, &[9]);
    publish(&meta, 0, 3, &[3]); // non-prefix old entry behind a newer one
    meta.publish_vc(0, &vc(&[20, 20]));
    meta.publish_vc(1, &vc(&[4, 4]));
    // glb = [4,4]: times [1],[2],[3] are collectible, but [3] sits after
    // [9] — prefix pruning removes only [1],[2].
    meta.run_gc();
    let list = meta.snapshot_list(0);
    assert_eq!(list.len(), 2);
    assert_eq!(list[0].time, vc(&[9]));
    assert_eq!(list[1].time, vc(&[3]));
    // A consumer whose cursor was 3 (absolute) still resolves correctly:
    // local start = 3 - pruned(2) = 1 → sees only the [3] entry.
    let (batch, _, cursor) = meta.filter_list_from(0, &vc(&[10, 10]), &VClock::new(), 3, true);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].time, vc(&[3]));
    assert_eq!(cursor, 4);
}

#[test]
fn cursor_below_pruned_count_saturates() {
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    for seq in 0..5 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    meta.publish_vc(0, &vc(&[10]));
    meta.run_gc(); // single live thread: everything ≤ its own vc → all pruned
    assert!(meta.snapshot_list(0).is_empty());
    // An old cursor of 2 is below the pruned count 5: scan starts at the
    // (empty) live region without panicking.
    let (batch, redundant, cursor) = meta.filter_list_from(0, &vc(&[10]), &VClock::new(), 2, true);
    assert!(batch.is_empty());
    assert_eq!(redundant, 0);
    assert_eq!(cursor, 5, "cursor advances to the pruned boundary");
}

#[test]
fn gc_between_filters_resumes_cleanly_when_cursor_covers_pruned() {
    // One consumer scans the same producer list twice, with a GC pass in
    // between that prunes exactly the prefix the consumer already walked
    // (cursor == pruned afterwards). The second scan must neither revisit
    // pruned entries nor skip live ones.
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread(); // producer (tid 0)
    meta.register_thread(); // consumer (tid 1)
    for seq in 0..10 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    let (batch, _, cursor) = meta.filter_list_from(0, &vc(&[4]), &VClock::new(), 0, true);
    assert_eq!(batch.len(), 4);
    assert_eq!(cursor, 4);
    // glb = [4,4]: times [1]..[4] are collectible — the consumed prefix.
    meta.publish_vc(0, &vc(&[20, 20]));
    meta.publish_vc(1, &vc(&[4, 4]));
    meta.run_gc();
    assert_eq!(meta.snapshot_list(0).len(), 6, "only the prefix is pruned");
    let (batch, redundant, cursor) =
        meta.filter_list_from(0, &vc(&[8]), &VClock::new(), cursor, true);
    assert_eq!(batch.len(), 4, "exactly seqs 4..=7 (times [5]..[8])");
    assert_eq!(batch[0].time, vc(&[5]));
    assert_eq!(redundant, 0, "nothing re-filtered after the prune");
    assert_eq!(cursor, 8);
}

#[test]
fn gc_between_filters_resumes_cleanly_when_gc_pruned_past_cursor() {
    // Here GC prunes *further* than the consumer's cursor: the pruned
    // entries were below the GLB, so the consumer had already acquired
    // their effects via its published clock — the cursor must jump to the
    // pruned boundary instead of scanning dangling indices.
    let meta = MetaSpace::new(1 << 20, 0.9);
    meta.register_thread();
    meta.register_thread();
    for seq in 0..10 {
        publish(&meta, 0, seq, &[seq + 1]);
    }
    let (batch, _, cursor) = meta.filter_list_from(0, &vc(&[2]), &VClock::new(), 0, true);
    assert_eq!(batch.len(), 2);
    assert_eq!(cursor, 2);
    // Consumer publishes [5,5]: the GLB lets GC prune times [1]..[5] —
    // three entries beyond the consumer's cursor.
    meta.publish_vc(0, &vc(&[20, 20]));
    meta.publish_vc(1, &vc(&[5, 5]));
    meta.run_gc();
    assert_eq!(meta.snapshot_list(0).len(), 5);
    let (batch, redundant, cursor) =
        meta.filter_list_from(0, &vc(&[8]), &VClock::new(), cursor, true);
    assert_eq!(batch.len(), 3, "live window is times [6]..[8]");
    assert_eq!(batch[0].time, vc(&[6]));
    assert_eq!(redundant, 0);
    assert_eq!(cursor, 8, "cursor lands past the pruned region");
}

#[test]
fn slice_count_trigger_requests_gc() {
    let meta = MetaSpace::with_max_slices(1 << 30, 0.99, 3);
    meta.register_thread();
    let mut triggered = false;
    for seq in 0..5 {
        let rec = SliceRec::new(0, seq, vc(&[seq + 1]), vec![ModRun::new(0, vec![1].into())]);
        let gc = meta.publish_slice(rec);
        triggered |= gc;
    }
    assert!(triggered, "live-slice cap must request GC");
}

#[test]
fn gc_floor_backs_off_when_nothing_collectible() {
    let meta = MetaSpace::with_max_slices(1 << 30, 0.99, 2);
    meta.register_thread();
    meta.register_thread();
    // Thread 1 never sees anything → glb = 0 → nothing collectible.
    meta.publish_vc(0, &vc(&[50, 0]));
    meta.publish_vc(1, &VClock::new());
    let mut requests = 0;
    for seq in 0..10 {
        let rec = SliceRec::new(0, seq, vc(&[seq + 1]), vec![ModRun::new(0, vec![1].into())]);
        let gc = meta.publish_slice(rec);
        if gc {
            requests += 1;
            meta.run_gc(); // reclaims nothing; floor must rise
        }
    }
    assert!(
        requests < 8,
        "floor must back off instead of requesting GC per publish ({requests} requests)"
    );
}
