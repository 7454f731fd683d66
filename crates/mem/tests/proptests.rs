//! Property tests for the memory substrate.

use proptest::prelude::*;
use rfdet_mem::{
    diff, ModRun, Page, PrivateSpace, RunBuilder, Runs, SliceSnapshots, StripAllocator,
};

const SPACE: u64 = 16 * 4096;

/// Reference model: a flat byte array.
fn model_write(model: &mut [u8], addr: u64, data: &[u8]) {
    model[addr as usize..addr as usize + data.len()].copy_from_slice(data);
}

fn arb_writes() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    prop::collection::vec(
        (0u64..SPACE - 64).prop_flat_map(|addr| {
            prop::collection::vec(any::<u8>(), 1..64).prop_map(move |d| (addr, d))
        }),
        0..40,
    )
}

/// One generated store for the dirty-line differential test, still in
/// page-size-independent form.
#[derive(Clone, Debug)]
struct RawStore {
    /// 0: anywhere; 1: ending just past a line boundary; 2: just before
    /// the end of a page (so longer stores straddle into the next).
    place: u8,
    page: usize,
    pos: usize,
    len: usize,
    /// Seeds the stored bytes; a multiple of four stores the bytes already
    /// there instead (a same-value overwrite).
    fill: u8,
}

fn arb_raw_stores() -> impl Strategy<Value = Vec<RawStore>> {
    prop::collection::vec(
        (
            0u8..3,
            0usize..DL_PAGES,
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
        )
            .prop_map(|(place, page, pos, len, fill)| RawStore {
                place,
                page,
                pos: pos as usize,
                len: len as usize,
                fill,
            }),
        0..24,
    )
}

const DL_PAGES: usize = 4;

/// Resolves a [`RawStore`] against a page size: `(addr, data)`, clipped
/// to the space. Lengths run from zero to a little over two lines.
fn resolve(raw: &RawStore, page_size: usize, line: usize, space: &PrivateSpace) -> (u64, Vec<u8>) {
    let space_bytes = DL_PAGES * page_size;
    let len = if raw.len.is_multiple_of(2) {
        (raw.len / 2) % 17
    } else {
        raw.len % (2 * line + 10)
    };
    let off = match raw.place {
        0 => raw.pos % page_size,
        1 => ((raw.pos % (page_size / line)) * line + line).saturating_sub(raw.pos % 9 + len / 2),
        _ => page_size - 1 - raw.pos % 9,
    };
    let addr = (raw.page * page_size + off).min(space_bytes);
    let len = len.min(space_bytes - addr);
    let mut data = vec![0u8; len];
    space.read(addr as u64, &mut data);
    if !raw.fill.is_multiple_of(4) {
        for (i, b) in data.iter_mut().enumerate() {
            // Every third byte keeps its value: runs split mid-store.
            if !(raw.fill as usize + i).is_multiple_of(3) {
                *b = raw.fill.wrapping_add(i as u8);
            }
        }
    }
    (addr as u64, data)
}

/// The runtime's instrumented store: per page, snapshot the missing
/// lines — or, `whole_page`, the whole page at its first touch, as `pf`
/// monitoring and the lockstep engine record — then write.
fn tracked_store(
    snaps: &mut SliceSnapshots,
    space: &mut PrivateSpace,
    whole_page: bool,
    mut addr: u64,
    mut data: &[u8],
) {
    while !data.is_empty() {
        let (page, off) = (space.page_of(addr), space.page_offset(addr));
        let n = data.len().min(space.page_size() - off);
        let need = match whole_page {
            true if snaps.is_open(page) => 0,
            true => snaps.full_mask(),
            false => snaps.missing_lines(page, off, n),
        };
        if need != 0 {
            let rec = snaps.record(page, need, space.page(page).map(Page::bytes));
            assert_eq!(
                rec.bytes_copied,
                u64::from(need.count_ones()) * snaps.line_bytes() as u64
            );
            if whole_page {
                assert_eq!(rec.bytes_copied, space.page_size() as u64);
            }
        }
        space.write_page(page, off, &data[..n]);
        data = &data[n..];
        addr += n as u64;
    }
}

/// A [`PrivateSpace`] beside its model: the bytes it must read, and per
/// page the identity of the buffer it must be holding (`None`: not
/// materialized) — two spaces share a page iff the identities are equal.
struct ModelledSpace {
    space: PrivateSpace,
    model: Vec<u8>,
    bufs: Vec<Option<u32>>,
}

impl ModelledSpace {
    fn new() -> Self {
        Self {
            space: PrivateSpace::new(SPACE, 4096),
            model: vec![0; SPACE as usize],
            bufs: vec![None; (SPACE / 4096) as usize],
        }
    }

    fn fork(&mut self) -> Self {
        Self {
            space: self.space.fork(),
            model: self.model.clone(),
            bufs: self.bufs.clone(),
        }
    }
}

#[derive(Clone, Debug)]
enum TreeOp {
    Fork(usize),
    Drop(usize),
    /// `via`: 0 `write`, 1 `write_page` (when in one page), 2 `apply_runs`.
    Store {
        sel: usize,
        via: u8,
        addr: u64,
        data: Vec<u8>,
    },
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    (
        0u8..5,
        0usize..4,
        0u8..3,
        // Few pages, so forks and stores meet; some stores straddle.
        (0u64..4, 0u64..4096),
        prop::collection::vec(any::<u8>(), 1..24),
    )
        .prop_map(|(kind, sel, via, (page, off), data)| match kind {
            3 => TreeOp::Fork(sel),
            4 => TreeOp::Drop(sel),
            _ => TreeOp::Store {
                sel,
                via,
                addr: page * 4096 + off,
                data,
            },
        })
}

proptest! {
    /// Differential pin of dirty-line tracking: whatever the store
    /// sequence — line- and page-straddling stores, zero-length stores,
    /// same-value overwrites, several slices over recycled buffers — and
    /// whatever ownership state a fork left the pages in, the sealed
    /// arena — packed by one builder reused across the slices — reads
    /// back, run for run, the scalar whole-page diff of every stored-to
    /// page against a whole-page snapshot taken at the slice start. So
    /// does whole-page recording (`whole_page`: the full mask at a page's
    /// first touch), the capture of `pf` monitoring and the lockstep
    /// engine.
    #[test]
    fn dirty_line_seal_matches_whole_page_scalar_diff(
        size_idx in 0usize..4,
        whole_page in any::<bool>(),
        prefill in prop::collection::vec((0usize..DL_PAGES, any::<u8>()), 0..4),
        slices in prop::collection::vec(arb_raw_stores(), 1..4),
        pool_cap in 0usize..3,
        // Per slice: 0 leaves the space alone; 1 forks a sibling that
        // outlives the slice (stores copy); 2 forks one and drops it
        // (stores unwrap); 3 continues in the child, the parent dropped.
        forks in prop::collection::vec(0u8..4, 3),
    ) {
        let page_size = [64usize, 256, 4096, 65536][size_idx];
        let mut space = PrivateSpace::new((DL_PAGES * page_size) as u64, page_size as u64);
        for (page, seed) in prefill {
            let bytes: Vec<u8> = (0..page_size).map(|i| seed.wrapping_mul(31).wrapping_add(i as u8)).collect();
            space.write((page * page_size) as u64, &bytes);
        }
        let mut snaps = SliceSnapshots::new(DL_PAGES, page_size, pool_cap);
        let mut builder = RunBuilder::default();
        let line = snaps.line_bytes();
        prop_assert_eq!(line, 64.max(page_size / 64));
        for (stores, fork) in slices.into_iter().zip(forks) {
            let _sibling = match fork {
                1 => Some(space.fork()),
                2 => {
                    drop(space.fork());
                    None
                }
                3 => {
                    space = space.fork();
                    None
                }
                _ => None,
            };
            let before: Vec<Box<[u8]>> = (0..DL_PAGES).map(|p| space.snapshot_page(p)).collect();
            for raw in &stores {
                let (addr, data) = resolve(raw, page_size, line, &space);
                tracked_store(&mut snaps, &mut space, whole_page, addr, &data);
            }
            let scanned = snaps.seal(&space, &mut builder);
            let sealed = builder.finish().unwrap_or_default();
            prop_assert_eq!(snaps.dirty_pages(), 0);
            let unit = if whole_page { page_size } else { line };
            prop_assert_eq!(scanned % unit as u64, 0);
            prop_assert!(scanned <= (DL_PAGES * page_size) as u64);

            // The reference diffs every page whole; pages not stored to
            // are unchanged and contribute nothing.
            let mut whole = Vec::new();
            for (p, before) in before.iter().enumerate() {
                let current = space.snapshot_page(p);
                diff::diff_page_scalar(space.page_base(p), before, &current, &mut whole);
            }
            let view: Vec<(u64, &[u8])> = sealed.iter_runs().collect();
            prop_assert_eq!(view, whole[..].iter_runs().collect::<Vec<_>>());
            prop_assert_eq!(sealed.heap_bytes(), sealed.byte_len() + 16 * whole.len());
        }
    }

    /// PrivateSpace behaves exactly like a flat byte array.
    #[test]
    fn space_matches_flat_model(writes in arb_writes()) {
        let mut space = PrivateSpace::new(SPACE, 4096);
        let mut model = vec![0u8; SPACE as usize];
        for (addr, data) in &writes {
            space.write(*addr, data);
            model_write(&mut model, *addr, data);
        }
        let mut got = vec![0u8; SPACE as usize];
        space.read(0, &mut got);
        prop_assert_eq!(got, model);
    }

    /// fork() is a point-in-time copy: later writes on either side are
    /// invisible to the other.
    #[test]
    fn fork_is_point_in_time(
        before in arb_writes(),
        parent_after in arb_writes(),
        child_after in arb_writes(),
    ) {
        let mut parent = PrivateSpace::new(SPACE, 4096);
        let mut model = vec![0u8; SPACE as usize];
        for (addr, data) in &before {
            parent.write(*addr, data);
            model_write(&mut model, *addr, data);
        }
        let mut child = parent.fork();
        let mut pmodel = model.clone();
        let mut cmodel = model;
        for (addr, data) in &parent_after {
            parent.write(*addr, data);
            model_write(&mut pmodel, *addr, data);
        }
        for (addr, data) in &child_after {
            child.write(*addr, data);
            model_write(&mut cmodel, *addr, data);
        }
        let mut got = vec![0u8; SPACE as usize];
        parent.read(0, &mut got);
        prop_assert_eq!(&got, &pmodel);
        child.read(0, &mut got);
        prop_assert_eq!(&got, &cmodel);
    }

    /// Owned/shared page states against a model: every space of a fork
    /// tree (parent, children, grandchildren, some dropped along the way)
    /// reads exactly what a plain byte array per space holds — isolation
    /// in both directions — and counts the pages its lineage materialized;
    /// and a store copies a page exactly when another live space still
    /// holds the same bytes — a survivor whose siblings are all gone
    /// takes its page back in place.
    #[test]
    fn fork_tree_matches_per_space_model(ops in prop::collection::vec(arb_tree_op(), 1..60)) {
        let mut tree = vec![ModelledSpace::new()];
        let mut next_buf = 0u32;
        for op in ops {
            let live = tree.len();
            match op {
                TreeOp::Fork(sel) if live < 4 => {
                    let child = tree[sel % live].fork();
                    tree.push(child);
                }
                TreeOp::Drop(sel) if live > 1 => {
                    tree.swap_remove(sel % live);
                }
                TreeOp::Fork(_) | TreeOp::Drop(_) => {}
                TreeOp::Store { sel, via, addr, data } => {
                    let sel = sel % live;
                    let pages = tree[sel].space.page_of(addr)
                        ..=tree[sel].space.page_of(addr + data.len() as u64 - 1);
                    // What the model says each touched page's store does.
                    let mut expect = Vec::new();
                    for p in pages.clone() {
                        let held = tree[sel].bufs[p];
                        let elsewhere = (0..live).any(|o| o != sel && held.is_some() && tree[o].bufs[p] == held);
                        let before = tree[sel].space.page(p).map(|pg| pg.bytes().as_ptr());
                        if held.is_none() || elsewhere {
                            next_buf += 1;
                            tree[sel].bufs[p] = Some(next_buf);
                        }
                        expect.push((p, before.filter(|_| !elsewhere)));
                    }
                    let s = &mut tree[sel];
                    model_write(&mut s.model, addr, &data);
                    match via {
                        0 => s.space.write(addr, &data),
                        1 if pages.clone().count() == 1 => {
                            let (p, off) = (s.space.page_of(addr), s.space.page_offset(addr));
                            s.space.write_page(p, off, &data);
                        }
                        _ => {
                            let half = data.len().div_ceil(2);
                            let runs: Vec<ModRun> = data
                                .chunks(half)
                                .enumerate()
                                .map(|(i, c)| ModRun::new(addr + (i * half) as u64, c.into()))
                                .collect();
                            let applied = s.space.apply_runs(&runs);
                            prop_assert_eq!(applied, data.len() as u64);
                        }
                    }
                    for (p, in_place) in expect {
                        let after = s.space.page(p).expect("stored to").bytes().as_ptr();
                        if let Some(before) = in_place {
                            prop_assert_eq!(after, before, "page {} copied with no other holder", p);
                        }
                    }
                }
            }
            for (i, s) in tree.iter().enumerate() {
                let mut got = vec![0u8; SPACE as usize];
                s.space.read(0, &mut got);
                prop_assert_eq!(&got, &s.model, "space {}", i);
                let held = s.bufs.iter().flatten().count();
                prop_assert_eq!(s.space.materialized_pages(), held, "space {}", i);
                prop_assert_eq!(s.space.materialized_indices().count(), held);
                // Two live spaces hold one buffer exactly when the model
                // says the page is still shared between them.
                for o in &tree[..i] {
                    for p in 0..s.bufs.len() {
                        if let (Some(a), Some(b)) = (s.space.page(p), o.space.page(p)) {
                            prop_assert_eq!(
                                a.bytes().as_ptr() == b.bytes().as_ptr(),
                                s.bufs[p] == o.bufs[p],
                                "page {}", p
                            );
                        }
                    }
                }
            }
        }
    }

    /// diff(snapshot, current) applied onto the snapshot reproduces the
    /// current page exactly — the round-trip DLRC propagation relies on.
    #[test]
    fn diff_apply_roundtrip(
        snapshot in prop::collection::vec(any::<u8>(), 256),
        current in prop::collection::vec(any::<u8>(), 256),
    ) {
        let mut runs = Vec::new();
        diff::diff_page(0, &snapshot, &current, &mut runs);
        let mut rebuilt = snapshot.clone();
        for r in &runs {
            rebuilt[r.addr as usize..r.end() as usize].copy_from_slice(&r.data);
        }
        prop_assert_eq!(rebuilt, current);
        // Runs never cover unchanged bytes (minimality → the §4.6
        // redundant-write policy).
        for r in &runs {
            for (i, &b) in r.data.iter().enumerate() {
                let idx = r.addr as usize + i;
                prop_assert_ne!(snapshot[idx], b);
            }
        }
        // Runs are sorted and non-overlapping.
        for w in runs.windows(2) {
            prop_assert!(w[0].end() <= w[1].addr);
        }
    }

    /// Differential pin: the chunked word-at-a-time kernel produces
    /// byte-for-byte the same run list as the retained scalar reference,
    /// at every buffer length (word-alignment edge cases included) and
    /// under arbitrary mutation patterns.
    #[test]
    fn chunked_diff_matches_scalar_reference(
        // 1..96 sweeps every length mod 8, covering partial-word tails.
        len in 1usize..96,
        base in prop::collection::vec(any::<u8>(), 96),
        flips in prop::collection::vec((0usize..96, any::<u8>()), 0..48),
        page_base in 0u64..1 << 40,
    ) {
        let snapshot = base[..len].to_vec();
        let mut current = snapshot.clone();
        for (pos, val) in flips {
            current[pos % len] = val;
        }
        let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
        diff::diff_page(page_base, &snapshot, &current, &mut chunked);
        diff::diff_page_scalar(page_base, &snapshot, &current, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    /// The targeted shapes the kernel's word loop can get wrong: runs
    /// touching either page edge, a fully dirty page, and identical pages
    /// — against the scalar reference on a real 4 KiB page.
    #[test]
    fn chunked_diff_edge_shapes(shape in 0u8..4, fill in any::<u8>(), seed in any::<u8>()) {
        let snapshot = vec![fill; 4096];
        let mut current = snapshot.clone();
        match shape {
            0 => { current[0] = fill.wrapping_add(1).wrapping_add(seed); }
            1 => { current[4095] = fill.wrapping_add(1).wrapping_add(seed); }
            2 => { for b in &mut current { *b = b.wrapping_add(1); } }
            _ => {} // identical pages
        }
        let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
        diff::diff_page(8192, &snapshot, &current, &mut chunked);
        diff::diff_page_scalar(8192, &snapshot, &current, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
        match shape {
            2 => prop_assert_eq!(chunked.iter().map(ModRun::len).sum::<usize>(), 4096),
            3 => prop_assert!(chunked.is_empty()),
            _ => prop_assert_eq!(chunked.iter().map(ModRun::len).sum::<usize>(), 1),
        }
    }

    /// A sparsely modified page: the runs applied onto the snapshot
    /// rebuild `current` exactly, and every run byte is a real
    /// modification — a run never carries an unchanged byte, so applying
    /// it cannot overwrite a concurrent writer of a byte this page's
    /// writer left alone (DLRC's byte granularity, DESIGN.md §4.6).
    #[test]
    fn sparse_diff_roundtrip_and_runs_carry_only_changed_bytes(
        snapshot in prop::collection::vec(any::<u8>(), 256),
        flips in prop::collection::vec((0usize..256, any::<u8>()), 0..64),
    ) {
        let mut current = snapshot.clone();
        for (pos, val) in flips {
            current[pos] = val;
        }
        let mut runs = Vec::new();
        diff::diff_page(0, &snapshot, &current, &mut runs);
        let mut rebuilt = snapshot.clone();
        for r in &runs {
            prop_assert!(!r.is_empty());
            rebuilt[r.addr as usize..r.end() as usize].copy_from_slice(&r.data);
            for (i, &b) in r.data.iter().enumerate() {
                prop_assert_ne!(b, snapshot[r.addr as usize + i]);
            }
        }
        prop_assert_eq!(&rebuilt, &current);
        // Runs are sorted and maximal: at least one unchanged byte
        // separates two of them.
        for w in runs.windows(2) {
            prop_assert!(w[0].end() < w[1].addr);
        }
    }

    /// Allocations from all strips never overlap, regardless of
    /// interleaving.
    #[test]
    fn allocations_never_overlap(
        ops in prop::collection::vec((0u32..4, 1u64..500), 1..80)
    ) {
        let sa = StripAllocator::new(0, 32 << 20);
        let mut heaps: Vec<_> = (0..4).map(|t| sa.heap_for(t)).collect();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (tid, size) in ops {
            let a = heaps[tid as usize].alloc(size, 8);
            let cls = size.max(16).next_power_of_two();
            for &(b, len) in &live {
                prop_assert!(a + cls <= b || b + len <= a,
                    "overlap: [{a:#x},{:#x}) vs [{b:#x},{:#x})", a + cls, b + len);
            }
            live.push((a, cls));
        }
    }
}
