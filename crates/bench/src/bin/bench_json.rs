//! Emits the in-repo perf record (`BENCH_<N>.json`, schema
//! `rfdet-bench-json/3`). Every timing cell and every wall-time budget
//! is one row of [`table`], timed by `rfdet_bench::measure`; the JSON,
//! the `--enforce` gate and the `results/*_scaling.txt` curves are
//! rendered from what those rows yield. A cell's `ns_per_iter` is its
//! median over rounds (the minimum of 12 under `/2`: the two do not
//! compare by value); a budget reads its pair's median per-round ratio.
//! Per-layer costs (vclock, kendo, meta, mem, one sync op) are timed by
//! the `benchmark/` probes and not repeated here.
//!
//! Usage: `bench_json [--out PATH] [--quick] [--enforce]`. `--quick`
//! shrinks the target and the rounds so CI can smoke-test the emission
//! path in seconds: plumbing numbers, not comparisons. `--enforce` exits
//! 1 when a budget reads `FAIL`.

use rfdet_api::{AtomicOp, DmtBackend, DmtCtx, FaultPlan, MutexId, RunConfig, ThreadFn};
use rfdet_bench::{measure, quartiles, ratios, render_table, Rounds};
use rfdet_core::RfdetBackend;
use rfdet_mem::{diff, Page, PrivateSpace, RunBuilder, SliceSnapshots};
use rfdet_meta::{MetaSpace, SliceRec, SliceRef};
use rfdet_vclock::VClock;
use rfdet_workloads::{by_name, service, Params, Size};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

/// Thread counts of the scaling curves (the paper's Figure-6 axis).
const THREADS: [usize; 4] = [2, 4, 8, 16];

/// Rounds of a cell or a curve. A row whose one pass outlasts its share
/// of the target runs one iteration per round, so this is its cost.
const ROUNDS: u32 = 12;

struct Cell {
    id: String,
    /// Mean ns per iteration, one per round, over `iters` iterations.
    ns: Vec<f64>,
    iters: u64,
}

enum Limit {
    /// `FAIL` when the value exceeds the ceiling or is NaN.
    Max(f64),
    /// A ceiling calibrated on a host with this many CPUs: judged there,
    /// `skipped` on any other host.
    MaxOnCpus(f64, usize),
}

struct Budget {
    id: String,
    value: f64,
    limit: f64,
    status: String,
}

/// Runs the rows [`table`] states and keeps what they yield.
struct Bench {
    target: Duration,
    quick: bool,
    host_cpus: usize,
    /// Walk the table without timing anything: every cell reads 1000 ns.
    dry: bool,
    cells: Vec<Cell>,
    budgets: Vec<Budget>,
    /// The ungated A/A pair's ratio: the estimator's own resolution.
    null: Option<(String, [f64; 3])>,
}

impl Bench {
    fn new(quick: bool, host_cpus: usize, dry: bool) -> Self {
        Self {
            target: Duration::from_millis(if quick { 20 } else { 300 }),
            quick,
            host_cpus,
            dry,
            cells: Vec::new(),
            budgets: Vec::new(),
            null: None,
        }
    }

    /// Keeps each arm of `rounds` as a cell, id for id; returns the ids.
    fn keep<const N: usize>(&mut self, ids: [String; N], rounds: Rounds) -> [String; N] {
        for (id, ns) in ids.iter().cloned().zip(rounds.ns) {
            let iters = rounds.iters * ns.len() as u64;
            self.cells.push(Cell { id, ns, iters });
        }
        ids
    }

    /// [`measure`] at `target_x` times the target (0: one iteration a
    /// round), two rounds in quick mode, or one round of 1000 ns an arm
    /// when walking the table dry.
    fn time<F: FnMut()>(&self, rounds: u32, target_x: u32, arms: &mut [F]) -> Rounds {
        if self.dry {
            let (ns, iters) = (vec![vec![1000.0]; arms.len()], 1);
            return Rounds { ns, iters };
        }
        let rounds = if self.quick { 2 } else { rounds };
        measure(rounds, self.target * target_x, arms)
    }

    /// Cells timed together, one per arm in `ids` order, at the target
    /// times the arm count: each arm gets what it would alone.
    fn cells<const N: usize, F: FnMut()>(&mut self, ids: [String; N], mut arms: [F; N]) {
        let rounds = self.time(ROUNDS, N as u32, &mut arms);
        self.keep(ids, rounds);
    }

    /// Paired A/B row: `workload` at `threads` on RFDet-ci under two
    /// configs, each named by the suffix of the cell it yields, one run a
    /// side in each of `rounds` rounds, so a gate reads the median of
    /// per-pass ratios. Returns the two cell ids, for [`Self::gate`].
    fn ab(
        &mut self,
        workload: &str,
        threads: usize,
        [a, b]: [(&str, RunConfig); 2],
        rounds: u32,
    ) -> [String; 2] {
        let mut sides =
            [&a.1, &b.1].map(|cfg| move || run_ci(cfg, root(workload, threads, Size::Bench)));
        let rounds = self.time(rounds, 0, &mut sides);
        let ids = [a.0, b.0].map(|side| format!("rfdet/{threads}t_{workload}_{side}"));
        self.keep(ids, rounds)
    }

    /// A cell pair that needs its own code: `run(quick)` returns the two
    /// arms' rounds, id for id.
    fn bespoke(&mut self, ids: [&str; 2], run: fn(bool) -> Rounds) -> [String; 2] {
        let rounds = match self.dry {
            true => self.time(1, 1, &mut [|| {}, || {}]),
            false => run(self.quick),
        };
        self.keep(ids.map(String::from), rounds)
    }

    /// A cell's round means; one NaN when no row yields the cell.
    fn series(&self, id: &str) -> &[f64] {
        let cell = self.cells.iter().find(|c| c.id == id);
        cell.map_or(&[f64::NAN], |c| &c.ns)
    }

    /// Budget row: the median of `num / den` over the pair's rounds,
    /// minus one when `overhead`, against `limit`. This is the only place
    /// a limit is stated, and `--enforce` reads every row it leaves.
    fn gate(&mut self, id: &str, [num, den]: &[String; 2], overhead: bool, limit: Limit) {
        let ratio = quartiles(&ratios(self.series(num), self.series(den)))[1];
        let value = ratio - if overhead { 1.0 } else { 0.0 };
        // A NaN — a cell that never got measured — fails `<=`, as it should.
        let verdict = |max: f64| if value <= max { "ok" } else { "FAIL" }.to_owned();
        let (limit, status) = match limit {
            Limit::Max(max) => (max, verdict(max)),
            Limit::MaxOnCpus(max, cpus) if cpus == self.host_cpus => (max, verdict(max)),
            Limit::MaxOnCpus(max, _) => (max, format!("skipped (host_cpus = {})", self.host_cpus)),
        };
        self.budgets.push(Budget {
            id: id.to_owned(),
            value,
            limit,
            status,
        });
    }
}

/// The `--enforce` predicate; a `skipped` row does not breach.
fn breached(budget: &Budget) -> bool {
    budget.status == "FAIL"
}

/// `RunConfig::small()` without the modelled page-fault cost, then `tweak`.
fn cfg(tweak: impl FnOnce(&mut RunConfig)) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    tweak(&mut cfg);
    cfg
}

fn root(workload: &str, threads: usize, size: Size) -> ThreadFn {
    (by_name(workload).expect("registered").factory)(Params::new(threads, size))
}

fn run_ci(cfg: &RunConfig, root: ThreadFn) {
    black_box(RfdetBackend::ci().run_expect(cfg, root));
}

/// The list of cells and budgets. A cell keeps its id from run to run,
/// so the `BENCH_*.json` files join by id.
fn table(b: &mut Bench) {
    let plain = cfg(|_| {});

    // Diff kernel vs the scalar oracle on a fragmented page (an 8-byte
    // run every 24 bytes): per-run cost dominates the scan, a shape no
    // `benchmark/` probe times.
    let snapshot = vec![0u8; 4096];
    let mut frag = snapshot.clone();
    for i in (0..4096).step_by(24) {
        frag[i..i + 8].copy_from_slice(&[7u8; 8]);
    }
    type Kernel = fn(u64, &[u8], &[u8], &mut Vec<rfdet_mem::ModRun>);
    let kernel = |kernel: Kernel| {
        let (snapshot, frag) = (&snapshot, &frag);
        move || {
            let mut out = Vec::new();
            kernel(0, black_box(snapshot), black_box(frag), &mut out);
            black_box(out);
        }
    };
    let ids = ["diff/page_fragmented", "diff/page_fragmented_scalar"].map(String::from);
    let arms = [kernel(diff::diff_page), kernel(diff::diff_page_scalar)];
    b.cells(ids, arms);

    // The dirty-line path in `page-sparse`'s slice shape: one 8-byte
    // store into each of 128 pages, then the seal. The two arms alternate,
    // each the other's set-up.
    let slice = RefCell::new((
        PrivateSpace::new(1 << 20, 4096),
        SliceSnapshots::new(256, 4096, 256),
        RunBuilder::default(),
        0u64,
    ));
    for p in 0..SLICE_PAGES {
        slice.borrow_mut().0.write(p * 4096, &[1u8; 4096]);
    }
    let ids = ["snap/first_store_line", "slice/seal_128_sparse_pages"].map(String::from);
    let (mut store, mut seal) = (|| store_slice(&slice), || seal_slice(&slice));
    b.cells(ids, [&mut store as &mut dyn FnMut(), &mut seal]);

    // Filtering a 1000-slice list by two-component clocks (the Figure-5
    // loop body); the `benchmark/` probe times only the cursor scan.
    let meta = MetaSpace::new(1 << 30, 0.9);
    meta.register_thread();
    for seq in 0..1000u64 {
        let time = VClock::from_components(vec![seq + 1, seq / 2]);
        meta.publish_slice(SliceRec::new(0, seq, time, vec![]));
    }
    let upper = VClock::from_components(vec![800, 400]);
    let lower = VClock::from_components(vec![300, 150]);
    let in_window = |s: &&SliceRef| s.time.leq(&upper) && !s.time.leq(&lower);
    let filter = || {
        black_box(meta.snapshot_list(0).iter().filter(in_window).count());
    };
    b.cells(["meta/propagation_filter_1000".into()], [filter]);

    // De-contention: 4 threads × 250 ops on the sync hot path. Distinct
    // objects isolate the runtime's own shared structures (sync-var
    // table, queue locks, registries); shared ones add propagation.
    type Hammer = fn(&mut dyn DmtCtx, u64);
    let contended: [(&str, Hammer, bool); 4] = [
        ("rfdet/4t_atomics_distinct_cells", hammer_atomic, false),
        ("rfdet/4t_atomics_shared_cell", hammer_atomic, true),
        ("rfdet/4t_locks_distinct_mutexes", hammer_mutex, false),
        ("rfdet/4t_locks_shared_mutex", hammer_mutex, true),
    ];
    let arms = contended.map(|(_, body, shared)| {
        let root = move |ctx: &mut dyn DmtCtx| {
            let hs: Vec<_> = (0..4)
                .map(|i| if shared { 0 } else { i })
                .map(|object| ctx.spawn(Box::new(move |ctx| body(ctx, object))))
                .collect();
            for h in hs {
                ctx.join(h);
            }
        };
        let plain = &plain;
        move || run_ci(plain, Box::new(root))
    });
    b.cells(contended.map(|(id, ..)| id.to_owned()), arms);

    // Thread-scaling curves, each one row: the threads interleave. Quick
    // mode runs test scale.
    let size = if b.quick { Size::Test } else { Size::Bench };
    let curve = |b: &mut Bench, cell: &str, cfg: &RunConfig, workload: &str| {
        let ids = THREADS.map(|t| format!("rfdet/{t}t_{cell}"));
        let arms = THREADS.map(|t| move || run_ci(cfg, root(workload, t, size)));
        b.cells(ids.clone(), arms);
        ids
    };
    // The propagate-heavy curve. The ids keep their `_eager` suffix so
    // the cells join the earlier records by id.
    curve(b, "propagate_heavy_eager", &plain, "propagate_heavy");

    // Turn-arbitration scaling on the sync-heavy adversary. Doubling the
    // threads doubles the turn count, so the ideal 16t/8t ratio is 2.0;
    // the 1-CPU reference host reads 2.0-2.4, the broadcast spin-scan
    // that handoff replaced read above 4. On 2 CPUs the 16-thread run is
    // 8x oversubscribed and reads 3.3-4.2 (EXPERIMENTS.md "Host caveats"
    // item 1), so the ceiling is judged only where it was calibrated.
    let [_, _, t8, t16] = curve(b, "sync_heavy_handoff", &plain, "sync_heavy");
    b.gate("scaling_guard", &[t16, t8], false, Limit::MaxOnCpus(3.5, 1));

    // Observer A/Bs on 4-thread propagate-heavy, the worst case for each
    // (its whole runtime is the machinery they instrument). 720 rounds:
    // on 2 CPUs a per-pass ratio swings ±15 %, and at 360 the median of
    // `trace_overhead` (≈ 0.034) read 0.024–0.076 over ten runs.
    let traced = cfg(|c| c.trace = Some("bench.propagate_heavy".to_owned()));
    let sides = [("traced", traced), ("untraced", plain.clone())];
    let pair = b.ab("propagate_heavy", 4, sides, 720);
    b.gate("trace_overhead", &pair, true, Limit::Max(0.05));
    let detect = cfg(|c| c.detect_races = true);
    let sides = [("detect", detect), ("nodetect", plain.clone())];
    let pair = b.ab("propagate_heavy", 4, sides, 720);
    b.gate("race_detector_overhead", &pair, true, Limit::Max(0.10));
    // Metrics cost is ~2 clock reads per sample, so it scales with the
    // sample count, not the work: the gated pair is a real application
    // (at 360 rounds it read 0.041–0.075 over ten runs); the microbench
    // is the ungated worst case.
    // The limit is what this estimator can resolve, re-based from 20
    // null A/Bs of this very pair (metrics off on both sides: −3.7 …
    // +4.5 %) around the ≈ 3 % the layer reads here in the median; the
    // 2 % design budget stands in DESIGN.md §4.9, and EXPERIMENTS.md
    // "Change ledger" (the access-fast-path row) has the readings.
    let big = |metrics| cfg(|c| (c.space_bytes, c.metrics) = (64 << 20, metrics));
    let sides = [("metered", big(true)), ("unmetered", big(false))];
    let pair = b.ab("wordcount", 4, sides, 720);
    b.gate("metrics_overhead", &pair, true, Limit::Max(0.075));
    let metered = cfg(|c| c.metrics = true);
    let sides = [("metered", metered), ("unmetered", plain.clone())];
    b.ab("propagate_heavy", 4, sides, 120);
    // The null pair: the same config on both sides, timed like the gated
    // pairs, so the estimator's own resolution sits beside their limits.
    let sides = [("plain_a", plain.clone()), ("plain_b", plain.clone())];
    let pair = b.ab("propagate_heavy", 4, sides, 720);
    let null = quartiles(&ratios(b.series(&pair[0]), b.series(&pair[1])));
    b.null = Some(("rfdet/4t_propagate_heavy_null".into(), null));

    // Checkpoint recovery (§4.12) must beat the full re-run it replaces
    // by a wide margin.
    let ids = ["failover/ledger_recovery", "failover/ledger_full_run"];
    let pair = b.bespoke(ids, failover_ab);
    b.gate("failover_recovery", &pair, false, Limit::Max(0.6));

    // Service throughput (§4.12): the replicated ledger; bench scale is
    // ≥ 1M requests per run (`service::requests_per_run`, pinned by a
    // unit test there).
    curve(b, "service_ledger", &service_cfg(), "service.ledger");
}

const SLICE_PAGES: u64 = 128;
type SliceState = RefCell<(PrivateSpace, SliceSnapshots, RunBuilder, u64)>;

fn store_slice(state: &SliceState) {
    let (space, snaps, _, round) = &mut *state.borrow_mut();
    *round += 1;
    for p in 0..SLICE_PAGES {
        let (page, off) = (p as usize, 8 * p as usize);
        let need = snaps.missing_lines(page, off, 8);
        if need != 0 {
            let current = space.page(page).map(Page::bytes);
            black_box(snaps.record(page, need, current));
        }
        space.write_page(page, off, &round.to_le_bytes());
    }
}

fn seal_slice(state: &SliceState) {
    let (space, snaps, runs, _) = &mut *state.borrow_mut();
    black_box(snaps.seal(space, runs));
    black_box(runs.finish());
}

const CONTENDED_OPS: u64 = 250;

fn hammer_atomic(ctx: &mut dyn DmtCtx, cell: u64) {
    for _ in 0..CONTENDED_OPS {
        ctx.atomic_rmw(4096 + cell * 64, AtomicOp::Add(1));
    }
}

fn hammer_mutex(ctx: &mut dyn DmtCtx, mutex: u64) {
    let m = MutexId(u32::try_from(mutex).expect("thread index"));
    for _ in 0..CONTENDED_OPS {
        ctx.lock(m);
        ctx.unlock(m);
    }
}

fn service_cfg() -> RunConfig {
    cfg(|c| c.space_bytes = 4 << 20)
}

/// Kills worker 2 of the 4-worker ledger in the last request round and
/// checks that `rfdet_core::run_failover` converges; then times the
/// recovery step from that crash (`rfdet_core::recover`: restore the
/// newest checkpoint, replay the tail) against the full unfaulted run.
/// Cadence scales with the round count so the chain stays ~8
/// checkpoints deep at any scale.
fn failover_ab(quick: bool) -> Rounds {
    let workers = 4;
    let params = Params::new(workers, if quick { Size::Test } else { Size::Bench });
    let rounds = service::request_rounds_per_run(workers, params.size);
    let crash_op =
        service::OPS_INIT_ROUND + (rounds - 1) * service::ops_per_request_round(workers) + 2;
    let mut cfg = service_cfg();
    cfg.checkpoint_every = (rounds / 8).max(2);
    cfg.trace = Some(format!("service.ledger@{workers}"));
    let unfaulted = cfg.clone();
    cfg.fault_plan = FaultPlan::new().panic_at(2, crash_op);
    let root = move || service::ledger(params);
    let backend = RfdetBackend::ci();
    let report = rfdet_core::run_failover(&backend, &cfg, &root);
    assert!(report.crash.is_some(), "the injected fault must fire");
    assert!(
        report.verdict.converged(),
        "recovery must match the reference"
    );
    let crashed = backend.run_traced(&cfg, root());
    let mut recovery = || drop(rfdet_core::recover(&backend, &cfg, &crashed, &root));
    let mut full_run = || drop(backend.run_traced(&unfaulted, root()));
    let mut arms: [&mut dyn FnMut(); 2] = [&mut recovery, &mut full_run];
    measure(ROUNDS, Duration::ZERO, &mut arms)
}

/// JSON has no NaN or infinity.
fn json_num(x: f64, decimals: usize) -> String {
    if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "null".to_owned()
    }
}

fn json_block(name: &str, [open, close]: [char; 2], lines: &[String]) -> String {
    let body = lines.join(",\n    ");
    format!("  \"{name}\": {open}\n    {body}\n  {close}")
}

fn render_json(b: &Bench, counters: &str) -> String {
    let json3 = |q: [f64; 3], decimals| q.map(|x| json_num(x, decimals));
    let cell = |c: &Cell| {
        let [q1, ns, q3] = json3(quartiles(&c.ns), 1);
        let (id, rounds, iters) = (&c.id, c.ns.len(), c.iters);
        format!(
            r#"{{"id": "{id}", "ns_per_iter": {ns}, "q1": {q1}, "q3": {q3}, "rounds": {rounds}, "iters": {iters}}}"#
        )
    };
    let budget = |g: &Budget| {
        let value = json_num(g.value, 4);
        let (id, limit, status) = (&g.id, g.limit, &g.status);
        format!(r#"{{"id": "{id}", "value": {value}, "limit": {limit}, "status": "{status}"}}"#)
    };
    let cells: Vec<String> = b.cells.iter().map(cell).collect();
    let budgets: Vec<String> = b.budgets.iter().map(budget).collect();
    let null = b.null.as_ref().map_or(String::new(), |(id, s)| {
        let [q1, median, q3] = json3(*s, 4);
        format!("  \"null_pair\": {{\"id\": \"{id}\", \"median\": {median}, \"q1\": {q1}, \"q3\": {q3}}},\n")
    });
    format!(
        "{{\n  \"schema\": \"rfdet-bench-json/3\",\n  \"quick\": {},\n  \"host_cpus\": {},\n{},\n{},\n{null}{counters}\n}}\n",
        b.quick,
        b.host_cpus,
        json_block("cells", ['[', ']'], &cells),
        json_block("budgets", ['[', ']'], &budgets),
    )
}

/// The `counters` block: one instrumented run of 4-thread
/// propagate-heavy for the memory-pipeline counters.
fn counters() -> String {
    let root = root("propagate_heavy", 4, Size::Bench);
    let s = RfdetBackend::ci().run_expect(&cfg(|_| {}), root).stats;
    assert!(s.snapshot_pool_hits > 0, "steady state recycles snapshots");
    let fields = [
        ("diff_bytes_scanned", s.diff_bytes_scanned),
        ("snapshot_bytes_copied", s.snapshot_bytes_copied),
        ("snapshot_pool_hits", s.snapshot_pool_hits),
        ("snapshot_pool_misses", s.snapshot_pool_misses),
    ];
    json_block(
        "counters",
        ['{', '}'],
        &fields.map(|(k, v)| format!("\"{k}\": {v}")),
    )
}

/// The two human-readable scaling curves for `results/`.
fn write_curves(b: &Bench) {
    let quick = ["", " [QUICK MODE: plumbing numbers, not comparisons]"][usize::from(b.quick)];
    let note = format!(
        "median-over-rounds ns per run, host_cpus = {}{quick}",
        b.host_cpus
    );
    let curves = [
        (
            "thread",
            "propagate-heavy thread scaling",
            "propagate_heavy_eager",
        ),
        (
            "sync_heavy",
            "sync-heavy thread scaling: successor handoff",
            "sync_heavy_handoff",
        ),
    ];
    for (file, title, cell) in curves {
        let row = |t: usize| {
            vec![
                t.to_string(),
                format!(
                    "{:.0}",
                    quartiles(b.series(&format!("rfdet/{t}t_{cell}")))[1]
                ),
            ]
        };
        let column = cell.rsplit('_').next().expect("a suffix").to_owned() + "_ns";
        let table = render_table(&format!("threads,{column}"), &THREADS.map(row));
        let path = format!("results/{file}_scaling.txt");
        let text = format!("{title} (RFDet-ci)\n{note}\n{table}");
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("skipping {path}: {e}"),
        }
    }
}

/// `(out, quick, enforce)` from the command line.
fn parse(args: &[String]) -> Result<(String, bool, bool), String> {
    let (mut out, mut quick, mut enforce) = ("bench.json".to_owned(), false, false);
    rfdet_bench::each_flag(args, |flag, value| {
        match flag {
            "--out" => out = value()?.to_owned(),
            "--quick" => quick = true,
            "--enforce" => enforce = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        Ok(())
    })?;
    Ok((out, quick, enforce))
}

fn main() {
    rfdet_bench::exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, quick, enforce) = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: bench_json [--out PATH] [--quick] [--enforce]");
        std::process::exit(2);
    });
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut bench = Bench::new(quick, host_cpus, false);
    table(&mut bench);
    let json = render_json(&bench, &counters());
    std::fs::write(&out, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out}");
    write_curves(&bench);
    for g in &bench.budgets {
        let (status, id, value, limit) = (&g.status, &g.id, g.value, g.limit);
        eprintln!("budget {status}: {id} = {value:.4} (limit {limit})");
    }
    if let Some((id, [q1, median, q3])) = &bench.null {
        eprintln!("null pair (ungated): {id} = {median:.4} (quartiles {q1:.4} … {q3:.4})");
    }
    if enforce && bench.budgets.iter().any(breached) {
        eprintln!("--enforce: budget breach, failing");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_budget_reads_cells_the_table_yields() {
        let mut b = Bench::new(true, 1, true);
        table(&mut b);
        let mut ids: Vec<&str> = b.cells.iter().map(|c| c.id.as_str()).collect();
        ids.extend(b.budgets.iter().map(|g| g.id.as_str()));
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
        // At 1000 ns per cell a ratio is 1 and an overhead 0; a budget
        // over a cell no row yields would read NaN.
        for g in &b.budgets {
            assert!(g.value == 1.0 || g.value == 0.0, "{}: {}", g.id, g.value);
            assert!(g.limit > 0.0 && (g.status == "ok" || g.status == "FAIL"));
        }
        // `--enforce` reads `budgets` itself, so a stated limit cannot be
        // missing from it; the JSON carries each cell and budget once.
        assert_eq!(b.budgets.len(), 5);
        let json = render_json(&b, "");
        for id in ids {
            assert_eq!(json.matches(&format!("\"{id}\"")).count(), 1, "{id}");
        }
    }

    #[test]
    fn a_breach_and_a_nan_fail_the_gate_and_a_skipped_row_does_not() {
        let judge = |host_cpus: usize, num: Option<f64>| {
            let mut b = Bench::new(true, host_cpus, true);
            let dry = b.time(1, 1, &mut [|| {}]);
            b.keep(["d".into()], dry.clone());
            if let Some(ns) = num {
                let mut n = dry;
                n.ns[0][0] = ns;
                b.keep(["n".into()], n);
            }
            let pair = ["n", "d"].map(str::to_owned);
            b.gate("guard", &pair, false, Limit::MaxOnCpus(3.5, 1));
            b.budgets.remove(0)
        };
        assert!(!breached(&judge(1, Some(3000.0))));
        assert!(breached(&judge(1, Some(4000.0))));
        let unmeasured = judge(1, None);
        assert!(unmeasured.value.is_nan() && breached(&unmeasured));
        let skipped = judge(2, Some(4000.0));
        assert_eq!(skipped.status, "skipped (host_cpus = 2)");
        assert!(!breached(&skipped) && skipped.limit == 3.5);
    }
}
