//! Experiment harness shared by the `fig7`/`fig8`/`fig9`/`table1`/
//! `racey_det`/`ablation_barriers` binaries (one per paper table/figure —
//! see DESIGN.md §5 for the experiment index) and the `replay` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rfdet_api::{DmtBackend, RunConfig, RunOutput};
use rfdet_workloads::{Params, Size, Workload};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Worker thread count (paper default: 4).
    pub threads: usize,
    /// Timed rounds per row ([`measure`]); median and range are reported.
    pub reps: u32,
    /// Input scale.
    pub size: Size,
    /// Run only workloads whose name contains this substring.
    pub filter: Option<String>,
    /// Repetition count for determinism checks.
    pub runs: u32,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            threads: 4,
            reps: 5,
            size: Size::Bench,
            filter: None,
            runs: 30,
        }
    }
}

/// The flags [`BenchOpts::parse`] accepts, for usage errors.
const USAGE: &str =
    "options: [--threads N] [--reps N] [--runs N] [--size test|bench] [--filter S] [--quick]";

impl BenchOpts {
    /// Parses `--threads N --reps N --runs N --size test|bench
    /// --filter S --quick` from `std::env::args`. On a malformed command
    /// line, prints the error and the accepted flags to stderr and exits
    /// with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses the flags of [`Self::from_args`] from `args`.
    ///
    /// # Errors
    /// Names the offending argument: an unknown flag, a flag missing its
    /// value, a non-numeric count, or an unknown size.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        each_flag(args, |flag, value| {
            match flag {
                "--threads" => opts.threads = number(flag, value()?)?,
                "--reps" => opts.reps = number(flag, value()?)?,
                "--runs" => opts.runs = number(flag, value()?)?,
                "--size" => {
                    opts.size = match value()? {
                        "test" => Size::Test,
                        "bench" => Size::Bench,
                        other => return Err(format!("unknown size {other:?}")),
                    }
                }
                "--filter" => opts.filter = Some(value()?.to_owned()),
                "--quick" => {
                    opts.reps = 2;
                    opts.runs = 5;
                    opts.size = Size::Test;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })?;
        Ok(opts)
    }

    /// Applies the workload filter to `all`, the binary's population. A
    /// filter that matches none of them is a usage error: prints it with
    /// the names it was matched against and exits with status 2.
    #[must_use]
    pub fn selected(&self, all: Vec<Workload>) -> Vec<Workload> {
        let f = self.filter.as_deref().unwrap_or_default();
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        let picked: Vec<Workload> = all.into_iter().filter(|w| w.name.contains(f)).collect();
        if picked.is_empty() {
            usage_error(&format!(
                "--filter {f:?} matches none of: {}",
                names.join(", ")
            ));
        }
        picked
    }
}

/// Prints a usage error and the accepted flags to stderr and exits with
/// status 2.
fn usage_error(e: &str) -> ! {
    eprintln!("error: {e}\n{USAGE}");
    std::process::exit(2);
}

/// The one command-line walker of this crate's binaries: calls
/// `set(flag, value)` for each flag in turn, where `value()` consumes the
/// flag's value — so a flag that takes none simply does not ask.
///
/// # Errors
/// `set`'s error, or `"<flag> expects a value"` from a `value()` with
/// nothing left to consume.
pub fn each_flag<'a>(
    args: &'a [String],
    mut set: impl FnMut(&'a str, &mut dyn FnMut() -> Result<&'a str, String>) -> Result<(), String>,
) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            let v = args.next().ok_or(format!("{flag} expects a value"))?;
            Ok(v.as_str())
        };
        set(flag, &mut value)?;
    }
    Ok(())
}

/// Parses a numeric flag value.
///
/// # Errors
/// `"<flag> expects a number, got <v>"`.
pub fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

/// The quartiles `[q1, median, q3]` of a nonempty sample, as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the exclusive method);
/// one value is its own quartiles.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        v.push(v[0]);
    }
    let n = v.len();
    [1, 2, 3].map(|k| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The per-round ratios `num[r] / den[r]`: both sides of a round ran
/// under the same host state, which the ratio cancels.
#[must_use]
pub fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    assert_eq!(num.len(), den.len(), "a ratio pairs rounds");
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// `median [min, max]` of a nonempty sample, each formatted by `f`: a
/// table cell.
#[must_use]
pub fn show(xs: &[f64], f: impl Fn(f64) -> String) -> String {
    let (min, max) = xs
        .iter()
        .fold((xs[0], xs[0]), |(a, b), &x| (a.min(x), b.max(x)));
    format!("{} [{}, {}]", f(quartiles(xs)[1]), f(min), f(max))
}

/// What [`measure`] yields: `ns[arm][round]` is an arm's mean time per
/// iteration in a round, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Rounds {
    /// Per arm, one mean per round.
    pub ns: Vec<Vec<f64>>,
    /// Iterations each arm ran per round.
    pub iters: u64,
}

/// The one timing estimator of the experiment binaries. Runs every arm
/// once untimed, then `rounds` rounds; a round runs every arm `iters`
/// times, alternating arms per iteration (a, b, a, b, …), and every other
/// round reverses the arm order, so drift (thermal state, a background
/// compile) lands on every arm alike. A zero `target` makes a round one
/// run per arm; otherwise `iters` is calibrated so that all rounds take
/// about `target` (at least one iteration a round).
pub fn measure<F: FnMut()>(rounds: u32, target: Duration, arms: &mut [F]) -> Rounds {
    assert!(rounds > 0, "at least one round");
    arms.iter_mut().for_each(|arm| arm());
    let mut iters = 1;
    if !target.is_zero() {
        let probe = Instant::now();
        arms.iter_mut().for_each(|arm| arm());
        let per_round = probe.elapsed().as_nanos().max(1) * u128::from(rounds);
        iters = (target.as_nanos() / per_round).clamp(1, 1 << 20) as u64;
    }
    let mut ns = vec![Vec::new(); arms.len()];
    let mut order: Vec<usize> = (0..arms.len()).collect();
    for _ in 0..rounds {
        let mut total = vec![0u128; arms.len()];
        for _ in 0..iters {
            for &i in &order {
                let start = Instant::now();
                (arms[i])();
                total[i] += start.elapsed().as_nanos();
            }
        }
        for (series, t) in ns.iter_mut().zip(total) {
            series.push(t as f64 / iters as f64);
        }
        order.reverse();
    }
    Rounds { ns, iters }
}

/// One arm of a figure row: a backend running the row's workload at
/// these parameters under this config.
pub type Arm<'a> = (&'a dyn DmtBackend, &'a RunConfig, Params);

/// Times `arms` on workload `w` with [`measure`], one run per arm per
/// round; returns the rounds and each arm's last output.
pub fn time_runs(w: &Workload, arms: &[Arm<'_>], rounds: u32) -> (Rounds, Vec<RunOutput>) {
    let outs = RefCell::new(vec![RunOutput::default(); arms.len()]);
    let run = |i: usize| {
        let ((backend, cfg, params), outs) = (arms[i], &outs);
        move || outs.borrow_mut()[i] = backend.run_expect(cfg, (w.factory)(params))
    };
    let rounds = measure(
        rounds,
        Duration::ZERO,
        &mut (0..arms.len()).map(run).collect::<Vec<_>>(),
    );
    (rounds, outs.into_inner())
}

/// Geometric mean of a nonempty slice of positive ratios.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Renders an aligned text table under `headers`, the column names
/// separated by commas.
#[must_use]
pub fn render_table(headers: &str, rows: &[Vec<String>]) -> String {
    let header: Vec<String> = headers.split(',').map(str::to_owned).collect();
    let mut widths = vec![0; header.len()];
    for row in std::iter::once(&header).chain(rows) {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = cell.len().max(*width);
        }
    }
    let line = |row: &Vec<String>| {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (header.len() - 1));
    let mut out = line(&header) + &rule + "\n";
    out.extend(rows.iter().map(line));
    out
}

/// Makes a print to a closed stdout (`table1 --quick | head -3`) end the
/// process quietly with status 141, as `SIGPIPE` would: Rust ignores the
/// signal, so `println!` panics instead. Every binary calls this first.
pub fn exit_quietly_on_broken_pipe() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>();
        if message.is_some_and(|m| m.starts_with("failed printing to stdout: Broken pipe")) {
            std::process::exit(141);
        }
        prev(info);
    }));
}

/// The provenance header `scripts/bench_ab.sh` opens its records with —
/// UTC date, `nproc`, `rustc -V`, the commit (marked when the tree has
/// uncommitted changes) and the command line — for an experiment binary
/// to print before its table. Each field is what the same command prints
/// in the shell, or `unknown`.
#[must_use]
pub fn provenance() -> String {
    let run = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        let text = String::from_utf8(out.stdout).ok()?;
        out.status.success().then(|| text.trim().to_owned())
    };
    let field = |cmd: &str, args: &[&str]| run(cmd, args).unwrap_or_else(|| "unknown".into());
    let repo = env!("CARGO_MANIFEST_DIR");
    let mut commit = field("git", &["-C", repo, "rev-parse", "HEAD"]);
    if run(
        "git",
        &["-C", repo, "status", "--porcelain", "--untracked-files=no"],
    )
    .is_some_and(|changes| !changes.is_empty())
    {
        commit.push_str(" +uncommitted changes");
    }
    format!(
        "== provenance  {}  nproc {}  {}\n== commit {commit}\n== args: {}\n",
        field("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]),
        field("nproc", &[]),
        field("rustc", &["-V"]),
        std::env::args().collect::<Vec<_>>().join(" ")
    )
}

/// Formats nanoseconds as fractional milliseconds.
#[must_use]
pub fn ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "name,x",
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    fn default_opts_match_paper() {
        let o = BenchOpts::default();
        assert_eq!(o.threads, 4);
        assert_eq!(o.size, Size::Bench);
    }

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        BenchOpts::parse(&args)
    }

    #[test]
    fn parse_reads_every_flag() {
        let o = parse(&[
            "--threads",
            "8",
            "--reps",
            "2",
            "--runs",
            "7",
            "--size",
            "test",
            "--filter",
            "fft",
        ])
        .expect("well-formed");
        assert_eq!((o.threads, o.reps, o.runs), (8, 2, 7));
        assert_eq!(o.size, Size::Test);
        assert_eq!(o.filter.as_deref(), Some("fft"));
        let quick = parse(&["--quick"]).expect("well-formed");
        assert_eq!((quick.reps, quick.runs, quick.size), (2, 5, Size::Test));
        assert_eq!(parse(&[]).expect("empty is fine").threads, 4);
    }

    #[test]
    fn parse_reports_usage_errors_instead_of_panicking() {
        let err = |args: &[&str]| parse(args).expect_err("malformed");
        assert!(err(&["--threads"]).contains("--threads expects a value"));
        assert!(err(&["--reps", "many"]).contains("expects a number"));
        assert!(err(&["--frobnicate"]).contains("unknown argument"));
        assert!(err(&["--size", "huge"]).contains("unknown size"));
        assert!(err(&["--quick", "--filter"]).contains("--filter expects a value"));
    }

    #[test]
    fn provenance_opens_with_the_bench_ab_header() {
        let p = provenance();
        let lines: Vec<&str> = p.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("== provenance  ") && lines[0].contains("  nproc "));
        assert!(lines[1].starts_with("== commit "));
        assert!(lines[2].starts_with("== args: "));
    }

    #[test]
    fn arm_order_reverses_every_other_round() {
        let log = RefCell::new(Vec::new());
        let arm = |i: usize| {
            let log = &log;
            move || log.borrow_mut().push(i)
        };
        let mut arms = [arm(0), arm(1), arm(2)];
        let rounds = measure(4, Duration::ZERO, &mut arms);
        let log = log.into_inner();
        let (warm, timed) = log.split_at(3);
        assert_eq!(warm, [0, 1, 2]);
        assert_eq!(timed, [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]);
        assert_eq!(
            (rounds.ns.len(), rounds.ns[0].len(), rounds.iters),
            (3, 4, 1)
        );
    }

    #[test]
    fn a_round_alternates_arms_per_iteration() {
        let log = RefCell::new(Vec::new());
        let arm = |i: usize| {
            let log = &log;
            move || {
                log.borrow_mut().push(i);
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        let mut arms = [arm(0), arm(1)];
        let rounds = measure(2, Duration::from_millis(8), &mut arms);
        assert!(rounds.iters > 1, "the target buys several iterations");
        let log = log.into_inner();
        let timed = &log[4..]; // warm-up and calibration pass first
        let n = 2 * rounds.iters as usize;
        assert_eq!(timed.len(), 2 * n);
        let expect = |first: usize| (0..n).map(move |k| if k % 2 == 0 { first } else { 1 - first });
        assert!(timed[..n].iter().copied().eq(expect(0)));
        assert!(timed[n..].iter().copied().eq(expect(1)));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0])[1], 2.0);
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0])[1], 2.5);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn the_median_of_per_round_ratios_is_not_the_ratio_of_medians() {
        let rounds = Rounds {
            ns: vec![vec![1.0, 10.0, 100.0], vec![2.0, 5.0, 200.0]],
            iters: 1,
        };
        assert_eq!(
            quartiles(&rounds.ns[0])[1] / quartiles(&rounds.ns[1])[1],
            2.0
        );
        assert_eq!(quartiles(&ratios(&rounds.ns[0], &rounds.ns[1]))[1], 0.5);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(1.5e9), "1500.00");
    }
}
