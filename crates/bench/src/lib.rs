//! Experiment harness shared by the `fig7`/`fig8`/`fig9`/`table1`/
//! `racey_det`/`ablation_barriers` binaries (one per paper table/figure —
//! see DESIGN.md §5 for the experiment index) and the `replay` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rfdet_api::{DmtBackend, RunConfig, RunOutput};
use rfdet_workloads::{Params, Size, Workload};
use std::time::{Duration, Instant};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Worker thread count (paper default: 4).
    pub threads: usize,
    /// Timed repetitions per cell (mean is reported).
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
            reps: 3,
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
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
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
                    opts.reps = 1;
                    opts.runs = 5;
                    opts.size = Size::Test;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })?;
        Ok(opts)
    }

    /// Applies the workload filter.
    #[must_use]
    pub fn selected(&self, all: Vec<Workload>) -> Vec<Workload> {
        match &self.filter {
            None => all,
            Some(f) => all
                .into_iter()
                .filter(|w| w.name.contains(f.as_str()))
                .collect(),
        }
    }
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

/// The standard experiment configuration (16 MiB space, paper-like
/// 256 MiB metadata cap).
#[must_use]
pub fn bench_config() -> RunConfig {
    RunConfig::default()
}

/// Times `reps` runs of a workload on a backend; returns the mean wall
/// time and the last run's output (for stats and checksums).
pub fn time_workload(
    backend: &dyn DmtBackend,
    cfg: &RunConfig,
    w: &Workload,
    params: Params,
    reps: u32,
) -> (Duration, RunOutput) {
    assert!(reps > 0);
    let mut total = Duration::ZERO;
    let mut last = RunOutput::default();
    for _ in 0..reps {
        let start = Instant::now();
        last = backend.run_expect(cfg, (w.factory)(params));
        total += start.elapsed();
    }
    (total / reps, last)
}

/// Geometric mean of a nonempty slice of positive ratios.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Renders an aligned text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
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

/// Formats a duration as fractional milliseconds.
#[must_use]
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
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
            &["name", "x"],
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
        assert_eq!((quick.reps, quick.runs, quick.size), (1, 5, Size::Test));
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
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }
}
