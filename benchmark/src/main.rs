//! The repo benchmark: five workloads, end-to-end metrics from a timed
//! pass, per-layer metrics from a traced pass. See `README.md` here and
//! `BENCHMARK.json` at the repo root.

mod json;
mod manifest;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use run::PassResult;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Default seed. A second, held-out seed (77003121, see README.md) is
/// reserved for checking a later claim on inputs not seen while the
/// change was written.
const DEFAULT_SEED: u64 = 20_140_215;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark --check-manifest
       benchmark --compare FIRST.jsonl SECOND.jsonl

  --workload NAME   one of: sync-churn page-sparse page-dense ledger paper-suite.
                    Runs one pass of it and prints the result as the last line.
                    Without it, every workload runs, timed pass then traced pass.
  --seed N          generates every input (default 20140215; held-out 77003121)
  --seconds S       time the pass measures for, set-up excluded (default 10)
  --trace 0|1       0: timed pass, end-to-end metrics (default)
                    1: traced pass, per-layer metrics; spans go to benchmark/out/
  --quick           smoke test: tiny inputs, 3 rounds; numbers are not a baseline
  --check-manifest  quick run of everything; fails unless the workload and metric
                    names in BENCHMARK.json are exactly the ones emitted
  --compare A B     compares two sets of result lines (see agree.sh) against the
                    bounds in BENCHMARK.json";

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Worker threads of every program: min(nproc, 4).
    pub threads: usize,
    pub nproc: usize,
}

enum Command {
    Run(Opts),
    CheckManifest(Opts),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        threads: nproc.min(4),
        nproc,
    };
    let mut check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                opts.workload = Some(w.to_owned());
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a positive number of seconds")?;
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--quick" => opts.quick = true,
            "--check-manifest" => check = true,
            "--compare" => {
                let a = value()?.to_owned();
                let b = value()?.to_owned();
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if check {
        opts.quick = true;
        opts.workload = None;
        return Ok(Command::CheckManifest(opts));
    }
    Ok(Command::Run(opts))
}

/// The result object of one pass, in the shape the driver reads.
fn result_json(r: &PassResult) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Spans collected by traced passes, written when the benchmark ends.
type Traces = Vec<(String, spans::Spans)>;

fn one_pass(
    opts: &Opts,
    name: &str,
    trace: bool,
    traces: &mut Traces,
) -> Result<PassResult, String> {
    if trace {
        let (result, spans) = run::traced_pass(opts, name)?;
        traces.push((name.to_owned(), spans));
        Ok(result)
    } else {
        run::timed_pass(opts, name)
    }
}

fn write_traces(traces: &Traces) -> Result<(), String> {
    if traces.is_empty() {
        return Ok(());
    }
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, spans) in traces {
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, spans.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs what `opts` selects, printing one result line per pass, and
/// returns the passes for `--check-manifest`.
fn run(opts: &Opts) -> Result<Vec<(String, bool, PassResult)>, String> {
    let label = if opts.quick {
        "QUICK SMOKE RUN - not a baseline"
    } else {
        "full run"
    };
    eprintln!(
        "benchmark: {label}; seed {} threads {} nproc {} seconds {}",
        opts.seed, opts.threads, opts.nproc, opts.seconds
    );
    let mut traces = Traces::new();
    let mut passes = Vec::new();
    if let Some(name) = &opts.workload {
        let r = one_pass(opts, name, opts.trace, &mut traces)?;
        write_traces(&traces)?;
        println!("{}", result_json(&r)?);
        passes.push((name.clone(), opts.trace, r));
        return Ok(passes);
    }
    for name in workloads::NAMES {
        for trace in [false, true] {
            let r = one_pass(opts, name, trace, &mut traces)?;
            println!(
                "{{\"workload\": \"{name}\", \"trace\": {}, \"result\": {}}}",
                u8::from(trace),
                result_json(&r)?
            );
            passes.push((name.to_owned(), trace, r));
        }
    }
    write_traces(&traces)?;
    println!(
        "{{\"benchmark\": \"rfdet\", \"seed\": {}, \"threads\": {}, \"nproc\": {}, \
         \"seconds\": {}, \"quick\": {}, \"claim\": null}}",
        opts.seed, opts.threads, opts.nproc, opts.seconds, opts.quick
    );
    Ok(passes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Run(opts)) => run(&opts).map(|_| ()),
        Ok(Command::CheckManifest(opts)) => {
            run(&opts).and_then(|passes| manifest::check("BENCHMARK.json", &passes))
        }
        Ok(Command::Compare(a, b)) => manifest::compare("BENCHMARK.json", &a, &b),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let Ok(Command::Run(o)) =
            parse_args(&args("--workload ledger --seed 7 --seconds 3 --trace 1"))
        else {
            panic!("expected a run");
        };
        assert_eq!(o.workload.as_deref(), Some("ledger"));
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (7, 3.0, true, false));
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for bad in [
            "--frobnicate",
            "--workload nonesuch",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = PassResult {
            metrics: vec![("run_ms", 1.25, "ms")],
            attempted: 4,
            failed: 0,
        };
        let v = json::parse(&result_json(&r).unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("run_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }
}
