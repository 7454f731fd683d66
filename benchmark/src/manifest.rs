//! Reading `BENCHMARK.json`: the `--check-manifest` self-check and the
//! `--compare` agreement check behind `agree.sh`.

use crate::json::{self, Value};
use crate::run::PassResult;
use crate::stats::{median, quartiles};
use crate::workloads;
use std::collections::{BTreeMap, BTreeSet};

/// A metric as the manifest declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    bound: Option<f64>,
}

struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn load(path: &str) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: {key:?} is not a list"))
    };
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{path}: an entry has no \"name\""))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|v| {
                let name = name_of(v)?;
                let lower_is_better = match v.get("better").and_then(Value::as_str) {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err(format!("{path}: {name}: \"better\" is not lower/higher")),
                };
                let bound = v.get("bound").and_then(Value::as_f64);
                if bounded != bound.is_some() {
                    return Err(format!("{path}: {name}: wrong use of \"bound\" in {key}"));
                }
                Ok(Declared {
                    name,
                    lower_is_better,
                    bound,
                })
            })
            .collect()
    };
    Ok(Manifest {
        workloads: list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Fails unless the manifest's workload and metric names are exactly the
/// ones `passes` emitted, are well-formed, and are within the size caps.
pub fn check(path: &str, passes: &[(String, bool, PassResult)]) -> Result<(), String> {
    let m = load(path)?;
    let mut problems = Vec::new();
    let declared = |d: &[Declared]| d.iter().map(|d| d.name.clone()).collect::<BTreeSet<_>>();

    let mut sets = vec![(
        "workloads",
        m.workloads.iter().cloned().collect::<BTreeSet<_>>(),
        workloads::NAMES.iter().map(|s| (*s).to_owned()).collect(),
        2..=8,
    )];
    for (key, trace, decl, cap) in [
        ("end_to_end", false, &m.end_to_end, 1..=16),
        ("per_layer", true, &m.per_layer, 1..=128),
    ] {
        // Every workload must emit the same set; compare each with the
        // manifest rather than their union.
        for (workload, _, r) in passes.iter().filter(|(_, t, _)| *t == trace) {
            let emitted: BTreeSet<String> =
                r.metrics.iter().map(|(n, _, _)| (*n).to_owned()).collect();
            if emitted.len() != r.metrics.len() {
                problems.push(format!("{workload}: a {key} metric is emitted twice"));
            }
            sets.push((key, declared(decl), emitted, cap.clone()));
        }
    }
    for (key, declared, emitted, cap) in sets {
        for missing in emitted.difference(&declared) {
            problems.push(format!("{key}: {missing} is emitted but not in {path}"));
        }
        for extra in declared.difference(&emitted) {
            problems.push(format!("{key}: {extra} is in {path} but not emitted"));
        }
        for bad in declared.iter().filter(|n| !valid_name(n)) {
            problems.push(format!("{key}: {bad:?} is not a valid name"));
        }
        if !cap.contains(&declared.len()) {
            problems.push(format!(
                "{key}: {} entries, allowed {cap:?}",
                declared.len()
            ));
        }
    }
    if !m.end_to_end.iter().any(|d| d.name == "setup_s") {
        problems.push("end_to_end: setup_s is required".to_owned());
    }
    let failed: u64 = passes.iter().map(|(_, _, r)| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} runs failed their output check"));
    }
    problems.sort();
    problems.dedup();
    if problems.is_empty() {
        eprintln!(
            "check-manifest: ok ({} workloads, {} end-to-end, {} per-layer metrics)",
            m.workloads.len(),
            m.end_to_end.len(),
            m.per_layer.len()
        );
        Ok(())
    } else {
        Err(format!(
            "check-manifest failed:\n  {}",
            problems.join("\n  ")
        ))
    }
}

/// One set of runs: the values of each (workload, metric).
type ResultSet = BTreeMap<(String, String), Vec<f64>>;

/// Reads a file of `<workload> <seed> <result object>` lines; also
/// returns the number of failed runs.
fn read_set(path: &str) -> Result<(ResultSet, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut values = ResultSet::new();
    let mut failed = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let mut fields = line.splitn(3, ' ');
        let (Some(workload), Some(_seed), Some(obj)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(bad("expected `<workload> <seed> <result object>`"));
        };
        let doc = json::parse(obj).map_err(|e| bad(&e))?;
        failed += doc
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("no \"failed\" count"))? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no \"metrics\" object"))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("a metric has no numeric \"value\""))?;
            values
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok((values, failed))
}

/// Interquartile range as a share of the median.
fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    Some((q3 - q1) / q2)
}

/// The acceptance rule, applied to two sets of runs of the same code:
/// per workload and end-to-end metric, each set's spread must stay within
/// the metric's bound (`setup_s` excepted) and the second median may not
/// be worse than the first by more than the bound. Prints the table.
pub fn compare(manifest: &str, first: &str, second: &str) -> Result<(), String> {
    let m = load(manifest)?;
    let ((a, failed_a), (b, failed_b)) = (read_set(first)?, read_set(second)?);
    println!(
        "{:<12} {:<13} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median-1", "median-2", "worse", "spread-1", "spread-2", "bound"
    );
    let mut violations = 0;
    for w in &m.workloads {
        for d in &m.end_to_end {
            let key = (w.clone(), d.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{w} {}: missing from a result set", d.name));
            };
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (ma, mb) = (
                median(xa).expect("non-empty"),
                median(xb).expect("non-empty"),
            );
            let worse = if d.lower_is_better {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            let (sa, sb) = (spread(xa).unwrap_or(0.0), spread(xb).unwrap_or(0.0));
            let widest = if d.name == "setup_s" { 0.0 } else { sa.max(sb) };
            let verdict = if worse > bound || widest > bound {
                violations += 1;
                "FAIL"
            } else if widest > bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{w:<12} {:<13} {ma:>11.4} {mb:>11.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                d.name,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound
            );
        }
    }
    println!("failed runs: {failed_a} in the first set, {failed_b} in the second");
    if violations > 0 || failed_a + failed_b > 0 {
        return Err(format!(
            "{violations} metric(s) outside their bound, {} failed run(s)",
            failed_a + failed_b
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for good in ["run_ms", "mem.diff_ms", "page-dense", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 1.0).abs() < 1e-12);
    }
}
