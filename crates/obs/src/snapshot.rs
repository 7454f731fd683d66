//! The per-run metrics rollup and its export formats.

use crate::{Histogram, Phase};

/// One phase's rolled-up statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSnapshot {
    /// Stable metric name (`Phase::metric_name`).
    pub name: String,
    /// Sample unit ("ns" or "count").
    pub unit: String,
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// A run's complete metrics rollup: every phase's histogram summary,
/// labelled with the backend that produced it. Attached to `RunOutput`
/// when `RunConfig::metrics` is on; exports as JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Name of the backend that ran the workload.
    pub backend: String,
    /// Number of thread recorders merged into the rollup.
    pub threads: u64,
    /// Per-phase summaries, in `Phase::ALL` order.
    pub phases: Vec<PhaseSnapshot>,
}

impl MetricsSnapshot {
    /// Rolls per-phase histograms (in `Phase::ALL` order) up into a
    /// snapshot. Missing trailing entries read as empty, so a shorter
    /// slice (or `&[]`) is an all-zero snapshot, not a panic.
    #[must_use]
    pub fn from_histograms(backend: &str, threads: u64, hists: &[Histogram]) -> Self {
        let empty = Histogram::new();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let h = hists.get(p.idx()).unwrap_or(&empty);
                PhaseSnapshot {
                    name: p.metric_name().to_owned(),
                    unit: p.unit().suffix().to_owned(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                    buckets: h.nonzero_buckets(),
                }
            })
            .collect();
        Self {
            backend: backend.to_owned(),
            threads,
            phases,
        }
    }

    /// The summary for one phase.
    #[must_use]
    pub fn phase(&self, p: Phase) -> Option<&PhaseSnapshot> {
        self.phases.get(p.idx())
    }

    /// Phase attribution: each *attributable* phase's share of the total
    /// attributable runtime-overhead nanoseconds, as
    /// `(metric_name, total_ns, fraction)`. Envelope phases (sync-op
    /// end-to-end, slice wall time) are excluded — they contain the
    /// attributed parts and user code. Empty when nothing was recorded.
    #[must_use]
    pub fn attribution(&self) -> Vec<(String, u64, f64)> {
        let parts: Vec<(&PhaseSnapshot, Phase)> = Phase::ALL
            .iter()
            .filter(|p| p.attributable())
            .filter_map(|&p| self.phase(p).map(|s| (s, p)))
            .filter(|(s, _)| s.count > 0)
            .collect();
        let total: u64 = parts.iter().map(|(s, _)| s.sum).sum();
        if total == 0 {
            return Vec::new();
        }
        #[allow(clippy::cast_precision_loss)]
        parts
            .into_iter()
            .map(|(s, _)| (s.name.clone(), s.sum, s.sum as f64 / total as f64))
            .collect()
    }

    /// JSON export (schema `rfdet-metrics/1`; hand-rolled — the
    /// workspace builds offline, without serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rfdet-metrics/1\",\n");
        out.push_str(&format!("  \"backend\": \"{}\",\n", escape(&self.backend)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let buckets = p
                .buckets
                .iter()
                .map(|(le, c)| format!("[{le},{c}]"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"buckets\": [{}]}}{}\n",
                escape(&p.name),
                escape(&p.unit),
                p.count,
                p.sum,
                p.min,
                p.max,
                p.p50,
                p.p90,
                p.p99,
                buckets,
                if i + 1 < self.phases.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsSink, NUM_PHASES};

    fn sample_snapshot() -> MetricsSnapshot {
        let sink = ObsSink::default();
        sink.record(Phase::WaitTurn, 150);
        sink.record(Phase::WaitTurn, 3_000);
        sink.record(Phase::Diff, 900);
        sink.record(Phase::SliceOps, 12);
        sink.snapshot("RFDet-ci")
    }

    #[test]
    fn snapshot_has_every_phase_in_order() {
        let snap = sample_snapshot();
        assert_eq!(snap.phases.len(), NUM_PHASES);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(snap.phases[i].name, p.metric_name());
        }
        assert_eq!(snap.phase(Phase::WaitTurn).unwrap().count, 2);
        assert_eq!(snap.phase(Phase::SyncOp).unwrap().count, 0);
    }

    #[test]
    fn attribution_fractions_sum_to_one_over_attributable_phases() {
        let snap = sample_snapshot();
        let attr = snap.attribution();
        // WaitTurn and Diff recorded; SliceOps is a count, not attributable.
        assert_eq!(attr.len(), 2);
        let total: f64 = attr.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions must sum to 1");
        assert!(attr.iter().all(|(n, _, _)| n != "slice_ops_count"));
    }

    #[test]
    fn json_is_well_formed_enough_to_spot_check() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"schema\": \"rfdet-metrics/1\""));
        assert!(json.contains("\"backend\": \"RFDet-ci\""));
        assert!(json.contains("\"name\": \"wait_turn_stall_ns\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_quotes_in_backend_names() {
        let sink = ObsSink::default();
        let snap = sink.snapshot("we\"ird");
        assert!(snap.to_json().contains("we\\\"ird"));
    }
}
