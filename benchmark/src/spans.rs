//! In-memory spans around the calls the harness makes into the runtime.
//!
//! One span per boundary crossed from the harness: `run` ⊃
//! {`build_root`, `backend.run`, `check_output`} and one
//! `probe.<layer>.<fn>` per probe batch. Spans are kept in memory and
//! written out once, when the benchmark ends. [`Spans::span`] hands the
//! span's duration back to the caller, so every timing the benchmark
//! reports is the duration of a span in the file (the timed pass uses a
//! disabled recorder: same clock reads, nothing stored).

use crate::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered (probe batches), else 0.
    pub ops: u64,
    /// Free-form label: backend and program for runs.
    pub label: String,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a span shorter than 584 years")
}

/// Span recorder for one workload's traced pass.
pub struct Spans {
    workload: String,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that times but stores nothing, for the timed pass.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new("")
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns `f`'s result with the span's duration in ns.
    pub fn span<R>(
        &mut self,
        name: &str,
        label: &str,
        ops: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        if !self.enabled {
            let start = Instant::now();
            let r = f(self);
            return (r, nanos(start.elapsed()));
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            ops,
            label: label.to_owned(),
        });
        self.open.push(id);
        // Clock reads innermost, so the span holds `f` and nothing else.
        self.spans[id].start_ns = nanos(self.epoch.elapsed());
        let r = f(self);
        self.spans[id].end_ns = nanos(self.epoch.elapsed());
        self.open.pop();
        (r, self.spans[id].dur_ns())
    }

    /// A span's duration minus the time its direct children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 64);
        let _ = write!(
            out,
            "{{\"schema\":\"rfdet-benchmark-spans/1\",\"trace_id\":\"{}\",\"spans\":[",
            escape(&self.workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"ops\":{}}}",
                escape(&s.name),
                escape(&s.label),
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.ops
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut sp = Spans::new("w");
        let (inner_ns, outer_ns) = sp.span("run", "", 0, |sp| {
            sp.span("backend.run", "b", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
            .1
        });
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert_eq!(sp.self_ns(0), outer_ns - inner_ns);
        assert!(sp.to_json().contains("\"trace_id\":\"w\""));
    }

    #[test]
    fn disabled_times_but_stores_nothing() {
        let mut sp = Spans::disabled();
        let ((), ns) = sp.span("run", "", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ns >= 1_000_000);
        assert!(sp.spans.is_empty());
    }
}
