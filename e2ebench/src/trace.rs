//! The benchmark's span recorder: a `qp-obs` [`Recorder`] that keeps
//! every span (name, start, end, parent) in memory, stamps wall-clock
//! times itself, and forwards counters and histograms to a [`Registry`].
//!
//! It receives the program's own spans (the scenario runner's stage
//! spans) and the spans the benchmark opens around its calls into each
//! layer's public functions; both nest into one tree.

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use quorumnet::obs::{self, Field, FieldValue, Recorder, Registry};

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `scenario.phase` or `bench.fig7_6`.
    pub name: String,
    /// The `engine` field of a `scenario.phase` span, when present.
    pub engine: Option<String>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

#[derive(Default)]
struct Spans {
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// See the module docs.
pub struct BenchRecorder {
    epoch: Instant,
    registry: Registry,
    spans: Mutex<Spans>,
}

impl BenchRecorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Value of a registry counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// The spans recorded so far, in opening order.
    pub fn trace(&self) -> Trace {
        Trace {
            spans: self
                .spans
                .lock()
                .expect("span lock poisoned")
                .records
                .clone(),
        }
    }
}

impl Recorder for BenchRecorder {
    fn counter_add(&self, name: &str, by: u64) {
        self.registry.counter_add(name, by);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.registry.observe(name, value);
    }

    fn span_begin(&self, name: &str, fields: &[Field]) {
        let engine = fields.iter().find_map(|(k, v)| match (k, v) {
            (&"engine", FieldValue::Str(e)) => Some((*e).to_string()),
            _ => None,
        });
        let start_ns = self.now_ns();
        let mut s = self.spans.lock().expect("span lock poisoned");
        let parent = s.open.last().copied();
        let id = s.records.len();
        s.records.push(SpanRecord {
            name: name.to_string(),
            engine,
            parent,
            start_ns,
            end_ns: 0,
        });
        s.open.push(id);
    }

    fn span_end(&self, _name: &str, _fields: &[Field]) {
        let end_ns = self.now_ns();
        let mut s = self.spans.lock().expect("span lock poisoned");
        if let Some(id) = s.open.pop() {
            s.records[id].end_ns = end_ns;
        }
    }

    fn point(&self, _name: &str, _fields: &[Field]) {}

    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

/// Installs a fresh [`BenchRecorder`] as the process-global recorder
/// for the duration of `f`, then uninstalls it and returns it with
/// `f`'s result.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Arc<BenchRecorder>) {
    let rec = Arc::new(BenchRecorder {
        epoch: Instant::now(),
        registry: Registry::new(),
        spans: Mutex::new(Spans::default()),
    });
    obs::install(rec.clone());
    let out = f();
    obs::uninstall();
    (out, rec)
}

/// A recorded span tree.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in opening order; parents precede children.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    fn dur_ms(s: &SpanRecord) -> f64 {
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Durations of every span named `name`, ms, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::dur_ms)
            .collect()
    }

    /// Total duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Total duration of the `scenario.phase` spans run on `engine`, ms.
    pub fn phase_ms(&self, engine: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == "scenario.phase" && s.engine.as_deref() == Some(engine))
            .map(Self::dur_ms)
            .sum()
    }

    /// Total self time of every span named `name`, ms: each span's
    /// duration minus the time its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(Self::dur_ms)
                .sum();
            total += Self::dur_ms(s) - children;
        }
        total
    }

    /// Writes one JSON object per span: `id`, `name`, `parent` (or
    /// null), `start_us`, `end_us`, and `engine` where present.
    ///
    /// # Errors
    ///
    /// Any file-system failure.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let engine = s
                .engine
                .as_deref()
                .map(|e| format!(",\"engine\":\"{}\"", obs::escape_json(e)))
                .unwrap_or_default();
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}{engine}}}",
                obs::escape_json(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            engine: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace {
            spans: vec![
                span("run", None, 0, 10_000_000),
                span("a", Some(0), 1_000_000, 4_000_000),
                span("b", Some(0), 5_000_000, 6_000_000),
                span("a", None, 20_000_000, 22_000_000),
            ],
        };
        assert_eq!(t.self_ms("run"), 6.0);
        assert_eq!(t.total_ms("a"), 5.0);
        assert_eq!(t.self_ms("a"), 5.0);
    }
}
