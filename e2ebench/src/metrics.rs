//! Metric definitions, a run's outcome, and how it is printed.

use quorumnet::obs::escape_json;

/// One end-to-end metric the benchmark reports, with the bound by
/// which it may worsen (as a share of the parent's median) before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Bound, as a share of the parent's median.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, bound }
}

/// The end-to-end metrics `run` prints for each workload they apply
/// to: `wall_s` on the batch workloads, `delta_*` to `recovery_s` on
/// `quorumd_stream`, the rest on all. All are better when lower.
/// `compare` applies these bounds.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", 0.25),
    def("peak_rss_mb", "MB", 0.10),
    def("error_rate", "fraction", 0.0),
    def("setup_s", "s", 0.25),
    def("delta_p50_ms", "ms", 0.25),
    def("delta_p99_ms", "ms", 0.25),
    def("read_p50_ms", "ms", 0.25),
    def("read_p99_ms", "ms", 0.25),
    def("connect_p50_ms", "ms", 0.15),
    def("recovery_s", "s", 0.25),
];

/// The subset of metrics in the final result line of an untraced run,
/// identical for every workload (`BENCHMARK.json`'s `end_to_end`):
/// `latency_ms` is `wall_s` in ms on a batch workload and
/// `delta_p50_ms` on `quorumd_stream`.
pub const RESULT_LINE: &[MetricDef] = &[
    def("latency_ms", "ms", 0.25),
    def("peak_rss_mb", "MB", 0.10),
    def("setup_s", "s", 0.25),
];

/// The per-layer metrics in the final result line of a traced run,
/// identical for every workload (`BENCHMARK.json`'s `per_layer`).
/// Layer times that not every workload exercises are shares (`%`) of
/// the traced work, so none of them is a time that reads 0 everywhere.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("placement.search_ms", "ms"),
    ("lp.share_pct", "%"),
    ("des.exact_share_pct", "%"),
    ("des.agg_share_pct", "%"),
    ("scenario.other_share_pct", "%"),
    ("daemon.apply_share_pct", "%"),
    ("daemon.wal_share_pct", "%"),
    ("daemon.queue_share_pct", "%"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.refactors", "count"),
    ("lp.full_prices", "count"),
    ("lp.bound_flips", "count"),
    ("colgen.oracle_passes", "count"),
    ("colgen.columns_added", "count"),
    ("colgen.master_resolves", "count"),
    ("des.events", "count"),
    ("des.requests", "count"),
    ("daemon.snapshots", "count"),
    ("trace_overhead_pct", "%"),
];

/// Registry counters behind the per-layer counts.
pub const COUNTERS: &[(&str, &[&str])] = &[
    ("lp.solves", &["lp_solves_total"]),
    ("lp.pivots", &["lp_pivots_total"]),
    ("lp.refactors", &["lp_refactors_total"]),
    ("lp.full_prices", &["lp_full_prices_total"]),
    ("lp.bound_flips", &["lp_bound_flips_total"]),
    ("colgen.oracle_passes", &["colgen_oracle_passes_total"]),
    ("colgen.columns_added", &["colgen_columns_added_total"]),
    ("colgen.master_resolves", &["colgen_master_resolves_total"]),
    ("des.events", &["des_heap_pop_total", "des_wheel_pop_total"]),
    ("des.requests", &["des_requests_completed_total"]),
    ("daemon.snapshots", &["quorumd_snapshots_total"]),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (a median for sampled metrics).
    pub value: f64,
    /// Samples behind `value` (1 for single measurements).
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Value {
    /// A single measurement (an empty float sum's `-0.0` reads as 0).
    pub fn one(name: &str, unit: &str, value: f64) -> Value {
        let value = value + 0.0;
        Value {
            name: name.into(),
            unit: unit.into(),
            value,
            n: 1,
            min: value,
            max: value,
        }
    }

    /// The median of `samples`, with their count and range.
    pub fn median_of(name: &str, unit: &str, samples: &[f64]) -> Value {
        Value {
            name: name.into(),
            unit: unit.into(),
            value: crate::stats::median(samples),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (repetitions, or daemon commands).
    pub attempted: u64,
    /// Operations that failed their check or got no `ok`.
    pub failed: u64,
    /// Why operations failed, or what else went wrong.
    pub errors: Vec<String>,
    /// End-to-end metrics by their `END_TO_END` names (untraced runs).
    pub end_to_end: Vec<Value>,
    /// Per-layer values (traced runs): the `PER_LAYER` set plus the
    /// absolute times behind the shares.
    pub layers: Vec<Value>,
    /// Validity facts: nproc, threads, sample counts, generator lag.
    pub validity: Vec<(String, String)>,
    /// `false` when the run's measurements are not trustworthy (the
    /// load generator fell behind its schedule).
    pub valid: bool,
}

impl Outcome {
    /// A fresh outcome for `workload`.
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.into(),
            valid: true,
            ..Outcome::default()
        }
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// The value named `name`, among end-to-end or layer values.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|v| v.name == name)
    }

    /// The metrics of the final result line: `RESULT_LINE` for an
    /// untraced run, `PER_LAYER` for a traced one.
    pub fn result_metrics(&self, trace: bool) -> Vec<(String, String, f64)> {
        let pick = |name: &str| self.get(name).map(|v| v.value);
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string(), pick(n).unwrap_or(f64::NAN)))
                .collect()
        } else {
            RESULT_LINE
                .iter()
                .map(|d| {
                    let v = match d.name {
                        "latency_ms" => pick("wall_s")
                            .map(|s| s * 1e3)
                            .or_else(|| pick("delta_p50_ms")),
                        name => pick(name),
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        v.unwrap_or(f64::NAN),
                    )
                })
                .collect()
        }
    }

    /// Whether every check passed and every result-line value exists.
    pub fn correct(&self, trace: bool) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self
                .result_metrics(trace)
                .iter()
                .all(|(_, _, v)| v.is_finite())
    }

    /// Prints the human-readable report, a `detail` line with every
    /// value as JSON (what `compare` reads), and as the last line the
    /// result object.
    pub fn print(&self, trace: bool) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if trace { "traced" } else { "timed" }
        );
        for v in self.end_to_end.iter().chain(&self.layers) {
            if v.n > 1 {
                println!(
                    "  {:<26} {:>14.6} {:<8} (n={}, min {:.6}, max {:.6})",
                    v.name, v.value, v.unit, v.n, v.min, v.max
                );
            } else {
                println!("  {:<26} {:>14.6} {}", v.name, v.value, v.unit);
            }
        }
        for (k, v) in &self.validity {
            println!("  validity {k}: {v}");
        }
        if !self.valid {
            println!("  validity: INVALID (the load generator fell behind its schedule)");
        }
        for e in &self.errors {
            println!("  error: {e}");
        }
        println!("detail {}", self.detail_json());
        println!("{}", self.result_json(trace));
    }

    /// Every value as one JSON object.
    pub fn detail_json(&self) -> String {
        let values: Vec<String> = self
            .end_to_end
            .iter()
            .chain(&self.layers)
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"min\": {}, \"max\": {}}}",
                    escape_json(&v.name),
                    num(v.value),
                    escape_json(&v.unit),
                    v.n,
                    num(v.min),
                    num(v.max)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"valid\": {}, \"metrics\": {{{}}}}}",
            escape_json(&self.workload),
            self.valid,
            values.join(", ")
        )
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .result_metrics(trace)
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// gives; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
