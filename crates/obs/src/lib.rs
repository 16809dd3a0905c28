//! `qp-obs` — the workspace's unified observability layer: deterministic
//! counters, gauges, and log-bucketed histograms; span-based phase
//! traces; and a Prometheus-style text exposition.
//!
//! Every other crate instruments itself through the free functions in
//! this module ([`counter_add`], [`gauge_set`], [`observe`], [`span`],
//! [`point`]). By default **no recorder is installed** and every call is
//! a single relaxed atomic load — the no-op path, which keeps every
//! golden output bit-identical and costs nothing measurable (see the
//! `obs_overhead` bench group). A caller that wants data installs a
//! [`Recorder`] for the duration of a run:
//!
//! * [`RegistryRecorder`] — counters/gauges/histograms only (what
//!   `quorumnet serve` installs so the `metrics` protocol command has
//!   something to render),
//! * [`InMemoryRecorder`] — a registry plus an event buffer, for tests
//!   and benches,
//! * [`TraceWriter`] — a registry plus a JSONL span trace with
//!   `{:.17e}`-stable float rendering (`quorumnet --trace FILE`).
//!
//! # The determinism contract (logical vs wall-clock)
//!
//! Counters, histograms, and span/point events carry **logical**
//! quantities only: pivot counts, simulated milliseconds, event counts —
//! things that are a pure function of the inputs and seed. Two
//! disciplines make the whole layer deterministic at any thread count:
//!
//! 1. **Counters and histograms commute.** Increments are order-free
//!    sums; histogram sums accumulate in fixed-point integers
//!    ([`Histogram`]), so parallel observation in any interleaving
//!    produces bit-identical totals and the rendered exposition is
//!    sorted by name.
//! 2. **Span and point events are main-thread-only.** Worker threads run
//!    inside [`worker_scope`] (qp-par wraps every pool job, including
//!    the inline serial fallback, so `--threads 1` and `--threads 4`
//!    agree), which suppresses event emission; worker-side results reach
//!    the trace through reports merged in deterministic order instead.
//!
//! Wall-clock timings are **opt-in and tagged**: only histograms carry
//! them, under names with a `_wall_` segment (e.g.
//! `quorumd_delta_wall_ms`), and [`TraceWriter`] records hold none — so
//! they never appear in golden traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod trace;

pub use registry::{Histogram, Registry, HIST_BUCKETS};
pub use trace::{
    validate_trace, InMemoryRecorder, RegistryRecorder, TraceError, TraceEvent, TraceEventKind,
    TraceWriter,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// One structured field on a span or point event.
pub type Field<'a> = (&'a str, FieldValue<'a>);

/// A field value: the closed set of JSON-renderable scalars the trace
/// schema admits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Unsigned integer (counts, sequence numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float, rendered `{:.17e}` (non-finite renders as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String, JSON-escaped.
    Str(&'a str),
}

/// The sink instrumentation flows into. All methods take `&self`: a
/// recorder is shared across threads for the duration of a run.
///
/// Counter/gauge/histogram methods may be called from any thread; span
/// and point events only ever arrive from outside [`worker_scope`] (the
/// facade enforces this), so implementations may assume events are
/// serialized.
pub trait Recorder: Send + Sync {
    /// Adds `by` to the named monotone counter.
    fn counter_add(&self, name: &str, by: u64);
    /// Sets the named gauge to `value`.
    fn gauge_set(&self, name: &str, value: f64);
    /// Records one observation into the named histogram.
    fn observe(&self, name: &str, value: f64);
    /// Opens a span.
    fn span_begin(&self, name: &str, fields: &[Field]);
    /// Closes the innermost open span.
    fn span_end(&self, name: &str, fields: &[Field]);
    /// Emits a point event.
    fn point(&self, name: &str, fields: &[Field]);
    /// The recorder's metrics registry, when it keeps one (used by the
    /// daemon's `metrics` command to render the exposition).
    fn registry(&self) -> Option<&Registry> {
        None
    }
}

/// Fast-path flag: `true` iff a recorder is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed recorder. The `RwLock` is only contended at
/// install/uninstall; steady-state reads are shared.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    /// Depth of nested [`worker_scope`] calls on this thread.
    static WORKER_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Installs `recorder` as the process-global sink, replacing any
/// previous one. Instrumentation is process-global state (like
/// `qp_par::configure_threads`): callers that install per-run must
/// serialize runs.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().expect("recorder lock poisoned") = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Uninstalls and returns the current recorder, restoring the no-op
/// default.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    RECORDER.write().expect("recorder lock poisoned").take()
}

/// Whether a recorder is installed — the single-atomic-load fast path
/// every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Runs `f` with the installed recorder, if any.
#[inline]
fn with<R>(f: impl FnOnce(&dyn Recorder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let guard = RECORDER.read().expect("recorder lock poisoned");
    guard.as_deref().map(f)
}

/// Runs `f` with the installed recorder's [`Registry`], if the recorder
/// keeps one.
pub fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    with(|r| r.registry().map(f)).flatten()
}

/// Runs `f` in worker context: span/point emission is suppressed inside
/// (counters and histograms still record). `qp-par` wraps every pool
/// job in this — on worker threads *and* on the inline serial path — so
/// traces are identical at any thread count.
pub fn worker_scope<R>(f: impl FnOnce() -> R) -> R {
    WORKER_DEPTH.with(|d| d.set(d.get() + 1));
    // A panicking job would leave the depth raised on a pooled thread;
    // qp-par propagates job panics to the caller, and the guard keeps
    // the thread-local correct either way.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            WORKER_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _reset = Reset;
    f()
}

/// Whether this thread is inside a [`worker_scope`].
#[inline]
pub fn in_worker() -> bool {
    WORKER_DEPTH.with(Cell::get) > 0
}

/// Adds `by` to a monotone counter (no-op without a recorder).
#[inline]
pub fn counter_add(name: &str, by: u64) {
    if enabled() {
        with(|r| r.counter_add(name, by));
    }
}

/// Sets a gauge (no-op without a recorder).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        with(|r| r.gauge_set(name, value));
    }
}

/// Records one histogram observation (no-op without a recorder).
#[inline]
pub fn observe(name: &str, value: f64) {
    if enabled() {
        with(|r| r.observe(name, value));
    }
}

/// Emits a point event (no-op without a recorder or inside
/// [`worker_scope`]).
#[inline]
pub fn point(name: &str, fields: &[Field]) {
    if enabled() && !in_worker() {
        with(|r| r.point(name, fields));
    }
}

/// Opens a span and returns its guard. The span closes when the guard's
/// [`Span::end`] is called (attaching result fields) or when it is
/// dropped. Emission is suppressed without a recorder or inside
/// [`worker_scope`]; suppression is latched at open so a begin is never
/// left unbalanced.
pub fn span(name: &'static str, fields: &[Field]) -> Span {
    let active = enabled() && !in_worker();
    if active {
        with(|r| r.span_begin(name, fields));
    }
    Span { name, active }
}

/// Guard for an open span; see [`span`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    name: &'static str,
    active: bool,
}

impl Span {
    /// Closes the span, attaching `fields` to the end event.
    pub fn end(mut self, fields: &[Field]) {
        if self.active {
            with(|r| r.span_end(self.name, fields));
            self.active = false;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            with(|r| r.span_end(self.name, &[]));
        }
    }
}

/// Renders a float the way every stable surface in this workspace does:
/// `{:.17e}` round-trips any finite `f64` bit-exactly; non-finite values
/// render as `null` (JSON has no NaN/Infinity).
#[must_use]
pub fn stable_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.17e}")
    } else {
        "null".to_string()
    }
}

/// JSON-escapes `s` (the same escaping the scenario checkpoint encoder
/// uses).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder is process-global; tests that touch it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_facade_is_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        assert!(uninstall().is_none());
        assert!(!enabled());
        counter_add("x", 3);
        gauge_set("g", 1.0);
        observe("h", 2.0);
        point("p", &[("k", FieldValue::U64(1))]);
        let s = span("s", &[]);
        s.end(&[("done", FieldValue::Bool(true))]);
        assert!(with_registry(|r| r.render_prometheus()).is_none());
    }

    #[test]
    fn worker_scope_suppresses_events_but_not_counters() {
        let _g = TEST_LOCK.lock().unwrap();
        let rec = Arc::new(InMemoryRecorder::new());
        install(rec.clone());
        worker_scope(|| {
            assert!(in_worker());
            counter_add("jobs", 2);
            point("hidden", &[]);
            let sp = span("hidden_span", &[]);
            sp.end(&[]);
        });
        assert!(!in_worker());
        point("visible", &[]);
        uninstall();
        assert_eq!(rec.registry().counter("jobs"), 2);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "visible");
    }

    #[test]
    fn stable_f64_matches_wire_style() {
        assert_eq!(stable_f64(1.5), format!("{:.17e}", 1.5));
        assert_eq!(stable_f64(f64::NAN), "null");
    }
}
