//! Recorders: the registry-only and in-memory recorders, the JSONL
//! [`TraceWriter`], and the trace validator the CI smoke runs.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::registry::Registry;
use crate::{escape_json, stable_f64, Field, FieldValue, Recorder};

/// A [`Recorder`] that keeps only the metrics registry, dropping span
/// and point events. `quorumnet serve` installs one (absent `--trace`)
/// so the `metrics` protocol command always has an exposition to render.
#[derive(Default)]
pub struct RegistryRecorder {
    registry: Registry,
}

impl RegistryRecorder {
    /// A recorder over a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        RegistryRecorder::default()
    }

    /// The backing registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Recorder for RegistryRecorder {
    fn counter_add(&self, name: &str, by: u64) {
        self.registry.counter_add(name, by);
    }
    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }
    fn observe(&self, name: &str, value: f64) {
        self.registry.observe(name, value);
    }
    fn span_begin(&self, _name: &str, _fields: &[Field]) {}
    fn span_end(&self, _name: &str, _fields: &[Field]) {}
    fn point(&self, _name: &str, _fields: &[Field]) {}
    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

/// What kind of trace event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened.
    SpanBegin,
    /// The innermost open span closed.
    SpanEnd,
    /// A point event.
    Point,
}

impl TraceEventKind {
    fn wire(self) -> &'static str {
        match self {
            TraceEventKind::SpanBegin => "span_begin",
            TraceEventKind::SpanEnd => "span_end",
            TraceEventKind::Point => "point",
        }
    }
}

/// An owned trace event, as buffered by [`InMemoryRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceEventKind,
    /// Event name.
    pub name: String,
    /// Owned `(key, rendered-JSON-value)` pairs, in emission order.
    pub fields: Vec<(String, String)>,
}

fn render_value(v: &FieldValue<'_>) -> String {
    match v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::I64(n) => n.to_string(),
        FieldValue::F64(x) => stable_f64(*x),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

fn own_fields(fields: &[Field]) -> Vec<(String, String)> {
    fields
        .iter()
        .map(|(k, v)| ((*k).to_string(), render_value(v)))
        .collect()
}

/// A [`Recorder`] that buffers every event in memory alongside a
/// registry — the test and bench recorder.
#[derive(Default)]
pub struct InMemoryRecorder {
    registry: Registry,
    events: Mutex<Vec<TraceEvent>>,
}

impl InMemoryRecorder {
    /// A fresh in-memory recorder.
    #[must_use]
    pub fn new() -> Self {
        InMemoryRecorder::default()
    }

    /// The backing registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the buffered events.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }

    fn push(&self, kind: TraceEventKind, name: &str, fields: &[Field]) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(TraceEvent {
                kind,
                name: name.to_string(),
                fields: own_fields(fields),
            });
    }
}

impl Recorder for InMemoryRecorder {
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
        self.push(TraceEventKind::SpanBegin, name, fields);
    }
    fn span_end(&self, name: &str, fields: &[Field]) {
        self.push(TraceEventKind::SpanEnd, name, fields);
    }
    fn point(&self, name: &str, fields: &[Field]) {
        self.push(TraceEventKind::Point, name, fields);
    }
    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

struct TraceOut {
    w: BufWriter<Box<dyn Write + Send>>,
    seq: u64,
    depth: u64,
    /// First write error, reported at [`TraceWriter::flush`]; later
    /// events are dropped rather than panicking mid-run.
    err: Option<io::Error>,
}

/// A [`Recorder`] that streams span/point events as JSONL alongside a
/// metrics registry — the `--trace FILE` sink.
///
/// One JSON object per line:
///
/// ```json
/// {"seq":4,"kind":"span_begin","name":"lp.solve","depth":1,"fields":{"warm":true}}
/// ```
///
/// `seq` increments per record; `depth` is the span-nesting depth the
/// record sits at (a `span_end` carries the depth of its matching
/// begin). Floats render `{:.17e}`. Events only ever arrive from the
/// main thread (the facade suppresses worker-context emission), so the
/// record order — and therefore the bytes — of a logical trace is
/// deterministic at any `--threads` count.
pub struct TraceWriter {
    registry: Registry,
    out: Mutex<TraceOut>,
}

impl TraceWriter {
    /// A writer streaming to `w` (logical events only).
    #[must_use]
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        TraceWriter {
            registry: Registry::new(),
            out: Mutex::new(TraceOut {
                w: BufWriter::new(w),
                seq: 0,
                depth: 0,
                err: None,
            }),
        }
    }

    /// A writer streaming to the file at `path` (created/truncated).
    ///
    /// # Errors
    ///
    /// Any file-system failure creating the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceWriter::new(Box::new(File::create(path)?)))
    }

    /// The backing registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Flushes buffered records and surfaces the first write error, if
    /// any occurred.
    ///
    /// # Errors
    ///
    /// The first I/O failure encountered while writing or flushing.
    pub fn flush(&self) -> io::Result<()> {
        let mut g = self.out.lock().expect("trace writer poisoned");
        if let Some(e) = g.err.take() {
            return Err(e);
        }
        g.w.flush()
    }

    fn write_record(&self, kind: TraceEventKind, name: &str, fields: &[Field]) {
        let mut g = self.out.lock().expect("trace writer poisoned");
        if g.err.is_some() {
            return;
        }
        if kind == TraceEventKind::SpanEnd {
            // A stray end (span guard outliving a recorder swap) clamps
            // at zero rather than underflowing.
            g.depth = g.depth.saturating_sub(1);
        }
        g.seq += 1;
        let mut line = format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"depth\":{}",
            g.seq,
            kind.wire(),
            escape_json(name),
            g.depth
        );
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", escape_json(k), render_value(v)));
        }
        line.push_str("}}\n");
        if kind == TraceEventKind::SpanBegin {
            g.depth += 1;
        }
        if let Err(e) = g.w.write_all(line.as_bytes()) {
            g.err = Some(e);
        }
    }
}

impl Recorder for TraceWriter {
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
        self.write_record(TraceEventKind::SpanBegin, name, fields);
    }
    fn span_end(&self, name: &str, fields: &[Field]) {
        self.write_record(TraceEventKind::SpanEnd, name, fields);
    }
    fn point(&self, name: &str, fields: &[Field]) {
        self.write_record(TraceEventKind::Point, name, fields);
    }
    fn registry(&self) -> Option<&Registry> {
        Some(&self.registry)
    }
}

/// A trace-validation failure: the 1-based line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number (0 for whole-trace failures).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// Validates a JSONL trace: every line is one syntactically-valid JSON
/// object, and span nesting is monotone — every `span_end` matches the
/// innermost open `span_begin` by name and depth, and the trace ends
/// with every span closed. This is the CI smoke assertion
/// (`quorumnet trace-check`).
///
/// # Errors
///
/// [`TraceError`] naming the first offending line.
pub fn validate_trace(text: &str) -> Result<(), TraceError> {
    let mut stack: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let fail = |message: String| TraceError {
            line: lineno,
            message,
        };
        let mut p = Json::new(line);
        p.value().map_err(&fail)?;
        p.skip_ws();
        if !p.at_end() {
            return Err(fail("trailing content after JSON object".into()));
        }
        if !line.starts_with('{') {
            return Err(fail("record is not a JSON object".into()));
        }
        let kind = scan_string_field(line, "kind").ok_or_else(|| fail("missing `kind`".into()))?;
        let name = scan_string_field(line, "name").ok_or_else(|| fail("missing `name`".into()))?;
        let depth = scan_u64_field(line, "depth").ok_or_else(|| fail("missing `depth`".into()))?;
        match kind.as_str() {
            "span_begin" => {
                if depth as usize != stack.len() {
                    return Err(fail(format!(
                        "span_begin at depth {depth}, expected {}",
                        stack.len()
                    )));
                }
                stack.push(name);
            }
            "span_end" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| fail(format!("span_end `{name}` with no open span")))?;
                if open != name {
                    return Err(fail(format!(
                        "span_end `{name}` does not match open span `{open}`"
                    )));
                }
                if depth as usize != stack.len() {
                    return Err(fail(format!(
                        "span_end at depth {depth}, expected {}",
                        stack.len()
                    )));
                }
            }
            "point" => {
                if depth as usize != stack.len() {
                    return Err(fail(format!(
                        "point at depth {depth}, expected {}",
                        stack.len()
                    )));
                }
            }
            other => return Err(fail(format!("unknown kind `{other}`"))),
        }
    }
    if let Some(open) = stack.last() {
        return Err(TraceError {
            line: 0,
            message: format!("trace ends with span `{open}` still open"),
        });
    }
    Ok(())
}

/// Extracts the string value of a top-level `"key":"value"` pair by
/// scanning (the writer pins field order, but scanning by key keeps the
/// validator independent of it).
fn scan_string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '\\' => {
                let c = chars.next()?;
                out.push(match c {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    other => other,
                });
            }
            '"' => return Some(out),
            c => out.push(c),
        }
    }
}

fn scan_u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A minimal strict JSON syntax checker (values only, no tree built).
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(s: &'a str) -> Self {
        Json {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 2;
                }
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(f: impl FnOnce(&TraceWriter)) -> String {
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        struct Sink(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let w = TraceWriter::new(Box::new(Sink(buf.clone())));
        f(&w);
        w.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text
    }

    #[test]
    fn writer_emits_valid_nested_trace() {
        let text = trace_of(|w| {
            w.span_begin("outer", &[("spec", FieldValue::Str("alpha"))]);
            w.span_begin("inner", &[]);
            w.point("tick", &[("n", FieldValue::U64(7))]);
            w.span_end("inner", &[("pivots", FieldValue::U64(12))]);
            w.span_end("outer", &[("ok", FieldValue::Bool(true))]);
            w.point("value", &[("x", FieldValue::F64(1.5))]);
        });
        validate_trace(&text).unwrap();
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains(&format!("\"x\":{}", stable_f64(1.5))));
        assert!(text.contains("\"depth\":1"));
    }

    #[test]
    fn validator_rejects_broken_nesting_and_bad_json() {
        let unbalanced = trace_of(|w| {
            w.span_begin("outer", &[]);
        });
        let err = validate_trace(&unbalanced).unwrap_err();
        assert!(err.message.contains("still open"), "{err}");

        let crossed = concat!(
            "{\"seq\":1,\"kind\":\"span_begin\",\"name\":\"a\",\"depth\":0,\"fields\":{}}\n",
            "{\"seq\":2,\"kind\":\"span_end\",\"name\":\"b\",\"depth\":0,\"fields\":{}}\n",
        );
        let err = validate_trace(crossed).unwrap_err();
        assert!(err.message.contains("does not match"), "{err}");

        let err = validate_trace("{\"seq\":1,").unwrap_err();
        assert_eq!(err.line, 1);
        let err = validate_trace("not json\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn registry_recorder_keeps_metrics_only() {
        let r = RegistryRecorder::new();
        r.counter_add("c", 1);
        r.span_begin("s", &[]);
        r.span_end("s", &[]);
        assert_eq!(r.registry().counter("c"), 1);
    }
}
