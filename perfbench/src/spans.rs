//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded only around calls *into* the library's public
//! functions, from the benchmark's own code, so the program under test
//! carries no instrumentation. Every span has a name, a start, an end
//! (nanoseconds since the tracer was created) and the span that caused it.
//! Each span's duration also accumulates into the layer metric
//! `<name>_s`; counters accumulate under their own names. Both live in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, usable as the parent of later spans.
pub type SpanId = usize;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `apps.acquire`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

/// Span and counter store shared by every thread of a traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    metrics: Mutex<BTreeMap<String, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, passing it the new span's id
    /// so nested calls can name it as their parent. Returns `f`'s result
    /// and the span's duration in seconds, which is also added to the
    /// metric `<name>_s`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned by a panicking span");
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        let r = f(id);
        let end = self.now_ns();
        let secs = {
            let mut spans = self.spans.lock().expect("span store poisoned by a panicking span");
            spans[id].end_ns = end;
            (end - spans[id].start_ns) as f64 * 1e-9
        };
        self.add(&format!("{name}_s"), secs);
        (r, secs)
    }

    /// Adds `v` to the metric `name`.
    pub fn add(&self, name: &str, v: f64) {
        *self
            .metrics
            .lock()
            .expect("metric store poisoned")
            .entry(name.to_string())
            .or_insert(0.0) += v;
    }

    /// The accumulated value of `name` (0 when nothing was recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.lock().expect("metric store poisoned").get(name).copied().unwrap_or(0.0)
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Renders spans as a JSON array of `{name, start_ns, end_ns, parent}`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
