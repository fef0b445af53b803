//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded only in traced runs and kept in memory until the run
//! ends; an untraced tracer costs one branch per call site. The spans are
//! taken from outside the program: each one brackets a public call (`run`,
//! `submit`, `tick`, `snapshot`, `restore`, a probe), so a layer's self
//! time is the part of its spans that no nested span covers.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str, job: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Host durations (µs) of the spans named `name` since index `from`.
    pub fn durations_us(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time (seconds) per layer: each span's duration minus the time
    /// its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// All spans as a JSON document tagged with the run's provenance.
    pub fn to_json(&self, workload: &str, seed: u64, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in header {
            out.push_str(&format!("\"{k}\": \"{v}\", "));
        }
        out.push_str("\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \
                 \"job\": {}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.job.map_or("null".into(), |j| j.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
