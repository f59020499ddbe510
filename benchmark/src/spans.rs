//! The traced run's spans and the per-layer attribution built from them.
//!
//! Spans belong to the benchmark, not the program: each wraps one call
//! the load generator makes into a layer's public function. They stay
//! in memory (one log per client thread) and are written out once, as
//! JSON lines, when the run ends.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The request this span belongs to.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One client thread's spans. A disabled log records nothing, so an
/// untraced pass pays no tracing cost.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// `thread` keeps span ids unique across the threads of one run.
    pub fn new(origin: Instant, thread: u64, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (the parent of spans opened inside).
    pub fn open(&mut self, name: &'static str, request: u64, parent: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the most recently opened span with `id`.
    pub fn close(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing an open span");
        span.end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Relabels a closed span (a write is an insert or a merge only once
    /// its receipt says which).
    pub fn rename(&mut self, id: u64, name: &'static str) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.name = name;
        }
    }
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The layers a search request's client latency splits into. Each
/// request's parts sum exactly to its client latency: `server` is the
/// part the replica's engine calls do not explain.
pub const QUERY_LAYERS: [&str; 8] = [
    "server",
    "store_parse",
    "core_interpret",
    "core_degree_column",
    "core_summaries",
    "core_topk",
    "core_query",
    "core_render",
];

/// Per-request self times of one search request, in [`QUERY_LAYERS`] order.
fn query_parts(latency: f64, calls: &BTreeMap<&str, f64>) -> [f64; 8] {
    let get = |name: &str| calls.get(name).copied().unwrap_or(0.0);
    if get("core.query") == 0.0 {
        // Answered from the result cache: the server parsed the
        // statement, and the engine never ran.
        let mut parts = [0.0; 8];
        parts[1] = get("store.parse");
        parts[0] = latency - parts[1];
        return parts;
    }
    // The replica ran, in order: the cold interpretations and column
    // builds, the cold top-k pass (which also sorts fresh columns), the
    // same top-k pass again on warm columns, query_select_ref, and
    // render_query_body (which runs query_select_ref once more).
    let mut parts = [
        0.0,
        get("store.parse"),
        get("core.interpret"),
        get("core.degree_column"),
        get("core.summaries_qualified"),
        get("core.topk"),
        get("core.query") - get("core.topk_warm"),
        get("core.render") - get("core.query"),
    ];
    let engine: f64 = parts.iter().sum();
    parts[0] = latency - engine;
    parts
}

/// What the traced run reports.
#[derive(Debug, Default)]
pub struct Attribution {
    /// p50 per call of each wrapped public function, µs.
    pub per_call_p50: BTreeMap<&'static str, f64>,
    /// Mean self time of each layer over the median band of search
    /// requests, µs.
    pub self_in_band: BTreeMap<&'static str, f64>,
    /// p50 over requests of (render_query_body − query_select_ref), µs.
    pub render_p50: f64,
    /// Median client latency of the traced search requests, µs.
    pub client_p50: f64,
    /// `client_p50 − Σ self_in_band`: the part of the median the
    /// layers leave unexplained. Never dropped.
    pub unattributed: f64,
    pub requests: usize,
}

/// Builds the attribution from all spans of the traced window. Search
/// requests are those whose root span is `request` with an `http`
/// child to `/query` (named `http.query`).
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut by_request: BTreeMap<u64, (f64, BTreeMap<&str, f64>)> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.micros());
        if s.name == "http.query" {
            by_request.entry(s.request).or_default().0 = s.micros();
        } else if s.name.starts_with("core.") || s.name == "store.parse" {
            let entry = by_request.entry(s.request).or_default();
            *entry.1.entry(s.name).or_insert(0.0) += s.micros();
        }
    }
    let mut att = Attribution::default();
    for (name, durations) in &mut by_name {
        att.per_call_p50.insert(name, percentile(durations, 0.5));
    }
    let mut requests: Vec<(f64, [f64; 8])> = Vec::new();
    let mut renders = Vec::new();
    for (latency, calls) in by_request.values() {
        if *latency == 0.0 {
            continue; // an insert request, or a failed read
        }
        if let (Some(render), Some(query)) = (calls.get("core.render"), calls.get("core.query")) {
            renders.push(render - query);
        }
        requests.push((*latency, query_parts(*latency, calls)));
    }
    att.requests = requests.len();
    att.render_p50 = percentile(&mut renders, 0.5);
    if requests.is_empty() {
        return att;
    }
    requests.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut latencies: Vec<f64> = requests.iter().map(|r| r.0).collect();
    att.client_p50 = percentile(&mut latencies, 0.5);
    // The median band: requests ranked between the 45th and 55th
    // latency percentile. Their mean self times say where a median
    // request spends its time, and add up to the band's mean latency,
    // which sits next to the median.
    let n = requests.len();
    let band = &requests[n * 9 / 20..(n * 11 / 20).max(n * 9 / 20 + 1)];
    let mut explained = 0.0;
    for (i, name) in QUERY_LAYERS.iter().enumerate() {
        let mean = band.iter().map(|r| r.1[i]).sum::<f64>() / band.len() as f64;
        explained += mean;
        att.self_in_band.insert(name, mean);
    }
    att.unattributed = att.client_p50 - explained;
    att
}
