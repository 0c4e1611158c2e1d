//! Spans around every call the benchmark makes into a layer.
//!
//! A traced op gets a root span (layer `loadgen`, the benchmark itself)
//! and one child span per call into a layer. Spans stay in memory and
//! are written out when the run ends. A layer's self time is its spans'
//! duration minus the part covered by their children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::common::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. An op is traced when it was given a root
/// span; calls under an untraced op run without any recording.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open the root span of op `op` starting at `start`. Only every
    /// other op is traced, so one traced run also times untraced ops
    /// and yields the tracing overhead.
    pub fn root(&mut self, name: &'static str, op: u64, start: Instant) -> SpanId {
        if !self.enabled || op % 2 == 1 {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            layer: "loadgen",
            op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Run `f` as a call into `layer`, recorded under `parent`.
    pub fn call<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(p) = parent else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (op, start_ns, end_ns) = (self.spans[p].op, self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            op,
            parent: Some(p),
            start_ns,
            end_ns,
        });
        out
    }
}

/// Summaries computed from a finished trace.
#[derive(Debug)]
pub struct TraceSummary<'a> {
    spans: &'a [Span],
}

impl<'a> TraceSummary<'a> {
    pub fn new(tracer: &'a Tracer) -> TraceSummary<'a> {
        TraceSummary {
            spans: &tracer.spans,
        }
    }

    fn dur(s: &Span) -> u64 {
        s.end_ns.saturating_sub(s.start_ns)
    }

    pub fn roots(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// Self time per layer, summed over all spans, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += Self::dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_insert(0) += Self::dur(s).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(Duration::from_nanos(Self::dur(s)));
        }
        out
    }

    /// Median of `name` spans in microseconds (0 without spans).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations(name).p50_ms() * 1e3
    }

    /// For root spans named in `roots`: the median, in milliseconds, of
    /// the summed durations of their child spans named in `children`.
    pub fn child_sum_p50_ms(&self, roots: &[&str], children: &[&str]) -> f64 {
        let mut sum_ns = vec![0u64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                if children.contains(&s.name) {
                    sum_ns[p] += Self::dur(s);
                }
            }
        }
        let mut sums = Samples::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && roots.contains(&s.name) {
                sums.push(Duration::from_nanos(sum_ns[i]));
            }
        }
        sums.p50_ms()
    }
}

/// Write every span as one JSON line.
pub fn write_spans(path: &Path, tracer: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &tracer.spans {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.layer, s.op, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
