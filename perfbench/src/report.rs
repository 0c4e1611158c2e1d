//! The end-to-end metric sheet and the run context every result
//! carries.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::common::{median, Accounting, Samples, Sheet};
use crate::layers::{edit_cover_reconciles, per_layer_sheet, Layers, EDIT_COVER_TOLERANCE};
use crate::trace::Tracer;

/// Latency samples per op class: `edit`, `visible`, `paste`, `folder`,
/// `search`, `mining`, `process`.
pub type Lat = BTreeMap<&'static str, Samples>;

pub const CLASSES: [&str; 7] = [
    "edit", "visible", "paste", "folder", "search", "mining", "process",
];

/// A `*_tail_ms` metric: the fixed percentile of one class, chosen per
/// workload as the highest of the usual percentiles that keeps at least
/// ten samples beyond it at the sample counts runs reach.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub metric: &'static str,
    pub class: &'static str,
    pub pct: f64,
}

/// What the measured ops of a run, or of a part of one, recorded.
#[derive(Debug, Default)]
pub struct Measured {
    pub lat: Lat,
    pub acc: Accounting,
    pub layers: Layers,
    pub setup_s: Vec<f64>,
    /// Wall time of the measured ops, in seconds.
    pub wall_s: f64,
    pub ops: u64,
    /// Edit latencies of traced and of untraced ops, for the tracing
    /// overhead.
    pub edit_traced: Samples,
    pub edit_untraced: Samples,
}

impl Measured {
    pub fn new() -> Measured {
        Measured {
            lat: CLASSES.iter().map(|c| (*c, Samples::default())).collect(),
            ..Measured::default()
        }
    }

    pub fn sample(&mut self, class: &'static str, d: Duration) {
        self.lat.get_mut(class).expect("a latency class").push(d);
    }

    pub fn edit(&mut self, traced: bool, d: Duration) {
        self.sample("edit", d);
        if traced {
            self.edit_traced.push(d);
        } else {
            self.edit_untraced.push(d);
        }
    }

    pub fn merge(&mut self, o: &Measured) {
        for (k, v) in &o.lat {
            self.lat.entry(k).or_default().extend(v);
        }
        self.acc.merge(&o.acc);
        self.layers.merge(&o.layers);
        self.setup_s.extend_from_slice(&o.setup_s);
        self.wall_s += o.wall_s;
        self.ops += o.ops;
        self.edit_traced.extend(&o.edit_traced);
        self.edit_untraced.extend(&o.edit_untraced);
    }
}

/// Run context: JSON members in insertion order.
#[derive(Debug, Default)]
pub struct Context {
    members: Vec<(String, String)>,
}

impl Context {
    pub fn str(&mut self, k: &str, v: &str) {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if (c as u32) < 0x20 => vec![' '],
                c => vec![c],
            })
            .collect();
        self.members.push((k.into(), format!("\"{escaped}\"")));
    }

    pub fn num(&mut self, k: &str, v: f64) {
        self.members.push((k.into(), fmt_num(v)));
    }

    pub fn raw(&mut self, k: &str, json: String) {
        self.members.push((k.into(), json));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .members
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// How a workload reads its edits in the trace: the root spans of its
/// edit ops and the child spans they are made of.
#[derive(Debug, Clone, Copy)]
pub struct EditSpans {
    pub roots: &'static [&'static str],
    pub children: &'static [&'static str],
}

/// Turn what a run measured into its result: the end-to-end sheet (with
/// each tail's percentile and sample count recorded in the context) and
/// the per-layer sheet. `peak_rss_mb` is read before the gates, which
/// may hold a second copy of the data. A traced run also records in
/// the context whether the edit spans reconcile with `edit_p50_ms`.
pub fn finish(
    mut m: Measured,
    tracer: Tracer,
    ops_per_s: f64,
    peak_rss_mb: f64,
    tails: &[Tail],
    edit: EditSpans,
    mut ctx: Context,
) -> Outcome {
    let mut s = Sheet::default();
    s.set("setup_s", median(&m.setup_s), "s");
    s.set("ops_per_s", ops_per_s, "1/s");
    for (metric, class) in [
        ("edit_p50_ms", "edit"),
        ("visible_p50_ms", "visible"),
        ("paste_p50_ms", "paste"),
        ("folder_p50_ms", "folder"),
        ("search_p50_ms", "search"),
        ("mining_p50_ms", "mining"),
        ("process_p50_ms", "process"),
    ] {
        s.set(metric, m.lat.entry(class).or_default().p50_ms(), "ms");
    }
    let mut tail_ctx = Vec::new();
    for t in tails {
        let samples = m.lat.entry(t.class).or_default();
        s.set(t.metric, samples.pct_ms(t.pct), "ms");
        tail_ctx.push(format!(
            "\"{}\":{{\"percentile\":{},\"samples\":{},\"beyond\":{}}}",
            t.metric,
            t.pct,
            samples.len(),
            samples.beyond(t.pct)
        ));
    }
    ctx.raw("tails", format!("{{{}}}", tail_ctx.join(",")));
    let counts: Vec<String> = CLASSES
        .iter()
        .map(|c| format!("\"{c}\":{}", m.lat.get(c).map_or(0, Samples::len)))
        .collect();
    ctx.raw("samples", format!("{{{}}}", counts.join(",")));
    let per_class: Vec<String> = m
        .acc
        .classes
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":{{\"attempted\":{},\"failed\":{}}}",
                v.attempted, v.failed
            )
        })
        .collect();
    ctx.raw("ops", format!("{{{}}}", per_class.join(",")));
    s.set("completed_op_ratio", m.acc.completed_ratio(), "ratio");
    s.set("peak_rss_mb", peak_rss_mb, "MiB");

    let layers = per_layer_sheet(&mut m, &tracer, edit.roots, edit.children);
    if !tracer.spans.is_empty() {
        let cover = layers.values["trace.edit_span_cover"].0;
        ctx.raw("trace_reconciled", edit_cover_reconciles(cover).to_string());
        let (lo, hi) = EDIT_COVER_TOLERANCE;
        ctx.raw("edit_cover_tolerance", format!("[{lo},{hi}]"));
    }
    Outcome {
        e2e: s,
        layers,
        acc: m.acc,
        ctx,
        tracer,
    }
}

/// What a workload run hands back to the command line.
#[derive(Debug)]
pub struct Outcome {
    pub e2e: Sheet,
    pub layers: Sheet,
    pub acc: Accounting,
    pub ctx: Context,
    pub tracer: Tracer,
}
