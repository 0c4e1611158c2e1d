//! Per-layer counters and the per-layer metric sheet.
//!
//! Each layer's public counters (`Stats`, `wal_shard_stats`,
//! `TransportStats`, `EditorStats`, `NetServerStats`) are read before
//! and after the measured window; the deltas plus the trace's span
//! timings make the per-layer metrics. Every workload reports the same
//! names; a layer a workload leaves idle reads 0.

use std::collections::BTreeMap;

use tendax_core::{EditorDoc, Stats, Tendax, TransportStats};
use tendax_net::NetServerStats;
use tendax_storage::WalShardStats;

use crate::common::{median, ratio, Sheet};
use crate::report::Measured;
use crate::trace::{TraceSummary, Tracer};

/// Engine counters at one instant.
#[derive(Debug, Clone)]
pub struct EngineSnap {
    stats: Stats,
    shards: Vec<WalShardStats>,
    transport: TransportStats,
}

pub fn snap(t: &Tendax) -> EngineSnap {
    let db = t.textdb().database();
    EngineSnap {
        stats: db.stats(),
        shards: db.wal_shard_stats(),
        transport: t.server().transport().stats(),
    }
}

/// Counter deltas and end-state gauges, summed over a run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Ops the deltas cover.
    pub ops: u64,
    pub txns_begun: u64,
    pub commits: u64,
    pub aborts: u64,
    pub rows_scanned: u64,
    pub point_gets: u64,
    pub index_lookups: u64,
    /// Records flushed per WAL shard.
    pub wal_shard_records: Vec<u64>,
    pub wal_batches: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_flush_wait_ns: u64,
    pub wal_max_leaders: u64,
    pub bus_dropped: u64,
    pub events_applied: u64,
    pub events_reordered: u64,
    pub resyncs: u64,
    pub retries: u64,
    pub net_events_forwarded: u64,
    pub net_spurious_wakeups: u64,
    pub net_frames_dropped: u64,
    pub net_slow_disconnects: u64,
    pub client_resyncs: u64,
    pub threads_peak: u64,
    pub ram_versions: u64,
    pub chain_tuples: u64,
    pub live_chars: u64,
    /// Characters the measured ops inserted (the WAL bytes-per-char base).
    pub chars_written: u64,
    pub folder_refreshes: u64,
    pub folder_txns: u64,
    pub folder_rows: u64,
    /// `TextDb::open` time per thousand chain entries, one per open.
    pub open_us_per_kchar: Vec<f64>,
}

impl Layers {
    pub fn add_engine(&mut self, before: &EngineSnap, after: &EngineSnap, t: &Tendax) {
        let (a, b) = (&before.stats, &after.stats);
        self.txns_begun += b.txns_begun - a.txns_begun;
        self.commits += b.commits - a.commits;
        self.aborts += b.aborts - a.aborts;
        self.rows_scanned += b.rows_scanned - a.rows_scanned;
        self.point_gets += b.point_gets - a.point_gets;
        self.index_lookups += b.index_lookups - a.index_lookups;
        let shards = after.shards.len().max(self.wal_shard_records.len());
        self.wal_shard_records.resize(shards, 0);
        for (k, s1) in after.shards.iter().enumerate() {
            let s0 = before.shards.get(k).cloned().unwrap_or_default();
            self.wal_shard_records[k] += s1.records_flushed - s0.records_flushed;
            self.wal_batches += s1.batches_flushed - s0.batches_flushed;
            self.wal_records += s1.records_flushed - s0.records_flushed;
            self.wal_bytes += s1.bytes_flushed - s0.bytes_flushed;
            self.wal_flush_wait_ns += s1.flush_wait_ns - s0.flush_wait_ns;
        }
        let db = t.textdb().database();
        self.wal_max_leaders = self
            .wal_max_leaders
            .max(db.wal_max_concurrent_flush_leaders());
        self.bus_dropped += after.transport.dropped - before.transport.dropped;
        self.ram_versions = self.ram_versions.max(db.ram_version_count() as u64);
    }

    /// Fold another run's deltas in (gauges take the maximum).
    pub fn merge(&mut self, r: &Layers) {
        self.ops += r.ops;
        self.txns_begun += r.txns_begun;
        self.commits += r.commits;
        self.aborts += r.aborts;
        self.rows_scanned += r.rows_scanned;
        self.point_gets += r.point_gets;
        self.index_lookups += r.index_lookups;
        let shards = r.wal_shard_records.len().max(self.wal_shard_records.len());
        self.wal_shard_records.resize(shards, 0);
        for (k, n) in r.wal_shard_records.iter().enumerate() {
            self.wal_shard_records[k] += n;
        }
        self.wal_batches += r.wal_batches;
        self.wal_records += r.wal_records;
        self.wal_bytes += r.wal_bytes;
        self.wal_flush_wait_ns += r.wal_flush_wait_ns;
        self.wal_max_leaders = self.wal_max_leaders.max(r.wal_max_leaders);
        self.bus_dropped += r.bus_dropped;
        self.events_applied += r.events_applied;
        self.events_reordered += r.events_reordered;
        self.resyncs += r.resyncs;
        self.retries += r.retries;
        self.net_events_forwarded += r.net_events_forwarded;
        self.net_spurious_wakeups += r.net_spurious_wakeups;
        self.net_frames_dropped += r.net_frames_dropped;
        self.net_slow_disconnects += r.net_slow_disconnects;
        self.client_resyncs += r.client_resyncs;
        self.threads_peak = self.threads_peak.max(r.threads_peak);
        self.ram_versions = self.ram_versions.max(r.ram_versions);
        self.chain_tuples += r.chain_tuples;
        self.live_chars += r.live_chars;
        self.chars_written += r.chars_written;
        self.folder_refreshes += r.folder_refreshes;
        self.folder_txns += r.folder_txns;
        self.folder_rows += r.folder_rows;
        self.open_us_per_kchar
            .extend_from_slice(&r.open_us_per_kchar);
    }

    pub fn add_editor(&mut self, ed: &EditorDoc) {
        let s = ed.stats();
        self.events_applied += s.events_applied;
        self.events_reordered += s.events_reordered;
        self.resyncs += s.resyncs;
        self.retries += s.retries;
    }

    pub fn add_net(&mut self, before: &NetServerStats, after: &NetServerStats) {
        self.net_events_forwarded += after.events_forwarded - before.events_forwarded;
        self.net_spurious_wakeups += after.pool_spurious_wakeups - before.pool_spurious_wakeups;
        self.net_frames_dropped += after.frames_dropped - before.frames_dropped;
        self.net_slow_disconnects += after.slow_disconnects - before.slow_disconnects;
    }

    pub fn add_open(&mut self, elapsed: std::time::Duration, chain_len: usize) {
        let kchars = (chain_len.max(1)) as f64 / 1e3;
        self.open_us_per_kchar
            .push(elapsed.as_secs_f64() * 1e6 / kchars);
    }

    pub fn add_chain(&mut self, chain_len: usize, live: usize) {
        self.chain_tuples += chain_len as u64;
        self.live_chars += live as u64;
    }
}

/// Build the per-layer sheet. `edit_children` names the spans an edit
/// root span (one of `edit_roots`) is made of.
pub fn per_layer_sheet(
    m: &mut Measured,
    tracer: &Tracer,
    edit_roots: &[&str],
    edit_children: &[&str],
) -> Sheet {
    let (traced_p50, untraced_p50) = (m.edit_traced.p50_ms(), m.edit_untraced.p50_ms());
    let edit_p50 = m.lat.entry("edit").or_default().p50_ms();
    let l = &m.layers;
    let t = TraceSummary::new(tracer);
    let mut s = Sheet::default();
    let commits = l.commits as f64;
    let ops = l.ops as f64;

    s.set(
        "storage.txns_per_commit",
        ratio(l.txns_begun as f64, commits),
        "ratio",
    );
    s.set(
        "storage.aborts_per_commit",
        ratio(l.aborts as f64, commits),
        "ratio",
    );
    s.set(
        "storage.rows_scanned_per_op",
        ratio(l.rows_scanned as f64, ops),
        "rows/op",
    );
    s.set(
        "storage.point_gets_per_op",
        ratio(l.point_gets as f64, ops),
        "gets/op",
    );
    s.set(
        "storage.index_lookups_per_op",
        ratio(l.index_lookups as f64, ops),
        "lookups/op",
    );
    s.set("storage.ram_versions", l.ram_versions as f64, "count");

    s.set(
        "wal.records_per_batch",
        ratio(l.wal_records as f64, l.wal_batches as f64),
        "ratio",
    );
    s.set(
        "wal.flush_wait_us_per_commit",
        ratio(l.wal_flush_wait_ns as f64 / 1e3, commits),
        "us",
    );
    let records = l.wal_shard_records.iter().sum::<u64>();
    let busiest_records = l.wal_shard_records.iter().copied().max().unwrap_or(0);
    s.set(
        "wal.busiest_shard_record_share",
        ratio(busiest_records as f64, records as f64),
        "share",
    );
    s.set(
        "wal.max_concurrent_leaders",
        l.wal_max_leaders as f64,
        "count",
    );
    s.set(
        "wal.bytes_per_char",
        ratio(l.wal_bytes as f64, l.chars_written as f64),
        "B/char",
    );

    s.set("text.open_us_per_kchar", median(&l.open_us_per_kchar), "us");
    s.set(
        "text.chain_len_per_live_char",
        ratio(l.chain_tuples as f64, l.live_chars as f64),
        "ratio",
    );

    s.set("collab.sync_us", t.p50_us("collab.sync"), "us");
    let mut edit_spans = t.durations("collab.edit");
    edit_spans.extend(&t.durations("collab.paste"));
    s.set("collab.edit_us", edit_spans.p50_ms() * 1e3, "us");
    s.set("collab.events_applied", l.events_applied as f64, "count");
    s.set(
        "collab.events_reordered",
        l.events_reordered as f64,
        "count",
    );
    s.set("collab.resyncs", l.resyncs as f64, "count");
    s.set("collab.retries", l.retries as f64, "count");
    s.set("collab.bus_dropped", l.bus_dropped as f64, "count");

    s.set("net.visible_lag_us", t.p50_us("net.wait_synced"), "us");
    s.set(
        "net.events_forwarded_per_commit",
        ratio(l.net_events_forwarded as f64, commits),
        "ratio",
    );
    s.set(
        "net.pool_spurious_wakeups_per_commit",
        ratio(l.net_spurious_wakeups as f64, commits),
        "ratio",
    );
    s.set("net.frames_dropped", l.net_frames_dropped as f64, "count");
    s.set(
        "net.slow_disconnects",
        l.net_slow_disconnects as f64,
        "count",
    );
    s.set("net.client_resyncs", l.client_resyncs as f64, "count");
    s.set("net.server_threads_peak", l.threads_peak as f64, "count");

    for rule in ["content", "metadata", "composite"] {
        let name = format!("meta.folder_refresh.{rule}");
        s.set(
            format!("meta.folder_refresh_us.{rule}"),
            t.p50_us(&name),
            "us",
        );
    }
    let refreshes = l.folder_refreshes as f64;
    s.set(
        "meta.txns_per_folder_refresh",
        ratio(l.folder_txns as f64, refreshes),
        "ratio",
    );
    s.set(
        "meta.rows_scanned_per_refresh",
        ratio(l.folder_rows as f64, refreshes),
        "rows",
    );
    s.set(
        "meta.search_update_us",
        t.p50_us("meta.search_update"),
        "us",
    );
    s.set("meta.search_query_us", t.p50_us("meta.search_query"), "us");
    s.set("meta.mining_us", t.p50_us("meta.mining"), "us");

    s.set("process.define_us", t.p50_us("process.define"), "us");
    s.set("process.inbox_us", t.p50_us("process.inbox"), "us");
    s.set("process.complete_us", t.p50_us("process.complete"), "us");

    s.set(
        "trace.overhead_ratio",
        ratio(traced_p50, untraced_p50),
        "ratio",
    );
    let cover = ratio(t.child_sum_p50_ms(edit_roots, edit_children), edit_p50);
    s.set("trace.edit_span_cover", cover, "ratio");

    let roots = t.roots() as f64;
    let by_layer: BTreeMap<&str, u64> = t.self_ns_by_layer();
    for layer in SELF_TIME_LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0) as f64;
        s.set(
            format!("{layer}.self_us_per_op"),
            ratio(ns / 1e3, roots),
            "us",
        );
    }
    s
}

/// Which end-to-end metric each layer metric should move, and on which
/// workload: `(layer metric prefix, end-to-end metrics, workload)`.
/// corpus_meta's TCP client only mirrors: no op waits for it untraced,
/// so the net layer moves its throughput (the forwarders share the two
/// cores with the load thread) and its failures (a mirror that loses
/// frames, resyncs or never syncs fails the edit).
pub const MOVES: &[(&str, &str, &str)] = &[
    (
        "storage.txns_per_commit",
        "edit_p50_ms completed_op_ratio",
        "lan_party corpus_meta",
    ),
    (
        "storage.aborts_per_commit",
        "edit_p50_ms completed_op_ratio",
        "lan_party corpus_meta",
    ),
    (
        "storage.rows_scanned_per_op",
        "folder_p50_ms search_p50_ms",
        "corpus_meta",
    ),
    (
        "storage.point_gets_per_op",
        "folder_p50_ms search_p50_ms",
        "corpus_meta",
    ),
    (
        "storage.index_lookups_per_op",
        "folder_p50_ms search_p50_ms",
        "corpus_meta",
    ),
    ("storage.ram_versions", "peak_rss_mb", "corpus_meta"),
    ("wal.", "edit_p50_ms edit_tail_ms", "corpus_meta"),
    (
        "text.open_us_per_kchar",
        "folder_p50_ms paste_p50_ms",
        "corpus_meta lan_party",
    ),
    (
        "text.chain_len_per_live_char",
        "folder_p50_ms peak_rss_mb",
        "corpus_meta",
    ),
    ("collab.sync_us", "edit_p50_ms", "lan_party"),
    ("collab.edit_us", "edit_p50_ms", "lan_party"),
    (
        "collab.events_",
        "edit_tail_ms completed_op_ratio",
        "lan_party",
    ),
    (
        "collab.resyncs",
        "edit_tail_ms completed_op_ratio",
        "lan_party",
    ),
    (
        "collab.retries",
        "edit_tail_ms completed_op_ratio",
        "lan_party",
    ),
    (
        "collab.bus_dropped",
        "edit_tail_ms completed_op_ratio",
        "lan_party",
    ),
    ("net.visible_lag_us", "completed_op_ratio", "corpus_meta"),
    (
        "net.events_forwarded_per_commit",
        "ops_per_s",
        "corpus_meta",
    ),
    (
        "net.pool_spurious_wakeups_per_commit",
        "ops_per_s",
        "corpus_meta",
    ),
    ("net.frames_dropped", "completed_op_ratio", "corpus_meta"),
    ("net.slow_disconnects", "completed_op_ratio", "corpus_meta"),
    ("net.client_resyncs", "completed_op_ratio", "corpus_meta"),
    ("net.server_threads_peak", "peak_rss_mb", "corpus_meta"),
    ("meta.folder_refresh_us", "folder_p50_ms", "corpus_meta"),
    (
        "meta.txns_per_folder_refresh",
        "folder_p50_ms",
        "corpus_meta",
    ),
    (
        "meta.rows_scanned_per_refresh",
        "folder_p50_ms",
        "corpus_meta",
    ),
    ("meta.search_", "search_p50_ms", "corpus_meta"),
    ("meta.mining_us", "mining_p50_ms", "corpus_meta"),
    ("process.", "process_p50_ms", "lan_party"),
];

/// [`MOVES`] as a JSON array for the run context.
pub fn moves_json() -> String {
    let rows: Vec<String> = MOVES
        .iter()
        .map(|(layer, e2e, workload)| {
            format!("{{\"layer\":\"{layer}\",\"moves\":\"{e2e}\",\"on\":\"{workload}\"}}")
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The spans of an edit must account for the reported `edit_p50_ms`:
/// the median of their per-edit sums over it must fall in this range.
/// Below it, an edit spends time the trace does not see; above it,
/// tracing slows the traced edits.
pub const EDIT_COVER_TOLERANCE: (f64, f64) = (0.8, 1.2);

/// Whether an edit span cover (`trace.edit_span_cover`) reconciles
/// with `edit_p50_ms` within [`EDIT_COVER_TOLERANCE`].
pub fn edit_cover_reconciles(cover: f64) -> bool {
    (EDIT_COVER_TOLERANCE.0..=EDIT_COVER_TOLERANCE.1).contains(&cover)
}

/// Layers the benchmark calls into, plus itself.
pub const SELF_TIME_LAYERS: [&str; 6] = ["loadgen", "collab", "text", "meta", "process", "net"];
