//! Pieces every workload shares: pinned engine configuration, latency
//! samples and percentiles, the metric sheet, op accounting, the
//! reference text model, and process-level probes (RSS, threads).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;

use tendax_core::{ClockMode, DurabilityLevel, Options, Tendax};
use tendax_storage::Database;

/// Workload-level failure: only a correctness gate raises one, and it
/// aborts the run.
#[derive(Debug)]
pub struct GateFailure(pub String);

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "correctness gate failed: {}", self.0)
    }
}

/// WAL shard files of the file-backed engines. Pinned here, never read
/// from the environment.
const WAL_SHARDS: usize = 4;

/// The file-backed engine configuration, spelled out field by field so
/// neither `Options::default()` nor its environment overrides
/// (`TENDAX_WAL_SHARDS`, `TENDAX_COLD`) can change what is measured.
pub fn durable_options(durability: DurabilityLevel) -> Options {
    Options {
        durability,
        clock: ClockMode::Logical,
        group_commit: true,
        maintenance: None,
        vfs: tendax_storage::os_vfs(),
        wal_shards: WAL_SHARDS,
        cold_storage: None,
    }
}

/// How [`durable_options`] reads in a result's run context.
pub fn durable_label(durability: DurabilityLevel) -> String {
    format!(
        "file-backed WAL, DurabilityLevel::{durability:?}, group commit, {WAL_SHARDS} WAL \
         shards, no cold tier, no maintenance thread, ClockMode::Logical"
    )
}

/// An in-memory engine has no WAL, cold tier or maintenance thread; the
/// clock is the only setting it takes, and it is pinned.
pub fn in_memory_tendax() -> Tendax {
    Tendax::from_database(Database::open_in_memory_with(ClockMode::Logical))
        .expect("in-memory instance")
}

pub fn open_durable(path: &Path, durability: DurabilityLevel) -> tendax_core::Result<Tendax> {
    Tendax::open(path, durable_options(durability))
}

/// FNV-1a, the repository's cheap content hash.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a list of document texts, in document order (the same
/// encoding as the lan-party scoreboard's `doc_digest`).
pub fn texts_digest<S: AsRef<str>>(texts: &[S]) -> u64 {
    let mut h = FNV_OFFSET;
    for t in texts {
        h = fnv1a(h, t.as_ref().as_bytes());
        h = fnv1a(h, b"\x00");
    }
    h
}

/// splitmix64: derives independent sub-seeds from the run's seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf sampling over `n` items (weight 1/(k+1)^s).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty distribution");
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }
}

/// Latency samples of one class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Nearest-rank percentile (`q` in 0..=100) in milliseconds; 0 when
    /// there are no samples.
    pub fn pct_ms(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.ns.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        self.ns[rank.clamp(1, n) - 1] as f64 / 1e6
    }

    pub fn p50_ms(&mut self) -> f64 {
        self.pct_ms(50.0)
    }

    /// Samples strictly above the nearest-rank `q` percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.ns.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        n - rank.clamp(0, n)
    }
}

/// Attempted and failed ops of one op class.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// Per-class op accounting. An op fails on an error, exhausted retries,
/// a `wait_synced` timeout or a forced resync; it is counted, never
/// panicked on.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    pub classes: BTreeMap<&'static str, OpCount>,
}

impl Accounting {
    pub fn ok(&mut self, class: &'static str) {
        self.classes.entry(class).or_default().attempted += 1;
    }

    pub fn fail(&mut self, class: &'static str, why: impl std::fmt::Display) {
        let c = self.classes.entry(class).or_default();
        c.attempted += 1;
        c.failed += 1;
        if c.failed <= 3 {
            eprintln!("perfbench: {class} op failed: {why}");
        }
    }

    pub fn merge(&mut self, other: &Accounting) {
        for (k, v) in &other.classes {
            let c = self.classes.entry(k).or_default();
            c.attempted += v.attempted;
            c.failed += v.failed;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.failed).sum()
    }

    /// Share of attempted ops that completed (1.0 when none failed).
    pub fn completed_ratio(&self) -> f64 {
        let a = self.attempted();
        if a == 0 {
            return 0.0;
        }
        (a - self.failed()) as f64 / a as f64
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default, Clone)]
pub struct Sheet {
    pub values: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.into(), (v, unit));
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn proc_status_field(field: &str) -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current thread count of this process.
pub fn process_threads() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// The reference model of the documents' text: plain character vectors
/// edited by the same positions the workload sends to the engine. The
/// load threads are sequential per document, so the engine's final text must
/// equal the model's.
#[derive(Debug, Clone, Default)]
pub struct TextModel {
    pub docs: Vec<Vec<char>>,
}

impl TextModel {
    pub fn new(n: usize) -> TextModel {
        TextModel {
            docs: vec![Vec::new(); n],
        }
    }

    pub fn insert(&mut self, doc: usize, pos: usize, text: &str) {
        let d = &mut self.docs[doc];
        let pos = pos.min(d.len());
        d.splice(pos..pos, text.chars());
    }

    pub fn delete(&mut self, doc: usize, pos: usize, len: usize) {
        let d = &mut self.docs[doc];
        let pos = pos.min(d.len());
        let end = (pos + len).min(d.len());
        d.drain(pos..end);
    }

    pub fn text(&self, doc: usize) -> String {
        self.docs[doc].iter().collect()
    }

    pub fn texts(&self) -> Vec<String> {
        (0..self.docs.len()).map(|d| self.text(d)).collect()
    }
}

/// Compare the engine's document texts with expected ones; the error
/// names the first document that differs.
pub fn check_texts(what: &str, expected: &[String], actual: &[String]) -> Result<(), GateFailure> {
    if expected.len() != actual.len() {
        return Err(GateFailure(format!(
            "{what}: {} documents expected, {} found",
            expected.len(),
            actual.len()
        )));
    }
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            return Err(GateFailure(format!(
                "{what}: document {i} differs ({} vs {} chars)",
                e.chars().count(),
                a.chars().count()
            )));
        }
    }
    Ok(())
}
