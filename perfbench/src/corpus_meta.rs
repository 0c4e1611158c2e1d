//! `corpus_meta`: the metadata services over a fixed-size corpus.
//!
//! Set-up loads 96 documents of about 90 words each (about 4x the
//! ~15k characters lan_party ends with) into the engine. One
//! load thread then runs a closed loop of folder refreshes, searches
//! (re-index one document, then a two-word query) and mining sweeps,
//! interleaved with a trickle of typing, deletes, pastes, reads and
//! process round trips that touch few documents between refreshes. The
//! three folders use a `ContentContains` rule, a `ReadBy` rule and an
//! `All`/`Any` composite with `EditedSince`. One typist makes every
//! edit through editors opened at set-up; an observer session times
//! when each edit becomes visible, and a remote user on TCP mirrors
//! every document. The engine is file-backed (see [`DURABILITY`]).
//! Each repetition of [`REP_BLOCKS`] blocks loads a fresh corpus.
//!
//! The op mix is fixed per block of [`BLOCK`] ops and only the order
//! inside a block is drawn, so throughput does not swing with how many
//! expensive ops a seed happens to draw. The run context reports how
//! many documents changed between two refreshes of a folder, against
//! the corpus size: the share an incremental folder refresh would have
//! to re-examine.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tendax_bench::lanparty::WorkloadConfig;
use tendax_bench::workload::text_of_words;
use tendax_core::{
    DocId, DurabilityLevel, EditorDoc, EditorSession, FolderSet, Platform, SearchEngine,
    SearchQuery, Tendax, UserId,
};
use tendax_meta::search::tokenize;
use tendax_net::{ClientConfig, NetClient, NetConfig, NetServer};

use crate::common::{
    check_texts, durable_label, mix_seed, open_durable, peak_rss_mb, process_threads, GateFailure,
    TextModel, Zipf,
};
use crate::layers::{snap, Layers};
use crate::report::{finish, Context, EditSpans, Measured, Outcome, Tail};
use crate::services::{
    check_mirror, check_reopen, engine_texts, metadata_folders, observe, process_round_trip,
    refresh_folder,
};
use crate::trace::{SpanId, Tracer};

pub const DOCS: usize = 96;
pub const AUTHORS: usize = 8;
pub const WORDS_PER_DOC: usize = 90;
/// Rare words: each occurs in about a third of the documents, so folder
/// membership and search hits are selective.
pub const MARKERS: [&str; 6] = ["quasar", "zircon", "nebula", "fjord", "glyph", "ember"];
const CONTENT_TERM: &str = "quasar";
const COMPOSITE_TERM: &str = "zircon";
/// Blocks per repetition. Every repetition starts from a freshly loaded
/// corpus: each `TextDb::open` (every folder refresh and mining sweep
/// opens every document) records a read event, so a long-lived corpus
/// slows its own reads as a run goes on (mining took 77% longer after
/// 40 s than in the first 9 s), and a run that got through more ops
/// would measure a slower system.
pub const REP_BLOCKS: usize = 24;
/// Repetitions at least, so `setup_s` is a median of several set-ups.
const MIN_REPS: u64 = 3;
/// The engine is file-backed with a sharded WAL, so the WAL layer does
/// its share of every commit; without fsync, whose latency on a shared
/// disk would swamp the metadata services this workload is about.
pub const DURABILITY: DurabilityLevel = DurabilityLevel::Buffered;

/// One block of the op mix. The metadata ops keep the lan-party
/// scoreboard's folder 8 : search 8 : mining 2 (`OpMix::default()` in
/// `tendax_bench::lanparty`) as 4 : 4 : 1; the refreshes take the three
/// folders in turn. The writes keep the scoreboard's typing 60 :
/// paste 12 : process 10 as 5 : 1 : 1, one of the five typing ops a
/// delete, at one such group per block, plus one read for the `ReadBy`
/// folder: a trickle beside the scoreboard's 82 writes per 18 metadata
/// ops.
pub const BLOCK: [Kind; 17] = [
    Kind::Folder(0),
    Kind::Folder(0),
    Kind::Folder(0),
    Kind::Folder(0),
    Kind::Search,
    Kind::Search,
    Kind::Search,
    Kind::Search,
    Kind::Mining,
    Kind::Typing,
    Kind::Typing,
    Kind::Typing,
    Kind::Typing,
    Kind::Delete,
    Kind::Paste,
    Kind::Process,
    Kind::Read,
];

/// Folders refreshed in turn.
pub const FOLDERS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Folder(usize),
    Search,
    Mining,
    Typing,
    Delete,
    Paste,
    Read,
    Process,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Folder(_) => "folder",
            Kind::Search => "search",
            Kind::Mining => "mining",
            Kind::Typing => "typing",
            Kind::Delete => "delete",
            Kind::Paste => "paste",
            Kind::Read => "read",
            Kind::Process => "process",
        }
    }
}

/// One pre-drawn op. `doc`/`src`/`user` index the corpus; `a`, `b` are
/// position and length draws reduced against the live text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusOp {
    pub kind: Kind,
    pub doc: usize,
    pub src: usize,
    pub user: usize,
    pub a: u64,
    pub b: u64,
    pub text: String,
    pub term: String,
}

/// Words of corpus text: the shared vocabulary plus, rarely, a marker.
pub fn corpus_words(rng: &mut SmallRng, n: usize) -> String {
    let words: Vec<String> = (0..n)
        .map(|_| {
            if rng.gen_range(0..40) == 0 {
                MARKERS[rng.gen_range(0..MARKERS.len())].to_string()
            } else {
                text_of_words(rng, 1)
            }
        })
        .collect();
    words.join(" ")
}

/// The seeded op stream: an endless sequence of shuffled blocks.
pub struct OpStream {
    rng: SmallRng,
    zipf: Zipf,
    docs: usize,
    pending: Vec<Kind>,
    refreshes: usize,
}

impl OpStream {
    /// Documents are drawn with the scoreboard's Zipf skew.
    pub fn new(seed: u64, docs: usize) -> OpStream {
        OpStream {
            rng: SmallRng::seed_from_u64(mix_seed(seed, 0x4f50_5300)),
            zipf: Zipf::new(docs, WorkloadConfig::default().zipf_s),
            docs,
            pending: Vec::new(),
            refreshes: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = CorpusOp;

    fn next(&mut self) -> Option<CorpusOp> {
        if self.pending.is_empty() {
            self.pending = BLOCK.to_vec();
            for i in (1..self.pending.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.pending.swap(i, j);
            }
        }
        let mut kind = self.pending.pop().expect("refilled");
        if let Kind::Folder(_) = kind {
            kind = Kind::Folder(self.refreshes % FOLDERS);
            self.refreshes += 1;
        }
        let rng = &mut self.rng;
        let doc = self.zipf.sample(rng);
        let src = rng.gen_range(0..self.docs);
        let user = rng.gen_range(0..AUTHORS);
        let a = rng.gen_range(0..1u64 << 20);
        let b = rng.gen_range(1..13u64);
        let text = match kind {
            Kind::Typing => {
                let words = rng.gen_range(1..4);
                format!(" {}", corpus_words(rng, words))
            }
            _ => String::new(),
        };
        // Every query pairs a common word with a rare one, so every
        // search ranks a similar number of hits.
        let term = match kind {
            Kind::Search => {
                let common = text_of_words(rng, 1);
                format!("{common} {}", MARKERS[rng.gen_range(0..MARKERS.len())])
            }
            _ => String::new(),
        };
        Some(CorpusOp {
            kind,
            doc,
            src,
            user,
            a,
            b,
            text,
            term,
        })
    }
}

/// The corpus, its services, and the harness's own record of what it
/// did: the reference text model and which documents it read or edited
/// since the folders' `since`.
pub struct CorpusFixture {
    pub tendax: Tendax,
    pub users: Vec<UserId>,
    pub reader: UserId,
    pub docs: Vec<DocId>,
    pub typist: UserId,
    _sessions: [EditorSession; 2],
    /// The typist's editor on every document, open since set-up (the
    /// "everyone has their windows open" steady state).
    editors: Vec<EditorDoc>,
    /// A second user's view of every document, for visibility.
    observers: Vec<EditorDoc>,
    folders: Vec<(&'static str, FolderSet)>,
    search: SearchEngine,
    pub model: TextModel,
    pub read: BTreeSet<usize>,
    pub edited: BTreeSet<usize>,
    /// Documents changed since the search index last saw them.
    dirty: BTreeSet<usize>,
    /// Per folder, documents whose text or read record changed since
    /// its last refresh; and how many that was at each refresh.
    changed: [BTreeSet<usize>; FOLDERS],
    pub changed_per_refresh: Vec<usize>,
    /// A remote user on TCP who mirrors every document, so every edit
    /// also crosses the network layer.
    server: NetServer,
    pub watcher: NetClient,
    pub wire_ids: Vec<u64>,
    /// Highest commit timestamp of the harness's edits, per document.
    pub max_ts: Vec<u64>,
    pub path: PathBuf,
}

pub fn set_up(seed: u64, docs: usize, dir: &Path) -> CorpusFixture {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("data dir");
    let path = dir.join("corpus.wal");
    let tendax = open_durable(&path, DURABILITY).expect("file-backed engine");
    let users: Vec<UserId> = (0..AUTHORS)
        .map(|i| tendax.create_user(&format!("author{i}")).expect("user"))
        .collect();
    let reader = tendax.create_user("reader").expect("reader");
    let typist = tendax.create_user("typist").expect("typist");
    tendax.create_user("observer").expect("observer");
    tendax.create_user("watcher").expect("watcher");
    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 0x434f_5250));
    let mut model = TextModel::new(docs);
    let doc_ids: Vec<DocId> = (0..docs)
        .map(|d| {
            let doc = tendax
                .create_document(&format!("doc{d:04}"), users[d % AUTHORS])
                .expect("doc");
            // Three bursts by different authors at drawn positions.
            for b in 0..3 {
                let author = users[(d + b) % AUTHORS];
                let mut h = tendax.textdb().open(doc, author).expect("open");
                let text = corpus_words(&mut rng, WORDS_PER_DOC / 3);
                let text = if b == 0 { text } else { format!(" {text}") };
                let pos = rng.gen_range(0..=h.len());
                h.insert_text(pos, &text).expect("load text");
                model.insert(d, pos, &text);
            }
            doc
        })
        .collect();
    let sessions = ["typist", "observer"].map(|name| {
        tendax
            .connect(name, Platform::Linux)
            .expect("editor session")
    });
    let [editors, observers] = [0, 1].map(|s| {
        doc_ids
            .iter()
            .map(|&d| sessions[s].open_id(d).expect("editor"))
            .collect::<Vec<_>>()
    });
    let search = tendax.search().expect("search engine");
    let (folders, _since) =
        metadata_folders(&tendax, users[0], reader, CONTENT_TERM, COMPOSITE_TERM);
    let server = NetServer::bind("127.0.0.1:0", tendax.server().clone(), NetConfig::default())
        .expect("bind");
    let watcher = NetClient::connect_with(server.local_addr(), "watcher", ClientConfig::default())
        .expect("connect");
    let wire_ids = (0..docs)
        .map(|d| watcher.subscribe(&format!("doc{d:04}")).expect("subscribe"))
        .collect();
    CorpusFixture {
        tendax,
        users,
        reader,
        docs: doc_ids,
        typist,
        _sessions: sessions,
        editors,
        observers,
        folders,
        search,
        model,
        read: BTreeSet::new(),
        edited: BTreeSet::new(),
        dirty: BTreeSet::new(),
        changed: Default::default(),
        changed_per_refresh: Vec::new(),
        server,
        watcher,
        wire_ids,
        max_ts: vec![0; docs],
        path,
    }
}

fn note_change(changed: &mut [BTreeSet<usize>; FOLDERS], doc: usize) {
    for c in changed {
        c.insert(doc);
    }
}

impl CorpusFixture {
    /// A forced resync of the TCP watcher's mirror of `doc` is counted
    /// and fails the op; the mirror is reloaded, so later ops and the
    /// gate see it whole.
    fn check_resync(&self, doc: usize, layers: &mut Layers) -> Result<(), String> {
        let id = self.wire_ids[doc];
        if !self.watcher.needs_resync(id) {
            return Ok(());
        }
        layers.client_resyncs += 1;
        self.watcher
            .resync(id)
            .map_err(|e| format!("TCP mirror resync: {e}"))?;
        Err("the TCP mirror was forced to resync".into())
    }
}

/// In a traced op, time how long the TCP watcher's mirror takes to
/// catch up with the edit. Untraced ops leave the mirror to catch up in
/// the background, so it never slows the measured loop.
fn remote_lag(
    fx: &CorpusFixture,
    tr: &mut Tracer,
    root: SpanId,
    doc: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let (watcher, id, ts) = (&fx.watcher, fx.wire_ids[doc], fx.max_ts[doc]);
    let synced = root.is_none()
        || tr.call(root, "net.wait_synced", "net", || {
            watcher.wait_synced(id, ts, Duration::from_secs(5))
        });
    fx.check_resync(doc, layers)?;
    if synced {
        Ok(())
    } else {
        Err("the TCP mirror never synced past the edit".into())
    }
}

fn run_op(
    fx: &mut CorpusFixture,
    op: &CorpusOp,
    tr: &mut Tracer,
    root: SpanId,
    t0: Instant,
    out: &mut Measured,
) -> Result<(), String> {
    match op.kind {
        Kind::Folder(k) => {
            let (rule, folder) = &mut fx.folders[k];
            refresh_folder(&fx.tendax, tr, root, rule, folder, &mut out.layers)?;
            out.sample("folder", t0.elapsed());
            fx.changed_per_refresh.push(fx.changed[k].len());
            fx.changed[k].clear();
        }
        Kind::Search => {
            // Re-index the drawn document, as an editor's save does.
            let (search, doc) = (&mut fx.search, fx.docs[op.doc]);
            tr.call(root, "meta.search_update", "meta", || {
                search.update_document(doc)
            })
            .map_err(|e| e.to_string())?;
            fx.dirty.remove(&op.doc);
            let query = SearchQuery::terms(&op.term).limit(10);
            let search = &fx.search;
            tr.call(root, "meta.search_query", "meta", || search.search(&query))
                .map_err(|e| e.to_string())?;
            out.sample("search", t0.elapsed());
        }
        Kind::Mining => {
            let tendax = &fx.tendax;
            tr.call(root, "meta.mining", "meta", || tendax.document_space(4))
                .map_err(|e| e.to_string())?;
            out.sample("mining", t0.elapsed());
        }
        Kind::Typing | Kind::Delete => {
            let ed = &mut fx.editors[op.doc];
            let resyncs = ed.stats().resyncs;
            tr.call(root, "collab.sync", "collab", || ed.sync());
            let len = ed.len();
            let receipt = if op.kind == Kind::Typing {
                let pos = (op.a as usize) % (len + 1);
                let receipt = tr
                    .call(root, "collab.edit", "collab", || {
                        ed.type_text(pos, &op.text)
                    })
                    .map_err(|e| e.to_string())?;
                fx.model.insert(op.doc, pos, &op.text);
                out.layers.chars_written += op.text.chars().count() as u64;
                receipt
            } else {
                if len == 0 {
                    return Ok(());
                }
                let pos = (op.a as usize) % len;
                let n = (op.b as usize).min(len - pos);
                let receipt = tr
                    .call(root, "collab.edit", "collab", || ed.delete(pos, n))
                    .map_err(|e| e.to_string())?;
                fx.model.delete(op.doc, pos, n);
                receipt
            };
            out.edit(root.is_some(), t0.elapsed());
            fx.max_ts[op.doc] = fx.max_ts[op.doc].max(receipt.commit_ts);
            fx.edited.insert(op.doc);
            fx.dirty.insert(op.doc);
            note_change(&mut fx.changed, op.doc);
            if ed.stats().resyncs > resyncs {
                return Err("editor was forced to resync".into());
            }
            let want = ed.len();
            let obs = &mut fx.observers[op.doc];
            tr.call(root, "collab.observe", "collab", || observe(obs, want))?;
            out.sample("visible", t0.elapsed());
            remote_lag(fx, tr, root, op.doc, &mut out.layers)?;
        }
        Kind::Paste => {
            let by = fx.typist;
            let opened = Instant::now();
            let hs = tr
                .call(root, "text.open", "text", || {
                    fx.tendax.textdb().open(fx.docs[op.src], by)
                })
                .map_err(|e| e.to_string())?;
            out.layers.add_open(opened.elapsed(), hs.chain_len());
            if hs.len() < 2 {
                return Ok(());
            }
            let start = (op.a as usize) % (hs.len() - 1);
            let len = (op.b as usize).min(hs.len() - start);
            let clip = tr
                .call(root, "text.copy", "text", || hs.copy(start, len))
                .map_err(|e| e.to_string())?;
            let clip_text: String = fx.model.docs[op.src]
                .get(start..start + len)
                .ok_or("the source document no longer matches the model")?
                .iter()
                .collect();
            let ed = &mut fx.editors[op.doc];
            tr.call(root, "collab.sync", "collab", || ed.sync());
            let pos = (op.a as usize) % (ed.len() + 1);
            let receipt = tr
                .call(root, "collab.paste", "collab", || ed.paste(pos, &clip))
                .map_err(|e| e.to_string())?;
            fx.max_ts[op.doc] = fx.max_ts[op.doc].max(receipt.commit_ts);
            fx.model.insert(op.doc, pos, &clip_text);
            out.layers.chars_written += len as u64;
            out.sample("paste", t0.elapsed());
            fx.edited.insert(op.doc);
            fx.dirty.insert(op.doc);
            let want = ed.len();
            note_change(&mut fx.changed, op.doc);
            observe(&mut fx.observers[op.doc], want)?;
            remote_lag(fx, tr, root, op.doc, &mut out.layers)?;
        }
        Kind::Read => {
            let (doc, reader) = (fx.docs[op.doc], fx.reader);
            let opened = Instant::now();
            let h = tr
                .call(root, "text.open", "text", || {
                    fx.tendax.textdb().open(doc, reader)
                })
                .map_err(|e| e.to_string())?;
            out.layers.add_open(opened.elapsed(), h.chain_len());
            fx.read.insert(op.doc);
            note_change(&mut fx.changed, op.doc);
        }
        Kind::Process => {
            let doc = fx.docs[op.doc];
            let by = fx.users[op.user];
            let assignee = fx.users[(op.user + 1) % fx.users.len()];
            process_round_trip(&fx.tendax, tr, root, doc, by, assignee)?;
            out.sample("process", t0.elapsed());
        }
    }
    Ok(())
}

/// Drive `blocks` blocks of the op stream; trace op ids start at
/// `op_base`.
pub fn drive(
    fx: &mut CorpusFixture,
    seed: u64,
    blocks: usize,
    op_base: u64,
    tr: &mut Tracer,
) -> Measured {
    let mut out = Measured::new();
    let before = snap(&fx.tendax);
    let net_before = fx.server.stats();
    let start = Instant::now();
    let ops = OpStream::new(seed, fx.docs.len()).take(blocks * BLOCK.len());
    for (i, op) in ops.enumerate() {
        let t0 = Instant::now();
        let label = op.kind.label();
        let root = tr.root(label, op_base + i as u64, t0);
        match run_op(fx, &op, tr, root, t0, &mut out) {
            Ok(()) => out.acc.ok(label),
            Err(e) => out.acc.fail(label, e),
        }
        tr.close(root, Instant::now());
        out.ops += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    // A mirror flagged after its last edit's check fails one more op.
    for d in 0..fx.docs.len() {
        if let Err(e) = fx.check_resync(d, &mut out.layers) {
            out.acc.fail("mirror", e);
        }
    }
    out.layers.ops = out.ops;
    out.layers.threads_peak = process_threads();
    for ed in fx.editors.iter_mut().chain(fx.observers.iter_mut()) {
        ed.sync();
    }
    for ed in fx.editors.iter().chain(fx.observers.iter()) {
        out.layers.add_editor(ed);
    }
    let after = snap(&fx.tendax);
    out.layers.add_engine(&before, &after, &fx.tendax);
    out.layers.add_net(&net_before, &fx.server.stats());
    out
}

/// Folder membership by brute force over the harness's own record.
pub fn expected_folder(fx: &CorpusFixture, rule: &str) -> BTreeSet<usize> {
    let contains = |d: usize, term: &str| fx.model.text(d).contains(term);
    (0..fx.docs.len())
        .filter(|&d| match rule {
            "content" => contains(d, CONTENT_TERM),
            "metadata" => fx.read.contains(&d),
            _ => contains(d, COMPOSITE_TERM) && (fx.edited.contains(&d) || fx.read.contains(&d)),
        })
        .collect()
}

/// The corpus_meta gate: the text equals the model, and final folder
/// memberships and search hits equal a brute-force evaluation over the
/// documents' text and the harness's read/edit record.
pub fn gate(fx: &mut CorpusFixture, layers: &mut Layers) -> Result<Vec<String>, GateFailure> {
    let texts = engine_texts(&fx.tendax, &fx.docs, fx.users[0], layers)?;
    check_texts("corpus_meta text", &fx.model.texts(), &texts)?;
    check_mirror(&fx.watcher, &fx.wire_ids, &fx.max_ts, &texts)?;
    let index_of: HashMap<DocId, usize> =
        fx.docs.iter().enumerate().map(|(i, d)| (*d, i)).collect();
    for k in 0..fx.folders.len() {
        let (rule, folder) = &mut fx.folders[k];
        let rule = *rule;
        folder
            .refresh()
            .map_err(|e| GateFailure(format!("final {rule} folder refresh: {e}")))?;
        let got: BTreeSet<usize> = folder.contents().iter().map(|d| index_of[d]).collect();
        let want = expected_folder(fx, rule);
        if got != want {
            return Err(GateFailure(format!(
                "{rule} folder holds {got:?}, brute force says {want:?}"
            )));
        }
    }
    for d in std::mem::take(&mut fx.dirty) {
        fx.search
            .update_document(fx.docs[d])
            .map_err(|e| GateFailure(format!("final re-index: {e}")))?;
    }
    let terms: Vec<String> = MARKERS
        .iter()
        .map(|m| m.to_string())
        .chain(["database", "editor"].map(String::from))
        .collect();
    for term in terms {
        let hits = fx
            .search
            .search(&SearchQuery::terms(&term).limit(fx.docs.len()))
            .map_err(|e| GateFailure(format!("final search for {term}: {e}")))?;
        let got: BTreeSet<usize> = hits.iter().map(|h| index_of[&h.doc]).collect();
        let want: BTreeSet<usize> = (0..fx.docs.len())
            .filter(|&d| tokenize(&fx.model.text(d)).contains(&term))
            .collect();
        if got != want {
            return Err(GateFailure(format!(
                "search for {term} hits {got:?}, brute force says {want:?}"
            )));
        }
    }
    Ok(texts)
}

const TAILS: [Tail; 4] = [
    Tail {
        metric: "edit_tail_ms",
        class: "edit",
        pct: 95.0,
    },
    Tail {
        metric: "visible_tail_ms",
        class: "visible",
        pct: 95.0,
    },
    Tail {
        metric: "folder_tail_ms",
        class: "folder",
        pct: 96.0,
    },
    Tail {
        metric: "search_tail_ms",
        class: "search",
        pct: 96.0,
    },
];

/// Run the workload: repetitions of [`REP_BLOCKS`] blocks, each on a
/// fresh corpus and gated on its own, until the measured ops have taken
/// `seconds`. Repetition 0 uses the run's seed, later ones sub-seeds of
/// it. WAL files live under `data_dir`, removed at the end.
pub fn run(seed: u64, seconds: f64, trace: bool, data_dir: &Path) -> Result<Outcome, GateFailure> {
    let mut tr = Tracer::new(trace, Instant::now());
    let mut out = Measured::new();
    let (mut peak_rss, mut corpus_chars) = (0.0, 0);
    let (mut changed, mut edited, mut read) = (Vec::new(), 0, 0);
    let mut rep = 0u64;
    while rep < MIN_REPS || out.wall_s < seconds {
        let rep_seed = if rep == 0 { seed } else { mix_seed(seed, rep) };
        let dir = data_dir.join(format!("rep{rep}"));
        let t = Instant::now();
        let mut fx = set_up(rep_seed, DOCS, &dir);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            corpus_chars = fx.model.docs.iter().map(Vec::len).sum::<usize>();
        }
        let op_base = rep * (REP_BLOCKS * BLOCK.len()) as u64;
        let mut m = drive(&mut fx, rep_seed, REP_BLOCKS, op_base, &mut tr);
        if rep == 0 {
            // Before any gate, which may hold a second copy of the data;
            // every repetition has the same size.
            peak_rss = peak_rss_mb();
        }
        let texts = gate(&mut fx, &mut m.layers)?;
        changed.extend_from_slice(&fx.changed_per_refresh);
        edited += fx.edited.len();
        read += fx.read.len();
        let (path, docs, reader) = (fx.path.clone(), fx.docs.clone(), fx.users[0]);
        drop(fx);
        check_reopen(&path, DURABILITY, &docs, reader, &texts)?;
        let _ = std::fs::remove_dir_all(&dir);
        out.merge(&m);
        rep += 1;
    }
    let _ = std::fs::remove_dir_all(data_dir);

    let mut ctx = Context::default();
    ctx.str("engine", &durable_label(DURABILITY));
    ctx.str(
        "load",
        "1 load thread, closed loop, concurrency 1; 1 TCP client mirrors every document",
    );
    ctx.num("docs", DOCS as f64);
    ctx.num("corpus_chars", corpus_chars as f64);
    ctx.num("ops_per_rep", (REP_BLOCKS * BLOCK.len()) as f64);
    ctx.num("reps", rep as f64);
    let per_rep = |n: usize| n as f64 / rep as f64;
    ctx.num("docs_edited_per_rep", per_rep(edited));
    ctx.num("docs_read_per_rep", per_rep(read));
    let changed = changed.iter().sum::<usize>() as f64 / changed.len().max(1) as f64;
    ctx.num("docs_changed_per_folder_refresh", changed);
    ctx.num("changed_share_per_folder_refresh", changed / DOCS as f64);
    let ops_per_s = out.ops as f64 / out.wall_s.max(1e-9);
    let edit = EditSpans {
        roots: &["typing", "delete"],
        children: &["collab.sync", "collab.edit"],
    };
    Ok(finish(out, tr, ops_per_s, peak_rss, &TAILS, edit, ctx))
}
