//! `lan_party`: the repository's scoreboard schedule, in process.
//!
//! The seeded mixed schedule of `tendax_bench::lanparty` (typing 60 /
//! paste 12 / folder 8 / search 8 / mining 2 / process 10 over 8 users
//! and 16 Zipf-popular documents) runs on the in-process `LanBus` with
//! an in-memory engine, one load thread in a closed loop at concurrency 1.
//! Each repetition starts from a fresh fixture, so every repetition sees
//! the same corpus growth; repetitions run until the measuring time is
//! used up. The first repetition runs the schedule of the run's seed;
//! the later ones cycle through the pinned companion seeds. A schedule
//! holds only ~24 mining sweeps and ~96 folder refreshes whose cost
//! depends on how far the corpus has grown when they fall, so a run
//! made of eight unrelated schedules would move its medians by which
//! schedules a seed happened to draw. An observer session holds every
//! document open and times when a typing burst becomes visible to it.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tendax_bench::lanparty::{generate, OpClass, Schedule, WorkloadConfig};
use tendax_bench::workload::text_of_words;
use tendax_core::{
    DocId, EditorDoc, EditorSession, FolderRule, FolderSet, Platform, SearchEngine, SearchQuery,
    Tendax, UserId,
};

use crate::common::{
    check_texts, in_memory_tendax, peak_rss_mb, process_threads, texts_digest, GateFailure,
    TextModel,
};
use crate::layers::{snap, Layers};
use crate::pinned;
use crate::report::{finish, Context, EditSpans, Measured, Outcome, Tail};
use crate::services::{engine_texts, observe, process_round_trip, refresh_folder};
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone)]
pub struct LanPartyConfig {
    pub users: usize,
    pub docs: usize,
    pub ops: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl LanPartyConfig {
    /// The scoreboard shape: 8 users, 16 documents, 1 200 ops.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> LanPartyConfig {
        LanPartyConfig {
            users: 8,
            docs: 16,
            ops: 1_200,
            seed,
            seconds,
            trace,
        }
    }
}

/// Schedule of repetition `rep`: the run's seed first, then the pinned
/// companion seeds in turn.
pub fn schedule(cfg: &LanPartyConfig, rep: u64) -> Schedule {
    let seed = match rep {
        0 => cfg.seed,
        r => pinned::LAN_PARTY[(r as usize - 1) % pinned::LAN_PARTY.len()].0,
    };
    generate(&WorkloadConfig {
        users: cfg.users,
        docs: cfg.docs,
        ops: cfg.ops,
        seed,
        ..WorkloadConfig::default()
    })
}

fn unpack_paste(b: u64) -> (usize, usize, usize) {
    (
        (b >> 32) as usize,
        ((b >> 8) & 0xFFFF) as usize,
        (b & 0xFF) as usize,
    )
}

/// The search vocabulary, indexed by the op's pre-drawn `a` (as the
/// scoreboard draws it).
fn search_term(a: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(a);
    text_of_words(&mut rng, 1)
}

/// Replay a schedule's text ops on the reference model: the final text
/// every document must end with.
pub fn model_texts(schedule: &Schedule) -> Vec<String> {
    let mut m = TextModel::new(schedule.config.docs);
    for op in &schedule.ops {
        match op.class {
            OpClass::Typing => {
                let pos = (op.a as usize) % (m.docs[op.doc].len() + 1);
                m.insert(op.doc, pos, &op.text);
            }
            OpClass::Paste => {
                let (src, start_draw, len_draw) = unpack_paste(op.b);
                let src = &m.docs[src % schedule.config.docs];
                if src.len() < 2 {
                    continue;
                }
                let start = start_draw % (src.len() - 1);
                let len = (len_draw % (src.len() - start)).max(1);
                let clip: String = src[start..start + len].iter().collect();
                let pos = (op.a as usize) % (m.docs[op.doc].len() + 1);
                m.insert(op.doc, pos, &clip);
            }
            _ => {}
        }
    }
    m.texts()
}

/// One repetition's engine, sessions and metadata services.
pub struct Fixture {
    pub tendax: Tendax,
    pub users: Vec<UserId>,
    pub docs: Vec<DocId>,
    sessions: Vec<EditorSession>,
    _observer_session: EditorSession,
    observers: Vec<EditorDoc>,
    editors: HashMap<(usize, usize), EditorDoc>,
    folder: FolderSet,
    search: SearchEngine,
}

fn build_fixture(users: usize, docs: usize) -> Fixture {
    let tendax = in_memory_tendax();
    let user_ids: Vec<UserId> = (0..users)
        .map(|i| tendax.create_user(&format!("user{i}")).expect("user"))
        .collect();
    let doc_ids: Vec<DocId> = (0..docs)
        .map(|d| {
            tendax
                .create_document(&format!("doc{d:04}"), user_ids[d % users])
                .expect("doc")
        })
        .collect();
    let sessions = (0..users)
        .map(|i| {
            tendax
                .connect(&format!("user{i}"), Platform::Linux)
                .expect("connect")
        })
        .collect();
    tendax.create_user("observer").expect("observer user");
    let observer_session = tendax
        .connect("observer", Platform::Linux)
        .expect("observer session");
    let observers = doc_ids
        .iter()
        .map(|&d| observer_session.open_id(d).expect("observer editor"))
        .collect();
    let folder_id = tendax
        .folders()
        .create_folder(
            "lan-party-hot",
            user_ids[0],
            FolderRule::ContentContains("database".into()),
        )
        .expect("folder");
    let folder = tendax.folders().watch(folder_id).expect("watch");
    let search = tendax.search().expect("search engine");
    Fixture {
        tendax,
        users: user_ids,
        docs: doc_ids,
        sessions,
        _observer_session: observer_session,
        observers,
        editors: HashMap::new(),
        folder,
        search,
    }
}

fn editor<'a>(
    editors: &'a mut HashMap<(usize, usize), EditorDoc>,
    sessions: &[EditorSession],
    docs: &[DocId],
    user: usize,
    doc: usize,
) -> tendax_core::Result<&'a mut EditorDoc> {
    use std::collections::hash_map::Entry;
    match editors.entry((user, doc)) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => Ok(v.insert(sessions[user].open_id(docs[doc])?)),
    }
}

fn class_label(c: OpClass) -> &'static str {
    match c {
        OpClass::Typing => "typing",
        OpClass::Paste => "paste",
        OpClass::FolderRefresh => "folder",
        OpClass::Search => "search",
        OpClass::Mining => "mining",
        OpClass::Process => "process",
    }
}

/// Run one op; `Err` carries the reason it failed.
fn run_op(
    fx: &mut Fixture,
    schedule: &Schedule,
    i: usize,
    tr: &mut Tracer,
    root: SpanId,
    t0: Instant,
    out: &mut Measured,
) -> Result<(), String> {
    let op = &schedule.ops[i];
    match op.class {
        OpClass::Typing => {
            let ed = tr
                .call(root, "collab.open", "collab", || {
                    editor(&mut fx.editors, &fx.sessions, &fx.docs, op.user, op.doc)
                })
                .map_err(|e| e.to_string())?;
            let resyncs = ed.stats().resyncs;
            tr.call(root, "collab.sync", "collab", || ed.sync());
            let pos = (op.a as usize) % (ed.len() + 1);
            tr.call(root, "collab.edit", "collab", || {
                ed.type_text(pos, &op.text)
            })
            .map_err(|e| e.to_string())?;
            out.edit(root.is_some(), t0.elapsed());
            out.layers.chars_written += op.text.chars().count() as u64;
            if ed.stats().resyncs > resyncs {
                return Err("editor was forced to resync".into());
            }
            let want = ed.len();
            let obs = &mut fx.observers[op.doc];
            tr.call(root, "collab.observe", "collab", || observe(obs, want))?;
            out.sample("visible", t0.elapsed());
        }
        OpClass::Paste => {
            let (src, start_draw, len_draw) = unpack_paste(op.b);
            let src = fx.docs[src % schedule.config.docs];
            let by = fx.users[op.user];
            let opened = Instant::now();
            let hs = tr
                .call(root, "text.open", "text", || {
                    fx.tendax.textdb().open(src, by)
                })
                .map_err(|e| e.to_string())?;
            out.layers.add_open(opened.elapsed(), hs.chain_len());
            if hs.len() < 2 {
                return Ok(());
            }
            let start = start_draw % (hs.len() - 1);
            let len = (len_draw % (hs.len() - start)).max(1);
            let clip = tr
                .call(root, "text.copy", "text", || hs.copy(start, len))
                .map_err(|e| e.to_string())?;
            let ed = tr
                .call(root, "collab.open", "collab", || {
                    editor(&mut fx.editors, &fx.sessions, &fx.docs, op.user, op.doc)
                })
                .map_err(|e| e.to_string())?;
            tr.call(root, "collab.sync", "collab", || ed.sync());
            let pos = (op.a as usize) % (ed.len() + 1);
            tr.call(root, "collab.paste", "collab", || ed.paste(pos, &clip))
                .map_err(|e| e.to_string())?;
            out.sample("paste", t0.elapsed());
            out.layers.chars_written += len as u64;
            let want = ed.len();
            observe(&mut fx.observers[op.doc], want)?;
        }
        OpClass::FolderRefresh => {
            let (tendax, folder, layers) = (&fx.tendax, &mut fx.folder, &mut out.layers);
            refresh_folder(tendax, tr, root, "content", folder, layers)?;
            out.sample("folder", t0.elapsed());
        }
        OpClass::Search => {
            let doc = fx.docs[op.doc];
            let search = &mut fx.search;
            tr.call(root, "meta.search_update", "meta", || {
                search.update_document(doc)
            })
            .map_err(|e| e.to_string())?;
            let query = SearchQuery::terms(&search_term(op.a)).limit(10);
            tr.call(root, "meta.search_query", "meta", || search.search(&query))
                .map_err(|e| e.to_string())?;
            out.sample("search", t0.elapsed());
        }
        OpClass::Mining => {
            let k = 4.min(fx.docs.len());
            let tendax = &fx.tendax;
            tr.call(root, "meta.mining", "meta", || tendax.document_space(k))
                .map_err(|e| e.to_string())?;
            out.sample("mining", t0.elapsed());
        }
        OpClass::Process => {
            let doc = fx.docs[op.doc];
            let by = fx.users[op.user];
            let assignee = fx.users[(op.a as usize) % fx.users.len()];
            process_round_trip(&fx.tendax, tr, root, doc, by, assignee)?;
            out.sample("process", t0.elapsed());
        }
    }
    Ok(())
}

/// Build a fixture and drive one schedule through it.
pub fn run_schedule(
    schedule: &Schedule,
    tr: &mut Tracer,
    op_base: u64,
    out: &mut Measured,
) -> Fixture {
    let set_up = Instant::now();
    let mut fx = build_fixture(schedule.config.users, schedule.config.docs);
    out.setup_s.push(set_up.elapsed().as_secs_f64());

    let before = snap(&fx.tendax);
    let start = Instant::now();
    for i in 0..schedule.ops.len() {
        let t0 = Instant::now();
        let class = class_label(schedule.ops[i].class);
        let root = tr.root(class, op_base + i as u64, t0);
        match run_op(&mut fx, schedule, i, tr, root, t0, out) {
            Ok(()) => out.acc.ok(class),
            Err(e) => out.acc.fail(class, e),
        }
        tr.close(root, Instant::now());
    }
    out.wall_s += start.elapsed().as_secs_f64();
    out.ops += schedule.ops.len() as u64;
    out.layers.ops += schedule.ops.len() as u64;
    out.layers.threads_peak = out.layers.threads_peak.max(process_threads());
    for ed in fx.editors.values_mut().chain(fx.observers.iter_mut()) {
        ed.sync();
    }
    for ed in fx.editors.values().chain(fx.observers.iter()) {
        out.layers.add_editor(ed);
    }
    let after = snap(&fx.tendax);
    out.layers.add_engine(&before, &after, &fx.tendax);
    fx
}

/// The lan_party gate: the database's final text equals the reference
/// model's, and for a pinned seed both digests equal the pinned ones.
/// Returns the doc digest.
pub fn gate(fx: &Fixture, schedule: &Schedule, layers: &mut Layers) -> Result<u64, GateFailure> {
    let texts = engine_texts(&fx.tendax, &fx.docs, fx.users[0], layers)?;
    check_texts("lan_party final text", &model_texts(schedule), &texts)?;
    let digest = texts_digest(&texts);
    pinned::check_lan_party(schedule, digest)?;
    Ok(digest)
}

const TAILS: [Tail; 4] = [
    Tail {
        metric: "edit_tail_ms",
        class: "edit",
        pct: 99.5,
    },
    Tail {
        metric: "visible_tail_ms",
        class: "visible",
        pct: 99.5,
    },
    Tail {
        metric: "folder_tail_ms",
        class: "folder",
        pct: 98.0,
    },
    Tail {
        metric: "search_tail_ms",
        class: "search",
        pct: 98.0,
    },
];

pub fn run(cfg: &LanPartyConfig) -> Result<Outcome, GateFailure> {
    pinned::check_generator()?;
    let mut tr = Tracer::new(cfg.trace, Instant::now());
    let mut out = Measured::new();
    let mut digests = Vec::new();
    let started = Instant::now();
    let mut rep = 0u64;
    while rep == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let s = schedule(cfg, rep);
        let mut rep_out = Measured::new();
        let fx = run_schedule(&s, &mut tr, rep * s.ops.len() as u64, &mut rep_out);
        let digest = gate(&fx, &s, &mut rep_out.layers)?;
        digests.push(format!(
            "{{\"seed\":{},\"schedule_digest\":\"{:016x}\",\"doc_digest\":\"{digest:016x}\"}}",
            s.config.seed,
            s.digest()
        ));
        drop(fx);
        out.merge(&rep_out);
        rep += 1;
    }

    let mut ctx = Context::default();
    ctx.str("engine", "in-memory, ClockMode::Logical");
    ctx.str("load", "1 load thread, closed loop, concurrency 1");
    ctx.num("users", cfg.users as f64);
    ctx.num("docs", cfg.docs as f64);
    ctx.num("ops_per_rep", cfg.ops as f64);
    ctx.num("reps", rep as f64);
    ctx.raw("digests", format!("[{}]", digests.join(",")));
    let ops_per_s = out.ops as f64 / out.wall_s.max(1e-9);
    let edit = EditSpans {
        roots: &["typing"],
        children: &["collab.open", "collab.sync", "collab.edit"],
    };
    Ok(finish(out, tr, ops_per_s, peak_rss_mb(), &TAILS, edit, ctx))
}
