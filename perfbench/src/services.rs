//! Calls into the engine that several workloads make the same way:
//! visibility waits, folder refreshes, process round trips, and the
//! fresh reads the gates compare against.

use std::path::Path;
use std::time::{Duration, Instant};

use tendax_core::{
    Assignee, DocId, DurabilityLevel, EditorDoc, FolderRule, FolderSet, TaskSpec, Tendax, UserId,
};
use tendax_net::NetClient;

use crate::common::{check_texts, open_durable, GateFailure};
use crate::layers::Layers;
use crate::trace::{SpanId, Tracer};

/// Sync `obs` until it shows `want` characters. A timeout or a forced
/// resync is a failure of the op that made the edit.
pub fn observe(obs: &mut EditorDoc, want: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let resyncs = obs.stats().resyncs;
    obs.sync();
    while obs.len() != want {
        if Instant::now() > deadline {
            return Err(format!("observer stuck at {} of {want} chars", obs.len()));
        }
        obs.sync_timeout(Duration::from_millis(1));
    }
    if obs.stats().resyncs > resyncs {
        return Err("observer was forced to resync".into());
    }
    Ok(())
}

/// Define a task, find it in the assignee's inbox, complete it.
pub fn process_round_trip(
    tendax: &Tendax,
    tr: &mut Tracer,
    root: SpanId,
    doc: DocId,
    by: UserId,
    assignee: UserId,
) -> Result<(), String> {
    let p = tendax.process();
    let task = tr
        .call(root, "process.define", "process", || {
            p.define_task(doc, by, TaskSpec::new("review", Assignee::User(assignee)))
        })
        .map_err(|e| e.to_string())?;
    let inbox = tr
        .call(root, "process.inbox", "process", || p.inbox(assignee))
        .map_err(|e| e.to_string())?;
    if !inbox.iter().any(|t| t.id == task) {
        return Err("task not routed to the assignee's inbox".into());
    }
    tr.call(root, "process.complete", "process", || {
        p.complete(task, assignee, "done")
    })
    .map_err(|e| e.to_string())
}

/// The three folder kinds a workload refreshes: content, metadata
/// (`ReadBy` since now) and a composite of content with
/// `EditedSince`/`ReadBy`. Returns the folders and their `since`.
pub fn metadata_folders(
    tendax: &Tendax,
    owner: UserId,
    reader: UserId,
    content_term: &str,
    composite_term: &str,
) -> (Vec<(&'static str, FolderSet)>, i64) {
    let since = tendax.textdb().now();
    let read = FolderRule::ReadBy {
        user: reader.0,
        since,
    };
    let rules = [
        ("content", FolderRule::ContentContains(content_term.into())),
        ("metadata", read.clone()),
        (
            "composite",
            FolderRule::All(vec![
                FolderRule::ContentContains(composite_term.into()),
                FolderRule::Any(vec![FolderRule::EditedSince(since), read]),
            ]),
        ),
    ];
    let folders = rules
        .into_iter()
        .map(|(name, rule)| {
            let f = tendax
                .folders()
                .create_folder(&format!("folder-{name}"), owner, rule)
                .expect("folder");
            (name, tendax.folders().watch(f).expect("watch"))
        })
        .collect();
    (folders, since)
}

/// Refresh one folder of kind `rule` (see [`metadata_folders`]). A
/// traced refresh also counts the transactions and rows it cost.
pub fn refresh_folder(
    tendax: &Tendax,
    tr: &mut Tracer,
    root: SpanId,
    rule: &str,
    folder: &mut FolderSet,
    layers: &mut Layers,
) -> Result<(), String> {
    let span = match rule {
        "content" => "meta.folder_refresh.content",
        "metadata" => "meta.folder_refresh.metadata",
        _ => "meta.folder_refresh.composite",
    };
    let before = root.map(|_| tendax.stats());
    tr.call(root, span, "meta", || folder.refresh())
        .map_err(|e| e.to_string())?;
    if let Some(b) = before {
        let a = tendax.stats();
        layers.folder_refreshes += 1;
        layers.folder_txns += a.txns_begun - b.txns_begun;
        layers.folder_rows += a.rows_scanned - b.rows_scanned;
    }
    Ok(())
}

/// The database's text of every document, read through fresh handles.
pub fn engine_texts(
    tendax: &Tendax,
    docs: &[DocId],
    reader: UserId,
    layers: &mut Layers,
) -> Result<Vec<String>, GateFailure> {
    let mut texts = Vec::with_capacity(docs.len());
    for &d in docs {
        let opened = Instant::now();
        let h = tendax
            .textdb()
            .open(d, reader)
            .map_err(|e| GateFailure(format!("open for the gate: {e}")))?;
        layers.add_open(opened.elapsed(), h.chain_len());
        layers.add_chain(h.chain_len(), h.len());
        texts.push(h.text());
    }
    Ok(texts)
}

/// Once `client` has seen every acknowledged commit (`max_ts` per
/// document), its mirror of each document (wire ids `ids`) equals the
/// database's `texts`.
pub fn check_mirror(
    client: &NetClient,
    ids: &[u64],
    max_ts: &[u64],
    texts: &[String],
) -> Result<(), GateFailure> {
    for (d, (&id, text)) in ids.iter().zip(texts).enumerate() {
        if !client.wait_synced(id, max_ts[d], Duration::from_secs(10)) {
            return Err(GateFailure(format!(
                "client {}: mirror of doc {d} never reached ts {}",
                client.session(),
                max_ts[d]
            )));
        }
        let mirror = client.text(id).unwrap_or_default();
        if mirror != *text {
            return Err(GateFailure(format!(
                "client {}: mirror of doc {d} differs from the database ({} vs {} chars)",
                client.session(),
                mirror.chars().count(),
                text.chars().count()
            )));
        }
    }
    Ok(())
}

/// The file-backed engine at `path`, closed and reopened, recovers
/// `expected` byte for byte.
pub fn check_reopen(
    path: &Path,
    durability: DurabilityLevel,
    docs: &[DocId],
    reader: UserId,
    expected: &[String],
) -> Result<(), GateFailure> {
    let reopened =
        open_durable(path, durability).map_err(|e| GateFailure(format!("reopen: {e}")))?;
    let texts = engine_texts(&reopened, docs, reader, &mut Layers::default())?;
    check_texts("text after reopen", expected, &texts)
}
