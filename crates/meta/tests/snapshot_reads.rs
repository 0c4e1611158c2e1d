//! The metadata services read one snapshot and write nothing: folder
//! refreshes, mining sweeps and search indexing commit no transaction
//! (so they never forge read events), one folder evaluation begins one
//! transaction, and a rule evaluated in one snapshot cannot contradict
//! itself while a writer edits the corpus.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use tendax_meta::{top_terms, DocumentSpace, DynamicFolders, FolderRule, SearchEngine};
use tendax_text::{DocId, TextDb, UserId};

/// Three documents by `alice`, with text, plus `bob`.
fn corpus() -> (TextDb, UserId, UserId, Vec<DocId>) {
    let tdb = TextDb::in_memory();
    let alice = tdb.create_user("alice").unwrap();
    let bob = tdb.create_user("bob").unwrap();
    let texts = ["quarterly revenue grew", "revenue flat", "meeting notes"];
    let docs = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let d = tdb.create_document(&format!("doc{i}"), alice).unwrap();
            tdb.open(d, alice).unwrap().insert_text(0, text).unwrap();
            d
        })
        .collect();
    (tdb, alice, bob, docs)
}

#[test]
fn metadata_reads_write_nothing() {
    let (tdb, alice, _bob, docs) = corpus();
    let folders = DynamicFolders::init(tdb.clone()).unwrap();
    let f = folders
        .create_folder(
            "revenue",
            alice,
            FolderRule::ContentContains("revenue".into()),
        )
        .unwrap();
    let mut set = folders.watch(f).unwrap();
    let since = tdb.now();
    let commits = tdb.database().stats().commits;

    set.refresh().unwrap();
    DocumentSpace::build(&tdb, 2).unwrap();
    top_terms(&tdb, docs[0], 3).unwrap();
    let mut engine = SearchEngine::build(&tdb).unwrap();
    engine.update_document(docs[1]).unwrap();

    assert_eq!(tdb.database().stats().commits, commits);
    let read_by_creator = FolderRule::ReadBy {
        user: alice.0,
        since,
    };
    assert!(folders.evaluate_rule(&read_by_creator).unwrap().is_empty());
}

#[test]
fn one_folder_evaluation_begins_one_transaction() {
    let (tdb, alice, bob, docs) = corpus();
    let folders = DynamicFolders::init(tdb.clone()).unwrap();
    tdb.open(docs[2], bob).unwrap();
    let rule = FolderRule::All(vec![
        FolderRule::Any(vec![
            FolderRule::ContentContains("revenue".into()),
            FolderRule::ReadBy {
                user: bob.0,
                since: 0,
            },
        ]),
        FolderRule::Any(vec![
            FolderRule::EditedSince(0),
            FolderRule::PastedFrom { doc: docs[0].0 },
            FolderRule::HasOpenTasks,
        ]),
        FolderRule::Not(Box::new(FolderRule::MinSize(1000))),
        FolderRule::AuthoredBy { user: alice.0 },
        FolderRule::StateIs("draft".into()),
    ]);
    let f = folders.create_folder("mixed", alice, rule.clone()).unwrap();
    let mut set = folders.watch(f).unwrap();

    let begun = || tdb.database().stats().txns_begun;
    let before = begun();
    assert_eq!(folders.evaluate_rule(&rule).unwrap(), docs);
    assert_eq!(begun() - before, 1, "evaluate_rule");
    let before = begun();
    assert_eq!(folders.evaluate(f).unwrap(), docs);
    assert_eq!(begun() - before, 1, "evaluate");
    let before = begun();
    assert!(set.refresh().unwrap().is_empty());
    assert_eq!(begun() - before, 1, "refresh");
}

#[test]
fn tautology_holds_under_a_concurrent_writer() {
    let (tdb, alice, _bob, docs) = corpus();
    let folders = DynamicFolders::init(tdb.clone()).unwrap();
    let x = FolderRule::ContentContains("x".into());
    let tautology = FolderRule::Any(vec![x.clone(), FolderRule::Not(Box::new(x))]);

    let stop = Arc::new(AtomicBool::new(false));
    let toggles = Arc::new(AtomicU64::new(0));
    let writer = {
        let (tdb, stop, toggles, doc) = (tdb.clone(), stop.clone(), toggles.clone(), docs[1]);
        thread::spawn(move || {
            let mut h = tdb.open(doc, alice).unwrap();
            while !stop.load(Ordering::Relaxed) {
                h.insert_text(0, "x").unwrap();
                h.delete_range(0, 1).unwrap();
                toggles.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    while toggles.load(Ordering::Relaxed) == 0 {
        thread::yield_now();
    }
    let outcome = (0..300).try_for_each(|i| {
        let got = folders.evaluate_rule(&tautology).unwrap();
        if got == docs {
            Ok(())
        } else {
            Err(format!(
                "evaluation {i} returned {got:?}, not every document"
            ))
        }
    });
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    outcome.unwrap();
}
