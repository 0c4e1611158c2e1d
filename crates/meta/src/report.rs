//! The workspace report: one view over all metadata services.
//!
//! "Documents should be seen as a valuable business asset which requires
//! an appropriate data management solution" — this module assembles the
//! management view: per-document statistics, the operation mix, the most
//! cited and most read documents, and per-user activity, all computed
//! with the engine's aggregation layer.

use std::fmt::Write as _;

use tendax_storage::{Aggregate, Predicate};
use tendax_text::{DocId, Result, TextDb, UserId};

use crate::json;

/// One document line in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DocLine {
    pub doc: u64,
    pub name: String,
    pub state: String,
    pub size: usize,
    pub authors: usize,
    pub readers: usize,
    pub ops: usize,
    pub cited_by: usize,
}

/// The assembled workspace report.
#[derive(Debug, Clone)]
pub struct WorkspaceReport {
    pub documents: Vec<DocLine>,
    /// `(op kind, count)` across the whole workspace, most frequent first.
    pub op_mix: Vec<(String, i64)>,
    /// `(user name, ops issued)` across the workspace.
    pub user_activity: Vec<(String, i64)>,
    pub total_chars: usize,
    pub total_tuples: usize,
}

impl WorkspaceReport {
    /// Build the report over the current corpus.
    pub fn build(tdb: &TextDb) -> Result<WorkspaceReport> {
        let t = tdb.tables();
        let txn = tdb.database().begin();

        let mut documents = Vec::new();
        let mut total_chars = 0;
        let mut total_tuples = 0;
        for info in tdb.list_documents_txn(&txn)? {
            let stats = tdb.doc_stats_txn(&txn, info.id)?;
            let cited_by = txn
                .index_lookup(t.paste_events, "paste_events_by_src", &[info.id.value()])?
                .len();
            total_chars += stats.size;
            total_tuples += stats.tuples;
            documents.push(DocLine {
                doc: info.id.0,
                name: info.name,
                state: info.state,
                size: stats.size,
                authors: stats.authors.len(),
                readers: stats.readers.len(),
                ops: stats.ops,
                cited_by,
            });
        }
        documents.sort_by(|a, b| b.size.cmp(&a.size).then(a.doc.cmp(&b.doc)));

        // Operation mix via GROUP BY on the oplog.
        let mut op_mix: Vec<(String, i64)> = txn
            .group_by(t.oplog, &Predicate::True, "kind", &Aggregate::Count)?
            .into_iter()
            .filter_map(|(k, v)| Some((k.as_text()?.to_owned(), v.as_int().unwrap_or(0))))
            .collect();
        op_mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Per-user activity.
        let mut user_activity: Vec<(String, i64)> = txn
            .group_by(t.oplog, &Predicate::True, "user", &Aggregate::Count)?
            .into_iter()
            .filter_map(|(k, v)| {
                let user = UserId(k.as_id()?);
                let name = tdb
                    .user_name(user)
                    .unwrap_or_else(|_| format!("user#{}", user.0));
                Some((name, v.as_int().unwrap_or(0)))
            })
            .collect();
        user_activity.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        Ok(WorkspaceReport {
            documents,
            op_mix,
            user_activity,
            total_chars,
            total_tuples,
        })
    }

    /// Documents in the report, by id (convenience for tests).
    pub fn line(&self, doc: DocId) -> Option<&DocLine> {
        self.documents.iter().find(|d| d.doc == doc.0)
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("Workspace report\n================\n");
        out.push_str(&format!(
            "{} documents, {} visible chars, {} stored character tuples\n\n",
            self.documents.len(),
            self.total_chars,
            self.total_tuples
        ));
        out.push_str(&format!(
            "{:<20} {:>8} {:>7} {:>7} {:>6} {:>8}  state\n",
            "document", "chars", "authors", "readers", "ops", "cited-by"
        ));
        for d in &self.documents {
            out.push_str(&format!(
                "{:<20} {:>8} {:>7} {:>7} {:>6} {:>8}  {}\n",
                d.name, d.size, d.authors, d.readers, d.ops, d.cited_by, d.state
            ));
        }
        out.push_str("\noperation mix: ");
        out.push_str(
            &self
                .op_mix
                .iter()
                .map(|(k, n)| format!("{k}×{n}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("\nuser activity: ");
        out.push_str(
            &self
                .user_activity
                .iter()
                .map(|(u, n)| format!("{u}×{n}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push('\n');
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"documents\": [");
        for (i, d) in self.documents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"doc\":{},\"name\":", d.doc);
            json::write_str(&mut out, &d.name);
            out.push_str(",\"state\":");
            json::write_str(&mut out, &d.state);
            let _ = write!(
                out,
                ",\"size\":{},\"authors\":{},\"readers\":{},\"ops\":{},\"cited_by\":{}}}",
                d.size, d.authors, d.readers, d.ops, d.cited_by
            );
        }
        let pairs = |out: &mut String, items: &[(String, i64)]| {
            for (i, (name, count)) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    [");
                json::write_str(out, name);
                let _ = write!(out, ",{count}]");
            }
        };
        out.push_str("\n  ],\n  \"op_mix\": [");
        pairs(&mut out, &self.op_mix);
        out.push_str("\n  ],\n  \"user_activity\": [");
        pairs(&mut out, &self.user_activity);
        let _ = write!(
            out,
            "\n  ],\n  \"total_chars\": {},\n  \"total_tuples\": {}\n}}",
            self.total_chars, self.total_tuples
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (TextDb, UserId, UserId, DocId, DocId) {
        let tdb = TextDb::in_memory();
        let alice = tdb.create_user("alice").unwrap();
        let bob = tdb.create_user("bob").unwrap();
        let d1 = tdb.create_document("big", alice).unwrap();
        let d2 = tdb.create_document("small", bob).unwrap();
        let mut h1 = tdb.open(d1, alice).unwrap();
        h1.insert_text(0, "a much longer document body").unwrap();
        let mut h1b = tdb.open(d1, bob).unwrap();
        h1b.insert_text(0, "bob adds ").unwrap();
        let mut h2 = tdb.open(d2, bob).unwrap();
        h2.insert_text(0, "tiny").unwrap();
        // d1 cited once from d2.
        h1.refresh().unwrap();
        let clip = h1.copy(0, 3).unwrap();
        h2.paste(4, &clip).unwrap();
        h2.delete_range(0, 1).unwrap();
        (tdb, alice, bob, d1, d2)
    }

    #[test]
    fn report_aggregates_the_workspace() {
        let (tdb, _alice, _bob, d1, d2) = corpus();
        let r = WorkspaceReport::build(&tdb).unwrap();
        assert_eq!(r.documents.len(), 2);
        // Sorted by size: "big" first.
        assert_eq!(r.documents[0].name, "big");
        let big = r.line(d1).unwrap();
        assert_eq!(big.authors, 2);
        assert_eq!(big.cited_by, 1);
        let small = r.line(d2).unwrap();
        assert_eq!(small.size, 6); // "iny" + pasted "a m" (minus 1 deleted)
                                   // Operation mix covers every kind used.
        let kinds: Vec<&str> = r.op_mix.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"insert"));
        assert!(kinds.contains(&"paste"));
        assert!(kinds.contains(&"delete"));
        // Totals add up.
        assert_eq!(
            r.total_chars,
            r.documents.iter().map(|d| d.size).sum::<usize>()
        );
        assert!(r.total_tuples >= r.total_chars);
    }

    #[test]
    fn report_renders_and_serializes() {
        let (tdb, ..) = corpus();
        let r = WorkspaceReport::build(&tdb).unwrap();
        let text = r.render();
        assert!(text.contains("Workspace report"));
        assert!(text.contains("big"));
        assert!(text.contains("operation mix"));
        assert!(text.contains("alice"));
        let json = r.to_json();
        assert!(json.contains("\"documents\""));
    }

    #[test]
    fn empty_workspace_report() {
        let tdb = TextDb::in_memory();
        let r = WorkspaceReport::build(&tdb).unwrap();
        assert!(r.documents.is_empty());
        assert_eq!(r.total_chars, 0);
        assert!(r.render().contains("0 documents"));
    }
}
