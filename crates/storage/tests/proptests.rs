//! Property-based tests for the storage engine.
//!
//! These check the engine's core laws against randomized inputs:
//! WAL codec round-trips, snapshot isolation vs. a model, and index/scan
//! agreement — including ordered index ranges over version histories,
//! own-write overlays and snapshots below the cold-tier floor.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use proptest::prelude::*;

use tendax_storage::row::Row;
use tendax_storage::schema::{TableDef, TableId};
use tendax_storage::value::{DataType, Value};
use tendax_storage::wal::codec::{decode_record, encode_record};
use tendax_storage::wal::{WalOp, WalRecord, WalWrite};
use tendax_storage::{ColdOptions, Database, Options, Predicate, RowId, Transaction};

mod common;
use common::TestDir;

// ---------------------------------------------------------------- WAL codec

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Id),
        ".{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Timestamp),
        any::<f64>().prop_map(Value::Float),
    ]
}

fn arb_wal_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        proptest::collection::vec(arb_value(), 0..8)
            .prop_map(|vs| WalOp::Put(Row::new(vs).into_shared())),
        Just(WalOp::Delete),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u64>(), any::<i64>())
            .prop_map(|(next_ts, clock)| WalRecord::Meta { next_ts, clock }),
        (any::<u32>()).prop_map(|id| WalRecord::DropTable { id: TableId(id) }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((any::<u32>(), any::<u64>(), arb_wal_op()), 0..6)
        )
            .prop_map(|(txn, commit_ts, ws)| WalRecord::Commit {
                txn,
                commit_ts,
                writes: ws
                    .into_iter()
                    .map(|(t, r, op)| WalWrite {
                        table: TableId(t),
                        row: RowId(r),
                        op
                    })
                    .collect(),
            }),
        (any::<u32>(), any::<u64>(), any::<u64>(), arb_wal_op()).prop_map(|(t, r, ts, op)| {
            WalRecord::SnapshotRow {
                table: TableId(t),
                row: RowId(r),
                commit_ts: ts,
                op,
            }
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(t, w)| WalRecord::Watermark {
            table: TableId(t),
            next_row_id: w
        }),
    ]
}

proptest! {
    /// `Value`'s ordering is a genuine total order (indexes rely on it):
    /// antisymmetric, transitive, and consistent with equality.
    #[test]
    fn value_ordering_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Reflexivity / equality consistency.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b) == Ordering::Equal, a == b);
        // Transitivity.
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    #[test]
    fn wal_codec_roundtrips(rec in arb_record()) {
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).unwrap();
        // Float NaN breaks PartialEq; compare via re-encoding.
        prop_assert_eq!(encode_record(&back), bytes);
    }

    #[test]
    fn wal_codec_rejects_any_truncation(rec in arb_record()) {
        let bytes = encode_record(&rec);
        // Every strict prefix must fail to decode.
        for cut in 0..bytes.len() {
            prop_assert!(decode_record(&bytes[..cut]).is_err());
        }
    }
}

// ----------------------------------------------------- engine vs. a model

/// A scripted operation against one table with an integer payload.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Update the k-th live row (modulo) to carry the payload.
    Update(usize, i64),
    /// Delete the k-th live row (modulo).
    Delete(usize),
    Commit,
    Abort,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::Insert),
        (any::<usize>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k, v)),
        any::<usize>().prop_map(Op::Delete),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

fn payload_table() -> TableDef {
    TableDef::new("t")
        .column("payload", DataType::Int)
        .index("by_payload", &["payload"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Run a random script of transactions against the engine and an
    /// in-memory model; committed state must match after every commit.
    #[test]
    fn engine_matches_model(script in proptest::collection::vec(arb_op(), 1..60)) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();

        let mut model: BTreeMap<RowId, i64> = BTreeMap::new();
        let mut pending: BTreeMap<RowId, Option<i64>> = BTreeMap::new(); // None = delete
        let mut txn = db.begin();

        for op in script {
            // Live rows as the transaction sees them.
            let live: Vec<RowId> = {
                let mut l: BTreeMap<RowId, i64> = model.clone();
                for (rid, p) in &pending {
                    match p {
                        Some(v) => { l.insert(*rid, *v); }
                        None => { l.remove(rid); }
                    }
                }
                l.keys().copied().collect()
            };
            match op {
                Op::Insert(v) => {
                    let rid = txn.insert(t, Row::new(vec![Value::Int(v)])).unwrap();
                    pending.insert(rid, Some(v));
                }
                Op::Update(k, v) => {
                    if !live.is_empty() {
                        let rid = live[k % live.len()];
                        txn.set(t, rid, &[("payload", Value::Int(v))]).unwrap();
                        pending.insert(rid, Some(v));
                    }
                }
                Op::Delete(k) => {
                    if !live.is_empty() {
                        let rid = live[k % live.len()];
                        txn.delete(t, rid).unwrap();
                        pending.insert(rid, None);
                    }
                }
                Op::Commit => {
                    txn.commit().unwrap();
                    for (rid, p) in std::mem::take(&mut pending) {
                        match p {
                            Some(v) => { model.insert(rid, v); }
                            None => { model.remove(&rid); }
                        }
                    }
                    // Engine and model agree on committed state.
                    let got: BTreeMap<RowId, i64> = db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .into_iter()
                        .map(|(rid, r)| (rid, r.get(0).unwrap().as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(&got, &model);
                    txn = db.begin();
                }
                Op::Abort => {
                    txn.abort();
                    pending.clear();
                    let got: BTreeMap<RowId, i64> = db
                        .begin()
                        .scan(t, &Predicate::True)
                        .unwrap()
                        .into_iter()
                        .map(|(rid, r)| (rid, r.get(0).unwrap().as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(&got, &model);
                    txn = db.begin();
                }
            }
        }
    }

    /// Index scans return exactly what an exhaustive scan returns.
    #[test]
    fn index_scan_agrees_with_full_scan(values in proptest::collection::vec(-20i64..20, 1..80), probe in -20i64..20) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();
        let mut txn = db.begin();
        for v in &values {
            txn.insert(t, Row::new(vec![Value::Int(*v)])).unwrap();
        }
        txn.commit().unwrap();

        let reader = db.begin();
        // Uses the planner (index path for Eq on indexed col).
        let via_planner = reader
            .scan(t, &Predicate::Eq("payload".into(), Value::Int(probe)))
            .unwrap();
        // Force a full scan with a predicate the planner can't index.
        let via_full = reader
            .scan(
                t,
                &Predicate::Between("payload".into(), Value::Int(probe), Value::Int(probe)),
            )
            .unwrap();
        prop_assert_eq!(via_planner.len(), via_full.len());
        prop_assert_eq!(
            via_planner.len(),
            values.iter().filter(|v| **v == probe).count()
        );
    }

    /// Vacuum never changes what the latest snapshot sees.
    #[test]
    fn vacuum_preserves_latest_snapshot(updates in proptest::collection::vec(any::<i64>(), 1..40)) {
        let db = Database::open_in_memory();
        let t = db.create_table(payload_table()).unwrap();
        let mut txn = db.begin();
        let rid = txn.insert(t, Row::new(vec![Value::Int(0)])).unwrap();
        txn.commit().unwrap();
        for v in &updates {
            let mut w = db.begin();
            w.set(t, rid, &[("payload", Value::Int(*v))]).unwrap();
            w.commit().unwrap();
        }
        let before: Vec<_> = db.begin().scan(t, &Predicate::True).unwrap();
        db.vacuum();
        let after: Vec<_> = db.begin().scan(t, &Predicate::True).unwrap();
        prop_assert_eq!(before, after);
    }
}

// ------------------------------------------------- index ranges vs. scan

/// One write of an index history. Row choices are taken modulo the rows
/// the writing transaction sees.
#[derive(Debug, Clone)]
enum Write {
    Insert(i64, i64),
    SetKey(usize, i64),
    Delete(usize),
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0i64..5, 0i64..3).prop_map(|(k, tag)| Write::Insert(k, tag)),
        (any::<usize>(), 0i64..5).prop_map(|(n, k)| Write::SetKey(n, k)),
        any::<usize>().prop_map(Write::Delete),
    ]
}

/// A bound on a one- or two-column key: (kind, k, optional tag), kind 0
/// unbounded, 1 included, 2 excluded.
fn arb_bound() -> impl Strategy<Value = (u8, i64, Option<i64>)> {
    (0u8..3, 0i64..6, proptest::option::of(0i64..3))
}

fn keyed_table() -> TableDef {
    TableDef::new("keyed")
        .column("k", DataType::Int)
        .column("tag", DataType::Int)
        .index("by_k", &["k"])
        .index("by_k_tag", &["k", "tag"])
}

fn apply(txn: &mut Transaction, t: TableId, w: &Write) {
    let live: Vec<RowId> = txn
        .scan(t, &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(rid, _)| rid)
        .collect();
    match *w {
        Write::Insert(k, tag) => {
            txn.insert(t, Row::new(vec![Value::Int(k), Value::Int(tag)]))
                .unwrap();
        }
        Write::SetKey(n, k) if !live.is_empty() => {
            txn.set(t, live[n % live.len()], &[("k", Value::Int(k))])
                .unwrap();
        }
        Write::Delete(n) if !live.is_empty() => txn.delete(t, live[n % live.len()]).unwrap(),
        _ => {}
    }
}

type Entries = Vec<(RowId, Vec<Value>)>;

/// The brute-force answer: every row `scan` sees whose key (columns
/// `cols`) is within the bounds, ordered by (key, row id).
fn filtered_scan(
    txn: &Transaction,
    t: TableId,
    cols: &[usize],
    bounds: (Bound<&Vec<Value>>, Bound<&Vec<Value>>),
) -> Entries {
    let mut rows: Vec<(Vec<Value>, RowId, Vec<Value>)> = txn
        .scan(t, &Predicate::True)
        .unwrap()
        .into_iter()
        .map(|(rid, row)| {
            let key: Vec<Value> = cols.iter().map(|&c| row.values()[c].clone()).collect();
            (key, rid, row.values().to_vec())
        })
        .filter(|(key, ..)| bounds.contains(key))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    rows.into_iter().map(|(_, rid, vals)| (rid, vals)).collect()
}

fn entries(rows: Vec<(RowId, tendax_storage::SharedRow)>) -> Entries {
    rows.into_iter()
        .map(|(rid, row)| (rid, row.values().to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `index_lookup` and `index_range` return exactly the rows a scan
    /// sees, filtered by key and ordered by (key, row id): at a pinned
    /// snapshot inside a random history, with and without the reading
    /// transaction's own writes, and with the cold tier holding history
    /// below the snapshot.
    #[test]
    fn index_range_equals_filtered_scan(
        history in proptest::collection::vec(proptest::collection::vec(arb_write(), 1..5), 1..10),
        pin in any::<usize>(),
        overlay in proptest::collection::vec(arb_write(), 0..5),
        cold in any::<bool>(),
        bounds in proptest::collection::vec((arb_bound(), arb_bound()), 1..6),
    ) {
        let dir = TestDir::new("tendax-idx-prop");
        let db = if cold {
            let opts = Options {
                cold_storage: Some(ColdOptions {
                    memtable_version_budget: 8,
                    block_bytes: 256,
                    bloom_bits_per_key: 10,
                    compact_min_runs: 4,
                }),
                ..Options::default()
            };
            Database::open(dir.file("idx.wal"), opts).unwrap()
        } else {
            Database::open_in_memory()
        };
        let t = db.create_table(keyed_table()).unwrap();
        let mut commit_ts = Vec::new();
        for writes in &history {
            let mut txn = db.begin();
            for w in writes {
                apply(&mut txn, t, w);
            }
            commit_ts.push(txn.commit().unwrap());
        }
        if cold {
            // Demote everything superseded: a pinned snapshot below the
            // last commit now reads below the cold floor.
            db.vacuum();
        }
        let mut txn = db.begin_at(commit_ts[pin % commit_ts.len()]).unwrap();
        for w in &overlay {
            apply(&mut txn, t, w);
        }

        for k in 0i64..6 {
            let key = vec![Value::Int(k)];
            let want = filtered_scan(&txn, t, &[0], (Bound::Included(&key), Bound::Included(&key)));
            prop_assert_eq!(entries(txn.index_lookup(t, "by_k", &key).unwrap()), want);
        }
        let to_bound = |(kind, k, tag): (u8, i64, Option<i64>), two: bool| {
            let mut key = vec![Value::Int(k)];
            if let (true, Some(tag)) = (two, tag) {
                key.push(Value::Int(tag));
            }
            (kind, key)
        };
        for (lo, hi) in bounds {
            for (index, cols) in [("by_k", &[0usize][..]), ("by_k_tag", &[0, 1][..])] {
                let two = cols.len() == 2;
                let (lo_kind, lo_key) = to_bound(lo, two);
                let (hi_kind, hi_key) = to_bound(hi, two);
                let bound = |kind: u8, key| match kind {
                    0 => Bound::Unbounded,
                    1 => Bound::Included(key),
                    _ => Bound::Excluded(key),
                };
                let range = (bound(lo_kind, &lo_key), bound(hi_kind, &hi_key));
                // Inverted bounds (or equal ones both excluded) are a
                // caller error, as for `BTreeMap::range`; skip those.
                if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) = range {
                    if a > b || (a == b && matches!(range, (Bound::Excluded(_), Bound::Excluded(_)))) {
                        continue;
                    }
                }
                let want = filtered_scan(&txn, t, cols, range);
                prop_assert_eq!(entries(txn.index_range(t, index, range.0, range.1).unwrap()), want);
            }
        }
    }
}
