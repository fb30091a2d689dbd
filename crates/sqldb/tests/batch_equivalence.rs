//! Property tests for the batch executor: every query must produce results
//! identical (same rows, same order) to its run at batch size 1 — every
//! row its own batch, the row-at-a-time case — at every other batch size,
//! including over NULLs, NaN payloads, ±infinity, signed zero and extreme
//! integers, and must fail with the *same error* whenever that run fails
//! (division by zero, type mismatches).
//!
//! The batch sizes compared with size 1 are 3 (batch boundaries land
//! mid-group, mid-filter-run and mid-join-fan-out), the per-profile default
//! (256/1024/4096) and 4096 (usually one batch for these tables). Join
//! shapes run on all three profiles with and without an index on the join
//! column, so the hash, block nested-loop and index nested-loop kernels all
//! run, and every strategy must return the same multiset of rows.

use proptest::prelude::*;
use sqldb::{Column, DataType, Database, EngineProfile, TableDump, Value};

/// Floats with deliberately hostile bit patterns (same family the snapshot
/// suite uses): kernels must treat them exactly like the row evaluator.
fn arb_float() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7ff8_dead_beef_0001)), // NaN with a payload
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(f64::from_bits(1)), // smallest subnormal
        any::<u64>().prop_map(f64::from_bits),
        -1.0e9..1.0e9f64,
    ]
    .boxed()
}

fn arb_int() -> BoxedStrategy<i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        Just(-1i64),
        -4i64..5,
        any::<i64>(),
    ]
    .boxed()
}

/// Short texts, deliberately collision-heavy so GROUP BY forms real groups.
fn arb_text() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("a".to_string()),
        Just("b".to_string()),
        Just("héllo ∞".to_string()),
        "[a-c]{0,3}",
    ]
    .boxed()
}

/// One row with an INT, FLOAT, TEXT and BOOL column, each independently
/// NULL ~20% of the time.
fn arb_row() -> BoxedStrategy<Vec<Value>> {
    (
        (0u8..5, arb_int()),
        (0u8..5, arb_float()),
        (0u8..5, arb_text()),
        (0u8..5, any::<bool>()),
    )
        .prop_map(|((ki, i), (kf, f), (kt, t), (kb, b))| {
            let pick = |k: u8, v: Value| if k == 0 { Value::Null } else { v };
            vec![
                pick(ki, Value::Int(i)),
                pick(kf, Value::Float(f)),
                pick(kt, Value::Text(t)),
                pick(kb, Value::Bool(b)),
            ]
        })
        .boxed()
}

fn arb_dump() -> BoxedStrategy<TableDump> {
    proptest::collection::vec(arb_row(), 0..40)
        .prop_map(|rows| TableDump {
            name: "t".to_string(),
            columns: vec![
                Column::new("c_int", DataType::Int),
                Column::new("c_float", DataType::Float),
                Column::new("c_text", DataType::Text),
                Column::new("c_bool", DataType::Bool),
            ],
            primary_key: None,
            rows,
        })
        .boxed()
}

/// The workload-suite query shapes: scan, filter (including AND/OR over
/// fallible operands), projection arithmetic, hash aggregation with HAVING,
/// DISTINCT, ORDER BY, self-join, and expressions that can genuinely error
/// (division by a column that may be zero).
const QUERIES: &[&str] = &[
    "SELECT c_int, c_float, c_text, c_bool FROM t",
    "SELECT c_int + 1, c_float * 2.0, -c_float FROM t WHERE c_int IS NOT NULL",
    "SELECT c_int FROM t WHERE c_float > 0.0 OR c_bool",
    "SELECT c_int FROM t WHERE c_int IS NOT NULL AND c_int * 2 >= c_int ORDER BY c_int",
    "SELECT c_text, COUNT(*), SUM(c_float), MIN(c_int), MAX(c_float), AVG(c_float) \
     FROM t GROUP BY c_text",
    "SELECT c_bool, COUNT(*) FROM t WHERE c_float > 0.0 GROUP BY c_bool HAVING COUNT(*) > 1",
    "SELECT DISTINCT c_bool FROM t",
    "SELECT c_int / c_int FROM t",
    "SELECT c_int FROM t WHERE c_int IS NOT NULL AND 100 / (c_int + 1) > 0",
    "SELECT a.c_int, b.c_float FROM t AS a JOIN t AS b ON a.c_int = b.c_int \
     WHERE a.c_int IS NOT NULL",
    "SELECT COUNT(*) FROM t",
];

/// One edge-like row `(src, dst, w, kf)`: small keys, so joins meet NULL
/// and duplicate keys; `kf` is a FLOAT key that often equals an INT key
/// (`Int 1 = Float 1.0` must match).
fn arb_edge() -> BoxedStrategy<Vec<Value>> {
    // a key is NULL one time in five
    let key = |k: u8, v: i64| if k == 0 { Value::Null } else { Value::Int(v) };
    (
        (0u8..5, -2i64..5),
        (0u8..5, -2i64..5),
        arb_float(),
        (0u8..4, -2i64..5),
    )
        .prop_map(move |((ks, src), (kd, dst), w, (kk, kf))| {
            let kf = match kk {
                0 => Value::Null,
                1 => Value::Float(0.5),
                _ => Value::Float(kf as f64),
            };
            vec![key(ks, src), key(kd, dst), Value::Float(w), kf]
        })
        .boxed()
}

fn arb_edges() -> BoxedStrategy<TableDump> {
    proptest::collection::vec(arb_edge(), 0..30)
        .prop_map(|rows| TableDump {
            name: "u".to_string(),
            columns: vec![
                Column::new("src", DataType::Int),
                Column::new("dst", DataType::Int),
                Column::new("w", DataType::Float),
                Column::new("kf", DataType::Float),
            ],
            primary_key: None,
            rows,
        })
        .boxed()
}

/// Join shapes: INNER and LEFT over NULL and duplicate keys, INT-vs-FLOAT
/// keys, a residual `ON` conjunct, a non-equi join, and the PageRank
/// three-way self-join with its aggregate.
const JOIN_QUERIES: &[&str] = &[
    "SELECT t.c_int, u.w, u.dst FROM t JOIN u ON t.c_int = u.src",
    "SELECT t.c_int, t.c_text, u.w FROM t LEFT JOIN u ON u.src = t.c_int",
    "SELECT t.c_int, u.kf FROM t JOIN u ON t.c_int = u.kf",
    "SELECT a.src, b.dst FROM u AS a LEFT JOIN u AS b ON a.kf = b.src",
    "SELECT t.c_int, u.w FROM t LEFT JOIN u ON t.c_int = u.src AND u.w > t.c_float",
    "SELECT t.c_int, u.src FROM t JOIN u ON t.c_int < u.src",
    "SELECT t.c_int, COALESCE(0.85 * SUM(ir.c_float * e.w), 0.0), COUNT(e.src) \
     FROM t LEFT JOIN u AS e ON t.c_int = e.dst \
     LEFT JOIN t AS ir ON ir.c_int = e.src GROUP BY t.c_int",
];

/// `UPDATE … FROM` (PostgreSQL form) / `UPDATE … JOIN` (MySQL form) with
/// duplicate FROM keys: the first match in FROM order wins, whatever the
/// strategy.
fn update_from(profile: EngineProfile) -> &'static str {
    match profile {
        EngineProfile::Postgres => "UPDATE t SET c_float = u.w FROM u WHERE t.c_int = u.src",
        _ => "UPDATE t JOIN u ON t.c_int = u.src SET c_float = u.w",
    }
}

/// Runs `sql` and collapses the outcome to something comparable: the rows
/// on success, the error text on failure (error *equivalence* is part of
/// the contract — every batch size must surface the same first error).
fn outcome(db: &Database, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    db.connect()
        .query(sql)
        .map(|r| r.rows)
        .map_err(|e| e.to_string())
}

/// Rows sorted by their text form (stable across NaN payloads), for
/// multiset comparisons between join strategies.
fn sorted(rows: &Result<Vec<Vec<Value>>, String>) -> Result<Vec<String>, ()> {
    let mut v: Vec<String> = rows
        .as_ref()
        .map_err(|_| ())?
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    v.sort();
    Ok(v)
}

/// A database holding `t` and `u`, with indexes on the join columns when
/// `indexed` (which moves the nested-loop profiles onto index lookups).
fn join_db(profile: EngineProfile, t: &TableDump, u: &TableDump, indexed: bool) -> Database {
    let db = Database::new(profile);
    db.import_table(t).unwrap();
    db.import_table(u).unwrap();
    if indexed {
        let mut c = db.connect();
        for ddl in [
            "CREATE INDEX t_int ON t (c_int)",
            "CREATE INDEX u_src ON u (src)",
            "CREATE INDEX u_dst ON u (dst)",
        ] {
            c.execute(ddl).unwrap();
        }
    }
    db
}

const SIZES: [Option<usize>; 3] = [Some(3), None, Some(4096)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_execution_matches_row_semantics_at_every_batch_size(dump in arb_dump()) {
        for profile in EngineProfile::ALL {
            let db = Database::new(profile);
            db.import_table(&dump).unwrap();
            for sql in QUERIES {
                db.set_batch_size(Some(1));
                let baseline = outcome(&db, sql);
                for size in SIZES {
                    db.set_batch_size(size);
                    let got = outcome(&db, sql);
                    prop_assert_eq!(
                        &baseline, &got,
                        "{} / batch={:?} / {}", profile, size, sql
                    );
                }
                db.set_batch_size(None);
            }
        }
    }

    #[test]
    fn join_kernels_match_row_at_a_time_on_every_profile(t in arb_dump(), u in arb_edges()) {
        // multiset per query from the first strategy that ran it
        let mut reference: Vec<Option<Result<Vec<String>, ()>>> = vec![None; JOIN_QUERIES.len() + 1];
        for profile in EngineProfile::ALL {
            for indexed in [false, true] {
                let db = join_db(profile, &t, &u, indexed);
                for (i, sql) in JOIN_QUERIES.iter().enumerate() {
                    db.set_batch_size(Some(1));
                    let baseline = outcome(&db, sql);
                    for size in SIZES {
                        db.set_batch_size(size);
                        prop_assert_eq!(
                            &baseline, &outcome(&db, sql),
                            "{} / index={} / batch={:?} / {}", profile, indexed, size, sql
                        );
                    }
                    let want = reference[i].get_or_insert_with(|| sorted(&baseline));
                    prop_assert_eq!(
                        &*want, &sorted(&baseline),
                        "{} / index={}: strategies disagree on {}", profile, indexed, sql
                    );
                }
                // UPDATE … FROM on a fresh copy per batch size
                let mut after = Vec::new();
                for size in [Some(1), Some(3), None] {
                    let db = join_db(profile, &t, &u, indexed);
                    db.set_batch_size(size);
                    let applied = db.connect().execute(update_from(profile)).map(|o| o.rows_affected());
                    prop_assert!(applied.is_ok(), "{}: {:?}", profile, applied);
                    after.push((applied.ok(), outcome(&db, "SELECT c_int, c_float FROM t")));
                }
                prop_assert!(after.windows(2).all(|w| w[0] == w[1]), "{} / index={}: {:?}", profile, indexed, after);
                let want = reference[JOIN_QUERIES.len()].get_or_insert_with(|| sorted(&after[0].1));
                prop_assert_eq!(&*want, &sorted(&after[0].1), "{} / index={}: UPDATE … FROM", profile, indexed);
            }
        }
    }
}
