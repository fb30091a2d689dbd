//! `EXPLAIN SELECT …` — a textual plan describing the join strategies the
//! executor will pick, per engine profile.
//!
//! This mirrors the decision logic of [`crate::join::Joiner`] without
//! executing anything, which makes the architectural difference between the
//! engine profiles *visible*: the same query EXPLAINs to hash joins on the
//! PostgreSQL profile and to (index) nested loops on the MySQL family.

use crate::ast::*;
use crate::catalog::Catalog;
use crate::error::DbResult;
use crate::profile::{EngineProfile, JoinStrategy};

/// Renders a plan for `query` as indented text lines.
///
/// # Errors
/// Returns [`DbError::NotFound`](crate::DbError::NotFound) for unknown relations.
pub fn explain_query(
    catalog: &Catalog,
    profile: EngineProfile,
    query: &SelectStmt,
) -> DbResult<Vec<String>> {
    let mut out = Vec::new();
    explain_stmt(catalog, profile, query, 0, &mut out)?;
    Ok(out)
}

fn push(out: &mut Vec<String>, depth: usize, text: String) {
    out.push(format!("{}{}", "  ".repeat(depth), text));
}

fn explain_stmt(
    catalog: &Catalog,
    profile: EngineProfile,
    q: &SelectStmt,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    if !q.order_by.is_empty() {
        push(out, depth, format!("Sort ({} keys)", q.order_by.len()));
    }
    if let Some(n) = q.limit {
        push(out, depth, format!("Limit {n}"));
    }
    explain_set_expr(catalog, profile, &q.body, depth, out)
}

fn explain_set_expr(
    catalog: &Catalog,
    profile: EngineProfile,
    body: &SetExpr,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    match body {
        SetExpr::Values(rows) => {
            push(out, depth, format!("Values ({} rows)", rows.len()));
            Ok(())
        }
        SetExpr::SetOp { op, left, right } => {
            push(
                out,
                depth,
                match op {
                    SetOperator::Union => "Union (deduplicating)".to_string(),
                    SetOperator::UnionAll => "Union All".to_string(),
                },
            );
            explain_set_expr(catalog, profile, left, depth + 1, out)?;
            explain_set_expr(catalog, profile, right, depth + 1, out)
        }
        SetExpr::Select(s) => explain_select(catalog, profile, s, depth, out),
    }
}

fn explain_select(
    catalog: &Catalog,
    profile: EngineProfile,
    s: &Select,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    let has_agg = !s.group_by.is_empty()
        || s.projections
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()));
    let mut depth = depth;
    if s.distinct {
        push(out, depth, "Distinct".to_string());
        depth += 1;
    }
    if has_agg {
        push(
            out,
            depth,
            format!("HashAggregate (group by {} keys)", s.group_by.len()),
        );
        depth += 1;
    }
    if let Some(_w) = &s.selection {
        push(out, depth, "Filter".to_string());
        depth += 1;
    }
    for (i, tr) in s.from.iter().enumerate() {
        if s.from.len() > 1 && i > 0 {
            push(out, depth, "NestedLoop (cross join)".to_string());
        }
        explain_table_ref(catalog, profile, tr, depth, out)?;
    }
    if s.from.is_empty() {
        push(out, depth, "Result (no tables)".to_string());
    }
    Ok(())
}

fn explain_table_ref(
    catalog: &Catalog,
    profile: EngineProfile,
    tr: &TableRef,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    // joins apply left-to-right; print outermost join first
    for j in tr.joins.iter().rev() {
        let desc = join_description(catalog, profile, j)?;
        push(out, depth, desc);
    }
    let base_depth = depth + tr.joins.len();
    explain_factor(catalog, profile, &tr.base, base_depth, out)?;
    // each join's right side prints under its join line
    for (i, j) in tr.joins.iter().enumerate() {
        explain_factor(catalog, profile, &j.factor, depth + tr.joins.len() - i, out)?;
    }
    Ok(())
}

/// The operator label the [`crate::join::Joiner`] kernel will effectively execute
/// for `j` — shared with the runtime profiler so `EXPLAIN` and
/// `EXPLAIN ANALYZE` speak the same vocabulary.
pub(crate) fn join_description(
    catalog: &Catalog,
    profile: EngineProfile,
    j: &Join,
) -> DbResult<String> {
    let kind = match j.join_type {
        JoinType::Inner => "Join",
        JoinType::Left => "LeftJoin",
        JoinType::Cross => return Ok("NestedLoop (cross join)".to_string()),
    };
    // equi key present?
    let equi = j.on.as_ref().map(has_equi_conjunct).unwrap_or(false);
    if !equi {
        return Ok(format!("NestedLoop{kind} (non-equi ON)"));
    }
    let algo = match profile.join_strategy() {
        JoinStrategy::Hash => "Hash".to_string(),
        JoinStrategy::BlockNestedLoop { buffer_rows } => {
            // an index on the inner side upgrades BNL to an index NL
            if inner_side_indexable(catalog, j)? {
                "IndexNestedLoop".to_string()
            } else {
                format!("BlockNestedLoop (buffer {buffer_rows})")
            }
        }
    };
    Ok(format!("{algo}{kind}"))
}

/// True when any top-level conjunct of `on` is `col = col`.
fn has_equi_conjunct(on: &Expr) -> bool {
    match on {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => has_equi_conjunct(left) || has_equi_conjunct(right),
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            matches!(left.as_ref(), Expr::Column { .. })
                && matches!(right.as_ref(), Expr::Column { .. })
        }
        _ => false,
    }
}

/// True when the join's inner (right) side is a base table with an index on
/// one of the columns its ON condition references.
fn inner_side_indexable(catalog: &Catalog, j: &Join) -> DbResult<bool> {
    let (name, visible) = match &j.factor {
        TableFactor::Table { name, alias } => {
            (name.clone(), alias.clone().unwrap_or_else(|| name.clone()))
        }
        TableFactor::Derived { .. } => return Ok(false),
    };
    if catalog.view(&name).is_some() {
        return Ok(false);
    }
    let handle = catalog.table(&name)?;
    let table = handle.read();
    if let Some(on) = &j.on {
        for (qual, col) in on.column_refs() {
            if qual == Some(visible.as_str()) || qual.is_none() {
                if let Some(idx) = table.schema().column_index(col) {
                    if table.has_index_on(idx) {
                        return Ok(true);
                    }
                }
            }
        }
    }
    Ok(false)
}

fn explain_factor(
    catalog: &Catalog,
    profile: EngineProfile,
    f: &TableFactor,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    match f {
        TableFactor::Table { name, alias } => {
            let label = match alias {
                Some(a) => format!("{name} AS {a}"),
                None => name.clone(),
            };
            if let Some(view) = catalog.view(name) {
                push(out, depth, format!("View {label}"));
                explain_stmt(catalog, profile, &view, depth + 1, out)
            } else {
                // existence check so EXPLAIN reports missing tables
                let _ = catalog.table(name)?;
                push(out, depth, format!("SeqScan {label}"));
                Ok(())
            }
        }
        TableFactor::Derived { subquery, alias } => {
            push(out, depth, format!("Subquery AS {alias}"));
            explain_stmt(catalog, profile, subquery, depth + 1, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Value};

    fn db(profile: EngineProfile) -> Database {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE nodes (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        s.execute("CREATE INDEX e_src ON edges (src)").unwrap();
        db
    }

    fn plan(profile: EngineProfile, sql: &str) -> String {
        let d = db(profile);
        let mut s = d.connect();
        match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
            crate::StmtOutput::Rows(r) => r
                .rows
                .iter()
                .map(|row| match &row[0] {
                    Value::Text(t) => t.clone(),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n"),
            _ => panic!("expected rows"),
        }
    }

    #[test]
    fn profiles_pick_different_join_algorithms() {
        let sql = "SELECT nodes.id FROM nodes JOIN edges ON nodes.id = edges.src";
        let pg = plan(EngineProfile::Postgres, sql);
        assert!(pg.contains("HashJoin"), "{pg}");
        let my = plan(EngineProfile::MySql, sql);
        assert!(my.contains("IndexNestedLoopJoin"), "{my}");
    }

    #[test]
    fn unindexed_inner_side_degrades_to_block_nested_loop() {
        let sql = "SELECT nodes.id FROM edges JOIN nodes ON edges.weight = nodes.v";
        let my = plan(EngineProfile::MySql, sql);
        assert!(my.contains("BlockNestedLoop"), "{my}");
        let maria = plan(EngineProfile::MariaDb, sql);
        assert!(maria.contains("buffer 4096"), "{maria}");
    }

    #[test]
    fn aggregates_views_and_subqueries_shown() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        s.execute("CREATE VIEW vv AS SELECT src FROM edges")
            .unwrap();
        let out = match s
            .execute("EXPLAIN SELECT src, COUNT(*) FROM (SELECT src FROM vv) AS x GROUP BY src")
            .unwrap()
        {
            crate::StmtOutput::Rows(r) => r,
            _ => panic!(),
        };
        let text = out
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("Subquery AS x"), "{text}");
        assert!(text.contains("View vv"), "{text}");
    }

    #[test]
    fn explain_analyze_speaks_the_same_operator_vocabulary() {
        // every operator EXPLAIN names must appear in the ANALYZE tree too
        let sql = "SELECT nodes.id FROM nodes JOIN edges ON nodes.id = edges.src \
                   WHERE edges.weight > 0.0 ORDER BY nodes.id";
        for profile in EngineProfile::ALL {
            let d = db(profile);
            let mut s = d.connect();
            let mut ops = |prefix: &str| -> Vec<String> {
                match s.execute(&format!("{prefix} {sql}")).unwrap() {
                    crate::StmtOutput::Rows(r) => r
                        .rows
                        .iter()
                        .map(|row| {
                            let line = row[0].to_string();
                            let op = line.trim_start();
                            op.split(" (actual").next().unwrap_or(op).to_string()
                        })
                        .filter(|l| !l.starts_with("Execution:"))
                        .collect(),
                    _ => panic!("expected rows"),
                }
            };
            let planned = ops("EXPLAIN");
            let actual = ops("EXPLAIN ANALYZE");
            for op in &planned {
                assert!(
                    actual.contains(op),
                    "{profile:?}: planned op {op:?} missing from analyze {actual:?}"
                );
            }
        }
    }

    #[test]
    fn explain_missing_table_errors() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        assert!(s.execute("EXPLAIN SELECT * FROM nowhere").is_err());
    }

    #[test]
    fn explain_non_select_rejected() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        let err = s.execute("EXPLAIN INSERT INTO nodes VALUES (1, 2.0)");
        assert!(
            matches!(err, Err(crate::error::DbError::Unsupported(_))),
            "{err:?}"
        );
    }
}
