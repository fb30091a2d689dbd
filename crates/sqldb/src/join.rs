//! The join kernel: hash join, index nested-loop and block nested-loop
//! over column batches, shared by `SELECT` and `UPDATE … FROM`.
//!
//! Which algorithm runs is decided by the engine profile's
//! [`crate::profile::JoinStrategy`], reproducing the architectural
//! difference between the paper's three engines: the PostgreSQL profile
//! hash-joins equi-joins, the MySQL/MariaDB profiles only have nested loops
//! (upgraded to index nested-loop when the inner side is a base table with
//! an index on the join column — which is why SQLoop creates indexes on
//! every table it manages, paper §V-C).
//!
//! The outer (left) relation streams through batch by batch; the inner
//! (right) relation is one materialized batch. For each outer batch the
//! algorithm emits a **match list**: (outer lane, inner lane) pairs in
//! outer-lane order, with [`NULL_LANE`] as the inner lane of a `LEFT JOIN`
//! pad. Residual `ON` conjuncts filter the list through the batch kernels,
//! and the caller gathers only the columns the statement reads. No
//! per-row `Vec<Value>` is built, and because the list is ordered by outer
//! lane the output order never depends on the batch size.

use crate::ast::{BinaryOp, Expr, JoinType};
use crate::batch::{Col, ColData, ColumnBatch, CompiledExpr, IntMap, NULL_LANE};
use crate::bind::{bind_scalar, BoundExpr, Scope};
use crate::budget::{MemoryBudget, Reservation};
use crate::catalog::TableHandle;
use crate::error::DbResult;
use crate::exec::check_deadline;
use crate::profile::JoinStrategy;
use crate::stats::Stats;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A materialized relation flowing through the executor, in column batches.
#[derive(Debug)]
pub struct Rel {
    /// Visible relations and their column names.
    pub scope: Scope,
    /// The rows; every batch has `scope.arity()` columns.
    pub batches: Vec<ColumnBatch>,
    /// For each scope relation: the backing base table, when the relation is
    /// a direct table scan (enables index nested-loop joins).
    pub bases: Vec<Option<TableHandle>>,
    /// Per flat column: whether the statement reads it. Unread columns are
    /// all-NULL placeholders and are never gathered.
    pub needed: Vec<bool>,
    /// The budget charge for `batches`, refunded when the relation drops.
    pub(crate) charge: Reservation,
}

impl Rel {
    /// Wraps scanned or converted batches, charging their real size.
    ///
    /// # Errors
    /// [`crate::DbError::BudgetExceeded`] when the batches do not fit.
    pub fn new(
        scope: Scope,
        batches: Vec<ColumnBatch>,
        bases: Vec<Option<TableHandle>>,
        needed: Vec<bool>,
        budget: &Arc<MemoryBudget>,
    ) -> DbResult<Rel> {
        let charge = budget.reserve(batches.iter().map(ColumnBatch::heap_bytes).sum())?;
        Ok(Rel {
            scope,
            batches,
            bases,
            needed,
            charge,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows as one batch — the inner side of a join. Inner relations
    /// are built unchunked (one batch, none when empty), so this borrows;
    /// any other shape is concatenated.
    pub fn inner_batch(&self) -> Cow<'_, ColumnBatch> {
        match self.batches.as_slice() {
            [one] => Cow::Borrowed(one),
            many => {
                let mut rows = Vec::with_capacity(self.len());
                for b in many {
                    b.append_rows_to(&mut rows);
                }
                Cow::Owned(ColumnBatch::from_rows(rows, self.scope.arity()))
            }
        }
    }
}

/// Splits an expression into its top-level `AND` conjuncts.
pub fn split_conjuncts(expr: BoundExpr) -> Vec<BoundExpr> {
    match expr {
        BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = split_conjuncts(*left);
            v.extend(split_conjuncts(*right));
            v
        }
        other => vec![other],
    }
}

/// An equality `left_col = right_col` crossing the join boundary.
#[derive(Debug, Clone, Copy)]
struct EquiKey {
    /// Column offset into the left row.
    left: usize,
    /// Column offset into the *right* row (right-relative).
    right: usize,
}

/// Finds one usable equi-join key among `conjuncts`; returns the key and the
/// residual conjuncts (all others).
fn extract_equi_key(
    conjuncts: Vec<BoundExpr>,
    left_arity: usize,
    total_arity: usize,
) -> (Option<EquiKey>, Vec<BoundExpr>) {
    let crossing = |a: usize, b: usize| {
        (a < left_arity && (left_arity..total_arity).contains(&b)).then(|| EquiKey {
            left: a,
            right: b - left_arity,
        })
    };
    let mut key = None;
    let mut residual = Vec::new();
    for c in conjuncts {
        if let (
            None,
            BoundExpr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            },
        ) = (key, &c)
        {
            if let (BoundExpr::Column(a), BoundExpr::Column(b)) = (left.as_ref(), right.as_ref()) {
                key = crossing(*a, *b).or_else(|| crossing(*b, *a));
                if key.is_some() {
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (key, residual)
}

/// Whether every lane of `col` is an `Int` or NULL — the guard for the typed
/// i64 key paths. With both sides integer-only, exact i64 equality
/// coincides with [`Value::sql_eq`] (no cross-type numeric matching can
/// occur), so an i64 build or compare is semantics-preserving.
fn int_keys(col: &Col) -> bool {
    matches!(col.data, ColData::Int(_)) || !col.valid.contains(&true)
}

/// The i64 at a valid lane of an [`int_keys`] column.
fn int_at(col: &Col, lane: usize) -> i64 {
    match &col.data {
        ColData::Int(v) => v[lane],
        _ => unreachable!("typed key paths only read valid Int lanes"),
    }
}

/// Hash-join build side over the inner key column: per key, a chain of
/// inner lanes in ascending order (`heads` → first lane, `next[lane]` →
/// the following one). The typed variant skips per-probe `Value` hashing
/// and equality; the paper's graph workloads (integer node ids) always
/// take it.
struct HashIndex {
    heads: Heads,
    next: Vec<u32>,
}

enum Heads {
    Int(IntMap<u32>),
    Any(HashMap<Value, u32>),
}

impl HashIndex {
    fn build(col: &Col, typed: bool) -> HashIndex {
        let n = col.len();
        let mut next = vec![NULL_LANE; n];
        // walking backwards leaves every chain in ascending lane order
        let lanes = (0..n).rev().filter(|&l| col.valid[l]);
        let heads = if typed {
            let mut m = IntMap::with_capacity_and_hasher(n, Default::default());
            for lane in lanes {
                if let Some(prev) = m.insert(int_at(col, lane), lane as u32) {
                    next[lane] = prev;
                }
            }
            Heads::Int(m)
        } else {
            let mut m = HashMap::with_capacity(n);
            for lane in lanes {
                if let Some(prev) = m.insert(col.value_at(lane), lane as u32) {
                    next[lane] = prev;
                }
            }
            Heads::Any(m)
        };
        HashIndex { heads, next }
    }

    /// Heap bytes of the build table (charged for the join's duration).
    fn bytes(&self) -> u64 {
        // per slot: key, u32 lane and the map's control byte
        let heads = match &self.heads {
            Heads::Int(m) => m.capacity() * 13,
            Heads::Any(m) => m.capacity() * (std::mem::size_of::<Value>() + 5),
        };
        (heads + 4 * self.next.len()) as u64
    }

    /// The first inner lane whose key equals the outer key at `lane`.
    fn first(&self, col: &Col, lane: usize) -> u32 {
        if !col.valid[lane] {
            return NULL_LANE;
        }
        let hit = match &self.heads {
            Heads::Int(m) => m.get(&int_at(col, lane)),
            Heads::Any(m) => m.get(&col.value_at(lane)),
        };
        hit.copied().unwrap_or(NULL_LANE)
    }
}

/// A match list: (outer lane, inner lane) pairs, outer lanes ascending;
/// [`NULL_LANE`] is the inner lane of a `LEFT JOIN` pad.
pub type Matches = Vec<(u32, u32)>;

/// How candidate pairs are found.
enum Algo {
    /// Build a hash table on the inner key, probe with each outer lane.
    Hash(EquiKey, HashIndex),
    /// Probe the inner table's index with each outer lane; the vector maps
    /// a storage slot to its lane in the inner scan.
    IndexNl(EquiKey, TableHandle, Vec<u32>),
    /// Compare every inner row against a buffer of outer rows (typed i64
    /// compares when the flag is set).
    BlockNl(EquiKey, usize, bool),
    /// Every pair (no equi key): the `ON` condition is all residual.
    Nested,
}

/// One join, bound and planned.
struct Plan {
    join_type: JoinType,
    algo: Algo,
    residual: Vec<CompiledExpr>,
    needed: Vec<bool>,
    /// Charge for the build table / slot map.
    _charge: Reservation,
}

/// The candidates of one outer batch not yet emitted, from lane `start`.
struct Pending<'b> {
    outer: &'b ColumnBatch,
    inner: &'b ColumnBatch,
    cands: Matches,
    start: usize,
}

/// Runs joins for one statement under the engine profile's strategy.
#[derive(Debug, Clone, Copy)]
pub struct Joiner<'a> {
    /// The profile's join strategy.
    pub strategy: JoinStrategy,
    /// Engine counters (`rows_joined`, `index_lookups`).
    pub stats: &'a Stats,
    /// Budget the match lists, build tables and outputs are charged to.
    pub budget: &'a Arc<MemoryBudget>,
    /// Statement deadline, checked per outer batch and per emitted list.
    pub deadline: Option<Instant>,
}

impl Joiner<'_> {
    /// Joins `left` with `right` (appending the right scope) and gathers
    /// the read columns into output batches of roughly `out_rows` rows.
    /// `on` is bound against the combined scope.
    ///
    /// # Errors
    /// Binder/eval errors from the `ON` expression, budget and deadline
    /// errors.
    pub fn join(
        &self,
        left: Rel,
        right: Rel,
        join_type: JoinType,
        on: Option<&Expr>,
        out_rows: usize,
    ) -> DbResult<Rel> {
        let mut scope = left.scope.clone();
        for r in right.scope.relations() {
            scope.push(r.clone());
        }
        let conjuncts = match on {
            Some(e) => split_conjuncts(bind_scalar(e, &scope)?),
            None => Vec::new(),
        };
        let needed: Vec<bool> = left.needed.iter().chain(&right.needed).copied().collect();
        let mut charge = self.budget.reserve(0)?;
        let mut batches = Vec::new();
        self.run(&left, &right, join_type, conjuncts, out_rows, |o, i, m| {
            let b = gather_pair(o, i, m, &needed);
            charge.grow(b.heap_bytes())?;
            batches.push(b);
            Ok(())
        })?;
        let mut bases = left.bases;
        bases.extend(right.bases);
        Ok(Rel {
            scope,
            batches,
            bases,
            needed,
            charge,
        })
    }

    /// The kernel: finds the matches of every outer batch of `left` in
    /// `right` under `conjuncts` (bound against left ++ right) and hands
    /// each final match list — residual applied, `LEFT JOIN` pads in place,
    /// about `out_rows` pairs — to `sink` with its outer and inner batch.
    /// `rows_joined` counts every candidate pair examined.
    ///
    /// # Errors
    /// Residual evaluation, budget and deadline errors, and `sink`'s own.
    pub fn run(
        &self,
        left: &Rel,
        right: &Rel,
        join_type: JoinType,
        conjuncts: Vec<BoundExpr>,
        out_rows: usize,
        mut sink: impl FnMut(&ColumnBatch, &ColumnBatch, &Matches) -> DbResult<()>,
    ) -> DbResult<()> {
        let inner = right.inner_batch();
        let plan = self.plan(left, right, &inner, join_type, conjuncts)?;
        let guard = match &plan.algo {
            Algo::IndexNl(_, handle, _) => Some(handle.read()),
            _ => None,
        };
        for outer in &left.batches {
            check_deadline(self.deadline)?;
            let mut p = Pending {
                outer,
                inner: &inner,
                cands: Vec::new(),
                start: 0,
            };
            let mut examined = 0;
            if let Algo::BlockNl(key, buffer, typed) = &plan.algo {
                let (lc, rc) = (outer.col(key.left), inner.col(key.right));
                for block in (0..outer.len()).step_by(*buffer) {
                    let block = block..(block + buffer).min(outer.len());
                    let keys: Vec<Value> = if *typed {
                        Vec::new()
                    } else {
                        block.clone().map(|l| lc.value_at(l)).collect()
                    };
                    for r in (0..inner.len()).filter(|&r| rc.valid[r]) {
                        examined += block.len();
                        let pair = |l: usize| (l as u32, r as u32);
                        if *typed {
                            let rk = int_at(rc, r);
                            let hit = |l: &usize| lc.valid[*l] && int_at(lc, *l) == rk;
                            p.cands.extend(block.clone().filter(hit).map(pair));
                        } else {
                            let rk = rc.value_at(r);
                            let hit = |l: &usize| keys[l - block.start].sql_eq(&rk) == Some(true);
                            p.cands.extend(block.clone().filter(hit).map(pair));
                        }
                    }
                    // the buffer meets pairs inner-row-major; a stable sort
                    // makes the list outer-lane-major, inner lanes ascending
                    p.cands.sort_by_key(|m| m.0);
                    self.emit(&plan, &mut p, block.end, &mut sink)?;
                }
            } else {
                for lane in 0..outer.len() {
                    let before = p.cands.len();
                    let l = lane as u32;
                    match &plan.algo {
                        Algo::Hash(key, index) => {
                            let mut r = index.first(outer.col(key.left), lane);
                            while r != NULL_LANE {
                                p.cands.push((l, r));
                                r = index.next[r as usize];
                            }
                        }
                        Algo::IndexNl(key, _, lanes) => {
                            let kc = outer.col(key.left);
                            if let (true, Some(t)) = (kc.valid[lane], &guard) {
                                self.stats.add_index_lookups(1);
                                let slots = t.index_lookup(key.right, &kc.value_at(lane));
                                let slots = slots.unwrap_or_default().iter();
                                p.cands.extend(slots.map(|&slot| (l, lanes[slot])));
                            }
                        }
                        _ => p.cands.extend((0..inner.len() as u32).map(|r| (l, r))),
                    }
                    examined += p.cands.len() - before;
                    if p.cands.len() >= out_rows.max(1) {
                        self.emit(&plan, &mut p, lane + 1, &mut sink)?;
                    }
                }
            }
            self.stats.add_rows_joined(examined as u64);
            self.emit(&plan, &mut p, outer.len(), &mut sink)?;
        }
        Ok(())
    }

    /// Binds the key, picks the algorithm and compiles the residual.
    fn plan(
        &self,
        left: &Rel,
        right: &Rel,
        inner: &ColumnBatch,
        join_type: JoinType,
        conjuncts: Vec<BoundExpr>,
    ) -> DbResult<Plan> {
        let left_arity = left.scope.arity();
        let (key, residual) =
            extract_equi_key(conjuncts, left_arity, left_arity + right.scope.arity());
        let mut charge = self.budget.reserve(0)?;
        let algo = match key {
            None => Algo::Nested,
            Some(key) => {
                // index nested-loop: a single base-table inner side with an
                // index on the join column, on the nested-loop profiles
                let indexed = match right.bases.as_slice() {
                    [Some(h)] if self.strategy != JoinStrategy::Hash => {
                        h.read().has_index_on(key.right).then(|| h.clone())
                    }
                    _ => None,
                };
                let typed = || {
                    int_keys(inner.col(key.right))
                        && left.batches.iter().all(|b| int_keys(b.col(key.left)))
                };
                match (indexed, self.strategy) {
                    (Some(handle), _) => {
                        let lanes = {
                            let t = handle.read();
                            let mut lanes = vec![NULL_LANE; t.slot_count()];
                            for (lane, (slot, _)) in t.iter().enumerate() {
                                lanes[slot] = lane as u32;
                            }
                            lanes
                        };
                        charge.grow(4 * lanes.len() as u64)?;
                        Algo::IndexNl(key, handle, lanes)
                    }
                    (None, JoinStrategy::Hash) => {
                        let index = HashIndex::build(inner.col(key.right), typed());
                        charge.grow(index.bytes())?;
                        Algo::Hash(key, index)
                    }
                    (None, JoinStrategy::BlockNestedLoop { buffer_rows }) => {
                        Algo::BlockNl(key, buffer_rows.max(1), typed())
                    }
                }
            }
        };
        Ok(Plan {
            join_type,
            algo,
            residual: residual.iter().map(CompiledExpr::new).collect(),
            needed: left.needed.iter().chain(&right.needed).copied().collect(),
            _charge: charge,
        })
    }

    /// Finishes the pending candidates of outer lanes `p.start..end`:
    /// filters them through the residual conjuncts (in order, each seeing
    /// only the survivors of the previous ones, as a short-circuiting row
    /// loop would), pads unmatched lanes of a `LEFT JOIN` in place, and
    /// passes the list on.
    fn emit(
        &self,
        plan: &Plan,
        p: &mut Pending<'_>,
        end: usize,
        sink: &mut impl FnMut(&ColumnBatch, &ColumnBatch, &Matches) -> DbResult<()>,
    ) -> DbResult<()> {
        check_deadline(self.deadline)?;
        let mut cands = std::mem::take(&mut p.cands);
        if !plan.residual.is_empty() && !cands.is_empty() {
            let mut batch = gather_pair(p.outer, p.inner, &cands, &plan.needed);
            let _batch_charge = self.budget.reserve(batch.heap_bytes())?;
            for c in &plan.residual {
                let keep = c.eval_batch(&batch)?.truthy_mask(&batch);
                batch = batch.compact(&keep);
                let mut keep = keep.into_iter();
                cands.retain(|_| keep.next().unwrap_or(false));
            }
        }
        if plan.join_type == JoinType::Left {
            let mut padded = Vec::with_capacity(cands.len());
            let mut it = cands.into_iter().peekable();
            for lane in p.start as u32..end as u32 {
                let len = padded.len();
                padded.extend(std::iter::from_fn(|| it.next_if(|m| m.0 == lane)));
                if padded.len() == len {
                    padded.push((lane, NULL_LANE));
                }
            }
            cands = padded;
        }
        p.start = end;
        let _lists = self.budget.reserve(8 * cands.capacity() as u64)?;
        match cands.is_empty() {
            true => Ok(()),
            false => sink(p.outer, p.inner, &cands),
        }
    }
}

/// Gathers the read columns of a match list: outer columns then inner ones.
fn gather_pair(
    outer: &ColumnBatch,
    inner: &ColumnBatch,
    m: &Matches,
    needed: &[bool],
) -> ColumnBatch {
    let (l, r): (Vec<u32>, Vec<u32>) = m.iter().copied().unzip();
    let (ln, rn) = needed.split_at(outer.arity());
    let mut cols = outer.gather(&l, ln);
    cols.extend(inner.gather(&r, rn));
    ColumnBatch::from_cols(cols, m.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::ScopeRelation;
    use crate::parser::parse_expression;
    use crate::stats::StatsSnapshot;
    use crate::storage::Table;
    use crate::types::{Column, DataType, Schema};
    use crate::value::Row;

    const BNL: JoinStrategy = JoinStrategy::BlockNestedLoop { buffer_rows: 2 };
    const HASH: JoinStrategy = JoinStrategy::Hash;
    const ON: &str = "l.id = r.id";

    /// A relation of `rows` in batches of `batch` rows.
    fn rel(qualifier: &str, cols: &[&str], rows: Vec<Row>, batch: usize) -> Rel {
        let mut scope = Scope::new();
        scope.push(ScopeRelation {
            qualifier: qualifier.into(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
        });
        let batches = ColumnBatch::chunk_rows(rows, cols.len(), batch);
        let budget = Arc::new(MemoryBudget::new());
        Rel::new(scope, batches, vec![None], vec![true; cols.len()], &budget).unwrap()
    }

    fn left_rows() -> Vec<Row> {
        ["a", "b", "c"]
            .iter()
            .zip(1..)
            .map(|(v, id)| vec![Value::Int(id), Value::Text(v.to_string())])
            .collect()
    }

    fn right_rows() -> Vec<Row> {
        [(1, 0.5), (1, 0.7), (3, 0.9)]
            .iter()
            .map(|&(id, w)| vec![Value::Int(id), Value::Float(w)])
            .collect()
    }

    /// Single-column INT rows (`None` = NULL).
    fn ints(keys: &[Option<i64>]) -> Vec<Row> {
        keys.iter()
            .map(|k| vec![k.map_or(Value::Null, Value::Int)])
            .collect()
    }

    /// Joins `l` with `r` (`on` empty = no condition); returns the output
    /// rows in emission order and the counters the join moved.
    fn join(
        l: Rel,
        r: Rel,
        ty: JoinType,
        strategy: JoinStrategy,
        on: &str,
    ) -> (Vec<Row>, StatsSnapshot) {
        let (stats, budget) = (Stats::default(), Arc::new(MemoryBudget::new()));
        let joiner = Joiner {
            strategy,
            stats: &stats,
            budget: &budget,
            deadline: None,
        };
        let on = (!on.is_empty()).then(|| parse_expression(on).unwrap());
        let out = joiner.join(l, r, ty, on.as_ref(), 2).unwrap();
        let mut rows = Vec::new();
        for b in &out.batches {
            b.append_rows_to(&mut rows);
        }
        (rows, stats.snapshot())
    }

    /// The fixture join, rows sorted.
    fn run(ty: JoinType, strategy: JoinStrategy, on: &str) -> Vec<Row> {
        let l = rel("l", &["id", "v"], left_rows(), 2);
        let r = rel("r", &["id", "w"], right_rows(), usize::MAX);
        let mut out = join(l, r, ty, strategy, on).0;
        out.sort();
        out
    }

    #[test]
    fn hash_and_bnl_agree_on_inner_join() {
        let h = run(JoinType::Inner, HASH, ON);
        assert_eq!(h, run(JoinType::Inner, BNL, ON));
        assert_eq!(h.len(), 3); // 1 matches twice, 3 once
    }

    #[test]
    fn hash_and_bnl_agree_on_left_join() {
        let h = run(JoinType::Left, HASH, ON);
        let one = JoinStrategy::BlockNestedLoop { buffer_rows: 1 };
        assert_eq!(h, run(JoinType::Left, one, ON));
        assert_eq!(h.len(), 4); // id=2 preserved with NULLs
        assert!(h.iter().any(|r| r[2].is_null()));
    }

    #[test]
    fn reversed_equality_detected() {
        assert_eq!(run(JoinType::Inner, HASH, "r.id = l.id").len(), 3);
    }

    #[test]
    fn residual_condition_applied() {
        let on = "l.id = r.id AND r.w > 0.6";
        assert_eq!(run(JoinType::Inner, HASH, on).len(), 2);
        assert_eq!(run(JoinType::Inner, BNL, on).len(), 2);
        // LEFT JOIN keeps unmatched-after-residual rows
        let h = run(JoinType::Left, HASH, "l.id = r.id AND r.w > 100.0");
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|r| r[2].is_null()));
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        // pairs with l.id < r.id: (1,3), (2,3)
        assert_eq!(run(JoinType::Inner, HASH, "l.id < r.id").len(), 2);
        assert_eq!(run(JoinType::Left, BNL, "l.id < r.id").len(), 3);
    }

    #[test]
    fn cross_join() {
        for strategy in [HASH, BNL] {
            let out = run(JoinType::Cross, strategy, "");
            assert_eq!(out.len(), 9);
            assert!(out.iter().all(|r| r.len() == 4));
        }
    }

    #[test]
    fn null_keys_never_match() {
        for strategy in [HASH, BNL] {
            let l = rel("l", &["id"], ints(&[None, Some(1)]), 1);
            let r = rel("r", &["id"], ints(&[None, Some(1)]), 9);
            let out = join(l, r, JoinType::Inner, strategy, ON).0;
            assert_eq!(out, vec![vec![Value::Int(1), Value::Int(1)]]);
        }
    }

    #[test]
    fn strategies_agree_on_small_and_big_sides() {
        // a small and a big side in both orientations, with a residual
        // that passes some key matches and fails others, for both join
        // types: hash and block nested-loop must return the same multiset
        let small: Vec<Row> = [(0, 100), (1, 101), (7, 107)] // 7 unmatched
            .iter()
            .map(|&(id, x)| vec![Value::Int(id), Value::Int(x)])
            .collect();
        let big: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
            .collect();
        let on = "l.id = r.id AND l.x + r.x < 115";
        for ty in [JoinType::Inner, JoinType::Left] {
            for (l, r) in [(&small, &big), (&big, &small)] {
                let outs: Vec<Vec<Row>> = [HASH, BNL]
                    .map(|strategy| {
                        let l = rel("l", &["id", "x"], l.clone(), 4);
                        let r = rel("r", &["id", "x"], r.clone(), usize::MAX);
                        let mut out = join(l, r, ty, strategy, on).0;
                        out.sort();
                        out
                    })
                    .into();
                assert_eq!(outs[0], outs[1], "{ty:?}: strategies disagree");
            }
        }
    }

    #[test]
    fn typed_fast_path_matches_generic_and_bails_on_mixed_keys() {
        for strategy in [HASH, BNL] {
            // integer-only keys (plus NULLs) take the typed i64 paths
            let l = rel("l", &["id"], ints(&[Some(1), None, Some(2)]), 2);
            let r = rel("r", &["id"], ints(&[Some(2), Some(2), None]), 9);
            assert_eq!(join(l, r, JoinType::Inner, strategy, ON).0.len(), 2);
            // a Float key on either side must disable the typed path so that
            // cross-type numeric equality (Int 1 = Float 1.0) still matches
            let l = rel("l", &["id"], ints(&[Some(1)]), 1);
            let r = rel("r", &["id"], vec![vec![Value::Float(1.0)]], 1);
            let out = join(l, r, JoinType::Inner, strategy, ON).0;
            assert_eq!(out.len(), 1, "{strategy:?}: Int 1 must match Float 1.0");
        }
    }

    #[test]
    fn output_is_outer_lane_major_with_pads_in_place() {
        // whatever the strategy and outer batch size, matches come in
        // outer-lane order, each lane's inner rows ascending, pads in place
        let (l, r) = (left_rows(), right_rows());
        let nulls = vec![Value::Null; 2];
        let want: Vec<Row> = [(0, &r[0]), (0, &r[1]), (1, &nulls), (2, &r[2])]
            .iter()
            .map(|(i, inner)| l[*i].iter().chain(inner.iter()).cloned().collect())
            .collect();
        for strategy in [HASH, BNL] {
            for batch in [1, 2, 3] {
                let l = rel("l", &["id", "v"], left_rows(), batch);
                let r = rel("r", &["id", "w"], right_rows(), usize::MAX);
                let out = join(l, r, JoinType::Left, strategy, ON).0;
                assert_eq!(out, want, "{strategy:?} batch {batch}");
            }
        }
    }

    #[test]
    fn index_nested_loop_probes_the_inner_index() {
        let cols = vec![
            Column::new("id", DataType::Int),
            Column::new("w", DataType::Float),
        ];
        let mut table = Table::new(Schema::new(cols, None).unwrap());
        for row in right_rows() {
            table.insert(row).unwrap();
        }
        // a tombstone makes storage slots and scan lanes differ
        table.delete_slot(0).unwrap();
        table.create_index("r_id", 0, false).unwrap();
        let handle: TableHandle = Arc::new(parking_lot::RwLock::new(table));
        let run = |strategy| {
            let mut r = rel("r", &["id", "w"], handle.read().scan(), usize::MAX);
            r.bases = vec![Some(handle.clone())];
            let l = rel("l", &["id", "v"], left_rows(), 2);
            join(l, r, JoinType::Left, strategy, ON)
        };
        let (out, stats) = run(BNL);
        assert_eq!(stats.index_lookups, 3);
        // id 1 and 3 match once each (slot 0 is gone), 2 is padded
        assert_eq!(stats.rows_joined, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0][3], Value::Float(0.7));
        assert!(out[1][2].is_null());
        // the hash profile never takes the index
        let (hashed, stats) = run(HASH);
        assert_eq!(hashed, out);
        assert_eq!(stats.index_lookups, 0);
    }

    #[test]
    fn rows_joined_counts_examined_pairs_in_every_strategy() {
        let count = |strategy, on| {
            let l = rel("l", &["id", "v"], left_rows(), 2);
            let r = rel("r", &["id", "w"], right_rows(), usize::MAX);
            join(l, r, JoinType::Inner, strategy, on).1.rows_joined
        };
        // hash: the key-matched candidates (1 twice, 3 once)
        assert_eq!(count(HASH, ON), 3);
        // block nested-loop: every outer row against every non-NULL inner key
        assert_eq!(count(BNL, ON), 9);
        // no equi key: every pair
        assert_eq!(count(HASH, "l.id < r.id"), 9);
        assert_eq!(count(HASH, ""), 9);
    }

    #[test]
    fn unread_columns_are_not_gathered() {
        let l = rel("l", &["id", "v"], left_rows(), 2);
        let mut r = rel("r", &["id", "w"], right_rows(), usize::MAX);
        r.needed = vec![true, false];
        let (out, _) = join(l, r, JoinType::Inner, HASH, ON);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|row| row[3].is_null()));
    }

    #[test]
    fn conjunct_splitting() {
        let mut scope = Scope::new();
        scope.push(ScopeRelation {
            qualifier: "t".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
        });
        let e = parse_expression("t.a = 1 AND t.b = 2 AND t.c > 3").unwrap();
        let bound = bind_scalar(&e, &scope).unwrap();
        assert_eq!(split_conjuncts(bound).len(), 3);
    }
}
