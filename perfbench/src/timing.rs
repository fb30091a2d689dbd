//! A timing decorator for [`dbcp::Driver`] and [`dbcp::Connection`].
//!
//! Every call into the driver layer becomes a [`Span`]: its name, the
//! statement family, start and end, the connection it ran on, and the
//! query span that caused it. Spans stay in memory until the run ends.
//! Results and errors pass through unchanged, so answers and the
//! retry/replay paths of the schedulers behave exactly as without it.

use dbcp::{Connection, Driver, MetricsCmd, PipelineOutcome, PipelineStep};
use sqldb::{DbResult, EngineProfile, IsolationLevel, QueryResult, StmtOutput, Value};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Statement family of a driver call, from the statement's leading keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `SELECT`, `WITH`, `VALUES`.
    Select,
    /// `INSERT`.
    Insert,
    /// `UPDATE`.
    Update,
    /// `DELETE`.
    Delete,
    /// `CREATE`, `DROP`, `ALTER`, `TRUNCATE`.
    Ddl,
    /// Transaction control and session settings.
    Txn,
    /// A pipeline of several statements in one call.
    Pipeline,
    /// Anything else (connects, metrics commands, unknown keywords).
    Other,
}

impl Family {
    /// Classifies `sql` by its first word, ignoring case.
    pub fn of(sql: &str) -> Family {
        let word = sql
            .trim_start()
            .split(|c: char| !c.is_ascii_alphabetic())
            .next()
            .unwrap_or("");
        let is = |k: &str| word.eq_ignore_ascii_case(k);
        if is("select") || is("with") || is("values") {
            Family::Select
        } else if is("insert") {
            Family::Insert
        } else if is("update") {
            Family::Update
        } else if is("delete") {
            Family::Delete
        } else if is("create") || is("drop") || is("alter") || is("truncate") {
            Family::Ddl
        } else if is("begin") || is("commit") || is("rollback") || is("set") || is("start") {
            Family::Txn
        } else {
            Family::Other
        }
    }

    /// Lower-case label used in the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Family::Select => "select",
            Family::Insert => "insert",
            Family::Update => "update",
            Family::Delete => "delete",
            Family::Ddl => "ddl",
            Family::Txn => "txn",
            Family::Pipeline => "pipeline",
            Family::Other => "other",
        }
    }
}

/// One timed call. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Id of the enclosing query span (0 for a query span itself, or for a
    /// call made outside any query).
    pub parent: u64,
    /// Connection the call ran on (0 for query spans).
    pub conn: u64,
    /// Call name: `query`, `connect`, `execute`, `run_pipeline`, ….
    pub name: &'static str,
    /// Statement family of the call.
    pub family: Family,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// In-memory span store shared by the wrapped driver and its connections.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    next_conn: AtomicU64,
    /// Id of the query span currently open (0 = none).
    current_query: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            current_query: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a query span: calls recorded until [`Recorder::end_query`]
    /// name it as their parent. Returns its id and start time.
    pub fn begin_query(&self) -> (u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.current_query.store(id, Ordering::SeqCst);
        (id, self.now_ns())
    }

    /// Closes the query span opened by [`Recorder::begin_query`] and
    /// returns its end time.
    pub fn end_query(&self, id: u64, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        self.current_query.store(0, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: 0,
            conn: 0,
            name: "query",
            family: Family::Other,
            start_ns,
            end_ns,
        });
        end_ns
    }

    /// Number of spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Copies of the spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.lock()[from..].to_vec()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent conn name family start_ns end_ns`.
    ///
    /// # Errors
    /// I/O errors from `out`.
    pub fn write_tsv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tconn\tname\tfamily\tstart_ns\tend_ns")?;
        for s in self.lock().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.conn,
                s.name,
                s.family.label(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a recording thread panicked")
    }

    fn push(&self, span: Span) {
        self.lock().push(span);
    }

    fn record(&self, conn: u64, name: &'static str, family: Family, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current_query.load(Ordering::SeqCst),
            conn,
            name,
            family,
            start_ns,
            end_ns,
        });
    }
}

/// Total length of the union of `[start, end)` intervals, in nanoseconds.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A driver whose connections record a span per call.
pub struct TimingDriver {
    inner: Arc<dyn Driver>,
    recorder: Arc<Recorder>,
}

impl TimingDriver {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: Arc<dyn Driver>, recorder: Arc<Recorder>) -> TimingDriver {
        TimingDriver { inner, recorder }
    }
}

impl Driver for TimingDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        let conn = self.recorder.next_conn.fetch_add(1, Ordering::Relaxed);
        let start = self.recorder.now_ns();
        let result = self.inner.connect();
        self.recorder.record(conn, "connect", Family::Other, start);
        let inner = result?;
        Ok(Box::new(TimingConnection {
            inner,
            recorder: self.recorder.clone(),
            conn,
            families: HashMap::new(),
        }))
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn engine_stats(&self) -> Option<sqldb::StatsSnapshot> {
        self.inner.engine_stats()
    }

    fn set_memory_limit(&self, limit: Option<u64>) -> bool {
        self.inner.set_memory_limit(limit)
    }

    fn memory_used(&self) -> Option<u64> {
        self.inner.memory_used()
    }

    fn plan_cache_stats(&self) -> Option<sqldb::PlanCacheStats> {
        self.inner.plan_cache_stats()
    }

    fn digest_stats(&self) -> Option<Vec<sqldb::DigestEntry>> {
        self.inner.digest_stats()
    }

    fn digest_top_misses(&self, k: usize) -> Option<Vec<sqldb::DigestEntry>> {
        self.inner.digest_top_misses(k)
    }

    fn set_profiling(&self, on: bool) -> bool {
        self.inner.set_profiling(on)
    }
}

/// A connection minted by [`TimingDriver`].
pub struct TimingConnection {
    inner: Box<dyn Connection>,
    recorder: Arc<Recorder>,
    conn: u64,
    /// Family of each statement prepared on this connection, so prepared
    /// executions are classified like their textual twins.
    families: HashMap<u64, Family>,
}

impl TimingConnection {
    fn timed<T>(
        &mut self,
        name: &'static str,
        family: Family,
        call: impl FnOnce(&mut dyn Connection) -> T,
    ) -> T {
        let start = self.recorder.now_ns();
        let out = call(self.inner.as_mut());
        self.recorder.record(self.conn, name, family, start);
        out
    }
}

impl Connection for TimingConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.timed("execute", Family::of(sql), |c| c.execute(sql))
    }

    fn execute_batch(&mut self, statements: &[String]) -> DbResult<Vec<StmtOutput>> {
        self.timed("execute_batch", Family::Pipeline, |c| {
            c.execute_batch(statements)
        })
    }

    fn query(&mut self, sql: &str) -> DbResult<QueryResult> {
        self.timed("query", Family::of(sql), |c| c.query(sql))
    }

    fn begin(&mut self) -> DbResult<()> {
        self.timed("begin", Family::Txn, |c| c.begin())
    }

    fn commit(&mut self) -> DbResult<()> {
        self.timed("commit", Family::Txn, |c| c.commit())
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.timed("rollback", Family::Txn, |c| c.rollback())
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.timed("set_isolation", Family::Txn, |c| c.set_isolation(level))
    }

    fn ping(&mut self) -> bool {
        self.timed("ping", Family::Other, |c| c.ping())
    }

    fn set_statement_timeout(&mut self, timeout: Option<Duration>) -> DbResult<bool> {
        self.timed("set_statement_timeout", Family::Txn, |c| {
            c.set_statement_timeout(timeout)
        })
    }

    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        let family = Family::of(sql);
        let out = self.timed("prepare_statement", family, |c| c.prepare_statement(sql));
        if let Ok((id, _)) = out {
            self.families.insert(id, family);
        }
        out
    }

    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        let family = self
            .families
            .get(&stmt_id)
            .copied()
            .unwrap_or(Family::Other);
        self.timed("execute_prepared", family, |c| {
            c.execute_prepared(stmt_id, params)
        })
    }

    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        self.families.remove(&stmt_id);
        self.timed("close_prepared", Family::Other, |c| {
            c.close_prepared(stmt_id)
        })
    }

    fn prepared_epoch(&self) -> u64 {
        self.inner.prepared_epoch()
    }

    fn run_pipeline(&mut self, steps: &[PipelineStep]) -> DbResult<PipelineOutcome> {
        self.timed("run_pipeline", Family::Pipeline, |c| c.run_pipeline(steps))
    }

    fn metrics(&mut self, cmd: &MetricsCmd) -> DbResult<StmtOutput> {
        self.timed("metrics", Family::Other, |c| c.metrics(cmd))
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        let mut v = vec![(10, 20), (0, 5), (15, 30), (40, 41)];
        assert_eq!(union_ns(&mut v), 5 + 20 + 1);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn families_follow_the_leading_keyword() {
        assert_eq!(Family::of("  select 1"), Family::Select);
        assert_eq!(
            Family::of("WITH x AS (SELECT 1) SELECT * FROM x"),
            Family::Select
        );
        assert_eq!(Family::of("INSERT INTO t VALUES (1)"), Family::Insert);
        assert_eq!(Family::of("DROP TABLE IF EXISTS t"), Family::Ddl);
        assert_eq!(Family::of("delete from t"), Family::Delete);
        assert_eq!(Family::of("UPDATE t SET a = 1"), Family::Update);
        assert_eq!(Family::of("vacuum"), Family::Other);
    }
}
