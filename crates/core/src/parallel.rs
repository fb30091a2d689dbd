//! The parallel execution engine: worker pool, Compute/Gather task
//! scheduling, message-table registry, and the three scheduling policies of
//! paper §V-E (Sync, Async, AsyncP).
//!
//! The master thread owns all scheduling state; workers are dumb statement
//! runners, each holding its own engine connection (the paper's "each thread
//! opens a new connection with the target database engine").
//!
//! ## Fault recovery
//!
//! Task failures are classified by [`SqloopError::is_retryable`]. A task
//! that fails transiently (connection drop, lock timeout) is **replayed**:
//! the worker reports the index of the failed statement along with the
//! partial results, and the master re-dispatches the task resuming at that
//! statement, up to [`SqloopConfig::task_retries`] replays. Resuming at the
//! failed statement (rather than rerunning the whole task) is what keeps
//! replay safe for the one non-idempotent statement in a Compute task — the
//! final delta-advancing UPDATE — because a failed statement surfaced its
//! error before taking effect. Workers that lose their engine connection
//! reconnect under the configured retry policy before running the next
//! task. When the replay budget is exhausted the scheduler aborts with
//! [`SqloopError::Task`]; the facade then optionally downgrades the run to
//! the single-threaded executor (see `api.rs`).

use crate::analysis::ParallelPlan;
use crate::checkpoint::{dump_table_sql, restore_table_sql, LoopSnapshot, PartSnap};
use crate::common::{
    create_cte_table, refresh_delta_snapshot, run, run_query, CteNames, CteSchema,
};
use crate::config::{ExecutionMode, SqloopConfig};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::{IterativeCte, Termination};
use crate::parallel_sql::SqlGen;
use crate::progress::Sampler;
use crate::run::{LoopState, RunCtx, RunOutcome, Verdict};
use crate::supervisor::{now_us, panic_detail, HeartbeatSlot, SupervisorMetrics, STATE_BUSY};
use crate::translate::{translate_query_to_sql, translate_sql};
use crate::watchdog::Watchdog;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dbcp::{CancelToken, Connection, Driver, PipelineStep, PreparedStatement, RetryPolicy};
use obs::{EventKind, Span, SpanKind, SpanOutcome, TraceHandle};
use sqldb::{DataType, Row, StmtOutput, TableDump, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
enum TaskKind {
    Compute { msg_table: String },
    Gather { read_until: usize },
}

#[derive(Debug, Clone)]
struct Task {
    /// Scheduler-unique dispatch id, assigned at dispatch time. The
    /// supervisor keys its in-flight map by it, so a result coming back
    /// from an abandoned worker (whose task was replayed under a new id)
    /// can be recognized and discarded.
    task_id: u64,
    partition: usize,
    kind: TaskKind,
    stmts: Vec<String>,
    /// Scheduler round/wave the task was built in (1-based; trace only).
    round: u64,
    /// 1-based attempt number of this dispatch.
    attempt: u32,
    /// Replay resume point: the worker executes `stmts[start_at..]`.
    start_at: usize,
    /// Statements below this index are scratch maintenance (message-slot
    /// `DELETE`/`INSERT`) whose affected-row counts must NOT feed the
    /// convergence delta; only `stmts[changed_from..]` contribute to
    /// [`Done::changed`].
    changed_from: usize,
    /// Changed-row count accumulated by earlier attempts' statements.
    acc_changed: u64,
    /// `Rows` outputs accumulated by earlier attempts' statements.
    acc_rows: Vec<sqldb::QueryResult>,
}

#[derive(Debug)]
struct Done {
    /// The task itself, returned so a failed one can be replayed.
    task: Task,
    /// Rows changed by this attempt's statements.
    changed: u64,
    /// `Rows` outputs of this attempt's statements, in order (a full
    /// Compute: the message-row count, then the touched-partition list
    /// when routing).
    rows_outputs: Vec<sqldb::QueryResult>,
    elapsed: std::time::Duration,
    /// `(failed statement index, error)` — the statement at that index
    /// did not take effect.
    error: Option<(usize, SqloopError)>,
    /// Engine reconnects this worker performed while running the task.
    reconnects: u32,
}

#[derive(Debug, Clone, Default)]
struct PartState {
    /// What a checkpoint carries: Compute count, message watermark,
    /// pending delta, and the strict Gather→Compute alternation (paper
    /// Fig. 3) — `prefer_compute` is set after a Gather so the next visit
    /// runs the Compute instead of re-gathering.
    saved: PartSnap,
    cursor: usize,
    in_flight: bool,
    priority: f64,
}

#[derive(Debug)]
struct MsgState {
    name: String,
    /// Partition that produced the message — the slot returns to this
    /// partition's free list once every reader has consumed it.
    partition: usize,
    live: bool,
    /// Destination partitions with matching rows (`None` = broadcast).
    targets: Option<Vec<usize>>,
}

/// Drops everything partitioning may have created. Every drop is
/// `IF EXISTS` (errors ignored), so this is safe however far setup got.
fn drop_setup_artifacts(main: &mut dyn Connection, names: &CteNames, partitions: usize) {
    let _ = run(main, &format!("DROP VIEW IF EXISTS {}", names.table));
    let _ = run(main, &format!("DROP TABLE IF EXISTS {}", names.table));
    let _ = run(main, &format!("DROP TABLE IF EXISTS {}", names.mjoin()));
    let _ = run(
        main,
        &format!("DROP TABLE IF EXISTS {}", names.delta_snapshot()),
    );
    for x in 0..partitions {
        let _ = run(
            main,
            &format!("DROP TABLE IF EXISTS {}", names.partition(x)),
        );
    }
}

/// Builds the partitioned table layout: either from the seed query (fresh
/// run) or from a checkpoint's table dumps (`resume`), ending in the same
/// state — partition tables, the union view `R`, `Rmjoin` + index, and a
/// delta snapshot when the termination condition reads one.
fn parallel_setup(
    main: &mut dyn Connection,
    cte: &IterativeCte,
    plan: ParallelPlan,
    config: &SqloopConfig,
    names: &CteNames,
    resume: Option<&LoopSnapshot>,
) -> SqloopResult<Arc<SqlGen>> {
    let schema = match resume {
        // schema from the dumped partition-0 columns (hidden bookkeeping
        // columns excluded) — the seed query never runs on resume
        Some(snap) => {
            let p0 = names.partition(0);
            let dump0 = snap.tables.iter().find(|t| t.name == p0).ok_or_else(|| {
                SqloopError::Checkpoint(format!("snapshot holds no table named {p0}"))
            })?;
            let visible: Vec<_> = dump0
                .columns
                .iter()
                .filter(|c| !c.name.starts_with("__"))
                .collect();
            CteSchema {
                columns: visible.iter().map(|c| c.name.clone()).collect(),
                types: visible.iter().map(|c| c.data_type).collect(),
            }
        }
        None => create_cte_table(main, &cte.name, &cte.columns, &cte.seed, true, true)?,
    };
    let gen = Arc::new(SqlGen::new(
        names.clone(),
        schema,
        plan,
        config.partitions,
        config.materialize_join,
    ));
    // Rmjoin (from the base table R on a fresh run, paper §V-B) and the
    // join index, which may already exist from a previous run on the edge
    // table
    let mjoin_and_index = |main: &mut dyn Connection| -> SqloopResult<()> {
        if config.materialize_join {
            run(main, &format!("DROP TABLE IF EXISTS {}", names.mjoin()))?;
            run(main, &gen.create_mjoin_sql())?;
        }
        let _ = run(main, &gen.join_index_sql());
        Ok(())
    };
    if let Some(snap) = resume {
        // stale state from the interrupted run (same database) goes first
        let _ = run(main, &format!("DROP VIEW IF EXISTS {}", names.table));
        let _ = run(main, &format!("DROP TABLE IF EXISTS {}", names.table));
        for t in &snap.tables {
            restore_table_sql(main, t, config.insert_batch_rows)?;
        }
        run(main, &gen.create_view_sql())?;
        mjoin_and_index(main)?;
        if cte.termination.needs_delta_snapshot()
            && !snap.tables.iter().any(|t| t.name == names.delta_snapshot())
        {
            refresh_delta_snapshot(main, names)?;
        }
        return Ok(gen);
    }
    mjoin_and_index(main)?;

    // hash-partition R on Rid, middleware-side
    let col_list = gen.schema().columns.join(", ");
    let rows = run_query(main, &format!("SELECT {col_list} FROM {}", names.table))?.rows;
    let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); config.partitions];
    for row in rows {
        let b = gen.bucket(&row[0]);
        buckets[b].push(row);
    }
    for (x, bucket) in buckets.iter().enumerate() {
        run(
            main,
            &format!("DROP TABLE IF EXISTS {}", names.partition(x)),
        )?;
        run(main, &gen.create_partition_sql(x))?;
        for chunk in bucket.chunks(config.insert_batch_rows) {
            run(main, &gen.insert_partition_sql(x, chunk))?;
        }
        if let Some(sql) = gen.init_hidden_sql(x) {
            run(main, &sql)?;
        }
    }
    // R becomes the union view (paper §V-B)
    run(main, &format!("DROP TABLE {}", names.table))?;
    run(main, &gen.create_view_sql())?;
    if cte.termination.needs_delta_snapshot() {
        refresh_delta_snapshot(main, names)?;
    }
    Ok(gen)
}

/// Runs a parallelizable iterative CTE with the configured scheduler (the
/// parallel half of [`crate::run_iterative`]). The recovery counters land
/// in `ctx`, failed run or not.
pub(crate) fn run_parallel(ctx: &mut RunCtx<'_>, plan: ParallelPlan) -> SqloopResult<RunOutcome> {
    let (driver, config, cte, trace) = (ctx.driver, ctx.config, ctx.cte, ctx.trace);
    let mut main = ctx.connect()?;
    let names = CteNames::new(&cte.name);
    // one priority query per partition, prepared once at plan time
    let profile = main.profile();
    let prio_stmts = match &config.priority {
        Some(spec) => (0..config.partitions)
            .map(|x| {
                Ok(PreparedStatement::new(translate_sql(
                    &spec.query_for(&names.partition(x)),
                    profile,
                )?))
            })
            .collect::<SqloopResult<Vec<_>>>()?,
        None => Vec::new(),
    };

    let gen = match parallel_setup(
        main.as_mut(),
        cte,
        plan,
        config,
        &names,
        ctx.resume.as_ref(),
    ) {
        Ok(gen) => gen,
        Err(e) => {
            // a half-built layout must not leak into the catalog
            if !config.keep_artifacts {
                drop_setup_artifacts(main.as_mut(), &names, config.partitions);
            }
            return Err(e);
        }
    };
    ctx.begin_rounds();

    // convergence sampler
    let sampler = match (&config.sample_interval, &config.progress_query) {
        (Some(iv), Some(q)) => Some(Sampler::start(
            driver.connect()?,
            q.replace("{}", &cte.name),
            *iv,
        )),
        _ => None,
    };

    // worker pool: one connection per thread, opened lazily inside the
    // worker under a retry policy — a refused connect becomes a retryable
    // task failure instead of aborting the whole run before it starts.
    // The pool keeps its own ends of both channels so it can mint
    // replacement workers for abandoned ones mid-run.
    let (task_tx, task_rx) = unbounded::<Task>();
    let (done_tx, done_rx) = unbounded::<Done>();
    let mut pool = WorkerPool::new(driver, config, trace, task_rx, done_tx);
    for _ in 0..config.threads {
        pool.spawn_worker()?;
    }

    let fresh = PartSnap {
        pending: true,
        ..PartSnap::default()
    };
    let saved = match &ctx.resume {
        Some(snap) => snap.parts.clone(),
        None => vec![fresh; config.partitions],
    };
    let parts: Vec<PartState> = saved
        .into_iter()
        .map(|saved| PartState {
            saved,
            ..PartState::default()
        })
        .collect();
    let sup = pool.sup.clone();
    let npartitions = parts.len();
    let mut scheduler = Scheduler {
        gen: &gen,
        config,
        tc: &cte.termination,
        main: main.as_mut(),
        task_tx,
        done_rx,
        pool: &mut pool,
        dispatched: HashMap::new(),
        next_task_id: 1,
        sup,
        parts,
        msgs: Vec::new(),
        in_flight: 0,
        out: RunOutcome::default(),
        all_msgs: Vec::new(),
        free_slots: vec![Vec::new(); npartitions],
        slots_created: vec![0; npartitions],
        prio_stmts,
        aborting: false,
        trace,
        round: ctx.rounds + 1,
        round_changed: 0,
        round_tasks: 0,
    };

    let result = scheduler
        .run_rounds(ctx, Policy::new(config.mode, npartitions))
        .and_then(|()| {
            let final_sql = translate_query_to_sql(&cte.final_query, profile);
            Ok(scheduler.main.query(&final_sql)?)
        })
        .map_err(|e| ctx.govern(&mut scheduler, e));
    let mut outcome = std::mem::take(&mut scheduler.out);
    let all_msgs = std::mem::take(&mut scheduler.all_msgs);
    // dropping the scheduler closes the task stream; then stop workers and
    // collect them. Panics that escaped a worker loop surface here as
    // counted recoveries, never silently — and abandoned workers (possibly
    // hung forever) are detached, not joined, so cleanup can't re-wedge a
    // run the supervisor already saved
    drop(scheduler);
    outcome.recovery.worker_panics += pool.shutdown();
    ctx.recovery = outcome.recovery;
    let samples = sampler.map(Sampler::stop).unwrap_or_default();
    if !config.keep_artifacts {
        for sql in gen.cleanup_sql() {
            let _ = run(main.as_mut(), &sql);
        }
        for m in &all_msgs {
            let _ = run(main.as_mut(), &format!("DROP TABLE IF EXISTS {m}"));
        }
    }
    Ok(RunOutcome {
        result: result?,
        samples,
        ..outcome
    })
}

/// Everything one worker thread needs, bundled so replacements are spawned
/// from the same recipe as the initial pool.
struct WorkerCtx {
    driver: Arc<dyn Driver>,
    policy: RetryPolicy,
    rx: Receiver<Task>,
    tx: Sender<Done>,
    worker: u32,
    trace: TraceHandle,
    cancel: CancelToken,
    statement_timeout: Option<std::time::Duration>,
    /// This worker's heartbeat, shared with the supervisor.
    slot: Arc<HeartbeatSlot>,
    /// The pool's clock epoch heartbeats are stamped against.
    epoch: Instant,
    sup: SupervisorMetrics,
}

/// One spawned worker as the supervisor sees it.
struct WorkerHandle {
    id: u32,
    slot: Arc<HeartbeatSlot>,
    handle: std::thread::JoinHandle<()>,
    /// Set when the supervisor gave up on this worker (stall or death
    /// verdict). Abandoned workers are replaced, their task replayed, and
    /// their thread detached at shutdown if it never finished.
    abandoned: bool,
}

/// The run's worker pool: spawns the initial `sqloop-worker-{id}` threads
/// and mints replacements for abandoned ones mid-run. It keeps its own
/// clones of both channel ends so a replacement can be wired up at any
/// time; `shutdown` drops them so idle workers see the task stream end.
struct WorkerPool {
    driver: Arc<dyn Driver>,
    reconnect_attempts: u32,
    retry_backoff: std::time::Duration,
    statement_timeout: Option<std::time::Duration>,
    cancel: CancelToken,
    trace: TraceHandle,
    task_rx: Receiver<Task>,
    done_tx: Sender<Done>,
    /// Clock origin for heartbeat timestamps.
    epoch: Instant,
    sup: SupervisorMetrics,
    workers: Vec<WorkerHandle>,
    next_id: u32,
}

impl WorkerPool {
    fn new(
        driver: &Arc<dyn Driver>,
        config: &SqloopConfig,
        trace: &TraceHandle,
        task_rx: Receiver<Task>,
        done_tx: Sender<Done>,
    ) -> WorkerPool {
        WorkerPool {
            driver: Arc::clone(driver),
            reconnect_attempts: config.reconnect_attempts,
            retry_backoff: config.retry_backoff,
            statement_timeout: config.statement_timeout,
            cancel: config.cancel.clone(),
            trace: trace.clone(),
            task_rx,
            done_tx,
            epoch: Instant::now(),
            sup: SupervisorMetrics::new(),
            workers: Vec::new(),
            next_id: 0,
        }
    }

    /// Spawns a named `sqloop-worker-{id}` thread wired to the pool's
    /// channels; returns its id.
    fn spawn_worker(&mut self) -> SqloopResult<u32> {
        let id = self.next_id;
        self.next_id += 1;
        let slot = Arc::new(HeartbeatSlot::new(now_us(self.epoch)));
        let ctx = WorkerCtx {
            driver: Arc::clone(&self.driver),
            policy: RetryPolicy {
                max_attempts: self.reconnect_attempts,
                base_delay: self.retry_backoff,
                jitter_seed: u64::from(id) + 1,
                ..RetryPolicy::default()
            },
            rx: self.task_rx.clone(),
            tx: self.done_tx.clone(),
            worker: id,
            trace: self.trace.clone(),
            cancel: self.cancel.clone(),
            statement_timeout: self.statement_timeout,
            slot: Arc::clone(&slot),
            epoch: self.epoch,
            sup: self.sup.clone(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("sqloop-worker-{id}"))
            .spawn(move || worker_loop(ctx))
            .map_err(|e| SqloopError::Config(format!("spawn worker: {e}")))?;
        self.workers.push(WorkerHandle {
            id,
            slot,
            handle,
            abandoned: false,
        });
        Ok(id)
    }

    /// True when every non-abandoned worker thread has exited — with tasks
    /// still in flight, that means nobody is left to finish them.
    fn all_live_finished(&self) -> bool {
        let mut any_live = false;
        for w in &self.workers {
            if w.abandoned {
                continue;
            }
            any_live = true;
            if !w.handle.is_finished() {
                return false;
            }
        }
        any_live
    }

    /// Joins the workers and returns how many panicked outside a task body
    /// (the per-task `catch_unwind` makes that rare). Abandoned workers
    /// that never finished — e.g. hung forever inside an injected stall —
    /// are detached instead of joined, so shutdown can't re-wedge a run
    /// the supervisor already saved; their panics (if any) were accounted
    /// by the verdict that abandoned them.
    fn shutdown(self) -> u64 {
        drop(self.task_rx);
        drop(self.done_tx);
        let mut panics = 0u64;
        for w in self.workers {
            if w.abandoned {
                if w.handle.is_finished() {
                    let _ = w.handle.join();
                }
                continue;
            }
            if let Err(payload) = w.handle.join() {
                panics += 1;
                self.sup.panics_caught.inc();
                self.trace.event(
                    EventKind::Panic,
                    None,
                    None,
                    format!(
                        "worker {} panicked outside a task: {}",
                        w.id,
                        panic_detail(payload.as_ref())
                    ),
                );
            }
        }
        panics
    }
}

fn worker_loop(ctx: WorkerCtx) {
    let WorkerCtx {
        driver,
        policy,
        rx,
        tx,
        worker,
        trace,
        cancel,
        statement_timeout,
        slot,
        epoch,
        sup,
    } = ctx;
    let mut conn: Option<Box<dyn Connection>> = None;
    let mut ever_connected = false;
    for task in rx.iter() {
        slot.begin_task(
            now_us(epoch),
            task.task_id,
            task.partition,
            task.round,
            task.start_at,
        );
        let started = std::time::Instant::now();
        let span_start = trace.now_us();
        let mut changed = 0u64;
        let mut rows_outputs = Vec::new();
        let mut error = None;
        let mut reconnects = 0u32;
        let at = task.start_at;
        if conn.is_none() {
            // interruptible reconnect backoff: a cancelled run must not
            // sit out the full exponential wait
            match policy.run_with_cancel(&cancel, |_| driver.connect()) {
                Ok(mut c) => {
                    if ever_connected {
                        reconnects += 1;
                    }
                    ever_connected = true;
                    if statement_timeout.is_some() {
                        let _ = c.set_statement_timeout(statement_timeout);
                    }
                    conn = Some(c);
                    slot.beat(now_us(epoch));
                }
                Err(e) => {
                    error = Some((at, SqloopError::from(e)));
                }
            }
        }
        if error.is_none() {
            match conn.as_mut() {
                Some(c) => {
                    // the remaining statement sequence goes out as ONE
                    // pipelined batch — a single wire round-trip however
                    // many statements the task carries
                    let profile = c.profile();
                    let mut steps = Vec::with_capacity(task.stmts.len() - at);
                    let mut translate_err = None;
                    for (j, stmt) in task.stmts[at..].iter().enumerate() {
                        match translate_sql(stmt, profile) {
                            Ok(sql) => steps.push(PipelineStep::Execute(sql)),
                            Err(e) => {
                                translate_err = Some((at + j, e));
                                break;
                            }
                        }
                    }
                    // the panic boundary: one panicking statement (an
                    // engine bug, an injected chaos panic) must degrade
                    // into a retryable task failure, never take the
                    // process down or wedge the run
                    let pipe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        c.run_pipeline(&steps)
                    }));
                    match pipe {
                        Ok(Ok(outcome)) => {
                            let executed = outcome.outputs.len();
                            for (i, out) in outcome.outputs.into_iter().enumerate() {
                                match out {
                                    // slot-maintenance DELETE/INSERT counts
                                    // are bookkeeping, not convergence delta
                                    StmtOutput::Affected(n) => {
                                        if at + i >= task.changed_from {
                                            changed += n;
                                        }
                                    }
                                    StmtOutput::Rows(r) => rows_outputs.push(r),
                                    StmtOutput::Done => {}
                                }
                            }
                            // the step at `executed` surfaced its error
                            // before taking effect — replay resumes there;
                            // a dead connection reported with a position
                            // (statement-at-a-time transports know how far
                            // they got) additionally forces a reconnect
                            error = match outcome.error {
                                Some(e) => {
                                    if matches!(e, sqldb::DbError::Connection(_)) {
                                        conn = None;
                                    }
                                    Some((at + executed, SqloopError::from(e)))
                                }
                                None => translate_err,
                            };
                        }
                        Ok(Err(e)) => {
                            // transport failure mid-batch: how far the batch
                            // got is unknown at statement granularity, so
                            // this attempt's outputs are discarded and the
                            // whole remaining sequence replays from `at` —
                            // safe because every statement before a task's
                            // final delta-advancing UPDATE is idempotent
                            // and the UPDATE is always last (it either
                            // never ran, or ran and the batch completed)
                            conn = None;
                            changed = 0;
                            rows_outputs.clear();
                            error = Some((at, SqloopError::from(e)));
                        }
                        Err(payload) => {
                            // a panic unwound through the driver: the
                            // connection's state is unknown, so drop it
                            // (the engine session rolls back and releases
                            // its locks on drop) and report a typed,
                            // retryable WorkerPanic — faults inject before
                            // their statement takes effect, so replaying
                            // from `at` is as safe as any transport replay
                            conn = None;
                            changed = 0;
                            rows_outputs.clear();
                            sup.panics_caught.inc();
                            let detail = panic_detail(payload.as_ref());
                            trace.event(
                                EventKind::Panic,
                                Some(task.partition as u32),
                                Some(task.round),
                                format!("worker {worker} caught a panic: {detail}"),
                            );
                            error = Some((
                                at,
                                SqloopError::WorkerPanic {
                                    worker: Some(worker),
                                    detail,
                                },
                            ));
                        }
                    }
                }
                // unreachable in practice (the branch above just ensured
                // it), but a poisoned worker must degrade into a task
                // failure, not abort the whole process
                None => {
                    error = Some((
                        at,
                        SqloopError::Worker("worker lost its connection unexpectedly".into()),
                    ));
                }
            }
        }
        if trace.is_enabled() {
            trace.span(Span {
                kind: match task.kind {
                    TaskKind::Compute { .. } => SpanKind::Compute,
                    TaskKind::Gather { .. } => SpanKind::Gather,
                },
                partition: Some(task.partition as u32),
                iteration: Some(task.round),
                worker: Some(worker),
                attempt: task.attempt,
                rows: changed,
                outcome: if error.is_some() {
                    SpanOutcome::Failed
                } else {
                    SpanOutcome::Ok
                },
                start_us: span_start,
                end_us: trace.now_us(),
            });
        }
        // completion handshake: exactly one of {this CAS, the supervisor's
        // abandon CAS} wins. Losing means the supervisor already replayed
        // this task on a replacement — sending the result now would apply
        // the round's non-idempotent final UPDATE twice, so discard it and
        // exit (the replacement has this worker's job).
        if !slot.try_complete() {
            sup.zombie_results_dropped.inc();
            return;
        }
        let done = Done {
            task,
            changed,
            rows_outputs,
            elapsed: started.elapsed(),
            error,
            reconnects,
        };
        if tx.send(done).is_err() {
            return;
        }
        slot.finish(now_us(epoch));
    }
}

struct Scheduler<'a> {
    gen: &'a SqlGen,
    config: &'a SqloopConfig,
    tc: &'a Termination,
    main: &'a mut dyn Connection,
    task_tx: Sender<Task>,
    done_rx: Receiver<Done>,
    /// The worker pool: the supervisor inspects heartbeats, abandons stuck
    /// workers and spawns replacements through it.
    pool: &'a mut WorkerPool,
    /// Tasks currently dispatched, keyed by task id — the supervisor's
    /// in-flight map and the zombie-result filter.
    dispatched: HashMap<u64, Task>,
    /// Next scheduler-unique task id.
    next_task_id: u64,
    /// Supervision metrics (shared with the pool's workers).
    sup: SupervisorMetrics,
    parts: Vec<PartState>,
    msgs: Vec<MsgState>,
    in_flight: usize,
    /// The run's counters: tasks, messages, worker time, and what fault
    /// recovery had to do.
    out: RunOutcome,
    all_msgs: Vec<String>,
    /// Per-partition free lists of reusable message-slot tables. A Compute
    /// pops a slot (creating one only when the list is empty), truncates
    /// and refills it; the slot returns here when its message is consumed.
    /// Steady state: the pool stops growing and every per-round statement
    /// text is byte-identical across rounds, so the engine plan cache
    /// serves them without re-parsing.
    free_slots: Vec<Vec<String>>,
    /// Per-partition count of slots ever created (next slot index).
    slots_created: Vec<usize>,
    /// One prepared priority query per partition (empty without a spec).
    prio_stmts: Vec<PreparedStatement>,
    /// Set on the first unrecoverable task failure: stop replaying, let
    /// the remaining in-flight tasks drain so the run can abort cleanly.
    aborting: bool,
    /// Trace recorder (no-op when tracing is off).
    trace: &'a TraceHandle,
    /// Current 1-based round, stamped into tasks for the trace.
    round: u64,
    /// Rows changed so far in the current round.
    round_changed: u64,
    /// Tasks completed in the current round (AsyncP's waves count them).
    round_tasks: usize,
}

impl Scheduler<'_> {
    // -- task construction -------------------------------------------------

    fn build_compute(&mut self, x: usize) -> Task {
        // msg_seq stays a per-partition Compute ordinal (checkpointed for
        // format stability) but no longer names the message table: slots
        // have generation-stable names, so the statement texts below are
        // byte-identical every round and stay hot in the plan cache.
        self.parts[x].saved.msg_seq += 1;
        let mut stmts = Vec::with_capacity(6);
        let msg = match self.free_slots[x].pop() {
            Some(slot) => {
                stmts.push(self.gen.clear_message_slot_sql(&slot));
                slot
            }
            None => {
                let k = self.slots_created[x];
                self.slots_created[x] += 1;
                let slot = self.gen.names().message_slot(x, k);
                self.all_msgs.push(slot.clone());
                // a crashed earlier run may have left the table behind;
                // replays resume at the failed statement, so neither DDL
                // re-runs after it succeeded
                stmts.push(format!("DROP TABLE IF EXISTS {slot}"));
                stmts.push(self.gen.create_message_slot_sql(&slot));
                slot
            }
        };
        stmts.push(self.gen.insert_message_sql(x, &msg));
        stmts.push(self.gen.message_count_sql(&msg));
        if self.gen.routing_enabled() {
            stmts.push(self.gen.touched_partitions_sql(&msg));
        }
        let changed_from = stmts.len();
        stmts.push(self.gen.compute_update_sql(x));
        Task {
            task_id: 0, // assigned at dispatch
            partition: x,
            kind: TaskKind::Compute { msg_table: msg },
            stmts,
            round: self.round,
            attempt: 1,
            start_at: 0,
            changed_from,
            acc_changed: 0,
            acc_rows: Vec::new(),
        }
    }

    /// Unread live message tables for `x`; advances the cursor over dead
    /// prefixes. `None` when there is nothing to read.
    fn build_gather(&mut self, x: usize) -> Option<Task> {
        let len = self.msgs.len();
        let mut tables: Vec<&str> = self.unread(x).map(|m| m.name.as_str()).collect();
        // canonical order: worker completion order varies run to run, but
        // the slot SET is stable — sorting makes the gather text
        // generation-stable so it stays hot in the plan cache too
        tables.sort_unstable();
        if tables.is_empty() {
            self.parts[x].cursor = len;
            return None;
        }
        let sql = self.gen.gather_sql(x, &tables);
        Some(Task {
            task_id: 0, // assigned at dispatch
            partition: x,
            kind: TaskKind::Gather { read_until: len },
            stmts: vec![sql],
            round: self.round,
            attempt: 1,
            start_at: 0,
            changed_from: 0,
            acc_changed: 0,
            acc_rows: Vec::new(),
        })
    }

    fn dispatch(&mut self, mut task: Task) -> SqloopResult<()> {
        task.task_id = self.next_task_id;
        self.next_task_id += 1;
        self.parts[task.partition].in_flight = true;
        self.in_flight += 1;
        self.dispatched.insert(task.task_id, task.clone());
        self.task_tx
            .send(task)
            .map_err(|_| SqloopError::Worker("worker pool shut down unexpectedly".into()))
    }

    /// Receives the next completion, supervising the pool while waiting.
    ///
    /// This replaces every bare `recv()` on the scheduler's barrier paths:
    /// the wait is bounded by `supervisor_poll`, and each timeout tick runs
    /// a supervision pass over the worker heartbeats, so a panicked or
    /// stalled worker becomes a typed verdict instead of an infinite block.
    /// Completions for tasks no longer in the dispatch map (a worker that
    /// lost the completion race but still had its `Done` buffered) are
    /// discarded.
    fn recv_done(&mut self) -> SqloopResult<Done> {
        loop {
            match self.done_rx.recv_timeout(self.config.supervisor_poll) {
                Ok(d) => {
                    if !self.dispatched.contains_key(&d.task.task_id) {
                        self.sup.zombie_results_dropped.inc();
                        continue;
                    }
                    return Ok(d);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(d) = self.supervise()? {
                        return Ok(d);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // the pool holds a sender clone for replacements, so
                    // this can only mean the pool itself is gone
                    return Err(SqloopError::WorkerPanic {
                        worker: None,
                        detail: format!(
                            "every worker exited with {} task(s) in flight",
                            self.in_flight
                        ),
                    });
                }
            }
        }
    }

    /// One supervision pass over the worker heartbeats.
    ///
    /// A busy worker whose thread has exited (panicked past the task-level
    /// `catch_unwind`) or whose heartbeat has been silent past
    /// `stall_timeout` is abandoned via the completion-race CAS, its task
    /// turned into a synthetic failed [`Done`] (so [`Self::handle_done`]
    /// applies the ordinary replay/budget/abort logic), and a replacement
    /// worker is spawned. Returns that verdict, if any.
    fn supervise(&mut self) -> SqloopResult<Option<Done>> {
        if self.in_flight == 0 {
            return Ok(None);
        }
        let now = now_us(self.pool.epoch);
        let stall_us = self.config.stall_timeout.map(|t| t.as_micros() as u64);
        for i in 0..self.pool.workers.len() {
            let (worker_id, task_id, dead, silent_us) = {
                let w = &self.pool.workers[i];
                if w.abandoned || w.slot.state() != STATE_BUSY {
                    continue;
                }
                let dead = w.handle.is_finished();
                let silent = now.saturating_sub(w.slot.beat_us());
                (w.id, w.slot.task_id(), dead, silent)
            };
            let stalled = !dead && stall_us.map(|t| silent_us > t).unwrap_or(false);
            if !dead && !stalled {
                continue;
            }
            // the completion race: if the worker sends its Done first, the
            // CAS fails and this verdict is void — take the real result
            if !self.pool.workers[i].slot.try_abandon() {
                continue;
            }
            self.pool.workers[i].abandoned = true;
            let Some(task) = self.dispatched.remove(&task_id) else {
                // raced with a completion already consumed; nothing to
                // replay, but the worker is gone — replace it below
                self.pool.spawn_worker()?;
                self.out.recovery.worker_replacements += 1;
                self.sup.worker_replacements.inc();
                continue;
            };
            let e = if dead {
                self.sup.panics_caught.inc();
                self.trace.event(
                    EventKind::Panic,
                    Some(task.partition as u32),
                    Some(task.round),
                    format!("worker {worker_id} thread exited mid-task"),
                );
                SqloopError::WorkerPanic {
                    worker: Some(worker_id),
                    detail: "worker thread exited mid-task".into(),
                }
            } else {
                self.out.recovery.stalls += 1;
                self.sup.stalls_detected.inc();
                self.trace.event(
                    EventKind::Stall,
                    Some(task.partition as u32),
                    Some(task.round),
                    format!(
                        "worker {worker_id} heartbeat silent for {}ms — abandoning",
                        silent_us / 1000
                    ),
                );
                SqloopError::WorkerStalled {
                    worker: worker_id,
                    partition: task.partition,
                    waited_ms: silent_us / 1000,
                }
            };
            let replacement = self.pool.spawn_worker()?;
            self.out.recovery.worker_replacements += 1;
            self.sup.worker_replacements.inc();
            self.trace.event(
                EventKind::Replace,
                Some(task.partition as u32),
                Some(task.round),
                format!("spawned worker {replacement} to replace {worker_id}"),
            );
            let failed_at = task.start_at;
            return Ok(Some(Done {
                task,
                changed: 0,
                rows_outputs: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                error: Some((failed_at, e)),
                reconnects: 0,
            }));
        }
        if self.pool.all_live_finished() {
            return Err(SqloopError::WorkerPanic {
                worker: None,
                detail: format!(
                    "every worker exited with {} task(s) in flight",
                    self.in_flight
                ),
            });
        }
        Ok(None)
    }

    /// Processes one completion, adding its changed rows to the round's
    /// tally.
    ///
    /// A failed task whose error is retryable is re-dispatched resuming at
    /// the failed statement (carrying the partial results along), until the
    /// replay budget runs out — then the failure is wrapped as
    /// [`SqloopError::Task`] and the scheduler aborts.
    fn handle_done(&mut self, d: Done) -> SqloopResult<()> {
        self.dispatched.remove(&d.task.task_id);
        self.in_flight -= 1;
        let x = d.task.partition;
        self.parts[x].in_flight = false;
        self.out.worker_busy += d.elapsed;
        self.out.recovery.worker_reconnects += u64::from(d.reconnects);
        if self.trace.is_enabled() {
            // one event per reconnect so the trace tally matches
            // RecoveryCounters::worker_reconnects exactly
            for _ in 0..d.reconnects {
                self.trace.event(
                    EventKind::Reconnect,
                    Some(x as u32),
                    Some(d.task.round),
                    "worker reopened its engine connection",
                );
            }
        }
        if let Some((failed_at, e)) = d.error {
            self.out.recovery.task_failures += 1;
            if matches!(e, SqloopError::WorkerPanic { .. }) {
                self.out.recovery.worker_panics += 1;
            }
            self.trace.event(
                EventKind::Fault,
                Some(x as u32),
                Some(d.task.round),
                format!("attempt {} failed at stmt {failed_at}: {e}", d.task.attempt),
            );
            let mut task = d.task;
            task.acc_changed += d.changed;
            task.acc_rows.extend(d.rows_outputs);
            task.start_at = failed_at;
            if e.is_retryable() && task.attempt <= self.config.task_retries && !self.aborting {
                task.attempt += 1;
                self.out.recovery.task_retries += 1;
                self.trace.event(
                    EventKind::Retry,
                    Some(x as u32),
                    Some(task.round),
                    format!("replaying from stmt {failed_at} (attempt {})", task.attempt),
                );
                self.dispatch(task)?;
                return Ok(());
            }
            self.aborting = true;
            return Err(SqloopError::Task {
                partition: x,
                attempt: task.attempt,
                source: Box::new(e),
            });
        }
        let Task {
            kind,
            acc_changed,
            mut acc_rows,
            ..
        } = d.task;
        acc_rows.extend(d.rows_outputs);
        let changed = acc_changed + d.changed;
        self.round_changed += changed;
        let mut refresh = false;
        match &kind {
            TaskKind::Compute { msg_table } => {
                self.out.computes += 1;
                self.parts[x].saved.computes += 1;
                self.parts[x].saved.pending = false;
                self.parts[x].saved.prefer_compute = false;
                let msg_rows = acc_rows
                    .first()
                    .and_then(|r| r.scalar().and_then(Value::as_i64))
                    .unwrap_or(0);
                if msg_rows > 0 {
                    self.out.messages += 1;
                    // normalize SQL truncating modulo to rem_euclid buckets
                    let n = self.parts.len() as i64;
                    let targets = acc_rows.get(1).map(|r| {
                        let mut t: Vec<usize> = r
                            .rows
                            .iter()
                            .filter_map(|row| row[0].as_i64())
                            .map(|p| (((p % n) + n) % n) as usize)
                            .collect();
                        t.sort_unstable();
                        t.dedup();
                        t
                    });
                    self.msgs.push(MsgState {
                        name: msg_table.clone(),
                        partition: x,
                        live: true,
                        targets,
                    });
                } else {
                    // empty message: hand the slot straight back — no DROP;
                    // the next reuse truncates it with a cached DELETE
                    self.free_slots[x].push(msg_table.clone());
                }
            }
            TaskKind::Gather { read_until } => {
                self.out.gathers += 1;
                self.parts[x].cursor = *read_until;
                if changed > 0 {
                    self.parts[x].saved.pending = true;
                    self.parts[x].saved.prefer_compute = true;
                    refresh = true;
                }
                self.gc_messages();
            }
        }
        if self.config.mode == ExecutionMode::AsyncPrio && refresh {
            self.refresh_priority(x);
        }
        Ok(())
    }

    /// Recycles message slots every partition has consumed (GC; the paper
    /// leaves this implicit). Slots go back to their owner's free list
    /// instead of being dropped — the next Compute truncates and refills
    /// them with statements the plan cache already knows.
    fn gc_messages(&mut self) {
        let min_cursor = self.parts.iter().map(|p| p.cursor).min().unwrap_or(0);
        for i in 0..min_cursor.min(self.msgs.len()) {
            if self.msgs[i].live {
                self.msgs[i].live = false;
                let owner = self.msgs[i].partition;
                let name = self.msgs[i].name.clone();
                self.free_slots[owner].push(name);
            }
        }
    }

    fn refresh_priority(&mut self, x: usize) {
        let spec = match &self.config.priority {
            Some(s) => s,
            None => return,
        };
        let worst = if spec.descending {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let v = match self.prio_stmts.get_mut(x) {
            Some(stmt) => stmt
                .execute(&mut *self.main, &[])
                .ok()
                .and_then(|out| match out {
                    StmtOutput::Rows(r) => r.scalar().and_then(Value::as_f64),
                    _ => None,
                })
                .unwrap_or(worst),
            None => worst,
        };
        self.parts[x].priority = if v.is_nan() { worst } else { v };
    }

    fn compute_allowed(&self, x: usize) -> bool {
        match self.tc {
            Termination::Iterations(n) => self.parts[x].saved.computes < *n,
            _ => true,
        }
    }

    /// Live unread message tables targeted at partition `x`.
    fn unread(&self, x: usize) -> impl Iterator<Item = &MsgState> {
        self.msgs[self.parts[x].cursor..]
            .iter()
            .filter(move |m| m.live && m.targets.as_ref().is_none_or(|t| t.contains(&x)))
    }

    /// True when partition `x` has a task in flight, a pending delta it may
    /// still apply, or unread messages.
    fn has_work(&self, x: usize) -> bool {
        let p = &self.parts[x];
        p.in_flight
            || (p.saved.pending && self.compute_allowed(x))
            || self.unread(x).next().is_some()
    }

    fn any_work_left(&self) -> bool {
        (0..self.parts.len()).any(|x| self.has_work(x))
    }

    /// Waits for all in-flight tasks.
    fn drain(&mut self) -> SqloopResult<()> {
        while self.in_flight > 0 {
            let d = self.recv_done()?;
            self.handle_done(d)?;
        }
        Ok(())
    }

    // -- the event loop (paper §V-E) -----------------------------------------

    /// The one event loop every parallel mode runs: the policy picks what
    /// to dispatch, completions feed the round's tally, and every completed
    /// round passes [`RunCtx::end_round`] once. Returns when the run is
    /// done, cancelled, or quiescent (nothing can contribute any more).
    fn run_rounds(&mut self, ctx: &mut RunCtx<'_>, mut policy: Policy) -> SqloopResult<()> {
        if self.config.mode == ExecutionMode::AsyncPrio {
            for x in 0..self.parts.len() {
                self.refresh_priority(x);
            }
        }
        let mut first_error: Option<SqloopError> = None;
        let mut quiescent = false;
        loop {
            if first_error.is_none() && policy.round_complete(self, ctx.rounds, quiescent) {
                self.round_tasks = 0;
                let changed = std::mem::take(&mut self.round_changed);
                match ctx.end_round(self, changed)? {
                    Verdict::Continue => {}
                    Verdict::Done => return self.drain(),
                    Verdict::Cancelled => return Ok(()),
                }
                self.round = ctx.rounds + 1;
                quiescent = false;
                continue;
            }
            if quiescent {
                return Ok(());
            }
            // a failing or cancelled run stops feeding the pipeline and
            // drains what is already in flight
            if first_error.is_none() && !self.config.cancel.cancelled() {
                while self.in_flight < self.config.threads {
                    match policy.pick(self) {
                        Some(t) => self.dispatch(t)?,
                        None => break,
                    }
                }
            }
            if self.in_flight == 0 {
                if let Some(e) = first_error {
                    return Err(e);
                }
                if self.config.cancel.cancelled() {
                    // mid-round cancellation: the pipeline is dry —
                    // quiesce, checkpoint, return the partial state
                    return ctx.stop_cancelled(self);
                }
                quiescent = true;
                continue;
            }
            let d = match self.recv_done() {
                Ok(d) => d,
                // an unrecoverable pool failure (all workers dead) cannot
                // drain in-flight work — surface it now
                Err(e) => return Err(first_error.unwrap_or(e)),
            };
            match self.handle_done(d) {
                Ok(()) => self.round_tasks += 1,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
    }
}

/// Sync's phase within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Compute,
    Gather,
}

/// Which task runs next: the three schedulers of paper §V-E as policies
/// over the one event loop ([`Scheduler::run_rounds`]). A policy picks the
/// next task and says when a round is complete.
enum Policy {
    /// `Sync`: two phases per round, each ending in a barrier — every
    /// partition computes, then every partition with unread messages
    /// gathers.
    Sync { phase: Phase, queue: VecDeque<Task> },
    /// `Async` (paper Fig. 3): blind round-robin. Every round, every
    /// partition gets a Gather (when unread message tables exist) and a
    /// Compute — no barrier inside the round, so Gathers consume whatever
    /// intermediate results already exist. The speedup over Sync comes
    /// purely from that freshness; like the paper's Async, it does not skip
    /// idle partitions — that is AsyncP's job.
    Blind {
        rr: usize,
        gathered: Vec<bool>,
        computed: Vec<bool>,
    },
    /// `AsyncP`: schedules only partitions that can contribute — pending
    /// deltas or unread messages — ordered by the user's priority
    /// function, with strict G→C pairing per partition. A round is a wave
    /// of `wave` completed tasks.
    Prio { wave: usize },
}

impl Policy {
    fn new(mode: ExecutionMode, partitions: usize) -> Policy {
        match mode {
            ExecutionMode::Sync => Policy::Sync {
                phase: Phase::Idle,
                queue: VecDeque::new(),
            },
            ExecutionMode::AsyncPrio => Policy::Prio {
                wave: (2 * partitions).max(1),
            },
            _ => Policy::Blind {
                rr: 0,
                gathered: vec![false; partitions],
                computed: vec![false; partitions],
            },
        }
    }

    fn pick(&mut self, s: &mut Scheduler<'_>) -> Option<Task> {
        match self {
            Policy::Sync { phase, queue } => {
                // a phase's tasks are built when it opens, and it opens
                // only once the previous phase has drained (the barrier)
                if queue.is_empty() && s.in_flight == 0 {
                    match phase {
                        Phase::Idle => {
                            *phase = Phase::Compute;
                            *queue = (0..s.parts.len()).map(|x| s.build_compute(x)).collect();
                        }
                        Phase::Compute => {
                            s.trace
                                .event(EventKind::Barrier, None, Some(s.round), "compute phase");
                            *phase = Phase::Gather;
                            *queue = (0..s.parts.len())
                                .filter_map(|x| s.build_gather(x))
                                .collect();
                        }
                        Phase::Gather => {}
                    }
                }
                queue.pop_front()
            }
            Policy::Blind {
                rr,
                gathered,
                computed,
            } => {
                let n = s.parts.len();
                for i in 0..n {
                    let x = (*rr + i) % n;
                    if s.parts[x].in_flight {
                        continue;
                    }
                    if !gathered[x] {
                        gathered[x] = true;
                        if let Some(t) = s.build_gather(x) {
                            // stay on x so its Compute follows immediately —
                            // the G,C pairing of paper Fig. 3 is what lets a
                            // message produced earlier in this round be
                            // consumed (gathered *and* applied) later in the
                            // same round
                            *rr = x;
                            return Some(t);
                        }
                    }
                    if !computed[x] && s.compute_allowed(x) {
                        computed[x] = true;
                        *rr = (x + 1) % n;
                        return Some(s.build_compute(x));
                    }
                }
                None
            }
            Policy::Prio { .. } => {
                let n = s.parts.len();
                let desc = s
                    .config
                    .priority
                    .as_ref()
                    .map(|p| p.descending)
                    .unwrap_or(true);
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    let (pa, pb) = (s.parts[a].priority, s.parts[b].priority);
                    if desc {
                        pb.total_cmp(&pa)
                    } else {
                        pa.total_cmp(&pb)
                    }
                });
                // pass 1: productive partitions — gather-then-compute pairs, best
                // priority first (gathering right before the compute batches every
                // unread table into one statement)
                for &x in &order {
                    if s.parts[x].in_flight {
                        continue;
                    }
                    let can_compute = s.parts[x].saved.pending && s.compute_allowed(x);
                    if !can_compute {
                        continue;
                    }
                    if s.parts[x].saved.prefer_compute {
                        return Some(s.build_compute(x));
                    }
                    if let Some(t) = s.build_gather(x) {
                        return Some(t);
                    }
                    return Some(s.build_compute(x));
                }
                // pass 2: bulk gathers — partitions with enough unread tables to be
                // worth a statement of their own
                const GATHER_BATCH: usize = 4;
                for &x in &order {
                    if s.parts[x].in_flight {
                        continue;
                    }
                    if s.unread(x).count() >= GATHER_BATCH {
                        if let Some(t) = s.build_gather(x) {
                            return Some(t);
                        }
                    }
                }
                // pass 3: nothing productive anywhere — drain stragglers so the
                // registry empties and termination can be detected
                if s.in_flight == 0 {
                    for &x in &order {
                        if let Some(t) = s.build_gather(x) {
                            return Some(t);
                        }
                    }
                }
                None
            }
        }
    }

    /// True once the current round is complete; the policy then opens the
    /// next one. `quiescent`: nothing is in flight and nothing could be
    /// dispatched.
    fn round_complete(&mut self, s: &Scheduler<'_>, rounds: u64, quiescent: bool) -> bool {
        match self {
            Policy::Sync { phase, queue } => {
                if *phase != Phase::Gather || !queue.is_empty() || s.in_flight > 0 {
                    return false;
                }
                s.trace
                    .event(EventKind::Barrier, None, Some(s.round), "gather phase");
                *phase = Phase::Idle;
                true
            }
            Policy::Blind {
                gathered, computed, ..
            } => {
                // every partition has used (or been denied) both its slots,
                // and the round's stragglers are in: decisions need the
                // round's full effect (a soft join, much weaker than Sync's
                // two barriers per round)
                let complete = s.in_flight == 0
                    && (0..s.parts.len())
                        .all(|x| gathered[x] && (computed[x] || !s.compute_allowed(x)));
                if complete {
                    gathered.fill(false);
                    computed.fill(false);
                }
                complete
            }
            Policy::Prio { wave } => match s.tc {
                // under per-partition caps a round is a Compute level: round
                // r ends when the first partition runs its r-th Compute —
                // the last one, once the others have run dry too — so
                // `UNTIL n ITERATIONS` counts n rounds
                Termination::Iterations(n) => {
                    let top = s.parts.iter().map(|p| p.saved.computes).max();
                    top.is_some_and(|top| top > rounds && (top < *n || quiescent))
                }
                // a wave of completed tasks; the partial wave a run ends on
                // counts too
                _ => s.round_tasks >= *wave || (quiescent && s.round_tasks > 0),
            },
        }
    }
}

impl LoopState for Scheduler<'_> {
    fn conn(&mut self) -> &mut dyn Connection {
        &mut *self.main
    }

    fn terminated(&mut self) -> SqloopResult<Option<bool>> {
        let asyncp = self.config.mode == ExecutionMode::AsyncPrio;
        // AsyncP skips partitions without work: once none has any, nothing
        // can change any more, whatever the condition reads
        if asyncp && !self.any_work_left() {
            return Ok(Some(true));
        }
        match self.tc {
            // per-partition Compute caps (a capped partition can hold a
            // pending delta forever): the run ends once every partition has
            // its n Computes, after the last round's unread messages are
            // applied
            Termination::Iterations(n) => {
                let capped = self.parts.iter().all(|p| p.saved.computes >= *n);
                if capped {
                    self.quiesce()?;
                }
                Ok(Some(capped))
            }
            // a wave's tally is not a round's: AsyncP ends when no
            // partition has work left (above)
            Termination::Updates(_) if asyncp => Ok(Some(false)),
            _ => Ok(None),
        }
    }

    /// Brings the loop to a quiesce point: waits out in-flight tasks, then
    /// force-gathers every unread message table until the registry is empty
    /// — after which the partition tables alone are the loop state. The
    /// rows the forced gathers change count toward the next round's tally.
    fn quiesce(&mut self) -> SqloopResult<()> {
        self.drain()?;
        loop {
            let mut dispatched = false;
            for x in 0..self.parts.len() {
                if let Some(t) = self.build_gather(x) {
                    self.dispatch(t)?;
                    dispatched = true;
                }
            }
            if !dispatched {
                break;
            }
            self.drain()?;
        }
        self.gc_messages();
        Ok(())
    }

    /// Dumps the quiesced loop state. Callers must hold the quiesce
    /// invariant (no in-flight task, no live message table).
    fn snapshot(&mut self) -> SqloopResult<(Vec<PartSnap>, Vec<TableDump>)> {
        let (names, visible) = (self.gen.names(), self.gen.schema().typed_columns());
        // partition tables carry the hidden bookkeeping columns too
        let hidden = self.gen.hidden_columns().into_iter();
        let all: Vec<_> = (visible.iter().cloned())
            .chain(hidden.map(|c| (c.to_string(), DataType::Float)))
            .collect();
        let mut tables = Vec::with_capacity(self.parts.len() + 1);
        for x in 0..self.parts.len() {
            tables.push(dump_table_sql(
                self.main,
                &names.partition(x),
                &all,
                Some(0),
            )?);
        }
        if self.tc.needs_delta_snapshot() {
            let delta = names.delta_snapshot();
            tables.push(dump_table_sql(self.main, &delta, &visible, None)?);
        }
        Ok((self.parts.iter().map(|p| p.saved).collect(), tables))
    }

    /// One probe per partition table, so a verdict names the diverging
    /// partition.
    fn probe_numeric(&mut self, w: &Watchdog, round: u64) -> SqloopResult<()> {
        let schema = self.gen.schema();
        for x in 0..self.parts.len() {
            w.probe_table(
                self.main,
                &self.gen.names().partition(x),
                &schema.columns,
                &schema.types,
                Some(x),
                round,
            )?;
        }
        Ok(())
    }
}
