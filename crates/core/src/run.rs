//! The one entry point for iterative CTEs, [`run_iterative`], and the
//! round-boundary routine every execution mode shares (DESIGN.md §19).
//!
//! Single, Sync, Async and AsyncP differ only in how a round's work is
//! scheduled. What happens *between* rounds — the round event, the
//! plan-cache tick, the Table I termination check, cancellation, the
//! watchdog, checkpoints and the `max_iterations` cap — is the same in
//! every mode and lives here, in [`RunCtx::end_round`], together with the
//! one governed-error path ([`RunCtx::govern`]).

use crate::analysis::ParallelPlan;
use crate::checkpoint::{
    check_fingerprint, load_latest_recovering, run_fingerprint, trace_checkpoint, Checkpointer,
    LoopSnapshot, PartSnap,
};
use crate::common::{CteNames, DeltaRefresher, PlanCacheProbe, TerminationProbe};
use crate::config::{ExecutionMode, SqloopConfig};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::IterativeCte;
use crate::progress::{ProgressSample, RecoveryCounters};
use crate::watchdog::Watchdog;
use dbcp::{Connection, Driver};
use obs::{EventKind, TraceHandle};
use sqldb::{DbError, QueryResult, TableDump};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// What an executed CTE run reports back.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Result of the final query `Qf`.
    pub result: QueryResult,
    /// Iterations (recursions, rounds) performed.
    pub iterations: u64,
    /// Rows updated/appended by the last iteration.
    pub last_change: u64,
    /// The run was stopped cooperatively before its termination condition;
    /// `result` holds the final query over the partial fix-point.
    pub cancelled: bool,
    /// Compute tasks executed (parallel runs).
    pub computes: u64,
    /// Gather tasks executed (parallel runs).
    pub gathers: u64,
    /// Non-empty message tables created (parallel runs).
    pub messages: u64,
    /// Aggregate worker time spent executing tasks (parallel runs). On a
    /// multi-core host, `worker_busy / wall` approaches the worker-thread
    /// count; on a single CPU it stays near 1 however many threads run.
    pub worker_busy: Duration,
    /// Convergence samples (when a sampler was configured).
    pub samples: Vec<ProgressSample>,
    /// What fault recovery had to do (all zero on a clean run).
    pub recovery: RecoveryCounters,
    /// Path of the last checkpoint written (when checkpointing is on).
    pub checkpoint: Option<PathBuf>,
    /// Human-readable note when resume had to fall back past corrupt or
    /// unreadable snapshots (`None` on a clean load or a fresh run).
    pub recovery_note: Option<String>,
}

/// Runs an iterative CTE: on the single-threaded executor when `plan` is
/// `None`, otherwise on the parallel engine with the configured scheduler.
/// Spans and events (tasks, rounds, retries, checkpoints) go to `trace`.
///
/// Also returns the recovery counters: a failed parallel run has no
/// [`RunOutcome`], yet a downgrade report still shows what recovery tried.
///
/// # Errors
/// Engine/translation errors (after the configured replay budget),
/// configuration and checkpoint errors, the `max_iterations` safety cap,
/// and the governed verdicts [`SqloopError::BudgetExceeded`] /
/// [`SqloopError::NumericDivergence`]. Scratch tables are dropped on every
/// path unless `keep_artifacts`.
pub fn run_iterative(
    driver: &Arc<dyn Driver>,
    cte: &IterativeCte,
    plan: Option<ParallelPlan>,
    config: &SqloopConfig,
    trace: &TraceHandle,
) -> (SqloopResult<RunOutcome>, RecoveryCounters) {
    let mut ctx = match RunCtx::new(driver, cte, plan.is_some(), config, trace) {
        Ok(ctx) => ctx,
        Err(e) => return (Err(e), RecoveryCounters::default()),
    };
    let result = match plan {
        None => crate::single::run_single(&mut ctx),
        Some(plan) => crate::parallel::run_parallel(&mut ctx, plan),
    };
    let result = result.map(|out| RunOutcome {
        iterations: ctx.rounds,
        last_change: ctx.last_change,
        cancelled: ctx.cancelled,
        checkpoint: ctx
            .checkpointer
            .as_ref()
            .and_then(|c| c.last_path().map(std::path::Path::to_path_buf)),
        recovery_note: ctx.recovery_note.take(),
        ..out
    });
    (result, ctx.recovery)
}

/// How a round boundary ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Run the next round.
    Continue,
    /// The termination condition holds.
    Done,
    /// The run was cancelled; the state is quiesced and checkpointed.
    Cancelled,
}

/// The per-mode half of a round boundary: the loop state an executor
/// exposes to [`RunCtx::end_round`] and [`RunCtx::govern`].
pub(crate) trait LoopState {
    /// The master connection boundary statements run on.
    fn conn(&mut self) -> &mut dyn Connection;
    /// The mode's own termination decision, when it has one (the parallel
    /// modes' per-partition `ITERATIONS` caps, AsyncP's outstanding-work
    /// check); `None` runs the Table I probe.
    fn terminated(&mut self) -> SqloopResult<Option<bool>>;
    /// Brings the state to a quiesce point, where its tables alone are the
    /// loop state.
    fn quiesce(&mut self) -> SqloopResult<()>;
    /// Dumps the quiesced state: per-partition scheduler state and tables.
    fn snapshot(&mut self) -> SqloopResult<(Vec<PartSnap>, Vec<TableDump>)>;
    /// Probes the iterating tables for NaN/±∞ (a no-op unless `w` has
    /// numeric checks on).
    fn probe_numeric(&mut self, w: &Watchdog, round: u64) -> SqloopResult<()>;
}

/// Everything one iterative run needs across its rounds, built once.
pub(crate) struct RunCtx<'a> {
    pub(crate) driver: &'a Arc<dyn Driver>,
    pub(crate) config: &'a SqloopConfig,
    pub(crate) cte: &'a IterativeCte,
    pub(crate) trace: &'a TraceHandle,
    /// The mode that runs: `Single` on the single-threaded executor
    /// whatever the configuration asked for.
    pub(crate) mode: ExecutionMode,
    /// [`run_fingerprint`] of this run, stamped into every snapshot.
    fingerprint: u64,
    /// The snapshot this run resumes from.
    pub(crate) resume: Option<LoopSnapshot>,
    recovery_note: Option<String>,
    checkpointer: Option<Checkpointer>,
    watchdog: Option<Watchdog>,
    cache_probe: PlanCacheProbe,
    probe: TerminationProbe,
    refresher: Option<DeltaRefresher>,
    /// Completed rounds (a resumed run starts at the snapshot's round).
    pub(crate) rounds: u64,
    /// Rows changed by the last completed round.
    last_change: u64,
    cancelled: bool,
    /// What fault recovery had to do, reported even when the run fails.
    pub(crate) recovery: RecoveryCounters,
}

impl<'a> RunCtx<'a> {
    fn new(
        driver: &'a Arc<dyn Driver>,
        cte: &'a IterativeCte,
        parallel: bool,
        config: &'a SqloopConfig,
        trace: &'a TraceHandle,
    ) -> SqloopResult<RunCtx<'a>> {
        let (mode, partitions) = if parallel {
            config.validate().map_err(SqloopError::Config)?;
            if config.mode == ExecutionMode::Single {
                return Err(SqloopError::Config(
                    "single mode must use the single-threaded executor".into(),
                ));
            }
            (config.mode, config.partitions)
        } else {
            (ExecutionMode::Single, 1)
        };
        // the engine memory budget covers the whole run; a governed abort
        // lifts it again before its final checkpoint
        if config.max_mem.is_some() {
            driver.set_memory_limit(config.max_mem);
        }
        let fingerprint = run_fingerprint(cte, mode.label(), partitions);
        // a snapshot only resumes the mode that wrote it: after a fallback
        // or downgrade to Single it describes the parallel layout
        let (resume, recovery_note) = match &config.resume_from {
            Some(path) if mode == config.mode => {
                let recovered = load_latest_recovering(path)?;
                let snap = recovered.snapshot;
                check_fingerprint(&snap, fingerprint, mode.label())?;
                if parallel && snap.parts.len() != partitions {
                    return Err(SqloopError::Checkpoint(format!(
                        "snapshot carries {} partition states but this run has {partitions} \
                         partitions",
                        snap.parts.len()
                    )));
                }
                (Some(snap), recovered.note)
            }
            _ => (None, None),
        };
        // fail before any table exists when the checkpoint dir is unusable
        let checkpointer = config
            .checkpoint
            .clone()
            .map(Checkpointer::new)
            .transpose()?;
        // the master's recurring boundary statements, prepared once
        let profile = driver.profile();
        let probe = TerminationProbe::new(&cte.name, &cte.termination, profile)?;
        let refresher = cte
            .termination
            .needs_delta_snapshot()
            .then(|| DeltaRefresher::new(&CteNames::new(&cte.name), profile))
            .transpose()?;
        Ok(RunCtx {
            driver,
            config,
            cte,
            trace,
            mode,
            fingerprint,
            rounds: resume.as_ref().map_or(0, |s| s.round),
            last_change: resume.as_ref().map_or(0, |s| s.last_change),
            resume,
            recovery_note,
            checkpointer,
            watchdog: config
                .watchdog
                .is_active()
                .then(|| Watchdog::new(config.watchdog, &cte.termination)),
            cache_probe: PlanCacheProbe::default(),
            probe,
            refresher,
            cancelled: false,
            recovery: RecoveryCounters::default(),
        })
    }

    /// Opens the master connection, under the run's statement deadline.
    pub(crate) fn connect(&self) -> SqloopResult<Box<dyn Connection>> {
        let mut conn = self.driver.connect()?;
        if self.config.statement_timeout.is_some() {
            conn.set_statement_timeout(self.config.statement_timeout)?;
        }
        Ok(conn)
    }

    /// Marks the end of setup: records a resume, and starts the plan-cache
    /// probe so round 1's tick excludes the setup statements.
    pub(crate) fn begin_rounds(&mut self) {
        if self.resume.is_some() {
            self.trace.event(
                EventKind::Resume,
                None,
                Some(self.rounds),
                format!("resumed {} run at round {}", self.mode.label(), self.rounds),
            );
        }
        self.cache_probe = PlanCacheProbe::new(self.driver);
    }

    /// The round boundary every mode passes once per counted round, in one
    /// fixed order: round event → plan-cache tick → termination → cancel →
    /// watchdog → checkpoint → `max_iterations`. The watchdog runs before
    /// the checkpoint so a verdict's final snapshot is the round's only
    /// one.
    ///
    /// # Errors
    /// Probe, snapshot and checkpoint errors (route them through
    /// [`RunCtx::govern`]), watchdog verdicts (already aborted governed),
    /// and the `max_iterations` cap.
    pub(crate) fn end_round(
        &mut self,
        state: &mut dyn LoopState,
        changed: u64,
    ) -> SqloopResult<Verdict> {
        self.rounds += 1;
        self.last_change = changed;
        let round = self.rounds;
        if self.trace.is_enabled() {
            self.trace.event(
                EventKind::Round,
                None,
                Some(round),
                format!("{changed} row(s) changed"),
            );
        }
        self.cache_probe.tick(self.trace, round, self.mode.label());
        let done = match state.terminated()? {
            Some(done) => done,
            None => {
                let done = self.probe.satisfied(state.conn(), round, changed)?;
                if let Some(r) = self.refresher.as_mut() {
                    r.refresh(state.conn())?;
                }
                done
            }
        };
        if done {
            return Ok(Verdict::Done);
        }
        if self.config.cancel.cancelled() {
            self.stop_cancelled(state)?;
            return Ok(Verdict::Cancelled);
        }
        if let Some(w) = self.watchdog.as_mut() {
            let verdict = w
                .check_round(round, changed)
                .and_then(|()| state.probe_numeric(w, round));
            if let Err(verdict) = verdict {
                self.abort_governed(state, &verdict)?;
                return Err(verdict);
            }
        }
        if self.checkpointer.as_ref().is_some_and(|c| c.due(round)) {
            state.quiesce()?;
            self.save(state)?;
        }
        if round >= self.config.max_iterations {
            return Err(SqloopError::Semantic(format!(
                "termination condition not satisfied within {} iterations",
                self.config.max_iterations
            )));
        }
        Ok(Verdict::Continue)
    }

    /// Stops a cancelled run at a quiesce point: records the cancellation,
    /// writes a final checkpoint (when checkpointing is on), and marks the
    /// run cancelled — the executor then answers `Qf` over the partial
    /// state.
    pub(crate) fn stop_cancelled(&mut self, state: &mut dyn LoopState) -> SqloopResult<()> {
        let detail = "cancelled at quiesce point".to_owned();
        self.stop(state, EventKind::Cancel, "sqloop.cancelled_runs", detail)?;
        self.cancelled = true;
        Ok(())
    }

    /// The one governed-error path: an engine memory-budget trip anywhere
    /// in the run (a worker task, a termination probe, a snapshot, the
    /// final query) aborts governed and becomes the typed
    /// [`SqloopError::BudgetExceeded`]; every other error passes through.
    /// When the abort itself fails the original trip is surfaced, so the
    /// failure is not masked.
    pub(crate) fn govern(&mut self, state: &mut dyn LoopState, e: SqloopError) -> SqloopError {
        let Some(m) = root_budget_exceeded(&e) else {
            return e;
        };
        let verdict = SqloopError::BudgetExceeded {
            what: format!("memory ({m})"),
            round: self.rounds,
        };
        match self.abort_governed(state, &verdict) {
            Ok(()) => verdict,
            Err(_) => e,
        }
    }

    /// Lifts the engine memory limit (an exhausted budget leaves no
    /// headroom to quiesce or snapshot; resuming re-applies the raised
    /// limit), records the verdict, quiesces, and writes a final checkpoint
    /// so the abort is resumable.
    fn abort_governed(
        &mut self,
        state: &mut dyn LoopState,
        verdict: &SqloopError,
    ) -> SqloopResult<()> {
        self.driver.set_memory_limit(None);
        let detail = format!("governed abort: {verdict}");
        self.stop(state, EventKind::Watchdog, "sqloop.governed_aborts", detail)
    }

    /// Records why the run stops, quiesces, and writes a final checkpoint.
    fn stop(
        &mut self,
        state: &mut dyn LoopState,
        kind: EventKind,
        counter: &str,
        detail: String,
    ) -> SqloopResult<()> {
        self.trace.event(kind, None, Some(self.rounds), detail);
        obs::global().counter(counter).inc();
        state.quiesce()?;
        self.save(state)
    }

    /// Writes a snapshot of the quiesced state at the completed round
    /// (no-op when checkpointing is off).
    fn save(&mut self, state: &mut dyn LoopState) -> SqloopResult<()> {
        let Some(ck) = self.checkpointer.as_mut() else {
            return Ok(());
        };
        let (parts, tables) = state.snapshot()?;
        let seeds = match self.mode {
            ExecutionMode::Single => Vec::new(),
            _ => (1..=self.config.threads as u64).collect(),
        };
        let path = ck.save(&LoopSnapshot {
            fingerprint: self.fingerprint,
            mode: self.mode.label().into(),
            round: self.rounds,
            last_change: self.last_change,
            parts,
            seeds,
            tables,
        })?;
        trace_checkpoint(self.trace, self.rounds, &path);
        Ok(())
    }
}

/// Walks a (possibly [`SqloopError::Task`]-wrapped) error chain looking for
/// the engine's memory-budget refusal; returns its message when found.
fn root_budget_exceeded(e: &SqloopError) -> Option<&str> {
    match e {
        SqloopError::Db(DbError::BudgetExceeded(m)) => Some(m),
        SqloopError::Task { source, .. } => root_budget_exceeded(source),
        _ => None,
    }
}
