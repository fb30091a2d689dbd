//! One benchmark run: load several graphs of a workload, each into its own
//! engine, then run the workload's query over them in turn as a closed loop
//! (one client; each query starts after the previous one returned) for a
//! fixed time, checking every answer against the oracle. Extra set-ups,
//! spread over the loop, give `setup_s` as many samples as the run's time
//! allows.
//!
//! The untraced run gives the end-to-end metrics. The traced run
//! alternates untraced queries with queries through [`TimingDriver`], and
//! turns the spans and the engine's per-database counters of each traced
//! query into per-layer metrics.

use crate::timing::{union_ns, Family, Recorder, Span, TimingDriver};
use crate::workload::{Oracle, Workload};
use dbcp::{Driver, LocalDriver, Server, TcpDriver};
use obs::RegistrySnapshot;
use sqldb::{Database, DigestEntry, PlanCacheStats, StatsSnapshot};
use sqloop::{DigestReport, ExecutionReport, SQLoop, SqloopQuery, Strategy};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by the untraced run. The
/// untraced run also prints `query_ms.p90`, which is not among them: on a
/// shared host its run-to-run spread is wider than any usable bound, so the
/// tail is reported by the traced run as `query_ms.untraced_p90` instead.
pub const END_TO_END: [(&str, &str); 3] = [
    ("query_ms.p50", "ms"),
    ("setup_s", "s"),
    ("engine_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. Each is
/// the median over the run's traced queries of its per-query value, except
/// `load.ms` (median over the set-ups), `core.*_us` (median over repeated
/// calls) and `trace.overhead_frac`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("load.ms", "ms"),
    ("core.parse_us", "us"),
    ("core.analyze_us", "us"),
    ("core.translate_us", "us"),
    ("core.self_ms", "ms"),
    ("sched.rounds", "count"),
    ("sched.round_ms", "ms"),
    ("sched.computes", "count"),
    ("sched.gathers", "count"),
    ("sched.messages", "count"),
    ("sched.overlap", "ratio"),
    ("driver.calls", "count"),
    ("driver.busy_ms", "ms"),
    ("driver.union_ms", "ms"),
    ("driver.connect_ms", "ms"),
    ("wire.ms", "ms"),
    ("wire.round_trips", "count"),
    ("wire.bytes", "bytes"),
    ("engine.busy_ms", "ms"),
    ("engine.statements", "count"),
    ("engine.select_ms", "ms"),
    ("engine.insert_ms", "ms"),
    ("engine.update_ms", "ms"),
    ("engine.delete_ms", "ms"),
    ("engine.ddl_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.parses", "count"),
    ("engine.plan_cache.hits", "count"),
    ("engine.plan_cache.misses", "count"),
    ("engine.plan_cache.hit_rate", "ratio"),
    ("engine.rows_scanned", "count"),
    ("engine.rows_joined", "count"),
    ("engine.index_lookups", "count"),
    ("engine.lock_waits", "count"),
    ("engine.batches", "count"),
    ("engine.rows_per_batch", "rows"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.fsyncs", "count"),
    ("ckpt.write_ms", "ms"),
    ("query_ms.traced_p50", "ms"),
    ("query_ms.untraced_p50", "ms"),
    ("query_ms.untraced_p90", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Graphs per run, each drawn from the seed and loaded into its own
/// engine. Taking several in turn keeps the work of a run the same from
/// seed to seed.
pub const GRAPHS: usize = 6;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of the input graphs.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Make the traced run instead of the untraced one.
    pub trace: bool,
    /// Directory for checkpoints and the span dump (created if missing).
    pub work_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Queries run (set-up queries included).
    pub attempted: u64,
    /// Queries that returned an error or missed the oracle.
    pub failed: u64,
    /// Metrics by name: `(value, unit)`.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Size of each graph as `(nodes, edges)`.
    pub graphs: Vec<(usize, usize)>,
    /// Queries in the measured loop (untraced and traced).
    pub loop_queries: usize,
    /// Set-ups made, the extra ones in the loop included.
    pub setups: usize,
    /// Reconciliation failures of the traced run (empty when it adds up).
    pub violations: Vec<String>,
    /// Where the traced run wrote its spans.
    pub spans_path: Option<PathBuf>,
}

/// One input graph loaded into its own fresh engine, ready to query.
struct Env {
    db: Database,
    driver: Arc<dyn Driver>,
    server: Option<Server>,
    checkpoint_dir: PathBuf,
    oracle: Oracle,
    /// The middleware over the real driver.
    plain: SQLoop,
}

impl Env {
    fn close(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        // a workload without checkpoints never creates the directory
        let _ = std::fs::remove_dir_all(&self.checkpoint_dir);
    }
}

/// Counts queries and their failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Checks one query outcome against the oracle (outside any timed
    /// interval) and counts it.
    fn check(&mut self, outcome: &Result<ExecutionReport, String>, oracle: &Oracle) {
        self.attempted += 1;
        let verdict = match outcome {
            Ok(report) => oracle.check(&report.result),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("perfbench: query failed: {e}");
        }
    }
}

/// The state one run carries between set-ups and queries.
struct Bench<'a> {
    w: &'a Workload,
    query: String,
    work_dir: &'a Path,
    graphs: Vec<graphgen::Graph>,
    tally: Tally,
    /// Each set-up's time from an empty database to ready, in s.
    setup_s: Vec<f64>,
    /// Time of each set-up's `load_edges`, in ms.
    load_ms: Vec<f64>,
}

impl Bench<'_> {
    /// Sets graph `k` (modulo the run's graphs) up in a fresh engine,
    /// timing it from an empty database to ready: server bind and driver
    /// connect (TCP workloads), `load_edges`, and one cold query.
    fn set_up(&mut self, k: usize) -> Result<Env, String> {
        let w = self.w;
        let graph = &self.graphs[k % self.graphs.len()];
        let checkpoint_dir = self.work_dir.join(format!(
            "ckpt-{}-{}-{}",
            w.name,
            std::process::id(),
            self.setup_s.len()
        ));
        let oracle = w.oracle(graph);
        let started = Instant::now();
        let db = Database::new(w.profile);
        let (driver, server): (Arc<dyn Driver>, Option<Server>) = if w.tcp {
            let server = Server::bind(db.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
            let driver =
                TcpDriver::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
            (Arc::new(driver), Some(server))
        } else {
            (Arc::new(LocalDriver::new(db.clone())), None)
        };
        let plain = SQLoop::new(driver.clone()).with_config(w.config(&checkpoint_dir));
        let env = Env {
            db,
            driver,
            server,
            checkpoint_dir,
            oracle,
            plain,
        };
        let load_started = Instant::now();
        let loaded = env
            .driver
            .connect()
            .map_err(|e| e.to_string())
            .and_then(|mut conn| {
                workloads::load_edges(conn.as_mut(), graph).map_err(|e| e.to_string())
            });
        let load = load_started.elapsed();
        if let Err(e) = loaded {
            env.close();
            return Err(format!("loading the graph: {e}"));
        }
        let cold = env
            .plain
            .execute_detailed(&self.query)
            .map_err(|e| e.to_string());
        self.setup_s.push(started.elapsed().as_secs_f64());
        self.load_ms.push(ms(load));
        self.tally.check(&cold, &env.oracle);
        Ok(env)
    }

    /// The extra set-up due before the `i`-th step of the measured loop,
    /// if any: one after every round over the run's engines, of each graph
    /// in turn, so that the set-ups spread over the whole run like the
    /// queries. The engine is closed again at once.
    fn set_up_between(&mut self, i: usize) -> Result<(), String> {
        if i == 0 || !i.is_multiple_of(GRAPHS) {
            return Ok(());
        }
        self.set_up(i / GRAPHS).map(Env::close)
    }
}

/// Runs one workload as `opts` says.
///
/// # Errors
/// When the workload cannot be set up (engine, server or load failure);
/// query failures are counted in the result instead.
pub fn run(w: &Workload, opts: &RunOptions) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let graphs: Vec<graphgen::Graph> = (0..GRAPHS)
        .map(|k| w.graph(graph_seed(opts.seed, k)))
        .collect();
    let mut result = RunResult {
        graphs: graphs
            .iter()
            .map(|g| (g.node_count(), g.edge_count()))
            .collect(),
        ..RunResult::default()
    };
    let mut bench = Bench {
        w,
        query: w.query(),
        work_dir: &opts.work_dir,
        graphs,
        tally: Tally::default(),
        setup_s: Vec::new(),
        load_ms: Vec::new(),
    };
    let mut envs: Vec<Env> = Vec::new();
    let mut outcome = Ok(());
    for k in 0..GRAPHS {
        match bench.set_up(k) {
            Ok(env) => envs.push(env),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    if outcome.is_ok() {
        outcome = if opts.trace {
            traced_loop(
                &mut bench,
                &envs,
                deadline,
                &mut result,
                &opts.work_dir,
                opts.seed,
            )
        } else {
            untraced_loop(&mut bench, &envs, deadline, &mut result)
        };
    }
    envs.into_iter().for_each(Env::close);
    outcome?;
    if opts.trace {
        result
            .metrics
            .insert("load.ms", (median(&mut bench.load_ms), "ms"));
        let (parse, analyze, translate) = middleware_us(&bench.query, w.profile);
        result.metrics.insert("core.parse_us", (parse, "us"));
        result.metrics.insert("core.analyze_us", (analyze, "us"));
        result
            .metrics
            .insert("core.translate_us", (translate, "us"));
    } else {
        result
            .metrics
            .insert("setup_s", (median(&mut bench.setup_s), "s"));
    }
    result.setups = bench.setup_s.len();
    result.attempted = bench.tally.attempted;
    result.failed = bench.tally.failed;
    Ok(result)
}

/// The untraced closed loop: wall time of every query, and the engines'
/// memory peaks after it.
fn untraced_loop(
    bench: &mut Bench,
    envs: &[Env],
    deadline: Instant,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut walls = Vec::new();
    for (i, env) in envs.iter().cycle().enumerate() {
        if !walls.is_empty() && Instant::now() >= deadline {
            break;
        }
        bench.set_up_between(i)?;
        let started = Instant::now();
        let outcome = env
            .plain
            .execute_detailed(&bench.query)
            .map_err(|e| e.to_string());
        walls.push(ms(started.elapsed()));
        bench.tally.check(&outcome, &env.oracle);
    }
    result.loop_queries = walls.len();
    for (name, p) in [("query_ms.p50", 0.5), ("query_ms.p90", 0.9)] {
        result
            .metrics
            .insert(name, (percentile(&mut walls, p), "ms"));
    }
    let mut peaks: Vec<f64> = envs
        .iter()
        .map(|e| e.db.memory_peak() as f64 / 1e6)
        .collect();
    result
        .metrics
        .insert("engine_peak_mb", (median(&mut peaks), "MB"));
    Ok(())
}

/// Seed of the `k`-th graph of a run: distinct for every `(seed, k)` pair
/// with `seed < 2^56` and `k < 2^8`.
fn graph_seed(seed: u64, k: usize) -> u64 {
    (seed << 8) | k as u64
}

/// The engine's per-database counters plus the process registry, read
/// around one traced query. The registry part is attributed to the query
/// because queries run one at a time.
struct Probe {
    stats: StatsSnapshot,
    plan: PlanCacheStats,
    digests: Vec<DigestEntry>,
    registry: RegistrySnapshot,
}

impl Probe {
    fn read(db: &Database) -> Probe {
        Probe {
            stats: db.stats(),
            plan: db.plan_cache_stats(),
            digests: db.digest_stats(),
            registry: obs::global().snapshot(),
        }
    }
}

/// The per-layer figures of one traced query.
type Sample = BTreeMap<&'static str, f64>;

/// The traced closed loop: alternates untraced queries with queries
/// through [`TimingDriver`], turns each traced query into a [`Sample`], and
/// writes the spans out when it ends.
fn traced_loop(
    bench: &mut Bench,
    envs: &[Env],
    deadline: Instant,
    result: &mut RunResult,
    work_dir: &Path,
    seed: u64,
) -> Result<(), String> {
    let w = bench.w;
    let recorder = Recorder::new();
    let traced: Vec<SQLoop> = envs
        .iter()
        .map(|env| {
            let driver = TimingDriver::new(env.driver.clone(), recorder.clone());
            SQLoop::new(Arc::new(driver)).with_config(w.config(&env.checkpoint_dir))
        })
        .collect();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    // alternate the two kinds of query so drift hits both alike
    for (i, (env, traced)) in envs.iter().zip(&traced).cycle().enumerate() {
        if !traced_walls.is_empty() && Instant::now() >= deadline {
            break;
        }
        bench.set_up_between(i)?;
        let query = bench.query.as_str();
        let started = Instant::now();
        let outcome = env.plain.execute_detailed(query).map_err(|e| e.to_string());
        untraced_walls.push(ms(started.elapsed()));
        bench.tally.check(&outcome, &env.oracle);

        let before = Probe::read(&env.db);
        let first_span = recorder.len();
        let (qid, start_ns) = recorder.begin_query();
        let started = Instant::now();
        let outcome = traced.execute_detailed(query).map_err(|e| e.to_string());
        let caller_ms = ms(started.elapsed());
        let end_ns = recorder.end_query(qid, start_ns);
        let after = Probe::read(&env.db);
        let spans = recorder.spans_since(first_span);
        traced_walls.push(caller_ms);
        bench.tally.check(&outcome, &env.oracle);
        if let Ok(report) = &outcome {
            let sample = sample(report, &before, &after, &spans, qid, (start_ns, end_ns));
            result.violations.extend(reconcile(
                w,
                &sample,
                &spans,
                qid,
                (start_ns, end_ns),
                caller_ms,
            ));
            samples.push(sample);
        }
    }
    result.loop_queries = untraced_walls.len() + traced_walls.len();
    for (name, unit) in PER_LAYER {
        let mut values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        if !values.is_empty() {
            result.metrics.insert(name, (median(&mut values), unit));
        }
    }
    let traced_p50 = median(&mut traced_walls);
    let untraced_p50 = median(&mut untraced_walls);
    let untraced_p90 = percentile(&mut untraced_walls, 0.9);
    result
        .metrics
        .insert("query_ms.traced_p50", (traced_p50, "ms"));
    result
        .metrics
        .insert("query_ms.untraced_p50", (untraced_p50, "ms"));
    result
        .metrics
        .insert("query_ms.untraced_p90", (untraced_p90, "ms"));
    result.metrics.insert(
        "trace.overhead_frac",
        (traced_p50 / untraced_p50 - 1.0, "frac"),
    );
    result.violations.sort();
    result.violations.dedup();
    result
        .violations
        .extend(reconcile_medians(w, &result.metrics));
    let path = work_dir.join(format!("{}-seed{seed}.spans.tsv", w.name));
    match write_spans(&recorder, &path) {
        Ok(()) => result.spans_path = Some(path),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    Ok(())
}

/// Writes every recorded span to `path`, one tab-separated line each.
fn write_spans(recorder: &Recorder, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    recorder.write_tsv(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// Turns one traced query into per-layer figures.
fn sample(
    report: &ExecutionReport,
    before: &Probe,
    after: &Probe,
    spans: &[Span],
    qid: u64,
    (start_ns, end_ns): (u64, u64),
) -> Sample {
    let mut s = Sample::new();
    let wall_ms = (end_ns - start_ns) as f64 / 1e6;
    let calls: Vec<&Span> = spans.iter().filter(|c| c.parent == qid).collect();
    let busy_ms: f64 = calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .sum();
    // the union as the calls ran, and the part of it inside the query
    // span; they differ only if a call of the query lies outside its span
    let mut intervals: Vec<(u64, u64)> = calls.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    let union_ms = union_ns(&mut intervals) as f64 / 1e6;
    let mut inside: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start_ns), b.min(end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    let inside_ms = union_ns(&mut inside) as f64 / 1e6;
    let connect_ms: f64 = calls
        .iter()
        .filter(|c| c.name == "connect")
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .sum();
    s.insert("core.self_ms", wall_ms - inside_ms);
    s.insert("driver.calls", calls.len() as f64);
    s.insert("driver.busy_ms", busy_ms);
    s.insert("driver.union_ms", union_ms);
    s.insert("driver.connect_ms", connect_ms);
    s.insert("sched.overlap", busy_ms / wall_ms);

    let parallel = matches!(report.strategy, Strategy::IterativeParallel { .. });
    let rounds = if parallel { report.iterations } else { 0 };
    s.insert("sched.rounds", rounds as f64);
    s.insert(
        "sched.round_ms",
        if rounds > 0 {
            wall_ms / rounds as f64
        } else {
            0.0
        },
    );
    s.insert("sched.computes", report.computes as f64);
    s.insert("sched.gathers", report.gathers as f64);
    s.insert("sched.messages", report.messages as f64);

    // engine time per statement family, from the per-database digest table
    let digests = DigestReport::from_snapshots("", before.digests.clone(), after.digests.clone());
    let mut by_family: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut engine_ms = 0.0;
    let mut statements = 0u64;
    for e in &digests.families {
        let t = e.total_us as f64 / 1e3;
        engine_ms += t;
        statements += e.calls;
        let key = match Family::of(&e.digest) {
            Family::Select => "engine.select_ms",
            Family::Insert => "engine.insert_ms",
            Family::Update => "engine.update_ms",
            Family::Delete => "engine.delete_ms",
            Family::Ddl => "engine.ddl_ms",
            _ => "engine.other_ms",
        };
        *by_family.entry(key).or_default() += t;
    }
    for key in [
        "engine.select_ms",
        "engine.insert_ms",
        "engine.update_ms",
        "engine.delete_ms",
        "engine.ddl_ms",
        "engine.other_ms",
    ] {
        s.insert(key, by_family.get(key).copied().unwrap_or(0.0));
    }
    s.insert("engine.busy_ms", engine_ms);
    s.insert("engine.statements", statements as f64);

    let reg = after.registry.delta_since(&before.registry);
    let counter = |name: &str| reg.counters.get(name).copied().unwrap_or(0) as f64;
    let hist = |name: &str| reg.histograms.get(name).map(|h| (h.count, h.total_us));
    let plan_ms = hist("sqldb.plan").map_or(0.0, |(_, us)| us as f64 / 1e3);
    s.insert("engine.plan_ms", plan_ms);
    s.insert("wire.ms", busy_ms - engine_ms - plan_ms);
    s.insert(
        "wire.round_trips",
        hist("dbcp.wire.round_trip").map_or(0.0, |(n, _)| n as f64),
    );
    s.insert(
        "wire.bytes",
        counter("dbcp.wire.bytes_in") + counter("dbcp.wire.bytes_out"),
    );

    let hits = after.plan.hits - before.plan.hits;
    let misses = after.plan.misses - before.plan.misses;
    s.insert(
        "engine.parses",
        hist("sqldb.plan").map_or(0.0, |(n, _)| n as f64),
    );
    s.insert("engine.plan_cache.hits", hits as f64);
    s.insert("engine.plan_cache.misses", misses as f64);
    s.insert(
        "engine.plan_cache.hit_rate",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    let stats = after.stats.delta_since(&before.stats);
    s.insert("engine.rows_scanned", stats.rows_scanned as f64);
    s.insert("engine.rows_joined", stats.rows_joined as f64);
    s.insert("engine.index_lookups", stats.index_lookups as f64);
    s.insert("engine.lock_waits", stats.lock_waits as f64);
    let batches = counter("sqloop.exec.batches");
    s.insert("engine.batches", batches);
    s.insert(
        "engine.rows_per_batch",
        if batches > 0.0 {
            counter("sqloop.exec.batch_rows") / batches
        } else {
            0.0
        },
    );

    s.insert("ckpt.writes", counter("sqloop.checkpoint.writes"));
    s.insert("ckpt.bytes", counter("sqloop.checkpoint.bytes"));
    s.insert("ckpt.fsyncs", counter("sqloop.ckpt.fsyncs"));
    s.insert(
        "ckpt.write_ms",
        hist("sqloop.checkpoint.write_latency").map_or(0.0, |(_, us)| us as f64 / 1e3),
    );
    s
}

/// Slack for `engine.busy_ms ≤ driver.busy_ms`: the digest table counts
/// whole microseconds per statement, so it can only round down; this
/// covers float error alone.
const EPS_MS: f64 = 1e-6;

/// Driver time per engine statement on the local driver that may go
/// neither to statement execution nor to parsing: the connection adapter,
/// plan-cache lookups and digest bookkeeping, which the digest table does
/// not time (about 5-10 µs on a 2-vCPU host). There is no wire there, so
/// `wire.ms` must stay near zero.
const LOCAL_OVERHEAD_US: f64 = 25.0;

/// Checks the run's medians: on the local driver, `wire.ms` stays near
/// zero. Medians, because a single query can lose a time slice to the host
/// between the engine's clock and the driver's.
fn reconcile_medians(
    w: &Workload,
    metrics: &BTreeMap<&'static str, (f64, &'static str)>,
) -> Option<String> {
    let get = |k: &str| metrics.get(k).map_or(f64::NAN, |(v, _)| *v);
    let allowed_ms = LOCAL_OVERHEAD_US * get("engine.statements") / 1e3;
    (!w.tcp && get("wire.ms").abs() > allowed_ms).then(|| {
        format!(
            "median wire.ms = {} ms beyond {allowed_ms} ms ({LOCAL_OVERHEAD_US} µs a statement) on a local workload",
            get("wire.ms")
        )
    })
}

/// Checks that one traced query's parts add up. `caller_ms` is the query's
/// wall time as its caller measured it, apart from the recorder's clock.
/// Returns one line per failed check.
fn reconcile(
    w: &Workload,
    s: &Sample,
    spans: &[Span],
    qid: u64,
    (start_ns, end_ns): (u64, u64),
    caller_ms: f64,
) -> Vec<String> {
    let mut bad = Vec::new();
    let get = |k: &str| s.get(k).copied().unwrap_or(f64::NAN);
    if spans
        .iter()
        .any(|c| c.parent == qid && (c.start_ns < start_ns || c.end_ns > end_ns))
    {
        bad.push("a driver call of the query lies outside the query span".into());
    }
    if spans.iter().any(|c| c.parent == 0 && c.name != "query") {
        bad.push("a driver call ran outside any query span".into());
    }
    // holds when every call lies inside the query span and the recorder's
    // span agrees with the caller's clock
    let sum = get("core.self_ms") + get("driver.union_ms");
    if (sum - caller_ms).abs() > 0.01 * caller_ms {
        bad.push(format!(
            "core.self_ms + driver.union_ms = {sum} ms != wall {caller_ms} ms"
        ));
    }
    if get("engine.busy_ms") > get("driver.busy_ms") + EPS_MS {
        bad.push("engine.busy_ms > driver.busy_ms".into());
    }
    if !w.tcp && (get("wire.round_trips") != 0.0 || get("wire.bytes") != 0.0) {
        bad.push("wire traffic on a local workload".into());
    }
    if w.mode == sqloop::ExecutionMode::Single {
        for k in [
            "sched.rounds",
            "sched.computes",
            "sched.gathers",
            "sched.messages",
        ] {
            if get(k) != 0.0 {
                bad.push(format!("{k} != 0 on a single-threaded workload"));
            }
        }
    }
    let ckpt = ["ckpt.writes", "ckpt.bytes", "ckpt.fsyncs"];
    match w.checkpoint_every {
        None if ckpt.iter().any(|k| get(k) != 0.0) => {
            bad.push("checkpoint activity on a workload without checkpoints".into());
        }
        Some(_) if ckpt.iter().any(|k| get(k) <= 0.0) => {
            bad.push("no checkpoint activity on a checkpointing workload".into());
        }
        _ => {}
    }
    bad
}

/// Median time in µs of the middleware's own steps on `query`: grammar
/// parse, parallelizability analysis, and translation of the seed, step
/// and final queries for `profile`.
fn middleware_us(query: &str, profile: sqldb::EngineProfile) -> (f64, f64, f64) {
    const REPS: usize = 101;
    let (mut parse, mut analyze, mut translate) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let parsed = sqloop::parse(black_box(query));
        parse.push(us(t.elapsed()));
        let Ok(SqloopQuery::Iterative(cte)) = parsed else {
            return (parse[0], 0.0, 0.0);
        };
        let t = Instant::now();
        let _ = black_box(sqloop::analyze(black_box(&cte), &cte.columns));
        analyze.push(us(t.elapsed()));
        let t = Instant::now();
        for q in [&cte.seed, &cte.step, &cte.final_query] {
            black_box(sqloop::translate::translate_query_to_sql(
                black_box(q),
                profile,
            ));
        }
        translate.push(us(t.elapsed()));
    }
    (
        median(&mut parse),
        median(&mut analyze),
        median(&mut translate),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between the
/// closest ranks; 0 for no values.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The median; 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
