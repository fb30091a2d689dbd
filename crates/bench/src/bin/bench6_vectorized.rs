//! `bench6-vectorized` — the columnar batch executor at its profile batch
//! size vs the same executor at batch size 1 (the row-at-a-time baseline),
//! plus the statement-templating plan-cache gates.
//!
//! Three sections, emitted together as `results/BENCH_6.json`:
//!
//! 1. **Hot loops** — the statement shapes that dominate Compute/Gather
//!    rounds (scan→filter→project, hash aggregation, filtered COUNT
//!    probes) over a large single table, timed row-mode vs batch-mode on
//!    the same engine. This isolates the executor pipeline itself; the
//!    target is ≥2× per-statement speedup with byte-identical results.
//! 2. **Workloads** — fig4-style PageRank / SSSP / descendant-query runs
//!    at ≥10× the BENCH_5 scale, each oracle-checked in all four modes
//!    (single, sync, async, async-prio) at the profile batch size, and
//!    timed row vs batch per round in sync mode.
//! 3. **Plan cache** — with generation-stable message-slot templating the
//!    parallel schedulers must hold a >90% plan-cache hit rate and parse
//!    *less than one statement per marginal round* in sync, async and
//!    async-prio modes (measured as the parse-count difference between a
//!    long and a short run of the same loop, so one-time setup parses
//!    don't blur the steady state).
//!
//! Usage: `cargo run --release -p sqloop-bench --bin bench6_vectorized --
//!         [--scale 0.1] [--rounds 20] [--partitions 4]
//!         [--hot-rows 60000] [--hot-iters 5]`
//!
//! The run fails loudly when any mode's results miss the oracle or when a
//! row/batch pair diverges — the speedup must not change answers.

use sqldb::{Database, EngineProfile};
use sqloop::{ExecutionMode, ExecutionReport, PrioritySpec, SqloopConfig};
use sqloop_bench::{env_with_graph, time_it, write_file};
use std::fmt::Write as _;

const PARALLEL_MODES: [ExecutionMode; 3] = [
    ExecutionMode::Sync,
    ExecutionMode::Async,
    ExecutionMode::AsyncPrio,
];

fn mode_label(mode: ExecutionMode) -> &'static str {
    match mode {
        ExecutionMode::Single => "single",
        ExecutionMode::Sync => "sync",
        ExecutionMode::Async => "async",
        ExecutionMode::AsyncPrio => "asyncp",
    }
}

fn config(mode: ExecutionMode, partitions: usize) -> SqloopConfig {
    let (threads, partitions) = if mode == ExecutionMode::Single {
        (1, 1)
    } else {
        (2, partitions)
    };
    SqloopConfig {
        mode,
        threads,
        partitions,
        priority: (mode == ExecutionMode::AsyncPrio)
            .then(|| PrioritySpec::lowest("SELECT MIN(delta) FROM {}")),
        ..SqloopConfig::default()
    }
}

// -- section 1: executor hot loops ------------------------------------------

struct HotEntry {
    name: &'static str,
    sql: String,
    row_ms: f64,
    batch_ms: f64,
    results_match: bool,
}

impl HotEntry {
    fn speedup(&self) -> f64 {
        if self.batch_ms > 0.0 {
            self.row_ms / self.batch_ms
        } else {
            0.0
        }
    }
}

/// Loads `nrows` deterministic rows into `big(id, v, grp)`.
fn load_big(db: &Database, nrows: usize) {
    let mut s = db.connect();
    s.execute("CREATE TABLE big (id INT, v FLOAT, grp INT)")
        .expect("create big");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rng = move || {
        // xorshift*: deterministic, spread over [0, 1)
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut id = 0usize;
    while id < nrows {
        let chunk = 512.min(nrows - id);
        let values = (0..chunk)
            .map(|k| {
                let i = id + k;
                format!("({}, {:.9}, {})", i, rng(), i % 64)
            })
            .collect::<Vec<_>>()
            .join(", ");
        s.execute(&format!("INSERT INTO big VALUES {values}"))
            .expect("insert big");
        id += chunk;
    }
}

/// The batch-size override of a timed mode: the profile default when
/// `batched`, else one row per batch (the row-at-a-time baseline).
fn batch_size(batched: bool) -> Option<usize> {
    (!batched).then_some(1)
}

/// Times `sql` in both execution modes; the first run of each mode warms
/// the plan cache and is discarded.
fn time_modes(db: &Database, sql: &str, iters: usize) -> (f64, f64, bool) {
    let run = |batched: bool| {
        db.set_batch_size(batch_size(batched));
        let mut conn = db.connect();
        let reference = conn.query(sql).expect("hot loop").rows;
        let mut total = 0.0;
        for _ in 0..iters {
            let (out, t) = time_it(|| conn.query(sql).expect("hot loop"));
            assert_eq!(out.rows, reference, "hot loop nondeterministic: {sql}");
            total += t.as_secs_f64() * 1e3;
        }
        (total / iters.max(1) as f64, reference)
    };
    let (row_ms, row_rows) = run(false);
    let (batch_ms, batch_rows) = run(true);
    db.set_batch_size(None);
    (row_ms, batch_ms, row_rows == batch_rows)
}

fn hot_loops(nrows: usize, iters: usize) -> Vec<HotEntry> {
    let db = Database::new(EngineProfile::Postgres);
    load_big(&db, nrows);
    let shapes: [(&'static str, String); 4] = [
        (
            "filter_project",
            "SELECT id + 1, v * 2.0 FROM big WHERE v > 0.5".into(),
        ),
        (
            "hash_agg",
            "SELECT grp, SUM(v), COUNT(*), MAX(v) FROM big GROUP BY grp".into(),
        ),
        (
            "agg_over_filter",
            "SELECT grp, SUM(v * 2.0) FROM big WHERE v > 0.25 GROUP BY grp".into(),
        ),
        (
            "count_probe",
            "SELECT COUNT(*) FROM big WHERE v > 0.5".into(),
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, sql)| {
            let (row_ms, batch_ms, results_match) = time_modes(&db, &sql, iters);
            let e = HotEntry {
                name,
                sql,
                row_ms,
                batch_ms,
                results_match,
            };
            println!(
                "  {:>16}: row {:.2} ms  batch {:.2} ms  ({:.2}x){}",
                e.name,
                e.row_ms,
                e.batch_ms,
                e.speedup(),
                if e.results_match {
                    ""
                } else {
                    "  RESULTS DIVERGED"
                },
            );
            e
        })
        .collect()
}

// -- section 2: oracle-checked workloads ------------------------------------

struct WorkloadEntry {
    workload: &'static str,
    /// `(mode label, oracle matched, iterations)` for all four modes.
    modes: Vec<(&'static str, bool, u64)>,
    row_per_round_ms: f64,
    batch_per_round_ms: f64,
}

impl WorkloadEntry {
    fn speedup(&self) -> f64 {
        if self.batch_per_round_ms > 0.0 {
            self.row_per_round_ms / self.batch_per_round_ms
        } else {
            0.0
        }
    }

    fn all_match(&self) -> bool {
        self.modes.iter().all(|(_, ok, _)| *ok)
    }
}

fn run_mode(
    graph: &graphgen::Graph,
    query: &str,
    mode: ExecutionMode,
    partitions: usize,
    batched: bool,
) -> ExecutionReport {
    let env = env_with_graph(EngineProfile::Postgres, graph);
    env.db.set_batch_size(batch_size(batched));
    let sq = env.sqloop(config(mode, partitions));
    sq.execute_detailed(query).expect("workload run")
}

/// Per-round time of the sync scheduler, the mode whose Compute/Gather
/// round structure matches the paper's Fig. 3 inner loop.
fn per_round_ms(graph: &graphgen::Graph, query: &str, partitions: usize, batched: bool) -> f64 {
    let (report, elapsed) =
        time_it(|| run_mode(graph, query, ExecutionMode::Sync, partitions, batched));
    elapsed.as_secs_f64() * 1e3 / report.iterations.max(1) as f64
}

fn node_distances(report: &ExecutionReport) -> Vec<(i64, f64)> {
    report
        .result
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_i64().expect("node id"),
                r[1].as_f64().expect("value"),
            )
        })
        .collect()
}

fn workload_pagerank(graph: &graphgen::Graph, rounds: u64, partitions: usize) -> WorkloadEntry {
    let query = workloads::queries::pagerank(rounds);
    let oracle = workloads::oracle::pagerank(graph, rounds);
    let n = oracle.len() as f64;
    let sync_total = std::cell::Cell::new(0.0f64);
    let modes = [
        ExecutionMode::Single,
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ]
    .map(|mode| {
        let report = run_mode(graph, &query, mode, partitions, true);
        let got = node_distances(&report);
        let ok = match mode {
            // synchronous semantics: every node's rank must hit the oracle
            ExecutionMode::Single | ExecutionMode::Sync => {
                got.len() == oracle.len()
                    && got.iter().all(|(node, rank)| {
                        oracle
                            .get(&(*node as u64))
                            .is_some_and(|want| (want - rank).abs() < 1e-9)
                    })
            }
            // async consumes intermediate results: at equal round counts it
            // propagates at least the sync rank mass and never overshoots
            // the fixpoint total (= node count for a closed graph)
            _ => {
                let total: f64 = got.iter().map(|(_, r)| r).sum();
                total >= sync_total.get() - 1e-6 && total <= n + 1e-6
            }
        };
        if mode == ExecutionMode::Sync {
            sync_total.set(got.iter().map(|(_, r)| r).sum());
        }
        (mode_label(mode), ok, report.iterations)
    });
    WorkloadEntry {
        workload: "pagerank",
        modes: modes.to_vec(),
        row_per_round_ms: per_round_ms(graph, &query, partitions, false),
        batch_per_round_ms: per_round_ms(graph, &query, partitions, true),
    }
}

fn workload_sssp(graph: &graphgen::Graph, partitions: usize) -> WorkloadEntry {
    let query = workloads::queries::sssp_all(0);
    let oracle = workloads::oracle::sssp(graph, 0);
    let check = |report: &ExecutionReport| {
        let got = node_distances(report);
        let reachable = got.iter().filter(|(_, d)| d.is_finite()).count();
        reachable == oracle.len()
            && got
                .iter()
                .all(|(node, dist)| match oracle.get(&(*node as u64)) {
                    Some(want) => (want - dist).abs() < 1e-9,
                    None => dist.is_infinite(),
                })
    };
    finish_exact("sssp", graph, &query, partitions, check)
}

fn workload_dq(graph: &graphgen::Graph, partitions: usize) -> WorkloadEntry {
    let max_hops = 100;
    let query = workloads::queries::descendant_query(0, max_hops);
    let oracle = workloads::oracle::descendants(graph, 0, max_hops);
    let check = |report: &ExecutionReport| {
        let got = node_distances(report);
        got.len() == oracle.len()
            && got.iter().all(|(node, hops)| {
                oracle
                    .get(&(*node as u64))
                    .is_some_and(|want| (*want as f64 - hops).abs() < 1e-9)
            })
    };
    finish_exact("dq", graph, &query, partitions, check)
}

/// Runs all four modes of a workload with a unique fixpoint (exact oracle
/// equality in every mode) and times row vs batch.
fn finish_exact(
    workload: &'static str,
    graph: &graphgen::Graph,
    query: &str,
    partitions: usize,
    check: impl Fn(&ExecutionReport) -> bool,
) -> WorkloadEntry {
    let modes = [
        ExecutionMode::Single,
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ]
    .map(|mode| {
        let report = run_mode(graph, query, mode, partitions, true);
        (mode_label(mode), check(&report), report.iterations)
    });
    WorkloadEntry {
        workload,
        modes: modes.to_vec(),
        row_per_round_ms: per_round_ms(graph, query, partitions, false),
        batch_per_round_ms: per_round_ms(graph, query, partitions, true),
    }
}

// -- section 3: parallel plan-cache gates -----------------------------------

struct CacheEntry {
    mode: &'static str,
    hit_rate: f64,
    marginal_parses_per_round: f64,
    long_rounds: u64,
    parses: u64,
}

/// Parses reported by the engine's plan histogram for one run.
fn parses_of(report: &ExecutionReport) -> u64 {
    report
        .metrics
        .histograms
        .get("sqldb.plan")
        .map_or(0, |h| h.count)
}

fn cache_gate(
    graph: &graphgen::Graph,
    mode: ExecutionMode,
    rounds: u64,
    partitions: usize,
) -> CacheEntry {
    let short_rounds = (rounds / 4).max(2);
    let run = |r: u64| {
        let query = workloads::queries::pagerank(r);
        let env = env_with_graph(EngineProfile::Postgres, graph);
        let before = env.db.plan_cache_stats();
        let report = env
            .sqloop(config(mode, partitions))
            .execute_detailed(&query);
        let report = report.expect("cache gate run");
        let after = env.db.plan_cache_stats();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        (parses_of(&report), hit_rate, report.iterations)
    };
    let (short_parses, _, short_iters) = run(short_rounds);
    let (long_parses, hit_rate, long_iters) = run(rounds);
    // marginal cost of one additional steady-state round — one-time setup
    // parses cancel out of the difference
    let marginal = (long_parses.saturating_sub(short_parses)) as f64
        / (long_iters.saturating_sub(short_iters)).max(1) as f64;
    println!(
        "  {:>6}: hit rate {:.1}%, {:.3} marginal parses/round ({} parses over {} rounds)",
        mode_label(mode),
        hit_rate * 100.0,
        marginal,
        long_parses,
        long_iters,
    );
    CacheEntry {
        mode: mode_label(mode),
        hit_rate,
        marginal_parses_per_round: marginal,
        long_rounds: long_iters,
        parses: long_parses,
    }
}

// -- main -------------------------------------------------------------------

fn main() {
    let mut scale: f64 = 0.1;
    let mut rounds: u64 = 20;
    let mut partitions: usize = 4;
    let mut hot_rows: usize = 60_000;
    let mut hot_iters: usize = 5;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => scale = value().parse().expect("bad --scale"),
            "--rounds" => rounds = value().parse().expect("bad --rounds"),
            "--partitions" => partitions = value().parse().expect("bad --partitions"),
            "--hot-rows" => hot_rows = value().parse().expect("bad --hot-rows"),
            "--hot-iters" => hot_iters = value().parse().expect("bad --hot-iters"),
            other => panic!("unknown flag {other}"),
        }
    }

    println!("== BENCH_6: batch executor vs batch-size-1 baseline ==\n");
    println!("executor hot loops ({hot_rows} rows, mean of {hot_iters}):");
    let hot = hot_loops(hot_rows, hot_iters);
    let min_speedup = hot
        .iter()
        .map(HotEntry::speedup)
        .fold(f64::INFINITY, f64::min);
    let hot_match = hot.iter().all(|e| e.results_match);

    println!("\nworkloads (scale {scale}, {rounds} rounds, p={partitions}):");
    let pr_graph = graphgen::datasets::google_web_like(scale);
    let sssp_graph = graphgen::datasets::twitter_like(scale);
    let dq_graph = graphgen::datasets::berkstan_like(scale);
    println!("  pagerank on {} ({})", pr_graph.name, pr_graph.graph);
    let workloads_out = [
        workload_pagerank(&pr_graph.graph, rounds, partitions),
        workload_sssp(&sssp_graph.graph, partitions),
        workload_dq(&dq_graph.graph, partitions),
    ];
    for w in &workloads_out {
        println!(
            "  {:>8}: row {:.2} ms/round  batch {:.2} ms/round ({:.2}x), modes [{}]",
            w.workload,
            w.row_per_round_ms,
            w.batch_per_round_ms,
            w.speedup(),
            w.modes
                .iter()
                .map(|(m, ok, _)| format!("{m}:{}", if *ok { "ok" } else { "MISS" }))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    let all_oracle = workloads_out.iter().all(WorkloadEntry::all_match);

    println!("\nparallel plan-cache gates (pagerank, p={partitions}):");
    // The gate run is deliberately longer than the workload runs: the hit
    // rate is a start-to-finish average, and the async modes pay a burst of
    // one-time misses (slot creation, gather-list combinations) that only
    // amortizes once steady-state rounds dominate.
    let cache: Vec<CacheEntry> = PARALLEL_MODES
        .iter()
        .map(|&m| cache_gate(&pr_graph.graph, m, (rounds * 2).max(40), partitions))
        .collect();
    let min_hit_rate = cache
        .iter()
        .map(|c| c.hit_rate)
        .fold(f64::INFINITY, f64::min);
    let max_marginal = cache
        .iter()
        .map(|c| c.marginal_parses_per_round)
        .fold(0.0f64, f64::max);

    let mut json = String::from("{\n  \"bench\": \"bench6-vectorized\",\n");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"partitions\": {partitions},");
    let _ = writeln!(
        json,
        "  \"hot_loops\": {{\"rows\": {hot_rows}, \"iters\": {hot_iters}, \"entries\": ["
    );
    for (i, e) in hot.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"sql\": \"{}\", \"row_ms\": {:.4}, \
             \"batch_ms\": {:.4}, \"speedup\": {:.4}, \"results_match\": {}}}",
            e.name,
            obs::json::escape(&e.sql),
            e.row_ms,
            e.batch_ms,
            e.speedup(),
            e.results_match,
        );
        json.push_str(if i + 1 < hot.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ], \"min_speedup\": {min_speedup:.4}}},");
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads_out.iter().enumerate() {
        let modes = w
            .modes
            .iter()
            .map(|(m, ok, iters)| {
                format!("{{\"mode\": \"{m}\", \"oracle_match\": {ok}, \"iterations\": {iters}}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"modes\": [{}], \"row_per_round_ms\": {:.4}, \
             \"batch_per_round_ms\": {:.4}, \"per_round_speedup\": {:.4}}}",
            w.workload,
            modes,
            w.row_per_round_ms,
            w.batch_per_round_ms,
            w.speedup(),
        );
        json.push_str(if i + 1 < workloads_out.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"plan_cache\": [\n");
    for (i, c) in cache.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"hit_rate\": {:.4}, \
             \"marginal_parses_per_round\": {:.4}, \"parses\": {}, \"rounds\": {}}}",
            c.mode, c.hit_rate, c.marginal_parses_per_round, c.parses, c.long_rounds,
        );
        json.push_str(if i + 1 < cache.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"summary\": {{\"min_hot_loop_speedup\": {:.4}, \
         \"hot_loop_results_match\": {}, \"all_oracle_match\": {}, \
         \"min_parallel_hit_rate\": {:.4}, \
         \"max_marginal_parses_per_round\": {:.4}}}\n}}\n",
        min_speedup, hot_match, all_oracle, min_hit_rate, max_marginal,
    );

    println!(
        "\nsummary: hot-loop speedup ≥{min_speedup:.2}x, oracle {}, \
         parallel hit rate ≥{:.1}%, ≤{max_marginal:.3} marginal parses/round",
        if all_oracle {
            "matched in all modes"
        } else {
            "MISSED"
        },
        min_hit_rate * 100.0,
    );
    assert!(hot_match, "row and batch hot loops disagreed");
    assert!(all_oracle, "a mode missed its oracle");
    if let Some(p) = write_file("BENCH_6.json", &json) {
        println!("wrote {}", p.display());
    }
}
