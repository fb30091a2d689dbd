//! The three benchmark workloads: which query, on which graph, under which
//! scheduler, engine profile and driver, and the oracle each answer is
//! checked against.

use graphgen::{Graph, NodeId};
use sqldb::{EngineProfile, QueryResult, Value};
use sqloop::{CheckpointConfig, ExecutionMode, PrioritySpec, SqloopConfig, TraceConfig};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// The iterative query a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PageRank for a fixed number of rounds (bulk iteration).
    PageRank {
        /// Rounds per query.
        rounds: u64,
    },
    /// Single-source shortest path from node 0 to quiescence.
    Sssp,
    /// Descendant query from node 0 with a hop budget, to quiescence.
    Descendants {
        /// Hop budget.
        max_hops: u64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name the command line selects it by.
    pub name: &'static str,
    /// The query.
    pub kind: Kind,
    /// Scheduler.
    pub mode: ExecutionMode,
    /// Engine profile.
    pub profile: EngineProfile,
    /// Partitions (parallel modes).
    pub partitions: usize,
    /// Worker threads (parallel modes).
    pub threads: usize,
    /// Run over the TCP driver against an in-process server instead of the
    /// local driver.
    pub tcp: bool,
    /// Checkpoint every this many rounds (`None` = no checkpoints).
    pub checkpoint_every: Option<u64>,
    /// Graph size: nodes for PageRank, circles for SSSP, layers per domain
    /// for the descendant query.
    pub size: usize,
    /// Edges kept of the generated graph (`None` = all). Holding the edge
    /// count fixed keeps the work per query the same from seed to seed.
    pub edges: Option<usize>,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pagerank-single-pg",
        kind: Kind::PageRank { rounds: 20 },
        mode: ExecutionMode::Single,
        profile: EngineProfile::Postgres,
        partitions: 1,
        threads: 1,
        tcp: false,
        checkpoint_every: None,
        size: 1500,
        edges: Some(6500),
    },
    Workload {
        name: "sssp-sync-mysql-ckpt",
        kind: Kind::Sssp,
        mode: ExecutionMode::Sync,
        profile: EngineProfile::MySql,
        partitions: 8,
        threads: 2,
        tcp: false,
        checkpoint_every: Some(2),
        size: 12,
        edges: None,
    },
    Workload {
        name: "dq-asyncp-tcp-mariadb",
        kind: Kind::Descendants { max_hops: 100 },
        mode: ExecutionMode::AsyncPrio,
        profile: EngineProfile::MariaDb,
        partitions: 16,
        threads: 2,
        tcp: true,
        checkpoint_every: None,
        size: 50,
        edges: None,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The input graph for `seed` (same seed, same graph).
    pub fn graph(&self, seed: u64) -> Graph {
        let graph = match self.kind {
            Kind::PageRank { .. } => graphgen::web_graph(self.size, 8, seed),
            Kind::Sssp => graphgen::ego_network(self.size, 40, 6, seed),
            Kind::Descendants { .. } => graphgen::two_domain_web(self.size, 6, seed),
        };
        match self.edges {
            Some(edges) => thin(&graph, edges, seed),
            None => graph,
        }
    }

    /// The SQLoop query text.
    pub fn query(&self) -> String {
        match self.kind {
            Kind::PageRank { rounds } => workloads::queries::pagerank(rounds),
            Kind::Sssp => workloads::queries::sssp_all(0),
            Kind::Descendants { max_hops } => workloads::queries::descendant_query(0, max_hops),
        }
    }

    /// The middleware configuration; `checkpoint_dir` is used when the
    /// workload checkpoints. Tracing inside the program stays off whatever
    /// the environment says.
    pub fn config(&self, checkpoint_dir: &Path) -> SqloopConfig {
        SqloopConfig {
            mode: self.mode,
            threads: self.threads,
            partitions: self.partitions,
            priority: (self.mode == ExecutionMode::AsyncPrio)
                .then(|| PrioritySpec::lowest("SELECT MIN(delta) FROM {}")),
            trace: TraceConfig::default(),
            checkpoint: self
                .checkpoint_every
                .map(|n| CheckpointConfig::new(checkpoint_dir).every(n)),
            ..SqloopConfig::default()
        }
    }

    /// The expected answer for `graph`, from the native oracles.
    pub fn oracle(&self, graph: &Graph) -> Oracle {
        let want = match self.kind {
            Kind::PageRank { rounds } => workloads::oracle::pagerank(graph, rounds),
            Kind::Sssp => workloads::oracle::sssp(graph, 0),
            Kind::Descendants { max_hops } => workloads::oracle::descendants(graph, 0, max_hops)
                .into_iter()
                .map(|(n, h)| (n, h as f64))
                .collect(),
        };
        Oracle {
            want,
            unreachable_rows: self.kind == Kind::Sssp,
        }
    }
}

/// Keeps `edges` of `graph`'s edges, chosen at random by `seed`, in their
/// original order (all of them when the graph has no more).
fn thin(graph: &Graph, edges: usize, seed: u64) -> Graph {
    let all = graph.edges();
    if all.len() <= edges {
        return graph.clone();
    }
    // partial Fisher-Yates over edge indices, driven by splitmix64
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut index: Vec<usize> = (0..all.len()).collect();
    for i in 0..edges {
        let j = i + (next() % (all.len() - i) as u64) as usize;
        index.swap(i, j);
    }
    index.truncate(edges);
    index.sort_unstable();
    Graph::from_edges(index.into_iter().map(|i| all[i]).collect())
}

/// Expected `node → value` answer of one workload.
#[derive(Debug, Clone)]
pub struct Oracle {
    want: HashMap<NodeId, f64>,
    /// The query also returns unreachable nodes, at infinite distance.
    unreachable_rows: bool,
}

/// Tolerance of a value against the oracle (all three answers are exact up
/// to float summation order).
const TOLERANCE: f64 = 1e-9;

impl Oracle {
    /// Checks a `(node, value)` result set against the oracle: one row per
    /// node, every expected node answered with its value.
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn check(&self, result: &QueryResult) -> Result<(), String> {
        let mut matched = 0;
        let mut seen = HashSet::new();
        for row in &result.rows {
            let (node, got) = match row.as_slice() {
                [Value::Int(n), v] => (*n, number(v)),
                other => return Err(format!("unexpected row shape {other:?}")),
            };
            let node = NodeId::try_from(node).map_err(|_| format!("negative node {node}"))?;
            if !seen.insert(node) {
                return Err(format!("node {node} answered twice"));
            }
            match (self.want.get(&node), got) {
                (Some(want), Some(got)) if (want - got).abs() < TOLERANCE => matched += 1,
                (None, Some(got)) if self.unreachable_rows && got.is_infinite() => {}
                (want, got) => {
                    return Err(format!("node {node}: want {want:?}, got {got:?}"));
                }
            }
        }
        if matched == self.want.len() {
            Ok(())
        } else {
            Err(format!(
                "{matched} of {} expected nodes answered",
                self.want.len()
            ))
        }
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(want: &[(NodeId, f64)], unreachable_rows: bool) -> Oracle {
        Oracle {
            want: want.iter().copied().collect(),
            unreachable_rows,
        }
    }

    fn rows(rows: &[(i64, Value)]) -> QueryResult {
        QueryResult {
            columns: vec!["node".into(), "value".into()],
            rows: rows
                .iter()
                .map(|(n, v)| vec![Value::Int(*n), v.clone()])
                .collect(),
        }
    }

    #[test]
    fn exact_answers_pass() {
        let o = oracle(&[(0, 0.0), (1, 2.5)], true);
        let got = rows(&[
            (1, Value::Float(2.5)),
            (0, Value::Int(0)),
            (7, Value::Float(f64::INFINITY)),
        ]);
        assert_eq!(o.check(&got), Ok(()));
    }

    #[test]
    fn a_duplicated_row_cannot_stand_in_for_a_missing_one() {
        let o = oracle(&[(0, 0.0), (1, 1.0), (2, 2.0)], false);
        let got = rows(&[
            (0, Value::Float(0.0)),
            (1, Value::Float(1.0)),
            (1, Value::Float(1.0)),
        ]);
        assert!(o.check(&got).unwrap_err().contains("twice"));
    }

    #[test]
    fn wrong_missing_and_extra_rows_fail() {
        let o = oracle(&[(0, 0.0), (1, 1.0)], false);
        assert!(o
            .check(&rows(&[(0, Value::Float(0.0)), (1, Value::Float(1.5))]))
            .is_err());
        assert!(o.check(&rows(&[(0, Value::Float(0.0))])).is_err());
        assert!(o
            .check(&rows(&[
                (0, Value::Float(0.0)),
                (1, Value::Float(1.0)),
                (2, Value::Float(f64::INFINITY)),
            ]))
            .is_err());
    }
}
