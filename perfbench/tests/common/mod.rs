//! Helpers shared by the benchmark's tests.

use perfbench::run::RunOptions;
use perfbench::workload::{Kind, Workload};
use std::path::PathBuf;

/// A workload shrunk so that a test run takes well under a second a query.
pub fn small(w: &Workload) -> Workload {
    let (size, edges) = match w.kind {
        Kind::PageRank { .. } => (200, Some(800)),
        Kind::Sssp => (3, None),
        Kind::Descendants { .. } => (12, None),
    };
    Workload { size, edges, ..*w }
}

/// Options for a short run of workload `name`, in a work directory of its
/// own so that concurrent tests never share checkpoint files.
pub fn options(name: &str, trace: bool) -> RunOptions {
    RunOptions {
        seed: 7,
        seconds: 0.3,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("reconcile-{name}-trace{trace}")),
    }
}
