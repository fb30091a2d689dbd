//! SQLoop's benchmark: the paper's iterative workloads run end to end
//! through the public API, with per-layer figures from a traced run.
//!
//! See `README.md` in this package for the workloads, the metrics and
//! which end-to-end metric each per-layer metric should move.

pub mod run;
pub mod timing;
pub mod workload;
