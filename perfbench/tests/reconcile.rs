//! A traced run of every workload, on small graphs, answers correctly and
//! its parts add up (see `run::reconcile`).
//!
//! This file holds a single test on purpose: the per-query registry deltas
//! are process-wide, so another run in the same test process would leak
//! into them.

mod common;

use perfbench::run::{run, PER_LAYER};
use perfbench::workload::WORKLOADS;

#[test]
fn traced_runs_answer_correctly_and_reconcile() {
    for w in WORKLOADS.iter().map(common::small) {
        let r = run(&w, &common::options(w.name, true)).expect("set-up");
        assert_eq!(r.failed, 0, "{}: oracle mismatches", w.name);
        assert!(r.violations.is_empty(), "{}: {:?}", w.name, r.violations);
        for (name, unit) in PER_LAYER {
            let (value, got_unit) = r.metrics[name];
            assert_eq!(got_unit, unit, "{}: {name}", w.name);
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }
        let m = |k: &str| r.metrics[k].0;
        let parallel = w.mode != sqloop::ExecutionMode::Single;
        assert_eq!(m("sched.rounds") > 0.0, parallel, "{}", w.name);
        assert_eq!(
            m("ckpt.writes") > 0.0,
            w.checkpoint_every.is_some(),
            "{}",
            w.name
        );
        assert_eq!(m("wire.round_trips") > 0.0, w.tcp, "{}", w.name);
        assert!(m("engine.busy_ms") <= m("driver.busy_ms"), "{}", w.name);
        let spans = r.spans_path.as_ref().expect("spans written");
        let dump = std::fs::read_to_string(spans).expect("span dump readable");
        assert!(
            dump.lines().count() as f64 > m("driver.calls"),
            "{}",
            w.name
        );
    }
}
