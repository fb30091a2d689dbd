//! The untraced run reports every end-to-end metric, and `BENCHMARK.json`
//! names exactly the workloads and metrics the command reports.

mod common;

use perfbench::run::{run, END_TO_END, PER_LAYER};
use perfbench::workload::WORKLOADS;

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in WORKLOADS.iter().map(common::small) {
        let r = run(&w, &common::options(w.name, false)).expect("set-up");
        assert_eq!(r.failed, 0, "{}", w.name);
        for (name, unit) in END_TO_END {
            let (value, got_unit) = r.metrics[name];
            assert_eq!(got_unit, unit);
            assert!(value > 0.0, "{}: {name} = {value}", w.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_command() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = obs::json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(workloads, names);
}
