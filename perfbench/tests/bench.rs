//! The benchmark's own checks: metric names, `BENCHMARK.json`, and the
//! stability of the correctness fingerprint.

use coma_bench::json::{self, Value};
use coma_perfbench::gate::{fingerprint, pinned};
use coma_perfbench::simulate;
use coma_perfbench::spec::{sweep_cells, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

fn benchmark_json_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn names(v: &Value, list: &str) -> Vec<String> {
    match v.get(list) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no '{list}' list"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_match_the_benchmark_file() {
    let reported: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for name in &reported {
        assert!(well_formed(name), "metric name {name:?}");
    }
    let unique: BTreeSet<_> = reported.iter().collect();
    assert_eq!(unique.len(), reported.len(), "metric names repeat");

    let doc = json::parse(&benchmark_json_text()).expect("BENCHMARK.json parses");
    let listed = |list| names(&doc, list);
    assert_eq!(listed("end_to_end"), END_TO_END.map(|m| m.0.to_string()));
    assert_eq!(listed("per_layer"), PER_LAYER.map(|m| m.0.to_string()));
    assert_eq!(
        listed("workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for name in listed("workloads") {
        assert!(well_formed(&name), "workload name {name:?}");
    }
}

#[test]
fn benchmark_json_round_trips() {
    let text = benchmark_json_text();
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let again = json::parse(&doc.to_json()).expect("serialized form parses");
    assert_eq!(doc, again);
    assert_eq!(doc.to_json(), again.to_json());
    let Value::Obj(members) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn fingerprint_is_stable_across_in_process_runs() {
    let cell = &sweep_cells()[0];
    let a = simulate(cell, DEFAULT_SEED).expect("smoke cell runs");
    let b = simulate(cell, DEFAULT_SEED).expect("smoke cell runs");
    assert_eq!(fingerprint(&a.report), fingerprint(&b.report));
    assert_eq!(Some(fingerprint(&a.report)), pinned(&cell.name));
}

#[test]
fn fingerprint_covers_the_checked_outputs() {
    let cell = &sweep_cells()[0];
    let base = simulate(cell, DEFAULT_SEED)
        .expect("smoke cell runs")
        .report;
    let edits: [fn(&mut coma_stats::SimReport); 5] = [
        |r| r.exec_time_ns += 1,
        |r| r.counts.writes[4] += 1,
        |r| r.traffic.replace_bytes += 1,
        |r| r.shared_drops += 1,
        |r| r.dram_busy_ns += 1,
    ];
    for edit in edits {
        let mut r = base.clone();
        edit(&mut r);
        assert_ne!(fingerprint(&r), fingerprint(&base));
    }
}

#[test]
fn every_cell_has_one_pinned_fingerprint() {
    let cells: Vec<String> = Workload::ALL
        .iter()
        .filter_map(|w| w.single())
        .chain(sweep_cells())
        .map(|c| c.name)
        .collect();
    let unique: BTreeSet<_> = cells.iter().collect();
    assert_eq!(unique.len(), cells.len(), "cell names repeat");
    for name in &cells {
        assert!(pinned(name).is_some(), "{name} has no pinned fingerprint");
    }
}
