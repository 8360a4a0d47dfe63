//! `BENCHMARK.json` declares exactly the workloads and metrics the
//! binary runs and prints.

use e2ebench::report::{per_layer, END_TO_END};
use e2ebench::workloads::WORKLOADS;
use wi_sweep::json::Json;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(v: &Json, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_printed_ones() {
    let v = declared();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&v, "end_to_end"), e2e);
    let layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_units(&v, "per_layer"), layer);
}

#[test]
fn declared_workloads_match_the_runnable_ones() {
    let v = declared();
    let names: Vec<String> = v
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}
