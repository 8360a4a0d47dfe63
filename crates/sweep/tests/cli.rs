//! The `sweep` binary rejects bad flag values and bad specs with a
//! message and exit code 2, before it executes a cell or stores a record.

use std::path::PathBuf;
use std::process::Command;
use wi_sweep::store::ResultStore;

#[test]
fn run_rejects_zero_threads() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["run", "--spec", "never-read.json", "--threads", "0"])
        .output()
        .expect("the sweep binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads must be at least 1") && stderr.contains("usage:"),
        "{stderr}"
    );
}

/// Runs `sweep run` on a one-cell `ebn0_search` spec whose eval object
/// ends in `budget`, against a fresh store; returns the exit code, the
/// stderr and the records the store holds afterwards.
fn run_search_spec(name: &str, budget: &str) -> (Option<i32>, String, usize) {
    run_spec(
        name,
        "10",
        &format!(r#"{{"kind": "ebn0_search", {budget}}}"#),
    )
}

/// Runs `sweep run` on a one-cell spec at lifting factor `lifting` with
/// the eval object `eval`, against a fresh store; returns the exit code,
/// the stderr and the records the store holds afterwards.
fn run_spec(name: &str, lifting: &str, eval: &str) -> (Option<i32>, String, usize) {
    let dir = std::env::temp_dir().join(format!("wi_sweep_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("spec.json");
    std::fs::write(
        &spec,
        format!(
            r#"{{"name": "{name}", "base": "paper",
                "axes": [{{"field": "lifting", "values": ["{lifting}"]}},
                         {{"field": "window", "values": ["3"]}},
                         {{"field": "iterations", "values": ["8"]}}],
                "seeds": [1],
                "eval": {eval}}}"#
        ),
    )
    .unwrap();
    let store = dir.join("store");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .arg("--spec")
        .arg(&spec)
        .arg("--store")
        .arg(&store)
        .args(["--threads", "1"])
        .output()
        .expect("the sweep binary runs");
    let records = ResultStore::open(&store).unwrap().len();
    std::fs::remove_dir_all(&dir).unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        records,
    )
}

#[test]
fn run_rejects_an_empty_frame_budget_without_storing() {
    let (code, stderr, records) = run_search_spec(
        "zero_frames",
        r#""target_ber": 0.05, "max_frames": 0, "min_frames": 0"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("max_frames must be at least 1"), "{stderr}");
    assert_eq!(records, 0, "a rejected spec must store nothing");
}

#[test]
fn run_rejects_a_zero_target_ber_without_storing() {
    let (code, stderr, records) = run_search_spec(
        "zero_target",
        r#""target_ber": 0, "max_frames": 16, "min_frames": 4"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("target_ber 0 must be in (0, 1)"),
        "{stderr}"
    );
    assert_eq!(records, 0, "a rejected spec must store nothing");
}

#[test]
fn run_accepts_a_valid_search_budget() {
    let (code, stderr, records) = run_search_spec(
        "valid_budget",
        r#""target_ber": 0.05, "target_errors": 40, "max_frames": 16, "min_frames": 4"#,
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(records, 1);
}

#[test]
fn run_rejects_a_lifting_below_the_protograph_multiplicity_without_storing() {
    for lifting in ["0", "1"] {
        let (code, stderr, records) = run_spec(
            &format!("lifting_{lifting}"),
            lifting,
            r#"{"kind": "ebn0_search", "target_ber": 0.05, "max_frames": 16, "min_frames": 4}"#,
        );
        assert_eq!(code, Some(2), "{stderr}");
        assert!(
            stderr.contains(&format!("lifting factor {lifting} is below 2")),
            "{stderr}"
        );
        assert_eq!(records, 0, "a rejected spec must store nothing");
    }
}

#[test]
fn run_rejects_a_knee_eval_without_an_event_budget_without_storing() {
    let (code, stderr, records) = run_spec(
        "zero_events",
        "10",
        r#"{"kind": "noc_knee", "rates": [0.1, 0.3], "max_events": 0}"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("noc_knee max_events must be at least 1"),
        "{stderr}"
    );
    assert_eq!(records, 0, "a rejected spec must store nothing");
}

#[test]
fn run_rejects_knee_rates_that_do_not_ascend_without_storing() {
    let (code, stderr, records) = run_spec(
        "descending_rates",
        "10",
        r#"{"kind": "noc_knee", "rates": [0.9, 0.5, 0.1]}"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("noc_knee rates must ascend strictly, got 0.9 then 0.5"),
        "{stderr}"
    );
    assert_eq!(records, 0, "a rejected spec must store nothing");
}

#[test]
fn run_rejects_a_knee_eval_that_measures_no_packets_without_storing() {
    let (code, stderr, records) = run_spec(
        "zero_measured",
        "10",
        r#"{"kind": "noc_knee", "rates": [0.1], "measured_packets": 0}"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("noc_knee measured_packets must be at least 1"),
        "{stderr}"
    );
    assert_eq!(records, 0, "a rejected spec must store nothing");
}
