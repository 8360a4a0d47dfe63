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
    let axes = format!(
        r#"{{"field": "lifting", "values": ["{lifting}"]}},
           {{"field": "window", "values": ["3"]}},
           {{"field": "iterations", "values": ["8"]}}"#
    );
    run_axes(name, &axes, eval)
}

/// Runs `sweep run` on a one-seed spec with the axis objects `axes` and
/// the eval object `eval`, against a fresh store; returns the exit code,
/// the stderr and the records the store holds afterwards.
fn run_axes(name: &str, axes: &str, eval: &str) -> (Option<i32>, String, usize) {
    let dir = std::env::temp_dir().join(format!("wi_sweep_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("spec.json");
    std::fs::write(
        &spec,
        format!(
            r#"{{"name": "{name}", "base": "paper", "axes": [{axes}], "seeds": [1],
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

#[test]
fn run_rejects_every_axis_its_eval_does_not_read_without_storing() {
    // The seven axes no eval reads, and one axis of the other kind.
    let fields = [
        "batch",
        "boards",
        "board_spacing_m",
        "tx_power_dbm",
        "bandwidth_hz",
        "injection_rate",
        "vcs",
        "routing",
    ];
    let axes: Vec<String> = fields
        .iter()
        .map(|field| format!(r#"{{"field": "{field}", "values": ["1"]}}"#))
        .collect();
    let (code, stderr, records) = run_axes(
        "foreign_axes",
        &axes.join(", "),
        r#"{"kind": "ebn0_search", "target_ber": 0.05, "max_frames": 16, "min_frames": 4}"#,
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("(8 problems)"), "{stderr}");
    for field in fields {
        assert!(
            stderr.contains(&format!("axis {field}: not read by ebn0_search evals")),
            "{stderr}"
        );
    }
    assert_eq!(records, 0, "a rejected spec must store nothing");
}

/// Runs `sweep` with `args`; returns the exit code, the stderr and the
/// stdout.
fn sweep(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("the sweep binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_stray_word_or_a_repeated_flag_stops_every_subcommand_before_any_work() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ci_smoke.json");
    let dir = std::env::temp_dir().join(format!("wi_sweep_cli_args_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for (args, named) in [
        (&["run", "--spec", spec, "--quick", "stray"][..], "`stray`"),
        (
            &["run", "--spec", spec, "--store", a, "--store", b],
            "--store given twice",
        ),
        (
            &["status", "--spec", spec, "--store", a, "stray"],
            "`stray`",
        ),
        (
            &["query", "--store", a, "--kind", "x", "--kind", "y"],
            "--kind given twice",
        ),
        (&["diff", a, b, "stray"], "`stray`"),
        (
            &[
                "ingest", "--bench", "x.json", "--store", a, "--bench", "y.json",
            ],
            "--bench given twice",
        ),
    ] {
        let (code, stderr, stdout) = sweep(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} started work");
        assert!(!dir.exists(), "{args:?} opened a store");
    }
    // `--axis` is a list: each one narrows a query.
    let (code, stderr, _) = sweep(&["query", "--store", a, "--axis", "x=1", "--axis", "y=2"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("0 of 0 records matched"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
