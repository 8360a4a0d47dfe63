//! The `sweep` binary rejects bad flag values with a usage message and
//! exit code 2 before it reads a spec or touches a store.

use std::process::Command;

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
