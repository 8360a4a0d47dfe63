//! A misspelled flag must stop a figure binary before any work starts:
//! exit 2 with the argument named, never a run with the defaults.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
}

#[test]
fn fig8a_rejects_a_misspelled_routing_flag() {
    rejects(
        env!("CARGO_BIN_EXE_fig8a_noc_64"),
        &["--routng", "adaptive"],
        "--routng",
    );
}

#[test]
fn fig10_rejects_a_misspelled_quick_flag() {
    rejects(
        env!("CARGO_BIN_EXE_fig10_latency_ebn0"),
        &["--quik"],
        "--quik",
    );
}
