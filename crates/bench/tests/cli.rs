//! A misspelled flag, or a flag value that parses but is invalid, must
//! stop a figure binary before any work starts: exit 2 with the argument
//! named, never a run with the defaults or a panic mid-run.

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

#[test]
fn fig8b_rejects_a_routing_policy_that_parses_but_is_invalid() {
    let bin = env!("CARGO_BIN_EXE_fig8b_noc_512");
    rejects(bin, &["--routing", "valiant:0"], "valiant:0");
    rejects(bin, &["--routing", "rlb:5000"], "rlb:5000");
}

#[test]
fn fig8a_rejects_a_hotspot_outside_the_64_modules_or_fraction_range() {
    let bin = env!("CARGO_BIN_EXE_fig8a_noc_64");
    rejects(
        bin,
        &["--des", "--traffic", "hotspot:9999:0.2"],
        "hotspot:9999:0.2",
    );
    rejects(
        bin,
        &["--des", "--traffic", "hotspot:0:1.5"],
        "hotspot:0:1.5",
    );
}

#[test]
fn fig8_hybrid_rejects_a_hotspot_outside_its_modules() {
    // The default layout is 2 boards of 4×4×4: 128 modules.
    rejects(
        env!("CARGO_BIN_EXE_fig8_hybrid"),
        &["--des", "--traffic", "hotspot:999:0.1"],
        "hotspot:999:0.1",
    );
}
