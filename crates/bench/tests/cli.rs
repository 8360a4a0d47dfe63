//! A misspelled, repeated or value-less flag, a stray word, or a flag
//! value that parses but is invalid must stop a figure binary before any
//! work starts: exit 2 with the argument named, never a run with the
//! defaults or a panic mid-run.
//!
//! The exhibits whose default run takes milliseconds are pinned byte for
//! byte: a change that moves one digit of their tables fails here. The
//! `fig10_latency_ebn0 --quick` tables are pinned too, under each check
//! rule, in an ignored test that takes seconds in release:
//! `cargo test --release -p wi-bench -- --ignored`.

use std::process::Command;

/// Runs `cmd` and checks that it succeeds and that its stdout, passed
/// through `mask`, has FNV-1a-64 digest `want` and `len` bytes.
fn prints_pinned(cmd: &mut Command, mask: fn(&str) -> String, len: usize, want: u64) {
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{cmd:?}: {out:?}");
    let stdout = mask(&String::from_utf8_lossy(&out.stdout));
    let digest = stdout.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (stdout.len(), digest),
        (len, want),
        "{cmd:?} printed (digest {digest:#018x}):\n{stdout}"
    );
}

/// Runs `bin` with no arguments and checks its stdout bytes as
/// [`prints_pinned`] does, unmasked.
fn prints_pinned_bytes(bin: &str, len: usize, want: u64) {
    prints_pinned(&mut Command::new(bin), str::to_owned, len, want);
}

#[test]
fn ablation_vertical_links_prints_its_pinned_table() {
    let bin = env!("CARGO_BIN_EXE_ablation_vertical_links");
    prints_pinned_bytes(bin, 418, 0x8648_7430_38ca_6c95);
}

#[test]
fn ablation_concentration_prints_its_pinned_tables() {
    let bin = env!("CARGO_BIN_EXE_ablation_concentration");
    prints_pinned_bytes(bin, 1025, 0x6e4a_0007_93c9_3fbf);
}

#[test]
fn fig7_topologies_prints_its_pinned_table() {
    let bin = env!("CARGO_BIN_EXE_fig7_topologies");
    prints_pinned_bytes(bin, 650, 0xee68_b487_e127_9b14);
}

/// `stdout` with the wall-clock seconds that end its `search phase:`
/// line replaced by `#`.
fn mask_search_seconds(stdout: &str) -> String {
    stdout
        .lines()
        .map(|line| match line.rsplit_once(" | ") {
            Some((head, _)) if line.starts_with("search phase:") => format!("{head} | # s\n"),
            _ => format!("{line}\n"),
        })
        .collect()
}

#[test]
#[ignore = "three fig10 --quick searches, seconds in release: cargo test --release -p wi-bench -- --ignored"]
fn fig10_quick_prints_its_pinned_tables_under_each_rule() {
    // Two workers, so the header's thread count is fixed; the tables,
    // probe and frame counts do not depend on it.
    let bin = env!("CARGO_BIN_EXE_fig10_latency_ebn0");
    for (rule, len, want) in [
        (None, 765, 0xbf70_9e94_0585_67cd),
        (Some("--sum-product-table"), 785, 0x1db5_452e_b7d0_4f0b),
        (Some("--minsum"), 780, 0x53a8_157a_5879_b422),
    ] {
        let mut cmd = Command::new(bin);
        cmd.arg("--quick").args(rule).env("WI_TEST_THREADS", "2");
        prints_pinned(&mut cmd, mask_search_seconds, len, want);
    }
}

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
fn fig8a_rejects_a_rate_grid_that_does_not_ascend() {
    let bin = env!("CARGO_BIN_EXE_fig8a_noc_64");
    rejects(bin, &["--rates", "0.3,0.1"], "0.3,0.1");
    rejects(bin, &["--des", "--rates", "0.1,0.1"], "0.1,0.1");
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

#[test]
fn fig10_and_fig_cosim_reject_the_removed_batch_flag() {
    // Every batch width gave bit-identical output, so the flag is gone.
    rejects(
        env!("CARGO_BIN_EXE_fig10_latency_ebn0"),
        &["--quick", "--batch", "8"],
        "--batch",
    );
    rejects(
        env!("CARGO_BIN_EXE_fig_cosim"),
        &["--quick", "--batch", "8"],
        "--batch",
    );
}

#[test]
fn a_value_flag_without_its_value_is_rejected() {
    let bin = env!("CARGO_BIN_EXE_fig8a_noc_64");
    rejects(bin, &["--routing"], "--routing");
    rejects(bin, &["--des", "--traffic"], "--traffic");
    rejects(bin, &["--rates", "--des"], "--rates");
    rejects(
        env!("CARGO_BIN_EXE_fig10_latency_ebn0"),
        &["--quick", "--search"],
        "--search",
    );
    rejects(env!("CARGO_BIN_EXE_fig8_hybrid"), &["--dims"], "--dims");
}

#[test]
fn a_stray_word_or_a_repeated_flag_is_rejected() {
    let bin = env!("CARGO_BIN_EXE_fig8a_noc_64");
    rejects(bin, &["adaptive"], "adaptive");
    rejects(bin, &["--des", "0.3"], "0.3");
    rejects(
        bin,
        &["--routing", "adaptive", "--routing", "dor"],
        "--routing",
    );
    rejects(
        env!("CARGO_BIN_EXE_fig10_latency_ebn0"),
        &["--quick", "--quick"],
        "--quick",
    );
}
