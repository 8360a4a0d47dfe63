//! A misspelled, repeated or value-less flag, a stray word, or a flag
//! value that parses but is invalid must stop a figure binary before any
//! work starts: exit 2 with the argument named, never a run with the
//! defaults or a panic mid-run.
//!
//! The exhibits whose default run takes milliseconds are pinned byte for
//! byte: a change that moves one digit of their tables fails here. The
//! `fig10_latency_ebn0 --quick` tables are pinned too, under each check
//! rule, and so are the four DES smoke runs CI makes (the fault and ARQ
//! path, the adaptive VC clocks, Valiant route programs and the hybrid
//! table engine), in ignored tests that take seconds in release:
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

/// Runs `bin` with `args` at two workers and checks its stdout bytes as
/// [`prints_pinned`] does, unmasked: the DES tables print no wall clock.
fn des_prints_pinned(bin: &str, args: &[&str], len: usize, want: u64) {
    let mut cmd = Command::new(bin);
    cmd.args(args).env("WI_TEST_THREADS", "2");
    prints_pinned(&mut cmd, str::to_owned, len, want);
}

#[test]
#[ignore = "DES smoke runs, under a second in release: cargo test --release -p wi-bench -- --ignored"]
fn fig_cosim_fault_smoke_prints_its_pinned_table() {
    // Per-hop corruption and ARQ retries on the 4×4×4 mesh.
    let args = [
        "--quick",
        "--error",
        "0.05",
        "--reps",
        "2",
        "--rates",
        "0.05,0.15,0.25",
    ];
    des_prints_pinned(
        env!("CARGO_BIN_EXE_fig_cosim"),
        &args,
        449,
        0x7078_272a_5ffe_66b6,
    );
}

#[test]
#[ignore = "DES smoke runs, under a second in release: cargo test --release -p wi-bench -- --ignored"]
fn fig8a_hotspot_smokes_print_their_pinned_tables() {
    // Adaptive runs read the per-(link, VC) clocks; valiant runs step
    // two-leg route programs.
    let bin = env!("CARGO_BIN_EXE_fig8a_noc_64");
    for (routing, len, want) in [
        ("adaptive", 865, 0xb961_290c_7702_b6c5),
        ("valiant", 869, 0x7a3a_3038_55df_2108),
    ] {
        let args = [
            "--routing",
            routing,
            "--traffic",
            "hotspot",
            "--reps",
            "2",
            "--rates",
            "0.05,0.15,0.25",
        ];
        des_prints_pinned(bin, &args, len, want);
    }
}

#[test]
#[ignore = "DES smoke runs, under a second in release: cargo test --release -p wi-bench -- --ignored"]
fn fig8_hybrid_des_smoke_prints_its_pinned_table() {
    // Hybrid boards run the table engine.
    let args = [
        "--des",
        "--boards",
        "2",
        "--dims",
        "4,4,2",
        "--reps",
        "2",
        "--rates",
        "0.01,0.03,0.05",
    ];
    des_prints_pinned(
        env!("CARGO_BIN_EXE_fig8_hybrid"),
        &args,
        1065,
        0x5cc6_73c4_d33b_58a5,
    );
}

fn rejects(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
}

#[test]
fn every_bin_answers_help_and_rejects_a_misspelled_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_fig1_pathloss"),
        env!("CARGO_BIN_EXE_fig2_impulse_50mm"),
        env!("CARGO_BIN_EXE_fig3_impulse_150mm"),
        env!("CARGO_BIN_EXE_fig4_tx_power"),
        env!("CARGO_BIN_EXE_fig5_isi_filters"),
        env!("CARGO_BIN_EXE_fig6_info_rates"),
        env!("CARGO_BIN_EXE_fig7_topologies"),
        env!("CARGO_BIN_EXE_fig8a_noc_64"),
        env!("CARGO_BIN_EXE_fig8b_noc_512"),
        env!("CARGO_BIN_EXE_fig8_hybrid"),
        env!("CARGO_BIN_EXE_fig9_window_schedule"),
        env!("CARGO_BIN_EXE_fig10_latency_ebn0"),
        env!("CARGO_BIN_EXE_fig_cosim"),
        env!("CARGO_BIN_EXE_table1_link_budget"),
        env!("CARGO_BIN_EXE_ablation_concentration"),
        env!("CARGO_BIN_EXE_ablation_oversampling"),
        env!("CARGO_BIN_EXE_ablation_vertical_links"),
        env!("CARGO_BIN_EXE_ablation_window_schedule"),
    ] {
        rejects(bin, &["--quik"], "--quik");
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert!(out.status.success(), "{bin} --help: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE:"), "{bin} --help: {stdout}");
    }
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
