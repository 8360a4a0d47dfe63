//! Fast tier-1 contracts: the bit-identical guarantees the workspace's
//! engines keep, each checked at a size that runs in seconds under the
//! debug profile.
//!
//! Thread invariance: every parallel path fans its work out through
//! `wi_num::par::ordered` and folds the results serially in item order,
//! so the Monte-Carlo BER estimate, a DES rate sweep and a sweep-service
//! run must come out identical at any worker count.

use wireless_interconnect::ldpc::ber::{simulate_ber_with_threads, BerSimOptions, BlockBerTarget};
use wireless_interconnect::ldpc::decoder::BpConfig;
use wireless_interconnect::ldpc::LdpcCode;
use wireless_interconnect::noc::des::{sweep_with_threads, DesConfig, SweepConfig};
use wireless_interconnect::noc::topology::Topology;
use wireless_interconnect::sweep::exec::{fold, run, RunOptions};
use wireless_interconnect::sweep::spec::{Axis, EvalSpec, SweepSpec};
use wireless_interconnect::sweep::store::ResultStore;

#[test]
fn ber_estimate_is_thread_invariant_with_a_mid_round_stop() {
    let code = LdpcCode::paper_block(20, 0xC0);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    let opts = BerSimOptions {
        target_errors: 30,
        max_frames: 200,
        min_frames: 4,
        seed: 0x5107,
    };
    let serial = simulate_ber_with_threads(&target, 1.5, &opts, 1);
    // The error budget runs out inside a batch, so both the serial driver
    // (one 8-frame batch per round) and the threaded one (48 frames per
    // round at 3 workers) must discard speculatively decoded frames.
    assert!(
        serial.frames < opts.max_frames && !serial.frames.is_multiple_of(8),
        "the stop must land mid-batch, got {} frames",
        serial.frames
    );
    assert_eq!(simulate_ber_with_threads(&target, 1.5, &opts, 3), serial);
}

#[test]
fn des_sweep_is_thread_invariant() {
    let topo = Topology::mesh2d(3, 3);
    let cfg = SweepConfig::new(
        vec![0.1, 0.4, 0.9],
        3,
        DesConfig {
            warmup_packets: 50,
            measured_packets: 400,
            max_events: 50_000,
            seed: 0xC0_47,
            ..DesConfig::default()
        },
    );
    let serial = sweep_with_threads(&topo, &cfg, 1);
    assert_eq!(sweep_with_threads(&topo, &cfg, 4), serial);
}

#[test]
fn sweep_run_stores_and_folds_identically_at_any_thread_count() {
    let spec = SweepSpec {
        name: "contracts".into(),
        base: "paper".into(),
        axes: vec![Axis {
            field: "traffic".into(),
            values: vec!["uniform".into(), "transpose".into()],
        }],
        seeds: vec![1, 2, 3],
        eval: EvalSpec::NocKnee {
            rates: vec![0.1, 0.4],
            warmup_packets: 20,
            measured_packets: 120,
            max_events: 60_000,
        },
    };
    let mut outputs = Vec::new();
    for threads in [1, 4] {
        let mut store = ResultStore::in_memory();
        let opts = RunOptions {
            threads,
            max_cells: None,
        };
        let summary = run(&spec, &mut store, &opts).unwrap();
        assert!(summary.complete && summary.executed == 6);
        let records: Vec<_> = store.iter().cloned().collect();
        outputs.push((fold(&spec, &store).unwrap(), records));
    }
    assert_eq!(outputs[0], outputs[1]);
}
