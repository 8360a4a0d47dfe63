//! Parallel Monte-Carlo BER: thread fan-out with bit-identical results.
//!
//! Runs the same BER estimate serially and with several worker-thread
//! counts, demonstrating the determinism contract of `wi_ldpc::ber`:
//! every frame derives its own RNG and Gaussian sampler from the master
//! seed, and the early-stopping rule folds over frames in order, so the
//! estimate is the same no matter how the frames were scheduled.
//!
//! Run with: `cargo run --release --example parallel_ber`

use std::time::Instant;
use wireless_interconnect::ldpc::ber::{simulate_ber_with_threads, BerSimOptions, BlockBerTarget};
use wireless_interconnect::ldpc::decoder::{BpConfig, CheckRule};
use wireless_interconnect::ldpc::LdpcCode;

fn main() {
    let code = LdpcCode::paper_block(100, 7); // the paper's n = 200 block code
    let config = BpConfig {
        check_rule: CheckRule::min_sum(),
        ..BpConfig::default()
    };
    let target = BlockBerTarget::new(&code, config, 0.5);
    let opts = BerSimOptions {
        target_errors: 200,
        max_frames: 400,
        min_frames: 50,
        seed: 0xF10,
    };
    let ebn0_db = 2.5;

    let t0 = Instant::now();
    let serial = simulate_ber_with_threads(&target, ebn0_db, &opts, 1);
    let t_serial = t0.elapsed();
    println!(
        "serial      : BER {:.3e}  ({} errors / {} frames)  in {:.1} ms",
        serial.ber,
        serial.bit_errors,
        serial.frames,
        t_serial.as_secs_f64() * 1e3
    );

    for threads in [2usize, 4, 8] {
        let t0 = Instant::now();
        let par = simulate_ber_with_threads(&target, ebn0_db, &opts, threads);
        let dt = t0.elapsed();
        let same = if par == serial {
            "bit-identical"
        } else {
            "MISMATCH!"
        };
        println!(
            "{threads:2} thread(s) : BER {:.3e}  ({} errors / {} frames)  in {:.1} ms  [{same}]",
            par.ber,
            par.bit_errors,
            par.frames,
            dt.as_secs_f64() * 1e3
        );
        assert_eq!(par, serial, "parallel run diverged from serial");
    }
    println!(
        "\n{} worker threads by default on this host; speedup tracks the",
        wireless_interconnect::num::par::threads()
    );
    println!("core count because frames are independent and workspaces are per-worker.");
}
