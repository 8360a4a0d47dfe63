//! Ablation: window-decoder message-passing schedule (ref \[19\]) — restart
//! per position versus retained messages, at equal window size.

use wi_bench::{fmt, help_flag, print_table};
use wi_ldpc::ber::{simulate_ber, BerSimOptions, CoupledBerTarget};
use wi_ldpc::window::{CoupledCode, WindowDecoder};

const USAGE: &str = "\
ablation_window_schedule — window-decoder schedule: restart per position
versus retained messages (ref [19])

USAGE:
    ablation_window_schedule

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let code = CoupledCode::paper_cc(25, 20, 0xAB1);
    let restart_target = CoupledBerTarget::new(&code, WindowDecoder::new(8, 50));
    let reuse_target = CoupledBerTarget::new(&code, WindowDecoder::with_reuse(8, 10));
    let opts = BerSimOptions {
        target_errors: 100,
        max_frames: 80,
        min_frames: 40,
        seed: 0xAB1,
    };
    let mut rows = Vec::new();
    for ebn0 in [2.5, 3.0, 3.5, 4.0] {
        let restart = simulate_ber(&restart_target, ebn0, &opts);
        let reuse = simulate_ber(&reuse_target, ebn0, &opts);
        rows.push(vec![
            fmt(ebn0, 1),
            format!("{:.2e}", restart.ber),
            format!("{:.2e}", reuse.ber),
        ]);
    }
    print_table(
        "ablation — window schedule, N=25 W=8 BER",
        &["Eb/N0 / dB", "restart (50 it)", "reuse (10 it/pos)"],
        &rows,
    );
    println!("\nfinding: on these short-cycle lifted graphs, restarting BP per window");
    println!("position outperforms retained messages, which entrench early errors.");
}
