//! Fig. 4: required transmit power versus target SNR at the receiver, for
//! the three link cases of §II.B.

use wi_bench::{fmt, help_flag, print_table};
use wi_linkbudget::budget::LinkBudget;

const USAGE: &str = "\
fig4_tx_power — required transmit power versus target SNR for the
three link cases of §II.B (Fig. 4)

USAGE:
    fig4_tx_power

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let shortest = LinkBudget::paper_shortest_link();
    let longest = LinkBudget::paper_longest_link();
    let butler = LinkBudget::paper_longest_link_butler();

    let snrs: Vec<f64> = (0..=35).step_by(5).map(|s| s as f64).collect();
    let rows: Vec<Vec<String>> = snrs
        .iter()
        .map(|&snr| {
            vec![
                fmt(snr, 0),
                fmt(shortest.required_tx_power_dbm(snr), 2),
                fmt(longest.required_tx_power_dbm(snr), 2),
                fmt(butler.required_tx_power_dbm(snr), 2),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — required P_TX / dBm",
        &[
            "SNR/dB",
            "shortest 100mm",
            "longest 300mm",
            "longest +Butler",
        ],
        &rows,
    );
    println!(
        "\nnoise floor (kTB + NF): {:.1} dBm in 25 GHz at 323 K",
        shortest.noise_floor_dbm()
    );
    println!(
        "curve offsets: +{:.1} dB pathloss delta, +{:.1} dB Butler mismatch",
        longest.pathloss_db - shortest.pathloss_db,
        butler.beamforming.loss_db()
    );
}
