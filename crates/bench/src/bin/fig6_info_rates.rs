//! Fig. 6: information rates of 4-ASK with 5× oversampling and 1-bit
//! quantization — all six curves of the paper.
//!
//! Default uses 30k Monte-Carlo symbols for the two sequence-estimation
//! curves; `--full` uses 200k.

use wi_bench::{fmt, has_flag, help_flag, print_table};
use wi_quantrx::info_rate::{
    no_oversampling_rate, sequence_information_rate, snr_db_to_sigma, symbolwise_information_rate,
    unquantized_ask_capacity, SequenceRateOptions,
};
use wi_quantrx::modulation::AskModulation;
use wi_quantrx::presets;
use wi_quantrx::trellis::ChannelTrellis;

const USAGE: &str = "\
fig6_info_rates — information rates of 4-ASK with 5x oversampling and
1-bit quantization (Fig. 6)

USAGE:
    fig6_info_rates [FLAGS]

FLAGS:
    --full               200k Monte-Carlo symbols for the two
                         sequence-estimation curves (default 30k)
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let modu = AskModulation::four_ask();
    let seq_trellis = ChannelTrellis::new(&modu, &presets::sequence_filter());
    let sym_trellis = ChannelTrellis::new(&modu, &presets::symbolwise_filter());
    let sub_trellis = ChannelTrellis::new(&modu, &presets::suboptimal_filter());
    let rect_trellis = ChannelTrellis::new(&modu, &presets::rect_filter());

    let mc = SequenceRateOptions {
        num_symbols: if has_flag("--full") { 200_000 } else { 30_000 },
        seed: 0xF16,
    };

    let snrs: Vec<f64> = (-1..=8).map(|k| k as f64 * 5.0 - 5.0).collect();
    let rows: Vec<Vec<String>> = snrs
        .iter()
        .map(|&snr| {
            let sigma = snr_db_to_sigma(snr);
            vec![
                fmt(snr, 0),
                fmt(sequence_information_rate(&seq_trellis, sigma, mc), 3),
                fmt(symbolwise_information_rate(&sym_trellis, sigma), 3),
                fmt(symbolwise_information_rate(&rect_trellis, sigma), 3),
                fmt(no_oversampling_rate(&modu, sigma), 3),
                fmt(unquantized_ask_capacity(&modu, sigma), 3),
                fmt(sequence_information_rate(&sub_trellis, sigma, mc), 3),
            ]
        })
        .collect();
    print_table(
        "Fig. 6 — I(X;Y) / bpcu, 4-ASK, 5x oversampling, 1-bit",
        &[
            "SNR/dB",
            "MaxIR 1Bit-OS",
            "MaxIR symbolwise",
            "Rect 1Bit-OS",
            "1Bit No-OS",
            "No Quantization",
            "Suboptimal 1Bit-OS",
        ],
        &rows,
    );
    println!("\npaper shape: sequence > symbolwise > rect at high SNR; designed ISI");
    println!("recovers ~2 bpcu while rect saturates at 1 bpcu; suboptimal close to optimal.");
}
