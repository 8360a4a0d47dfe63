//! Fig. 5: impulse responses of the four ISI filter designs.
//!
//! Default: prints the shipped pre-optimized filters. With `--optimize`,
//! re-runs the three designers from scratch (tens of seconds) and prints
//! fresh taps alongside their objective values.

use wi_bench::{fmt, has_flag, help_flag, print_table};
use wi_quantrx::design::{
    design_suboptimal, optimize_sequence, optimize_symbolwise, DesignOptions,
};
use wi_quantrx::filter::IsiFilter;
use wi_quantrx::modulation::AskModulation;
use wi_quantrx::presets;

const USAGE: &str = "\
fig5_isi_filters — impulse responses of the four ISI filter designs (Fig. 5)

USAGE:
    fig5_isi_filters [FLAGS]

FLAGS:
    --optimize           re-run the three filter designers from scratch
                         (tens of seconds) instead of printing the shipped
                         pre-optimized taps
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let (sym, seq, sub): (IsiFilter, IsiFilter, IsiFilter) = if has_flag("--optimize") {
        let modu = AskModulation::four_ask();
        let opts = DesignOptions::default();
        let a = optimize_symbolwise(&modu, &opts);
        println!(
            "symbolwise design: {:.4} bpcu at 25 dB ({} evals)",
            a.objective, a.evals
        );
        let b = optimize_sequence(&modu, &opts);
        println!(
            "sequence design:   {:.4} bpcu at 25 dB ({} evals)",
            b.objective, b.evals
        );
        let c = design_suboptimal(&modu, &opts);
        println!(
            "suboptimal design: margin {:.4} ({} evals)",
            c.objective, c.evals
        );
        (a.filter, b.filter, c.filter)
    } else {
        (
            presets::symbolwise_filter(),
            presets::sequence_filter(),
            presets::suboptimal_filter(),
        )
    };
    let rect = presets::rect_filter();

    let filters = [
        ("(a) rectangular pulse - no ISI", &rect),
        (
            "(b) optimal ISI for symbol-by-symbol detection (SNR 25 dB)",
            &sym,
        ),
        ("(c) optimal ISI for sequence detection (SNR 25 dB)", &seq),
        (
            "(d) suboptimal ISI design (noise-free unique detection)",
            &sub,
        ),
    ];
    for (name, f) in filters {
        let rows: Vec<Vec<String>> = f
            .impulse_response()
            .iter()
            .map(|&(tau, h)| vec![fmt(tau, 1), fmt(h, 4)])
            .collect();
        print_table(&format!("Fig. 5{name}"), &["tau/T", "h"], &rows);
    }
}
