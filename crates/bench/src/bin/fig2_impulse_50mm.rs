//! Fig. 2: impulse response at 50 mm antenna distance, free space versus
//! parallel copper boards (ahead link).
//!
//! Prints the significant peaks of both impulse responses and verifies the
//! paper's headline conclusion: every reflection sits ≥ 15 dB below the
//! line-of-sight path.

use wi_bench::{fmt, help_flag, print_table};
use wi_channel::measurement::impulse_comparison;
use wi_channel::vna::SyntheticVna;

const USAGE: &str = "\
fig2_impulse_50mm — impulse responses at 50 mm, free space versus
parallel copper boards (Fig. 2)

USAGE:
    fig2_impulse_50mm

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let vna = SyntheticVna::paper_default();
    let cmp = impulse_comparison(&vna, 0.05, 1.5e-9);

    for (name, ir) in [
        ("freespace", &cmp.free_space),
        ("parallel copper boards", &cmp.copper_boards),
    ] {
        let (t0, p0) = ir.peak();
        let peaks = ir.peaks(p0 - 45.0);
        let rows: Vec<Vec<String>> = peaks
            .iter()
            .map(|&(t, p)| vec![fmt(t * 1e9, 3), fmt(p, 1), fmt(p - p0, 1)])
            .collect();
        print_table(
            &format!("Fig. 2 peaks — {name} (LOS at {:.3} ns)", t0 * 1e9),
            &["tau/ns", "level/dB", "rel. LOS/dB"],
            &rows,
        );
        let echo = ir
            .strongest_echo_rel_db(80e-12)
            .unwrap_or(f64::NEG_INFINITY);
        println!(
            "strongest echo: {echo:.1} dB below LOS (paper: always at least 15 dB below) {}",
            if echo <= -15.0 { "[ok]" } else { "[VIOLATION]" }
        );
    }
}
