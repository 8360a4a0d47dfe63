//! Fig. 3: impulse response at 150 mm antenna distance (diagonal link),
//! free space versus parallel copper boards.
//!
//! The diagonal geometry brings the board-reflection images into view in
//! addition to the equipment echoes of Fig. 2.

use wi_bench::{fmt, help_flag, print_table};
use wi_channel::measurement::impulse_comparison;
use wi_channel::vna::SyntheticVna;

const USAGE: &str = "\
fig3_impulse_150mm — impulse responses at 150 mm (diagonal link),
free space versus parallel copper boards (Fig. 3)

USAGE:
    fig3_impulse_150mm

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let vna = SyntheticVna::paper_default();
    let cmp = impulse_comparison(&vna, 0.150, 2.0e-9);

    for (name, ir) in [
        ("freespace", &cmp.free_space),
        ("parallel copper boards (diagonal)", &cmp.copper_boards),
    ] {
        let (t0, p0) = ir.peak();
        let peaks = ir.peaks(p0 - 45.0);
        let rows: Vec<Vec<String>> = peaks
            .iter()
            .map(|&(t, p)| vec![fmt(t * 1e9, 3), fmt(p, 1), fmt(p - p0, 1)])
            .collect();
        print_table(
            &format!("Fig. 3 peaks — {name} (LOS at {:.3} ns)", t0 * 1e9),
            &["tau/ns", "level/dB", "rel. LOS/dB"],
            &rows,
        );
        let echo = ir
            .strongest_echo_rel_db(80e-12)
            .unwrap_or(f64::NEG_INFINITY);
        println!(
            "strongest echo: {echo:.1} dB below LOS {}",
            if echo <= -15.0 { "[ok]" } else { "[VIOLATION]" }
        );
    }
    // The board trace must show more multipath content than free space.
    let fp = cmp.free_space.peaks(cmp.free_space.peak().1 - 40.0).len();
    let bp = cmp
        .copper_boards
        .peaks(cmp.copper_boards.peak().1 - 40.0)
        .len();
    println!("\npeak count within 40 dB: freespace {fp}, boards {bp}");
}
