//! Fig. 9: the window decoder schematic, rendered as the block schedule —
//! which received blocks each decoding position reads, which block it
//! decides, and the resulting structural latency (Eq. 4).

use wi_bench::{fmt, help_flag, print_table};
use wi_ldpc::window::CoupledCode;

const USAGE: &str = "\
fig9_window_schedule — the window decoder's block schedule and structural
latency (Fig. 9)

USAGE:
    fig9_window_schedule

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let n = 25;
    let l = 12;
    let w = 4;
    let code = CoupledCode::paper_cc(n, l, 0);
    let mcc = code.memory();

    println!("window decoder schedule: W = {w}, mcc = {mcc}, L = {l}, N = {n}, nv = 2, R = 1/2");
    let rows: Vec<Vec<String>> = (0..l)
        .map(|t| {
            let newest = (t + w - 1).min(l - 1);
            let read_back = if t == 0 {
                "-".to_string()
            } else {
                format!("y[{}..={}]", t.saturating_sub(mcc), t - 1)
            };
            vec![
                t.to_string(),
                format!("y[{t}..={newest}]"),
                read_back,
                format!("u[{t}]"),
                fmt(code.window_latency_bits(w), 0),
            ]
        })
        .collect();
    print_table(
        "Fig. 9 — sliding-window schedule",
        &[
            "position t",
            "window blocks",
            "decided blocks read",
            "target",
            "latency/bits",
        ],
        &rows,
    );

    println!(
        "\nEq. 4: T_WD = W*N*nv*R = {w}*{n}*2*0.5 = {} information bits,",
        code.window_latency_bits(w)
    );
    println!(
        "independent of L (here L = {l}); full-BP latency would be L*N*nv*R = {} bits.",
        l as f64 * n as f64
    );
}
