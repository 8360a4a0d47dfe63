//! Fig. 7: the four topology types, as a structural-metrics table
//! (the quantitative counterpart of the paper's drawing).

use wi_bench::{fmt, help_flag, print_table};
use wi_noc::metrics::fig7_topologies;

const USAGE: &str = "\
fig7_topologies — structural metrics of the four topology types (Fig. 7)

USAGE:
    fig7_topologies

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let rows: Vec<Vec<String>> = fig7_topologies()
        .iter()
        .map(|(m, _)| {
            vec![
                m.name.clone(),
                m.routers.to_string(),
                m.modules.to_string(),
                m.concentration.to_string(),
                m.bidirectional_links.to_string(),
                m.max_radix.to_string(),
                m.diameter.to_string(),
                fmt(m.mean_hops, 2),
                m.bisection_links.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 7 — topology structural metrics (64 modules each)",
        &[
            "topology",
            "routers",
            "modules",
            "conc.",
            "links",
            "radix",
            "diam.",
            "avg hops",
            "bisection",
        ],
        &rows,
    );
}
