//! Ablation: star-mesh concentration factor (§IV) — the latency/throughput
//! trade of concentrating more modules on fewer routers, including the
//! radix cost the paper attributes to inter-router-link multiplication.

use wi_bench::{fmt, help_flag, print_table};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::metrics::topology_metrics;
use wi_noc::topology::Topology;

const USAGE: &str = "\
ablation_concentration — star-mesh concentration factor: latency,
saturation and router radix (§IV)

USAGE:
    ablation_concentration

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    // 64 modules arranged with increasing concentration.
    let configs: [(&str, Topology); 4] = [
        ("8x8 c=1", Topology::mesh2d(8, 8)),
        ("4x8 c=2", Topology::star_mesh(4, 8, 2)),
        ("4x4 c=4", Topology::star_mesh(4, 4, 4)),
        ("2x4 c=8", Topology::star_mesh(2, 4, 8)),
    ];
    let params = RouterParams::default();
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(name, topo)| {
            let model = AnalyticModel::new(topo, params);
            let metrics = topology_metrics(name, topo);
            vec![
                name.to_string(),
                fmt(model.zero_load_latency(), 2),
                fmt(model.saturation_rate(), 3),
                metrics.max_radix.to_string(),
                metrics.bisection_links.to_string(),
            ]
        })
        .collect();
    print_table(
        "ablation — concentration at 64 modules",
        &[
            "topology",
            "zero-load lat/cyc",
            "saturation",
            "max radix",
            "bisection",
        ],
        &rows,
    );
    println!("\nshape: concentration lowers zero-load latency but collapses saturation");
    println!("throughput and inflates router radix — §IV's argument for the 3D mesh.");

    // §IV's remedy and its cost: multiple inter-router links on the
    // star-mesh recover throughput but multiply the port count further.
    let star = Topology::star_mesh(4, 4, 4);
    let irl_rows: Vec<Vec<String>> = [1usize, 2, 4]
        .iter()
        .map(|&m| {
            let model = AnalyticModel::new(&star, params).with_irl_multiplicity(m);
            vec![
                m.to_string(),
                fmt(model.zero_load_latency(), 2),
                fmt(model.saturation_rate(), 3),
                (4 + 4 * m).to_string(),
            ]
        })
        .collect();
    print_table(
        "ablation — star-mesh 4x4 c=4 with multiple IRLs",
        &["IRLs", "zero-load lat/cyc", "saturation", "max radix"],
        &irl_rows,
    );
    println!("\nIRLs buy back star-mesh throughput at quadratically growing router area,");
    println!("and the scaling is manual — the 3D mesh gets its bandwidth structurally.");
}
