//! Ablation: partial TSV pillars in a 3D mesh (§IV future work) — "the
//! large area of TSVs will probably not allow to equip every router with a
//! vertical link". The analytic model prices each pillar mesh's detoured
//! routes from its route table, as `fig8_hybrid` does for hybrid boards.

use wi_bench::{fmt, help_flag, print_table};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::irregular::PillarMesh3d;

const USAGE: &str = "\
ablation_vertical_links — partial TSV pillars in a 3D mesh, priced by the
analytic model (§IV)

USAGE:
    ablation_vertical_links

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let params = RouterParams::default();
    let rows: Vec<Vec<String>> = [1usize, 2, 4]
        .iter()
        .map(|&pitch| {
            let mesh = PillarMesh3d::new(4, 4, 4, pitch);
            let model = AnalyticModel::with_table(mesh.topology(), params, mesh.route_table());
            vec![
                pitch.to_string(),
                mesh.pillar_count().to_string(),
                fmt(model.zero_load_latency(), 2),
            ]
        })
        .collect();
    print_table(
        "ablation — TSV pillar pitch in a 4x4x4 mesh",
        &["pitch", "TSV pillars", "zero-load latency/cyc"],
        &rows,
    );
    println!("\nshape: thinning the vertical links (16 -> 4 -> 1 pillars) buys TSV area");
    println!("at a growing latency cost, motivating the heterogeneous-link future work.");
}
