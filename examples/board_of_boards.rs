//! Board-of-boards: the paper's §I vision ("4–5 boards per litre...
//! wireless links instead of a backplane") built hierarchically from the
//! closed-form mesh description.
//!
//! Three escalating views of the same model:
//!
//! 1. the paper-default box ([`SystemConfig::paper_default`]) as a
//!    hybrid wired+wireless interconnect — per-link-class census and
//!    analytic zero-load latency over the materialized route table,
//! 2. an express-route walk showing a wireless "long wire" beating the
//!    wired Manhattan distance across boards,
//! 3. a million-router expanded grid — described by its dimensions in a
//!    few words, with closed-form corner-to-corner routes.
//!
//! Run with: `cargo run --release --example board_of_boards`

use wireless_interconnect::noc::analytic::{AnalyticModel, RouterParams};
use wireless_interconnect::noc::icdb::ExpandedGrid;
use wireless_interconnect::noc::routing::RoutingKind;
use wireless_interconnect::system::config::SystemConfig;

fn main() {
    // 1. The paper-default box as a hybrid interconnect: each board's
    //    stack grid is tiled into one wired mesh, boards chained along x
    //    by wireless express links with one radio site per stack row.
    let cfg = SystemConfig::paper_default();
    let hybrid = cfg.hybrid_boards();
    let [nx, ny, nz] = hybrid.board_dims();
    println!(
        "paper-default box: {} boards of {nx}x{ny}x{nz} routers ({} cores), {} radio sites/gap",
        hybrid.boards(),
        cfg.total_cores(),
        hybrid.radios().len(),
    );
    println!("\nper-class link census:");
    for (c, count) in hybrid.link_census() {
        println!(
            "  {:24} span {:2}  {:?}/{:?}  x{count}",
            c.name(),
            c.span,
            c.medium,
            c.placement
        );
    }

    let table = hybrid.route_table();
    let model = AnalyticModel::with_table(hybrid.topology(), RouterParams::default(), table);
    println!(
        "\nanalytic zero-load latency over the hybrid routes: {:.1} cycles",
        model.zero_load_latency()
    );

    // 2. One express route: far corner to far corner. The wired Manhattan
    //    distance spans every board; the wireless long wires collapse each
    //    board gap into a single hop.
    let topo = hybrid.topology();
    let src = topo.router_at([0, 0, 0]);
    let dst = topo.router_at([hybrid.boards() * nx - 1, ny - 1, nz - 1]);
    let mut route = Vec::new();
    hybrid.route_into(src, dst, &mut route);
    let manhattan = (hybrid.boards() * nx - 1) + (ny - 1) + (nz - 1);
    println!(
        "corner-to-corner: {} hops via {} express links (wired Manhattan {manhattan})",
        route.len(),
        hybrid.boards() - 1,
    );

    // 3. Scale: a million-router grid described by its dimensions.
    //    Nothing per-router is stored; routes come from closed-form link
    //    ids.
    let grid = ExpandedGrid::mesh3d(100, 100, 100);
    let mut out = Vec::new();
    let kind = RoutingKind::DimensionOrder;
    grid.route_into(kind, 0, grid.num_routers() - 1, 0, &mut out);
    println!(
        "\n100x100x100 expanded grid: {} routers, {} links, {} bytes resident",
        grid.num_routers(),
        grid.num_links(),
        grid.mem_bytes(),
    );
    println!(
        "corner-to-corner route: {} closed-form link ids, no table built",
        out.len()
    );
}
