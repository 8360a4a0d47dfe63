//! The interconnect database: deduplicated tile/link classes, expanded
//! grids, and route-class programs for 10⁴–10⁶-router systems.
//!
//! `wi_noc::topology` materializes every router and link, and the
//! [`RouteTable`](crate::routing::RouteTable) CSR stores every (router
//! pair, choice) route — O(routers²·choices) memory, fine at the
//! paper's 512 modules and hopeless at the "board of boards" scale.
//! This module adopts the prjcombine FPGA-database model (SNIPPETS.md
//! 1–3; the model spec for this repo is `docs/TOPOLOGY.md`): describe
//! the *family* once, instantiate by *coordinate*:
//!
//! * [`InterconnectDb`] — the deduplicated database: 64 mesh tile
//!   classes (router kinds by per-axis port presence) and the link
//!   classes (wired neighbor wires split edge/center for the fault
//!   layer, wireless express "long wires" for hybrid boards). A few
//!   KiB, independent of any grid's dimensions.
//! * [`ExpandedGrid`] — a grid as `(database, dims)`: routers, tile
//!   classes and **link ids in closed form**, no per-router storage.
//!   [`ExpandedGrid::to_topology`] is the one mesh link builder: the
//!   regular [`Topology`](crate::topology::Topology) constructors
//!   materialize through it for the DES engines.
//! * [`ClassRouter`] — per-tile-class route programs for every
//!   [`RoutingKind`](crate::routing::RoutingKind), replacing the CSR
//!   on the scalable path; [`ClassRouter::to_route_table`] rebuilds the
//!   table bit for bit where consumers still want it.
//! * [`HybridBoards`] — wired meshes per board plus wireless express
//!   links between boards, routed wired-then-radio-then-wired, consumed
//!   by the unchanged DES/analytic stack through
//!   [`Engine::with_table`](crate::des::Engine::with_table) and
//!   [`AnalyticModel::with_table`](crate::analytic::AnalyticModel::with_table).
//!
//! The compatibility contract — closed-form route programs drive the
//! DES exactly like the tables the policy walker builds from the
//! topology's unit-step links — is pinned here at 3 seeds × 2
//! topologies × 4 routing kinds through the full DES engine, and
//! link-for-link on random meshes by the proptest in
//! `tests/properties.rs`.

pub mod db;
pub mod grid;
pub mod hybrid;
pub mod routes;

pub use db::{
    AxisPorts, InterconnectDb, LinkClass, LinkClassId, Medium, Placement, TileClass, TileClassId,
};
pub use grid::ExpandedGrid;
pub use hybrid::HybridBoards;
pub use routes::ClassRouter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{simulate, DesConfig, Engine};
    use crate::routing::RoutingKind;
    use crate::topology::Topology;
    use std::sync::Arc;

    /// The compatibility pinning: the closed-form path (class router →
    /// table) must drive the DES engine to **bit-identical** results vs
    /// the tables `simulate` builds from the topology's unit-step links,
    /// across 3 seeds × 2 topologies × 4 routing kinds — the same axes
    /// `des::engine_matches_reference_under_all_routing_policies` pins
    /// engine-vs-oracle.
    #[test]
    fn expanded_grid_des_is_bit_identical_to_legacy_path() {
        let kinds = [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::valiant(),
            RoutingKind::Valiant { choices: 3 },
        ];
        let cases: [(ExpandedGrid, Topology); 2] = [
            (ExpandedGrid::mesh2d(4, 4), Topology::mesh2d(4, 4)),
            (ExpandedGrid::mesh3d(3, 3, 3), Topology::mesh3d(3, 3, 3)),
        ];
        for (grid, legacy) in cases {
            for kind in kinds {
                let topo = grid.to_topology();
                let table = Arc::new(ClassRouter::new(grid.clone(), kind).to_route_table());
                for seed in [1u64, 42, 0xDE5] {
                    let cfg = DesConfig {
                        injection_rate: 0.2,
                        routing: kind,
                        seed,
                        warmup_packets: 100,
                        measured_packets: 1_000,
                        ..DesConfig::default()
                    };
                    let got = Engine::with_table(&topo, Arc::clone(&table)).run(&cfg);
                    let want = simulate(&legacy, &cfg);
                    assert_eq!(
                        got,
                        want,
                        "icdb path diverged: {} seed {seed} on {:?}",
                        kind.name(),
                        grid.dims()
                    );
                }
            }
        }
    }

    /// End-to-end memory model: database + grid + route programs for a
    /// 10⁶-router system fit in a few KiB and are byte-for-byte the
    /// same size as for a 10³-router system.
    #[test]
    fn full_icdb_stack_memory_is_grid_independent() {
        let sizes = [[10, 10, 10], [100, 100, 100]];
        let bytes: Vec<usize> = sizes
            .iter()
            .map(|&[x, y, z]| {
                let grid = ExpandedGrid::mesh3d(x, y, z);
                let router = ClassRouter::new(grid, RoutingKind::O1Turn);
                router.mem_bytes()
            })
            .collect();
        assert_eq!(bytes[0], bytes[1]);
    }
}
