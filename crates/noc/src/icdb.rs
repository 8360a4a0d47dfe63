//! Closed-form mesh descriptions for 10⁴–10⁶-router systems: expanded
//! grids, their link classes, and hybrid wired+wireless board layouts.
//!
//! `wi_noc::topology` materializes every router and link, and the
//! [`RouteTable`](crate::routing::RouteTable) CSR stores every (router
//! pair, choice) route — O(routers²·choices) memory, fine at the
//! paper's 512 modules and hopeless at the "board of boards" scale.
//! This module describes a mesh raster once, by its dimensions, and
//! answers every query from the coordinates alone. The model, and the
//! prjcombine interconnect database it descends from (SNIPPETS.md 1–3,
//! hence the module name), are specified in `docs/TOPOLOGY.md`:
//!
//! * [`ExpandedGrid`] — a grid as its family, dimensions and
//!   concentration: routers, link ids, link classes, counts and policy
//!   routes ([`ExpandedGrid::route_into`]) **in closed form**, no
//!   per-router storage. [`ExpandedGrid::to_topology`] materializes it
//!   through the crate's one raster link builder, which the regular
//!   [`Topology`](crate::topology::Topology) constructors, the hybrid
//!   boards and the pillar meshes ([`crate::irregular`]) share.
//! * [`LinkClass`] — a link's medium, axis, span and edge/center
//!   placement as a plain value: the per-link partition the fault layer
//!   (and an energy model) prices.
//! * [`HybridBoards`] — wired meshes per board plus wireless express
//!   links between boards, routed wired-then-radio-then-wired, consumed
//!   by the unchanged DES/analytic stack through
//!   [`Engine::with_table`](crate::des::Engine::with_table) and
//!   [`AnalyticModel::with_table`](crate::analytic::AnalyticModel::with_table).
//!
//! The compatibility contract — closed-form routes drive the DES
//! exactly like the tables the policy walker builds from the topology's
//! unit-step links — is pinned here at 3 seeds × 2 topologies × 4
//! routing kinds through the full DES engine, and link-for-link on
//! random meshes by the proptest in `tests/properties.rs`.

pub mod grid;
pub mod hybrid;

pub use grid::ExpandedGrid;
pub use hybrid::HybridBoards;

use serde::{Deserialize, Serialize};

/// Physical medium of a link class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Medium {
    /// An on-chip / on-interposer wire between grid neighbors.
    Wired,
    /// A wireless "long wire": a radio hop spanning several grid pitches
    /// (the paper's board-to-board express links).
    Wireless,
}

/// Placement class of a link — the "edge antenna vs center antenna"
/// distinction the fault/co-simulation layer keys per-link error rates
/// on ([`crate::des::fault::LinkErrorModel::EdgeCenter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Placement {
    /// At least one endpoint router sits on the grid boundary.
    Edge,
    /// Both endpoint routers are interior.
    Center,
}

/// Everything position-independent about a link. Classes order the way
/// a census lists them: wired before wireless, then by axis, span and
/// placement (edge before center).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkClass {
    /// Physical medium.
    pub medium: Medium,
    /// Grid axis the link runs along (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// Coordinate span in router pitches: `1` for neighbor wires, the
    /// board pitch for wireless express links (prjcombine's const-span
    /// LONG-wire taxonomy).
    pub span: usize,
    /// Edge-vs-center placement class.
    pub placement: Placement,
}

impl LinkClass {
    /// The neighbor wire along `axis`.
    pub(crate) fn wire(axis: usize, placement: Placement) -> Self {
        LinkClass {
            medium: Medium::Wired,
            axis,
            span: 1,
            placement,
        }
    }

    /// Systematic name, e.g. `WIRE_X_EDGE` or `RADIO_X_SPAN4_CENTER`.
    pub fn name(&self) -> String {
        let axis = ["X", "Y", "Z"][self.axis];
        let placement = match self.placement {
            Placement::Edge => "EDGE",
            Placement::Center => "CENTER",
        };
        match self.medium {
            Medium::Wired => format!("WIRE_{axis}_{placement}"),
            Medium::Wireless => format!("RADIO_{axis}_SPAN{}_{placement}", self.span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{simulate, DesConfig, Engine};
    use crate::routing::{RouteTable, RoutingKind};
    use crate::topology::Topology;
    use std::sync::Arc;

    /// The compatibility pinning: the closed-form path (grid routes →
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
                let table = Arc::new(RouteTable::from_routes(&topo, kind, |a, b, c, out| {
                    grid.route_into(kind, a, b, c, out)
                }));
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

    /// End-to-end memory model: a grid, which is all its routes need,
    /// is byte-for-byte the same size at 10⁶ routers as at 10³.
    #[test]
    fn full_icdb_stack_memory_is_grid_independent() {
        let sizes = [[10, 10, 10], [100, 100, 100]];
        let bytes: Vec<usize> = sizes
            .iter()
            .map(|&[x, y, z]| {
                let grid = ExpandedGrid::mesh3d(x, y, z);
                let (kind, last) = (RoutingKind::O1Turn, grid.num_routers() - 1);
                let mut route = Vec::new();
                grid.route_into(kind, 0, last, 5, &mut route);
                assert_eq!(route.len(), x + y + z - 3);
                grid.mem_bytes()
            })
            .collect();
        assert_eq!(bytes[0], bytes[1]);
    }
}
