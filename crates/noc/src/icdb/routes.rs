//! Route-class programs: policy routes computed from tile classes and
//! coordinates instead of a per-router-pair table.
//!
//! The legacy [`RouteTable`] stores every (router pair, choice) route —
//! O(routers² · choices) memory, which dies around 10³ routers. A
//! [`ClassRouter`] stores nothing: it re-derives any route on demand
//! through the crate's one policy walker, taking each hop's link id from
//! the expanded grid's closed-form arithmetic ([`ExpandedGrid::link_id`],
//! i.e. the tile class's slot table plus prefix counts) where
//! [`RouteTable::with_policy`] reads the topology's unit-step table.
//! Same walker, two independent link lookups: the routes are
//! link-for-link identical (pinned by tests here and the proptest in
//! `tests/properties.rs`), and [`ClassRouter::to_route_table`] produces
//! a table bit-identical to [`RouteTable::with_policy`] for consumers
//! that still want the CSR.

use super::grid::ExpandedGrid;
use crate::routing::{walk_route, RouteTable, RoutingKind, Step};

/// Per-tile-class route programs for one policy over one expanded grid.
/// O(1) memory regardless of grid size; cheap to clone.
#[derive(Clone, Debug)]
pub struct ClassRouter {
    grid: ExpandedGrid,
    kind: RoutingKind,
}

impl ClassRouter {
    /// Wraps a grid with a routing policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid ([`RoutingKind::problem`]).
    pub fn new(grid: ExpandedGrid, kind: RoutingKind) -> Self {
        if let Some(problem) = kind.problem() {
            panic!("invalid routing policy: {problem}");
        }
        ClassRouter { grid, kind }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &ExpandedGrid {
        &self.grid
    }

    /// The policy.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Appends the link ids of route `choice` between two routers to
    /// `out` — the route program. Same-router pairs append nothing,
    /// and the link sequence equals
    /// [`crate::routing::policy_route_routers`]`(topo, kind, src, dst,
    /// choice).links` on the materialized topology.
    ///
    /// # Panics
    ///
    /// Panics if a router or the choice is out of range.
    pub fn route_routers_into(&self, src: usize, dst: usize, choice: usize, out: &mut Vec<u32>) {
        let grid = &self.grid;
        let link_id = |s: Step| Some(grid.link_id(s.coord, s.axis, s.positive));
        walk_route(grid.dims(), self.kind, src, dst, choice, link_id, out)
            .expect("closed-form link ids resolve every in-grid step");
    }

    /// Materializes the full legacy CSR table through the route
    /// programs — bit-identical to
    /// [`RouteTable::with_policy`]`(&grid.to_topology(), kind)` (pinned
    /// by tests). O(routers² · choices) like the legacy build; the
    /// compatibility path for the DES engines, not the scalable path.
    pub fn to_route_table(&self) -> RouteTable {
        let topo = self.grid.to_topology();
        RouteTable::from_routes(&topo, self.kind, |a, b, c, out| {
            self.route_routers_into(a, b, c, out)
        })
    }

    /// Resident bytes including the grid and database — independent of
    /// both grid size and policy choice count.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<ExpandedGrid>() + self.grid.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::policy_route_routers;

    fn kinds() -> [RoutingKind; 6] {
        [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::valiant(),
            RoutingKind::Valiant { choices: 3 },
            RoutingKind::RlbValiant { choices: 3 },
            RoutingKind::Adaptive,
        ]
    }

    #[test]
    fn route_programs_match_policy_walker_link_for_link() {
        for grid in [ExpandedGrid::mesh2d(4, 3), ExpandedGrid::mesh3d(3, 2, 2)] {
            let topo = grid.to_topology();
            for kind in kinds() {
                let router = ClassRouter::new(grid.clone(), kind);
                let mut got = Vec::new();
                for s in 0..grid.num_routers() {
                    for d in 0..grid.num_routers() {
                        for c in 0..kind.choices() {
                            got.clear();
                            router.route_routers_into(s, d, c, &mut got);
                            let want: Vec<u32> = policy_route_routers(&topo, kind, s, d, c)
                                .links
                                .iter()
                                .map(|&l| l as u32)
                                .collect();
                            assert_eq!(got, want, "{} ({s},{d},{c})", kind.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn materialized_tables_are_bit_identical_to_legacy() {
        // The fig8a configurations (8×8 mesh2d, 4×4×4 mesh3d) under all
        // four pinned policies; fig8b scale is covered DOR-only below.
        for grid in [ExpandedGrid::mesh2d(8, 8), ExpandedGrid::mesh3d(4, 4, 4)] {
            let topo = grid.to_topology();
            for kind in kinds() {
                let table = ClassRouter::new(grid.clone(), kind).to_route_table();
                assert_eq!(
                    table,
                    RouteTable::with_policy(&topo, kind),
                    "{} on {:?}",
                    kind.name(),
                    grid.dims()
                );
            }
        }
    }

    #[test]
    fn materialized_tables_match_at_fig8b_scale() {
        for grid in [ExpandedGrid::mesh2d(32, 16), ExpandedGrid::mesh3d(8, 8, 8)] {
            let topo = grid.to_topology();
            let kind = RoutingKind::DimensionOrder;
            let table = ClassRouter::new(grid.clone(), kind).to_route_table();
            assert_eq!(table, RouteTable::with_policy(&topo, kind));
        }
    }

    #[test]
    fn router_memory_is_independent_of_grid_and_choices() {
        let small = ClassRouter::new(ExpandedGrid::mesh3d(10, 10, 10), RoutingKind::valiant());
        let large = ClassRouter::new(
            ExpandedGrid::mesh3d(100, 100, 100),
            RoutingKind::Valiant { choices: 64 },
        );
        assert_eq!(small.mem_bytes(), large.mem_bytes());
        // The CSR at 10⁶ routers would need ≥ 8·10¹² offset bytes; the
        // class router answers the same queries from a few KiB.
        assert!(large.mem_bytes() < 16 * 1024, "{}", large.mem_bytes());
    }

    #[test]
    fn corner_to_corner_route_at_one_million_routers() {
        let grid = ExpandedGrid::mesh3d(100, 100, 100);
        let router = ClassRouter::new(grid.clone(), RoutingKind::DimensionOrder);
        let mut links = Vec::new();
        router.route_routers_into(0, grid.num_routers() - 1, 0, &mut links);
        assert_eq!(links.len(), 99 * 3);
        // Every id stays within the closed-form link count.
        let n = grid.num_links() as u32;
        assert!(links.iter().all(|&l| l < n));
    }

    #[test]
    #[should_panic(expected = "invalid routing policy")]
    fn zero_choice_valiant_panics() {
        ClassRouter::new(
            ExpandedGrid::mesh2d(2, 2),
            RoutingKind::Valiant { choices: 0 },
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_choice_panics() {
        let router = ClassRouter::new(ExpandedGrid::mesh2d(2, 2), RoutingKind::DimensionOrder);
        router.route_routers_into(0, 1, 1, &mut Vec::new());
    }
}
