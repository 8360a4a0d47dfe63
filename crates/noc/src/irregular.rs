//! Partial-TSV ("pillar") 3D meshes — the paper's future-work ablation.
//!
//! §IV closes: "the large area of TSVs will probably not allow to equip
//! every router with a vertical link. Furthermore, the vertical inter-chip
//! links are expected to offer a higher bandwidth compared to on-chip links.
//! Therefore, irregular topologies with heterogeneous links should be
//! investigated more closely."
//!
//! A [`PillarMesh3d`] keeps vertical links only at *pillar* columns (every
//! `pitch`-th router in x and y). Packets route X/Y to the nearest pillar,
//! ride it vertically, then finish X/Y on the destination layer
//! ([`PillarMesh3d::route_into`]). The analytic model prices these
//! detoured routes from [`PillarMesh3d::route_table`], as it prices every
//! other table, so the TSV-count/latency trade-off can be quantified.
//!
//! A pillar mesh is the full 3D mesh's link list less the +z pairs off
//! pillar columns, built by the crate's one raster link builder (the
//! one behind [`crate::icdb::ExpandedGrid::to_topology`]), so every
//! surviving link keeps its place in the full mesh's order. The result
//! is a *sparse* [`Topology`] — planar links everywhere, vertical links
//! only where the column is a pillar — rather than a full 3D mesh that
//! pretends some links don't exist. The materialized
//! [`PillarMesh3d::topology`] plus [`PillarMesh3d::route_table`] plug
//! straight into the unchanged DES stack through
//! [`crate::des::Engine::with_table`], and into the analytic model.
//!
//! ```
//! use wi_noc::analytic::{AnalyticModel, RouterParams};
//! use wi_noc::irregular::PillarMesh3d;
//! use wi_noc::topology::Topology;
//!
//! let pillar = PillarMesh3d::new(4, 4, 2, 2);
//! // Only 4 of the 16 columns carry TSVs, so the materialized topology
//! // really is sparse: 2·4 of the full mesh's 2·16 vertical links.
//! assert_eq!(pillar.pillar_count(), 4);
//! let full = Topology::mesh3d(4, 4, 2);
//! assert_eq!(pillar.topology().num_links(), full.num_links() - 2 * 12);
//! let params = RouterParams::default();
//! let sparse = AnalyticModel::with_table(pillar.topology(), params, pillar.route_table());
//! assert!(sparse.zero_load_latency() > AnalyticModel::new(&full, params).zero_load_latency());
//! ```

use crate::icdb::grid::mesh_links;
use crate::routing::{walk_topology, RouteTable, RoutingKind};
use crate::topology::{Topology, TopologyKind};
use serde::{Deserialize, Serialize};

/// A 3D mesh whose vertical links exist only at pillar columns.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PillarMesh3d {
    topo: Topology,
    pitch: usize,
}

impl PillarMesh3d {
    /// Builds an `x × y × z` mesh with vertical links only where both
    /// coordinates are multiples of `pitch` (`pitch = 1` recovers the full
    /// 3D mesh).
    ///
    /// # Panics
    ///
    /// Panics if `pitch == 0` or any dimension is zero.
    pub fn new(x: usize, y: usize, z: usize, pitch: usize) -> Self {
        assert!(pitch > 0, "pillar pitch must be positive");
        let dims = [x, y, z];
        let links = mesh_links(dims, |[cx, cy, _], axis| {
            axis != 2 || is_pillar_column(cx, cy, pitch)
        });
        let topo = Topology::from_links(TopologyKind::Mesh3D, dims, 1, links);
        PillarMesh3d { topo, pitch }
    }

    /// The materialized sparse topology: planar links everywhere,
    /// vertical links only at pillar columns.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Pillar pitch.
    pub fn pitch(&self) -> usize {
        self.pitch
    }

    /// Number of TSV pillars (columns with vertical links), in closed
    /// form: multiples of the pitch inside each planar extent.
    pub fn pillar_count(&self) -> usize {
        let [nx, ny, _] = self.topo.dims();
        ((nx - 1) / self.pitch + 1) * ((ny - 1) / self.pitch + 1)
    }

    /// Nearest pillar column to `(x, y)` in Manhattan distance, in
    /// closed form per axis (ties resolve to the lower coordinate).
    pub fn nearest_pillar(&self, x: usize, y: usize) -> (usize, usize) {
        let [nx, ny, _] = self.topo.dims();
        (
            nearest_on_axis(x, self.pitch, nx),
            nearest_on_axis(y, self.pitch, ny),
        )
    }

    /// Appends the link ids of the route from router `src` to router
    /// `dst` to `out`: dimension-order to the pillar nearest the source,
    /// along the pillar, then dimension-order to the destination — three
    /// legs of the crate's one policy walker. Same-layer traffic routes
    /// purely in-plane, and a same-router pair appends nothing. All link
    /// ids refer to [`PillarMesh3d::topology`].
    pub fn route_into(&self, src: usize, dst: usize, out: &mut Vec<u32>) {
        let topo = &self.topo;
        let leg = |a: usize, b: usize, out: &mut Vec<u32>| {
            walk_topology(topo, RoutingKind::DimensionOrder, a, b, 0, out);
        };
        let [sx, sy, sz] = topo.coord(src);
        let [_, _, dz] = topo.coord(dst);
        if sz == dz {
            leg(src, dst, out);
            return;
        }
        let (px, py) = self.nearest_pillar(sx, sy);
        let pillar_src = topo.router_at([px, py, sz]);
        let pillar_dst = topo.router_at([px, py, dz]);
        leg(src, pillar_src, out);
        leg(pillar_src, pillar_dst, out);
        leg(pillar_dst, dst, out);
    }

    /// Materializes [`PillarMesh3d::route_into`] for all pairs as a
    /// [`RouteTable`] (reported as dimension-order: one choice per pair),
    /// ready for [`Engine::with_table`](crate::des::Engine::with_table)
    /// and [`AnalyticModel::with_table`](crate::analytic::AnalyticModel::with_table).
    pub fn route_table(&self) -> RouteTable {
        RouteTable::from_routes(&self.topo, RoutingKind::DimensionOrder, |a, b, _c, out| {
            self.route_into(a, b, out)
        })
    }
}

/// Whether the column at `(x, y)` is a TSV pillar under `pitch`.
fn is_pillar_column(x: usize, y: usize, pitch: usize) -> bool {
    x.is_multiple_of(pitch) && y.is_multiple_of(pitch)
}

/// Nearest multiple of `pitch` to `c` within `0..n`, preferring the
/// lower candidate on ties (matching the old first-wins scan order).
fn nearest_on_axis(c: usize, pitch: usize, n: usize) -> usize {
    let lo = (c / pitch) * pitch;
    let hi = lo + pitch;
    if hi < n && hi - c < c - lo {
        hi
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{AnalyticModel, RouterParams};
    use crate::des::{DesConfig, Engine};
    use std::sync::Arc;

    /// The pillar route from router `src` to router `dst` as a link list.
    fn route(pillar: &PillarMesh3d, src: usize, dst: usize) -> Vec<u32> {
        let mut links = Vec::new();
        pillar.route_into(src, dst, &mut links);
        links
    }

    /// The routers a link list visits from `src`, `src` first, asserting
    /// that each link starts where the previous one ended.
    fn chain(topo: &Topology, src: usize, links: &[u32]) -> Vec<usize> {
        let mut routers = vec![src];
        for (i, &l) in links.iter().enumerate() {
            let link = topo.links()[l as usize];
            assert_eq!(
                link.src,
                *routers.last().unwrap(),
                "link {i} breaks the chain"
            );
            routers.push(link.dst);
        }
        routers
    }

    #[test]
    fn pitch_one_matches_full_mesh_routing() {
        let pillar = PillarMesh3d::new(4, 4, 4, 1);
        let full = Topology::mesh3d(4, 4, 4);
        // Pitch 1 keeps every vertical link, so the sparse materialization
        // IS the full mesh — link list and all.
        assert_eq!(pillar.topology().links(), full.links());
        for (s, d) in [(0usize, 63usize), (10, 50), (33, 4)] {
            let mut dor = Vec::new();
            walk_topology(&full, RoutingKind::DimensionOrder, s, d, 0, &mut dor);
            // Pitch-1 pillar routing may take the pillar at (0,0) rather
            // than the minimal column, but for these pairs the detour is
            // zero because every column is a pillar.
            assert_eq!(route(&pillar, s, d).len(), dor.len(), "pair ({s},{d})");
        }
    }

    #[test]
    fn pillar_count_scales_with_pitch() {
        assert_eq!(PillarMesh3d::new(4, 4, 4, 1).pillar_count(), 16);
        assert_eq!(PillarMesh3d::new(4, 4, 4, 2).pillar_count(), 4);
        assert_eq!(PillarMesh3d::new(4, 4, 4, 4).pillar_count(), 1);
        // Non-divisible extents round up: pillars at 0, 2, 4 in a line of 5.
        assert_eq!(PillarMesh3d::new(5, 5, 2, 2).pillar_count(), 9);
    }

    #[test]
    fn materialized_topology_is_sparse() {
        let pillar = PillarMesh3d::new(4, 4, 3, 2);
        let full = Topology::mesh3d(4, 4, 3);
        // 4 pillars of the 16 columns keep their 2 vertical pairs each.
        let kept = 2 * 2 * pillar.pillar_count();
        let dropped = 2 * 2 * (16 - pillar.pillar_count());
        assert_eq!(pillar.topology().num_links(), full.num_links() - dropped);
        assert_eq!(
            pillar.topology().num_links(),
            full.num_links() - (2 * 2 * 16 - kept)
        );
    }

    #[test]
    fn routes_are_valid_chains() {
        let pillar = PillarMesh3d::new(4, 4, 3, 2);
        let topo = pillar.topology();
        for (s, d) in [(0usize, 47usize), (5, 42), (20, 1)] {
            let routers = chain(topo, s, &route(&pillar, s, d));
            assert_eq!(*routers.last().unwrap(), d, "pair ({s},{d})");
        }
    }

    #[test]
    fn vertical_route_uses_pillar_column() {
        let pillar = PillarMesh3d::new(4, 4, 2, 4); // single pillar at (0,0)
        let topo = pillar.topology();
        let s = topo.router_at([3, 3, 0]);
        let d = topo.router_at([3, 3, 1]);
        let links = route(&pillar, s, d);
        // Must detour via (0,0): 6 hops in, 1 up, 6 back.
        assert_eq!(links.len(), 13);
        assert!(chain(topo, s, &links).contains(&topo.router_at([0, 0, 0])));
    }

    #[test]
    fn nearest_pillar_closed_form_matches_scan() {
        let pillar = PillarMesh3d::new(5, 7, 2, 3);
        let [nx, ny, _] = pillar.topology().dims();
        for x in 0..nx {
            for y in 0..ny {
                // Reference: the old first-wins double scan.
                let mut best = (0, 0);
                let mut best_d = usize::MAX;
                for px in (0..nx).filter(|&px| px % 3 == 0) {
                    for py in (0..ny).filter(|&py| py % 3 == 0) {
                        let d = px.abs_diff(x) + py.abs_diff(y);
                        if d < best_d {
                            best_d = d;
                            best = (px, py);
                        }
                    }
                }
                assert_eq!(pillar.nearest_pillar(x, y), best, "({x},{y})");
            }
        }
    }

    #[test]
    fn fewer_pillars_cost_latency() {
        let latency = |pitch| {
            let mesh = PillarMesh3d::new(4, 4, 4, pitch);
            let params = RouterParams::default();
            AnalyticModel::with_table(mesh.topology(), params, mesh.route_table())
                .zero_load_latency()
        };
        let (full, sparse, single) = (latency(1), latency(2), latency(4));
        assert!(full < sparse, "full {full} sparse {sparse}");
        assert!(sparse < single, "sparse {sparse} single {single}");
    }

    #[test]
    fn same_layer_traffic_unaffected_by_pitch() {
        let sparse = PillarMesh3d::new(4, 4, 2, 4);
        let s = 0usize; // (0,0,0)
        let d = 3usize; // (3,0,0)
        assert_eq!(route(&sparse, s, d).len(), 3);
    }

    #[test]
    fn des_runs_on_the_pillar_route_table() {
        let pillar = PillarMesh3d::new(4, 4, 2, 2);
        let table = Arc::new(pillar.route_table());
        let cfg = DesConfig {
            injection_rate: 0.1,
            seed: 7,
            warmup_packets: 100,
            measured_packets: 500,
            ..DesConfig::default()
        };
        let a = Engine::with_table(pillar.topology(), Arc::clone(&table)).run(&cfg);
        let b = Engine::with_table(pillar.topology(), table).run(&cfg);
        assert_eq!(a, b, "pillar-table DES must be deterministic");
        assert!(a.delivered > 0);
    }

    #[test]
    #[should_panic(expected = "pillar pitch must be positive")]
    fn zero_pitch_panics() {
        PillarMesh3d::new(4, 4, 4, 0);
    }
}
