//! The expanded grid: a mesh described by its dimensions alone, in O(1)
//! memory.
//!
//! An [`ExpandedGrid`] is the scalable counterpart of
//! [`crate::topology::Topology`]: it answers the same queries — router
//! raster, coordinates, link ids, per-link classes, link counts, policy
//! routes — from closed-form arithmetic over the coordinates instead of
//! materialized `Vec`s, so a 10⁶-router grid costs the same few words as
//! a 4×4. `mesh_links` is the one raster link builder — behind
//! [`ExpandedGrid::to_topology`], and so every regular [`Topology`]
//! constructor, as well as the hybrid boards and the pillar meshes — and
//! the closed-form link-id arithmetic reproduces its list order exactly
//! (pinned by tests here, by the topology's unit-step table and by the
//! route-table proptest). The numbering scheme itself is derived in
//! `docs/TOPOLOGY.md`.

use super::{LinkClass, Placement};
use crate::routing::{walk_route, RoutingKind, Step};
use crate::topology::{Link, Topology, TopologyKind};

/// A mesh-family grid described by its dimensions alone: no per-router
/// or per-link storage.
#[derive(Clone, Debug)]
pub struct ExpandedGrid {
    kind: TopologyKind,
    dims: [usize; 3],
    concentration: usize,
}

impl ExpandedGrid {
    fn new(kind: TopologyKind, dims: [usize; 3], concentration: usize) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be positive, got {dims:?}"
        );
        assert!(concentration > 0, "concentration must be positive");
        ExpandedGrid {
            kind,
            dims,
            concentration,
        }
    }

    /// Expanded counterpart of [`Topology::mesh2d`].
    pub fn mesh2d(x: usize, y: usize) -> Self {
        Self::new(TopologyKind::Mesh2D, [x, y, 1], 1)
    }

    /// Expanded counterpart of [`Topology::star_mesh`].
    pub fn star_mesh(x: usize, y: usize, concentration: usize) -> Self {
        Self::new(TopologyKind::StarMesh, [x, y, 1], concentration)
    }

    /// Expanded counterpart of [`Topology::mesh3d`].
    pub fn mesh3d(x: usize, y: usize, z: usize) -> Self {
        Self::new(TopologyKind::Mesh3D, [x, y, z], 1)
    }

    /// Expanded counterpart of [`Topology::ciliated_mesh3d`].
    pub fn ciliated_mesh3d(x: usize, y: usize, z: usize, concentration: usize) -> Self {
        Self::new(TopologyKind::CiliatedMesh3D, [x, y, z], concentration)
    }

    /// Topology family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Grid dimensions `(x, y, z)`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Modules per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Number of directed inter-router links, in closed form: two per
    /// neighbor pair, `d−1` pairs per line of extent `d`.
    pub fn num_links(&self) -> usize {
        let [nx, ny, nz] = self.dims;
        2 * ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1))
    }

    /// Router index at a grid coordinate (same raster as
    /// [`Topology::router_at`]).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn router_at(&self, coord: [usize; 3]) -> usize {
        let [nx, ny, nz] = self.dims;
        assert!(
            coord[0] < nx && coord[1] < ny && coord[2] < nz,
            "coordinate {coord:?} outside {:?}",
            self.dims
        );
        coord[0] + nx * (coord[1] + ny * coord[2])
    }

    /// Grid coordinate of a router (inverse of [`ExpandedGrid::router_at`]).
    ///
    /// # Panics
    ///
    /// Panics if the router is out of range.
    pub fn coord(&self, router: usize) -> [usize; 3] {
        let [nx, ny, _] = self.dims;
        assert!(router < self.num_routers(), "router {router} out of range");
        [router % nx, (router / nx) % ny, router / (nx * ny)]
    }

    /// Router that module `m` attaches to (modules attach in blocks of
    /// `concentration`, mirroring [`Topology::router_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn router_of(&self, m: usize) -> usize {
        assert!(m < self.num_modules(), "module {m} out of range");
        m / self.concentration
    }

    /// Whether the router at `coord` sits on the grid boundary — the
    /// same predicate the fault layer's edge/center link classes use
    /// (`crate::des::fault`), with a flat z axis never counting.
    pub fn is_boundary(&self, coord: [usize; 3]) -> bool {
        is_boundary(self.dims, coord)
    }

    /// Directed link id from the router at `coord` to its neighbor in
    /// direction `positive` along `axis`, in closed form — no link list
    /// is consulted, yet the id equals the link's position in
    /// [`ExpandedGrid::to_topology`]'s list.
    ///
    /// `mesh_links` visits routers in raster order, pushing a
    /// forward/reverse pair per present positive neighbor in axis order,
    /// so the id is `2 ·` (positive pairs of all earlier routers) `+ 2 ·`
    /// (this router's pairs along lower axes: the lower axes `a` with
    /// `coord[a] + 1 < dims[a]`), `+ 1` for the reverse member. Prefix
    /// counts per axis have the closed forms below (complete
    /// lines/planes plus a clamped partial remainder); see
    /// `docs/TOPOLOGY.md` for the derivation.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid or the port is
    /// absent (neighbor outside the grid).
    pub fn link_id(&self, coord: [usize; 3], axis: usize, positive: bool) -> usize {
        assert!(axis < 3, "axis {axis} out of range");
        if !positive {
            // coord → coord−ê is the reverse member of the pair owned by
            // the negative neighbor.
            assert!(
                coord[axis] > 0,
                "no negative-{axis} neighbor at {coord:?} in {:?}",
                self.dims
            );
            let mut neighbor = coord;
            neighbor[axis] -= 1;
            return self.link_id(neighbor, axis, true) + 1;
        }
        let [nx, ny, nz] = self.dims;
        let idx = self.router_at(coord);
        assert!(
            coord[axis] + 1 < self.dims[axis],
            "no positive-{axis} neighbor at {coord:?} in {:?}",
            self.dims
        );
        // Positive pairs owned by routers before `idx` in raster order,
        // per axis.
        let px = (idx / nx) * (nx - 1) + (idx % nx).min(nx - 1);
        let py = (idx / (nx * ny)) * nx * (ny - 1) + (idx % (nx * ny)).min(nx * (ny - 1));
        let pz = idx.min(nx * ny * (nz - 1));
        let slot = (0..axis).filter(|&a| coord[a] + 1 < self.dims[a]).count();
        2 * (px + py + pz + slot)
    }

    /// Link class of the directed link from `coord` in direction
    /// `positive` along `axis`: a neighbor wire, with edge placement when
    /// either endpoint is on the boundary, matching the fault layer's
    /// `crate::des::fault::is_edge_link`.
    ///
    /// # Panics
    ///
    /// See [`ExpandedGrid::link_id`].
    pub fn link_class(&self, coord: [usize; 3], axis: usize, positive: bool) -> LinkClass {
        let mut neighbor = coord;
        if positive {
            assert!(
                coord[axis] + 1 < self.dims[axis],
                "no positive-{axis} neighbor at {coord:?} in {:?}",
                self.dims
            );
            neighbor[axis] += 1;
        } else {
            assert!(
                coord[axis] > 0,
                "no negative-{axis} neighbor at {coord:?} in {:?}",
                self.dims
            );
            neighbor[axis] -= 1;
        }
        LinkClass::wire(axis, placement(self.dims, coord, neighbor))
    }

    /// Directed-link count per link class in census order (see
    /// [`LinkClass`]), classes without links left out — in closed form
    /// like every other query. A pair along `axis` is center when both
    /// endpoints are interior: its lower coordinate on `axis` is one of
    /// the `d − 3` positions clear of both ends, and its other
    /// coordinates are interior on their axes.
    pub fn link_census(&self) -> Vec<(LinkClass, usize)> {
        let dims = self.dims;
        // Interior positions per axis; a flat z axis is never boundary.
        let interior = |a: usize| match a {
            2 if dims[2] == 1 => 1,
            _ => dims[a].saturating_sub(2),
        };
        let mut census = Vec::new();
        for axis in 0..3 {
            let [b, c] = [(axis + 1) % 3, (axis + 2) % 3];
            let pairs = (dims[axis] - 1) * dims[b] * dims[c];
            let center = dims[axis].saturating_sub(3) * interior(b) * interior(c);
            let edge = pairs - center;
            for (placement, n) in [(Placement::Edge, edge), (Placement::Center, center)] {
                if n > 0 {
                    census.push((LinkClass::wire(axis, placement), 2 * n));
                }
            }
        }
        census
    }

    /// Appends the link ids of route `choice` of `kind` from router `src`
    /// to router `dst` to `out`: the crate's one policy walker
    /// ([`walk_route`]) with each unit step's id from
    /// [`ExpandedGrid::link_id`], so no table or topology is built.
    /// Same-router pairs append nothing, and the link list equals the one
    /// the walker appends over the materialized topology's unit steps
    /// ([`Topology::step_link`]; pinned by tests).
    ///
    /// # Panics
    ///
    /// Panics if a router or the choice is out of range.
    pub fn route_into(
        &self,
        kind: RoutingKind,
        src: usize,
        dst: usize,
        choice: usize,
        out: &mut Vec<u32>,
    ) {
        let link_id = |s: Step| Some(self.link_id(s.coord, s.axis, s.positive));
        walk_route(self.dims, kind, src, dst, choice, link_id, out)
            .expect("closed-form link ids resolve every in-grid step");
    }

    /// Materializes the grid as a [`Topology`] through `mesh_links`,
    /// so every link's position in the list is the closed-form
    /// [`ExpandedGrid::link_id`] (pinned by tests against an independent
    /// raster-loop oracle). It costs O(routers + links), so reserve it
    /// for grids small enough to simulate.
    pub fn to_topology(&self) -> Topology {
        let links = mesh_links(self.dims, |_, _| true);
        Topology::from_links(self.kind, self.dims, self.concentration, links)
    }

    /// Resident bytes of the grid — independent of `dims`, which the
    /// memory-model test pins.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// The directed link list of a `dims` raster — the crate's one mesh link
/// builder, behind [`ExpandedGrid::to_topology`],
/// [`HybridBoards::new`](crate::icdb::HybridBoards::new) and
/// [`PillarMesh3d::new`](crate::irregular::PillarMesh3d::new). Routers
/// are visited in raster order, and each pushes, for every axis in x, y,
/// z order whose `+1` neighbor exists and passes `keep(coord, axis)`,
/// the forward link and then its reverse. With every pair kept this is
/// the list [`ExpandedGrid::link_id`] numbers; a layout that drops pairs
/// keeps the rest in the same order.
pub(crate) fn mesh_links(dims: [usize; 3], keep: impl Fn([usize; 3], usize) -> bool) -> Vec<Link> {
    let [nx, ny, nz] = dims;
    let stride = [1, nx, nx * ny];
    let mut links = Vec::new();
    let mut src = 0;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let coord = [x, y, z];
                for axis in 0..3 {
                    if coord[axis] + 1 < dims[axis] && keep(coord, axis) {
                        let dst = src + stride[axis];
                        links.push(Link { src, dst });
                        links.push(Link { src: dst, dst: src });
                    }
                }
                src += 1;
            }
        }
    }
    links
}

/// Whether `coord` lies on the boundary of a `dims` grid, a flat z axis
/// never counting — the one boundary predicate behind every edge/center
/// link classification: [`placement`] (so [`ExpandedGrid::link_class`]
/// and [`HybridBoards::link_class`](crate::icdb::HybridBoards::link_class))
/// and `crate::des::fault::is_edge_link`.
pub(crate) fn is_boundary(dims: [usize; 3], coord: [usize; 3]) -> bool {
    let [nx, ny, nz] = dims;
    coord[0] == 0
        || coord[0] + 1 == nx
        || coord[1] == 0
        || coord[1] + 1 == ny
        || (nz > 1 && (coord[2] == 0 || coord[2] + 1 == nz))
}

/// Placement of a link between `a` and `b` in a `dims` grid: edge when
/// either endpoint is on the boundary ([`is_boundary`]).
pub(crate) fn placement(dims: [usize; 3], a: [usize; 3], b: [usize; 3]) -> Placement {
    if is_boundary(dims, a) || is_boundary(dims, b) {
        Placement::Edge
    } else {
        Placement::Center
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{walk_topology, RouteTable};
    use crate::topology::Router;
    use std::collections::BTreeMap;

    /// The raster loop the regular `Topology` builders ran before they
    /// became [`ExpandedGrid::to_topology`]: routers z-major, and per
    /// router a forward/reverse link pair for each neighbor at +x, +y,
    /// +z. Returns the routers, the links and each module's router.
    fn raster_oracle(grid: &ExpandedGrid) -> (Vec<Router>, Vec<Link>, Vec<usize>) {
        let [nx, ny, nz] = grid.dims();
        let mut routers = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    routers.push(Router { coord: [x, y, z] });
                }
            }
        }
        let index = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
        let mut links = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let here = index(x, y, z);
                    if x + 1 < nx {
                        links.push(Link {
                            src: here,
                            dst: index(x + 1, y, z),
                        });
                        links.push(Link {
                            src: index(x + 1, y, z),
                            dst: here,
                        });
                    }
                    if y + 1 < ny {
                        links.push(Link {
                            src: here,
                            dst: index(x, y + 1, z),
                        });
                        links.push(Link {
                            src: index(x, y + 1, z),
                            dst: here,
                        });
                    }
                    if z + 1 < nz {
                        links.push(Link {
                            src: here,
                            dst: index(x, y, z + 1),
                        });
                        links.push(Link {
                            src: index(x, y, z + 1),
                            dst: here,
                        });
                    }
                }
            }
        }
        let modules = (0..routers.len())
            .flat_map(|r| std::iter::repeat_n(r, grid.concentration()))
            .collect();
        (routers, links, modules)
    }

    fn grids() -> Vec<ExpandedGrid> {
        vec![
            ExpandedGrid::mesh2d(4, 4),
            ExpandedGrid::mesh2d(8, 8),
            ExpandedGrid::mesh2d(32, 16),
            ExpandedGrid::star_mesh(4, 4, 4),
            ExpandedGrid::mesh3d(3, 3, 3),
            ExpandedGrid::mesh3d(4, 4, 4),
            ExpandedGrid::mesh3d(8, 8, 8),
            ExpandedGrid::mesh3d(5, 3, 2),
            ExpandedGrid::ciliated_mesh3d(4, 4, 2, 2),
        ]
    }

    /// The all-pairs table built from the grid's closed-form routes.
    fn closed_form_table(grid: &ExpandedGrid, kind: RoutingKind) -> RouteTable {
        RouteTable::from_routes(&grid.to_topology(), kind, |a, b, c, out| {
            grid.route_into(kind, a, b, c, out)
        })
    }

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
    fn materialization_matches_legacy_builders_exactly() {
        for grid in grids() {
            let got = grid.to_topology();
            let (routers, links, modules) = raster_oracle(&grid);
            assert_eq!(got.kind(), grid.kind());
            assert_eq!(got.dims(), grid.dims());
            assert_eq!(got.concentration(), grid.concentration());
            assert_eq!(got.routers(), &routers[..]);
            assert_eq!(got.links(), &links[..], "{:?}", grid.dims());
            let got_modules: Vec<usize> =
                (0..got.num_modules()).map(|m| got.router_of(m)).collect();
            assert_eq!(got_modules, modules);
        }
    }

    #[test]
    fn closed_form_counts_match_legacy() {
        for grid in grids() {
            let (routers, links, modules) = raster_oracle(&grid);
            assert_eq!(grid.num_routers(), routers.len());
            assert_eq!(grid.num_modules(), modules.len());
            assert_eq!(grid.num_links(), links.len(), "{:?}", grid.dims());
        }
    }

    #[test]
    fn link_ids_match_legacy_link_index_everywhere() {
        for grid in [
            ExpandedGrid::mesh2d(4, 4),
            ExpandedGrid::mesh3d(3, 3, 3),
            ExpandedGrid::mesh3d(5, 3, 2),
            ExpandedGrid::mesh3d(2, 2, 2),
        ] {
            let t = grid.to_topology();
            let [nx, ny, nz] = grid.dims();
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let coord = [x, y, z];
                        let here = grid.router_at(coord);
                        for axis in 0..3 {
                            for positive in [true, false] {
                                let got = t.step_link(here, axis, positive);
                                let present = if positive {
                                    coord[axis] + 1 < grid.dims()[axis]
                                } else {
                                    coord[axis] > 0
                                };
                                if !present {
                                    assert_eq!(got, None, "{coord:?} axis {axis} {positive}");
                                    continue;
                                }
                                let mut n = coord;
                                if positive {
                                    n[axis] += 1;
                                } else {
                                    n[axis] -= 1;
                                }
                                let want = grid.link_id(coord, axis, positive);
                                assert_eq!(
                                    got,
                                    Some(want),
                                    "{coord:?} axis {axis} positive {positive} in {:?}",
                                    grid.dims()
                                );
                                assert_eq!(
                                    t.links()[want],
                                    Link {
                                        src: here,
                                        dst: grid.router_at(n)
                                    }
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coord_round_trips_and_modules_attach_in_blocks() {
        let grid = ExpandedGrid::ciliated_mesh3d(5, 3, 2, 2);
        for r in 0..grid.num_routers() {
            assert_eq!(grid.router_at(grid.coord(r)), r);
        }
        assert_eq!(grid.router_of(0), 0);
        assert_eq!(grid.router_of(1), 0);
        assert_eq!(grid.router_of(2), 1);
    }

    #[test]
    fn census_sums_to_link_count_and_classifies_edges() {
        for grid in [ExpandedGrid::mesh2d(8, 8), ExpandedGrid::mesh3d(4, 4, 4)] {
            let census = grid.link_census();
            let total: usize = census.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, grid.num_links());
        }
        // A 3×3 2D mesh has a single interior router, so every link
        // touches the boundary: census must be all-edge.
        let tiny = ExpandedGrid::mesh2d(3, 3);
        for (class, _) in tiny.link_census() {
            assert_eq!(class.placement, Placement::Edge, "{}", class.name());
        }
    }

    #[test]
    fn census_counts_the_classes_of_the_materialized_links() {
        // The closed-form census against a count of `link_class` over
        // every directed link of the materialized list, on grids with
        // flat, two-wide and interior-bearing axes.
        for [x, y, z] in [
            [1, 1, 1],
            [2, 1, 1],
            [3, 3, 1],
            [6, 5, 1],
            [2, 2, 2],
            [4, 3, 2],
            [5, 4, 3],
            [6, 5, 4],
            [1, 7, 5],
        ] {
            let grid = ExpandedGrid::mesh3d(x, y, z);
            let topo = grid.to_topology();
            let mut counts = BTreeMap::new();
            for l in topo.links() {
                let (a, b) = (topo.coord(l.src), topo.coord(l.dst));
                let axis = (0..3).find(|&i| a[i] != b[i]).unwrap();
                *counts
                    .entry(grid.link_class(a, axis, b[axis] > a[axis]))
                    .or_insert(0) += 1;
            }
            let want: Vec<(LinkClass, usize)> = counts.into_iter().collect();
            assert_eq!(grid.link_census(), want, "{:?}", grid.dims());
        }
    }

    #[test]
    fn grid_memory_is_independent_of_dimensions() {
        let small = ExpandedGrid::mesh3d(10, 10, 10);
        let large = ExpandedGrid::mesh3d(100, 100, 100);
        assert_eq!(small.mem_bytes(), large.mem_bytes());
        // 10⁶ routers, 5.94·10⁶ directed links — described in a few words.
        assert_eq!(large.num_routers(), 1_000_000);
        assert_eq!(large.num_links(), 2 * 3 * 99 * 100 * 100);
        assert!(large.mem_bytes() < 16 * 1024, "{}", large.mem_bytes());
    }

    #[test]
    #[should_panic(expected = "no positive-0 neighbor")]
    fn absent_port_panics() {
        ExpandedGrid::mesh2d(2, 2).link_id([1, 0, 0], 0, true);
    }

    #[test]
    fn route_programs_match_policy_walker_link_for_link() {
        for grid in [ExpandedGrid::mesh2d(4, 3), ExpandedGrid::mesh3d(3, 2, 2)] {
            let topo = grid.to_topology();
            for kind in kinds() {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for s in 0..grid.num_routers() {
                    for d in 0..grid.num_routers() {
                        for c in 0..kind.choices() {
                            got.clear();
                            want.clear();
                            grid.route_into(kind, s, d, c, &mut got);
                            walk_topology(&topo, kind, s, d, c, &mut want);
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
        // six policies; fig8b scale is covered DOR-only below.
        for grid in [ExpandedGrid::mesh2d(8, 8), ExpandedGrid::mesh3d(4, 4, 4)] {
            let topo = grid.to_topology();
            for kind in kinds() {
                assert_eq!(
                    closed_form_table(&grid, kind),
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
            assert_eq!(
                closed_form_table(&grid, kind),
                RouteTable::with_policy(&topo, kind)
            );
        }
    }

    #[test]
    fn router_memory_is_independent_of_grid_and_choices() {
        // A route needs nothing but the grid: the 64-choice Valiant
        // routes of a 10⁶-router grid come from the same bytes as a
        // 10³-router grid, where the CSR would need ≥ 8·10¹² offset
        // bytes.
        let small = ExpandedGrid::mesh3d(10, 10, 10);
        let large = ExpandedGrid::mesh3d(100, 100, 100);
        assert_eq!(small.mem_bytes(), large.mem_bytes());
        let kind = RoutingKind::Valiant { choices: 64 };
        let mut links = Vec::new();
        large.route_into(kind, 0, large.num_routers() - 1, 63, &mut links);
        let n = large.num_links() as u32;
        assert!(!links.is_empty() && links.iter().all(|&l| l < n));
    }

    #[test]
    fn corner_to_corner_route_at_one_million_routers() {
        let grid = ExpandedGrid::mesh3d(100, 100, 100);
        let mut links = Vec::new();
        let kind = RoutingKind::DimensionOrder;
        grid.route_into(kind, 0, grid.num_routers() - 1, 0, &mut links);
        assert_eq!(links.len(), 99 * 3);
        // Every id stays within the closed-form link count.
        let n = grid.num_links() as u32;
        assert!(links.iter().all(|&l| l < n));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_choice_valiant_panics() {
        let kind = RoutingKind::Valiant { choices: 0 };
        ExpandedGrid::mesh2d(2, 2).route_into(kind, 0, 1, 0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_choice_panics() {
        let kind = RoutingKind::DimensionOrder;
        ExpandedGrid::mesh2d(2, 2).route_into(kind, 0, 1, 1, &mut Vec::new());
    }
}
