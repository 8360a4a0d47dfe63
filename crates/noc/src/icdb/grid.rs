//! The expanded grid: a mesh described by database classes + dimensions,
//! in O(1) memory.
//!
//! An [`ExpandedGrid`] is the scalable counterpart of
//! [`crate::topology::Topology`]: it answers the same queries — router
//! raster, coordinates, link ids, per-link classes — from closed-form
//! arithmetic over `(dims, tile class)` instead of materialized `Vec`s,
//! so a 10⁶-router grid costs the same few hundred bytes as a 4×4.
//! [`ExpandedGrid::to_topology`] is the one mesh link builder — the
//! regular [`Topology`] constructors call it — and the closed-form
//! link-id arithmetic reproduces its list order exactly (pinned by tests
//! here, by the topology's unit-step table and by the route-table
//! proptest). The numbering scheme itself is derived in
//! `docs/TOPOLOGY.md`.

use super::db::{AxisPorts, InterconnectDb, LinkClassId, Placement, TileClassId};
use crate::topology::{Link, Topology, TopologyKind};
use std::sync::Arc;

/// A mesh-family grid expanded from an [`InterconnectDb`] by dimensions
/// alone. Cheap to clone (an [`Arc`] and four words); no per-router or
/// per-link storage.
#[derive(Clone, Debug)]
pub struct ExpandedGrid {
    db: Arc<InterconnectDb>,
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
        ExpandedGrid {
            db: InterconnectDb::mesh_family(concentration),
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

    /// The shared interconnect database.
    pub fn db(&self) -> &Arc<InterconnectDb> {
        &self.db
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

    /// Port state of the tile at `coord` along `axis` — pure arithmetic
    /// on the coordinate's position within the axis extent.
    pub fn axis_ports(&self, coord: [usize; 3], axis: usize) -> AxisPorts {
        let d = self.dims[axis];
        let c = coord[axis];
        if d == 1 {
            AxisPorts::None
        } else if c == 0 {
            AxisPorts::PosOnly
        } else if c == d - 1 {
            AxisPorts::NegOnly
        } else {
            AxisPorts::Both
        }
    }

    /// Tile class instantiated at `coord`.
    pub fn tile_class(&self, coord: [usize; 3]) -> TileClassId {
        InterconnectDb::tile_class_id([
            self.axis_ports(coord, 0),
            self.axis_ports(coord, 1),
            self.axis_ports(coord, 2),
        ])
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
    /// `to_topology` visits routers in raster order, pushing a
    /// forward/reverse pair per present positive port in axis order, so
    /// the id is `2 ·` (positive-port pairs of all earlier routers) `+
    /// 2 ·` (this tile's earlier-axis pairs, from the tile class's slot
    /// table), `+ 1` for the reverse member. Prefix counts per axis have
    /// the closed forms below (complete lines/planes plus a clamped
    /// partial remainder); see `docs/TOPOLOGY.md` for the derivation.
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
        // Positive-port pairs owned by routers before `idx` in raster
        // order, per axis.
        let px = (idx / nx) * (nx - 1) + (idx % nx).min(nx - 1);
        let py = (idx / (nx * ny)) * nx * (ny - 1) + (idx % (nx * ny)).min(nx * (ny - 1));
        let pz = idx.min(nx * ny * (nz - 1));
        let tile = &self.db.tile_classes()[self.tile_class(coord)];
        let slot = tile.pos_pair_slot(axis).unwrap_or_else(|| {
            panic!(
                "no positive-{axis} neighbor at {coord:?} in {:?}",
                self.dims
            )
        });
        2 * (px + py + pz + slot)
    }

    /// Link class of the directed link from `coord` in direction
    /// `positive` along `axis`: edge placement when either endpoint is
    /// on the boundary, matching the fault layer's
    /// `crate::des::fault::is_edge_link`.
    ///
    /// # Panics
    ///
    /// See [`ExpandedGrid::link_id`].
    pub fn link_class(&self, coord: [usize; 3], axis: usize, positive: bool) -> LinkClassId {
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
        let placement = if self.is_boundary(coord) || self.is_boundary(neighbor) {
            Placement::Edge
        } else {
            Placement::Center
        };
        InterconnectDb::wired_link_class(axis, placement)
    }

    /// Directed-link count per link class, by enumerating neighbor pairs
    /// (O(routers) — the one deliberately non-closed-form query; used by
    /// reporting, not by any hot path).
    pub fn link_census(&self) -> Vec<(LinkClassId, usize)> {
        let mut counts = vec![0usize; self.db.link_classes().len()];
        let [nx, ny, nz] = self.dims;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let coord = [x, y, z];
                    for axis in 0..3 {
                        if coord[axis] + 1 < self.dims[axis] {
                            // Forward + reverse member of the pair.
                            counts[self.link_class(coord, axis, true)] += 2;
                        }
                    }
                }
            }
        }
        counts
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Materializes the grid as a [`Topology`] — the one mesh link
    /// builder: [`Topology::mesh3d`] and its siblings call it. Routers
    /// in raster order, each pushing a forward/reverse pair per present
    /// positive port in axis order, so every link's position in the
    /// list is the closed-form [`ExpandedGrid::link_id`] (pinned by
    /// tests against an independent raster-loop oracle). It costs
    /// O(routers + links), so reserve it for grids small enough to
    /// simulate.
    pub fn to_topology(&self) -> Topology {
        let [nx, ny, nz] = self.dims;
        let mut links = Vec::with_capacity(self.num_links());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let here = [x, y, z];
                    let src = self.router_at(here);
                    for axis in 0..3 {
                        if here[axis] + 1 < self.dims[axis] {
                            let mut n = here;
                            n[axis] += 1;
                            let dst = self.router_at(n);
                            links.push(Link { src, dst });
                            links.push(Link { src: dst, dst: src });
                        }
                    }
                }
            }
        }
        Topology::from_links(self.kind, self.dims, self.concentration, links)
    }

    /// Resident bytes of the grid including its share of the database —
    /// independent of `dims`, which the memory-model test pins.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.db.mem_bytes()
    }
}

/// Whether `coord` lies on the boundary of a `dims` grid, a flat z axis
/// never counting — the one boundary predicate behind every edge/center
/// link classification: [`ExpandedGrid::is_boundary`],
/// `crate::des::fault::is_edge_link` and
/// [`HybridBoards::link_class`](crate::icdb::HybridBoards::link_class).
pub(crate) fn is_boundary(dims: [usize; 3], coord: [usize; 3]) -> bool {
    let [nx, ny, nz] = dims;
    coord[0] == 0
        || coord[0] + 1 == nx
        || coord[1] == 0
        || coord[1] + 1 == ny
        || (nz > 1 && (coord[2] == 0 || coord[2] + 1 == nz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Router;

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
    fn tile_classes_match_coordinate_positions() {
        let grid = ExpandedGrid::mesh3d(4, 4, 4);
        let db = grid.db();
        let interior = &db.tile_classes()[grid.tile_class([2, 2, 2])];
        assert_eq!(interior.name, "T_iii");
        assert_eq!(interior.degree(), 6);
        let corner = &db.tile_classes()[grid.tile_class([0, 0, 0])];
        assert_eq!(corner.name, "T_lll");
        assert_eq!(corner.degree(), 3);
        let flat = ExpandedGrid::mesh2d(4, 4);
        assert_eq!(
            flat.db().tile_classes()[flat.tile_class([1, 1, 0])].name,
            "T_iif"
        );
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
        for (id, _) in tiny.link_census() {
            assert_eq!(
                tiny.db().link_classes()[id].placement,
                Placement::Edge,
                "{}",
                tiny.db().link_classes()[id].name
            );
        }
    }

    #[test]
    fn grid_memory_is_independent_of_dimensions() {
        let small = ExpandedGrid::mesh3d(10, 10, 10);
        let large = ExpandedGrid::mesh3d(100, 100, 100);
        assert_eq!(small.mem_bytes(), large.mem_bytes());
        // 10⁶ routers, 5.94·10⁶ directed links — described in a few KiB.
        assert_eq!(large.num_routers(), 1_000_000);
        assert_eq!(large.num_links(), 2 * 3 * 99 * 100 * 100);
        assert!(large.mem_bytes() < 16 * 1024, "{}", large.mem_bytes());
    }

    #[test]
    #[should_panic(expected = "no positive-0 neighbor")]
    fn absent_port_panics() {
        ExpandedGrid::mesh2d(2, 2).link_id([1, 0, 0], 0, true);
    }
}
