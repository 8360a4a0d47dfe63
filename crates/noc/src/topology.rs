//! NoC topology graphs: 2D mesh, star-mesh (concentrated mesh), 3D mesh and
//! ciliated 3D mesh — the four topology types of Fig. 7.
//!
//! A topology is a set of routers on an integer grid, a set of modules
//! (processing elements) attached to routers, and bidirectional inter-router
//! links (stored as two directed links). Star-mesh and ciliated 3D mesh are
//! concentrated variants: several modules share one router, trading network
//! size against router radix — exactly the trade-off §IV analyzes.

use crate::icdb::ExpandedGrid;
use serde::{Deserialize, Serialize};

/// Which of the paper's topology families a [`Topology`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Flat 2D mesh, one module per router.
    Mesh2D,
    /// 2D mesh of routers with several modules concentrated on each
    /// (also called concentrated mesh).
    StarMesh,
    /// 3D mesh, one module per router (requires one vertical link per
    /// router, e.g. TSVs).
    Mesh3D,
    /// 3D mesh with several modules per router.
    CiliatedMesh3D,
}

/// A router at an integer grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Router {
    /// Grid coordinate `(x, y, z)`.
    pub coord: [usize; 3],
}

/// A directed inter-router link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Source router index.
    pub src: usize,
    /// Destination router index.
    pub dst: usize,
}

/// A complete topology: routers, attached modules, directed links.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    kind: TopologyKind,
    dims: [usize; 3],
    concentration: usize,
    routers: Vec<Router>,
    /// `module_router[m]` is the router module `m` attaches to.
    module_router: Vec<usize>,
    links: Vec<Link>,
    /// `step[router·6 + 2·axis + positive]` — the link leaving `router`
    /// by one unit step along `axis`, `u32::MAX` when absent.
    #[serde(skip)]
    step: Vec<u32>,
    /// Router-adjacency CSR in link-list order: the links leaving router
    /// `r` lead to `neighbors[neighbor_offsets[r]..neighbor_offsets[r + 1]]`.
    #[serde(skip)]
    neighbor_offsets: Vec<u32>,
    #[serde(skip)]
    neighbors: Vec<u32>,
}

impl Topology {
    /// Builds a flat 2D mesh of `x × y` routers, one module each
    /// (the paper's 8×8 and 32×16 reference topologies).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh2d(x: usize, y: usize) -> Self {
        ExpandedGrid::mesh2d(x, y).to_topology()
    }

    /// Builds a star-mesh: `x × y` routers with `concentration` modules
    /// each (the paper's 4×4×4 star-mesh is `star_mesh(4, 4, 4)`).
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the concentration is zero.
    pub fn star_mesh(x: usize, y: usize, concentration: usize) -> Self {
        ExpandedGrid::star_mesh(x, y, concentration).to_topology()
    }

    /// Builds a 3D mesh of `x × y × z` routers, one module each
    /// (the paper's 4×4×4 and 8×8×8).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn mesh3d(x: usize, y: usize, z: usize) -> Self {
        ExpandedGrid::mesh3d(x, y, z).to_topology()
    }

    /// Builds a ciliated 3D mesh: `x × y × z` routers with `concentration`
    /// modules each (Fig. 7, bottom right).
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    pub fn ciliated_mesh3d(x: usize, y: usize, z: usize, concentration: usize) -> Self {
        ExpandedGrid::ciliated_mesh3d(x, y, z, concentration).to_topology()
    }

    /// Builds a topology over the standard raster of routers (`dims`,
    /// z-major like [`Topology::mesh3d`]) from an explicit directed link
    /// list — the one constructor. The four regular builders reach it
    /// through [`ExpandedGrid::to_topology`]; pillar meshes with sparse
    /// vertical links and hybrid wired+wireless board grids with express
    /// radio links pass their own lists.
    ///
    /// The list is indexed once into the unit-step table behind
    /// [`Topology::step_link`] and into the router-adjacency CSR the
    /// nearest-neighbour traffic pattern draws from. A link that is not a
    /// unit step (a radio link spanning a board pitch) stays out of the
    /// step table but not the adjacency; of two links making the same
    /// step, the later one wins.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the concentration is zero, or if a link
    /// endpoint is outside the router raster.
    pub(crate) fn from_links(
        kind: TopologyKind,
        dims: [usize; 3],
        concentration: usize,
        links: Vec<Link>,
    ) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be positive, got {dims:?}"
        );
        assert!(concentration > 0, "concentration must be positive");
        let [nx, ny, nz] = dims;
        let n_routers = nx * ny * nz;
        let mut routers = Vec::with_capacity(n_routers);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    routers.push(Router { coord: [x, y, z] });
                }
            }
        }
        assert!(
            links.len() < u32::MAX as usize,
            "{} links exceed the u32 link-id capacity",
            links.len()
        );
        let mut step = vec![u32::MAX; n_routers * 6];
        let mut neighbor_offsets = vec![0u32; n_routers + 1];
        for (id, l) in links.iter().enumerate() {
            assert!(
                l.src < n_routers && l.dst < n_routers,
                "link {l:?} outside the {n_routers}-router raster"
            );
            neighbor_offsets[l.src + 1] += 1;
            let (a, b) = (routers[l.src].coord, routers[l.dst].coord);
            let mut moved = (0..3).filter(|&axis| a[axis] != b[axis]);
            if let (Some(axis), None) = (moved.next(), moved.next()) {
                if a[axis].abs_diff(b[axis]) == 1 {
                    step[l.src * 6 + 2 * axis + usize::from(a[axis] < b[axis])] = id as u32;
                }
            }
        }
        // The adjacency CSR, a counting sort of the links by source.
        for r in 0..n_routers {
            neighbor_offsets[r + 1] += neighbor_offsets[r];
        }
        let mut fill = neighbor_offsets.clone();
        let mut neighbors = vec![0u32; links.len()];
        for l in &links {
            neighbors[fill[l.src] as usize] = l.dst as u32;
            fill[l.src] += 1;
        }
        let module_router: Vec<usize> = (0..n_routers)
            .flat_map(|r| std::iter::repeat_n(r, concentration))
            .collect();
        Topology {
            kind,
            dims,
            concentration,
            routers,
            module_router,
            links,
            step,
            neighbor_offsets,
            neighbors,
        }
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
        self.routers.len()
    }

    /// Number of modules (processing elements).
    pub fn num_modules(&self) -> usize {
        self.module_router.len()
    }

    /// Number of directed inter-router links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The routers.
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Router that module `m` attaches to. Modules attach in blocks of
    /// [`concentration`](Topology::concentration): router `r` holds
    /// modules `r·c .. r·c + c`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn router_of(&self, m: usize) -> usize {
        self.module_router[m]
    }

    /// The routers `router`'s outgoing links lead to, one per link, in
    /// link-list order.
    ///
    /// # Panics
    ///
    /// Panics if the router is out of range.
    pub(crate) fn neighbors(&self, router: usize) -> &[u32] {
        let lo = self.neighbor_offsets[router] as usize;
        let hi = self.neighbor_offsets[router + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Id of the link leaving `router` by one unit step along `axis`
    /// (toward the larger coordinate when `positive`), if the topology
    /// has one. One array read; express links that skip routers are
    /// not unit steps and never returned.
    ///
    /// # Panics
    ///
    /// Panics if the router is out of range.
    #[inline]
    pub fn step_link(&self, router: usize, axis: usize, positive: bool) -> Option<usize> {
        assert!(axis < 3, "axis {axis} out of range");
        let id = self.step[router * 6 + 2 * axis + usize::from(positive)];
        (id != u32::MAX).then_some(id as usize)
    }

    /// Grid coordinate of a router.
    pub fn coord(&self, router: usize) -> [usize; 3] {
        self.routers[router].coord
    }

    /// Router index at a grid coordinate.
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

    /// Manhattan (hop) distance between two routers.
    pub fn router_distance(&self, a: usize, b: usize) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (0..3).map(|i| ca[i].abs_diff(cb[i])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh2d_8x8_counts() {
        let t = Topology::mesh2d(8, 8);
        assert_eq!(t.num_routers(), 64);
        assert_eq!(t.num_modules(), 64);
        // 2 · (7·8 + 7·8) directed links.
        assert_eq!(t.num_links(), 2 * (7 * 8 * 2));
        assert_eq!(t.kind(), TopologyKind::Mesh2D);
    }

    #[test]
    fn star_mesh_4x4x4_counts() {
        let t = Topology::star_mesh(4, 4, 4);
        assert_eq!(t.num_routers(), 16);
        assert_eq!(t.num_modules(), 64);
        assert_eq!(t.concentration(), 4);
        assert_eq!(t.num_links(), 2 * (3 * 4 * 2));
    }

    #[test]
    fn mesh3d_4x4x4_counts() {
        let t = Topology::mesh3d(4, 4, 4);
        assert_eq!(t.num_routers(), 64);
        assert_eq!(t.num_modules(), 64);
        // Per dimension: 3·4·4 bidirectional = 96 directed; ×3 dims = 288.
        assert_eq!(t.num_links(), 288);
    }

    #[test]
    fn ciliated_counts() {
        let t = Topology::ciliated_mesh3d(4, 4, 2, 2);
        assert_eq!(t.num_routers(), 32);
        assert_eq!(t.num_modules(), 64);
    }

    #[test]
    fn links_are_bidirectional_pairs() {
        let t = Topology::mesh3d(3, 3, 3);
        for l in t.links() {
            let (a, b) = (t.coord(l.src), t.coord(l.dst));
            let axis = (0..3).find(|&i| a[i] != b[i]).unwrap();
            let reverse = t.step_link(l.dst, axis, b[axis] < a[axis]);
            assert_eq!(
                reverse.map(|r| t.links()[r]),
                Some(Link {
                    src: l.dst,
                    dst: l.src
                }),
                "missing reverse of {l:?}"
            );
        }
    }

    #[test]
    fn links_connect_neighbors_only() {
        let t = Topology::mesh3d(4, 4, 4);
        for l in t.links() {
            assert_eq!(t.router_distance(l.src, l.dst), 1);
        }
    }

    #[test]
    fn coord_round_trip() {
        let t = Topology::mesh3d(5, 3, 2);
        for r in 0..t.num_routers() {
            assert_eq!(t.router_at(t.coord(r)), r);
        }
    }

    #[test]
    fn modules_attach_in_blocks() {
        let t = Topology::star_mesh(2, 2, 4);
        assert_eq!(t.router_of(0), 0);
        assert_eq!(t.router_of(3), 0);
        assert_eq!(t.router_of(4), 1);
        assert_eq!(t.router_of(15), 3);
    }

    #[test]
    fn distance_is_manhattan() {
        let t = Topology::mesh3d(4, 4, 4);
        let a = t.router_at([0, 0, 0]);
        let b = t.router_at([3, 2, 1]);
        assert_eq!(t.router_distance(a, b), 6);
        assert_eq!(t.router_distance(a, a), 0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        Topology::mesh2d(0, 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_coordinate_panics() {
        let t = Topology::mesh2d(2, 2);
        t.router_at([2, 0, 0]);
    }
}
