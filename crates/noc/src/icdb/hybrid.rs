//! Hybrid wired+wireless board-of-boards layouts: wired meshes per
//! board, wireless express "long wires" between boards.
//!
//! The paper's board-level vision (§II–III) is a row of boards, each a
//! wired mesh, with radio links bridging the board gaps — no cables, no
//! connectors. In prjcombine's taxonomy (SNIPPETS.md) the radio is a
//! *const-span LONG wire*: a [`LinkClass`] whose span is the whole
//! board pitch along x, instantiated once per (board gap, radio site).
//! [`HybridBoards`] materializes that layout as a [`Topology`] through
//! the crate's one raster link builder — the monolithic mesh minus the
//! +x pairs that cross a board gap, then the radio pairs — and supplies
//! the route program (wired dimension-order within a board, express
//! radio hops between boards) as a [`RouteTable`] the DES engines and
//! analytic model consume unchanged through
//! [`Engine::with_table`](crate::des::Engine::with_table) and
//! [`AnalyticModel::with_table`](crate::analytic::AnalyticModel::with_table).

use super::grid::{mesh_links, placement};
use super::{LinkClass, Medium};
use crate::routing::{walk_topology, RouteTable, RoutingKind};
use crate::topology::{Link, Topology, TopologyKind};
use std::collections::BTreeMap;

/// A row of `boards` wired-mesh boards along x, bridged by wireless
/// express links at fixed radio sites. Materialized at construction —
/// meant for DES-able scales (the scalable-census path is
/// [`crate::icdb::ExpandedGrid`]).
#[derive(Clone, Debug)]
pub struct HybridBoards {
    boards: usize,
    board_dims: [usize; 3],
    /// Radio sites in board-local coordinates; every board instantiates
    /// the same sites (boards are identical tiles at the macro level).
    radios: Vec<[usize; 3]>,
    topo: Topology,
    /// Directed wired links precede radio links in the link list.
    wired_links: usize,
}

impl HybridBoards {
    /// Builds a hybrid layout: `boards` copies of an `x × y × z` wired
    /// mesh in a row along x, with one bidirectional wireless express
    /// link per radio site bridging each adjacent board pair. One module
    /// per router.
    ///
    /// # Panics
    ///
    /// Panics if `boards` is zero, a dimension is zero, `radios` is
    /// empty or contains a duplicate or out-of-board site.
    pub fn new(boards: usize, board_dims: [usize; 3], radios: Vec<[usize; 3]>) -> Self {
        assert!(boards > 0, "need at least one board");
        assert!(
            board_dims.iter().all(|&d| d > 0),
            "all board dimensions must be positive, got {board_dims:?}"
        );
        assert!(!radios.is_empty(), "need at least one radio site");
        let [nx, ny, nz] = board_dims;
        for (i, r) in radios.iter().enumerate() {
            assert!(
                r[0] < nx && r[1] < ny && r[2] < nz,
                "radio site {r:?} outside the board {board_dims:?}"
            );
            assert!(!radios[..i].contains(r), "duplicate radio site {r:?}");
        }

        let dims = [boards * nx, ny, nz];
        // The monolithic mesh's wired links, less the +x pairs that cross
        // a board boundary: that's the board gap the radios bridge.
        let mut links = mesh_links(dims, |coord, axis| axis != 0 || (coord[0] + 1) % nx != 0);
        let wired_links = links.len();

        // Radio pairs: board gap major, radio site minor — the order the
        // closed-form id arithmetic in `radio_link_id` assumes.
        let at = |x: usize, y: usize, z: usize| x + dims[0] * (y + dims[1] * z);
        for b in 0..boards.saturating_sub(1) {
            for r in &radios {
                let src = at(b * nx + r[0], r[1], r[2]);
                let dst = at((b + 1) * nx + r[0], r[1], r[2]);
                links.push(Link { src, dst });
                links.push(Link { src: dst, dst: src });
            }
        }

        let topo = Topology::from_links(TopologyKind::Mesh3D, dims, 1, links);
        HybridBoards {
            boards,
            board_dims,
            radios,
            topo,
            wired_links,
        }
    }

    /// [`HybridBoards::new`] with `count` radio sites spread along the
    /// board's y extent at the x/z center — the default placement.
    ///
    /// # Panics
    ///
    /// See [`HybridBoards::new`]; additionally panics if `count` exceeds
    /// the y extent (sites would collide).
    pub fn with_radio_count(boards: usize, board_dims: [usize; 3], count: usize) -> Self {
        let [nx, ny, nz] = board_dims;
        assert!(
            count > 0 && count <= ny,
            "radio count {count} outside 1..={ny}"
        );
        let radios = (0..count)
            .map(|i| [nx / 2, (2 * i + 1) * ny / (2 * count), nz / 2])
            .collect();
        Self::new(boards, board_dims, radios)
    }

    /// Number of boards.
    pub fn boards(&self) -> usize {
        self.boards
    }

    /// Per-board mesh dimensions.
    pub fn board_dims(&self) -> [usize; 3] {
        self.board_dims
    }

    /// Radio sites in board-local coordinates.
    pub fn radios(&self) -> &[[usize; 3]] {
        &self.radios
    }

    /// The materialized topology (global dims
    /// `[boards·x, y, z]`; wired links first, then radio links).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of directed wired links (radio link ids start here).
    pub fn num_wired_links(&self) -> usize {
        self.wired_links
    }

    /// Number of directed wireless links.
    pub fn num_radio_links(&self) -> usize {
        self.topo.num_links() - self.wired_links
    }

    /// Board index of a router.
    fn board_of(&self, router: usize) -> usize {
        self.topo.coord(router)[0] / self.board_dims[0]
    }

    /// Radio site nearest to `router` in board-local Manhattan distance
    /// (first site wins ties, like `wi_noc::irregular`'s pillar choice).
    fn nearest_radio(&self, router: usize) -> usize {
        let [x, y, z] = self.topo.coord(router);
        let lx = x % self.board_dims[0];
        self.radios
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| lx.abs_diff(r[0]) + y.abs_diff(r[1]) + z.abs_diff(r[2]))
            .map(|(i, _)| i)
            .expect("radios is non-empty")
    }

    /// Router hosting radio site `radio` on board `board`.
    fn radio_router(&self, board: usize, radio: usize) -> usize {
        let [nx, _, _] = self.board_dims;
        let r = self.radios[radio];
        self.topo.router_at([board * nx + r[0], r[1], r[2]])
    }

    /// Directed link id of the express hop from board `from` to the
    /// adjacent board at radio site `radio`.
    fn radio_link_id(&self, from: usize, to: usize, radio: usize) -> usize {
        debug_assert!(from.abs_diff(to) == 1);
        let gap = from.min(to);
        let pair = gap * self.radios.len() + radio;
        self.wired_links + 2 * pair + usize::from(to < from)
    }

    /// Appends the link ids of the route from `src` to `dst`: wired
    /// dimension-order within a board; for cross-board pairs, wired
    /// dimension-order to the nearest radio, express hops board to
    /// board, then wired dimension-order to the destination.
    pub fn route_into(&self, src: usize, dst: usize, out: &mut Vec<u32>) {
        if src == dst {
            return;
        }
        let (bs, bd) = (self.board_of(src), self.board_of(dst));
        let append_wired = |a: usize, b: usize, out: &mut Vec<u32>| {
            walk_topology(&self.topo, RoutingKind::DimensionOrder, a, b, 0, out);
        };
        if bs == bd {
            append_wired(src, dst, out);
            return;
        }
        let radio = self.nearest_radio(src);
        append_wired(src, self.radio_router(bs, radio), out);
        let mut b = bs;
        while b != bd {
            let next = if bd > b { b + 1 } else { b - 1 };
            out.push(self.radio_link_id(b, next, radio) as u32);
            b = next;
        }
        append_wired(self.radio_router(bd, radio), dst, out);
    }

    /// Materializes the route program as a single-choice
    /// dimension-order-kind [`RouteTable`] for the DES engines and the
    /// analytic model (O(routers²) like any table — the hybrid layout
    /// is a simulation scenario, not the scalable census path).
    pub fn route_table(&self) -> RouteTable {
        RouteTable::from_routes(&self.topo, RoutingKind::DimensionOrder, |a, b, _c, out| {
            self.route_into(a, b, out)
        })
    }

    /// Link class of a directed link: a neighbor wire for
    /// `id < num_wired_links()`, a wireless express link spanning the
    /// board pitch above; edge placement when either endpoint is on the
    /// global grid boundary.
    pub fn link_class(&self, id: usize) -> LinkClass {
        let l = self.topo.links()[id];
        let (a, b) = (self.topo.coord(l.src), self.topo.coord(l.dst));
        let placement = placement(self.topo.dims(), a, b);
        if id < self.wired_links {
            let axis = (0..3)
                .find(|&axis| a[axis] != b[axis])
                .expect("wired links connect distinct coordinates");
            LinkClass::wire(axis, placement)
        } else {
            LinkClass {
                medium: Medium::Wireless,
                axis: 0,
                span: self.board_dims[0],
                placement,
            }
        }
    }

    /// Directed-link count per link class in census order (see
    /// [`LinkClass`]; reporting, O(links)).
    pub fn link_census(&self) -> Vec<(LinkClass, usize)> {
        let mut counts = BTreeMap::new();
        for id in 0..self.topo.num_links() {
            *counts.entry(self.link_class(id)).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{simulate, sweep_engine_with_threads, DesConfig, Engine, SweepConfig};
    use crate::routing::route_choice;
    use std::sync::Arc;

    #[test]
    fn link_counts_split_wired_and_radio() {
        let h = HybridBoards::with_radio_count(3, [4, 4, 2], 2);
        let [nx, ny, nz] = [4usize, 4, 2];
        let per_board = 2 * ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1));
        assert_eq!(h.num_wired_links(), 3 * per_board);
        assert_eq!(h.num_radio_links(), 2 * 2 * 2); // 2 gaps × 2 radios × 2 dirs
        assert_eq!(h.topology().num_links(), 3 * per_board + 8);
        assert_eq!(h.topology().num_routers(), 3 * nx * ny * nz);
    }

    #[test]
    fn radio_link_ids_match_the_link_list() {
        let h = HybridBoards::with_radio_count(4, [3, 3, 2], 2);
        for gap in 0..3 {
            for radio in 0..2 {
                for (from, to) in [(gap, gap + 1), (gap + 1, gap)] {
                    let id = h.radio_link_id(from, to, radio);
                    let l = h.topology().links()[id];
                    assert_eq!(l.src, h.radio_router(from, radio));
                    assert_eq!(l.dst, h.radio_router(to, radio));
                    assert_eq!(h.link_class(id).medium, Medium::Wireless);
                }
            }
        }
    }

    #[test]
    fn routes_form_valid_link_chains_for_all_pairs() {
        let h = HybridBoards::with_radio_count(3, [3, 2, 2], 1);
        let topo = h.topology();
        let mut links = Vec::new();
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_routers() {
                links.clear();
                h.route_into(s, d, &mut links);
                let mut here = s;
                for &l in &links {
                    let link = topo.links()[l as usize];
                    assert_eq!(link.src, here, "broken chain ({s},{d})");
                    here = link.dst;
                }
                assert_eq!(here, d, "route ({s},{d}) ends elsewhere");
                if s == d {
                    assert!(links.is_empty());
                }
            }
        }
    }

    #[test]
    fn cross_board_routes_use_radios_and_in_board_routes_do_not() {
        let h = HybridBoards::with_radio_count(2, [4, 4, 1], 1);
        let wired = h.num_wired_links() as u32;
        let topo = h.topology();
        let mut links = Vec::new();
        // In-board pair: all wired.
        h.route_into(
            topo.router_at([0, 0, 0]),
            topo.router_at([3, 3, 0]),
            &mut links,
        );
        assert!(links.iter().all(|&l| l < wired));
        // Cross-board pair: exactly one express hop.
        links.clear();
        h.route_into(
            topo.router_at([0, 0, 0]),
            topo.router_at([7, 3, 0]),
            &mut links,
        );
        assert_eq!(links.iter().filter(|&&l| l >= wired).count(), 1);
    }

    #[test]
    fn single_board_is_the_plain_mesh() {
        let h = HybridBoards::with_radio_count(1, [3, 3, 3], 1);
        let mesh = Topology::mesh3d(3, 3, 3);
        assert_eq!(h.topology().links(), mesh.links());
        assert_eq!(h.num_radio_links(), 0);
        assert_eq!(h.route_table(), RouteTable::new(&mesh));
    }

    #[test]
    fn census_covers_all_links_and_both_media() {
        let h = HybridBoards::with_radio_count(3, [4, 4, 2], 2);
        let census = h.link_census();
        let total: usize = census.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, h.topology().num_links());
        let media: Vec<Medium> = census.iter().map(|&(class, _)| class.medium).collect();
        assert!(media.contains(&Medium::Wired) && media.contains(&Medium::Wireless));
    }

    #[test]
    fn census_places_edge_and_center_links() {
        // Two 4×4×3 boards make an 8×4×3 global grid: center links join
        // routers with x in 1..=6, y in 1..=2 and z = 1 (the x pair
        // straddling the board gap is a radio, not a wire). The radio
        // sites sit at (2, 1, 1), interior, and (2, 3, 1), on the y
        // boundary.
        let h = HybridBoards::with_radio_count(2, [4, 4, 3], 2);
        let names: Vec<(String, usize)> = h
            .link_census()
            .into_iter()
            .map(|(class, n)| (class.name(), n))
            .collect();
        let census: Vec<(&str, usize)> = names.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        assert_eq!(
            census,
            [
                ("WIRE_X_EDGE", 128),
                ("WIRE_X_CENTER", 16),
                ("WIRE_Y_EDGE", 132),
                ("WIRE_Y_CENTER", 12),
                ("WIRE_Z_EDGE", 128),
                ("RADIO_X_SPAN4_EDGE", 2),
                ("RADIO_X_SPAN4_CENTER", 2),
            ]
        );
    }

    #[test]
    fn des_and_sweep_run_on_the_hybrid_table() {
        let h = HybridBoards::with_radio_count(2, [3, 3, 1], 1);
        let table = Arc::new(h.route_table());
        let mut engine = Engine::with_table(h.topology(), table);
        let cfg = DesConfig {
            injection_rate: 0.05,
            warmup_packets: 100,
            measured_packets: 800,
            ..DesConfig::default()
        };
        let a = engine.run(&cfg);
        assert!(a.completed && a.mean_latency > 0.0);
        assert_eq!(engine.run(&cfg), a, "engine must stay deterministic");
        let sweep_cfg = SweepConfig::new(vec![0.02, 0.05], 2, cfg);
        let serial = sweep_engine_with_threads(&engine, &sweep_cfg, 1);
        let par = sweep_engine_with_threads(&engine, &sweep_cfg, 4);
        assert_eq!(serial, par, "hybrid sweeps must stay thread-invariant");
    }

    #[test]
    fn express_links_trade_detour_for_span() {
        // The long-wire trade-off: one radio hop spans the whole board
        // pitch, so far pairs get *shorter* routes than the monolithic
        // mesh's Manhattan distance, while near pairs straddling the gap
        // pay the detour to the radio site.
        let h = HybridBoards::with_radio_count(2, [4, 4, 1], 1);
        let topo = h.topology();
        let mut links = Vec::new();
        // Corner to far corner (Manhattan 10): via the radio it is
        // 4 wired + 1 express + 2 wired = 7 hops.
        h.route_into(
            topo.router_at([0, 0, 0]),
            topo.router_at([7, 3, 0]),
            &mut links,
        );
        assert_eq!(links.len(), 7);
        // Adjacent routers across the gap (Manhattan 1) detour to the
        // radio: 3 wired + 1 express + 4 wired = 8 hops.
        links.clear();
        h.route_into(
            topo.router_at([3, 0, 0]),
            topo.router_at([4, 0, 0]),
            &mut links,
        );
        assert_eq!(links.len(), 8);
    }

    #[test]
    fn reference_oracle_agrees_on_the_materialized_hybrid() {
        // The hybrid topology is a plain Topology; the arena engine and
        // the naive oracle must agree bit for bit when driven by the
        // same prebuilt table. The oracle path replays routes through
        // `route_choice` + the table, which is exactly what
        // `Engine::with_table` consumes.
        let h = HybridBoards::with_radio_count(2, [3, 2, 1], 1);
        let table = Arc::new(h.route_table());
        let cfg = DesConfig {
            injection_rate: 0.04,
            warmup_packets: 50,
            measured_packets: 400,
            ..DesConfig::default()
        };
        let mut engine = Engine::with_table(h.topology(), Arc::clone(&table));
        let r = engine.run(&cfg);
        assert!(r.completed);
        // Choice selection is the shared pure hash.
        assert_eq!(route_choice(cfg.seed, 0, 1, 2, table.num_choices()), 0);
        // In-board-only traffic on one board matches the plain mesh DES.
        let single = HybridBoards::with_radio_count(1, [3, 2, 1], 1);
        let mesh = Topology::mesh2d(3, 2);
        assert_eq!(
            Engine::with_table(single.topology(), Arc::new(single.route_table())).run(&cfg),
            simulate(&mesh, &cfg),
            "single-board hybrid must equal the plain mesh bit for bit"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate radio site")]
    fn duplicate_radios_panic() {
        HybridBoards::new(2, [3, 3, 1], vec![[1, 1, 0], [1, 1, 0]]);
    }

    #[test]
    #[should_panic(expected = "outside the board")]
    fn out_of_board_radio_panics() {
        HybridBoards::new(2, [3, 3, 1], vec![[3, 0, 0]]);
    }
}
