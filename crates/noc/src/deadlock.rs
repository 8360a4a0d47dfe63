//! Machine-checked deadlock freedom: channel-dependency graphs over
//! (link, virtual channel) nodes, built from the *actual* route and
//! VC-allocation functions.
//!
//! Dally & Seitz's criterion: a routing function is deadlock-free on
//! wormhole/credit networks iff its channel-dependency graph (CDG) — one
//! node per (physical link, virtual channel), one edge whenever a packet
//! may hold the first channel while requesting the second — is acyclic.
//! This DES models unbounded FIFO servers, which cannot deadlock by
//! construction; the CDG is therefore the *honesty contract* for the
//! non-XYZ turns the multi-route and adaptive policies take: it proves
//! the simulated schedules remain realizable on a real, finite-buffer
//! fabric with the declared VC count
//! ([`crate::routing::RoutingKind::safe_vcs`]).
//!
//! The graph is built two ways, both from production code paths rather
//! than a prose re-statement of them:
//!
//! * [`ChannelDepGraph::for_policy`] walks every (router pair, choice)
//!   route through the crate's one policy walker
//!   ([`crate::routing::walk_route`], whose link lists the route tables
//!   store and the DES engine's route programs step) and applies the
//!   per-policy VC allocation rule (O1TURN: one
//!   VC per permutation; Valiant/RLB: one per dimension-order leg, the
//!   walker reporting where the first leg ends). For
//!   [`crate::routing::RoutingKind::Adaptive`] there is no stored route,
//!   so the builder enumerates the *transition relation* instead: for
//!   every (src, dst) pair it adds an edge for every pair of consecutive
//!   productive moves inside the src–dst bounding box. Congestion only
//!   ever selects among always-permitted productive links, so the union
//!   over all congestion states is exactly this relation — the
//!   enumeration is not an approximation.
//! * [`ChannelDepGraph::for_hybrid`] replays
//!   [`crate::icdb::HybridBoards::route_into`] and assigns each hop the
//!   VC equal to the number of radio links already traversed, which
//!   increases monotonically along any route.
//!
//! `tests/properties.rs` asserts acyclicity on random 2D/3D meshes and
//! hybrid boards for every policy; the negative control below
//! (`o1turn_without_vcs_has_turn_cycles`) folds O1TURN onto one VC and
//! watches the classic turn cycle appear, so the checker is known to be
//! able to fail.

use crate::icdb::HybridBoards;
use crate::routing::{adaptive_network, walk_topology, RoutingKind};
use crate::topology::Topology;
use std::collections::HashSet;

/// A channel-dependency graph over (link, VC) nodes.
#[derive(Clone, Debug)]
pub struct ChannelDepGraph {
    vcs: usize,
    /// Adjacency per node (node id = `link · vcs + vc`).
    edges: Vec<HashSet<u32>>,
}

impl ChannelDepGraph {
    fn empty(num_links: usize, vcs: usize) -> Self {
        assert!(vcs >= 1, "need at least one virtual channel");
        ChannelDepGraph {
            vcs,
            edges: vec![HashSet::new(); num_links * vcs],
        }
    }

    #[inline]
    fn node(&self, link: usize, vc: usize) -> usize {
        link * self.vcs + vc % self.vcs
    }

    fn add_dep(&mut self, from_link: usize, from_vc: usize, to_link: usize, to_vc: usize) {
        let from = self.node(from_link, from_vc);
        let to = self.node(to_link, to_vc);
        self.edges[from].insert(to as u32);
    }

    /// Adds the dependency chain of one stored route under a per-hop VC
    /// allocation function.
    fn add_route(&mut self, links: &[u32], vc_of: impl Fn(usize) -> usize) {
        for (hop, window) in links.windows(2).enumerate() {
            self.add_dep(
                window[0] as usize,
                vc_of(hop),
                window[1] as usize,
                vc_of(hop + 1),
            );
        }
    }

    /// Builds the CDG of `kind` on `topo` with the policy's
    /// deadlock-safe VC count ([`RoutingKind::safe_vcs`]).
    pub fn for_policy(topo: &Topology, kind: RoutingKind) -> Self {
        Self::for_policy_folded(topo, kind, kind.safe_vcs())
    }

    /// [`ChannelDepGraph::for_policy`] with an explicit VC count: the
    /// allocation rule's VC indices are folded modulo `vcs`. Counts at or
    /// above `safe_vcs()` leave the rule intact (extra VCs are never
    /// allocated and add isolated nodes only); smaller counts merge
    /// channels — the negative-control knob that makes cycles appear.
    pub fn for_policy_folded(topo: &Topology, kind: RoutingKind, vcs: usize) -> Self {
        let mut g = Self::empty(topo.num_links(), vcs);
        match kind {
            RoutingKind::Adaptive => g.add_adaptive_transitions(topo),
            _ => g.add_oblivious_routes(topo, kind),
        }
        g
    }

    /// Walks every (router pair, choice) route of an oblivious policy
    /// and applies its VC allocation rule.
    fn add_oblivious_routes(&mut self, topo: &Topology, kind: RoutingKind) {
        let r = topo.num_routers();
        let mut links = Vec::new();
        for s in 0..r {
            for d in 0..r {
                if s == d {
                    continue;
                }
                for c in 0..kind.choices() {
                    links.clear();
                    // One VC per dimension-order leg: the switch happens
                    // at the Valiant/RLB intermediate, after the walk's
                    // first leg.
                    let leg1 = walk_topology(topo, kind, s, d, c, &mut links);
                    let vc_of = |hop: usize| match kind {
                        RoutingKind::DimensionOrder => 0,
                        // One VC per permutation: each fixed-order
                        // sub-network is DOR-acyclic on its own.
                        RoutingKind::O1Turn => c,
                        RoutingKind::Valiant { .. } | RoutingKind::RlbValiant { .. } => {
                            usize::from(hop >= leg1)
                        }
                        RoutingKind::Adaptive => unreachable!("handled via transitions"),
                    };
                    self.add_route(&links, vc_of);
                }
            }
        }
    }

    /// Enumerates the full adaptive transition relation: for every
    /// (src, dst) pair, every consecutive pair of productive moves from
    /// any router inside the src–dst bounding box, on the pair's virtual
    /// network. Exact (not an over-approximation of reachable routes
    /// beyond the bounding box itself): adaptivity selects among
    /// productive links but never forbids one, and minimal routes stay
    /// inside the box.
    fn add_adaptive_transitions(&mut self, topo: &Topology) {
        let r = topo.num_routers();
        let productive_links = |here: [usize; 3], target: [usize; 3]| {
            let mut out: [Option<(usize, [usize; 3])>; 3] = [None; 3];
            for (dim, slot) in out.iter_mut().enumerate() {
                if here[dim] == target[dim] {
                    continue;
                }
                let positive = here[dim] < target[dim];
                let mut next = here;
                if positive {
                    next[dim] += 1;
                } else {
                    next[dim] -= 1;
                }
                let link = topo
                    .step_link(topo.router_at(here), dim, positive)
                    .expect("adaptive routing needs the full mesh neighborhood");
                *slot = Some((link, next));
            }
            out
        };
        for s in 0..r {
            for d in 0..r {
                if s == d {
                    continue;
                }
                let a = topo.coord(s);
                let b = topo.coord(d);
                let net = adaptive_network(a, b);
                // Every router in the src–dst bounding box.
                let lo = [a[0].min(b[0]), a[1].min(b[1]), a[2].min(b[2])];
                let hi = [a[0].max(b[0]), a[1].max(b[1]), a[2].max(b[2])];
                for x in lo[0]..=hi[0] {
                    for y in lo[1]..=hi[1] {
                        for z in lo[2]..=hi[2] {
                            let here = [x, y, z];
                            for first in productive_links(here, b).into_iter().flatten() {
                                let (l1, mid) = first;
                                for second in productive_links(mid, b).into_iter().flatten() {
                                    self.add_dep(l1, net, second.0, net);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Builds the CDG of the hybrid wired+wireless route program: each
    /// hop's VC is the number of radio links already traversed (one VC
    /// per board suffices — a route crosses at most `boards − 1` gaps).
    /// The VC index rises monotonically along every route and wired hops
    /// sharing a VC form dimension-order segments, which is why the
    /// graph stays acyclic.
    pub fn for_hybrid(hb: &HybridBoards) -> Self {
        let topo = hb.topology();
        let wired = hb.num_wired_links();
        let mut g = Self::empty(topo.num_links(), hb.boards().max(1));
        let mut route: Vec<u32> = Vec::new();
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_routers() {
                if s == d {
                    continue;
                }
                route.clear();
                hb.route_into(s, d, &mut route);
                let mut vc = 0usize;
                let mut prev: Option<(usize, usize)> = None;
                for &l in &route {
                    let l = l as usize;
                    if let Some((pl, pvc)) = prev {
                        g.add_dep(pl, pvc, l, vc);
                    }
                    prev = Some((l, vc));
                    if l >= wired {
                        vc += 1;
                    }
                }
            }
        }
        g
    }

    /// Virtual channels per link.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Total (link, VC) nodes.
    pub fn num_nodes(&self) -> usize {
        self.edges.len()
    }

    /// Total dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(HashSet::len).sum()
    }

    /// Whether the dependency graph is acyclic — Dally & Seitz's
    /// deadlock-freedom criterion. Kahn's algorithm: repeatedly strip
    /// zero-in-degree nodes; leftovers form (or feed) a cycle.
    pub fn is_acyclic(&self) -> bool {
        let n = self.edges.len();
        let mut indeg = vec![0u32; n];
        for adj in &self.edges {
            for &to in adj {
                indeg[to as usize] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut stripped = 0usize;
        while let Some(v) = queue.pop() {
            stripped += 1;
            for &to in &self.edges[v] {
                indeg[to as usize] -= 1;
                if indeg[to as usize] == 0 {
                    queue.push(to as usize);
                }
            }
        }
        stripped == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> [RoutingKind; 5] {
        [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::Valiant { choices: 3 },
            RoutingKind::RlbValiant { choices: 3 },
            RoutingKind::Adaptive,
        ]
    }

    #[test]
    fn every_policy_is_acyclic_at_its_safe_vc_count() {
        for topo in [Topology::mesh2d(4, 3), Topology::mesh3d(3, 3, 2)] {
            for kind in all_kinds() {
                let g = ChannelDepGraph::for_policy(&topo, kind);
                assert!(g.num_edges() > 0, "{} built no deps", kind.name());
                assert!(g.is_acyclic(), "{} CDG has a cycle", kind.name());
            }
        }
    }

    #[test]
    fn o1turn_without_vcs_has_turn_cycles() {
        // The negative control: fold the six permutation sub-networks
        // onto one VC and the classic 2D turn cycle appears — e.g.
        // (0,0)→(1,0)→(1,1)→(0,1)→(0,0) assembled from XY and YX routes.
        // This proves the checker can fail, i.e. the acyclicity results
        // above are not vacuous.
        let topo = Topology::mesh2d(3, 3);
        let folded = ChannelDepGraph::for_policy_folded(&topo, RoutingKind::O1Turn, 1);
        assert!(!folded.is_acyclic(), "folded O1TURN must cycle");
        // And the full allocation heals it.
        assert!(ChannelDepGraph::for_policy(&topo, RoutingKind::O1Turn).is_acyclic());
    }

    #[test]
    fn valiant_without_leg_vcs_cycles_on_small_meshes() {
        // Two dimension-order legs through a hashed intermediate take
        // YX-style turns when folded onto one VC; with enough pairs the
        // turn cycle closes. (Pinned on a mesh where it provably does.)
        let topo = Topology::mesh2d(3, 3);
        let folded =
            ChannelDepGraph::for_policy_folded(&topo, RoutingKind::Valiant { choices: 8 }, 1);
        assert!(!folded.is_acyclic(), "folded Valiant must cycle");
        assert!(
            ChannelDepGraph::for_policy(&topo, RoutingKind::Valiant { choices: 8 }).is_acyclic()
        );
    }

    #[test]
    fn adaptive_folded_onto_one_network_cycles() {
        // Merging the four virtual networks lets +y and −y chains feed
        // each other through x-turns — the very cycle the Linder–Harden
        // split exists to cut.
        let topo = Topology::mesh2d(3, 3);
        let folded = ChannelDepGraph::for_policy_folded(&topo, RoutingKind::Adaptive, 1);
        assert!(!folded.is_acyclic(), "folded adaptive must cycle");
        assert!(ChannelDepGraph::for_policy(&topo, RoutingKind::Adaptive).is_acyclic());
    }

    #[test]
    fn hybrid_boards_are_acyclic() {
        for boards in [2usize, 3] {
            for radios in [1usize, 2] {
                let hb = HybridBoards::with_radio_count(boards, [3, 3, 2], radios);
                let g = ChannelDepGraph::for_hybrid(&hb);
                assert!(g.num_edges() > 0);
                assert!(
                    g.is_acyclic(),
                    "hybrid {boards} boards r={radios} CDG has a cycle"
                );
            }
        }
    }

    #[test]
    fn node_and_edge_counts_are_sane() {
        let topo = Topology::mesh2d(3, 3);
        let g = ChannelDepGraph::for_policy(&topo, RoutingKind::O1Turn);
        assert_eq!(g.vcs(), 6);
        assert_eq!(g.num_nodes(), topo.num_links() * 6);
    }
}
