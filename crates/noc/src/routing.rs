//! Routing policies: deterministic dimension-order (XYZ) routing, the
//! standard oblivious randomized remedies (O1TURN, Valiant and the
//! minimal-quadrant RLB variant), and congestion-aware adaptive routing.
//!
//! The analytic model of ref \[14\] needs deterministic routes so that
//! per-link flows are exact sums over source/destination pairs. Dimension-
//! order routing resolves X first, then Y, then Z; it is minimal and
//! deadlock-free on meshes, and it is what the paper's reference topologies
//! use. Under non-uniform traffic, however, dimension-order routing
//! concentrates flows (the PR-2 sweeps measured hotspot and bit-reversal
//! saturation knees 2–4× below uniform), so this module also materializes
//! the classic alternatives behind one [`RoutingKind`]:
//!
//! * [`RoutingKind::DimensionOrder`] — one route per pair, X then Y then Z.
//! * [`RoutingKind::O1Turn`] — one route per dimension-order permutation
//!   ([`O1TURN_ORDERS`]); a packet picks one of the six orders, spreading
//!   minimal paths over both sides of each turn.
//! * [`RoutingKind::Valiant`] — `choices` routes per pair, each through a
//!   seed-chosen random intermediate router with two dimension-order legs
//!   (Valiant's randomized load balancing; non-minimal, but traffic-
//!   oblivious worst-case optimal).
//! * [`RoutingKind::RlbValiant`] — Valiant restricted to the minimal
//!   quadrant: the intermediate is hashed *inside the src–dst bounding
//!   box* ([`rlb_intermediate`]), so both dimension-order legs stay
//!   minimal in total — Valiant's load spreading without its 2× uniform-
//!   traffic hop penalty (randomized local balancing).
//! * [`RoutingKind::Adaptive`] — congestion-aware fully adaptive minimal
//!   routing: no precomputed route at all. At every hop the engine picks
//!   the productive link (one per unfinished dimension) whose server —
//!   and, as tie-break, whose virtual channel — frees earliest. Deadlock
//!   freedom comes from Linder–Harden-style **virtual networks**: a
//!   packet's VC is fixed at injection by [`adaptive_network`] (the signs
//!   of its remaining y/z displacement), so inside one VC the y and z
//!   coordinates move monotonically and x monotonically per packet — the
//!   channel-dependency graph over (link, VC) nodes is acyclic, which
//!   `wi_noc::deadlock` machine-checks.
//!
//! Every policy but `Adaptive` is **oblivious**: choice `c` of a router
//! pair is one [`RouteProgram`] — a leg target and an axis order,
//! stepped hop by hop from the current router — so a route is a pure
//! function of `(src, dst, c)` and needs no storage. The DES engine
//! steps the programs of the packets in flight; [`RouteTable::with_policy`]
//! materializes every (router pair, choice) route in flat CSR form for
//! the analytic model, icdb tables and the oracles. A packet selects its
//! route with the deterministic hash [`route_choice`] — no RNG draws,
//! which keeps the arena engine bit-identical to the naive oracle under
//! every policy. `Adaptive` decisions are likewise pure functions of
//! queue state shared between the engine and the oracle (never the RNG),
//! so the same contract holds.
//!
//! A route has one form throughout the crate: its link list, the `u32`
//! ids of the links it crosses in order, as [`walk_route`] appends it and
//! [`RouteTable`] stores it.

use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use wi_num::rng::mix64;

/// The six dimension-order permutations of a 3D mesh, as visit orders over
/// the coordinate axes. Order 0 is X-then-Y-then-Z — plain dimension-order
/// routing — so choice 0 of an [`RoutingKind::O1Turn`] table is always the
/// [`RoutingKind::DimensionOrder`] route.
pub const O1TURN_ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Default number of Valiant intermediates materialized per pair.
pub const VALIANT_DEFAULT_CHOICES: usize = 8;

/// Fixed salt for the Valiant intermediate construction, so route tables
/// are reproducible across runs and independent of the simulation seed
/// (per-replication seeds must not force a table rebuild).
const VALIANT_SALT: u64 = 0x5EED_0420_0DD5_5A1F;

/// Fixed salt for the RLB minimal-quadrant intermediate construction —
/// distinct from [`VALIANT_SALT`] so the two policies never correlate.
const RLB_SALT: u64 = 0x0DD5_5A1F_5EED_0420;

/// A routing policy (serde-able plain data, for configuration types and
/// CLI flags). All but [`RoutingKind::Adaptive`] are oblivious: each
/// route is a [`RouteProgram`] of `(src, dst, choice)`; `Adaptive`
/// decisions happen per hop in the simulator from live queue state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingKind {
    /// Deterministic X-then-Y-then-Z routing: one route per pair.
    #[default]
    DimensionOrder,
    /// One minimal route per dimension-order permutation
    /// ([`O1TURN_ORDERS`]); packets randomize over the six.
    O1Turn,
    /// Valiant randomized routing: `choices` routes per pair, each via a
    /// random intermediate router with two dimension-order legs.
    Valiant {
        /// Intermediate routers per pair.
        choices: usize,
    },
    /// Randomized local balancing: Valiant with the intermediate hashed
    /// inside the src–dst bounding box ([`rlb_intermediate`]), so both
    /// dimension-order legs together stay minimal.
    RlbValiant {
        /// Intermediate routers per pair.
        choices: usize,
    },
    /// Congestion-aware fully adaptive minimal routing over
    /// Linder–Harden-style virtual networks ([`adaptive_network`]). Its
    /// route program and [`RouteTable`] hold the dimension-order escape
    /// route per pair (what the analytic model and route-program
    /// consumers see); the DES engines pick the least-loaded productive
    /// link per hop instead.
    Adaptive,
}

impl RoutingKind {
    /// A Valiant policy with the default choice count.
    pub fn valiant() -> Self {
        RoutingKind::Valiant {
            choices: VALIANT_DEFAULT_CHOICES,
        }
    }

    /// An RLB minimal-quadrant Valiant policy with the default choice
    /// count.
    pub fn rlb() -> Self {
        RoutingKind::RlbValiant {
            choices: VALIANT_DEFAULT_CHOICES,
        }
    }

    /// Short lowercase name (CLI / table labels).
    pub fn name(&self) -> &'static str {
        match *self {
            RoutingKind::DimensionOrder => "dor",
            RoutingKind::O1Turn => "o1turn",
            RoutingKind::Valiant { .. } => "valiant",
            RoutingKind::RlbValiant { .. } => "rlb",
            RoutingKind::Adaptive => "adaptive",
        }
    }

    /// Routes materialized per (src, dst) router pair.
    pub fn choices(&self) -> usize {
        match *self {
            RoutingKind::DimensionOrder => 1,
            RoutingKind::O1Turn => O1TURN_ORDERS.len(),
            RoutingKind::Valiant { choices } => choices,
            RoutingKind::RlbValiant { choices } => choices,
            RoutingKind::Adaptive => 1,
        }
    }

    /// The minimum virtual-channel count under which the policy is
    /// deadlock-free — the per-link VC count the simulators allocate. One
    /// VC per independent acyclic sub-relation of the channel-dependency
    /// graph:
    ///
    /// * dimension-order: 1 — the classic DOR acyclicity argument;
    /// * O1TURN: 6 — one VC per permutation ([`O1TURN_ORDERS`]), each a
    ///   fixed-order sub-network that is DOR-acyclic on its own;
    /// * Valiant / RLB: 2 — one VC per dimension-order leg (the VC
    ///   switches at the intermediate, so no leg-2 channel ever feeds a
    ///   leg-1 channel);
    /// * adaptive: 4 — one VC per Linder–Harden virtual network
    ///   ([`adaptive_network`]).
    ///
    /// `tests/properties.rs` machine-checks each claim by building the
    /// channel-dependency graph from these very allocation rules
    /// (`wi_noc::deadlock`) and asserting acyclicity.
    pub fn safe_vcs(&self) -> usize {
        match *self {
            RoutingKind::DimensionOrder => 1,
            RoutingKind::O1Turn => 6,
            RoutingKind::Valiant { .. } => 2,
            RoutingKind::RlbValiant { .. } => 2,
            RoutingKind::Adaptive => 4,
        }
    }

    /// Parses a CLI spelling: `dor` (also `xyz`, `dimension-order`),
    /// `o1turn`, `valiant` (default choice count), `valiant:<k>`,
    /// `rlb` / `rlb:<k>` (minimal-quadrant Valiant), `adaptive`.
    pub fn parse(s: &str) -> Option<RoutingKind> {
        match s {
            "dor" | "xyz" | "dimension-order" | "dimensionorder" => {
                Some(RoutingKind::DimensionOrder)
            }
            "o1turn" => Some(RoutingKind::O1Turn),
            "valiant" => Some(RoutingKind::valiant()),
            "rlb" => Some(RoutingKind::rlb()),
            "adaptive" => Some(RoutingKind::Adaptive),
            _ => {
                let mut parts = s.split(':');
                let head = parts.next()?;
                let choices: usize = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                match head {
                    "valiant" => Some(RoutingKind::Valiant { choices }),
                    "rlb" => Some(RoutingKind::RlbValiant { choices }),
                    _ => None,
                }
            }
        }
    }

    /// A human-readable configuration problem, if any (`None` when valid).
    pub fn problem(&self) -> Option<String> {
        match *self {
            RoutingKind::Valiant { choices: 0 } | RoutingKind::RlbValiant { choices: 0 } => Some(
                format!("{} routing needs at least one choice per pair", self.name()),
            ),
            RoutingKind::Valiant { choices } | RoutingKind::RlbValiant { choices }
                if choices > 4096 =>
            {
                Some(format!(
                    "{} choice count {choices} exceeds the 4096 table cap",
                    self.name()
                ))
            }
            _ => None,
        }
    }
}

/// Selects a route choice for one packet: a deterministic SplitMix64
/// hash ([`mix64`]) of (simulation seed, packet index, src module, dst
/// module) reduced modulo the choice count.
///
/// Both the arena engine and the naive reference oracle call this — and
/// never the simulation RNG — so randomized routing perturbs neither the
/// RNG stream nor the engines' bit-identity. `choices <= 1` always yields
/// choice 0 (dimension-order tables pay nothing).
pub fn route_choice(seed: u64, packet: u64, src: usize, dst: usize, choices: usize) -> usize {
    if choices <= 1 {
        return 0;
    }
    let z = mix64(
        seed.wrapping_add(packet.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(((src as u64) << 32) ^ dst as u64),
    );
    (z % choices as u64) as usize
}

/// The intermediate router of Valiant choice `choice` for router pair
/// `(src, dst)` — a fixed-salt hash, so the whole table is reproducible
/// from the topology alone.
pub fn valiant_intermediate(num_routers: usize, src: usize, dst: usize, choice: usize) -> usize {
    let z = mix64(
        VALIANT_SALT
            .wrapping_add((choice as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(((src as u64) << 32) ^ dst as u64),
    );
    (z % num_routers as u64) as usize
}

/// The intermediate coordinate of RLB choice `choice` for the coordinate
/// pair `(src, dst)`: each dimension is hashed independently *inside the
/// src–dst bounding box*, so the two dimension-order legs through it sum
/// to exactly the Manhattan distance — Valiant's path diversity without
/// its hop penalty. Pure coordinate arithmetic (no topology lookup), so
/// the closed-form routes of [`crate::icdb::ExpandedGrid::route_into`]
/// share it bit for bit.
pub fn rlb_intermediate(src: [usize; 3], dst: [usize; 3], choice: usize) -> [usize; 3] {
    let pack = |c: [usize; 3]| (c[0] as u64) | ((c[1] as u64) << 21) | ((c[2] as u64) << 42);
    let mut mid = [0usize; 3];
    for dim in 0..3 {
        let lo = src[dim].min(dst[dim]);
        let hi = src[dim].max(dst[dim]);
        mid[dim] = if lo == hi {
            lo
        } else {
            let z = mix64(
                RLB_SALT
                    .wrapping_add((choice as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(pack(src).rotate_left(17) ^ pack(dst))
                    .wrapping_add((dim as u64) << 61),
            );
            lo + (z % (hi - lo + 1) as u64) as usize
        };
    }
    mid
}

/// The Linder–Harden virtual network — and therefore the virtual channel
/// — of an adaptively routed packet, fixed at injection from the signs of
/// its y/z displacement: network `0` moves +y/+z, `1` moves −y/+z, `2`
/// moves +y/−z, `3` moves −y/−z (a finished dimension joins the `+`
/// side). Inside one network every hop moves y and z monotonically in
/// the network's direction and x monotonically toward the packet's own
/// destination, so the per-network channel-dependency graph is acyclic —
/// the deadlock-freedom argument `wi_noc::deadlock` machine-checks.
pub fn adaptive_network(src: [usize; 3], dst: [usize; 3]) -> usize {
    usize::from(dst[1] < src[1]) | (usize::from(dst[2] < src[2]) << 1)
}

/// One unit step of a route walk: leave `router`, at grid coordinate
/// `coord`, along `axis` — toward the larger coordinate when `positive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The router the step leaves.
    pub router: usize,
    /// Its grid coordinate.
    pub coord: [usize; 3],
    /// The axis the step moves along.
    pub axis: usize,
    /// Whether it moves toward the larger coordinate.
    pub positive: bool,
}

/// Route `choice` of a policy between two routers, as a program stepped
/// hop by hop: the router its current leg heads for and the order it
/// visits the axes in.
///
/// [`RouteProgram::new`] is the one place a route's Valiant/RLB
/// intermediate and O1TURN visit order are picked, and
/// [`RouteProgram::next_run`] the one place its next straight run — and
/// so its next unit step — is. [`walk_route`] is a loop over the runs;
/// the DES engine ([`crate::des::Engine`]) keeps one program per packet
/// in flight instead of a stored route and takes one step of the next
/// run per hop. (The default program heads for router 0 in
/// dimension order; the engine leaves it in the slots of packets it
/// routes from a table.)
///
/// ```
/// use wi_noc::routing::{RouteProgram, RoutingKind};
/// use wi_noc::topology::Topology;
///
/// let topo = Topology::mesh3d(4, 4, 4);
/// let (src, dst) = (0, 63);
/// let (mut program, [first, second]) =
///     RouteProgram::new(topo.dims(), RoutingKind::O1Turn, src, dst, 5);
/// assert_eq!(first + second, 9, "O1TURN is minimal");
/// let mut here = src;
/// let coord = |r| topo.coord(r);
/// while let Some((axis, positive, _)) = program.next_run(coord(here), dst, coord) {
///     let link = topo.step_link(here, axis, positive).unwrap();
///     here = topo.links()[link].dst;
/// }
/// assert_eq!(here, dst);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteProgram {
    /// The router the current leg heads for: the Valiant/RLB
    /// intermediate until the route reaches it, the destination after
    /// (and from the start under single-leg policies).
    leg_target: u32,
    /// The axis visit order, an index into [`O1TURN_ORDERS`].
    order: u8,
}

impl RouteProgram {
    /// The program of choice `choice` of `kind` from router `src` to
    /// router `dst` of a `dims` raster (z-major, like
    /// [`Topology::router_at`]), with the hop counts of its two legs: up
    /// to the Valiant/RLB intermediate and on from it. Single-leg
    /// policies walk their whole route as the first leg. Same-router
    /// pairs get `[0, 0]` under every policy — a packet that never
    /// enters the mesh takes no detour. Adaptive gets its
    /// dimension-order escape route.
    ///
    /// # Panics
    ///
    /// Panics if a router or the choice is out of range.
    pub fn new(
        dims: [usize; 3],
        kind: RoutingKind,
        src: usize,
        dst: usize,
        choice: usize,
    ) -> (Self, [usize; 2]) {
        let (program, legs, _) =
            Self::plan(dims, kind, src, dst, choice, |r| raster_coord(dims, r));
        (program, legs)
    }

    /// [`RouteProgram::new`] with router coordinates taken from `coord`,
    /// plus the coordinates of `src`, the first leg's target and `dst`.
    #[inline]
    pub(crate) fn plan(
        dims: [usize; 3],
        kind: RoutingKind,
        src: usize,
        dst: usize,
        choice: usize,
        coord: impl Fn(usize) -> [usize; 3],
    ) -> (Self, [usize; 2], [[usize; 3]; 3]) {
        assert!(
            choice < kind.choices(),
            "choice {choice} out of range for {} ({} choices)",
            kind.name(),
            kind.choices()
        );
        let [nx, ny, nz] = dims;
        let routers = nx * ny * nz;
        assert!(
            src < routers && dst < routers,
            "router pair ({src}, {dst}) out of range for {routers} routers"
        );
        let (from, to) = (coord(src), coord(dst));
        let (mid, at_mid, order) = match kind {
            _ if src == dst => (dst, to, 0),
            RoutingKind::Valiant { .. } => {
                let mid = valiant_intermediate(routers, src, dst, choice);
                (mid, coord(mid), 0)
            }
            RoutingKind::RlbValiant { .. } => {
                let [x, y, z] = rlb_intermediate(from, to, choice);
                (x + nx * (y + ny * z), [x, y, z], 0)
            }
            RoutingKind::O1Turn => (dst, to, choice),
            RoutingKind::DimensionOrder | RoutingKind::Adaptive => (dst, to, 0),
        };
        let distance = |a: [usize; 3], b: [usize; 3]| -> usize {
            (0..3).map(|axis| a[axis].abs_diff(b[axis])).sum()
        };
        let program = RouteProgram {
            leg_target: u32::try_from(mid).expect("router index exceeds u32"),
            order: order as u8,
        };
        let legs = [distance(from, at_mid), distance(at_mid, to)];
        (program, legs, [from, at_mid, to])
    }

    /// The router the current leg heads for.
    pub fn leg_target(&self) -> usize {
        self.leg_target as usize
    }

    /// The straight run the route takes next from the router at
    /// coordinate `at` toward router `dst` (the destination the program
    /// was built for), as `(axis, positive, len)`: `len` unit steps along
    /// `axis`, toward the larger coordinate when `positive`, up to the
    /// leg target's coordinate on that axis. `coord` maps a router to its
    /// coordinate and is asked only for leg targets.
    ///
    /// The run's axis is the first, in the program's order, on which `at`
    /// differs from the leg target. At the leg target the next leg heads
    /// for `dst` — a switch that depends on `at` alone, so asking again
    /// from the same router (an ARQ retry at the intermediate) gives the
    /// same answer. `None` once the route has arrived.
    #[inline]
    pub fn next_run(
        &mut self,
        at: [usize; 3],
        dst: usize,
        coord: impl Fn(usize) -> [usize; 3],
    ) -> Option<(usize, bool, usize)> {
        let mut to = coord(self.leg_target as usize);
        let mut differs = differing_axes(at, to);
        if differs == 0 {
            if self.leg_target as usize == dst {
                return None;
            }
            self.leg_target = dst as u32;
            to = coord(dst);
            differs = differing_axes(at, to);
        }
        // Branch-free selection: which axis a run takes is data, not
        // control flow, so a hop costs no mispredicted branch.
        let axis = usize::from(FIRST_AXIS[usize::from(self.order)][differs]);
        let below = usize::from(at[0] < to[0])
            | usize::from(at[1] < to[1]) << 1
            | usize::from(at[2] < to[2]) << 2;
        let len = (0..3)
            .map(|a| usize::from(a == axis) * at[a].abs_diff(to[a]))
            .sum();
        Some((axis, below >> axis & 1 == 1, len))
    }
}

/// Grid coordinate of router `r` of a `dims` raster (z-major, like
/// [`Topology::router_at`]).
#[inline]
fn raster_coord(dims: [usize; 3], r: usize) -> [usize; 3] {
    let (row, plane) = (r / dims[0], r / dims[0] / dims[1]);
    [r - row * dims[0], row - plane * dims[1], plane]
}

/// Bit `i` set when coordinates `a` and `b` differ on axis `i`.
#[inline]
fn differing_axes(a: [usize; 3], b: [usize; 3]) -> usize {
    usize::from(a[0] != b[0]) | usize::from(a[1] != b[1]) << 1 | usize::from(a[2] != b[2]) << 2
}

/// `FIRST_AXIS[o][m]`: the first axis of visit order `o`
/// ([`O1TURN_ORDERS`]) whose bit is set in the axis mask `m`.
const FIRST_AXIS: [[u8; 8]; 6] = {
    let mut table = [[0u8; 8]; 6];
    let mut o = 0;
    while o < 6 {
        let mut m = 1;
        while m < 8 {
            let order = O1TURN_ORDERS[o];
            let mut i = 0;
            while m >> order[i] & 1 == 0 {
                i += 1;
            }
            table[o][m] = order[i] as u8;
            m += 1;
        }
        o += 1;
    }
    table
};

/// Walks choice `choice` of `kind` from router `src` to router `dst` of
/// a `dims` raster (z-major, like [`Topology::router_at`]) — a loop over
/// its [`RouteProgram`] — appending each unit step's link id, taken from
/// `link`, to `out`.
///
/// The [`RouteTable`] builder, the DES oracle, [`all_pairs_routable_with`],
/// the deadlock checker, the pillar and hybrid legs and
/// [`crate::icdb::ExpandedGrid::route_into`] all walk through it,
/// differing only in where a step's link id comes from.
///
/// Returns the hop count of the first leg — up to the Valiant/RLB
/// intermediate, the whole route otherwise — or the first step `link`
/// cannot resolve.
///
/// # Panics
///
/// Panics if a router or the choice is out of range.
pub fn walk_route(
    dims: [usize; 3],
    kind: RoutingKind,
    src: usize,
    dst: usize,
    choice: usize,
    mut link: impl FnMut(Step) -> Option<usize>,
    out: &mut Vec<u32>,
) -> Result<usize, Step> {
    let (mut program, [first_leg, second_leg], [from, mid, to]) =
        RouteProgram::plan(dims, kind, src, dst, choice, |r| raster_coord(dims, r));
    let stride = [1, dims[0], dims[0] * dims[1]];
    let mut here = Step {
        router: src,
        coord: from,
        axis: 0,
        positive: false,
    };
    // The program asks only for its leg targets: the intermediate, then
    // the destination.
    let leg_coord = |r: usize| if r == dst { to } else { mid };
    let mut left = first_leg + second_leg;
    while left > 0 {
        let (axis, positive, len) = program
            .next_run(here.coord, dst, leg_coord)
            .expect("a route with hops left has a next run");
        left -= len;
        here.axis = axis;
        here.positive = positive;
        for _ in 0..len {
            out.push(link(here).ok_or(here)? as u32);
            if positive {
                here.coord[axis] += 1;
                here.router += stride[axis];
            } else {
                here.coord[axis] -= 1;
                here.router -= stride[axis];
            }
        }
    }
    Ok(first_leg)
}

/// The panic of a route that needs a step the topology lacks.
fn missing_step(s: Step, kind: RoutingKind) -> ! {
    panic!(
        "no link leaves router {} along axis {} ({}) for the {} route",
        s.router,
        s.axis,
        if s.positive { "+" } else { "-" },
        kind.name()
    )
}

/// [`walk_route`] over `topo`'s unit-step links
/// ([`Topology::step_link`]).
///
/// # Panics
///
/// Panics if a router or the choice is out of range, or if the topology
/// lacks a link the route needs.
pub(crate) fn walk_topology(
    topo: &Topology,
    kind: RoutingKind,
    src: usize,
    dst: usize,
    choice: usize,
    out: &mut Vec<u32>,
) -> usize {
    let step_link = |s: Step| topo.step_link(s.router, s.axis, s.positive);
    walk_route(topo.dims(), kind, src, dst, choice, step_link, out)
        .unwrap_or_else(|s| missing_step(s, kind))
}

/// Checks, in one O(routers) pass over the unit-step table, that every
/// unit step inside `topo`'s raster has a link — what stepping the
/// [`RouteProgram`]s of `kind` needs. For dimension-order, O1TURN, RLB
/// and adaptive routing this is exactly routability, since a neighbour
/// pair's only minimal route is the direct step; for Valiant it is
/// sufficient.
///
/// # Panics
///
/// Panics naming the first router, axis and direction that lacks a link.
pub(crate) fn assert_unit_steps(topo: &Topology, kind: RoutingKind) {
    let dims = topo.dims();
    for router in 0..topo.num_routers() {
        let coord = topo.coord(router);
        for axis in 0..3 {
            for positive in [false, true] {
                let inside = if positive {
                    coord[axis] + 1 < dims[axis]
                } else {
                    coord[axis] > 0
                };
                if inside && topo.step_link(router, axis, positive).is_none() {
                    let s = Step {
                        router,
                        coord,
                        axis,
                        positive,
                    };
                    missing_step(s, kind);
                }
            }
        }
    }
}

/// All-pairs routes of one [`RoutingKind`] in flat CSR form.
///
/// A `RouteTable` walks every *router* pair once per **choice** at build
/// time — one unit-step table read per hop ([`Topology::step_link`]) —
/// and stores the link ids contiguously, so a lookup is two array reads
/// and a slice: no allocation, no walk. That costs
/// O(routers² · choices) memory; the analytic model, the icdb, hybrid
/// and pillar-mesh tables and the oracles pay it, while the DES engine
/// steps [`RouteProgram`]s and reads a table only when built around one
/// ([`crate::des::Engine::with_table`]). Pairs sharing a router map to
/// an empty slice under every policy — a packet that never enters the
/// mesh takes no detour.
///
/// A [`RouteTable::with_policy`] table stores, for router pair `(a, b)`
/// at choice `c`, the link list [`walk_route`] appends for
/// `(kind, a, b, c)` over the topology's unit steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTable {
    kind: RoutingKind,
    num_routers: usize,
    /// Routes per pair (`kind.choices()`, cached as u32 for indexing).
    choices: u32,
    /// `module_router[m]` mirrors [`Topology::router_of`].
    module_router: Vec<u32>,
    /// CSR offsets over (router pair, choice) at index
    /// `(a·R + b)·choices + c`.
    offsets: Vec<u32>,
    /// Concatenated link ids of all routes.
    links: Vec<u32>,
}

impl RouteTable {
    /// Builds the dimension-order table (one route per pair) — today's
    /// default policy and the layout every pre-policy consumer expects.
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks a link some dimension-order route
    /// needs (possible only for hand-edited irregular topologies).
    pub fn new(topo: &Topology) -> Self {
        Self::with_policy(topo, RoutingKind::DimensionOrder)
    }

    /// Builds the table for one routing policy by materializing every
    /// (router pair, choice) route once.
    ///
    /// The choice count is a property of the *policy*, not the topology:
    /// an [`RoutingKind::O1Turn`] table on a 2D mesh still stores all six
    /// permutation routes (the z-degenerate ones are duplicates), trading
    /// ~3× table memory for a topology-independent choice count — which
    /// is what keeps the per-packet [`route_choice`] selection identical
    /// between the arena engine and the table-free reference oracle.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid ([`RoutingKind::problem`]) or the
    /// topology lacks a link some route needs.
    pub fn with_policy(topo: &Topology, kind: RoutingKind) -> Self {
        Self::from_routes(topo, kind, |a, b, c, out| {
            walk_topology(topo, kind, a, b, c, out);
        })
    }

    /// Builds a table by materializing every (router pair, choice) route
    /// through a caller-supplied route program instead of the mesh policy
    /// walker — the entry point for expanded grids
    /// ([`crate::icdb`]) and irregular topologies (pillar meshes, hybrid
    /// wired+wireless boards) whose routes no [`RoutingKind`] policy can
    /// derive from coordinates alone.
    ///
    /// `route_fn(src, dst, choice, out)` must **append** the link ids of
    /// that route to `out` (left untouched for zero-hop pairs). The
    /// resulting table reports `kind` and `kind.choices()` routes per
    /// pair, so the per-packet [`route_choice`] selection works
    /// unchanged; when `route_fn` replays the policy walker the table is
    /// bit-identical to [`RouteTable::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid ([`RoutingKind::problem`]) or the
    /// table exceeds the `u32` link capacity.
    pub fn from_routes<F>(topo: &Topology, kind: RoutingKind, mut route_fn: F) -> Self
    where
        F: FnMut(usize, usize, usize, &mut Vec<u32>),
    {
        if let Some(problem) = kind.problem() {
            panic!("invalid routing policy: {problem}");
        }
        let r = topo.num_routers();
        let choices = kind.choices();
        let mut offsets = Vec::with_capacity(r * r * choices + 1);
        offsets.push(0u32);
        let mut links: Vec<u32> = Vec::new();
        for a in 0..r {
            for b in 0..r {
                for c in 0..choices {
                    route_fn(a, b, c, &mut links);
                    let end: u32 = links
                        .len()
                        .try_into()
                        .expect("route table exceeds u32 link capacity");
                    offsets.push(end);
                }
            }
        }
        RouteTable {
            kind,
            num_routers: r,
            choices: choices as u32,
            module_router: (0..topo.num_modules())
                .map(|m| topo.router_of(m) as u32)
                .collect(),
            offsets,
            links,
        }
    }

    /// The policy this table materializes.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Routes stored per (src, dst) router pair.
    pub fn num_choices(&self) -> usize {
        self.choices as usize
    }

    /// Number of modules the table was built for.
    pub fn num_modules(&self) -> usize {
        self.module_router.len()
    }

    #[inline]
    fn pair_index(&self, src: usize, dst: usize, choice: usize) -> usize {
        assert!(
            src < self.num_routers && dst < self.num_routers,
            "router pair ({src}, {dst}) out of range for {} routers",
            self.num_routers
        );
        assert!(
            choice < self.choices as usize,
            "choice {choice} out of range for {} choices",
            self.choices
        );
        (src * self.num_routers + dst) * self.choices as usize + choice
    }

    /// Link ids of route choice `choice` between two routers.
    ///
    /// # Panics
    ///
    /// Panics if a router or the choice is out of range.
    pub fn router_links_choice(&self, src: usize, dst: usize, choice: usize) -> &[u32] {
        let i = self.pair_index(src, dst, choice);
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Link ids of route choice `choice` between two modules (empty when
    /// both attach to the same router).
    ///
    /// # Panics
    ///
    /// Panics if a module or the choice is out of range.
    pub fn links_choice(&self, src_module: usize, dst_module: usize, choice: usize) -> &[u32] {
        self.router_links_choice(
            self.module_router[src_module] as usize,
            self.module_router[dst_module] as usize,
            choice,
        )
    }

    /// Link ids of the first route choice between two modules.
    ///
    /// # Panics
    ///
    /// Panics if either module is out of range.
    pub fn links(&self, src_module: usize, dst_module: usize) -> &[u32] {
        self.links_choice(src_module, dst_module, 0)
    }

    /// Inter-router hop count of the first route choice between two
    /// modules (the minimal hop count for every policy but Valiant).
    pub fn hops(&self, src_module: usize, dst_module: usize) -> usize {
        self.links(src_module, dst_module).len()
    }

    /// Range of route choice `choice` of the module pair within
    /// [`RouteTable::flat_links`] — lets a hot loop resolve the route once
    /// per packet and then index the flat buffer directly per hop.
    ///
    /// # Panics
    ///
    /// Panics if a module or the choice is out of range.
    pub fn span_choice(
        &self,
        src_module: usize,
        dst_module: usize,
        choice: usize,
    ) -> std::ops::Range<usize> {
        let i = self.pair_index(
            self.module_router[src_module] as usize,
            self.module_router[dst_module] as usize,
            choice,
        );
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Range of the module pair's first route choice within
    /// [`RouteTable::flat_links`].
    ///
    /// # Panics
    ///
    /// Panics if either module is out of range.
    pub fn span(&self, src_module: usize, dst_module: usize) -> std::ops::Range<usize> {
        self.span_choice(src_module, dst_module, 0)
    }

    /// The concatenated link ids of all routes (indexed via
    /// [`RouteTable::span`] / [`RouteTable::span_choice`]).
    pub fn flat_links(&self) -> &[u32] {
        &self.links
    }
}

/// Checks that every (router pair, choice) route of `kind` only crosses
/// links the topology has (true for every regular mesh; useful for
/// irregular variants).
pub fn all_pairs_routable_with(topo: &Topology, kind: RoutingKind) -> bool {
    let n = topo.num_routers();
    let mut scratch = Vec::new();
    let step_link = |s: Step| topo.step_link(s.router, s.axis, s.positive);
    (0..n).all(|s| {
        (0..n).all(|d| {
            (0..kind.choices()).all(|c| {
                scratch.clear();
                walk_route(topo.dims(), kind, s, d, c, step_link, &mut scratch).is_ok()
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The routers choice `c` of `kind` visits from router `a` to router
    /// `b`, `a` first: the walked link list read as a chain, each link
    /// starting where the previous one ended.
    fn walked_routers(t: &Topology, kind: RoutingKind, a: usize, b: usize, c: usize) -> Vec<usize> {
        let mut links = Vec::new();
        walk_topology(t, kind, a, b, c, &mut links);
        let mut routers = vec![a];
        for &l in &links {
            let link = t.links()[l as usize];
            assert_eq!(
                link.src,
                *routers.last().unwrap(),
                "link {l} breaks the chain"
            );
            routers.push(link.dst);
        }
        routers
    }

    /// [`walked_routers`] of the dimension-order route between two
    /// modules.
    fn dor_routers(t: &Topology, src_module: usize, dst_module: usize) -> Vec<usize> {
        let (a, b) = (t.router_of(src_module), t.router_of(dst_module));
        walked_routers(t, RoutingKind::DimensionOrder, a, b, 0)
    }

    #[test]
    fn route_is_minimal() {
        let t = Topology::mesh3d(4, 4, 4);
        for (s, d) in [(0usize, 63usize), (5, 40), (63, 0), (17, 17)] {
            let routers = dor_routers(&t, s, d);
            assert_eq!(
                routers.len() - 1,
                t.router_distance(t.router_of(s), t.router_of(d)),
                "pair ({s},{d})"
            );
        }
    }

    #[test]
    fn route_endpoints_correct() {
        let t = Topology::mesh2d(8, 8);
        let routers = dor_routers(&t, 3, 59);
        assert_eq!(routers[0], t.router_of(3));
        assert_eq!(*routers.last().unwrap(), t.router_of(59));
    }

    #[test]
    fn same_router_pair_has_no_hops() {
        let t = Topology::star_mesh(4, 4, 4);
        // Modules 0 and 1 share router 0.
        assert_eq!(dor_routers(&t, 0, 1), vec![0]);
    }

    #[test]
    fn x_before_y_before_z() {
        let t = Topology::mesh3d(4, 4, 4);
        let s = t.router_at([0, 0, 0]);
        let d = t.router_at([2, 2, 2]);
        let routers = walked_routers(&t, RoutingKind::DimensionOrder, s, d, 0);
        let coords: Vec<[usize; 3]> = routers.iter().map(|&r| t.coord(r)).collect();
        // X changes first, then Y, then Z.
        assert_eq!(coords[1], [1, 0, 0]);
        assert_eq!(coords[2], [2, 0, 0]);
        assert_eq!(coords[3], [2, 1, 0]);
        assert_eq!(coords[5], [2, 2, 1]);
    }

    #[test]
    fn ordered_route_visits_dims_in_order() {
        let t = Topology::mesh3d(4, 4, 4);
        let s = t.router_at([0, 0, 0]);
        let d = t.router_at([2, 2, 2]);
        // Choice 5 of O1TURN visits the axes in the order [2, 1, 0].
        let routers = walked_routers(&t, RoutingKind::O1Turn, s, d, 5);
        let coords: Vec<[usize; 3]> = routers.iter().map(|&r| t.coord(r)).collect();
        // Z changes first, then Y, then X.
        assert_eq!(coords[1], [0, 0, 1]);
        assert_eq!(coords[2], [0, 0, 2]);
        assert_eq!(coords[3], [0, 1, 2]);
        assert_eq!(coords[5], [1, 2, 2]);
        assert_eq!(routers.len() - 1, t.router_distance(s, d), "still minimal");
    }

    #[test]
    fn regular_meshes_fully_routable() {
        let dor = RoutingKind::DimensionOrder;
        assert!(all_pairs_routable_with(&Topology::mesh2d(4, 4), dor));
        assert!(all_pairs_routable_with(&Topology::mesh3d(3, 3, 3), dor));
        assert!(all_pairs_routable_with(&Topology::star_mesh(4, 4, 4), dor));
    }

    #[test]
    fn regular_meshes_routable_under_all_policies() {
        for kind in [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::Valiant { choices: 5 },
            RoutingKind::RlbValiant { choices: 5 },
            RoutingKind::Adaptive,
        ] {
            assert!(
                all_pairs_routable_with(&Topology::mesh3d(3, 3, 3), kind),
                "{}",
                kind.name()
            );
            assert!(
                all_pairs_routable_with(&Topology::star_mesh(3, 3, 2), kind),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn route_table_matches_route_for_all_pairs() {
        for topo in [
            Topology::mesh2d(5, 3),
            Topology::mesh3d(3, 3, 3),
            Topology::star_mesh(3, 3, 4),
            Topology::ciliated_mesh3d(3, 2, 2, 2),
        ] {
            let table = RouteTable::new(&topo);
            assert_eq!(table.num_modules(), topo.num_modules());
            assert_eq!(table.num_choices(), 1);
            let mut want = Vec::new();
            for s in 0..topo.num_modules() {
                for d in 0..topo.num_modules() {
                    want.clear();
                    let (a, b) = (topo.router_of(s), topo.router_of(d));
                    walk_topology(&topo, RoutingKind::DimensionOrder, a, b, 0, &mut want);
                    assert_eq!(table.links(s, d), &want[..], "pair ({s},{d})");
                    assert_eq!(table.hops(s, d), want.len());
                }
            }
        }
    }

    #[test]
    fn policy_tables_match_policy_route_for_all_pairs_and_choices() {
        for topo in [
            Topology::mesh3d(3, 3, 2),
            Topology::mesh2d(4, 3),
            Topology::star_mesh(3, 2, 3),
        ] {
            for kind in [
                RoutingKind::DimensionOrder,
                RoutingKind::O1Turn,
                RoutingKind::Valiant { choices: 4 },
            ] {
                let table = RouteTable::with_policy(&topo, kind);
                assert_eq!(table.kind(), kind);
                assert_eq!(table.num_choices(), kind.choices());
                let mut want = Vec::new();
                for s in 0..topo.num_modules() {
                    for d in 0..topo.num_modules() {
                        for c in 0..kind.choices() {
                            want.clear();
                            let (a, b) = (topo.router_of(s), topo.router_of(d));
                            walk_topology(&topo, kind, a, b, c, &mut want);
                            assert_eq!(
                                table.links_choice(s, d, c),
                                &want[..],
                                "{} pair ({s},{d}) choice {c}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn o1turn_choice_zero_is_dimension_order() {
        let topo = Topology::mesh3d(3, 3, 3);
        let table = RouteTable::with_policy(&topo, RoutingKind::O1Turn);
        let dor = RouteTable::new(&topo);
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                assert_eq!(table.links_choice(s, d, 0), dor.links(s, d));
            }
        }
    }

    #[test]
    fn o1turn_routes_are_minimal() {
        let topo = Topology::mesh3d(3, 3, 3);
        let table = RouteTable::with_policy(&topo, RoutingKind::O1Turn);
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                let min = topo.router_distance(topo.router_of(s), topo.router_of(d));
                for c in 0..table.num_choices() {
                    assert_eq!(table.links_choice(s, d, c).len(), min);
                }
            }
        }
    }

    #[test]
    fn valiant_routes_are_two_dor_legs() {
        let topo = Topology::mesh3d(3, 3, 3);
        let kind = RoutingKind::Valiant { choices: 6 };
        let table = RouteTable::with_policy(&topo, kind);
        let r = topo.num_routers();
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                let (a, b) = (topo.router_of(s), topo.router_of(d));
                for c in 0..kind.choices() {
                    let len = table.links_choice(s, d, c).len();
                    if a == b {
                        assert_eq!(len, 0, "same-router pairs take no detour");
                    } else {
                        let mid = valiant_intermediate(r, a, b, c);
                        assert_eq!(
                            len,
                            topo.router_distance(a, mid) + topo.router_distance(mid, b),
                            "pair ({s},{d}) choice {c} via {mid}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn valiant_choices_diversify_routes() {
        // Across a corner-to-corner pair, the 8 default intermediates must
        // not all collapse onto one route.
        let topo = Topology::mesh3d(4, 4, 4);
        let table = RouteTable::with_policy(&topo, RoutingKind::valiant());
        let distinct: std::collections::HashSet<Vec<u32>> = (0..table.num_choices())
            .map(|c| table.links_choice(0, 63, c).to_vec())
            .collect();
        assert!(
            distinct.len() > 2,
            "only {} distinct routes",
            distinct.len()
        );
    }

    #[test]
    fn route_choice_is_deterministic_and_in_range() {
        for choices in [1usize, 2, 6, 8] {
            for packet in 0..200u64 {
                let a = route_choice(0xDE5, packet, 3, 40, choices);
                let b = route_choice(0xDE5, packet, 3, 40, choices);
                assert_eq!(a, b);
                assert!(a < choices);
            }
        }
        assert_eq!(route_choice(1, 2, 3, 4, 1), 0);
    }

    #[test]
    fn route_hashes_are_pinned() {
        // Literal values: every randomized route, and so every table and
        // DES result under O1TURN, Valiant or RLB, follows from these.
        assert_eq!(route_choice(0xDE5, 0, 3, 40, 8), 2);
        assert_eq!(route_choice(1, 2, 3, 4, 1_000_003), 295_908);
        assert_eq!(route_choice(7, 123_456, 511, 0, 1 << 30), 618_078_153);
        assert_eq!(route_choice(u64::MAX, u64::MAX, 5, 58, 999_983), 82_428);
        assert_eq!(valiant_intermediate(64, 0, 63, 0), 54);
        assert_eq!(valiant_intermediate(1_000_000, 5, 40, 7), 984_023);
        assert_eq!(valiant_intermediate(512, 511, 0, 3), 389);
        assert_eq!(valiant_intermediate(1 << 30, 13, 13, 2), 738_184_260);
        assert_eq!(rlb_intermediate([0, 3, 1], [3, 0, 3], 0), [1, 1, 3]);
        assert_eq!(rlb_intermediate([0, 3, 1], [3, 0, 3], 5), [2, 3, 1]);
        assert_eq!(rlb_intermediate([7, 0, 2], [0, 7, 5], 3), [5, 6, 2]);
        assert_eq!(rlb_intermediate([1, 1, 1], [6, 2, 1], 7), [5, 2, 1]);
        assert_eq!(
            rlb_intermediate([0, 5000, 17], [1_000_000, 0, 2_000_000], 11),
            [613_802, 400, 617_564]
        );
    }

    #[test]
    fn route_choice_spreads_over_choices() {
        let choices = 6;
        let mut counts = vec![0usize; choices];
        for packet in 0..6_000u64 {
            counts[route_choice(7, packet, 5, 58, choices)] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            // Expect ~1000 per bin; allow a generous band.
            assert!((700..1300).contains(&n), "choice {c} drawn {n} times");
        }
    }

    #[test]
    fn rlb_routes_are_minimal_two_dor_legs() {
        // The RLB intermediate lives in the src–dst bounding box, so the
        // two legs sum to exactly the Manhattan distance — unlike plain
        // Valiant, which detours.
        let topo = Topology::mesh3d(4, 4, 4);
        let kind = RoutingKind::RlbValiant { choices: 6 };
        let table = RouteTable::with_policy(&topo, kind);
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                let min = topo.router_distance(topo.router_of(s), topo.router_of(d));
                for c in 0..kind.choices() {
                    assert_eq!(
                        table.links_choice(s, d, c).len(),
                        min,
                        "pair ({s},{d}) choice {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn rlb_intermediate_stays_in_bounding_box_and_diversifies() {
        let (src, dst) = ([0usize, 3, 1], [3usize, 0, 3]);
        let mut distinct = std::collections::HashSet::new();
        for c in 0..8 {
            let mid = rlb_intermediate(src, dst, c);
            for dim in 0..3 {
                let lo = src[dim].min(dst[dim]);
                let hi = src[dim].max(dst[dim]);
                assert!((lo..=hi).contains(&mid[dim]), "choice {c} dim {dim}");
            }
            distinct.insert(mid);
        }
        assert!(distinct.len() > 2, "only {} distinct mids", distinct.len());
        // Degenerate box: the intermediate is pinned.
        assert_eq!(rlb_intermediate([2, 2, 2], [2, 2, 2], 5), [2, 2, 2]);
    }

    #[test]
    fn adaptive_table_is_the_dimension_order_escape() {
        let topo = Topology::mesh3d(3, 3, 3);
        let adaptive = RouteTable::with_policy(&topo, RoutingKind::Adaptive);
        let dor = RouteTable::new(&topo);
        assert_eq!(adaptive.kind(), RoutingKind::Adaptive);
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                assert_eq!(adaptive.links(s, d), dor.links(s, d));
            }
        }
    }

    #[test]
    fn adaptive_network_fixes_vc_from_displacement_signs() {
        assert_eq!(adaptive_network([0, 0, 0], [3, 2, 1]), 0); // +y, +z
        assert_eq!(adaptive_network([0, 2, 0], [3, 0, 1]), 1); // -y, +z
        assert_eq!(adaptive_network([0, 0, 2], [3, 2, 1]), 2); // +y, -z
        assert_eq!(adaptive_network([0, 2, 2], [3, 0, 1]), 3); // -y, -z
                                                               // Finished dimensions join the + side.
        assert_eq!(adaptive_network([1, 1, 1], [0, 1, 1]), 0);
        assert!(adaptive_network([0, 9, 9], [0, 0, 0]) < 4);
    }

    #[test]
    fn safe_vc_counts() {
        assert_eq!(RoutingKind::DimensionOrder.safe_vcs(), 1);
        assert_eq!(RoutingKind::O1Turn.safe_vcs(), 6);
        assert_eq!(RoutingKind::valiant().safe_vcs(), 2);
        assert_eq!(RoutingKind::rlb().safe_vcs(), 2);
        assert_eq!(RoutingKind::Adaptive.safe_vcs(), 4);
    }

    #[test]
    fn routing_kind_parses_and_validates() {
        assert_eq!(RoutingKind::parse("dor"), Some(RoutingKind::DimensionOrder));
        assert_eq!(RoutingKind::parse("xyz"), Some(RoutingKind::DimensionOrder));
        assert_eq!(RoutingKind::parse("o1turn"), Some(RoutingKind::O1Turn));
        assert_eq!(RoutingKind::parse("valiant"), Some(RoutingKind::valiant()));
        assert_eq!(
            RoutingKind::parse("valiant:3"),
            Some(RoutingKind::Valiant { choices: 3 })
        );
        assert_eq!(RoutingKind::parse("valiant:x"), None);
        assert_eq!(RoutingKind::parse("nope"), None);
        assert_eq!(RoutingKind::parse("rlb"), Some(RoutingKind::rlb()));
        assert_eq!(
            RoutingKind::parse("rlb:4"),
            Some(RoutingKind::RlbValiant { choices: 4 })
        );
        assert_eq!(RoutingKind::parse("rlb:x"), None);
        assert_eq!(RoutingKind::parse("adaptive"), Some(RoutingKind::Adaptive));

        assert!(RoutingKind::DimensionOrder.problem().is_none());
        assert!(RoutingKind::O1Turn.problem().is_none());
        assert!(RoutingKind::Adaptive.problem().is_none());
        assert!(RoutingKind::rlb().problem().is_none());
        assert!(RoutingKind::Valiant { choices: 0 }.problem().is_some());
        assert!(RoutingKind::Valiant { choices: 9999 }.problem().is_some());
        assert!(RoutingKind::RlbValiant { choices: 0 }.problem().is_some());
        assert!(RoutingKind::RlbValiant { choices: 9999 }
            .problem()
            .is_some());

        assert_eq!(RoutingKind::DimensionOrder.choices(), 1);
        assert_eq!(RoutingKind::O1Turn.choices(), 6);
        assert_eq!(RoutingKind::Valiant { choices: 3 }.choices(), 3);
        assert_eq!(RoutingKind::RlbValiant { choices: 3 }.choices(), 3);
        assert_eq!(RoutingKind::Adaptive.choices(), 1);
    }

    #[test]
    fn route_table_same_router_pair_is_empty() {
        let t = Topology::star_mesh(4, 4, 4);
        let table = RouteTable::new(&t);
        assert!(table.links(0, 1).is_empty());
        assert!(table.router_links_choice(2, 2, 0).is_empty());
        let valiant = RouteTable::with_policy(&t, RoutingKind::valiant());
        for c in 0..valiant.num_choices() {
            assert!(valiant.links_choice(0, 1, c).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_table_rejects_bad_router() {
        let t = Topology::mesh2d(2, 2);
        RouteTable::new(&t).router_links_choice(0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_table_rejects_bad_choice() {
        let t = Topology::mesh2d(2, 2);
        RouteTable::new(&t).router_links_choice(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "invalid routing policy")]
    fn zero_choice_valiant_table_panics() {
        RouteTable::with_policy(&Topology::mesh2d(2, 2), RoutingKind::Valiant { choices: 0 });
    }
}
