//! Synthetic traffic patterns for the discrete-event simulator.
//!
//! The paper's §IV evaluation (and the analytic model of ref \[14\]) is
//! uniform-random only, but multichip-interconnect studies routinely
//! stress NoCs with a battery of synthetic patterns — hotspot, transpose,
//! bit-reversal, nearest-neighbour — because adversarial spatial locality
//! moves the saturation point far from the uniform prediction. Each of
//! those patterns is one variant of [`TrafficKind`], plain (serde) data
//! that configuration types and CLI flags carry directly, and its
//! [`TrafficPattern`] impl draws the destinations.
//!
//! Every pattern is **seed-deterministic**: destinations depend only on
//! the source module, the [`Topology`] and draws from the caller's seeded
//! RNG, so a simulation with a fixed seed is reproducible regardless of
//! pattern. The topology already holds every index a pattern reads — the
//! module→router map, grid coordinates and the router adjacency — so
//! `dest()` is allocation-free and nothing is built per engine.
//! [`TrafficKind::Uniform`] consumes the RNG in exactly the order the
//! pre-refactor simulator did, which is what lets the arena engine stay
//! bit-identical to [`crate::des::reference`] under the default
//! configuration.

use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A destination generator: maps a source module to a destination module,
/// drawing any required randomness from the caller's seeded RNG.
pub trait TrafficPattern {
    /// Short lowercase name (CLI / table labels).
    fn name(&self) -> &'static str;

    /// Picks the destination module for a packet injected at `src` on
    /// `topo`.
    ///
    /// Must return a module in range and different from `src`.
    fn dest(&self, src: usize, topo: &Topology, rng: &mut StdRng) -> usize;
}

/// Uniform destination over all modules except the source — drawn with
/// the exact RNG-consumption order of the pre-refactor simulator.
fn uniform_excluding(src: usize, n: usize, rng: &mut StdRng) -> usize {
    let mut dst = rng.gen_range(0..n - 1);
    if dst >= src {
        dst += 1;
    }
    dst
}

/// A destination pattern, for configuration types and CLI flags; its
/// [`TrafficPattern`] impl draws the destinations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum TrafficKind {
    /// Uniform-random traffic: every other module is equally likely
    /// (the paper's §IV assumption).
    #[default]
    Uniform,
    /// Hotspot traffic: with probability `fraction` the packet targets
    /// the hotspot module, otherwise a uniform destination (a
    /// shared-memory controller or I/O port in one corner of the stack).
    Hotspot {
        /// The hotspot module.
        node: usize,
        /// Probability that a packet targets the hotspot.
        fraction: f64,
    },
    /// Matrix-transpose traffic: the module at router `(x, y, z)` sends
    /// to the router at `(y, x, z)` (coordinates folded into the grid
    /// when the mesh is not square), keeping the same local module index.
    /// Diagonal sources fall back to a uniform draw.
    Transpose,
    /// Bit-reversal traffic: module `m` sends to the module whose index
    /// is the bit-reversal of `m` in `ceil(log2 N)` bits — the classic
    /// adversarial pattern for dimension-order routing. Fixed points and
    /// out-of-range reversals fall back to a uniform draw.
    BitReversal,
    /// Nearest-neighbour traffic: destinations are confined to modules on
    /// an adjacent router (picked uniformly), modelling tightly blocked
    /// stencil workloads. Isolated routers fall back to a uniform draw.
    NearestNeighbor,
}

impl TrafficKind {
    /// Parses a CLI spelling: `uniform`, `hotspot` (node 0, fraction 0.1),
    /// `hotspot:<node>:<fraction>`, `transpose`, `bitrev`, `neighbor`.
    pub fn parse(s: &str) -> Option<TrafficKind> {
        match s {
            "uniform" => Some(TrafficKind::Uniform),
            "hotspot" => Some(TrafficKind::Hotspot {
                node: 0,
                fraction: 0.1,
            }),
            "transpose" => Some(TrafficKind::Transpose),
            "bitrev" | "bitreversal" => Some(TrafficKind::BitReversal),
            "neighbor" | "nearestneighbor" => Some(TrafficKind::NearestNeighbor),
            _ => {
                let mut parts = s.split(':');
                if parts.next() != Some("hotspot") {
                    return None;
                }
                let node = parts.next()?.parse().ok()?;
                let fraction = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                Some(TrafficKind::Hotspot { node, fraction })
            }
        }
    }

    /// A human-readable configuration problem, if any, for a network of
    /// `n_modules` modules (`None` when valid).
    pub fn problem(&self, n_modules: usize) -> Option<String> {
        match *self {
            TrafficKind::Hotspot { node, fraction } => {
                if node >= n_modules {
                    Some(format!(
                        "hotspot node {node} out of range for {n_modules} modules"
                    ))
                } else if !(0.0..=1.0).contains(&fraction) {
                    Some(format!("hotspot fraction {fraction} outside [0, 1]"))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl TrafficPattern for TrafficKind {
    fn name(&self) -> &'static str {
        match *self {
            TrafficKind::Uniform => "uniform",
            TrafficKind::Hotspot { .. } => "hotspot",
            TrafficKind::Transpose => "transpose",
            TrafficKind::BitReversal => "bitrev",
            TrafficKind::NearestNeighbor => "neighbor",
        }
    }

    fn dest(&self, src: usize, topo: &Topology, rng: &mut StdRng) -> usize {
        let n = topo.num_modules();
        // Modules attach in blocks: router `r` holds `r·c .. r·c + c`.
        let c = topo.concentration();
        match *self {
            TrafficKind::Uniform => uniform_excluding(src, n, rng),
            TrafficKind::Hotspot { node, fraction } => {
                // The biased draw happens unconditionally so the RNG
                // stream does not depend on the source module.
                let u: f64 = rng.gen();
                if u < fraction && node != src && node < n {
                    node
                } else {
                    uniform_excluding(src, n, rng)
                }
            }
            TrafficKind::Transpose => {
                let [nx, ny, _] = topo.dims();
                let [x, y, z] = topo.coord(topo.router_of(src));
                let dst = ((y % nx) + nx * ((x % ny) + ny * z)) * c + src % c;
                if dst == src {
                    uniform_excluding(src, n, rng)
                } else {
                    dst
                }
            }
            TrafficKind::BitReversal => {
                let bits = n.next_power_of_two().trailing_zeros();
                let rev = if bits == 0 {
                    src
                } else {
                    ((src as u64).reverse_bits() >> (64 - bits)) as usize
                };
                if rev >= n || rev == src {
                    uniform_excluding(src, n, rng)
                } else {
                    rev
                }
            }
            TrafficKind::NearestNeighbor => {
                let neighbors = topo.neighbors(topo.router_of(src));
                if neighbors.is_empty() {
                    return uniform_excluding(src, n, rng);
                }
                let router = neighbors[rng.gen_range(0..neighbors.len())] as usize;
                // A second draw only when the router holds several modules.
                if c == 1 {
                    router
                } else {
                    router * c + rng.gen_range(0..c)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_num::rng::seeded_rng;

    fn all_kinds() -> Vec<TrafficKind> {
        vec![
            TrafficKind::Uniform,
            TrafficKind::Hotspot {
                node: 3,
                fraction: 0.3,
            },
            TrafficKind::Transpose,
            TrafficKind::BitReversal,
            TrafficKind::NearestNeighbor,
        ]
    }

    #[test]
    fn destinations_are_in_range_and_never_self() {
        for topo in [
            Topology::mesh2d(4, 4),
            Topology::mesh3d(3, 3, 3),
            Topology::star_mesh(3, 3, 4),
            Topology::mesh2d(5, 3),
        ] {
            let n = topo.num_modules();
            for kind in all_kinds() {
                let mut rng = seeded_rng(17);
                for src in 0..n {
                    for _ in 0..40 {
                        let d = kind.dest(src, &topo, &mut rng);
                        assert!(d < n, "{} produced {d} >= {n}", kind.name());
                        assert_ne!(d, src, "{} produced self-send from {src}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn patterns_are_seed_deterministic() {
        let topo = Topology::mesh3d(3, 3, 3);
        for kind in all_kinds() {
            let mut a = seeded_rng(5);
            let mut b = seeded_rng(5);
            for src in 0..topo.num_modules() {
                assert_eq!(kind.dest(src, &topo, &mut a), kind.dest(src, &topo, &mut b));
            }
        }
    }

    #[test]
    fn uniform_matches_reference_rng_consumption() {
        // The engine's bit-equivalence with des::reference hinges on this
        // exact draw order.
        let topo = Topology::mesh2d(4, 4);
        let n = topo.num_modules();
        let mut a = seeded_rng(11);
        let mut b = seeded_rng(11);
        for src in 0..n {
            let got = TrafficKind::Uniform.dest(src, &topo, &mut a);
            let mut want = b.gen_range(0..n - 1);
            if want >= src {
                want += 1;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let topo = Topology::mesh2d(4, 4);
        let kind = TrafficKind::Hotspot {
            node: 5,
            fraction: 0.5,
        };
        let mut rng = seeded_rng(23);
        let draws = 4_000;
        let hits = (0..draws)
            .filter(|i| kind.dest((i * 7) % 16, &topo, &mut rng) == 5)
            .count();
        let frac = hits as f64 / draws as f64;
        // ~0.5 plus the uniform leak-through, minus src == node cases.
        assert!((0.45..0.62).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let topo = Topology::mesh2d(4, 4);
        let mut rng = seeded_rng(3);
        // Module at (1, 2) is router 1 + 4·2 = 9; transpose is (2, 1) = 6.
        assert_eq!(TrafficKind::Transpose.dest(9, &topo, &mut rng), 6);
        // Diagonal module falls back to uniform (never self).
        let d = TrafficKind::Transpose.dest(5, &topo, &mut rng);
        assert_ne!(d, 5);
    }

    #[test]
    fn bit_reversal_reverses_indices() {
        let topo = Topology::mesh2d(4, 4); // 16 modules, 4 bits
        let mut rng = seeded_rng(3);
        // 0b0001 -> 0b1000.
        assert_eq!(TrafficKind::BitReversal.dest(1, &topo, &mut rng), 8);
        // 0b0011 -> 0b1100.
        assert_eq!(TrafficKind::BitReversal.dest(3, &topo, &mut rng), 12);
        // Palindromic index falls back to uniform (never self).
        assert_ne!(TrafficKind::BitReversal.dest(9, &topo, &mut rng), 9);
    }

    #[test]
    fn nearest_neighbor_stays_adjacent() {
        let topo = Topology::mesh3d(3, 3, 3);
        let mut rng = seeded_rng(29);
        for src in 0..topo.num_modules() {
            for _ in 0..20 {
                let d = TrafficKind::NearestNeighbor.dest(src, &topo, &mut rng);
                assert_eq!(
                    topo.router_distance(topo.router_of(src), topo.router_of(d)),
                    1
                );
            }
        }
    }

    #[test]
    fn kind_parsing_round_trips() {
        assert_eq!(TrafficKind::parse("uniform"), Some(TrafficKind::Uniform));
        assert_eq!(
            TrafficKind::parse("hotspot:7:0.25"),
            Some(TrafficKind::Hotspot {
                node: 7,
                fraction: 0.25
            })
        );
        assert_eq!(TrafficKind::parse("bitrev"), Some(TrafficKind::BitReversal));
        assert_eq!(
            TrafficKind::parse("neighbor"),
            Some(TrafficKind::NearestNeighbor)
        );
        assert_eq!(
            TrafficKind::parse("transpose"),
            Some(TrafficKind::Transpose)
        );
        assert_eq!(TrafficKind::parse("nope"), None);
        assert_eq!(TrafficKind::parse("hotspot:x:0.2"), None);
    }

    #[test]
    fn kind_validation() {
        assert!(TrafficKind::Uniform.problem(64).is_none());
        assert!(TrafficKind::Hotspot {
            node: 70,
            fraction: 0.1
        }
        .problem(64)
        .is_some());
        assert!(TrafficKind::Hotspot {
            node: 0,
            fraction: 1.5
        }
        .problem(64)
        .is_some());
    }
}
