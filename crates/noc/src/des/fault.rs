//! Per-link fault injection and ARQ recovery parameters.
//!
//! The paper's cross-layer claim is that coded wireless links with a
//! *non-zero* residual frame-error rate still yield a viable
//! interconnect. This module gives the DES the vocabulary to test that
//! claim: a [`LinkErrorModel`] assigns every directed link a frame-error
//! probability (uniform, or heterogeneous edge/center classes — boundary
//! antennas see worse channels than center ones), [`FaultConfig`] adds
//! stuck-bad links on top, and [`ArqConfig`] describes the recovery
//! protocol (bounded retries with timeout + multiplicative backoff, then
//! drop). A link's error probability is static for the whole run.
//!
//! # Determinism contract
//!
//! Every fault decision is a **pure hash** of `(seed, identifiers)` — the
//! same discipline as [`crate::routing::route_choice`] — so the engine's
//! RNG stream is untouched by the fault layer:
//!
//! * whether link `l` is stuck-bad: hash of `(seed, l)`;
//! * whether transmission attempt `a` of packet `p` on hop `h` is
//!   corrupted: hash of `(seed, p, h, a)` compared against the link's
//!   error probability.
//!
//! Because no RNG is drawn, a configuration whose probabilities are all
//! zero walks *exactly* the fault-free event sequence: error rate 0 is
//! bit-identical to a run without the fault layer at all (pinned by the
//! `des` module tests). The corruption hash keys off the packet's
//! injection ordinal — stable across the engine's slot recycling — so
//! the arena engine and the naive [`crate::des::reference`] oracle make
//! identical decisions.
//!
//! The retry "timeout event" needs no new event type: a failed attempt
//! schedules the packet's next `Ready` at
//! `finish + timeout · backoff^attempt` in the existing integer-keyed
//! heap, and the per-packet attempt counter in the slab tells the next
//! `Ready` what to do.

use crate::icdb::grid::is_boundary;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use wi_num::rng::mix64;

/// Salt for the stuck-link selection hash.
const STUCK_SALT: u64 = 0x57C4_BAD0_57C4_BAD0;
/// Salt for the per-attempt corruption hash.
const CORRUPT_SALT: u64 = 0xC0FF_EE00_BAD0_B175;

/// Maps arbitrary identifiers through the SplitMix64 finalizer
/// ([`mix64`]) to a unit float in `[0, 1)` — the fault layer's no-RNG
/// decision primitive (same mixing as [`crate::routing::route_choice`]).
fn unit_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let z = mix64(
        seed.wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(c.wrapping_mul(0xA24B_AED4_963E_E407)),
    );
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Unit decision for one transmission attempt: compare against the
/// link's error probability to decide corruption. Pure in
/// `(seed, packet, hop, attempt)` — `packet` is the injection ordinal,
/// `hop` the 0-based hop index along the route, `attempt` the per-hop
/// retry count — so the engine and the reference oracle agree bit for
/// bit and the engine's RNG stream stays untouched.
pub fn corrupt_unit(seed: u64, packet: u64, hop: u32, attempt: u32) -> f64 {
    unit_hash(
        seed ^ CORRUPT_SALT,
        packet,
        ((hop as u64) << 32) | attempt as u64,
        0,
    )
}

/// Per-link frame-error probability model.
///
/// The probabilities are *frame*-error probabilities after decoding —
/// the quantity `wi_ldpc::ber`'s curves measure — applied per link
/// traversal (one frame per hop). `wi_system`'s co-simulation layer
/// builds the heterogeneous variant from the link budget and a measured
/// FER curve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum LinkErrorModel {
    /// No link errors (the fault layer is inert).
    #[default]
    Off,
    /// Every link fails each traversal with probability `p`.
    Uniform {
        /// Per-traversal frame-error probability.
        p: f64,
    },
    /// Heterogeneous link classes: links touching a boundary router of
    /// the mesh (edge antennas — longer, obstructed channels) fail with
    /// `edge_p`, interior links with `center_p`.
    EdgeCenter {
        /// Error probability of links touching a boundary router.
        edge_p: f64,
        /// Error probability of interior links.
        center_p: f64,
    },
}

impl LinkErrorModel {
    /// Short display name of the model.
    pub fn name(&self) -> &'static str {
        match self {
            LinkErrorModel::Off => "off",
            LinkErrorModel::Uniform { .. } => "uniform",
            LinkErrorModel::EdgeCenter { .. } => "edge-center",
        }
    }

    /// Validation: all probabilities must lie in `[0, 1]`.
    pub fn problem(&self) -> Option<String> {
        let bad = |p: f64| !(0.0..=1.0).contains(&p);
        match *self {
            LinkErrorModel::Off => None,
            LinkErrorModel::Uniform { p } => {
                bad(p).then(|| format!("link error probability {p} outside [0, 1]"))
            }
            LinkErrorModel::EdgeCenter { edge_p, center_p } => (bad(edge_p) || bad(center_p))
                .then(|| format!("link error probabilities ({edge_p}, {center_p}) outside [0, 1]")),
        }
    }
}

/// True when either endpoint router of `link` sits on the boundary of
/// the topology's grid — the "edge antenna" class of
/// [`LinkErrorModel::EdgeCenter`].
pub fn is_edge_link(topo: &Topology, link: usize) -> bool {
    let (l, dims) = (topo.links()[link], topo.dims());
    is_boundary(dims, topo.coord(l.src)) || is_boundary(dims, topo.coord(l.dst))
}

/// ARQ recovery parameters: how a corrupted hop is retried.
///
/// A corrupted transmission still occupies its link for the full
/// service time (the receiver only discovers the bad frame after it
/// arrives); the sender then waits `timeout · backoff^attempt` cycles
/// before retransmitting the same hop. After `max_retries` failed
/// attempts the packet is dropped and counted in
/// [`DesResult::dropped`](crate::des::DesResult::dropped).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Retransmissions allowed per hop before the packet is dropped
    /// (0 = drop on the first corruption).
    pub max_retries: u32,
    /// Cycles from the end of a corrupted transmission to its first
    /// retransmission attempt.
    pub timeout: f64,
    /// Multiplicative backoff per successive retry (≥ 1).
    pub backoff: f64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            max_retries: 4,
            timeout: 20.0,
            backoff: 2.0,
        }
    }
}

/// The complete fault-injection configuration of a DES run.
///
/// The default is fully inert ([`LinkErrorModel::Off`], no stuck links)
/// and reproduces the fault-free simulation bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Base per-link error model.
    pub model: LinkErrorModel,
    /// Fraction of links stuck-bad for the whole run (selected by a
    /// pure hash of `(seed, link)`).
    pub stuck_fraction: f64,
    /// Error probability of a stuck-bad link (applied when above the
    /// base model's probability).
    pub stuck_p: f64,
    /// Retry / drop protocol.
    pub arq: ArqConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            model: LinkErrorModel::Off,
            stuck_fraction: 0.0,
            stuck_p: 1.0,
            arq: ArqConfig::default(),
        }
    }
}

impl FaultConfig {
    /// A fully inert configuration (the default).
    pub fn off() -> Self {
        FaultConfig::default()
    }

    /// Uniform per-hop error probability `p` with the default ARQ.
    pub fn uniform(p: f64) -> Self {
        FaultConfig {
            model: LinkErrorModel::Uniform { p },
            ..FaultConfig::default()
        }
    }

    /// True when any fault source is configured. An *active* config with
    /// all probabilities zero still simulates bit-identically to an
    /// inactive one; this is only the engine's fast-path gate.
    pub fn active(&self) -> bool {
        !matches!(self.model, LinkErrorModel::Off) || self.stuck_fraction > 0.0
    }

    /// Validation (mirrors `TrafficKind::problem` / `RoutingKind::problem`),
    /// returning *every* problem (empty when simulatable) so a bad sweep
    /// spec reports all offending fault fields at once.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(p) = self.model.problem() {
            problems.push(p);
        }
        if !(0.0..=1.0).contains(&self.stuck_fraction) {
            problems.push(format!(
                "stuck-link fraction {} outside [0, 1]",
                self.stuck_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.stuck_p) {
            problems.push(format!(
                "stuck-link probability {} outside [0, 1]",
                self.stuck_p
            ));
        }
        if !(self.arq.timeout > 0.0 && self.arq.timeout.is_finite()) {
            problems.push(format!("ARQ timeout {} must be positive", self.arq.timeout));
        }
        if !(self.arq.backoff >= 1.0 && self.arq.backoff.is_finite()) {
            problems.push(format!("ARQ backoff {} must be >= 1", self.arq.backoff));
        }
        problems
    }

    /// The first problem from [`problems`](FaultConfig::problems),
    /// `None` when simulatable.
    pub fn problem(&self) -> Option<String> {
        self.problems().into_iter().next()
    }

    /// Time-independent error probability of `link`: the base model's
    /// class probability, escalated to [`stuck_p`](FaultConfig::stuck_p)
    /// when the `(seed, link)` hash selects the link as stuck-bad.
    pub fn static_link_p(&self, topo: &Topology, link: usize, seed: u64) -> f64 {
        let base = match self.model {
            LinkErrorModel::Off => 0.0,
            LinkErrorModel::Uniform { p } => p,
            LinkErrorModel::EdgeCenter { edge_p, center_p } => {
                if is_edge_link(topo, link) {
                    edge_p
                } else {
                    center_p
                }
            }
        };
        if self.stuck_fraction > 0.0
            && unit_hash(seed ^ STUCK_SALT, link as u64, 0, 0) < self.stuck_fraction
        {
            base.max(self.stuck_p)
        } else {
            base
        }
    }

    /// Retransmission wait after the `attempt`-th failure of a hop
    /// (0-based): `timeout · backoff^attempt`.
    pub fn rto(&self, attempt: u32) -> f64 {
        self.arq.timeout * self.arq.backoff.powi(attempt as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_is_deterministic_and_in_range() {
        for i in 0..200u64 {
            let u = corrupt_unit(0xDE5, i, 3, 1);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, corrupt_unit(0xDE5, i, 3, 1));
        }
        // Different attempts must decorrelate (a retried hop is a fresh coin).
        assert_ne!(corrupt_unit(1, 2, 3, 0), corrupt_unit(1, 2, 3, 1));
        assert_ne!(corrupt_unit(1, 2, 3, 0), corrupt_unit(1, 2, 4, 0));
    }

    #[test]
    fn unit_hash_is_pinned() {
        // Literal values: every stuck-link and corruption decision,
        // and so every faulty DES result, follows from these.
        assert_eq!(unit_hash(0, 1, 0, 0), 0.8833108082136426);
        assert_eq!(unit_hash(0xDE5, 1, 2, 3), 0.4793528931893296);
        assert_eq!(unit_hash(u64::MAX, 7, (1 << 32) | 3, 0), 0.5502218784295961);
        assert_eq!(unit_hash(0x5EED, 1000, 0, 9), 0.5127893094003801);
    }

    #[test]
    fn edge_links_touch_the_boundary() {
        let topo = Topology::mesh2d(4, 4);
        let edges = (0..topo.num_links())
            .filter(|&l| is_edge_link(&topo, l))
            .count();
        // The 4x4 mesh has a 2x2 interior: only links between the four
        // interior routers are center links (4 undirected = 8 directed).
        assert_eq!(topo.num_links() - edges, 8);
    }

    #[test]
    fn mesh3d_has_interior_links() {
        // 4x4x4: interior 2x2x2 block, links among interior routers only.
        let topo = Topology::mesh3d(4, 4, 4);
        let center = (0..topo.num_links())
            .filter(|&l| !is_edge_link(&topo, l))
            .count();
        assert_eq!(center, 24); // 12 undirected interior-cube edges.
    }

    #[test]
    fn static_link_p_applies_classes_and_stuck() {
        let topo = Topology::mesh2d(4, 4);
        let cfg = FaultConfig {
            model: LinkErrorModel::EdgeCenter {
                edge_p: 0.2,
                center_p: 0.01,
            },
            ..FaultConfig::default()
        };
        for l in 0..topo.num_links() {
            let want = if is_edge_link(&topo, l) { 0.2 } else { 0.01 };
            assert_eq!(cfg.static_link_p(&topo, l, 7), want);
        }
        // All links stuck at probability 1.
        let stuck = FaultConfig {
            stuck_fraction: 1.0,
            stuck_p: 1.0,
            ..cfg
        };
        for l in 0..topo.num_links() {
            assert_eq!(stuck.static_link_p(&topo, l, 7), 1.0);
        }
        // A partial fraction selects a seed-dependent strict subset.
        let some = FaultConfig {
            stuck_fraction: 0.25,
            stuck_p: 0.9,
            ..cfg
        };
        let n_stuck = (0..topo.num_links())
            .filter(|&l| some.static_link_p(&topo, l, 7) == 0.9)
            .count();
        assert!(n_stuck > 0 && n_stuck < topo.num_links(), "{n_stuck}");
    }

    #[test]
    fn rto_backs_off_multiplicatively() {
        let cfg = FaultConfig::default(); // timeout 20, backoff 2
        assert_eq!(cfg.rto(0), 20.0);
        assert_eq!(cfg.rto(1), 40.0);
        assert_eq!(cfg.rto(3), 160.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(FaultConfig::off().problem().is_none());
        assert!(FaultConfig::uniform(0.3).problem().is_none());
        assert!(FaultConfig::uniform(1.5).problem().is_some());
        let mut cfg = FaultConfig::uniform(0.1);
        cfg.stuck_fraction = -0.1;
        assert!(cfg.problem().is_some());
        cfg.stuck_fraction = 0.0;
        cfg.arq.timeout = 0.0;
        assert!(cfg.problem().is_some());
        cfg.arq.timeout = 10.0;
        cfg.arq.backoff = 0.5;
        assert!(cfg.problem().is_some());
        cfg.arq.backoff = 1.0;
        assert!(cfg.problem().is_none());
        assert!(cfg.active());
        assert!(!FaultConfig::off().active());
    }
}
