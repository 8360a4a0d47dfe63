//! Stable content hashing of configuration values — the address every
//! sweep-store key derives from.
//!
//! The design-space-exploration service (`wi_sweep`) persists evaluation
//! results keyed by `(config hash, seed, eval hash)`. For a killed sweep
//! to resume exactly — and for two *different* specs that happen to visit
//! the same cell to share one stored result — the hash must be a pure
//! function of the configuration's *semantic content*: independent of
//! process, run, pointer values, and field formatting. `std`'s
//! `DefaultHasher` promises none of that across releases, so this module
//! pins its own primitive: FNV-1a over an explicit, versioned field
//! encoding.
//!
//! Every field is folded with a one-byte tag per primitive kind
//! (u64 / f64-bits / str / enum discriminant), so reordering or
//! retyping a field changes the hash even when the raw bytes collide.
//! Floats hash by `to_bits()` — two configs differing only in `-0.0` vs
//! `+0.0` hash differently, which is the conservative direction for a
//! cache key (a false split costs one re-evaluation; a false merge would
//! serve wrong results).
//!
//! **Versioning:** [`StableHasher::new`] seeds the state with
//! [`HASH_SCHEMA_VERSION`]. Bump that constant whenever a hashed type
//! gains, loses or reorders fields — old store entries then miss (and are
//! recomputed) instead of aliasing a different configuration. Every
//! struct impl destructures `let Self { … }` without `..`, so a field
//! added to a hashed type fails to compile here until it is hashed or
//! skipped by name; the tests pin literal hash values.

use crate::config::{
    BoardConfig, CodingConfig, NocWorkloadConfig, ReceiverModel, StackConfig, SystemConfig,
    WirelessLinkConfig,
};
use wi_ldpc::ber::{SearchConfig, SearchStrategy};
use wi_ldpc::decoder::CheckRule;
use wi_linkbudget::budget::Beamforming;
use wi_linkbudget::datarate::Polarization;
use wi_noc::des::traffic::TrafficKind;
use wi_noc::des::{ArqConfig, BurstModel, FaultConfig, LinkErrorModel, ServiceDistribution};
use wi_noc::routing::RoutingKind;

/// Schema version folded into every hash; bump when any hashed type's
/// field set changes so stale store entries miss instead of aliasing.
pub const HASH_SCHEMA_VERSION: u64 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hasher over an explicitly tagged field encoding.
///
/// Unlike `std::hash::Hasher` implementations, the byte stream fed here
/// is fully specified by this module (kind tags + little-endian values),
/// so the resulting hash is stable across processes, platforms and
/// compiler versions — the property on-disk content addressing needs.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher, seeded with [`HASH_SCHEMA_VERSION`].
    pub fn new() -> Self {
        let mut h = StableHasher { state: FNV_OFFSET };
        h.write_u64(HASH_SCHEMA_VERSION);
        h
    }

    fn write_byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds raw bytes (no kind tag — building block for the typed
    /// writers below).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Folds a `u64` (kind tag 1).
    pub fn write_u64(&mut self, v: u64) {
        self.write_byte(1);
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` as `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by bit pattern (kind tag 2).
    pub fn write_f64(&mut self, v: f64) {
        self.write_byte(2);
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Folds a string: kind tag 3, length, bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_byte(3);
        self.write_bytes(&(s.len() as u64).to_le_bytes());
        self.write_bytes(s.as_bytes());
    }

    /// Folds an enum discriminant (kind tag 4) — always write this
    /// before the variant's payload fields.
    pub fn write_discriminant(&mut self, d: u64) {
        self.write_byte(4);
        self.write_bytes(&d.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A value with a stable, content-addressed hash (see the module docs
/// for the guarantees).
pub trait StableHash {
    /// Folds `self`'s semantic content into `h`.
    fn stable_hash(&self, h: &mut StableHasher);

    /// Convenience: hash `self` alone with a fresh hasher.
    fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        self.stable_hash(&mut h);
        h.finish()
    }
}

impl StableHash for StackConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            cores_x,
            cores_y,
            layers,
            concentration,
            clock_ghz,
        } = *self;
        h.write_usize(cores_x);
        h.write_usize(cores_y);
        h.write_usize(layers);
        h.write_usize(concentration);
        h.write_f64(clock_ghz);
    }
}

impl StableHash for BoardConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            stacks_x,
            stacks_y,
            pitch_m,
        } = *self;
        h.write_usize(stacks_x);
        h.write_usize(stacks_y);
        h.write_f64(pitch_m);
    }
}

impl StableHash for Beamforming {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            Beamforming::Beamsteering => h.write_discriminant(0),
            Beamforming::ButlerMatrix { inaccuracy_db } => {
                h.write_discriminant(1);
                h.write_f64(inaccuracy_db);
            }
        }
    }
}

impl StableHash for Polarization {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_discriminant(match self {
            Polarization::Single => 0,
            Polarization::Dual => 1,
        });
    }
}

impl StableHash for ReceiverModel {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_discriminant(match self {
            ReceiverModel::OneBitSequence => 0,
            ReceiverModel::OneBitSymbolwise => 1,
            ReceiverModel::Shannon => 2,
        });
    }
}

impl StableHash for WirelessLinkConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            carrier_hz,
            bandwidth_hz,
            tx_power_dbm,
            beamforming,
            polarization,
            receiver,
        } = self;
        h.write_f64(*carrier_hz);
        h.write_f64(*bandwidth_hz);
        h.write_f64(*tx_power_dbm);
        beamforming.stable_hash(h);
        polarization.stable_hash(h);
        receiver.stable_hash(h);
    }
}

impl StableHash for CheckRule {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            CheckRule::SumProduct => h.write_discriminant(0),
            CheckRule::SumProductTable { bits } => {
                h.write_discriminant(1);
                h.write_u64(bits as u64);
            }
            CheckRule::MinSum { alpha } => {
                h.write_discriminant(2);
                h.write_f64(alpha);
            }
        }
    }
}

impl StableHash for SearchStrategy {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_discriminant(match self {
            SearchStrategy::Bisection => 0,
            SearchStrategy::ConcurrentBisection => 1,
            SearchStrategy::PairedGrid => 2,
        });
    }
}

impl StableHash for SearchConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            strategy,
            lo_db,
            hi_db,
            tol_db,
            probes_per_round,
            grid_points,
            ci_z,
            max_frames,
        } = self;
        strategy.stable_hash(h);
        h.write_f64(*lo_db);
        h.write_f64(*hi_db);
        h.write_f64(*tol_db);
        h.write_usize(*probes_per_round);
        h.write_usize(*grid_points);
        h.write_f64(*ci_z);
        h.write_u64(*max_frames);
    }
}

impl StableHash for CodingConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            lifting,
            window,
            iterations,
            check_rule,
            search,
        } = self;
        h.write_usize(*lifting);
        h.write_usize(*window);
        h.write_usize(*iterations);
        check_rule.stable_hash(h);
        search.stable_hash(h);
    }
}

impl StableHash for TrafficKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            TrafficKind::Uniform => h.write_discriminant(0),
            TrafficKind::Hotspot { node, fraction } => {
                h.write_discriminant(1);
                h.write_usize(node);
                h.write_f64(fraction);
            }
            TrafficKind::Transpose => h.write_discriminant(2),
            TrafficKind::BitReversal => h.write_discriminant(3),
            TrafficKind::NearestNeighbor => h.write_discriminant(4),
        }
    }
}

impl StableHash for RoutingKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            RoutingKind::DimensionOrder => h.write_discriminant(0),
            RoutingKind::O1Turn => h.write_discriminant(1),
            RoutingKind::Valiant { choices } => {
                h.write_discriminant(2);
                h.write_usize(choices);
            }
            RoutingKind::RlbValiant { choices } => {
                h.write_discriminant(3);
                h.write_usize(choices);
            }
            RoutingKind::Adaptive => h.write_discriminant(4),
        }
    }
}

impl StableHash for ServiceDistribution {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_discriminant(match self {
            ServiceDistribution::Exponential => 0,
            ServiceDistribution::Deterministic => 1,
        });
    }
}

impl StableHash for LinkErrorModel {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            LinkErrorModel::Off => h.write_discriminant(0),
            LinkErrorModel::Uniform { p } => {
                h.write_discriminant(1);
                h.write_f64(p);
            }
            LinkErrorModel::EdgeCenter { edge_p, center_p } => {
                h.write_discriminant(2);
                h.write_f64(edge_p);
                h.write_f64(center_p);
            }
        }
    }
}

impl StableHash for BurstModel {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            BurstModel::Off => h.write_discriminant(0),
            BurstModel::Periodic {
                period,
                duration,
                fraction,
                p,
            } => {
                h.write_discriminant(1);
                h.write_f64(period);
                h.write_f64(duration);
                h.write_f64(fraction);
                h.write_f64(p);
            }
        }
    }
}

impl StableHash for ArqConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            max_retries,
            timeout,
            backoff,
        } = *self;
        h.write_u64(max_retries as u64);
        h.write_f64(timeout);
        h.write_f64(backoff);
    }
}

impl StableHash for FaultConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            model,
            stuck_fraction,
            stuck_p,
            burst,
            arq,
        } = self;
        model.stable_hash(h);
        h.write_f64(*stuck_fraction);
        h.write_f64(*stuck_p);
        burst.stable_hash(h);
        arq.stable_hash(h);
    }
}

impl StableHash for NocWorkloadConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            traffic,
            routing,
            vcs,
            service,
            replications,
            injection_rate,
            fault,
        } = self;
        traffic.stable_hash(h);
        routing.stable_hash(h);
        h.write_usize(*vcs);
        service.stable_hash(h);
        h.write_usize(*replications);
        h.write_f64(*injection_rate);
        fault.stable_hash(h);
    }
}

impl StableHash for SystemConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let Self {
            boards,
            board_spacing_m,
            board,
            stack,
            link,
            coding,
            noc,
        } = self;
        h.write_usize(*boards);
        h.write_f64(*board_spacing_m);
        board.stable_hash(h);
        stack.stable_hash(h);
        link.stable_hash(h);
        coding.stable_hash(h);
        noc.stable_hash(h);
    }
}

impl SystemConfig {
    /// The configuration's stable content hash — the `config` component
    /// of a sweep-store cell key. See the module docs for the stability
    /// contract.
    pub fn config_hash(&self) -> u64 {
        self.content_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_reproducible_and_field_sensitive() {
        let base = SystemConfig::paper_default();
        assert_eq!(base.config_hash(), base.config_hash());
        let mut probes = vec![base.config_hash()];
        let mut boards = base;
        boards.boards = 5;
        probes.push(boards.config_hash());
        let mut tx = base;
        tx.link.tx_power_dbm = -12.0;
        probes.push(tx.config_hash());
        let mut routing = base;
        routing.noc.routing = RoutingKind::Adaptive;
        probes.push(routing.config_hash());
        let mut window = base;
        window.coding.window = 6;
        probes.push(window.config_hash());
        for i in 0..probes.len() {
            for j in (i + 1)..probes.len() {
                assert_ne!(probes[i], probes[j], "probe {i} aliases probe {j}");
            }
        }
    }

    #[test]
    fn transposed_fields_do_not_alias() {
        // The tagged encoding distinguishes (x=4, y=2) from (x=2, y=4).
        let mut a = SystemConfig::paper_default();
        a.stack.cores_x = 4;
        a.stack.cores_y = 2;
        let mut b = SystemConfig::paper_default();
        b.stack.cores_x = 2;
        b.stack.cores_y = 4;
        assert_ne!(a.config_hash(), b.config_hash());
    }

    #[test]
    fn enum_payloads_fold_into_the_hash() {
        let mut a = SystemConfig::paper_default();
        a.noc.routing = RoutingKind::Valiant { choices: 4 };
        let mut b = SystemConfig::paper_default();
        b.noc.routing = RoutingKind::Valiant { choices: 8 };
        assert_ne!(a.config_hash(), b.config_hash());
        let mut c = SystemConfig::paper_default();
        c.noc.fault = FaultConfig::uniform(0.05);
        assert_ne!(a.config_hash(), c.config_hash());
        // A known pinned value guards accidental schema drift: if this
        // fails without a deliberate HASH_SCHEMA_VERSION bump, the
        // encoding changed and every committed store just went stale.
        assert_eq!(
            SystemConfig::paper_default().config_hash(),
            0x5781_773f_ea4f_3d7f
        );
    }
}
