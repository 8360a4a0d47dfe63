//! End-to-end system evaluation: geometry → pathloss → link budget → SNR →
//! spectral efficiency → link rate, plus NoC and coding latency.
//!
//! This is the integration layer that turns the paper's four sections into
//! one pipeline: §II supplies pathloss and the budget, §III the SNR-to-rate
//! map of the 1-bit receiver, §IV the intra-stack network latency and §V
//! the coding latency. The output is what a system architect would ask of
//! the proposal: aggregate cross-board bandwidth and end-to-end latency.

use crate::config::{ReceiverModel, SystemConfig};
use serde::{Deserialize, Serialize};
use wi_channel::pathloss::PathlossModel;
use wi_linkbudget::budget::LinkBudget;
use wi_linkbudget::datarate::modulated_rate_bps;
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_num::db::SPEED_OF_LIGHT;
use wi_quantrx::info_rate::{
    sequence_information_rate, snr_db_to_sigma, symbolwise_information_rate, SequenceRateOptions,
};
use wi_quantrx::modulation::AskModulation;
use wi_quantrx::presets;
use wi_quantrx::trellis::ChannelTrellis;

/// Report for one wireless board-to-board link.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Link description ("ahead" / "diagonal").
    pub name: String,
    /// Antenna-to-antenna distance in metres.
    pub distance_m: f64,
    /// Pathloss in dB.
    pub pathloss_db: f64,
    /// SNR at the receiver in dB.
    pub snr_db: f64,
    /// Spectral efficiency in bits per channel use (per polarization).
    pub spectral_efficiency: f64,
    /// Link data rate in Gbit/s (all polarizations).
    pub rate_gbps: f64,
}

/// Full system evaluation report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Total cores in the box.
    pub total_cores: usize,
    /// Per-link reports (ahead and worst-case diagonal).
    pub links: Vec<LinkReport>,
    /// Aggregate bandwidth of all simultaneously active board-to-board
    /// links, Gbit/s (one ahead link per facing stack pair per board gap).
    pub aggregate_cross_board_gbps: f64,
    /// Zero-load intra-stack NoC latency in cycles.
    pub noc_zero_load_cycles: f64,
    /// Intra-stack NoC saturation injection rate, flits/cycle/module.
    pub noc_saturation_rate: f64,
    /// Structural coding latency in information bits (Eq. 4).
    pub coding_latency_bits: f64,
    /// End-to-end one-way latency estimate in nanoseconds: NoC traversal +
    /// coding wait at the link rate + propagation.
    pub end_to_end_latency_ns: f64,
}

/// Evaluates a system configuration.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`SystemConfig::validate`]).
pub fn evaluate(config: &SystemConfig) -> SystemReport {
    let problems = config.validate();
    assert!(problems.is_empty(), "invalid configuration: {problems:?}");

    let [ahead, diagonal] = extreme_links(config).map(|(name, distance, budget)| {
        let snr_db = budget.snr_db_at(config.link.tx_power_dbm);
        let se = spectral_efficiency(config.link.receiver, snr_db);
        let rate = modulated_rate_bps(config.link.bandwidth_hz, se, config.link.polarization) / 1e9;
        LinkReport {
            name: name.to_string(),
            distance_m: distance,
            pathloss_db: budget.pathloss_db,
            snr_db,
            spectral_efficiency: se,
            rate_gbps: rate,
        }
    });

    // NoC analysis of one stack.
    let topo = config.stack.topology();
    let noc = AnalyticModel::new(&topo, RouterParams::default());
    let noc_zero_load = noc.zero_load_latency();
    let noc_sat = noc.saturation_rate();

    // Aggregate: every facing stack pair in every board gap runs one ahead
    // link concurrently (the backplane-offload claim of §I).
    let gaps = config.boards.saturating_sub(1);
    let aggregate = gaps as f64 * config.board.stacks() as f64 * ahead.rate_gbps;

    // End-to-end latency: source NoC traversal, coding structural wait at
    // the *worst* link rate, propagation, destination NoC traversal.
    let clock_hz = config.stack.clock_ghz * 1e9;
    let noc_ns = 2.0 * noc_zero_load / clock_hz * 1e9;
    let worst_rate_bps = diagonal.rate_gbps.min(ahead.rate_gbps) * 1e9;
    let coding_bits = config.coding.structural_latency_bits();
    let coding_ns = if worst_rate_bps > 0.0 {
        coding_bits / worst_rate_bps * 1e9
    } else {
        f64::INFINITY
    };
    let propagation_ns = diagonal.distance_m / SPEED_OF_LIGHT * 1e9;

    SystemReport {
        total_cores: config.total_cores(),
        links: vec![ahead, diagonal],
        aggregate_cross_board_gbps: aggregate,
        noc_zero_load_cycles: noc_zero_load,
        noc_saturation_rate: noc_sat,
        coding_latency_bits: coding_bits,
        end_to_end_latency_ns: noc_ns + coding_ns + propagation_ns,
    }
}

/// The two extreme board-to-board links of §II.B, `[ahead, diagonal]`,
/// as `(name, distance in metres, budget)`: the ahead link spans the
/// board spacing, the diagonal reaches the farthest stack on the facing
/// board. Both are free-space budgets at the configured bandwidth, and
/// only the worst-case diagonal takes the configured beamforming.
/// [`evaluate`] and [`crate::cosim::link_class_ebn0`] both price their
/// links here, so the two cannot drift apart.
pub(crate) fn extreme_links(config: &SystemConfig) -> [(&'static str, f64, LinkBudget); 2] {
    let model = PathlossModel::free_space(config.link.carrier_hz);
    let dx = (config.board.stacks_x - 1) as f64 * config.board.pitch_m;
    let dy = (config.board.stacks_y - 1) as f64 * config.board.pitch_m;
    let diag = (dx * dx + dy * dy + config.board_spacing_m * config.board_spacing_m).sqrt();
    let link = |name, distance: f64, worst_case: bool| {
        let mut budget = LinkBudget::from_model(&model, distance);
        budget.bandwidth_hz = config.link.bandwidth_hz;
        if worst_case {
            budget.beamforming = config.link.beamforming;
        }
        (name, distance, budget)
    };
    [
        link("ahead", config.board_spacing_m, false),
        link("diagonal", diag, true),
    ]
}

/// Maps receiver model and SNR to spectral efficiency in bits per channel
/// use (per polarization).
pub fn spectral_efficiency(receiver: ReceiverModel, snr_db: f64) -> f64 {
    match receiver {
        ReceiverModel::Shannon => (1.0 + 10f64.powf(snr_db / 10.0)).log2(),
        ReceiverModel::OneBitSymbolwise => {
            let trellis =
                ChannelTrellis::new(&AskModulation::four_ask(), &presets::symbolwise_filter());
            symbolwise_information_rate(&trellis, snr_db_to_sigma(snr_db))
        }
        ReceiverModel::OneBitSequence => {
            let trellis =
                ChannelTrellis::new(&AskModulation::four_ask(), &presets::sequence_filter());
            sequence_information_rate(
                &trellis,
                snr_db_to_sigma(snr_db),
                SequenceRateOptions {
                    num_symbols: 20_000,
                    seed: 0x5E0,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WirelessLinkConfig;

    fn fast_config() -> SystemConfig {
        // Symbolwise receiver: exact and fast for unit tests.
        SystemConfig {
            link: WirelessLinkConfig {
                receiver: ReceiverModel::OneBitSymbolwise,
                tx_power_dbm: 10.0,
                ..WirelessLinkConfig::paper_default()
            },
            ..SystemConfig::paper_default()
        }
    }

    #[test]
    fn report_structure_is_sane() {
        let r = evaluate(&fast_config());
        assert_eq!(r.total_cores, 2304);
        assert_eq!(r.links.len(), 2);
        assert!(r.links[0].distance_m < r.links[1].distance_m);
        assert!(r.aggregate_cross_board_gbps > 0.0);
        assert!(r.end_to_end_latency_ns.is_finite());
    }

    #[test]
    fn diagonal_link_is_weaker() {
        let r = evaluate(&fast_config());
        let ahead = &r.links[0];
        let diag = &r.links[1];
        assert!(diag.pathloss_db > ahead.pathloss_db);
        assert!(diag.snr_db < ahead.snr_db);
        // Note: with the 1-bit receiver the *rate* need not be monotone in
        // SNR (fixed-filter rates peak and then settle), so rate ordering
        // is only guaranteed for the Shannon receiver.
        let mut shannon = fast_config();
        shannon.link.receiver = ReceiverModel::Shannon;
        let rs = evaluate(&shannon);
        assert!(rs.links[1].rate_gbps <= rs.links[0].rate_gbps);
    }

    #[test]
    fn more_tx_power_helps() {
        let mut weak = fast_config();
        weak.link.tx_power_dbm = -10.0;
        let mut strong = fast_config();
        strong.link.tx_power_dbm = 15.0;
        let rw = evaluate(&weak);
        let rs = evaluate(&strong);
        assert!(rs.links[0].snr_db > rw.links[0].snr_db);
        assert!(rs.links[0].rate_gbps >= rw.links[0].rate_gbps);
    }

    #[test]
    fn shannon_dominates_one_bit() {
        for snr in [0.0, 10.0, 25.0] {
            let sh = spectral_efficiency(ReceiverModel::Shannon, snr);
            let ob = spectral_efficiency(ReceiverModel::OneBitSymbolwise, snr);
            assert!(sh + 1e-9 >= ob, "snr {snr}: {sh} vs {ob}");
        }
    }

    #[test]
    fn paper_target_rate_is_reachable() {
        // At the paper's design point (high SNR, dual-pol, 25 GHz), the
        // link should carry on the order of 100 Gbit/s.
        let mut cfg = fast_config();
        cfg.link.tx_power_dbm = 20.0;
        let r = evaluate(&cfg);
        assert!(
            r.links[0].rate_gbps > 60.0,
            "ahead rate {}",
            r.links[0].rate_gbps
        );
    }

    #[test]
    fn aggregate_scales_with_boards() {
        let mut small = fast_config();
        small.boards = 2;
        let mut large = fast_config();
        large.boards = 5;
        let rs = evaluate(&small);
        let rl = evaluate(&large);
        assert!((rl.aggregate_cross_board_gbps / rs.aggregate_cross_board_gbps - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn invalid_config_panics() {
        let mut cfg = fast_config();
        cfg.boards = 0;
        evaluate(&cfg);
    }
}
