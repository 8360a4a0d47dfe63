//! System configuration types: chip stacks, boards and the multi-board box.
//!
//! The paper's vision (§I): chip stacks with up to millions of processing
//! elements, several stacks per 10 cm × 10 cm board, 4–5 boards per litre —
//! "a billion processors in a liter" — connected by direct wireless
//! board-to-board links instead of a backplane.

use serde::{Deserialize, Serialize};
use wi_ldpc::ber::SearchConfig;
use wi_ldpc::decoder::CheckRule;
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_linkbudget::budget::Beamforming;
use wi_linkbudget::datarate::Polarization;
use wi_noc::des::traffic::TrafficKind;
use wi_noc::des::{DesConfig, FaultConfig};
use wi_noc::icdb::HybridBoards;
use wi_noc::routing::RoutingKind;
use wi_noc::topology::Topology;

/// A 3D chip stack: stacked dies with a Network-in-Chip-Stack (§IV).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StackConfig {
    /// Cores per die along x.
    pub cores_x: usize,
    /// Cores per die along y.
    pub cores_y: usize,
    /// Number of stacked dies (the z dimension of the 3D mesh).
    pub layers: usize,
    /// Modules concentrated per router (1 = plain 3D mesh, >1 = ciliated).
    pub concentration: usize,
    /// NoC clock in GHz (converts cycles to wall-clock latency).
    pub clock_ghz: f64,
}

impl StackConfig {
    /// The paper's 64-module reference stack: 4×4×4 3D mesh at 1 GHz.
    pub fn paper_64() -> Self {
        StackConfig {
            cores_x: 4,
            cores_y: 4,
            layers: 4,
            concentration: 1,
            clock_ghz: 1.0,
        }
    }

    /// The paper's 512-module scaling point: 8×8×8 3D mesh.
    pub fn paper_512() -> Self {
        StackConfig {
            cores_x: 8,
            cores_y: 8,
            layers: 8,
            concentration: 1,
            clock_ghz: 1.0,
        }
    }

    /// Total modules in the stack.
    pub fn cores(&self) -> usize {
        self.cores_x * self.cores_y * self.layers * self.concentration
    }

    /// Builds the intra-stack NoC topology.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn topology(&self) -> Topology {
        if self.concentration > 1 {
            Topology::ciliated_mesh3d(self.cores_x, self.cores_y, self.layers, self.concentration)
        } else {
            Topology::mesh3d(self.cores_x, self.cores_y, self.layers)
        }
    }
}

/// A printed circuit board carrying a grid of chip stacks with wireless
/// nodes on the interposer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoardConfig {
    /// Stacks along x.
    pub stacks_x: usize,
    /// Stacks along y.
    pub stacks_y: usize,
    /// Stack grid pitch in metres.
    pub pitch_m: f64,
}

impl BoardConfig {
    /// The paper's 10 cm × 10 cm board with a 3×3 grid of stacks.
    pub fn paper_10cm() -> Self {
        BoardConfig {
            stacks_x: 3,
            stacks_y: 3,
            pitch_m: 0.033,
        }
    }

    /// Stacks on the board.
    pub fn stacks(&self) -> usize {
        self.stacks_x * self.stacks_y
    }
}

/// Physical-layer configuration of the wireless board-to-board links (§II).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WirelessLinkConfig {
    /// Carrier frequency in Hz (paper: 200 GHz band, measured 220–245 GHz).
    pub carrier_hz: f64,
    /// Signal bandwidth in Hz (paper: 25 GHz).
    pub bandwidth_hz: f64,
    /// Transmit power per link in dBm.
    pub tx_power_dbm: f64,
    /// Array-weight realization (beamsteering or Butler matrix).
    pub beamforming: Beamforming,
    /// Polarization multiplexing.
    pub polarization: Polarization,
    /// Receiver / modulation model used to map SNR to spectral efficiency.
    pub receiver: ReceiverModel,
}

impl WirelessLinkConfig {
    /// The paper's design point: 232.5 GHz carrier, 25 GHz bandwidth,
    /// 0 dBm transmit power, beamsteering, dual polarization, 1-bit
    /// oversampled sequence receiver.
    pub fn paper_default() -> Self {
        WirelessLinkConfig {
            carrier_hz: 232.5e9,
            bandwidth_hz: 25e9,
            tx_power_dbm: 0.0,
            beamforming: Beamforming::Beamsteering,
            polarization: Polarization::Dual,
            receiver: ReceiverModel::OneBitSequence,
        }
    }
}

/// How SNR maps to spectral efficiency per polarization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiverModel {
    /// 1-bit, 5× oversampled receiver with the sequence-optimal designed
    /// ISI filter (§III, the paper's proposal).
    OneBitSequence,
    /// 1-bit, 5× oversampled receiver with symbol-by-symbol detection.
    OneBitSymbolwise,
    /// Ideal Shannon capacity (upper-bound reference).
    Shannon,
}

/// NoC simulation workload: how the discrete-event cross-validation of
/// the §IV queueing results is driven (traffic pattern, routing policy,
/// replication count, link faults).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NocWorkloadConfig {
    /// Destination pattern of injected packets.
    pub traffic: TrafficKind,
    /// Routing policy (dimension-order, O1TURN, Valiant, minimal-quadrant
    /// RLB, or congestion-adaptive).
    pub routing: RoutingKind,
    /// Independent DES replications per operating point (error bars).
    pub replications: usize,
    /// Injection rate for single-point cross-checks (packets/cycle/module).
    pub injection_rate: f64,
    /// Per-link fault injection + ARQ recovery (inert by default; the
    /// co-simulation layer [`crate::cosim`] derives a non-trivial model
    /// from the link budget and a measured FER curve).
    pub fault: FaultConfig,
}

impl NocWorkloadConfig {
    /// The paper's evaluation setup: uniform traffic, exponential service
    /// (matching the analytic M/M/1 model), 3 replications, λ = 0.1.
    pub fn paper_default() -> Self {
        NocWorkloadConfig {
            traffic: TrafficKind::Uniform,
            routing: RoutingKind::DimensionOrder,
            replications: 3,
            injection_rate: 0.1,
            fault: FaultConfig::default(),
        }
    }

    /// The [`DesConfig`] this workload implies at its single-point rate.
    pub fn des_config(&self, seed: u64) -> DesConfig {
        DesConfig {
            injection_rate: self.injection_rate,
            traffic: self.traffic,
            routing: self.routing,
            fault: self.fault,
            seed,
            ..DesConfig::default()
        }
    }
}

/// Error-correction configuration (§V).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodingConfig {
    /// Lifting factor `N` of the (4,8)-regular LDPC-CC.
    pub lifting: usize,
    /// Window size `W` of the decoder.
    pub window: usize,
    /// Belief-propagation iterations per window position.
    pub iterations: usize,
    /// Check-node update rule: exact sum-product, the φ-table variant
    /// (sum-product accuracy at a multiple of its speed), or the
    /// hardware-faithful normalized min-sum an on-chip decoder would run.
    pub check_rule: CheckRule,
    /// Required-Eb/N0 search: strategy (bisection ladder, CI-pruned
    /// concurrent bisection, or paired grid), bracket and grid.
    pub search: SearchConfig,
}

impl CodingConfig {
    /// The paper's 3 dB operating point: N = 40, W = 5 → 200 information
    /// bits of structural latency, with 50 sum-product iterations and
    /// the bit-identical bisection search.
    pub fn paper_default() -> Self {
        CodingConfig {
            lifting: 40,
            window: 5,
            iterations: 50,
            check_rule: CheckRule::SumProduct,
            search: SearchConfig::default(),
        }
    }

    /// Structural latency of the window decoder in information bits
    /// (Eq. 4 with nv = 2, R = 1/2).
    pub fn structural_latency_bits(&self) -> f64 {
        self.window as f64 * self.lifting as f64 * 2.0 * 0.5
    }

    /// Window decoder implied by this coding setup.
    pub fn window_decoder(&self) -> WindowDecoder {
        WindowDecoder::new(self.window, self.iterations).with_rule(self.check_rule)
    }

    /// The terminated coupled code this configuration describes, built
    /// with the Fig. 10 conventions (termination length 20, lifting
    /// seed `0xCC00 + N` — the same code `fig10_latency_ebn0` sweeps).
    pub fn coupled_code(&self) -> CoupledCode {
        CoupledCode::paper_cc(self.lifting, 20, 0xCC00 + self.lifting as u64)
    }
}

/// The full multi-board system.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of parallel boards in the box.
    pub boards: usize,
    /// Board-to-board spacing in metres (paper lower bound: 50 mm).
    pub board_spacing_m: f64,
    /// Per-board stack layout.
    pub board: BoardConfig,
    /// Per-stack compute/NoC configuration.
    pub stack: StackConfig,
    /// Wireless link physical layer.
    pub link: WirelessLinkConfig,
    /// Error-correction coding.
    pub coding: CodingConfig,
    /// NoC simulation workload (traffic pattern / replications).
    pub noc: NocWorkloadConfig,
}

impl SystemConfig {
    /// The paper's reference system: 4 boards at 50 mm spacing, 3×3 stacks
    /// of 64 cores each, 232.5 GHz links, LDPC-CC coding.
    pub fn paper_default() -> Self {
        SystemConfig {
            boards: 4,
            board_spacing_m: 0.05,
            board: BoardConfig::paper_10cm(),
            stack: StackConfig::paper_64(),
            link: WirelessLinkConfig::paper_default(),
            coding: CodingConfig::paper_default(),
            noc: NocWorkloadConfig::paper_default(),
        }
    }

    /// Total cores in the box.
    pub fn total_cores(&self) -> usize {
        self.boards * self.board.stacks() * self.stack.cores()
    }

    /// The box as a hybrid wired+wireless interconnect: each board is
    /// one wired mesh tiling its stack grid router-for-router
    /// (`stacks_x·cores_x × stacks_y·cores_y × layers`), and boards are
    /// chained along x by wireless express links with one radio site per
    /// stack row ([`HybridBoards::with_radio_count`]). The result's
    /// [`HybridBoards::route_table`] drives the unchanged DES/analytic
    /// stack.
    ///
    /// # Panics
    ///
    /// Panics if any board or stack dimension is zero.
    pub fn hybrid_boards(&self) -> HybridBoards {
        let dims = [
            self.board.stacks_x * self.stack.cores_x,
            self.board.stacks_y * self.stack.cores_y,
            self.stack.layers,
        ];
        HybridBoards::with_radio_count(self.boards, dims, self.board.stacks_y)
    }

    /// Validates the configuration, returning a list of human-readable
    /// problems (empty when valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.boards == 0 {
            problems.push("system needs at least one board".into());
        }
        if self.board_spacing_m <= 0.0 {
            problems.push("board spacing must be positive".into());
        }
        if self.board.stacks() == 0 {
            problems.push("board needs at least one stack".into());
        }
        if self.stack.cores() == 0 {
            problems.push("stack needs at least one core".into());
        }
        if self.stack.clock_ghz <= 0.0 {
            problems.push("NoC clock must be positive".into());
        }
        if self.link.bandwidth_hz <= 0.0 || self.link.carrier_hz <= 0.0 {
            problems.push("link carrier and bandwidth must be positive".into());
        }
        // Lifting draws a distinct circulant shift for each parallel
        // edge, and the protograph's largest multiplicity is B₀'s 2.
        if self.coding.lifting < 2 {
            problems.push(format!(
                "lifting factor {} is below 2, the largest edge multiplicity of the \
                 protograph (B0 = [2, 2])",
                self.coding.lifting
            ));
        }
        if self.coding.window < 3 {
            problems.push("window must exceed the coupling memory (mcc = 2)".into());
        }
        if self.coding.iterations == 0 {
            problems.push("decoder needs at least one iteration".into());
        }
        if let Some(problem) = self.coding.check_rule.problem() {
            problems.push(problem);
        }
        for problem in self.coding.search.problems() {
            problems.push(format!("Eb/N0 search: {problem}"));
        }
        if self.noc.replications == 0 {
            problems.push("NoC workload needs at least one replication".into());
        }
        if self.noc.injection_rate <= 0.0 {
            problems.push("NoC injection rate must be positive".into());
        }
        if let Some(problem) = self.noc.traffic.problem(self.stack.cores()) {
            problems.push(format!("NoC traffic: {problem}"));
        }
        if let Some(problem) = self.noc.routing.problem() {
            problems.push(format!("NoC routing: {problem}"));
        }
        for problem in self.noc.fault.problems() {
            problems.push(format!("NoC fault model: {problem}"));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SystemConfig::paper_default();
        assert!(cfg.validate().is_empty(), "{:?}", cfg.validate());
        assert_eq!(cfg.total_cores(), 4 * 9 * 64);
    }

    #[test]
    fn stack_topologies() {
        let flat = StackConfig::paper_64();
        assert_eq!(flat.topology().num_modules(), 64);
        let cil = StackConfig {
            concentration: 2,
            ..StackConfig::paper_64()
        };
        assert_eq!(cil.cores(), 128);
        assert_eq!(cil.topology().num_modules(), 128);
        assert_eq!(cil.topology().num_routers(), 64);
    }

    #[test]
    fn lifting_below_the_protograph_multiplicity_is_rejected() {
        for lifting in [0, 1] {
            let mut cfg = SystemConfig::paper_default();
            cfg.coding.lifting = lifting;
            let problems = cfg.validate();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(
                problems[0].contains(&format!("lifting factor {lifting} is below 2")),
                "{problems:?}"
            );
        }
        // The smallest valid lifting builds its code.
        let mut cfg = SystemConfig::paper_default();
        cfg.coding.lifting = 2;
        assert!(cfg.validate().is_empty(), "{:?}", cfg.validate());
        assert_eq!(cfg.coding.coupled_code().lifting(), 2);
    }

    #[test]
    fn system_hybrid_boards_tile_the_stack_grid() {
        let cfg = SystemConfig::paper_default();
        let hybrid = cfg.hybrid_boards();
        assert_eq!(hybrid.boards(), 4);
        assert_eq!(hybrid.board_dims(), [12, 12, 4]);
        // One wired router per core in the box.
        assert_eq!(hybrid.topology().num_modules(), cfg.total_cores());
        // One radio site per stack row, chained across the 3 board gaps.
        assert_eq!(hybrid.radios().len(), 3);
        assert_eq!(hybrid.num_radio_links(), 2 * 3 * 3);
    }

    #[test]
    fn coding_latency_matches_eq4() {
        let c = CodingConfig::paper_default();
        assert_eq!(c.structural_latency_bits(), 200.0);
    }

    #[test]
    fn coding_config_builds_decoders() {
        let c = CodingConfig::paper_default();
        let wd = c.window_decoder();
        assert_eq!(wd.window, 5);
        assert_eq!(wd.iterations, 50);
        assert_eq!(wd.check_rule, CheckRule::SumProduct);
        assert!(!wd.reuse_messages);
        let minsum = CodingConfig {
            check_rule: CheckRule::min_sum(),
            ..c
        };
        assert_eq!(minsum.window_decoder().check_rule, CheckRule::min_sum());
        assert_eq!(
            minsum.structural_latency_bits(),
            c.structural_latency_bits()
        );
    }

    #[test]
    fn validation_catches_problems() {
        let mut cfg = SystemConfig::paper_default();
        cfg.boards = 0;
        cfg.coding.window = 2;
        let problems = cfg.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validation_catches_decoder_problems() {
        let mut cfg = SystemConfig::paper_default();
        cfg.coding.iterations = 0;
        cfg.coding.check_rule = CheckRule::MinSum { alpha: 1.5 };
        let problems = cfg.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
        cfg.coding.iterations = 50;
        cfg.coding.check_rule = CheckRule::SumProductTable { bits: 40 };
        let problems = cfg.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("bits"), "{problems:?}");
    }

    #[test]
    fn validation_catches_search_problems() {
        use wi_ldpc::ber::SearchStrategy;
        let mut cfg = SystemConfig::paper_default();
        assert_eq!(cfg.coding.search.strategy, SearchStrategy::Bisection);
        cfg.coding.search.grid_points = 1;
        let problems = cfg.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("Eb/N0 search"), "{problems:?}");
        cfg.coding.search = SearchConfig {
            strategy: SearchStrategy::PairedGrid,
            ..SearchConfig::default()
        };
        assert!(cfg.validate().is_empty());
    }

    #[test]
    fn validation_reports_every_problem_at_once() {
        // A sweep spec with several bad axes must fail with all of them
        // listed in one shot, not one-per-rerun.
        let mut cfg = SystemConfig::paper_default();
        cfg.coding.search.tol_db = -1.0;
        cfg.coding.search.grid_points = 1;
        cfg.noc.routing = RoutingKind::Valiant { choices: 5000 };
        cfg.noc.fault.stuck_fraction = 2.0;
        cfg.noc.fault.arq.backoff = 0.5;
        let problems = cfg.validate();
        assert_eq!(problems.len(), 5, "{problems:?}");
        let search = problems.iter().filter(|p| p.contains("Eb/N0")).count();
        assert_eq!(search, 2, "{problems:?}");
        let routing = problems.iter().filter(|p| p.contains("routing")).count();
        assert_eq!(routing, 1, "{problems:?}");
        let fault = problems.iter().filter(|p| p.contains("fault")).count();
        assert_eq!(fault, 2, "all fault problems at once: {problems:?}");
    }

    #[test]
    fn scaling_point_512() {
        assert_eq!(StackConfig::paper_512().cores(), 512);
    }

    #[test]
    fn noc_workload_builds_sim_configs() {
        let w = NocWorkloadConfig::paper_default();
        let des = w.des_config(0xD0);
        assert_eq!(des.injection_rate, 0.1);
        assert_eq!(des.traffic, TrafficKind::Uniform);
        assert_eq!(des.routing, RoutingKind::DimensionOrder);
        assert_eq!(des.seed, 0xD0);
        let randomized = NocWorkloadConfig {
            routing: RoutingKind::valiant(),
            ..w
        };
        assert_eq!(randomized.des_config(1).routing, RoutingKind::valiant());
    }

    #[test]
    fn validation_catches_noc_workload_problems() {
        let mut cfg = SystemConfig::paper_default();
        cfg.noc.replications = 0;
        cfg.noc.injection_rate = 0.0;
        cfg.noc.traffic = TrafficKind::Hotspot {
            node: 9_999,
            fraction: 0.2,
        };
        cfg.noc.routing = RoutingKind::Valiant { choices: 0 };
        cfg.noc.fault = FaultConfig::uniform(2.0);
        let problems = cfg.validate();
        assert_eq!(problems.len(), 5, "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("NoC fault model")),
            "{problems:?}"
        );
    }

    #[test]
    fn adaptive_workload_is_valid() {
        // The simulators size its VCs from the policy, so no count can
        // be wrong.
        let mut cfg = SystemConfig::paper_default();
        cfg.noc.routing = RoutingKind::Adaptive;
        assert!(cfg.validate().is_empty(), "{:?}", cfg.validate());
    }

    #[test]
    fn workload_fault_config_reaches_the_des() {
        let w = NocWorkloadConfig {
            fault: FaultConfig::uniform(0.05),
            ..NocWorkloadConfig::paper_default()
        };
        assert_eq!(w.des_config(1).fault, FaultConfig::uniform(0.05));
    }
}
