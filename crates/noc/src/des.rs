//! Discrete-event NoC simulation.
//!
//! Ref \[14\] validates its analytic queueing model against simulation;
//! this module plays that role here. It simulates the same system the
//! analytic model describes — Poisson packet injection, oblivious routes
//! (dimension-order by default; O1TURN/Valiant/RLB via
//! [`crate::routing::RoutingKind`]), one FIFO server per directed link
//! plus one per ejection port, and a fixed pipeline delay per traversed
//! router — so the two can be compared number-for-number in tests and
//! benches.
//!
//! The module is organised like the PR-1 decoder stack:
//!
//! * [`engine`] — the arena-based event engine: packets in a recycled
//!   slab, events packed into integer-keyed heap entries, and each
//!   packet stepping its [`crate::routing::RouteProgram`] hop by hop —
//!   no route table, unless the engine is built around one for an
//!   irregular topology; zero allocation in the steady-state loop.
//! * [`mod@reference`] — the original per-event-allocating simulator,
//!   retained as the correctness oracle (bit-identical to the engine
//!   under uniform traffic; pinned by tests).
//! * [`traffic`] — the destination patterns (uniform, hotspot,
//!   transpose, bit-reversal, nearest-neighbour), one
//!   [`traffic::TrafficKind`] variant each, all seed-deterministic.
//! * [`mod@sweep`] — multi-replication latency-vs-rate sweeps fanned out by
//!   `wi_num::par::ordered`, bit-identical at any thread count, reporting
//!   mean/stderr/saturation-knee per rate.
//! * [`fault`] — per-link error injection ([`fault::LinkErrorModel`]) and
//!   ARQ recovery ([`fault::ArqConfig`]): seed-deterministic per-hop
//!   corruption decided by pure hashes (never the engine RNG), bounded
//!   retries with timeout + backoff, and a drop path — inert by default,
//!   and bit-identical to the fault-free simulation at error rate 0.
//!
//! [`simulate`] is the one-shot entry point: it builds an [`Engine`] and
//! runs it once.

pub mod engine;
pub mod fault;
pub mod reference;
pub mod sweep;
pub mod traffic;

use crate::routing::RoutingKind;
use serde::{Deserialize, Serialize};
use traffic::TrafficKind;

pub use engine::{simulate, Engine};
pub use fault::{ArqConfig, FaultConfig, LinkErrorModel};
pub use sweep::{
    sweep, sweep_engine, sweep_engine_with_threads, sweep_policies, sweep_with_threads, RatePoint,
    SweepConfig, SweepResult,
};

/// Simulation configuration.
///
/// Router timing is
/// [`RouterParams::default`](crate::analytic::RouterParams::default)
/// (the analytic model's calibration) with exponential link service, so
/// the simulated network is the M/M/1 network the analytic model prices.
/// The adaptive policy's per-(link, VC) clocks hold the policy's
/// deadlock-safe minimum of virtual channels
/// ([`RoutingKind::safe_vcs`]); the deadlock-freedom contract for that
/// count lives in `wi_noc::deadlock` and `tests/properties.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Packet injection rate per module (packets/cycle).
    pub injection_rate: f64,
    /// Destination pattern of the injected packets.
    pub traffic: TrafficKind,
    /// Routing policy: packets step its route programs
    /// ([`crate::routing::RouteProgram`]); multi-route policies pick per
    /// packet via the deterministic [`crate::routing::route_choice`] hash.
    pub routing: RoutingKind,
    /// Packets to deliver before measurement starts.
    pub warmup_packets: usize,
    /// Packets measured after warmup.
    pub measured_packets: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard event-count limit; the run reports `completed = false` when the
    /// network cannot drain the offered load within it.
    pub max_events: u64,
    /// Per-link fault injection and ARQ recovery. The default is inert
    /// and reproduces the fault-free simulation bit for bit (pinned by
    /// the `zero_error_model_is_bit_identical_to_baseline` test).
    pub fault: FaultConfig,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            injection_rate: 0.1,
            traffic: TrafficKind::Uniform,
            routing: RoutingKind::DimensionOrder,
            warmup_packets: 2_000,
            measured_packets: 20_000,
            seed: 0xDE5,
            max_events: 50_000_000,
            fault: FaultConfig::default(),
        }
    }
}

/// Simulation outcome.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesResult {
    /// Mean end-to-end packet latency in cycles (injection to ejection
    /// completion) over the measured packets.
    pub mean_latency: f64,
    /// Standard error of the mean latency.
    pub stderr: f64,
    /// Measured packets actually delivered.
    pub delivered: usize,
    /// Measured packets dropped after exhausting their ARQ retries
    /// (always 0 with the default inert [`FaultConfig`]).
    pub dropped: usize,
    /// Retransmissions scheduled over the whole run, warmup included.
    pub retries: u64,
    /// Retransmissions charged to the single most-retried link — the
    /// stuck-link signature.
    pub worst_link_retries: u64,
    /// False when the event limit was hit before every measured packet
    /// resolved (delivered or dropped) — a saturation symptom.
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{AnalyticModel, RouterParams};
    use crate::topology::Topology;

    fn quick(rate: f64, seed: u64) -> DesConfig {
        DesConfig {
            injection_rate: rate,
            warmup_packets: 1_000,
            measured_packets: 8_000,
            seed,
            ..DesConfig::default()
        }
    }

    #[test]
    fn engine_matches_reference_for_default_config() {
        // The arena engine must be bit-identical to the retained reference
        // simulator for the default uniform/exponential configuration.
        for topo in [Topology::mesh2d(4, 4), Topology::mesh3d(3, 3, 3)] {
            for seed in [1u64, 42, 0xDE5] {
                let cfg = DesConfig {
                    seed,
                    ..DesConfig::default()
                };
                let old = reference::simulate(&topo, &cfg);
                let new = simulate(&topo, &cfg);
                assert_eq!(old, new, "seed {seed} diverged on {:?}", topo.kind());
            }
        }
    }

    #[test]
    #[should_panic(expected = "uniform traffic only, not transpose")]
    fn reference_rejects_a_non_uniform_pattern() {
        let cfg = DesConfig {
            traffic: TrafficKind::Transpose,
            ..DesConfig::default()
        };
        reference::simulate(&Topology::mesh3d(4, 4, 4), &cfg);
    }

    #[test]
    fn engine_matches_reference_under_all_routing_policies() {
        // The route programs and the per-packet route-choice hash must
        // keep the arena engine bit-identical to the naive oracle (which
        // re-materializes the chosen route per packet) for every policy.
        for kind in [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::valiant(),
            RoutingKind::Valiant { choices: 3 },
            RoutingKind::rlb(),
            RoutingKind::RlbValiant { choices: 3 },
            RoutingKind::Adaptive,
        ] {
            for topo in [Topology::mesh2d(4, 4), Topology::mesh3d(3, 3, 3)] {
                for seed in [1u64, 42, 0xDE5] {
                    let cfg = DesConfig {
                        routing: kind,
                        seed,
                        ..quick(0.2, seed)
                    };
                    let old = reference::simulate(&topo, &cfg);
                    let new = simulate(&topo, &cfg);
                    assert_eq!(
                        old,
                        new,
                        "{} seed {seed} diverged on {:?}",
                        kind.name(),
                        topo.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_routing_stays_minimal_at_low_load() {
        // With every queue idle the adaptive tie-break picks a fixed
        // productive link per hop, so routes stay minimal and low-load
        // latency must sit within a few percent of dimension-order's.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = quick(0.05, 11);
        let dor = simulate(&topo, &base).mean_latency;
        let ada = simulate(
            &topo,
            &DesConfig {
                routing: RoutingKind::Adaptive,
                ..base
            },
        )
        .mean_latency;
        assert!(
            (ada - dor).abs() / dor < 0.10,
            "adaptive {ada} vs dor {dor} at low load"
        );
    }

    #[test]
    fn randomized_routing_changes_latency_but_stays_sane() {
        // Valiant detours lengthen low-load paths; O1Turn stays minimal,
        // so its low-load latency must stay close to dimension-order's.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = quick(0.05, 11);
        let dor = simulate(&topo, &base).mean_latency;
        let o1 = simulate(
            &topo,
            &DesConfig {
                routing: RoutingKind::O1Turn,
                ..base
            },
        )
        .mean_latency;
        let val = simulate(
            &topo,
            &DesConfig {
                routing: RoutingKind::valiant(),
                ..base
            },
        )
        .mean_latency;
        assert!(val > dor, "valiant {val} must detour past dor {dor}");
        assert!(
            (o1 - dor).abs() / dor < 0.10,
            "o1turn {o1} vs dor {dor} at low load"
        );
    }

    #[test]
    fn engine_matches_reference_under_overload() {
        // The event-limit bailout path must stay pinned too.
        let topo = Topology::mesh2d(8, 8);
        let cfg = DesConfig {
            max_events: 200_000,
            ..quick(2.0, 5)
        };
        assert_eq!(reference::simulate(&topo, &cfg), simulate(&topo, &cfg));
    }

    #[test]
    fn matches_analytic_at_low_load() {
        let topo = Topology::mesh2d(4, 4);
        let analytic = AnalyticModel::new(&topo, RouterParams::default());
        let want = analytic.mean_latency(0.05).expect("below saturation");
        let got = simulate(&topo, &quick(0.05, 1)).mean_latency;
        assert!(
            (got - want).abs() / want < 0.08,
            "DES {got:.2} vs analytic {want:.2}"
        );
    }

    #[test]
    fn matches_analytic_at_medium_load() {
        let topo = Topology::mesh2d(4, 4);
        let analytic = AnalyticModel::new(&topo, RouterParams::default());
        let rate = 0.25; // ~half of the 4x4 saturation
        let want = analytic.mean_latency(rate).expect("below saturation");
        let got = simulate(&topo, &quick(rate, 2)).mean_latency;
        assert!(
            (got - want).abs() / want < 0.12,
            "DES {got:.2} vs analytic {want:.2}"
        );
    }

    #[test]
    fn saturation_rate_agrees_with_analytic() {
        // Sweep the 4×4 mesh across the analytic saturation rate: the
        // DES knee must land within 20 % of the analytic prediction.
        let topo = Topology::mesh2d(4, 4);
        let sat = AnalyticModel::new(&topo, RouterParams::default()).saturation_rate();
        let rates: Vec<f64> = [0.55, 0.7, 0.85, 1.0, 1.15, 1.3]
            .iter()
            .map(|&f| f * sat)
            .collect();
        let cfg = SweepConfig::new(
            rates,
            2,
            DesConfig {
                warmup_packets: 1_000,
                measured_packets: 8_000,
                max_events: 2_000_000,
                seed: 0x5A7,
                ..DesConfig::default()
            },
        );
        let knee = sweep(&topo, &cfg)
            .saturation_knee
            .expect("sweep crosses saturation");
        assert!(
            (knee - sat).abs() / sat <= 0.20,
            "DES knee {knee:.3} vs analytic saturation {sat:.3}"
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let topo = Topology::mesh3d(3, 3, 3);
        let lo = simulate(&topo, &quick(0.05, 4)).mean_latency;
        let hi = simulate(&topo, &quick(0.5, 4)).mean_latency;
        assert!(hi > lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let topo = Topology::mesh2d(4, 4);
        let a = simulate(&topo, &quick(0.1, 9));
        let b = simulate(&topo, &quick(0.1, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn overload_reports_incomplete() {
        let topo = Topology::mesh2d(8, 8);
        // 2.0 packets/cycle/module is far beyond saturation (~0.41).
        let cfg = DesConfig {
            max_events: 200_000,
            ..quick(2.0, 5)
        };
        let r = simulate(&topo, &cfg);
        assert!(!r.completed);
    }

    #[test]
    fn star_mesh_local_traffic_is_fast() {
        // Pairs sharing a router skip the mesh entirely, so star-mesh
        // latency at low load is below the 2D mesh of equal module count.
        let star = simulate(&Topology::star_mesh(4, 4, 4), &quick(0.02, 6));
        let mesh = simulate(&Topology::mesh2d(8, 8), &quick(0.02, 6));
        assert!(star.mean_latency < mesh.mean_latency);
    }

    #[test]
    fn nonuniform_traffic_changes_latency() {
        // Patterns reshape the load; with the same seed and rate the
        // measured latencies must differ from uniform, and locality must
        // win: nearest-neighbour traffic beats uniform.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = quick(0.2, 31);
        let uniform = simulate(&topo, &base);
        let neighbor = simulate(
            &topo,
            &DesConfig {
                traffic: TrafficKind::NearestNeighbor,
                ..base
            },
        );
        assert!(
            neighbor.mean_latency < uniform.mean_latency,
            "neighbor {} vs uniform {}",
            neighbor.mean_latency,
            uniform.mean_latency
        );
        let transpose = simulate(
            &topo,
            &DesConfig {
                traffic: TrafficKind::Transpose,
                ..base
            },
        );
        assert_ne!(transpose.mean_latency, uniform.mean_latency);
    }

    /// All routing kinds the fault tests cycle through.
    const ALL_ROUTING: [RoutingKind; 6] = [
        RoutingKind::DimensionOrder,
        RoutingKind::O1Turn,
        RoutingKind::Valiant { choices: 2 },
        RoutingKind::Valiant { choices: 3 },
        RoutingKind::RlbValiant { choices: 2 },
        RoutingKind::Adaptive,
    ];

    /// A fault config exercising every mechanism at once: heterogeneous
    /// link classes, stuck links, tight ARQ.
    fn everything_fault() -> FaultConfig {
        FaultConfig {
            model: LinkErrorModel::EdgeCenter {
                edge_p: 0.08,
                center_p: 0.02,
            },
            stuck_fraction: 0.1,
            stuck_p: 0.6,
            arq: ArqConfig {
                max_retries: 3,
                timeout: 5.0,
                backoff: 2.0,
            },
        }
    }

    #[test]
    fn zero_error_model_is_bit_identical_to_baseline() {
        // The pinned graceful-degradation contract: an *active* fault
        // layer whose probabilities are all zero must leave the engine
        // output byte-identical to today's fault-free `with_routing`
        // path — 3 seeds x 2 topologies x all routing kinds.
        let zero = FaultConfig {
            model: LinkErrorModel::Uniform { p: 0.0 },
            ..FaultConfig::default()
        };
        for topo in [Topology::mesh2d(4, 4), Topology::mesh3d(3, 3, 3)] {
            for kind in ALL_ROUTING {
                for seed in [1u64, 42, 0xDE5] {
                    let base = DesConfig {
                        routing: kind,
                        ..quick(0.2, seed)
                    };
                    let with_zero = DesConfig {
                        fault: zero,
                        ..base
                    };
                    let plain = Engine::with_routing(&topo, kind).run(&base);
                    let faulty = Engine::with_routing(&topo, kind).run(&with_zero);
                    assert_eq!(
                        plain,
                        faulty,
                        "p=0 diverged: {} seed {seed} on {:?}",
                        kind.name(),
                        topo.kind()
                    );
                    assert_eq!(plain.dropped, 0);
                    assert_eq!(plain.retries, 0);
                }
            }
        }
        // Same for the heterogeneous model at (0, 0).
        let zero_hetero = FaultConfig {
            model: LinkErrorModel::EdgeCenter {
                edge_p: 0.0,
                center_p: 0.0,
            },
            ..FaultConfig::default()
        };
        let topo = Topology::mesh2d(4, 4);
        let base = quick(0.2, 42);
        assert_eq!(
            simulate(&topo, &base),
            simulate(
                &topo,
                &DesConfig {
                    fault: zero_hetero,
                    ..base
                }
            )
        );
    }

    #[test]
    fn engine_matches_reference_under_faults() {
        // The bit-identical oracle contract must survive corruption,
        // retries and drops, for every routing policy.
        for fault in [FaultConfig::uniform(0.05), everything_fault()] {
            for topo in [Topology::mesh2d(4, 4), Topology::mesh3d(3, 3, 3)] {
                for kind in ALL_ROUTING {
                    for seed in [1u64, 42, 0xDE5] {
                        let cfg = DesConfig {
                            routing: kind,
                            fault,
                            ..quick(0.2, seed)
                        };
                        let old = reference::simulate(&topo, &cfg);
                        let new = simulate(&topo, &cfg);
                        assert_eq!(
                            old,
                            new,
                            "{} model {} seed {seed} diverged on {:?}",
                            kind.name(),
                            fault.model.name(),
                            topo.kind()
                        );
                        assert!(new.retries > 0, "faults must cause retries");
                    }
                }
            }
        }
    }

    #[test]
    fn engine_matches_reference_when_faults_drop_packets() {
        // max_retries = 0 drops on the first corruption: the drop path
        // and the resolved-packet termination must stay pinned too.
        let fault = FaultConfig {
            arq: ArqConfig {
                max_retries: 0,
                timeout: 5.0,
                backoff: 1.0,
            },
            ..FaultConfig::uniform(0.2)
        };
        let topo = Topology::mesh3d(3, 3, 3);
        for seed in [7u64, 19] {
            let cfg = DesConfig {
                fault,
                ..quick(0.15, seed)
            };
            let old = reference::simulate(&topo, &cfg);
            let new = simulate(&topo, &cfg);
            assert_eq!(old, new, "drop path diverged at seed {seed}");
            assert!(new.dropped > 0, "p=0.2 with no retries must drop");
            assert!(new.completed);
            assert_eq!(new.delivered + new.dropped, cfg.measured_packets);
        }
    }

    #[test]
    fn faulty_engine_is_reusable() {
        // Arena reuse must not leak fault state (attempt counters,
        // per-link tables) between runs.
        let topo = Topology::mesh2d(4, 4);
        let faulty = DesConfig {
            fault: everything_fault(),
            ..quick(0.2, 3)
        };
        let clean = quick(0.2, 3);
        let mut engine = Engine::new(&topo);
        let a = engine.run(&faulty);
        let b = engine.run(&clean);
        let c = engine.run(&faulty);
        assert_eq!(a, c, "fault state leaked across runs");
        assert_eq!(b, Engine::new(&topo).run(&clean), "clean run polluted");
    }

    #[test]
    fn faults_degrade_latency_gracefully() {
        // Retransmissions cost cycles: mean latency must rise with the
        // error probability, and accounting must stay consistent.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = quick(0.1, 17);
        let clean = simulate(&topo, &base);
        let mild = simulate(
            &topo,
            &DesConfig {
                fault: FaultConfig::uniform(0.02),
                ..base
            },
        );
        let harsh = simulate(
            &topo,
            &DesConfig {
                fault: FaultConfig::uniform(0.15),
                ..base
            },
        );
        assert!(clean.mean_latency < mild.mean_latency);
        assert!(mild.mean_latency < harsh.mean_latency);
        assert!(mild.retries < harsh.retries);
        assert!(harsh.worst_link_retries > 0);
        assert!(harsh.worst_link_retries <= harsh.retries);
    }

    #[test]
    fn stuck_links_concentrate_retries() {
        // With a clean base model and a few stuck-bad links, the worst
        // link must absorb a disproportionate share of retries.
        let topo = Topology::mesh2d(4, 4);
        let cfg = DesConfig {
            fault: FaultConfig {
                stuck_fraction: 0.05,
                stuck_p: 0.5,
                ..FaultConfig::default()
            },
            ..quick(0.2, 23)
        };
        let r = simulate(&topo, &cfg);
        assert!(r.retries > 0, "stuck links must retry");
        // 48 directed links at fraction 0.05 -> ~2 stuck; the worst one
        // should carry well over the uniform share of the retries.
        assert!(
            r.worst_link_retries * 8 > r.retries,
            "worst link {} of {} total",
            r.worst_link_retries,
            r.retries
        );
        assert_eq!(reference::simulate(&topo, &cfg), r);
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn bad_fault_config_panics() {
        simulate(
            &Topology::mesh2d(2, 2),
            &DesConfig {
                fault: FaultConfig::uniform(1.5),
                ..DesConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "injection rate must be positive")]
    fn zero_rate_panics() {
        let topo = Topology::mesh2d(2, 2);
        simulate(
            &topo,
            &DesConfig {
                injection_rate: 0.0,
                ..DesConfig::default()
            },
        );
    }
}
