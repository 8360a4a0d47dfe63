//! Multi-replication latency-vs-rate sweeps — the DES version of a
//! Fig. 8 curve, with error bars.
//!
//! A sweep runs `replications` independent simulations at every
//! injection rate and reports the mean, the standard error **across
//! replications**, and the saturation knee of the resulting curve. Every
//! replication derives its own seed from the master seed via
//! [`derive_seed`] (stream = flat task index), so the work can be fanned
//! out across threads in any order and at any thread count while
//! staying **bit-identical** to the serial path — the same contract
//! `wi_ldpc::ber::simulate_ber` keeps for Monte-Carlo BER. The fan-out is
//! [`wi_num::par::ordered`]: workers claim replications one at a time,
//! so a slow near-knee replication holds up only its own worker, and
//! each worker owns one reusable [`Engine`]. Results fold into the
//! per-rate accumulators in task order.
//!
//! The **saturation knee** is the first rate whose point either failed a
//! majority of its replications (event-limit overruns — the DES symptom
//! of an unstable queue) or whose mean latency exceeds `knee_factor`
//! times the latency of the first completed point. Near and above the
//! analytic saturation rate the measured latency grows with the horizon
//! rather than converging, so the factor criterion fires reliably even
//! when short runs still drain within the event budget.

use super::engine::Engine;
use super::DesConfig;
use crate::routing::RoutingKind;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use wi_num::par;
use wi_num::rng::derive_seed;
use wi_num::stats::Running;

/// Configuration of a latency-vs-rate sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Injection rates to simulate (packets/cycle/module).
    pub rates: Vec<f64>,
    /// Independent replications per rate (seeded via
    /// [`derive_seed`] from `base.seed`).
    pub replications: usize,
    /// Template configuration; `injection_rate` and `seed` are overridden
    /// per task.
    pub base: DesConfig,
    /// Latency multiple (over the first completed point) that declares
    /// the saturation knee.
    pub knee_factor: f64,
}

impl SweepConfig {
    /// A sweep over `rates` with `replications` replications of `base`
    /// per rate and the default knee factor of 4.
    pub fn new(rates: Vec<f64>, replications: usize, base: DesConfig) -> Self {
        SweepConfig {
            rates,
            replications,
            base,
            knee_factor: 4.0,
        }
    }

    /// Every problem that would make the sweep report what it did not
    /// measure ([`rates_problem`] and empty budgets; empty when it can run).
    pub fn problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = rates_problem(&self.rates).into_iter().collect();
        if self.replications == 0 {
            problems.push("sweep needs at least one replication".into());
        }
        if self.base.measured_packets == 0 {
            problems.push("measured_packets must be at least 1".into());
        }
        if self.base.max_events == 0 {
            problems.push("max_events must be at least 1".into());
        }
        problems
    }
}

/// The problem with an injection-rate grid, if any: rates must be
/// non-empty, positive, finite and strictly ascending (the knee is read
/// off the grid in order).
pub fn rates_problem(rates: &[f64]) -> Option<String> {
    if rates.is_empty() {
        return Some("rates must hold at least one rate".into());
    }
    if let Some(r) = rates.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
        return Some(format!("rates must be positive and finite, got {r}"));
    }
    let (a, b) = rates.iter().zip(&rates[1..]).find(|(a, b)| a >= b)?;
    Some(format!("rates must ascend strictly, got {a} then {b}"))
}

/// Aggregated replications at one injection rate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Injection rate (packets/cycle/module).
    pub rate: f64,
    /// Mean of the per-replication mean latencies (completed
    /// replications only; 0 when none completed).
    pub mean_latency: f64,
    /// Standard error across the completed replications' means.
    pub stderr: f64,
    /// Replications that drained within the event budget.
    pub completed: usize,
    /// Replications attempted.
    pub replications: usize,
    /// ARQ retransmissions summed over **all** replications at this rate
    /// (0 with the default inert fault config).
    pub retries: u64,
    /// Measured packets dropped, summed over all replications.
    pub dropped: usize,
}

/// Outcome of a sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// One aggregated point per configured rate, in rate order.
    pub points: Vec<RatePoint>,
    /// First rate at which the network shows saturation symptoms (see
    /// module docs), `None` if the whole sweep stays below the knee.
    pub saturation_knee: Option<f64>,
}

/// Runs the sweep, fanning replications out over [`par::threads`]
/// workers. Bit-identical to `sweep_with_threads(topo, config, 1)`.
///
/// # Example
///
/// ```
/// use wi_noc::des::{sweep, DesConfig, SweepConfig};
/// use wi_noc::topology::Topology;
///
/// let topo = Topology::mesh3d(2, 2, 2);
/// let base = DesConfig {
///     warmup_packets: 50,
///     measured_packets: 300,
///     ..DesConfig::default()
/// };
/// let result = sweep(&topo, &SweepConfig::new(vec![0.02, 0.05], 2, base));
/// assert_eq!(result.points.len(), 2);
/// for point in &result.points {
///     // Both rates are far below saturation: every replication drains
///     // and reports a positive latency.
///     assert_eq!(point.completed, point.replications);
///     assert!(point.mean_latency > 0.0);
/// }
/// assert_eq!(result.saturation_knee, None);
/// ```
///
/// # Panics
///
/// See [`sweep_with_threads`].
pub fn sweep(topo: &Topology, config: &SweepConfig) -> SweepResult {
    sweep_with_threads(topo, config, par::threads())
}

/// [`sweep`] with an explicit worker-thread count.
///
/// # Panics
///
/// Panics if the config has a problem ([`SweepConfig::problems`]).
pub fn sweep_with_threads(topo: &Topology, config: &SweepConfig, threads: usize) -> SweepResult {
    // Check the topology's unit steps once; workers clone the prototype,
    // whose packets step their route programs, so no replication builds
    // anything proportional to router pairs.
    let proto = Engine::with_routing(topo, config.base.routing);
    sweep_engine_with_threads(&proto, config, threads)
}

/// Runs the sweep on clones of a caller-built prototype engine, fanning
/// replications out over [`par::threads`] workers — the entry point for
/// engines around custom route tables ([`Engine::with_table`]): pillar
/// meshes and hybrid wired+wireless boards from [`crate::icdb`], whose
/// routes no policy's route programs can step.
///
/// # Panics
///
/// See [`sweep_engine_with_threads`].
pub fn sweep_engine(proto: &Engine, config: &SweepConfig) -> SweepResult {
    sweep_engine_with_threads(proto, config, par::threads())
}

/// [`sweep_engine`] with an explicit worker-thread count. Bit-identical
/// at any thread count, like [`sweep_with_threads`].
///
/// # Panics
///
/// Panics if the config has a problem ([`SweepConfig::problems`]) or
/// `config.base.routing` differs from the prototype's routing policy (a
/// table engine would silently route by program instead of its table —
/// or panic in every worker on topologies the programs cannot route).
pub fn sweep_engine_with_threads(
    proto: &Engine,
    config: &SweepConfig,
    threads: usize,
) -> SweepResult {
    let problems = config.problems().join("; ");
    assert!(problems.is_empty(), "invalid sweep: {problems}");
    assert_eq!(
        proto.routing(),
        config.base.routing,
        "sweep routing policy does not match the prototype engine's policy"
    );

    let reps = config.replications;
    let tasks = config.rates.len() * reps;
    // Per rate: the completed replications' latencies, retries, drops.
    let mut acc = vec![(Running::new(), 0, 0); config.rates.len()];
    // Task `i` is replication `i % reps` of rate `i / reps`, seeded by its
    // flat index; one engine per worker for the whole sweep.
    par::ordered(
        &mut vec![proto.clone(); threads.clamp(1, tasks)],
        tasks,
        |engine, i| {
            engine.run(&DesConfig {
                injection_rate: config.rates[i / reps],
                seed: derive_seed(config.base.seed, i as u64),
                ..config.base
            })
        },
        |i, r| {
            let (latency, retries, dropped) = &mut acc[i / reps];
            if r.completed {
                latency.push(r.mean_latency);
            }
            *retries += r.retries;
            *dropped += r.dropped;
            ControlFlow::Continue(())
        },
    );
    let points: Vec<RatePoint> = config
        .rates
        .iter()
        .zip(acc)
        .map(|(&rate, (latency, retries, dropped))| RatePoint {
            rate,
            mean_latency: latency.mean(),
            stderr: latency.stderr(),
            completed: latency.count() as usize,
            replications: reps,
            retries,
            dropped,
        })
        .collect();

    let baseline = points
        .iter()
        .find(|p| p.completed > 0)
        .map(|p| p.mean_latency);
    let saturation_knee = points
        .iter()
        .find(|p| {
            2 * p.completed < reps
                || baseline
                    .is_some_and(|b| p.completed > 0 && p.mean_latency > config.knee_factor * b)
        })
        .map(|p| p.rate);

    SweepResult {
        points,
        saturation_knee,
    }
}

/// Runs [`sweep`] once per routing policy (`config.base.routing` is
/// overridden), returning the results in policy order — the building
/// block of the policy × traffic saturation-knee matrix the `fig8a`
/// bin prints under `--routing all`.
///
/// # Panics
///
/// See [`sweep_with_threads`]; additionally panics if `policies` is
/// empty.
pub fn sweep_policies(
    topo: &Topology,
    config: &SweepConfig,
    policies: &[RoutingKind],
) -> Vec<(RoutingKind, SweepResult)> {
    assert!(!policies.is_empty(), "sweep needs at least one policy");
    policies
        .iter()
        .map(|&routing| {
            let cfg = SweepConfig {
                base: DesConfig {
                    routing,
                    ..config.base
                },
                ..config.clone()
            };
            (routing, sweep(topo, &cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::traffic::TrafficKind;

    fn quick_base(seed: u64) -> DesConfig {
        DesConfig {
            warmup_packets: 300,
            measured_packets: 3_000,
            max_events: 400_000,
            seed,
            ..DesConfig::default()
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let topo = Topology::mesh2d(4, 4);
        let cfg = SweepConfig::new(vec![0.05, 0.2, 0.5, 0.9], 3, quick_base(0x5EED));
        let serial = sweep_with_threads(&topo, &cfg, 1);
        for threads in [2, 3, 8, 64] {
            let par = sweep_with_threads(&topo, &cfg, threads);
            assert_eq!(serial, par, "thread count {threads} changed the sweep");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_under_randomized_routing() {
        // The per-packet route-choice hash must keep sweeps bit-identical
        // at any thread count for the multi-route policies too.
        let topo = Topology::mesh3d(3, 3, 3);
        for routing in [RoutingKind::O1Turn, RoutingKind::valiant()] {
            let cfg = SweepConfig::new(
                vec![0.05, 0.2, 0.45],
                3,
                DesConfig {
                    routing,
                    ..quick_base(0xB17)
                },
            );
            let serial = sweep_with_threads(&topo, &cfg, 1);
            for threads in [4, 64] {
                let par = sweep_with_threads(&topo, &cfg, threads);
                assert_eq!(
                    serial,
                    par,
                    "{} diverged at {threads} threads",
                    routing.name()
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_under_adaptive_routing() {
        // Adaptive decisions are pure functions of each replication's own
        // queue state, so sweeps must stay bit-identical at any thread
        // count under the congestion-aware policy + VCs too (1/8/64
        // spans serial, partial and over-subscribed fan-out).
        let topo = Topology::mesh3d(3, 3, 3);
        let cfg = SweepConfig::new(
            vec![0.05, 0.2, 0.45],
            3,
            DesConfig {
                routing: RoutingKind::Adaptive,
                traffic: TrafficKind::Transpose,
                ..quick_base(0xADA)
            },
        );
        let serial = sweep_with_threads(&topo, &cfg, 1);
        for threads in [8, 64] {
            let par = sweep_with_threads(&topo, &cfg, threads);
            assert_eq!(serial, par, "adaptive diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_under_faults() {
        // Fault injection and ARQ accounting must stay thread-count
        // invariant: retries/drops are summed in the serial fold.
        use crate::des::fault::{ArqConfig, FaultConfig};
        let topo = Topology::mesh2d(4, 4);
        let cfg = SweepConfig::new(
            vec![0.05, 0.2, 0.45],
            3,
            DesConfig {
                fault: FaultConfig {
                    stuck_fraction: 0.1,
                    stuck_p: 0.4,
                    arq: ArqConfig {
                        max_retries: 2,
                        timeout: 5.0,
                        backoff: 2.0,
                    },
                    ..FaultConfig::uniform(0.05)
                },
                ..quick_base(0xFA17)
            },
        );
        let serial = sweep_with_threads(&topo, &cfg, 1);
        assert!(
            serial.points.iter().all(|p| p.retries > 0),
            "faulty sweep must record retries"
        );
        for threads in [2, 8, 64] {
            let par = sweep_with_threads(&topo, &cfg, threads);
            assert_eq!(serial, par, "thread count {threads} changed faulty sweep");
        }
    }

    #[test]
    fn sweep_engine_matches_sweep_bit_for_bit() {
        // The prototype-engine entry point is the same sweep, so a
        // prototype built from the topology must reproduce `sweep`
        // exactly — including around a prebuilt table (the icdb /
        // hybrid-board path).
        use crate::icdb::ExpandedGrid;
        use crate::routing::RouteTable;
        use std::sync::Arc;
        let topo = Topology::mesh3d(3, 3, 2);
        let cfg = SweepConfig::new(
            vec![0.05, 0.3],
            3,
            DesConfig {
                routing: RoutingKind::O1Turn,
                ..quick_base(0x1CDB)
            },
        );
        let want = sweep(&topo, &cfg);
        let proto = Engine::with_routing(&topo, RoutingKind::O1Turn);
        assert_eq!(sweep_engine(&proto, &cfg), want);
        let (grid, kind) = (ExpandedGrid::mesh3d(3, 3, 2), RoutingKind::O1Turn);
        let table = Arc::new(RouteTable::from_routes(&topo, kind, |a, b, c, out| {
            grid.route_into(kind, a, b, c, out)
        }));
        let tabled = Engine::with_table(&topo, table);
        assert_eq!(sweep_engine_with_threads(&tabled, &cfg, 4), want);
    }

    #[test]
    #[should_panic(expected = "does not match the prototype")]
    fn sweep_engine_rejects_policy_mismatch() {
        let topo = Topology::mesh2d(3, 3);
        let proto = Engine::with_routing(&topo, RoutingKind::O1Turn);
        sweep_engine(&proto, &SweepConfig::new(vec![0.1], 1, quick_base(1)));
    }

    #[test]
    fn sweep_policies_covers_each_policy() {
        let topo = Topology::mesh2d(4, 4);
        let cfg = SweepConfig::new(vec![0.1, 0.3], 2, quick_base(0x90C));
        let policies = [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::Valiant { choices: 4 },
        ];
        let results = sweep_policies(&topo, &cfg, &policies);
        assert_eq!(results.len(), 3);
        for ((kind, result), want) in results.iter().zip(policies) {
            assert_eq!(*kind, want);
            assert_eq!(result.points.len(), 2);
            // Each per-policy sweep must equal a direct sweep at that policy.
            let direct = sweep(
                &topo,
                &SweepConfig {
                    base: DesConfig {
                        routing: want,
                        ..cfg.base
                    },
                    ..cfg.clone()
                },
            );
            assert_eq!(*result, direct, "{}", want.name());
        }
    }

    #[test]
    fn latency_rises_and_knee_appears_past_saturation() {
        // 4×4 mesh saturates around 0.78 (analytic); the sweep's knee must
        // land above the comfortable rates and at or below overload.
        let topo = Topology::mesh2d(4, 4);
        let cfg = SweepConfig::new(vec![0.1, 0.3, 0.5, 1.2, 1.6], 2, quick_base(7));
        let r = sweep(&topo, &cfg);
        assert!(r.points[0].mean_latency < r.points[2].mean_latency);
        assert!(r.points.iter().all(|p| p.replications == 2));
        let knee = r.saturation_knee.expect("overloaded rates must knee");
        assert!(knee > 0.5 && knee <= 1.2, "knee {knee}");
    }

    #[test]
    fn replications_give_nonzero_spread() {
        let topo = Topology::mesh2d(4, 4);
        let cfg = SweepConfig::new(vec![0.3], 4, quick_base(21));
        let r = sweep(&topo, &cfg);
        let p = r.points[0];
        assert_eq!(p.completed, 4);
        assert!(p.stderr > 0.0, "independent replications must differ");
        assert!(p.mean_latency > 0.0);
    }

    #[test]
    fn hotspot_traffic_knees_before_uniform() {
        // 30 % of packets target module 0, so its ejection port saturates
        // near service_rate/0.3 — far below the uniform knee.
        let topo = Topology::mesh2d(4, 4);
        let uniform = SweepConfig::new(vec![0.2, 0.4, 0.6, 0.8], 2, quick_base(9));
        let hotspot = SweepConfig {
            base: DesConfig {
                traffic: TrafficKind::Hotspot {
                    node: 0,
                    fraction: 0.3,
                },
                ..quick_base(9)
            },
            ..uniform.clone()
        };
        let ku = sweep(&topo, &uniform).saturation_knee;
        let kh = sweep(&topo, &hotspot)
            .saturation_knee
            .expect("hotspot must saturate in range");
        assert!(
            ku.is_none_or(|u| kh < u),
            "hotspot knee {kh:?} vs uniform {ku:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rate")]
    fn empty_rates_panic() {
        sweep(
            &Topology::mesh2d(2, 2),
            &SweepConfig::new(vec![], 2, quick_base(1)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panic() {
        sweep(
            &Topology::mesh2d(2, 2),
            &SweepConfig::new(vec![0.1], 0, quick_base(1)),
        );
    }

    #[test]
    #[should_panic(expected = "rates must ascend strictly, got 0.3 then 0.1")]
    fn unsorted_rates_panic() {
        sweep(
            &Topology::mesh2d(2, 2),
            &SweepConfig::new(vec![0.3, 0.1], 1, quick_base(1)),
        );
    }

    #[test]
    fn problems_name_every_field_no_sweep_can_measure() {
        let good = SweepConfig::new(vec![0.1, 0.3], 2, quick_base(1));
        assert!(good.problems().is_empty());
        let bad = SweepConfig {
            rates: vec![0.3, 0.1],
            replications: 0,
            base: DesConfig {
                measured_packets: 0,
                max_events: 0,
                ..quick_base(1)
            },
            ..good
        };
        assert_eq!(
            bad.problems(),
            [
                "rates must ascend strictly, got 0.3 then 0.1",
                "sweep needs at least one replication",
                "measured_packets must be at least 1",
                "max_events must be at least 1",
            ]
        );
        for (rates, problem) in [
            (&[][..], "rates must hold at least one rate"),
            (&[0.1, 0.1], "rates must ascend strictly, got 0.1 then 0.1"),
            (&[0.1, -0.2], "rates must be positive and finite, got -0.2"),
            (&[0.0], "rates must be positive and finite, got 0"),
            (
                &[0.1, f64::NAN],
                "rates must be positive and finite, got NaN",
            ),
            (
                &[f64::INFINITY],
                "rates must be positive and finite, got inf",
            ),
        ] {
            assert_eq!(rates_problem(rates).as_deref(), Some(problem), "{rates:?}");
        }
        assert_eq!(rates_problem(&[0.005, 0.05, 0.8]), None);
    }
}
