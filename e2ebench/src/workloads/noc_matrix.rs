//! `noc_matrix`: a reduced fig8a routing matrix on the paper's 4×4×4 3D
//! mesh — {dor, o1turn, valiant:8, adaptive} × {uniform, transpose} on a
//! rate grid straddling every policy's knee, plus one faulty leg (dor,
//! uniform, per-hop p = 0.05 under `fig_cosim`'s hop-scale ARQ).

use super::des::{
    des_metrics, oracle_check, replay_leg, run_legs, tasks, DesReplay, Leg, POLICIES,
};
use super::{check_digest, digest, iterate, median_col, Ctx, SETUP_BURST_S};
use crate::report::Outcome;
use crate::sys::{peak_rss_mib, secs};
use std::time::Instant;
use wi_noc::des::traffic::{TrafficKind, TrafficPattern};
use wi_noc::des::{ArqConfig, DesConfig, Engine, FaultConfig, SweepConfig};
use wi_noc::topology::Topology;
use wi_num::rng::derive_seed;
use wi_sweep::exec::render_sweep_result;

/// Pinned digest of the leg results at the default seed.
const PINNED: u64 = 0xf168_3e57_530c_8b75;

/// Injection rates (packets/cycle/module): below, around and above the
/// knees of all four policies under both traffics.
pub const RATES: [f64; 7] = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
/// Replications per rate.
pub const REPS: usize = 2;
/// Rates of the faulty leg (its knee sits below the fault-free one).
pub const FAULTY_RATES: [f64; 4] = [0.05, 0.15, 0.25, 0.35];

fn base(seed: u64, leg: usize) -> DesConfig {
    DesConfig {
        warmup_packets: 1_000,
        measured_packets: 6_000,
        max_events: 500_000,
        seed: derive_seed(seed, leg as u64),
        ..DesConfig::default()
    }
}

/// The workload's legs at `seed`; engine `i` is `POLICIES[i]`.
pub fn legs(seed: u64) -> Vec<Leg> {
    let mut legs = Vec::new();
    for (pi, &(name, routing)) in POLICIES.iter().enumerate() {
        for traffic in [TrafficKind::Uniform, TrafficKind::Transpose] {
            let cfg = SweepConfig::new(
                RATES.to_vec(),
                REPS,
                DesConfig {
                    traffic,
                    routing,
                    ..base(seed, legs.len())
                },
            );
            legs.push(Leg {
                metric: name,
                label: format!("{name}/{}", traffic.name()),
                engine: pi,
                cfg,
            });
        }
    }
    let fault = FaultConfig {
        arq: ArqConfig {
            max_retries: 6,
            timeout: 4.0,
            backoff: 1.5,
        },
        ..FaultConfig::uniform(0.05)
    };
    legs.push(Leg {
        metric: "faulty",
        label: "dor/uniform/p=0.05".into(),
        engine: 0,
        cfg: SweepConfig::new(
            FAULTY_RATES.to_vec(),
            REPS,
            DesConfig {
                fault,
                ..base(seed, legs.len())
            },
        ),
    });
    legs
}

/// Topology plus one prototype engine per policy.
pub struct Setup {
    /// The 4×4×4 mesh.
    pub topo: Topology,
    /// Engines in [`POLICIES`] order.
    pub engines: Vec<Engine>,
    /// Seconds building the topology.
    pub topology_s: f64,
    /// Seconds building each engine's route table, in policy order.
    pub table_s: Vec<f64>,
}

/// Builds the topology and the engines.
pub fn setup() -> Setup {
    let t0 = Instant::now();
    let topo = Topology::mesh3d(4, 4, 4);
    let topology_s = secs(t0);
    let mut table_s = Vec::new();
    let engines = POLICIES
        .iter()
        .map(|&(_, routing)| {
            let t0 = Instant::now();
            let e = Engine::with_routing(&topo, routing);
            table_s.push(secs(t0));
            e
        })
        .collect();
    Setup {
        topo,
        engines,
        topology_s,
        table_s,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let s = out.setup_burst(5, 5_000, SETUP_BURST_S, setup);
    let legs = legs(ctx.seed);

    let rebuild = |out: &mut Outcome| drop(out.setup_burst(5, 5_000, SETUP_BURST_S, setup));
    let (results, times) = iterate(ctx, out, "noc_matrix", rebuild, || {
        let (results, wall) = run_legs(&legs, &s.engines, ctx.threads);
        (results, vec![wall])
    });
    let reps: usize = legs.iter().map(|l| tasks(&l.cfg).len()).sum();
    out.ops((times.len() * reps) as u64);
    let wall = median_col(&times, 0);
    out.layer("wall_s", wall);
    out.layer("peak_rss_mib", peak_rss_mib());

    let renders: Vec<String> = results.iter().map(render_sweep_result).collect();
    for (leg, r) in legs.iter().zip(&results) {
        out.note(format!("{}: knee {:?}", leg.label, r.saturation_knee));
    }
    check_digest(ctx, out, "noc_matrix sweeps", digest(&renders), PINNED);
    // Engine ≡ oracle on each policy's first uniform replication (the
    // reference simulates uniform traffic) and on the faulty leg's.
    for leg in legs
        .iter()
        .filter(|l| l.cfg.base.traffic == TrafficKind::Uniform)
    {
        let task = tasks(&leg.cfg)[0];
        oracle_check(&leg.label, &s.topo, &s.engines[leg.engine], &task, out);
    }

    if ctx.trace {
        out.layer("noc.topology_s", s.topology_s);
        for (&(name, _), t) in POLICIES.iter().zip(&s.table_s) {
            out.layer(&format!("noc.route_table_s.{name}"), *t);
        }
        let (traced, traced_wall) = run_legs(&legs, &s.engines, ctx.threads);
        out.check(traced == results, || {
            "noc_matrix: traced sweep differs".into()
        });
        let mut acc = DesReplay::default();
        for (leg, expected) in legs.iter().zip(&results) {
            replay_leg(leg, &s.engines[leg.engine], expected, &mut acc, out);
        }
        des_metrics(&acc, ctx.threads, traced_wall, out);
        out.layer("des_pkts_per_s", acc.pkts as f64 / wall);
        out.layer("trace.wall_gap_frac", traced_wall / wall - 1.0);
    }
}
