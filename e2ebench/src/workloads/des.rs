//! What the two DES workloads share: legs (one replication sweep on a
//! prebuilt engine), the serial traced replay and its per-layer metrics.

use crate::report::Outcome;
use crate::sys::{median, secs};
use std::time::Instant;
use wi_noc::des::{
    sweep_engine_with_threads, DesConfig, DesResult, Engine, RatePoint, SweepConfig, SweepResult,
};
use wi_noc::routing::RoutingKind;
use wi_num::rng::derive_seed;
use wi_num::stats::Running;

/// The oblivious and adaptive policies the workloads compare, with their
/// metric suffixes.
pub const POLICIES: [(&str, RoutingKind); 4] = [
    ("dor", RoutingKind::DimensionOrder),
    ("o1turn", RoutingKind::O1Turn),
    ("valiant", RoutingKind::Valiant { choices: 8 }),
    ("adaptive", RoutingKind::Adaptive),
];

/// One replication sweep of a workload.
#[derive(Clone, Debug)]
pub struct Leg {
    /// Metric suffix the leg's replay time is charged to.
    pub metric: &'static str,
    /// Human-readable label.
    pub label: String,
    /// Index of the prototype engine the leg runs on.
    pub engine: usize,
    /// The sweep.
    pub cfg: SweepConfig,
}

/// Runs every leg through the threaded sweep entry point; returns the
/// results and the wall clock.
pub fn run_legs(legs: &[Leg], engines: &[Engine], threads: usize) -> (Vec<SweepResult>, f64) {
    let t0 = Instant::now();
    let results = legs
        .iter()
        .map(|leg| sweep_engine_with_threads(&engines[leg.engine], &leg.cfg, threads))
        .collect();
    (results, secs(t0))
}

/// The per-task configurations of a sweep, in task order — the same
/// `derive_seed(base.seed, task)` streams the sweep fans out.
pub fn tasks(cfg: &SweepConfig) -> Vec<DesConfig> {
    let reps = cfg.replications;
    cfg.rates
        .iter()
        .enumerate()
        .flat_map(|(ri, &rate)| {
            (0..reps).map(move |rep| DesConfig {
                injection_rate: rate,
                seed: derive_seed(cfg.base.seed, (ri * reps + rep) as u64),
                ..cfg.base
            })
        })
        .collect()
}

/// Folds per-task results into a [`SweepResult`] exactly as the sweep
/// does (mean and stderr over completed replications, majority-incomplete
/// or knee-factor saturation).
pub fn fold(cfg: &SweepConfig, results: &[DesResult]) -> SweepResult {
    let reps = cfg.replications;
    let points: Vec<RatePoint> = cfg
        .rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let mut acc = Running::new();
            let (mut completed, mut retries, mut dropped) = (0, 0, 0);
            for r in &results[ri * reps..(ri + 1) * reps] {
                if r.completed {
                    acc.push(r.mean_latency);
                    completed += 1;
                }
                retries += r.retries;
                dropped += r.dropped;
            }
            RatePoint {
                rate,
                mean_latency: acc.mean(),
                stderr: acc.stderr(),
                completed,
                replications: reps,
                retries,
                dropped,
            }
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
                || baseline.is_some_and(|b| p.completed > 0 && p.mean_latency > cfg.knee_factor * b)
        })
        .map(|p| p.rate);
    SweepResult {
        points,
        saturation_knee,
    }
}

/// Packets one replication resolved: warmup plus measured packets
/// delivered or dropped.
pub fn packets(cfg: &DesConfig, r: &DesResult) -> u64 {
    (cfg.warmup_packets + r.delivered + r.dropped) as u64
}

/// Accumulated serial replay of a workload's legs.
#[derive(Debug, Default)]
pub struct DesReplay {
    /// Host seconds of every replication, in replay order.
    pub rep_s: Vec<f64>,
    /// Packets resolved.
    pub pkts: u64,
    /// ARQ retransmissions.
    pub retries: u64,
    /// Replications that hit the event limit.
    pub incomplete: u64,
    /// Replay seconds of those replications.
    pub incomplete_s: f64,
}

/// Replays `leg` serially through `Engine::run` on a clone of its
/// prototype, charging time to `des.run_s.<metric>`; checks that the
/// replay folds to the sweep's own result.
pub fn replay_leg(
    leg: &Leg,
    proto: &Engine,
    expected: &SweepResult,
    acc: &mut DesReplay,
    out: &mut Outcome,
) {
    let mut engine = proto.clone();
    let mut results = Vec::new();
    let (mut leg_s, mut leg_pkts) = (0.0, 0);
    for task in tasks(&leg.cfg) {
        let t0 = Instant::now();
        let r = engine.run(&task);
        let dt = secs(t0);
        acc.rep_s.push(dt);
        leg_s += dt;
        leg_pkts += packets(&task, &r);
        acc.retries += r.retries;
        if !r.completed {
            acc.incomplete += 1;
            acc.incomplete_s += dt;
        }
        results.push(r);
    }
    acc.pkts += leg_pkts;
    out.layer_add(&format!("des.run_s.{}", leg.metric), leg_s);
    out.layer_add(&format!("des.pkts.{}", leg.metric), leg_pkts as f64);
    out.check(fold(&leg.cfg, &results) == *expected, || {
        format!(
            "{}: serial replay folds to a different SweepResult",
            leg.label
        )
    });
}

/// Records the DES per-layer metrics once every leg is replayed;
/// `sweep_wall_s` is the traced sweep phase's wall clock.
pub fn des_metrics(acc: &DesReplay, threads: usize, sweep_wall_s: f64, out: &mut Outcome) {
    for name in crate::report::POLICIES {
        let run_s = out
            .layer
            .get(&format!("des.run_s.{name}"))
            .copied()
            .unwrap_or(0.0);
        let pkts = out.layer.remove(&format!("des.pkts.{name}")).unwrap_or(0.0);
        if pkts > 0.0 {
            out.layer(&format!("des.ns_per_pkt.{name}"), run_s * 1e9 / pkts);
        }
    }
    out.layer("des.pkts", acc.pkts as f64);
    out.layer("des.retries", acc.retries as f64);
    out.layer("des.incomplete_reps", acc.incomplete as f64);
    out.layer("des.incomplete_s", acc.incomplete_s);
    let total: f64 = acc.rep_s.iter().sum();
    out.layer("des.busy_frac", total / (threads as f64 * sweep_wall_s));
    let p50 = median(&acc.rep_s);
    let max = acc.rep_s.iter().cloned().fold(0.0, f64::max);
    out.layer(
        "des.rep_max_over_p50",
        if p50 > 0.0 { max / p50 } else { 0.0 },
    );
}

/// Engine ≡ `des::reference` on one replication: bit-identical results.
pub fn oracle_check(
    label: &str,
    topo: &wi_noc::topology::Topology,
    proto: &Engine,
    cfg: &DesConfig,
    out: &mut Outcome,
) {
    let want = wi_noc::des::reference::simulate(topo, cfg);
    let got = proto.clone().run(cfg);
    out.check(got == want, || {
        format!("{label}: engine {got:?} != des::reference {want:?}")
    });
}
