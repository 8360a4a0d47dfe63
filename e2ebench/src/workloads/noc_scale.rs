//! `noc_scale`: the DES layer at fig8b scale, where set-up dominates —
//! route tables for four policies on the 8×8×8 mesh (512 routers), a
//! short low-load sweep on each, the analytic model over a rate grid, and
//! a `HybridBoards` board of boards (2 boards of 4×4×4 with 1 and 2
//! radio sites) through its own route table.

use super::des::{
    des_metrics, oracle_check, replay_leg, run_legs, tasks, DesReplay, Leg, POLICIES,
};
use super::{check_digest, digest, iterate, median_col, Ctx};
use crate::report::Outcome;
use crate::sys::{peak_rss_mib, rss_mib, secs};
use std::sync::Arc;
use std::time::Instant;
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::des::{DesConfig, Engine, SweepConfig, SweepResult};
use wi_noc::icdb::HybridBoards;
use wi_noc::topology::Topology;
use wi_num::rng::derive_seed;
use wi_sweep::exec::render_sweep_result;

/// Pinned digest of the sweeps and analytic curve at the default seed.
const PINNED: u64 = 0x3569_b8c9_16d6_be9e;

/// Low-load rates of the 512-router sweeps.
pub const RATES: [f64; 3] = [0.02, 0.05, 0.08];
/// Rates of the hybrid sweeps (the radio links saturate near 0.03).
pub const HYBRID_RATES: [f64; 3] = [0.005, 0.01, 0.015];
/// Radio sites per board gap of the two hybrid layouts.
pub const RADIOS: [usize; 2] = [1, 2];

fn base(seed: u64, leg: usize) -> DesConfig {
    DesConfig {
        warmup_packets: 1_000,
        measured_packets: 20_000,
        max_events: 5_000_000,
        seed: derive_seed(seed, leg as u64),
        ..DesConfig::default()
    }
}

/// The workload's legs; engines 0..4 are [`POLICIES`] on the 8×8×8 mesh,
/// engines 4.. the hybrid layouts in [`RADIOS`] order.
pub fn legs(seed: u64) -> Vec<Leg> {
    let mut legs = Vec::new();
    for (pi, &(name, routing)) in POLICIES.iter().enumerate() {
        legs.push(Leg {
            metric: name,
            label: format!("8x8x8 {name}"),
            engine: pi,
            cfg: SweepConfig::new(
                RATES.to_vec(),
                2,
                DesConfig {
                    routing,
                    ..base(seed, legs.len())
                },
            ),
        });
    }
    for (hi, r) in RADIOS.iter().enumerate() {
        legs.push(Leg {
            metric: "hybrid",
            label: format!("hybrid 2x4x4x4 r={r}"),
            engine: POLICIES.len() + hi,
            cfg: SweepConfig::new(HYBRID_RATES.to_vec(), 2, base(seed, legs.len())),
        });
    }
    legs
}

/// Topologies, engines and what building them cost.
pub struct Setup {
    /// The 8×8×8 mesh.
    pub topo: Topology,
    /// The hybrid layouts.
    pub hybrids: Vec<HybridBoards>,
    /// Mesh engines in policy order, then hybrid engines.
    pub engines: Vec<Engine>,
    /// Seconds building the mesh and the hybrid layouts.
    pub topology_s: f64,
    /// Route-table seconds per policy, then per hybrid layout.
    pub table_s: Vec<f64>,
    /// Resident-memory growth across the table builds, MiB.
    pub table_mib: f64,
}

/// Builds everything the timed phase simulates on.
pub fn setup() -> Setup {
    let t0 = Instant::now();
    let topo = Topology::mesh3d(8, 8, 8);
    let hybrids: Vec<HybridBoards> = RADIOS
        .iter()
        .map(|&r| HybridBoards::with_radio_count(2, [4, 4, 4], r))
        .collect();
    let topology_s = secs(t0);
    let mut table_s = Vec::new();
    let mut table_mib = 0.0;
    let mut engines = Vec::new();
    for &(_, routing) in &POLICIES {
        let rss0 = rss_mib();
        let t0 = Instant::now();
        engines.push(Engine::with_routing(&topo, routing));
        table_s.push(secs(t0));
        table_mib += rss_mib() - rss0;
    }
    for h in &hybrids {
        let rss0 = rss_mib();
        let t0 = Instant::now();
        engines.push(Engine::with_table(h.topology(), Arc::new(h.route_table())));
        table_s.push(secs(t0));
        table_mib += rss_mib() - rss0;
    }
    Setup {
        topo,
        hybrids,
        engines,
        topology_s,
        table_s,
        table_mib,
    }
}

/// Analytic grid: the fig8b rates every 0.01 up to 0.30.
fn analytic_rates() -> Vec<f64> {
    (1..=30).map(|k| 0.01 * k as f64).collect()
}

/// `AnalyticModel::new` plus `mean_latency` over the grid, rendered.
fn analytic(topo: &Topology) -> Vec<String> {
    let model = AnalyticModel::new(topo, RouterParams::default());
    analytic_rates()
        .into_iter()
        .map(|r| format!("{r:?} {:?}", model.mean_latency(r)))
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    // Table memory is read on the first build: later builds reuse the
    // pages the allocator kept from the dropped ones.
    let mut table_mib = None;
    let s = out.setup_burst(3, 3, 0.0, || {
        let s = setup();
        table_mib.get_or_insert(s.table_mib);
        s
    });
    let legs = legs(ctx.seed);

    // Timings per iteration: [wall, analytic].
    let phase = || -> ((Vec<SweepResult>, Vec<String>), Vec<f64>) {
        let t0 = Instant::now();
        let (results, _) = run_legs(&legs, &s.engines, ctx.threads);
        let ta = Instant::now();
        let curve = analytic(&s.topo);
        let analytic_s = secs(ta);
        ((results, curve), vec![secs(t0), analytic_s])
    };
    let ((results, curve), times) = iterate(ctx, out, "noc_scale", |_| {}, phase);
    let reps: usize = legs.iter().map(|l| tasks(&l.cfg).len()).sum();
    out.ops((times.len() * reps) as u64);
    let wall = median_col(&times, 0);
    out.layer("wall_s", wall);
    out.layer("peak_rss_mib", peak_rss_mib());

    let mut renders: Vec<String> = results.iter().map(render_sweep_result).collect();
    renders.extend(curve);
    check_digest(ctx, out, "noc_scale sweeps", digest(&renders), PINNED);
    // Engine ≡ oracle on each mesh policy's first replication.
    for leg in &legs[..POLICIES.len()] {
        let task = tasks(&leg.cfg)[0];
        oracle_check(&leg.label, &s.topo, &s.engines[leg.engine], &task, out);
    }
    for (h, r) in s.hybrids.iter().zip(RADIOS) {
        out.check(h.num_radio_links() == 2 * r, || {
            format!("hybrid r={r}: {} radio links", h.num_radio_links())
        });
    }

    if ctx.trace {
        out.layer("noc.topology_s", s.topology_s);
        let names = POLICIES.iter().map(|p| p.0).chain(["hybrid", "hybrid"]);
        for (name, t) in names.zip(&s.table_s) {
            out.layer_add(&format!("noc.route_table_s.{name}"), *t);
        }
        out.layer("noc.route_table_mib", table_mib.unwrap_or(0.0));
        out.layer("noc.analytic_s", median_col(&times, 1));
        let t0 = Instant::now();
        let (traced, _) = run_legs(&legs, &s.engines, ctx.threads);
        let traced_sweep_s = secs(t0);
        let traced_curve = analytic(&s.topo);
        let traced_wall = secs(t0);
        out.check(
            traced == results && traced_curve == renders[results.len()..],
            || "noc_scale: traced run differs".into(),
        );
        let mut acc = DesReplay::default();
        for (leg, expected) in legs.iter().zip(&results) {
            replay_leg(leg, &s.engines[leg.engine], expected, &mut acc, out);
        }
        des_metrics(&acc, ctx.threads, traced_sweep_s, out);
        out.layer("des_pkts_per_s", acc.pkts as f64 / wall);
        out.layer("trace.wall_gap_frac", traced_wall / wall - 1.0);
    }
}
