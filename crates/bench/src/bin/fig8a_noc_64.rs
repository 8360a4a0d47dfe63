//! Fig. 8(a): average packet latency versus injection rate at 64 modules —
//! 8×8 2D mesh vs 4×4(×4) star-mesh vs 4×4×4 3D mesh.
//!
//! With `--des`, every printed rate is cross-validated with the
//! discrete-event simulator: a multi-replication sweep per topology adds
//! a `DES ±2se` column next to each analytic column, plus the measured
//! saturation knee. `--traffic <uniform|hotspot[:node:frac]|transpose|`
//! `bitrev|neighbor>` selects the traffic pattern (the analytic model is
//! uniform-only; non-uniform patterns show how far the paper's uniform
//! assumption carries), `--reps <k>` the replications per rate (default
//! 3) and `--rates <csv>` overrides the rate grid.
//!
//! `--routing <dor|o1turn|valiant[:k]|rlb[:k]|adaptive>` selects the
//! routing policy of the DES sweeps (implies `--des`; the analytic
//! columns stay dimension-order). `--routing all` instead prints the
//! policy × traffic saturation-knee matrix on the 4×4×4 3D mesh — the
//! headline table of the randomized-routing study. Measured knees
//! (3 reps, default grid, flits/cycle/module):
//!
//! | traffic   |   dor | o1turn | valiant |   rlb | adaptive |
//! |-----------|-------|--------|---------|-------|----------|
//! | uniform   | >0.80 |  >0.80 |    0.45 | >0.80 |    >0.80 |
//! | hotspot   |  0.19 |   0.19 |    0.23 |  0.19 |     0.19 |
//! | transpose |  0.35 |   0.55 |    0.40 |  0.50 |     0.70 |
//! | bitrev    |  0.23 |   0.50 |    0.40 |  0.45 |     0.75 |
//! | neighbor  | >0.80 |  >0.80 |    0.45 | >0.80 |    >0.80 |
//!
//! Dimension-order's adversarial collapses (transpose 0.35, bitrev 0.23
//! vs uniform's >0.80) recover under O1TURN (0.55 / 0.50), which spreads
//! minimal paths over all six dimension orders at no uniform-traffic
//! cost. Valiant flattens the matrix instead — every pattern lands near
//! 0.40–0.45 — raising the worst cases (bitrev 0.23 → 0.40, hotspot
//! 0.19 → 0.23; the hotspot knee is ejection-port-bound, which no route
//! diversification can widen) while its two-leg detours halve the
//! benign-pattern capacity. RLB keeps Valiant's randomization but stays
//! inside the minimal quadrant (transpose 0.50, bitrev 0.45), so it
//! recovers most of the adversarial collapse without the uniform-
//! capacity tax. Adaptive routing beats every oblivious policy on the
//! adversarial patterns (transpose 0.70, bitrev 0.75) at full uniform
//! capacity — congestion-aware steering reacts to the actual queue
//! state instead of spreading load blind — and only falls to Valiant on
//! hotspot (0.19 vs 0.23), where minimality itself is the constraint:
//! every minimal path funnels into the same ejection port, and only
//! Valiant's non-minimal detours sidestep the funnel's feeders.

use wi_bench::{
    fmt, fmt_opt, has_flag, help_flag, print_table, rates_flag, reps_flag, routing_flag,
    traffic_flag, RoutingArg,
};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::des::traffic::{TrafficKind, TrafficPattern};
use wi_noc::des::{sweep, sweep_policies, DesConfig, SweepConfig, SweepResult};
use wi_noc::routing::RoutingKind;
use wi_noc::topology::Topology;

/// The five policies of the `--routing all` matrix.
const MATRIX_POLICIES: [RoutingKind; 5] = [
    RoutingKind::DimensionOrder,
    RoutingKind::O1Turn,
    RoutingKind::Valiant { choices: 8 },
    RoutingKind::RlbValiant { choices: 8 },
    RoutingKind::Adaptive,
];

const USAGE: &str = "\
fig8a_noc_64 — average packet latency vs injection rate, 64 modules (Fig. 8a)

USAGE:
    fig8a_noc_64 [FLAGS]

FLAGS:
    --des                cross-validate every printed rate with the
                         discrete-event simulator (adds a `DES +-2se`
                         column per topology plus the measured saturation
                         knee; ~3 s at one thread)
    --traffic <kind>     DES traffic pattern: uniform (default),
                         hotspot[:node:frac], transpose, bitrev, neighbor
    --routing <policy>   routing policy of the DES sweeps (implies
                         --des): dor, o1turn, valiant[:k], rlb[:k],
                         adaptive; `all` prints the policy x traffic
                         saturation-knee matrix on the 4x4x4 3D mesh
                         (~25 s at one thread)
    --reps <k>           DES replications per rate (default 3)
    --rates <csv>        override the injection-rate grid, e.g.
                         0.05,0.15,0.25 (the CI smoke grid)
    --help, -h           print this help

The analytic columns are always dimension-order; non-default routing only
affects the simulator. Exact recipes: docs/REPRODUCING.md.";

fn main() {
    help_flag(USAGE);
    // All three Fig. 8a topologies have 64 modules.
    let traffic = traffic_flag(64);
    let reps = reps_flag(3);
    let routing = routing_flag();

    if let Some(RoutingArg::All) = routing {
        routing_matrix(reps, rates_flag());
        return;
    }
    let policy = match routing {
        Some(RoutingArg::Policy(k)) => k,
        _ => RoutingKind::DimensionOrder,
    };

    let mesh2d = Topology::mesh2d(8, 8);
    let star = Topology::star_mesh(4, 4, 4);
    let mesh3d = Topology::mesh3d(4, 4, 4);
    let params = RouterParams::default();
    let models = [
        ("2D-Mesh", AnalyticModel::new(&mesh2d, params)),
        ("Star-Mesh", AnalyticModel::new(&star, params)),
        ("3D-Mesh", AnalyticModel::new(&mesh3d, params)),
    ];

    // A non-default routing policy only affects the simulator, so asking
    // for one implies the DES columns.
    let des = has_flag("--des") || routing.is_some();

    // Printed rates: every 0.05 plus fine steps near the knees.
    let rates: Vec<f64> = rates_flag().unwrap_or_else(|| {
        (1..=80)
            .map(|k| 0.01 * k as f64)
            .filter(|&r| ((r * 100.0) as usize).is_multiple_of(5) || r <= 0.05)
            .collect()
    });

    // One parallel replication sweep per topology covers every printed
    // rate (incomplete replications mark saturation).
    let sweeps: Option<Vec<SweepResult>> = des.then(|| {
        [&mesh2d, &star, &mesh3d]
            .iter()
            .map(|topo| {
                let cfg = SweepConfig::new(
                    rates.clone(),
                    reps,
                    DesConfig {
                        traffic,
                        routing: policy,
                        warmup_packets: 1_000,
                        measured_packets: 10_000,
                        max_events: 5_000_000,
                        ..DesConfig::default()
                    },
                );
                sweep(topo, &cfg)
            })
            .collect()
    });

    let mut headers: Vec<&str> = vec!["inj. rate"];
    for (name, _) in &models {
        headers.push(name);
        if des {
            headers.push("DES ±2se");
        }
    }
    let mut rows = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let mut row = vec![fmt(rate, 2)];
        for (mi, (_, m)) in models.iter().enumerate() {
            row.push(fmt_opt(m.mean_latency(rate), 2));
            if let Some(sweeps) = &sweeps {
                let p = sweeps[mi].points[ri];
                row.push(if p.completed == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2} ±{:.2}", p.mean_latency, 2.0 * p.stderr)
                });
            }
        }
        rows.push(row);
    }
    let title = if des {
        format!(
            "Fig. 8a — packet latency / cycles (64 modules, analytic vs DES, {} traffic, {} routing, {} reps)",
            traffic.name(),
            policy.name(),
            reps
        )
    } else {
        "Fig. 8a — average packet latency / cycles (64 modules)".to_string()
    };
    print_table(&title, &headers, &rows);

    println!("\nlow-load latency / saturation rate:");
    for (mi, (name, m)) in models.iter().enumerate() {
        let knee = sweeps
            .as_ref()
            .map(|s| format!(", DES knee {}", fmt_opt(s[mi].saturation_knee, 2)))
            .unwrap_or_default();
        println!(
            "  {name:10}: {:5.1} cycles / {:.2} flits/cycle/module{knee}",
            m.zero_load_latency(),
            m.saturation_rate()
        );
    }
    println!("  paper     : 2D 13 cy / 0.41, star 7 cy / 0.19, 3D 10 cy / 0.75");
}

/// `--routing all`: the policy × traffic saturation-knee matrix on the
/// paper's winning 4×4×4 3D mesh.
fn routing_matrix(reps: usize, rates: Option<Vec<f64>>) {
    let topo = Topology::mesh3d(4, 4, 4);
    let traffics = [
        TrafficKind::Uniform,
        TrafficKind::Hotspot {
            node: 0,
            fraction: 0.1,
        },
        TrafficKind::Transpose,
        TrafficKind::BitReversal,
        TrafficKind::NearestNeighbor,
    ];
    // Fine steps through the hotspot knee region (0.01 resolves the
    // dor/o1turn/valiant ordering there), coarser above; the top rate
    // bounds the knees the matrix can resolve.
    let rates: Vec<f64> = rates.unwrap_or_else(|| {
        (1..=6)
            .map(|k| 0.02 * k as f64)
            .chain((13..=26).map(|k| 0.01 * k as f64))
            .chain([0.28, 0.30])
            .chain((7..=16).map(|k| 0.05 * k as f64))
            .collect()
    });
    let max_rate = rates.iter().cloned().fold(f64::NAN, f64::max);

    let headers: Vec<&str> = std::iter::once("traffic")
        .chain(MATRIX_POLICIES.iter().map(|p| p.name()))
        .collect();
    let mut rows = Vec::new();
    for traffic in traffics {
        let cfg = SweepConfig::new(
            rates.clone(),
            reps,
            DesConfig {
                traffic,
                warmup_packets: 1_000,
                measured_packets: 8_000,
                max_events: 2_000_000,
                ..DesConfig::default()
            },
        );
        let mut row = vec![traffic.name().to_string()];
        for (_, result) in sweep_policies(&topo, &cfg, &MATRIX_POLICIES) {
            row.push(match result.saturation_knee {
                Some(k) => fmt(k, 2),
                None => format!(">{max_rate:.2}"),
            });
        }
        rows.push(row);
    }
    print_table(
        &format!("Fig. 8a — DES saturation knees, 4x4x4 3D mesh, policy x traffic ({reps} reps)"),
        &headers,
        &rows,
    );
    println!("\nknee = first rate with a majority of incomplete replications or");
    println!("mean latency above 4x the policy's own low-load baseline; flits/cycle/module.");
}
