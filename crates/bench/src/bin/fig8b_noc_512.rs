//! Fig. 8(b): average packet latency versus injection rate at 512 modules —
//! 32×16 2D mesh vs 8×8×8 3D mesh; the latency gap widens with scale.
//!
//! With `--des`, the 512-module curves get a DES `±2se` column from a
//! multi-replication sweep (the paper has no simulation at this scale —
//! this is the independent check of the analytic claim). `--traffic`,
//! `--reps` and `--rates` work as in `fig8a_noc_64`, as does
//! `--routing <dor|o1turn|valiant[:k]|rlb[:k]|adaptive>` (implies `--des`; the analytic
//! columns stay dimension-order). `--routing all` prints the
//! policy-per-topology saturation-knee summary instead of the latency
//! table: ten full 512-module sweeps (five policies × two meshes), about
//! 10 min on a 2-vCPU Intel Xeon. The DES builds no route tables — each
//! packet steps its route program — so that time is all simulation, at
//! a peak of ~240 MiB. The adversarial recovery measured at 64 modules
//! (fig8a doc table) persists at scale: O1TURN lifts the 8×8×8 mesh's
//! transpose/bit-reversal knees above dimension-order's while matching
//! it under uniform load.

use wi_bench::{
    fmt, fmt_opt, has_flag, help_flag, print_table, rates_flag, reps_flag, routing_flag,
    traffic_flag, RoutingArg,
};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::des::traffic::TrafficPattern;
use wi_noc::des::{sweep, sweep_policies, DesConfig, SweepConfig, SweepResult};
use wi_noc::routing::RoutingKind;
use wi_noc::topology::Topology;

const USAGE: &str = "\
fig8b_noc_512 — average packet latency vs injection rate, 512 modules (Fig. 8b)

USAGE:
    fig8b_noc_512 [FLAGS]

FLAGS:
    --des                cross-validate every printed rate with the
                         discrete-event simulator (adds a `DES +-2se`
                         column per topology; ~1.5 min at 512
                         modules on 2 cores)
    --traffic <kind>     DES traffic pattern: uniform (default),
                         hotspot[:node:frac], transpose, bitrev, neighbor
    --routing <policy>   routing policy of the DES sweeps (implies
                         --des): dor, o1turn, valiant[:k], rlb[:k],
                         adaptive;
                         `all` prints the policy-per-topology knee
                         summary instead of the latency table (~10 min
                         on 2 cores: ten 512-module sweeps)
    --reps <k>           DES replications per rate (default 3)
    --rates <csv>        override the injection-rate grid, e.g.
                         0.05,0.15,0.25
    --help, -h           print this help

The analytic columns are always dimension-order; non-default routing only
affects the simulator. Exact recipes: docs/REPRODUCING.md.";

fn main() {
    help_flag(USAGE);
    // The DES runs only the two 512-module meshes.
    let traffic = traffic_flag(512);
    let reps = reps_flag(3);
    let routing = routing_flag();
    let rates: Vec<f64> =
        rates_flag().unwrap_or_else(|| (1..=14).map(|k| 0.05 * k as f64).collect());

    let params = RouterParams::default();
    let mesh2d_512 = Topology::mesh2d(32, 16);
    let mesh3d_512 = Topology::mesh3d(8, 8, 8);
    let mesh2d_64 = Topology::mesh2d(8, 8);
    let mesh3d_64 = Topology::mesh3d(4, 4, 4);

    let m2_512 = AnalyticModel::new(&mesh2d_512, params);
    let m3_512 = AnalyticModel::new(&mesh3d_512, params);
    let m2_64 = AnalyticModel::new(&mesh2d_64, params);
    let m3_64 = AnalyticModel::new(&mesh3d_64, params);

    // DES sweep template; the measurement window must scale with the
    // module count: warmup and measured packets are *global*, so a fixed
    // budget at 512 modules would sample only the injection transient and
    // understate queueing near saturation.
    let sweep_cfg = |topo: &Topology, routing: RoutingKind| {
        let n = topo.num_modules();
        SweepConfig::new(
            rates.clone(),
            reps,
            DesConfig {
                traffic,
                routing,
                warmup_packets: 20 * n,
                measured_packets: 100 * n,
                max_events: 10_000_000,
                ..DesConfig::default()
            },
        )
    };

    if let Some(RoutingArg::All) = routing {
        let max_rate = rates.iter().cloned().fold(f64::NAN, f64::max);
        let policies = [
            RoutingKind::DimensionOrder,
            RoutingKind::O1Turn,
            RoutingKind::Valiant { choices: 8 },
            RoutingKind::RlbValiant { choices: 8 },
            RoutingKind::Adaptive,
        ];
        let headers: Vec<&str> = std::iter::once("topology")
            .chain(policies.iter().map(|p| p.name()))
            .collect();
        let rows: Vec<Vec<String>> = [("2D 512 mod.", &mesh2d_512), ("3D 512 mod.", &mesh3d_512)]
            .iter()
            .map(|(name, topo)| {
                let mut row = vec![name.to_string()];
                let cfg = sweep_cfg(topo, RoutingKind::DimensionOrder);
                for (_, result) in sweep_policies(topo, &cfg, &policies) {
                    row.push(match result.saturation_knee {
                        Some(k) => fmt(k, 2),
                        None => format!(">{max_rate:.2}"),
                    });
                }
                row
            })
            .collect();
        print_table(
            &format!(
                "Fig. 8b — DES saturation knees at 512 modules, {} traffic ({reps} reps)",
                traffic.name()
            ),
            &headers,
            &rows,
        );
        return;
    }
    let policy = match routing {
        Some(RoutingArg::Policy(k)) => k,
        _ => RoutingKind::DimensionOrder,
    };
    let des = has_flag("--des") || routing.is_some();

    let sweeps: Option<Vec<SweepResult>> = des.then(|| {
        [&mesh2d_512, &mesh3d_512]
            .iter()
            .map(|topo| sweep(topo, &sweep_cfg(topo, policy)))
            .collect()
    });

    let mut headers = vec!["inj. rate", "2D 512 mod."];
    if des {
        headers.push("DES ±2se");
    }
    headers.push("3D 512 mod.");
    if des {
        headers.push("DES ±2se");
    }
    headers.extend(["2D 64 mod.", "3D 64 mod."]);

    let rows: Vec<Vec<String>> = rates
        .iter()
        .enumerate()
        .map(|(ri, &r)| {
            let mut row = vec![fmt(r, 2)];
            for (mi, m) in [&m2_512, &m3_512].iter().enumerate() {
                row.push(fmt_opt(m.mean_latency(r), 2));
                if let Some(sweeps) = &sweeps {
                    let p = sweeps[mi].points[ri];
                    row.push(if p.completed == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.2} ±{:.2}", p.mean_latency, 2.0 * p.stderr)
                    });
                }
            }
            row.push(fmt_opt(m2_64.mean_latency(r), 2));
            row.push(fmt_opt(m3_64.mean_latency(r), 2));
            row
        })
        .collect();
    print_table("Fig. 8b — average packet latency / cycles", &headers, &rows);

    if let Some(sweeps) = &sweeps {
        println!(
            "\nDES saturation knees (512 modules, {} traffic, {} routing): 2D {}, 3D {} flits/cycle/module",
            traffic.name(),
            policy.name(),
            fmt_opt(sweeps[0].saturation_knee, 2),
            fmt_opt(sweeps[1].saturation_knee, 2)
        );
    }

    let gap64 = m2_64.zero_load_latency() - m3_64.zero_load_latency();
    let gap512 = m2_512.zero_load_latency() - m3_512.zero_load_latency();
    println!("\nlow-load 2D-3D latency gap: {gap64:.1} cycles at 64 modules,");
    println!(
        "{gap512:.1} cycles at 512 modules — the gap increases significantly (paper's claim)."
    );
}
