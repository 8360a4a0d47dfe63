//! Hybrid wired+wireless "board of boards" latency sweep — the Fig. 8
//! companion the paper's §I/§II vision implies but never plots: several
//! wired board meshes chained by wireless express links instead of one
//! monolithic wired mesh.
//!
//! Three interconnects of identical module count are compared:
//!
//! * **monolithic** — one wired 3D mesh spanning all boards (the
//!   "backplane of wires" strawman),
//! * **hybrid r=1** — per-board wired meshes with a single radio site
//!   per board gap ([`wi_noc::icdb::HybridBoards`]),
//! * **hybrid r=k** — the same with `--radios k` sites per gap.
//!
//! Each prints its analytic zero-load latency and link census; with
//! `--des` every rate is cross-validated by a multi-replication DES
//! sweep over the materialized route table
//! ([`wi_noc::des::sweep_engine`]), plus the measured saturation knee.
//! Cross-board routes ride the express links (wired to the nearest
//! radio, one radio hop per gap, wired to the destination), so far
//! pairs get *shorter* than Manhattan while straddling neighbors pay a
//! detour — the trade the table quantifies.
//!
//! `--routing <dor|o1turn|valiant[:k]|rlb[:k]|adaptive>` re-routes the
//! monolithic strawman only (implies `--des`): the hybrids' tables are
//! structural, and the adaptive candidate scan cannot cross a board gap
//! (radio links are not unit-distance mesh steps), so the flag answers
//! "does a smarter wired mesh close the gap to the hybrids?".

use std::sync::Arc;
use wi_bench::{
    die, flag_value, fmt, fmt_opt, has_flag, help_flag, print_table, rates_flag, reps_flag,
    routing_flag, traffic_flag, RoutingArg,
};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::des::traffic::TrafficPattern;
use wi_noc::des::{sweep_engine, DesConfig, Engine, SweepConfig, SweepResult};
use wi_noc::icdb::HybridBoards;
use wi_noc::routing::{RouteTable, RoutingKind};
use wi_noc::topology::Topology;

const USAGE: &str = "\
fig8_hybrid — hybrid wired+wireless board-of-boards latency sweep

USAGE:
    fig8_hybrid [FLAGS]

FLAGS:
    --boards <b>         boards chained along x (default 2)
    --dims <x,y,z>       per-board wired mesh dimensions (default 4,4,4)
    --radios <k>         radio sites per board gap in the `hybrid r=k`
                         column (default 2; the r=1 column is always shown)
    --des                cross-validate every printed rate with the
                         discrete-event simulator (adds a `DES +-2se`
                         column per interconnect plus the measured
                         saturation knee)
    --traffic <kind>     DES traffic pattern: uniform (default),
                         hotspot[:node:frac], transpose, bitrev, neighbor
    --routing <policy>   routing of the *monolithic* column only (implies
                         --des): dor, o1turn, valiant[:k], rlb[:k],
                         adaptive
    --reps <k>           DES replications per rate (default 3)
    --rates <csv>        override the injection-rate grid, e.g.
                         0.05,0.15,0.25 (the CI smoke grid)
    --help, -h           print this help

Hybrid routing is fixed: dimension-order inside boards, nearest-radio
express chains across them (the adaptive scan cannot cross a board gap,
so --routing re-routes the wired strawman only — the comparison the flag
exists for). Exact recipes: docs/REPRODUCING.md.";

/// `--dims x,y,z` (default `[4, 4, 4]`).
fn dims_flag() -> [usize; 3] {
    match flag_value("--dims") {
        Some(s) => {
            let parts: Vec<usize> = s
                .split(',')
                .map(|p| p.trim().parse().ok())
                .collect::<Option<_>>()
                .unwrap_or_default();
            match parts[..] {
                [x, y, z] if x > 0 && y > 0 && z > 0 => [x, y, z],
                _ => die(&format!("--dims takes x,y,z positive integers, got {s:?}")),
            }
        }
        None => [4, 4, 4],
    }
}

/// A positive-integer flag with a default.
fn count_flag(flag: &str, default: usize) -> usize {
    match flag_value(flag) {
        Some(s) => match s.parse() {
            Ok(v) if v > 0 => v,
            _ => die(&format!("{flag} takes a positive integer, got {s:?}")),
        },
        None => default,
    }
}

fn main() {
    help_flag(USAGE);
    let boards = count_flag("--boards", 2);
    let dims = dims_flag();
    let radios = count_flag("--radios", 2);
    let [nx, ny, nz] = dims;
    if radios > ny {
        die(&format!("--radios {radios} exceeds the board depth y={ny}"));
    }
    let traffic = traffic_flag(boards * nx * ny * nz);
    let reps = reps_flag(3);
    let mono_policy = match routing_flag() {
        Some(RoutingArg::Policy(k)) => Some(k),
        Some(RoutingArg::All) => die("--routing all is a fig8a/fig8b mode; here pass one policy \
             (it re-routes the monolithic column)"),
        None => None,
    };
    let des = has_flag("--des") || mono_policy.is_some();

    // The three interconnects, all with boards·nx·ny·nz modules. Only the
    // monolithic mesh honours --routing; the hybrids' board-of-boards
    // tables are structural.
    let mono_policy = mono_policy.unwrap_or(RoutingKind::DimensionOrder);
    let monolithic = Topology::mesh3d(boards * nx, ny, nz);
    let mono_table = RouteTable::with_policy(&monolithic, mono_policy);
    let hybrid1 = HybridBoards::with_radio_count(boards, dims, 1);
    let hybridk = HybridBoards::with_radio_count(boards, dims, radios);
    let names = [
        "monolithic".to_string(),
        "hybrid r=1".to_string(),
        format!("hybrid r={radios}"),
    ];
    let cases: Vec<(&str, &Topology, RouteTable)> = vec![
        (&names[0], &monolithic, mono_table),
        (&names[1], hybrid1.topology(), hybrid1.route_table()),
        (&names[2], hybridk.topology(), hybridk.route_table()),
    ];

    let params = RouterParams::default();
    let models: Vec<AnalyticModel> = cases
        .iter()
        .map(|(_, topo, table)| AnalyticModel::with_table(topo, params, table.clone()))
        .collect();

    // Fine steps below 0.05 resolve the hybrid knees (a handful of radio
    // links carry every cross-board flow, so they saturate far below the
    // wired mesh), coarser steps cover the monolithic knee.
    let rates: Vec<f64> = rates_flag().unwrap_or_else(|| {
        (1..=9)
            .map(|k| 0.005 * k as f64)
            .chain((1..=12).map(|k| 0.05 * k as f64))
            .collect()
    });

    let sweeps: Option<Vec<SweepResult>> = des.then(|| {
        cases
            .iter()
            .enumerate()
            .map(|(mi, (_, topo, table))| {
                let proto = Engine::with_table(topo, Arc::new(table.clone()));
                let cfg = SweepConfig::new(
                    rates.clone(),
                    reps,
                    DesConfig {
                        traffic,
                        // Case 0 is the monolithic mesh; the hybrids keep
                        // their structural dimension-order tables.
                        routing: if mi == 0 {
                            mono_policy
                        } else {
                            RoutingKind::DimensionOrder
                        },
                        warmup_packets: 1_000,
                        measured_packets: 10_000,
                        max_events: 5_000_000,
                        ..DesConfig::default()
                    },
                );
                sweep_engine(&proto, &cfg)
            })
            .collect()
    });

    let mut headers: Vec<&str> = vec!["inj. rate"];
    for (name, _, _) in &cases {
        headers.push(name);
        if des {
            headers.push("DES ±2se");
        }
    }
    let mut rows = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let mut row = vec![fmt(rate, 3)];
        for (mi, m) in models.iter().enumerate() {
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
    print_table(
        &format!(
            "hybrid board-of-boards — packet latency / cycles ({} modules: {boards} boards of {nx}x{ny}x{nz}, {} traffic)",
            monolithic.num_modules(),
            traffic.name()
        ),
        &headers,
        &rows,
    );

    println!("\nper-interconnect structure and zero-load latency:");
    for ((name, _, _), m) in cases.iter().zip(&models) {
        let (wired, radio) = if name.starts_with("hybrid") {
            let h = if *name == names[1] {
                &hybrid1
            } else {
                &hybridk
            };
            (h.num_wired_links(), h.num_radio_links())
        } else {
            (monolithic.num_links(), 0)
        };
        let knee = sweeps
            .as_ref()
            .map(|s| {
                let mi = cases.iter().position(|(n, _, _)| n == name).unwrap();
                format!(", DES knee {}", fmt_opt(s[mi].saturation_knee, 2))
            })
            .unwrap_or_default();
        println!(
            "  {name:12}: {wired:4} wired + {radio:2} radio links, {:5.1} cycles zero-load{knee}",
            m.zero_load_latency()
        );
    }
    println!("\nshape: express radio hops shorten far cross-board routes below their");
    println!("Manhattan distance while straddling neighbors detour via a radio site;");
    println!("more radio sites per gap relieve the radio bottleneck at load.");
}
