//! Criterion benches for the discrete-event NoC simulator: the retained
//! per-event-allocating reference vs the arena engine, the arena engine
//! across the routing policies (oblivious and adaptive), and the
//! virtual-channel pricing of the adaptive path.
//!
//! Split out of `kernels.rs` so the CI `bench-quick` job (and a human
//! chasing a DES regression) can run the simulator suite by itself:
//! `cargo bench -p wi-bench --bench des_sim`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wi_noc::des::{reference as des_reference, DesConfig, Engine, FaultConfig};
use wi_noc::icdb::ExpandedGrid;
use wi_noc::routing::RoutingKind;
use wi_noc::topology::Topology;

fn bench_des_sim(c: &mut Criterion) {
    // The retained per-event-allocating simulator vs the arena engine on
    // the default uniform/exponential run (the speedup the engine exists
    // for; results are bit-identical, only wall clock differs).
    for (name, topo) in [
        ("4x4", Topology::mesh2d(4, 4)),
        ("8x8", Topology::mesh2d(8, 8)),
    ] {
        let cfg = DesConfig::default();
        c.bench_function(&format!("des_sim_reference_{name}_20k"), |b| {
            b.iter(|| des_reference::simulate(black_box(&topo), black_box(&cfg)))
        });
        let mut engine = Engine::new(&topo);
        c.bench_function(&format!("des_sim_engine_{name}_20k"), |b| {
            b.iter(|| engine.run(black_box(&cfg)))
        });
    }
}

fn bench_des_faulty(c: &mut Criterion) {
    // The fault-injection path: per-hop corruption hashing plus ARQ
    // retransmissions on the 8x8 mesh. The inert config (`p = 0`) prices
    // the `faults` guard itself — it must stay indistinguishable from the
    // fault-free engine run above; the 5% run prices the hash + retry
    // traffic the co-sim exhibit leans on.
    let topo = Topology::mesh2d(8, 8);
    for (name, fault) in [
        ("inert", FaultConfig::uniform(0.0)),
        ("p5", FaultConfig::uniform(0.05)),
    ] {
        let cfg = DesConfig {
            fault,
            ..DesConfig::default()
        };
        let mut engine = Engine::new(&topo);
        c.bench_function(&format!("des_sim_faulty_8x8_{name}_20k"), |b| {
            b.iter(|| engine.run(black_box(&cfg)))
        });
    }
}

fn bench_des_routing(c: &mut Criterion) {
    // The arena engine under each routing policy on the paper's winning
    // 4x4x4 3D mesh. Oblivious packets step their route programs (a
    // route choice is one hash, a hop a few coordinate compares and one
    // unit-step read), so the multi-route policies must not slow the hot
    // loop, though Valiant's longer detour paths do honest extra hops.
    // Adaptive hops scan up to three candidate links' queue state
    // instead — its gap to dor prices that scan.
    let topo = Topology::mesh3d(4, 4, 4);
    for routing in [
        RoutingKind::DimensionOrder,
        RoutingKind::O1Turn,
        RoutingKind::valiant(),
        RoutingKind::rlb(),
        RoutingKind::Adaptive,
    ] {
        let cfg = DesConfig {
            routing,
            ..DesConfig::default()
        };
        let mut engine = Engine::with_routing(&topo, routing);
        c.bench_function(
            &format!("des_sim_engine_4x4x4_{}_20k", routing.name()),
            |b| b.iter(|| engine.run(black_box(&cfg))),
        );
    }
    // The 512-router hot loop, where an all-pairs valiant:8 table (about
    // 200 MiB) missed cache on nearly every route lookup; the engine
    // holds no table.
    let fig8b = Topology::mesh3d(8, 8, 8);
    let cfg = DesConfig {
        routing: RoutingKind::valiant(),
        ..DesConfig::default()
    };
    let mut engine = Engine::with_routing(&fig8b, cfg.routing);
    c.bench_function("des_sim_engine_8x8x8_valiant_20k", |b| {
        b.iter(|| engine.run(black_box(&cfg)))
    });
    // Building the all-pairs table: what the analytic model, icdb tables
    // and the oracles pay per policy. The engine builds none.
    c.bench_function("route_table_build_4x4x4_valiant8", |b| {
        b.iter(|| {
            wi_noc::routing::RouteTable::with_policy(black_box(&topo), RoutingKind::valiant())
        })
    });
    // The same table built from the expanded grid's closed-form routes —
    // the same policy walker and bit-identical output (pinned by tests),
    // so the gap to the bench above is the per-hop link lookup:
    // closed-form arithmetic instead of a table read.
    c.bench_function("route_class_table_4x4x4_valiant8", |b| {
        b.iter(|| {
            let grid = ExpandedGrid::mesh3d(4, 4, 4);
            let kind = RoutingKind::valiant();
            wi_noc::routing::RouteTable::from_routes(&grid.to_topology(), kind, |a, b, c, out| {
                grid.route_into(kind, a, b, c, out)
            })
        })
    });
}

fn bench_des_vcs(c: &mut Criterion) {
    // Virtual-channel pricing on the 8x8 2D mesh: the congestion-aware
    // run reads its 4 virtual networks' per-(link, VC) clocks each hop.
    let topo = Topology::mesh2d(8, 8);
    let adaptive = DesConfig {
        routing: RoutingKind::Adaptive,
        ..DesConfig::default()
    };
    let mut engine = Engine::with_routing(&topo, RoutingKind::Adaptive);
    c.bench_function("des_sim_adaptive_8x8_20k", |b| {
        b.iter(|| engine.run(black_box(&adaptive)))
    });
}

fn bench_icdb(c: &mut Criterion) {
    // The scalable-topology path: building an expanded grid must stay
    // O(1) in the node count — these three benches pin 10^4, 10^5 and the
    // route arithmetic at 10^6 routers.
    c.bench_function("icdb_build_1e4", |b| {
        b.iter(|| ExpandedGrid::mesh3d(black_box(25), 20, 20).mem_bytes())
    });
    c.bench_function("icdb_build_1e5", |b| {
        b.iter(|| ExpandedGrid::mesh3d(black_box(50), 50, 40).mem_bytes())
    });
    // Corner-to-corner route materialization on a million-router grid:
    // 297 closed-form link ids, no table in sight.
    let grid = ExpandedGrid::mesh3d(100, 100, 100);
    let corner = 100 * 100 * 100 - 1;
    let mut out = Vec::with_capacity(512);
    c.bench_function("icdb_route_1e6", |b| {
        b.iter(|| {
            out.clear();
            let kind = RoutingKind::DimensionOrder;
            grid.route_into(kind, black_box(0), black_box(corner), 0, &mut out);
            out.len()
        })
    });
}

criterion_group! {
    name = des_sim;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_des_sim, bench_des_faulty, bench_des_routing, bench_des_vcs, bench_icdb
}
criterion_main!(des_sim);
