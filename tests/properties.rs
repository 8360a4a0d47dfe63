//! Property-based tests (proptest) on cross-crate invariants.

use proptest::prelude::*;
use wi_num::fft::{dft, Direction};
use wi_num::rng::seeded_rng;
use wi_num::Complex64;
use wireless_interconnect::channel::pathloss::{fit_pathloss_exponent, PathlossModel};
use wireless_interconnect::ldpc::code::{Encoder, LdpcCode};
use wireless_interconnect::linkbudget::budget::LinkBudget;
use wireless_interconnect::noc::analytic::{AnalyticModel, RouterParams};
use wireless_interconnect::noc::deadlock::ChannelDepGraph;
use wireless_interconnect::noc::icdb::{ExpandedGrid, HybridBoards};
use wireless_interconnect::noc::irregular::PillarMesh3d;
use wireless_interconnect::noc::routing::{
    all_pairs_routable_with, rlb_intermediate, valiant_intermediate, walk_route, RouteProgram,
    RouteTable, RoutingKind, Step,
};
use wireless_interconnect::noc::topology::{Link, Topology};
use wireless_interconnect::quantrx::filter::IsiFilter;
use wireless_interconnect::quantrx::info_rate::{snr_db_to_sigma, symbolwise_information_rate};
use wireless_interconnect::quantrx::modulation::AskModulation;
use wireless_interconnect::quantrx::trellis::ChannelTrellis;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pathloss_is_monotone_in_distance(
        exponent in 1.5f64..3.0,
        d1 in 0.01f64..0.5,
        delta in 0.001f64..0.5,
    ) {
        let m = PathlossModel::with_exponent(232.5e9, exponent);
        prop_assert!(m.pathloss_db(d1 + delta) > m.pathloss_db(d1));
    }

    #[test]
    fn pathloss_fit_inverts_the_model(
        exponent in 1.5f64..3.0,
        n_points in 5usize..20,
    ) {
        let m = PathlossModel::with_exponent(232.5e9, exponent);
        let samples: Vec<(f64, f64)> = (1..=n_points)
            .map(|i| {
                let d = 0.02 * i as f64;
                (d, m.pathloss_db(d))
            })
            .collect();
        let fit = fit_pathloss_exponent(&samples);
        prop_assert!((fit.exponent - exponent).abs() < 1e-9);
    }

    #[test]
    fn link_budget_round_trips(
        pathloss in 40.0f64..90.0,
        snr in -10.0f64..40.0,
    ) {
        let budget = LinkBudget::paper_defaults(pathloss);
        let p = budget.required_tx_power_dbm(snr);
        prop_assert!((budget.snr_db_at(p) - snr).abs() < 1e-9);
    }

    #[test]
    fn fft_round_trip_random_signals(
        seed in 0u64..1000,
        log_n in 3u32..9,
    ) {
        use rand::Rng;
        let n = 1usize << log_n;
        let mut rng = seeded_rng(seed);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let back = dft(&dft(&x, Direction::Forward), Direction::Inverse);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn routes_are_minimal_on_random_meshes(
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 1usize..4,
        pair in 0usize..1000,
    ) {
        let topo = Topology::mesh3d(nx, ny, nz);
        let n = topo.num_modules();
        let s = pair % n;
        let d = (pair / 7) % n;
        let links = RouteTable::new(&topo).links(s, d).to_vec();
        prop_assert_eq!(
            links.len(),
            topo.router_distance(topo.router_of(s), topo.router_of(d))
        );
        // The route is a contiguous chain from the source router to the
        // destination router.
        let mut here = topo.router_of(s);
        for &l in &links {
            let link = topo.links()[l as usize];
            prop_assert_eq!(link.src, here);
            here = link.dst;
        }
        prop_assert_eq!(here, topo.router_of(d));
    }

    #[test]
    fn multi_route_tables_are_minimal_or_valiant_legal_and_link_valid(
        nx in 2usize..5,
        ny in 2usize..5,
        nz in 1usize..4,
        policy_idx in 0usize..5,
        valiant_choices in 1usize..6,
    ) {
        // Every route of every policy table must be a contiguous chain of
        // real links from source to destination router, and either
        // minimal (dimension-order, O1TURN, RLB's in-box legs, the
        // adaptive escape route) or exactly the two legs through its
        // Valiant intermediate.
        let topo = Topology::mesh3d(nx, ny, nz);
        let kind = match policy_idx {
            0 => RoutingKind::DimensionOrder,
            1 => RoutingKind::O1Turn,
            2 => RoutingKind::RlbValiant { choices: valiant_choices },
            3 => RoutingKind::Adaptive,
            _ => RoutingKind::Valiant { choices: valiant_choices },
        };
        prop_assert!(all_pairs_routable_with(&topo, kind));
        let table = RouteTable::with_policy(&topo, kind);
        let r = topo.num_routers();
        for s in 0..topo.num_modules() {
            for d in 0..topo.num_modules() {
                let (a, b) = (topo.router_of(s), topo.router_of(d));
                for c in 0..table.num_choices() {
                    let links = table.links_choice(s, d, c);
                    // Link-valid: a contiguous chain from a to b.
                    let mut here = a;
                    for &l in links {
                        let link = topo.links()[l as usize];
                        prop_assert_eq!(link.src, here);
                        here = link.dst;
                    }
                    prop_assert_eq!(here, b);
                    // Minimal or Valiant-legal length.
                    let want = match kind {
                        RoutingKind::Valiant { .. } if a != b => {
                            let mid = valiant_intermediate(r, a, b, c);
                            topo.router_distance(a, mid) + topo.router_distance(mid, b)
                        }
                        _ => topo.router_distance(a, b),
                    };
                    prop_assert!(
                        links.len() == want,
                        "{} ({},{}) choice {}: {} links, want {}",
                        kind.name(),
                        s,
                        d,
                        c,
                        links.len(),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn icdb_route_programs_match_legacy_tables(
        nx in 2usize..5,
        ny in 2usize..5,
        nz in 1usize..4,
        policy_idx in 0usize..6,
    ) {
        // The expanded grid's closed-form routes must agree link for
        // link with the legacy CSR table on every random mesh, for every
        // routing kind — the icdb compatibility contract.
        let kind = match policy_idx {
            0 => RoutingKind::DimensionOrder,
            1 => RoutingKind::O1Turn,
            2 => RoutingKind::valiant(),
            3 => RoutingKind::RlbValiant { choices: 3 },
            4 => RoutingKind::Adaptive,
            _ => RoutingKind::Valiant { choices: 3 },
        };
        let topo = Topology::mesh3d(nx, ny, nz);
        let legacy = RouteTable::with_policy(&topo, kind);
        let grid = ExpandedGrid::mesh3d(nx, ny, nz);
        // The materialized table is bit-identical to the legacy builder's.
        let table = RouteTable::from_routes(&grid.to_topology(), kind, |a, b, c, out| {
            grid.route_into(kind, a, b, c, out)
        });
        prop_assert_eq!(&table, &legacy);
        // And the closed-form programs agree without building any table.
        let mut out = Vec::new();
        for a in 0..topo.num_routers() {
            for b in 0..topo.num_routers() {
                for c in 0..legacy.num_choices() {
                    out.clear();
                    grid.route_into(kind, a, b, c, &mut out);
                    prop_assert!(
                        out[..] == *legacy.links_choice(a, b, c),
                        "{} ({},{}) choice {} on {}x{}x{}",
                        kind.name(), a, b, c, nx, ny, nz
                    );
                }
            }
        }
    }

    #[test]
    fn layouts_keep_the_full_mesh_link_order(
        nx in 1usize..5,
        ny in 1usize..5,
        nz in 1usize..4,
        boards in 1usize..5,
        radios in 1usize..4,
        pitch in 1usize..4,
    ) {
        // Hybrid boards and pillar meshes each drop pairs from the full
        // mesh and keep every other link where the full mesh has it,
        // in the same order: a relabelling of fault-free links would
        // leave every DES result, and so every digest, unchanged.
        let hybrid = HybridBoards::with_radio_count(boards, [nx, ny, nz], radios.min(ny));
        let full = Topology::mesh3d(boards * nx, ny, nz);
        let crosses_gap = |l: &Link| full.coord(l.src)[0] / nx != full.coord(l.dst)[0] / nx;
        let want: Vec<Link> = full.links().iter().copied().filter(|l| !crosses_gap(l)).collect();
        prop_assert_eq!(&hybrid.topology().links()[..hybrid.num_wired_links()], &want[..]);

        let pillar = PillarMesh3d::new(nx, ny, nz, pitch);
        let full = Topology::mesh3d(nx, ny, nz);
        let off_pillar = |l: &Link| {
            let ([x, y, za], [_, _, zb]) = (full.coord(l.src), full.coord(l.dst));
            za != zb && !(x % pitch == 0 && y % pitch == 0)
        };
        let want: Vec<Link> = full.links().iter().copied().filter(|l| !off_pillar(l)).collect();
        prop_assert_eq!(pillar.topology().links(), &want[..]);
    }

    #[test]
    fn route_programs_step_the_walked_routes(
        nx in 1usize..5,
        ny in 1usize..5,
        nz in 1usize..4,
        policy_idx in 0usize..5,
        choices in 1usize..6,
    ) {
        // Stepped hop by hop the way the DES engine steps it, every
        // (src, dst, choice) program takes exactly the walked route and
        // switches legs where the walk's first leg ends.
        let topo = Topology::mesh3d(nx, ny, nz);
        let kind = match policy_idx {
            0 => RoutingKind::DimensionOrder,
            1 => RoutingKind::O1Turn,
            2 => RoutingKind::Valiant { choices },
            3 => RoutingKind::RlbValiant { choices },
            _ => RoutingKind::Adaptive,
        };
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_routers() {
                for c in 0..kind.choices() {
                    program_steps_match_walk(&topo, kind, s, d, c)?;
                }
            }
        }
    }

    #[test]
    fn channel_dependency_graphs_are_acyclic(
        nx in 2usize..5,
        ny in 2usize..5,
        nz in 1usize..4,
        policy_idx in 0usize..5,
        choices in 1usize..6,
        boards in 2usize..4,
        radios in 1usize..3,
    ) {
        // The machine-checked deadlock-freedom contract: on random 2D
        // meshes (nz = 1) and 3D meshes, the channel-dependency graph
        // over (link, VC) nodes — built from the actual route and
        // VC-allocation functions at the policy's safe VC count — must
        // be acyclic for every routing kind, including the adaptive
        // transition relation. Dally & Seitz: acyclic CDG ⇒ the
        // simulated schedules are realizable deadlock-free on a real
        // finite-buffer fabric.
        let kind = match policy_idx {
            0 => RoutingKind::DimensionOrder,
            1 => RoutingKind::O1Turn,
            2 => RoutingKind::Valiant { choices },
            3 => RoutingKind::RlbValiant { choices },
            _ => RoutingKind::Adaptive,
        };
        let topo = Topology::mesh3d(nx, ny, nz);
        let g = ChannelDepGraph::for_policy(&topo, kind);
        prop_assert!(g.num_edges() > 0, "{} built no dependencies", kind.name());
        prop_assert!(
            g.is_acyclic(),
            "{} CDG has a cycle on {}x{}x{} at {} VCs",
            kind.name(), nx, ny, nz, g.vcs()
        );
        // Hybrid wired+wireless boards: radio hops bump the VC index, so
        // the chained-board route program stays acyclic too.
        let r = radios.min(ny);
        let hb = HybridBoards::with_radio_count(boards, [nx, ny, nz], r);
        let hg = ChannelDepGraph::for_hybrid(&hb);
        prop_assert!(hg.num_edges() > 0);
        prop_assert!(
            hg.is_acyclic(),
            "hybrid {} boards of {}x{}x{} (r={}) CDG has a cycle",
            boards, nx, ny, nz, r
        );
    }

    #[test]
    fn analytic_latency_monotone_in_load(
        nx in 2usize..5,
        ny in 2usize..5,
    ) {
        let topo = Topology::mesh2d(nx, ny);
        let model = AnalyticModel::new(&topo, RouterParams::default());
        let sat = model.saturation_rate();
        let l1 = model.mean_latency(0.2 * sat).unwrap();
        let l2 = model.mean_latency(0.6 * sat).unwrap();
        let l3 = model.mean_latency(0.9 * sat).unwrap();
        prop_assert!(l1 < l2 && l2 < l3);
    }

    #[test]
    fn encoded_words_satisfy_all_checks(
        lifting in 8usize..30,
        seed in 0u64..500,
    ) {
        let code = LdpcCode::paper_block(lifting, seed);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(seed.wrapping_add(1));
        let cw = code.random_codeword(&enc, &mut rng);
        prop_assert!(code.is_codeword(&cw));
    }

    #[test]
    fn label_probabilities_normalize_for_random_filters(
        seed in 0u64..200,
        snr in -5.0f64..30.0,
    ) {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let taps: Vec<f64> = (0..10).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        prop_assume!(taps.iter().any(|t| t.abs() > 1e-3));
        let filter = IsiFilter::new(taps, 5).normalized();
        let trellis = ChannelTrellis::new(&AskModulation::four_ask(), &filter);
        let table = trellis.log_prob_table(snr_db_to_sigma(snr));
        for state in 0..trellis.num_states() {
            let total: f64 = (0..trellis.num_outputs() as u32)
                .map(|y| table.label_prob(state, 0, y))
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "state {} sum {}", state, total);
        }
    }

    #[test]
    fn information_rates_bounded_for_random_filters(
        seed in 0u64..200,
        snr in -5.0f64..35.0,
    ) {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let taps: Vec<f64> = (0..10).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        prop_assume!(taps.iter().any(|t| t.abs() > 1e-3));
        let filter = IsiFilter::new(taps, 5).normalized();
        let trellis = ChannelTrellis::new(&AskModulation::four_ask(), &filter);
        let r = symbolwise_information_rate(&trellis, snr_db_to_sigma(snr));
        prop_assert!((0.0..=2.0 + 1e-9).contains(&r), "rate {}", r);
    }
}

/// Steps route `c` of `kind` from router `s` to `d` as the DES engine
/// does — one step of the next run per hop, coordinates from the
/// topology, each link from its unit-step table, every step asked twice
/// as an ARQ retry would — and checks its links, hop counts and leg
/// switch against [`walk_route`].
fn program_steps_match_walk(
    topo: &Topology,
    kind: RoutingKind,
    s: usize,
    d: usize,
    c: usize,
) -> Result<(), TestCaseError> {
    let mut walked = Vec::new();
    let step_link = |st: Step| topo.step_link(st.router, st.axis, st.positive);
    let first_leg = walk_route(topo.dims(), kind, s, d, c, step_link, &mut walked)
        .map_err(|st| TestCaseError::Fail(format!("walk lacks a link at {st:?}")))?;
    let (mut program, [leg1, leg2]) = RouteProgram::new(topo.dims(), kind, s, d, c);
    let coord = |r: usize| topo.coord(r);
    let mid = program.leg_target();
    let mut switched_at = (mid == d).then_some(leg1);
    let (mut here, mut stepped) = (s, Vec::new());
    loop {
        let mut retry = program;
        let retried = retry.next_run(topo.coord(here), d, coord);
        let Some((axis, positive, len)) = program.next_run(topo.coord(here), d, coord) else {
            break;
        };
        prop_assert!(len > 0, "{} ({s},{d}) choice {c}: empty run", kind.name());
        prop_assert_eq!(retried, Some((axis, positive, len)));
        prop_assert_eq!(retry, program);
        if switched_at.is_none() && program.leg_target() != mid {
            switched_at = Some(stepped.len());
        }
        let link = topo.step_link(here, axis, positive);
        prop_assert!(link.is_some(), "no step {axis} {positive} from {here}");
        let link = link.unwrap();
        stepped.push(link as u32);
        here = topo.links()[link].dst;
    }
    let what = format!("{} ({s},{d}) choice {c} via {mid}", kind.name());
    prop_assert!(stepped == walked, "{what}: {stepped:?} != {walked:?}");
    prop_assert_eq!(here, d);
    prop_assert_eq!(program.leg_target(), d);
    prop_assert!(leg1 == first_leg, "{what}: first leg {leg1} != {first_leg}");
    prop_assert_eq!(leg1 + leg2, walked.len());
    prop_assert!(
        switched_at == Some(first_leg),
        "{what}: legs switched at {switched_at:?}, walk's first leg is {first_leg}"
    );
    Ok(())
}

#[test]
fn route_programs_handle_an_intermediate_at_either_end() {
    // Valiant and RLB intermediates that coincide with the source (an
    // empty first leg) or with the destination (an empty second leg).
    let topo = Topology::mesh3d(3, 3, 2);
    let r = topo.num_routers();
    for kind in [
        RoutingKind::Valiant { choices: 8 },
        RoutingKind::RlbValiant { choices: 8 },
    ] {
        let mid = |s: usize, d: usize, c: usize| match kind {
            RoutingKind::Valiant { .. } => valiant_intermediate(r, s, d, c),
            _ => topo.router_at(rlb_intermediate(topo.coord(s), topo.coord(d), c)),
        };
        let (mut at_src, mut at_dst) = (0, 0);
        for s in 0..r {
            for d in (0..r).filter(|&d| d != s) {
                for c in 0..kind.choices() {
                    let m = mid(s, d, c);
                    if m == s || m == d {
                        program_steps_match_walk(&topo, kind, s, d, c).unwrap();
                        let (program, legs) = RouteProgram::new(topo.dims(), kind, s, d, c);
                        assert_eq!(program.leg_target(), m);
                        if m == s {
                            assert_eq!(legs[0], 0, "empty first leg");
                            at_src += 1;
                        } else {
                            assert_eq!(legs[1], 0, "empty second leg");
                            at_dst += 1;
                        }
                    }
                }
            }
        }
        assert!(
            at_src > 0 && at_dst > 0,
            "{}: {at_src} / {at_dst} cases",
            kind.name()
        );
    }
}
