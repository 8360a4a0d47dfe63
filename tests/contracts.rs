//! Fast tier-1 contracts: the bit-identical guarantees the workspace's
//! engines keep, each checked at a size that runs in seconds under the
//! debug profile.
//!
//! Thread invariance: every parallel path fans its work out through
//! `wi_num::par::ordered` and folds the results serially in item order,
//! so the Monte-Carlo BER estimate, a DES rate sweep and a sweep-service
//! run must come out identical at any worker count. The BER driver must
//! also decode no frame below `min_frames` that it will not count, and
//! the same frames on every run at a given worker count (which is what
//! lets a warm frame cache miss nothing).
//!
//! Engine ≡ oracle: each lane of the LDPC lane engine (`wi_ldpc::batch`)
//! must equal the naive scalar oracle on that frame (`decoder::reference`
//! for BP, `window::reference` for the window decoder), bit for bit,
//! including where lanes converge at different iterations and where a
//! window position stops at its fixed point. The one-frame decoder must
//! equal `decoder::reference` too, the arena DES engine must
//! equal `des::reference` under every routing policy and under faults,
//! and the table-driven route walk (`Topology::step_link`) must equal
//! the closed-form icdb routes (`ExpandedGrid::route_into` over
//! `ExpandedGrid::link_id`).
//!
//! Workspace reuse: one LDPC lane workspace that alternates schedules,
//! lane counts and codes, and one BER workspace that alternates target
//! kinds, must give exactly what fresh workspaces give.
//!
//! Pinned routes and traffic: the pillar-mesh route tables are pinned
//! link for link by digest, and so are the first destinations of every
//! traffic pattern on five topologies, so a change to how routes or
//! destinations are built cannot move them silently.
//!
//! Pinned φ table: the LDPC engine and its oracle share
//! `PhiTable::eval`, so the engine ≡ oracle checks cannot see a change
//! to it; its output bits are pinned by digest instead.

use std::collections::BTreeSet;
use std::sync::Mutex;
use wireless_interconnect::ldpc::ber::{
    simulate_ber_with_threads, BerEstimate, BerSimOptions, BerTarget, BerWorkspace, BlockBerTarget,
    CachedBerTarget, CoupledBerTarget, FrameStats, MemoryFrameCache,
};
use wireless_interconnect::ldpc::decoder::{
    awgn_llrs, reference as bp_reference, BpConfig, BpDecoder, CheckRule, DecodeStatus, LLR_CLAMP,
};
use wireless_interconnect::ldpc::kernel::{PhiTable, PHI_X_MAX};
use wireless_interconnect::ldpc::window::{
    reference as window_reference, CoupledCode, WindowDecoder,
};
use wireless_interconnect::ldpc::{BatchWorkspace, LdpcCode};
use wireless_interconnect::noc::des::traffic::{TrafficKind, TrafficPattern};
use wireless_interconnect::noc::des::{
    reference as des_reference, sweep_with_threads, DesConfig, Engine, FaultConfig, SweepConfig,
};
use wireless_interconnect::noc::icdb::{ExpandedGrid, HybridBoards};
use wireless_interconnect::noc::irregular::PillarMesh3d;
use wireless_interconnect::noc::routing::{RouteTable, RoutingKind};
use wireless_interconnect::noc::topology::Topology;
use wireless_interconnect::num::rng::{seeded_rng, Gaussian};
use wireless_interconnect::sweep::exec::{fold, run, RunOptions};
use wireless_interconnect::sweep::spec::{Axis, EvalSpec, SweepSpec};
use wireless_interconnect::sweep::store::ResultStore;

#[test]
fn ber_estimate_is_thread_invariant_with_a_mid_round_stop() {
    let code = LdpcCode::paper_block(20, 0xC0);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    let opts = BerSimOptions {
        target_errors: 30,
        max_frames: 200,
        min_frames: 4,
        seed: 0x5107,
    };
    let serial = simulate_ber_with_threads(&target, 1.5, &opts, 1);
    // The first round of either driver ends at min_frames; after it the
    // serial driver runs one 8-frame batch per round and the threaded one
    // 48 frames per round at 3 workers (two waves of three 8-frame
    // batches). The error budget runs out inside a batch, so both must
    // discard speculatively decoded frames.
    assert!(
        serial.frames < opts.max_frames && !(serial.frames - opts.min_frames).is_multiple_of(8),
        "the stop must land mid-batch, got {} frames",
        serial.frames
    );
    assert_eq!(simulate_ber_with_threads(&target, 1.5, &opts, 3), serial);
}

/// A [`BerTarget`] that forwards to `inner` and logs every frame it
/// evaluates, counted or not.
struct LoggingTarget<'a> {
    inner: &'a dyn BerTarget,
    frames: Mutex<Vec<u64>>,
}

impl BerTarget for LoggingTarget<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.inner.bits_per_frame()
    }

    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        self.frames
            .lock()
            .unwrap()
            .extend(first..first + out.len() as u64);
        self.inner.eval_frames_each(ws, ebn0_db, seed, first, out);
    }
}

/// One BER estimate of `target` and every frame it evaluated, sorted.
fn logged_estimate(
    target: &dyn BerTarget,
    ebn0_db: f64,
    opts: &BerSimOptions,
    threads: usize,
) -> (BerEstimate, Vec<u64>) {
    let logging = LoggingTarget {
        inner: target,
        frames: Mutex::new(Vec::new()),
    };
    let est = simulate_ber_with_threads(&logging, ebn0_db, opts, threads);
    let mut frames = logging.frames.into_inner().unwrap();
    frames.sort_unstable();
    (est, frames)
}

#[test]
fn ber_rounds_end_at_min_frames_and_evaluate_a_fixed_frame_set() {
    let code = LdpcCode::paper_block(20, 0xC0);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    assert_eq!(target.batch_width(), 8);
    // Far below the waterfall one frame meets the one-error budget, so
    // the stop fires at min_frames. Nothing below min_frames can stop,
    // so no frame past it may be evaluated: 20 frames at 8 lanes, not
    // the 24 of 8-frame rounds or the 32 of a 2 × 16-frame round. At 3
    // workers the 20 frames split unevenly (7, 7, 6), so every frame
    // must still be dealt exactly once.
    let at_floor = BerSimOptions {
        target_errors: 1,
        max_frames: 200,
        min_frames: 20,
        seed: 0x51,
    };
    let past_floor = BerSimOptions {
        target_errors: 30,
        max_frames: 200,
        min_frames: 4,
        seed: 0x5107,
    };
    for threads in [1, 2, 3, 4] {
        let (est, frames) = logged_estimate(&target, -2.0, &at_floor, threads);
        assert_eq!(est.frames, 20, "{threads} threads");
        assert_eq!(frames, (0..20).collect::<Vec<_>>(), "{threads} threads");
        assert_eq!(
            logged_estimate(&target, -2.0, &at_floor, threads),
            (est, frames)
        );
        // Past the floor the rounds speculate; a rerun at the same thread
        // count must still evaluate exactly the same frames.
        let first = logged_estimate(&target, 1.5, &past_floor, threads);
        assert!(first.1.len() as u64 > first.0.frames, "{threads} threads");
        assert_eq!(
            logged_estimate(&target, 1.5, &past_floor, threads),
            first,
            "{threads} threads"
        );
    }
}

#[test]
fn des_sweep_is_thread_invariant() {
    let topo = Topology::mesh2d(3, 3);
    let cfg = SweepConfig::new(
        vec![0.1, 0.4, 0.9],
        3,
        DesConfig {
            warmup_packets: 50,
            measured_packets: 400,
            max_events: 50_000,
            seed: 0xC0_47,
            ..DesConfig::default()
        },
    );
    let serial = sweep_with_threads(&topo, &cfg, 1);
    assert_eq!(sweep_with_threads(&topo, &cfg, 4), serial);
}

#[test]
fn sweep_run_stores_and_folds_identically_at_any_thread_count() {
    let spec = SweepSpec {
        name: "contracts".into(),
        base: "paper".into(),
        axes: vec![Axis {
            field: "traffic".into(),
            values: vec!["uniform".into(), "transpose".into()],
        }],
        seeds: vec![1, 2, 3],
        eval: EvalSpec::NocKnee {
            rates: vec![0.1, 0.4],
            warmup_packets: 20,
            measured_packets: 120,
            max_events: 60_000,
        },
    };
    let mut outputs = Vec::new();
    for threads in [1, 4] {
        let mut store = ResultStore::in_memory();
        let opts = RunOptions {
            threads,
            max_cells: None,
        };
        let summary = run(&spec, &mut store, &opts).unwrap();
        assert!(summary.complete && summary.executed == 6);
        let records: Vec<_> = store.iter().cloned().collect();
        outputs.push((fold(&spec, &store).unwrap(), records));
    }
    assert_eq!(outputs[0], outputs[1]);
}

/// The three check rules, each with its own kernel.
const RULES: [CheckRule; 3] = [
    CheckRule::SumProduct,
    CheckRule::MinSum { alpha: 0.8 },
    CheckRule::SumProductTable { bits: 7 },
];

/// Channel LLRs of the all-zero codeword over BPSK/AWGN, one frame per
/// lane.
fn lane_frames(n: usize, sigma: f64, seed: u64) -> Vec<Vec<f64>> {
    (0..8)
        .map(|lane| {
            let mut rng = seeded_rng(seed + lane);
            let mut gauss = Gaussian::new();
            let rx: Vec<f64> = (0..n)
                .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            awgn_llrs(&rx, sigma)
        })
        .collect()
}

#[test]
fn batched_window_decoder_matches_scalar_per_lane() {
    // 40 iterations on fairly clean frames, so positions stop at their
    // fixed point; the last position activates no new rows, so under the
    // reuse schedule it can start with every check unchanged.
    let code = CoupledCode::paper_cc(8, 5, 0xC0DE);
    let n = code.code().len();
    let frames = lane_frames(n, 0.5, 0x3A00);
    let mut bws = BatchWorkspace::new(code.code(), 8);
    for rule in RULES {
        for decoder in [WindowDecoder::new(4, 40), WindowDecoder::with_reuse(4, 40)] {
            let decoder = decoder.with_rule(rule);
            for (lane, llr) in frames.iter().enumerate() {
                bws.set_lane_llr(lane, llr);
            }
            decoder.decode_batch(&mut bws, &code);
            for (lane, llr) in frames.iter().enumerate() {
                let batched: Vec<bool> = (0..n).map(|v| bws.hard_bit(v, lane)).collect();
                let want = window_reference::decode(&decoder, &code, llr);
                assert_eq!(batched, want, "{decoder:?} lane {lane}");
            }
        }
    }
}

#[test]
fn batched_bp_decoder_matches_scalar_per_lane() {
    let code = LdpcCode::paper_block(20, 77);
    let frames = lane_frames(code.len(), 0.7, 0x3B00);
    let mut bws = BatchWorkspace::new(&code, 8);
    for rule in RULES {
        let config = BpConfig {
            max_iterations: 40,
            check_rule: rule,
        };
        let decoder = BpDecoder::new(&code, config);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws);
        let mut iterations = BTreeSet::new();
        for (lane, llr) in frames.iter().enumerate() {
            let want = bp_reference::decode(&code, config, llr);
            iterations.insert(want.iterations);
            let status = DecodeStatus {
                iterations: want.iterations,
                converged: want.converged,
            };
            assert_eq!(bws.status(lane), status, "{rule:?} lane {lane}");
            for (v, p) in want.posterior.iter().enumerate() {
                assert_eq!(
                    bws.posterior_at(v, lane).to_bits(),
                    p.to_bits(),
                    "{rule:?} lane {lane} var {v}"
                );
            }
        }
        assert!(
            iterations.len() >= 3,
            "{rule:?}: lanes must converge at different iterations, got {iterations:?}"
        );
    }
}

/// Sizes `ws` for `frames.len()` lanes of `code`, loads the frames, runs
/// `decode` and reads back each lane's hard bits and posterior bits.
fn decode_lanes(
    ws: &mut BatchWorkspace,
    code: &LdpcCode,
    frames: &[Vec<f64>],
    decode: impl FnOnce(&mut BatchWorkspace),
) -> Vec<(Vec<bool>, Vec<u64>)> {
    ws.ensure(code, frames.len());
    for (lane, llr) in frames.iter().enumerate() {
        ws.set_lane_llr(lane, llr);
    }
    decode(ws);
    (0..frames.len())
        .map(|lane| {
            let hard = (0..code.len()).map(|v| ws.hard_bit(v, lane)).collect();
            let posterior = (0..code.len())
                .map(|v| ws.posterior_at(v, lane).to_bits())
                .collect();
            (hard, posterior)
        })
        .collect()
}

#[test]
fn one_lane_workspace_serves_both_schedules_like_fresh_ones() {
    // A block code for BP and a longer coupled code for the window
    // decoder, so every switch of schedule also resizes the workspace.
    let block = LdpcCode::paper_block(20, 77);
    let coupled = CoupledCode::paper_cc(8, 5, 0xC0DE);
    let bp_frames = lane_frames(block.len(), 0.7, 0x3D00);
    let window_frames = lane_frames(coupled.code().len(), 0.8, 0x3E00);
    let mut shared = BatchWorkspace::default();
    for rule in RULES {
        let bp = BpDecoder::new(
            &block,
            BpConfig {
                max_iterations: 40,
                check_rule: rule,
            },
        );
        // `None` is a BP step. Few window iterations on noisy frames, so
        // no position reaches a fixed point that stale state would reach
        // too.
        let steps = [
            (None, 8),
            (Some(WindowDecoder::new(4, 3)), 8),
            (None, 1),
            (Some(WindowDecoder::with_reuse(4, 3)), 4),
        ];
        for (window, lanes) in steps {
            let window = window.map(|w| w.with_rule(rule));
            let (code, frames) = match window {
                Some(_) => (coupled.code(), &window_frames[..lanes]),
                None => (&block, &bp_frames[..lanes]),
            };
            let decode = |ws: &mut BatchWorkspace| match &window {
                Some(w) => w.decode_batch(ws, &coupled),
                None => bp.decode_batch(ws),
            };
            let mut fresh = BatchWorkspace::default();
            let got = decode_lanes(&mut shared, code, frames, decode);
            let want = decode_lanes(&mut fresh, code, frames, decode);
            assert_eq!(got, want, "{rule:?} {window:?} at {lanes} lanes");
            if window.is_none() {
                let status =
                    |ws: &BatchWorkspace| (0..lanes).map(|l| ws.status(l)).collect::<Vec<_>>();
                assert_eq!(
                    status(&shared),
                    status(&fresh),
                    "{rule:?} BP at {lanes} lanes"
                );
            }
        }
    }
}

#[test]
fn one_ber_workspace_serves_every_target_kind_like_fresh_ones() {
    let block_code = LdpcCode::paper_block(20, 77);
    let coupled_code = CoupledCode::paper_cc(8, 5, 0xC0DE);
    let config = BpConfig {
        max_iterations: 30,
        ..BpConfig::default()
    };
    let block = BlockBerTarget::new(&block_code, config, 0.5);
    let coupled = CoupledBerTarget::new(&coupled_code, WindowDecoder::new(4, 20));
    let cache = MemoryFrameCache::new();
    let cached = CachedBerTarget::new(&coupled, &cache);
    // Each target with the uncached target its frames must equal.
    let targets: [(&dyn BerTarget, &dyn BerTarget); 3] =
        [(&block, &block), (&coupled, &coupled), (&cached, &coupled)];
    let mut shared = BerWorkspace::new();
    // Eleven frames are a full batch of 8 and remainders of widths 2 and
    // 1; overlapping ranges give the cached target hits and misses.
    for round in 0..3u64 {
        for (k, (target, reference)) in targets.iter().enumerate() {
            let first = 5 * round + k as u64;
            let mut got = [FrameStats::default(); 11];
            target.eval_frames_each(&mut shared, 1.5, 0x5EED, first, &mut got);
            let mut want = [FrameStats::default(); 11];
            reference.eval_frames_each(&mut BerWorkspace::new(), 1.5, 0x5EED, first, &mut want);
            assert_eq!(got, want, "target {k}, frames from {first}");
        }
    }
    let (hits, misses) = cache.counters();
    assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
}

#[test]
fn csr_bp_decoder_matches_reference_oracle() {
    let code = LdpcCode::paper_block(20, 77);
    let frames = lane_frames(code.len(), 0.7, 0x3C00);
    for rule in RULES {
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule,
        };
        let decoder = BpDecoder::new(&code, config);
        for (frame, llr) in frames.iter().take(3).enumerate() {
            assert_eq!(
                decoder.decode(llr),
                bp_reference::decode(&code, config, llr),
                "{rule:?} frame {frame}"
            );
        }
    }
}

/// One policy of each kind the engine routes differently: route
/// programs in one and several orders, two-leg detours, and the per-hop
/// adaptive scan.
const POLICIES: [RoutingKind; 5] = [
    RoutingKind::DimensionOrder,
    RoutingKind::O1Turn,
    RoutingKind::Valiant { choices: 3 },
    RoutingKind::RlbValiant { choices: 3 },
    RoutingKind::Adaptive,
];

#[test]
fn des_engine_matches_reference_oracle() {
    let base = DesConfig {
        injection_rate: 0.2,
        warmup_packets: 100,
        measured_packets: 600,
        seed: 0xD35,
        ..DesConfig::default()
    };
    // The mesh, and a star mesh whose modules share routers: a packet
    // between two modules of one router takes no detour.
    for topo in [Topology::mesh3d(3, 3, 2), Topology::star_mesh(3, 2, 3)] {
        for routing in POLICIES {
            let cfg = DesConfig { routing, ..base };
            assert_eq!(
                Engine::with_routing(&topo, routing).run(&cfg),
                des_reference::simulate(&topo, &cfg),
                "{} on {:?}",
                routing.name(),
                topo.kind()
            );
        }
    }
    // Corrupted hops retransmit under ARQ. Adaptive retries re-run the
    // scan over the topology's unit-step links; a Valiant retry at the
    // intermediate must switch legs once, and the corruption hash's hop
    // index (`hops - remaining` in the engine) must follow the oracle's.
    let topo = Topology::mesh3d(3, 3, 2);
    for routing in [RoutingKind::Adaptive, RoutingKind::Valiant { choices: 3 }] {
        let faulty = DesConfig {
            routing,
            fault: FaultConfig::uniform(0.05),
            ..base
        };
        let got = Engine::with_routing(&topo, routing).run(&faulty);
        assert!(
            got.retries > 0,
            "{}: faults must cause retries",
            routing.name()
        );
        assert_eq!(
            got,
            des_reference::simulate(&topo, &faulty),
            "faulty {}",
            routing.name()
        );
    }
}

#[test]
fn route_tables_match_closed_form_route_programs() {
    let topo = Topology::mesh3d(3, 3, 2);
    let grid = ExpandedGrid::mesh3d(3, 3, 2);
    for kind in POLICIES {
        assert_eq!(
            RouteTable::with_policy(&topo, kind),
            RouteTable::from_routes(&grid.to_topology(), kind, |a, b, c, out| {
                grid.route_into(kind, a, b, c, out)
            }),
            "{}",
            kind.name()
        );
    }
    for router in 0..grid.num_routers() {
        let coord = grid.coord(router);
        for axis in 0..3 {
            for positive in [false, true] {
                let present = if positive {
                    coord[axis] + 1 < grid.dims()[axis]
                } else {
                    coord[axis] > 0
                };
                assert_eq!(
                    topo.step_link(router, axis, positive),
                    present.then(|| grid.link_id(coord, axis, positive)),
                    "{coord:?} axis {axis} positive {positive}"
                );
            }
        }
    }
}

/// FNV-1a-64 over the little-endian bytes of `words`, continuing from
/// `hash`.
fn fnv1a_u32s(mut hash: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn pillar_route_tables_are_pinned() {
    // For each router pair in row-major order: the hop count, then the
    // link ids of the pair's route.
    for (dims, pitch, want) in [
        ([4, 4, 4], 1, 0xe424_db50_541c_e6a5),
        ([4, 4, 4], 2, 0x2896_ea93_44e1_9325),
        ([4, 4, 4], 4, 0x943e_8055_cb7d_cc25),
        ([6, 6, 3], 3, 0x3e7a_cd89_f73c_5735),
        ([5, 7, 2], 3, 0x5a4d_d478_0407_7a50),
    ] {
        let [x, y, z] = dims;
        let mesh = PillarMesh3d::new(x, y, z, pitch);
        let table = mesh.route_table();
        let routers = mesh.topology().num_routers();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for a in 0..routers {
            for b in 0..routers {
                let links = table.router_links_choice(a, b, 0);
                hash = fnv1a_u32s(hash, std::iter::once(links.len() as u32));
                hash = fnv1a_u32s(hash, links.iter().copied());
            }
        }
        assert_eq!(hash, want, "{dims:?} at pitch {pitch}: {hash:#018x}");
    }
}

#[test]
fn traffic_destinations_are_pinned() {
    // The first 2000 destinations of each pattern from one seeded stream,
    // sources cycling over the modules. Every topology has 64 modules, so
    // the patterns that read only the module count agree across them.
    let topologies = [
        ("mesh3d 4x4x4", Topology::mesh3d(4, 4, 4)),
        ("star mesh 4x4 c4", Topology::star_mesh(4, 4, 4)),
        ("ciliated 4x4x2 c2", Topology::ciliated_mesh3d(4, 4, 2, 2)),
        (
            "2 boards of 4x4x2",
            HybridBoards::with_radio_count(2, [4, 4, 2], 2)
                .topology()
                .clone(),
        ),
        (
            "pillars 4x4x4 pitch 2",
            PillarMesh3d::new(4, 4, 4, 2).topology().clone(),
        ),
    ];
    let want: [[u64; 5]; 5] = [
        [
            0x7370_aae9_13c6_d1a7,
            0xca34_f379_0373_c0dc,
            0xd14c_4909_6108_e560,
            0x97d8_64ed_3bca_b4d7,
            0xf42d_dc26_0394_4a05,
        ],
        [
            0x7370_aae9_13c6_d1a7,
            0xca34_f379_0373_c0dc,
            0xab1f_29e1_4a14_faf2,
            0x97d8_64ed_3bca_b4d7,
            0xe2a5_80a2_6033_0d3d,
        ],
        [
            0x7370_aae9_13c6_d1a7,
            0xca34_f379_0373_c0dc,
            0xf825_3846_abb3_7db0,
            0x97d8_64ed_3bca_b4d7,
            0xdf40_8b45_4e08_c4e5,
        ],
        [
            0x7370_aae9_13c6_d1a7,
            0xca34_f379_0373_c0dc,
            0x28cd_c317_5e9d_41f0,
            0x97d8_64ed_3bca_b4d7,
            0xa296_a8f7_ce1f_40ca,
        ],
        [
            0x7370_aae9_13c6_d1a7,
            0xca34_f379_0373_c0dc,
            0xd14c_4909_6108_e560,
            0x97d8_64ed_3bca_b4d7,
            0x81de_9144_637a_b7ab,
        ],
    ];
    let patterns = [
        "uniform",
        "hotspot:5:0.3",
        "transpose",
        "bitrev",
        "neighbor",
    ];
    for ((name, topo), want) in topologies.iter().zip(want) {
        let n = topo.num_modules();
        for (pattern, want) in patterns.iter().zip(want) {
            let kind = TrafficKind::parse(pattern).expect("a known pattern");
            let mut rng = seeded_rng(0x7AFF1C);
            let hash = fnv1a_u32s(
                0xcbf2_9ce4_8422_2325,
                (0..2000).map(|i| kind.dest(i % n, topo, &mut rng) as u32),
            );
            assert_eq!(hash, want, "{pattern} on {name}: {hash:#018x}");
        }
    }
}

/// splitmix64: a fixed input stream that needs no RNG crate and no libm.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `x` one ulp down, itself, and one ulp up (`x` positive and finite).
fn ulp_neighbours(x: f64) -> [f64; 3] {
    [
        f64::from_bits(x.to_bits() - 1),
        x,
        f64::from_bits(x.to_bits() + 1),
    ]
}

#[test]
fn phi_table_values_are_pinned() {
    // The engine and `decoder::reference` share `PhiTable::eval`, so the
    // engine ≡ oracle contracts cannot see a change to its output: the
    // bits are pinned here. Inputs: 0, the clamp knee and `PHI_X_MAX`
    // one ulp either side, every node of three octaves (deep in the
    // head, around 1, and the octave holding `PHI_X_MAX`) one ulp either
    // side, and 10⁴ log-uniform points from below the table to beyond it.
    let knee = 2.0 * (-LLR_CLAMP).exp().atanh();
    for (bits, want) in [
        (2, 0xc741_132c_3601_ff89u64),
        (7, 0xf6b2_e024_425a_5863),
        (12, 0x2c8c_b1be_754c_74a1),
    ] {
        let table = PhiTable::new(bits);
        let mut inputs = vec![0.0];
        inputs.extend(ulp_neighbours(knee));
        inputs.extend(ulp_neighbours(PHI_X_MAX));
        for octave in [-30i64, 0, 4] {
            for cell in 0..1u64 << bits {
                let node = (((1023 + octave) as u64) << 52) | (cell << (52 - bits));
                inputs.extend(ulp_neighbours(f64::from_bits(node)));
            }
        }
        let mut state = u64::from(bits);
        for _ in 0..10_000 {
            // A binary exponent uniform in −45..6 and uniform mantissa
            // bits.
            let r = splitmix64(&mut state);
            let exp = (r >> 52) % 51;
            inputs.push(f64::from_bits(
                ((exp + 1023 - 45) << 52) | (r & ((1 << 52) - 1)),
            ));
        }
        // Each value's bits as two little-endian words, low word first:
        // its eight little-endian bytes.
        let words = inputs.iter().flat_map(|&x| {
            let v = table.eval(x).to_bits();
            [v as u32, (v >> 32) as u32]
        });
        let hash = fnv1a_u32s(0xcbf2_9ce4_8422_2325, words);
        assert_eq!(hash, want, "bits {bits}: {hash:#018x}");
    }
}
