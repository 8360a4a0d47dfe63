//! Criterion performance benches for the hot computational kernels behind
//! the figure harness: the 4096-point VNA transform, information-rate
//! computation, the NoC analytic model and DES, and BP/window decoding.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wi_channel::geometry::BoardLink;
use wi_channel::rays::TwoBoardScene;
use wi_channel::vna::SyntheticVna;
use wi_ldpc::ber::{ebn0_db_to_sigma, simulate_ber_with_threads, BerSimOptions, BlockBerTarget};
use wi_ldpc::decoder::{awgn_llrs, reference, BpConfig, BpDecoder, CheckRule, DecoderWorkspace};
use wi_ldpc::kernel::{
    min_sum_batch, sum_product_exact_batch, sum_product_table_batch, ExactBatchScratch, PhiTable,
};
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_ldpc::{BatchWorkspace, LdpcCode};
use wi_noc::analytic::{AnalyticModel, RouterParams};
use wi_noc::des::{simulate, DesConfig};
use wi_noc::topology::Topology;
use wi_num::fft::{dft, Direction};
use wi_num::rng::{seeded_rng, Gaussian};
use wi_num::window::WindowKind;
use wi_num::Complex64;
use wi_quantrx::info_rate::{
    sequence_information_rate, snr_db_to_sigma, symbolwise_information_rate, SequenceRateOptions,
};
use wi_quantrx::modulation::AskModulation;
use wi_quantrx::presets;
use wi_quantrx::trellis::ChannelTrellis;

fn bench_fft(c: &mut Criterion) {
    let x: Vec<Complex64> = (0..4096).map(|k| Complex64::cis(k as f64 * 0.01)).collect();
    c.bench_function("fft_4096", |b| {
        b.iter(|| dft(black_box(&x), Direction::Forward))
    });
}

fn bench_vna(c: &mut Criterion) {
    let scene = TwoBoardScene::copper_boards(BoardLink::ahead(0.05, 0.01));
    let channel = scene.trace();
    let vna = SyntheticVna::paper_default();
    c.bench_function("vna_sweep_4096", |b| {
        b.iter(|| vna.measure(black_box(&channel)))
    });
    let resp = vna.measure(&channel);
    c.bench_function("vna_impulse_response", |b| {
        b.iter(|| resp.impulse_response(WindowKind::Hann))
    });
}

fn bench_info_rate(c: &mut Criterion) {
    let modu = AskModulation::four_ask();
    let trellis = ChannelTrellis::new(&modu, &presets::sequence_filter());
    let sigma = snr_db_to_sigma(15.0);
    c.bench_function("symbolwise_rate_exact", |b| {
        b.iter(|| symbolwise_information_rate(black_box(&trellis), sigma))
    });
    let mc = SequenceRateOptions {
        num_symbols: 2_000,
        seed: 1,
    };
    c.bench_function("sequence_rate_2k_symbols", |b| {
        b.iter(|| sequence_information_rate(black_box(&trellis), sigma, mc))
    });
}

fn bench_noc(c: &mut Criterion) {
    let topo = Topology::mesh3d(4, 4, 4);
    c.bench_function("analytic_model_build_64", |b| {
        b.iter(|| AnalyticModel::new(black_box(&topo), RouterParams::default()))
    });
    let model = AnalyticModel::new(&topo, RouterParams::default());
    c.bench_function("analytic_latency_point", |b| {
        b.iter(|| model.mean_latency(black_box(0.3)))
    });
    c.bench_function("des_4x4_2k_packets", |b| {
        b.iter(|| {
            simulate(
                black_box(&Topology::mesh2d(4, 4)),
                &DesConfig {
                    injection_rate: 0.1,
                    warmup_packets: 200,
                    measured_packets: 2_000,
                    ..DesConfig::default()
                },
            )
        })
    });
}

fn bench_ldpc(c: &mut Criterion) {
    let code = LdpcCode::paper_block(100, 1);
    let sigma = ebn0_db_to_sigma(3.0, 0.5);
    let mut rng = seeded_rng(7);
    let mut gauss = Gaussian::new();
    let rx: Vec<f64> = (0..code.len())
        .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
        .collect();
    let llr = awgn_llrs(&rx, sigma);

    // The lane engine at one lane (fresh workspace per call) vs the
    // retained naive reference vs a reused workspace — the speedup the
    // engine exists for.
    let decoder = BpDecoder::new(&code, BpConfig::default());
    c.bench_function("bp_decode_n200", |b| {
        b.iter(|| decoder.decode(black_box(&llr)))
    });
    c.bench_function("bp_decode_naive_n200", |b| {
        b.iter(|| reference::decode(&code, BpConfig::default(), black_box(&llr)))
    });
    let mut ws = DecoderWorkspace::new(&code);
    c.bench_function("bp_decode_workspace_n200", |b| {
        b.iter(|| decoder.decode_in_place(&mut ws, black_box(&llr)))
    });
    let minsum_config = BpConfig {
        check_rule: CheckRule::min_sum(),
        ..BpConfig::default()
    };
    let minsum = BpDecoder::new(&code, minsum_config);
    c.bench_function("bp_decode_minsum_n200", |b| {
        b.iter(|| minsum.decode_in_place(&mut ws, black_box(&llr)))
    });
    c.bench_function("bp_decode_naive_minsum_n200", |b| {
        b.iter(|| reference::decode(&code, minsum_config, black_box(&llr)))
    });
    // The φ-table sum-product rule: sum-product accuracy without the
    // tanh/atanh inner loop. The acceptance bar for the kernel subsystem
    // is ≥3× over bp_decode_workspace_n200 (exact sum-product).
    let sptable_config = BpConfig {
        check_rule: CheckRule::sum_product_table(),
        ..BpConfig::default()
    };
    let sptable = BpDecoder::new(&code, sptable_config);
    c.bench_function("bp_decode_sptable_n200", |b| {
        b.iter(|| sptable.decode_in_place(&mut ws, black_box(&llr)))
    });
    c.bench_function("bp_decode_naive_sptable_n200", |b| {
        b.iter(|| reference::decode(&code, sptable_config, black_box(&llr)))
    });

    // Check-kernel microbenches over the full check range of the n = 200
    // code (all checks degree 8) at one lane, every lane masked in: what
    // a one-frame decode pays per check update under each rule.
    let offsets = code.check_edge_offsets();
    let n_checks = code.num_checks();
    let v2c: Vec<[f64; 1]> = (0..code.num_edges())
        .map(|_| [gauss.sample_with(&mut rng, 0.0, 4.0)])
        .collect();
    let mut c2v = vec![[0.0f64; 1]; code.num_edges()];
    let mut scratch = vec![[0.0f64; 1]; code.max_check_degree()];
    let mut exact1 = ExactBatchScratch::new(code.num_edges(), code.max_check_degree(), 1);
    let all_in = vec![1u8; n_checks];
    c.bench_function("check_minsum_batch1_deg8", |b| {
        b.iter(|| {
            min_sum_batch(
                offsets,
                0,
                n_checks,
                &all_in,
                0.8,
                black_box(&v2c),
                &mut c2v,
            )
        })
    });
    c.bench_function("check_sumproduct_exact_batch1_deg8", |b| {
        b.iter(|| {
            sum_product_exact_batch(
                offsets,
                0,
                n_checks,
                &all_in,
                black_box(&v2c),
                &mut c2v,
                &mut exact1,
            )
        })
    });
    // The lane-array exact kernel on 8 frames of messages like the above
    // (divide by 8 for the per-frame cost): every lane masked in, then
    // alternate lanes only, as when converged or unchanged lanes drop
    // out. Its own stream, so the rows below keep their inputs.
    let (mut rng8, mut gauss8) = (seeded_rng(8), Gaussian::new());
    let v2c8: Vec<[f64; 8]> = (0..code.num_edges())
        .map(|_| core::array::from_fn(|_| gauss8.sample_with(&mut rng8, 0.0, 4.0)))
        .collect();
    let mut c2v8 = vec![[0.0f64; 8]; code.num_edges()];
    let mut exact8 = ExactBatchScratch::new(code.num_edges(), code.max_check_degree(), 8);
    for (name, mask) in [
        ("check_sumproduct_exact_batch8_deg8", 0xFFu8),
        ("check_sumproduct_exact_batch8_half_deg8", 0x55),
    ] {
        let masks = vec![mask; n_checks];
        c.bench_function(name, |b| {
            b.iter(|| {
                sum_product_exact_batch(
                    offsets,
                    0,
                    n_checks,
                    &masks,
                    black_box(&v2c8),
                    &mut c2v8,
                    &mut exact8,
                )
            })
        });
    }
    let phi = PhiTable::new(7);
    c.bench_function("check_sumproduct_table_batch1_deg8", |b| {
        b.iter(|| {
            sum_product_table_batch(
                offsets,
                0,
                n_checks,
                &all_in,
                &phi,
                black_box(&v2c),
                &mut c2v,
                &mut scratch,
            )
        })
    });
    // The φ-table kernel on the exact rows' 8 frames, all lanes then
    // alternate lanes: it computes every lane of a masked check and
    // stores the masked-in ones, so half a mask costs as much as a full
    // one.
    let mut scratch8 = vec![[0.0f64; 8]; code.max_check_degree()];
    for (name, mask) in [
        ("check_sumproduct_table_batch8_deg8", 0xFFu8),
        ("check_sumproduct_table_batch8_half_deg8", 0x55),
    ] {
        let masks = vec![mask; n_checks];
        c.bench_function(name, |b| {
            b.iter(|| {
                sum_product_table_batch(
                    offsets,
                    0,
                    n_checks,
                    &masks,
                    &phi,
                    black_box(&v2c8),
                    &mut c2v8,
                    &mut scratch8,
                )
            })
        });
    }

    // Inter-frame batched BP: 4 and 8 frames decoded in lockstep through
    // the lane-array kernels (bit-identical per frame to a one-frame
    // decode, the row before). Divide by the lane count for the
    // per-frame cost the BER harness actually pays.
    let frames: Vec<Vec<f64>> = (0..8)
        .map(|lane| {
            let mut rng = seeded_rng(100 + lane);
            let mut gauss = Gaussian::new();
            let rx: Vec<f64> = (0..code.len())
                .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            awgn_llrs(&rx, sigma)
        })
        .collect();
    c.bench_function("bp_decode_minsum_8frames_n200", |b| {
        b.iter(|| {
            for llr in &frames {
                minsum.decode_in_place(&mut ws, black_box(llr));
            }
        })
    });
    for lanes in [4usize, 8] {
        let mut bws = BatchWorkspace::new(&code, lanes);
        c.bench_function(&format!("bp_decode_batch{lanes}_n200"), |b| {
            b.iter(|| {
                for (lane, llr) in frames[..lanes].iter().enumerate() {
                    bws.set_lane_llr(lane, black_box(llr));
                }
                minsum.decode_batch(&mut bws);
            })
        });
    }

    let cc = CoupledCode::paper_cc(25, 10, 2);
    let rx_cc: Vec<f64> = (0..cc.code().len())
        .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
        .collect();
    let llr_cc = awgn_llrs(&rx_cc, sigma);
    let wd = WindowDecoder::new(4, 20);
    c.bench_function("window_decode_n25_l10", |b| {
        b.iter(|| wd.decode(black_box(&cc), black_box(&llr_cc)))
    });
    let mut wws = DecoderWorkspace::new(cc.code());
    c.bench_function("window_decode_workspace_n25_l10", |b| {
        b.iter(|| wd.decode_in_place(&mut wws, black_box(&cc), black_box(&llr_cc)))
    });
    // One-frame window decoding under the other two rules (the rows
    // above are the exact rule). Each iteration recomputes a check only
    // where its inputs changed and a position stops at its fixed point,
    // which saves the most under the exact and φ-table rules, whose
    // per-edge evaluations dominate; min-sum gains the least.
    let wd_ms = WindowDecoder::new(4, 20).with_rule(CheckRule::min_sum());
    c.bench_function("window_decode_minsum_n25_l10", |b| {
        b.iter(|| wd_ms.decode_in_place(&mut wws, black_box(&cc), black_box(&llr_cc)))
    });
    let mut wbws1 = BatchWorkspace::new(cc.code(), 1);
    let wd_table = WindowDecoder::new(4, 20).with_rule(CheckRule::sum_product_table());
    c.bench_function("window_decode_table_batch1_n25_l10", |b| {
        b.iter(|| {
            wbws1.set_lane_llr(0, black_box(&llr_cc));
            wd_table.decode_batch(&mut wbws1, &cc);
        })
    });
    // Batched window decoding: 8 frames slide the window in lockstep
    // (divide by 8 for the per-frame cost), under all three rules.
    let cc_frames: Vec<Vec<f64>> = (0..8)
        .map(|lane| {
            let mut rng = seeded_rng(200 + lane);
            let mut gauss = Gaussian::new();
            let rx: Vec<f64> = (0..cc.code().len())
                .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            awgn_llrs(&rx, sigma)
        })
        .collect();
    let mut wbws = BatchWorkspace::new(cc.code(), 8);
    for (name, rule) in [
        ("window_decode_batch8_n25_l10", CheckRule::min_sum()),
        ("window_decode_exact_batch8_n25_l10", CheckRule::SumProduct),
        (
            "window_decode_table_batch8_n25_l10",
            CheckRule::sum_product_table(),
        ),
    ] {
        let wd_batch = WindowDecoder::new(4, 20).with_rule(rule);
        c.bench_function(name, |b| {
            b.iter(|| {
                for (lane, llr) in cc_frames.iter().enumerate() {
                    wbws.set_lane_llr(lane, black_box(llr));
                }
                wd_batch.decode_batch(&mut wbws, &cc);
            })
        });
    }
}

fn bench_ber(c: &mut Criterion) {
    // Serial vs parallel Monte-Carlo BER at a fixed frame budget (the
    // results are bit-identical; only wall clock differs).
    let code = LdpcCode::paper_block(50, 21);
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 24,
        min_frames: 24,
        seed: 0xBE5,
    };
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    c.bench_function("ber_bc_n100_24f_serial", |b| {
        b.iter(|| simulate_ber_with_threads(&target, 2.5, black_box(&opts), 1))
    });
    let threads = wi_num::par::threads();
    c.bench_function("ber_bc_n100_24f_parallel", |b| {
        b.iter(|| simulate_ber_with_threads(&target, 2.5, black_box(&opts), threads))
    });

    // The whole-probe payoff of inter-frame batching: one fixed-budget
    // BER evaluation with the batch-1 target (one frame at a time on the
    // one-lane engine) vs the full-width batched default, min-sum (the
    // rule the batch path accelerates). Results are bit-identical; the
    // ratio is the BER-harness speedup.
    let minsum_config = BpConfig {
        check_rule: CheckRule::min_sum(),
        ..BpConfig::default()
    };
    let batch1_target = BlockBerTarget::new(&code, minsum_config, 0.5).with_batch(1);
    c.bench_function("ber_eval_batch1_n100_24f", |b| {
        b.iter(|| simulate_ber_with_threads(&batch1_target, 2.5, black_box(&opts), 1))
    });
    let batched_target = BlockBerTarget::new(&code, minsum_config, 0.5).with_batch(8);
    c.bench_function("ber_eval_batch_vs_scalar", |b| {
        b.iter(|| simulate_ber_with_threads(&batched_target, 2.5, black_box(&opts), 1))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_fft, bench_vna, bench_info_rate, bench_noc, bench_ldpc, bench_ber
}
criterion_main!(kernels);
