//! Property tests pinning the inter-frame batched decoders to the scalar
//! paths **bit for bit**: random block and coupled codes, all four check
//! rules, lane counts {1, 4, 8}, ragged slices at the BER-target level
//! (lengths up to twice the batch width plus 7, which the targets decode
//! as full batches plus narrower remainder batches), mixed-convergence
//! batches where lanes stop at different iterations, and window decodes
//! long and clean enough that positions reach their fixed point under
//! both window schedules. The target-level tests compare against a
//! per-frame `decode_in_place` fold, not against a batch-1 target, since
//! a batch-1 target runs the one-lane batched engine.

use proptest::prelude::*;
use wi_ldpc::batch::{BatchWorkspace, WindowBatchWorkspace};
use wi_ldpc::ber::{
    ebn0_db_to_sigma, fill_frame_llrs, BerTarget, BerWorkspace, BlockBerTarget, CoupledBerTarget,
    FrameStats,
};
use wi_ldpc::decoder::{BpConfig, BpDecoder, CheckRule, DecoderWorkspace};
use wi_ldpc::window::{CoupledCode, WindowDecoder, WindowWorkspace};
use wi_ldpc::LdpcCode;
use wi_num::rng::{seeded_rng, Gaussian};

/// Noisy all-zero-codeword channel LLRs (exact for these linear codes on
/// the symmetric AWGN channel).
fn noisy_zero_llrs(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut gauss = Gaussian::new();
    let scale = 2.0 / (sigma * sigma);
    (0..n)
        .map(|_| scale * (1.0 + gauss.sample_with(&mut rng, 0.0, sigma)))
        .collect()
}

fn rule_from_selector(selector: u8) -> CheckRule {
    match selector % 4 {
        0 => CheckRule::SumProduct,
        1 => CheckRule::min_sum(),
        2 => CheckRule::MinSum { alpha: 0.7 },
        _ => CheckRule::sum_product_table(),
    }
}

/// The lane counts the satellite pins: scalar-width, half and full batch.
fn lanes_from_selector(selector: u8) -> usize {
    [1, 4, 8][selector as usize % 3]
}

/// The scalar oracle of the target-level tests: frames `first..first +
/// count` at noise level `sigma`, each filled by `fill_frame_llrs` and
/// decoded alone by `decode`, which returns the frame's bit errors.
fn scalar_frames(
    n: usize,
    sigma: f64,
    seed: u64,
    first: u64,
    count: usize,
    mut decode: impl FnMut(&[f64]) -> u64,
) -> Vec<FrameStats> {
    let mut llr = vec![0.0; n];
    (first..first + count as u64)
        .map(|frame| {
            fill_frame_llrs(&mut llr, sigma, seed, frame);
            let mut stats = FrameStats::default();
            stats.push_frame(n as u64, decode(&llr));
            stats
        })
        .collect()
}

/// Checks `target` against the scalar oracle `want` for frames from
/// `first`: one `eval_frames_each` call over the whole slice, then the
/// slice cut in two at a point picked by `split_selector` on the same
/// workspace (so it switches lane widths between calls), then the
/// `eval_frames` fold.
fn check_target(
    target: &dyn BerTarget,
    ebn0_db: f64,
    seed: u64,
    first: u64,
    want: &[FrameStats],
    split_selector: usize,
) -> Result<(), TestCaseError> {
    let mut ws = BerWorkspace::new();
    let mut got = vec![FrameStats::default(); want.len()];
    target.eval_frames_each(&mut ws, ebn0_db, seed, first, &mut got);
    prop_assert_eq!(&got[..], want);

    let split = split_selector % (want.len() + 1);
    let (head, tail) = got.split_at_mut(split);
    head.fill(FrameStats::default());
    tail.fill(FrameStats::default());
    target.eval_frames_each(&mut ws, ebn0_db, seed, first, head);
    target.eval_frames_each(&mut ws, ebn0_db, seed, first + split as u64, tail);
    prop_assert_eq!(&got[..], want);

    let mut total = FrameStats::default();
    for stats in want {
        total.merge(stats);
    }
    let frames = first..first + want.len() as u64;
    prop_assert_eq!(target.eval_frames(&mut ws, ebn0_db, seed, frames), total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_bp_matches_scalar_per_lane(
        lifting in 8usize..32,
        code_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        sigma in 0.5f64..1.2,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..3,
    ) {
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule_from_selector(rule_selector),
        };
        let decoder = BpDecoder::new(&code, config);
        let lanes = lanes_from_selector(lanes_selector);

        let frames: Vec<Vec<f64>> = (0..lanes)
            .map(|lane| noisy_zero_llrs(code.len(), sigma, noise_seed + lane as u64))
            .collect();
        let mut bws = BatchWorkspace::new(&code, lanes);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws);

        let mut ws = DecoderWorkspace::new(&code);
        for (lane, llr) in frames.iter().enumerate() {
            let status = decoder.decode_in_place(&mut ws, llr);
            prop_assert_eq!(bws.status(lane), status);
            for v in 0..code.len() {
                prop_assert_eq!(bws.hard_bit(v, lane), ws.hard()[v]);
                prop_assert_eq!(
                    bws.posterior_at(v, lane).to_bits(),
                    ws.posterior()[v].to_bits()
                );
            }
        }
    }

    #[test]
    fn batched_window_matches_scalar_per_lane(
        lifting in 6usize..16,
        term_length in 4usize..9,
        code_seed in 0u64..500,
        noise_seed in 0u64..500,
        sigma in 0.45f64..1.1,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..3,
        window_selector in 0usize..64,
        iterations in 8usize..64,
        reuse_selector in 0u8..2,
    ) {
        // Windows from mcc + 1 up to L + mcc (the last positions then
        // activate no new rows), and up to 63 iterations, so clean
        // frames reach the fixed-point exit under both schedules.
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let mcc = code.memory();
        let window = mcc + 1 + window_selector % term_length;
        let decoder = if reuse_selector == 1 {
            WindowDecoder::with_reuse(window, iterations)
        } else {
            WindowDecoder::new(window, iterations)
        }
        .with_rule(rule_from_selector(rule_selector));
        let lanes = lanes_from_selector(lanes_selector);

        let frames: Vec<Vec<f64>> = (0..lanes)
            .map(|lane| noisy_zero_llrs(code.code().len(), sigma, noise_seed + lane as u64))
            .collect();
        let mut bws = WindowBatchWorkspace::new(code.code(), lanes);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws, &code);

        let mut ws = WindowWorkspace::new(code.code());
        for (lane, llr) in frames.iter().enumerate() {
            decoder.decode_in_place(&mut ws, &code, llr);
            for v in 0..code.code().len() {
                prop_assert_eq!(bws.hard_bit(v, lane), ws.hard()[v]);
            }
        }
    }

    #[test]
    fn batched_block_target_matches_scalar_across_ragged_ranges(
        lifting in 8usize..24,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        first in 0u64..10,
        count_selector in 0usize..1000,
        split_selector in 0usize..1000,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..3,
    ) {
        // Target-level ragged slices: lengths up to 2 × width + 7, so a
        // slice holds full batches plus every narrower remainder width,
        // must give each frame exactly what the scalar decoder gives it.
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 25,
            check_rule: rule_from_selector(rule_selector),
        };
        let lanes = lanes_from_selector(lanes_selector);
        let target = BlockBerTarget::new(&code, config, 0.5).with_batch(lanes);
        let count = 1 + count_selector % (2 * lanes + 7);
        let decoder = BpDecoder::new(&code, config);
        let mut ws = DecoderWorkspace::new(&code);
        let sigma = ebn0_db_to_sigma(ebn0_db, 0.5);
        let want = scalar_frames(code.len(), sigma, seed, first, count, |llr| {
            decoder.decode_in_place(&mut ws, llr);
            ws.hard().iter().filter(|&&b| b).count() as u64
        });
        check_target(&target, ebn0_db, seed, first, &want, split_selector)?;
    }

    #[test]
    fn batched_coupled_target_matches_scalar_across_ragged_ranges(
        lifting in 6usize..14,
        term_length in 4usize..8,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        count_selector in 0usize..1000,
        split_selector in 0usize..1000,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..3,
    ) {
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let decoder = WindowDecoder::new(3, 8).with_rule(rule_from_selector(rule_selector));
        let lanes = lanes_from_selector(lanes_selector);
        let target = CoupledBerTarget::new(&code, decoder).with_batch(lanes);
        let count = 1 + count_selector % (2 * lanes + 7);
        let mut ws = WindowWorkspace::new(code.code());
        let sigma = ebn0_db_to_sigma(ebn0_db, code.design_rate());
        let want = scalar_frames(code.code().len(), sigma, seed, 0, count, |llr| {
            decoder.decode_in_place(&mut ws, &code, llr);
            ws.hard().iter().filter(|&&b| b).count() as u64
        });
        check_target(&target, ebn0_db, seed, 0, &want, split_selector)?;
    }

    #[test]
    fn reused_batch_workspace_is_stateless(
        lifting in 8usize..20,
        noise_seed in 0u64..500,
        rule_selector in 0u8..4,
    ) {
        // One workspace driven across two different codes and lane counts
        // must give the same results as fresh workspaces.
        let code_a = LdpcCode::paper_block(lifting, 31);
        let code_b = LdpcCode::paper_block(lifting + 5, 32);
        let config = BpConfig {
            max_iterations: 20,
            check_rule: rule_from_selector(rule_selector),
        };
        let dec_a = BpDecoder::new(&code_a, config);
        let dec_b = BpDecoder::new(&code_b, config);
        let llr_a = noisy_zero_llrs(code_a.len(), 0.8, noise_seed);
        let llr_b = noisy_zero_llrs(code_b.len(), 0.8, noise_seed ^ 1);

        let mut shared = BatchWorkspace::new(&code_a, 4);
        shared.set_lane_llr(0, &llr_a);
        dec_a.decode_batch(&mut shared);
        let first: Vec<bool> = (0..code_a.len()).map(|v| shared.hard_bit(v, 0)).collect();
        shared.ensure(&code_b, 8);
        shared.set_lane_llr(7, &llr_b);
        dec_b.decode_batch(&mut shared);
        let mut ws = DecoderWorkspace::new(&code_b);
        dec_b.decode_in_place(&mut ws, &llr_b);
        for v in 0..code_b.len() {
            prop_assert_eq!(shared.hard_bit(v, 7), ws.hard()[v]);
        }
        shared.ensure(&code_a, 4);
        shared.set_lane_llr(0, &llr_a);
        dec_a.decode_batch(&mut shared);
        for (v, &bit) in first.iter().enumerate() {
            prop_assert_eq!(shared.hard_bit(v, 0), bit);
        }
    }
}

#[test]
fn mixed_convergence_batches_freeze_lanes_independently() {
    // The masking rule is only exercised when lanes stop at different
    // iterations; pick a noise level where that provably happens and pin
    // per-lane bit-identity (status + posterior) in that regime for every
    // check rule.
    let code = LdpcCode::paper_block(20, 77);
    for rule in [
        CheckRule::SumProduct,
        CheckRule::min_sum(),
        CheckRule::sum_product_table(),
    ] {
        let config = BpConfig {
            max_iterations: 40,
            check_rule: rule,
        };
        let decoder = BpDecoder::new(&code, config);
        let frames: Vec<Vec<f64>> = (0..8)
            .map(|lane| noisy_zero_llrs(code.len(), 0.95, 9_000 + lane))
            .collect();
        let mut bws = BatchWorkspace::new(&code, 8);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws);

        let mut ws = DecoderWorkspace::new(&code);
        let mut iteration_counts = std::collections::BTreeSet::new();
        for (lane, llr) in frames.iter().enumerate() {
            let status = decoder.decode_in_place(&mut ws, llr);
            iteration_counts.insert(status.iterations);
            assert_eq!(bws.status(lane), status, "{rule:?} lane {lane}");
            for v in 0..code.len() {
                assert_eq!(
                    bws.posterior_at(v, lane).to_bits(),
                    ws.posterior()[v].to_bits(),
                    "{rule:?} lane {lane} var {v}"
                );
            }
        }
        assert!(
            iteration_counts.len() >= 2,
            "{rule:?}: all lanes stopped at the same iteration \
             ({iteration_counts:?}) — the masking rule went unexercised"
        );
    }
}

#[test]
fn window_positions_with_masked_out_and_saturated_checks_match_scalar() {
    // Channel LLRs beyond the clamp saturate every v2c message of a
    // check over those blocks, so the exact kernel gathers no tanh input
    // for it; once such a check has settled, its inputs stop changing
    // and later iterations and positions mask all its lanes out. Lanes
    // 0–3 are saturated throughout and lanes 4–7 over their first half
    // only, with noise after it. Under the reuse schedule the last
    // positions activate no new rows and start with every lane of every
    // check unchanged, so both of the kernel's gather lists are empty
    // there; in the all-saturated decode the tanh list is empty in every
    // call.
    let code = CoupledCode::paper_cc(10, 8, 0x5A7);
    let n = code.code().len();
    for mixed in [false, true] {
        let frames: Vec<Vec<f64>> = (0..8)
            .map(|lane| {
                let noisy = noisy_zero_llrs(n, 0.8, 0x5A70 + lane as u64);
                (0..n)
                    .map(|v| {
                        if mixed && lane >= 4 && v >= n / 2 {
                            noisy[v]
                        } else {
                            40.0
                        }
                    })
                    .collect()
            })
            .collect();
        for rule in [
            CheckRule::SumProduct,
            CheckRule::sum_product_table(),
            CheckRule::min_sum(),
        ] {
            for decoder in [WindowDecoder::new(4, 20), WindowDecoder::with_reuse(4, 20)] {
                let decoder = decoder.with_rule(rule);
                let mut bws = WindowBatchWorkspace::new(code.code(), 8);
                for (lane, llr) in frames.iter().enumerate() {
                    bws.set_lane_llr(lane, llr);
                }
                decoder.decode_batch(&mut bws, &code);
                let mut ws = WindowWorkspace::new(code.code());
                for (lane, llr) in frames.iter().enumerate() {
                    decoder.decode_in_place(&mut ws, &code, llr);
                    for v in 0..n {
                        assert_eq!(
                            bws.hard_bit(v, lane),
                            ws.hard()[v],
                            "{rule:?} mixed {mixed} lane {lane} var {v}"
                        );
                    }
                }
            }
        }
    }
}
