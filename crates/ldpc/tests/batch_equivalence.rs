//! Property tests pinning the inter-frame batched decoders to the scalar
//! paths **bit for bit**: random block and coupled codes, all four check
//! rules, lane counts {1, 4, 8}, ragged tails (frame counts not divisible
//! by the batch width), mixed-convergence batches where lanes stop at
//! different iterations, and window decodes long and clean enough that
//! positions reach their fixed point under both window schedules.

use proptest::prelude::*;
use wi_ldpc::batch::{BatchWorkspace, WindowBatchWorkspace};
use wi_ldpc::ber::{BerTarget, BerWorkspace, BlockBerTarget, CoupledBerTarget};
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
        count in 1u64..21,
        lanes_selector in 0u8..3,
    ) {
        // Target-level ragged tails: frame ranges deliberately not a
        // multiple of the batch width must produce the same FrameStats
        // fold as the scalar (batch-1) target, frame for frame.
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig { max_iterations: 25, ..BpConfig::default() };
        let lanes = lanes_from_selector(lanes_selector);
        let batched = BlockBerTarget::new(&code, config, 0.5).with_batch(lanes);
        let scalar = BlockBerTarget::new(&code, config, 0.5).with_batch(1);
        let mut ws = BerWorkspace::new();
        let frames = first..first + count;
        let got = batched.eval_frames(&mut ws, ebn0_db, seed, frames.clone());
        let want = scalar.eval_frames(&mut ws, ebn0_db, seed, frames);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn batched_coupled_target_matches_scalar_across_ragged_ranges(
        lifting in 6usize..14,
        term_length in 4usize..8,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        count in 1u64..14,
        lanes_selector in 0u8..3,
    ) {
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let decoder = WindowDecoder::new(3, 8).with_rule(CheckRule::min_sum());
        let lanes = lanes_from_selector(lanes_selector);
        let batched = CoupledBerTarget::new(&code, decoder).with_batch(lanes);
        let scalar = CoupledBerTarget::new(&code, decoder).with_batch(1);
        let mut ws = BerWorkspace::new();
        let got = batched.eval_frames(&mut ws, ebn0_db, seed, 0..count);
        let want = scalar.eval_frames(&mut ws, ebn0_db, seed, 0..count);
        prop_assert_eq!(got, want);
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
