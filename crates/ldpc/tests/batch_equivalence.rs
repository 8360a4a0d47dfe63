//! Property tests pinning the lane engine (`wi_ldpc::batch`) to the
//! naive oracles, `decoder::reference` and `window::reference`, **bit for
//! bit**: random block and coupled codes, all four check rules, lane
//! counts {1, 2, 4, 8}, the one-frame decoders (one-lane calls of the
//! same engine), ragged slices at the BER-target level (lengths up to
//! twice the batch width plus 7, which the targets decode as full batches
//! plus narrower remainder batches), mixed-convergence batches where
//! lanes stop at different iterations and straggling lanes are
//! re-decoded alone, zero-iteration decodes, and window decodes long and
//! clean enough that positions reach their fixed point under both window
//! schedules.
//!
//! The `#[ignore]`d `*_sweep` proptests run the per-lane checks on 1000
//! cases each, with iteration budgets from 0; CI runs them in release
//! (`cargo test --release -p wi-ldpc -- --ignored`).

use proptest::prelude::*;
use wi_ldpc::batch::BatchWorkspace;
use wi_ldpc::ber::{
    ebn0_db_to_sigma, fill_frame_llrs, BerTarget, BerWorkspace, BlockBerTarget, CoupledBerTarget,
    FrameStats,
};
use wi_ldpc::decoder::{self, BpConfig, BpDecoder, CheckRule, DecodeResult, DecodeStatus};
use wi_ldpc::window::{self, CoupledCode, WindowDecoder};
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

/// One noisy frame per lane, from consecutive noise seeds.
fn lane_frames(n: usize, lanes: usize, sigma: f64, noise_seed: u64) -> Vec<Vec<f64>> {
    (0..lanes)
        .map(|lane| noisy_zero_llrs(n, sigma, noise_seed + lane as u64))
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

/// Every lane count the engine is compiled for.
fn lanes_from_selector(selector: u8) -> usize {
    [1, 2, 4, 8][selector as usize % 4]
}

/// A window decoder with `window` = mcc + 1 + `window_selector` mod `L`,
/// i.e. from mcc + 1 up to L + mcc (the last positions then activate no
/// new rows), and `iterations` set through the public field, so 0 is
/// reachable.
fn window_decoder(
    code: &CoupledCode,
    window_selector: usize,
    iterations: usize,
    reuse: bool,
    rule: CheckRule,
) -> WindowDecoder {
    let window = code.memory() + 1 + window_selector % code.num_blocks();
    let mut decoder = if reuse {
        WindowDecoder::with_reuse(window, 1)
    } else {
        WindowDecoder::new(window, 1)
    }
    .with_rule(rule);
    decoder.iterations = iterations;
    decoder
}

/// Decodes `frames` as one batch and checks every lane's status, hard
/// decisions and posterior bits against `decoder::reference`, and the
/// one-frame `decode` of each frame against it too.
fn check_bp_lanes(
    code: &LdpcCode,
    config: BpConfig,
    frames: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    let decoder = BpDecoder::new(code, config);
    let mut bws = BatchWorkspace::new(code, frames.len());
    for (lane, llr) in frames.iter().enumerate() {
        bws.set_lane_llr(lane, llr);
    }
    decoder.decode_batch(&mut bws);
    for (lane, llr) in frames.iter().enumerate() {
        let want = decoder::reference::decode(code, config, llr);
        let status = DecodeStatus {
            iterations: want.iterations,
            converged: want.converged,
        };
        prop_assert_eq!(bws.status(lane), status);
        for v in 0..code.len() {
            prop_assert_eq!(bws.hard_bit(v, lane), want.hard[v]);
            prop_assert_eq!(
                bws.posterior_at(v, lane).to_bits(),
                want.posterior[v].to_bits()
            );
        }
        // Posteriors by their bits, so that `-0.0` and `+0.0` differ.
        let exact = |r: &DecodeResult| {
            let bits: Vec<u64> = r.posterior.iter().map(|p| p.to_bits()).collect();
            (r.hard.clone(), bits, r.iterations, r.converged)
        };
        prop_assert_eq!(exact(&decoder.decode(llr)), exact(&want));
    }
    Ok(())
}

/// Window-decodes `frames` as one batch and checks every lane's hard
/// decisions against `window::reference`, and the one-frame `decode` of
/// each frame against it too.
fn check_window_lanes(
    code: &CoupledCode,
    decoder: &WindowDecoder,
    frames: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    let mut bws = BatchWorkspace::new(code.code(), frames.len());
    for (lane, llr) in frames.iter().enumerate() {
        bws.set_lane_llr(lane, llr);
    }
    decoder.decode_batch(&mut bws, code);
    for (lane, llr) in frames.iter().enumerate() {
        let want = window::reference::decode(decoder, code, llr);
        for (v, &bit) in want.iter().enumerate() {
            prop_assert_eq!(bws.hard_bit(v, lane), bit);
        }
        prop_assert_eq!(decoder.decode(code, llr), want);
    }
    Ok(())
}

/// The oracle of the target-level tests: frames `first..first + count`
/// at noise level `sigma`, each filled by `fill_frame_llrs` and decoded
/// alone by `decode`, which returns the frame's hard decisions.
fn reference_frames(
    n: usize,
    sigma: f64,
    seed: u64,
    first: u64,
    count: usize,
    decode: impl Fn(&[f64]) -> Vec<bool>,
) -> Vec<FrameStats> {
    let mut llr = vec![0.0; n];
    (first..first + count as u64)
        .map(|frame| {
            fill_frame_llrs(&mut llr, sigma, seed, frame);
            let mut stats = FrameStats::default();
            let errors = decode(&llr).iter().filter(|&&b| b).count();
            stats.push_frame(n as u64, errors as u64);
            stats
        })
        .collect()
}

/// Checks `target` against the oracle's frames `want` from `first`: one
/// `eval_frames_each` call over the whole slice, then the slice cut in
/// two at a point picked by `split_selector` on the same workspace (so it
/// switches lane widths between calls), then the `eval_frames` fold.
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
    fn batched_bp_matches_reference_per_lane(
        lifting in 8usize..32,
        code_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        sigma in 0.5f64..1.2,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
    ) {
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule_from_selector(rule_selector),
        };
        let lanes = lanes_from_selector(lanes_selector);
        check_bp_lanes(&code, config, &lane_frames(code.len(), lanes, sigma, noise_seed))?;
    }

    #[test]
    fn batched_window_matches_reference_per_lane(
        lifting in 6usize..16,
        term_length in 4usize..9,
        code_seed in 0u64..500,
        noise_seed in 0u64..500,
        sigma in 0.45f64..1.1,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
        window_selector in 0usize..64,
        iterations in 8usize..64,
        reuse_selector in 0u8..2,
    ) {
        // Up to 63 iterations, so clean frames reach the fixed-point exit
        // under both schedules.
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let rule = rule_from_selector(rule_selector);
        let decoder = window_decoder(&code, window_selector, iterations, reuse_selector == 1, rule);
        let lanes = lanes_from_selector(lanes_selector);
        let frames = lane_frames(code.code().len(), lanes, sigma, noise_seed);
        check_window_lanes(&code, &decoder, &frames)?;
    }

    #[test]
    fn batched_block_target_matches_reference_across_ragged_ranges(
        lifting in 8usize..24,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        first in 0u64..10,
        count_selector in 0usize..1000,
        split_selector in 0usize..1000,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
    ) {
        // Target-level ragged slices: lengths up to 2 × width + 7, so a
        // slice holds full batches plus every narrower remainder width,
        // must give each frame exactly what the oracle gives it.
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 25,
            check_rule: rule_from_selector(rule_selector),
        };
        let lanes = lanes_from_selector(lanes_selector);
        let target = BlockBerTarget::new(&code, config, 0.5).with_batch(lanes);
        let count = 1 + count_selector % (2 * lanes + 7);
        let sigma = ebn0_db_to_sigma(ebn0_db, 0.5);
        let want = reference_frames(code.len(), sigma, seed, first, count, |llr| {
            decoder::reference::decode(&code, config, llr).hard
        });
        check_target(&target, ebn0_db, seed, first, &want, split_selector)?;
    }

    #[test]
    fn batched_coupled_target_matches_reference_across_ragged_ranges(
        lifting in 6usize..14,
        term_length in 4usize..8,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        count_selector in 0usize..1000,
        split_selector in 0usize..1000,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
    ) {
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let decoder = WindowDecoder::new(3, 8).with_rule(rule_from_selector(rule_selector));
        let lanes = lanes_from_selector(lanes_selector);
        let target = CoupledBerTarget::new(&code, decoder).with_batch(lanes);
        let count = 1 + count_selector % (2 * lanes + 7);
        let sigma = ebn0_db_to_sigma(ebn0_db, code.design_rate());
        let want = reference_frames(code.code().len(), sigma, seed, 0, count, |llr| {
            window::reference::decode(&decoder, &code, llr)
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
        let want = decoder::reference::decode(&code_b, config, &llr_b);
        for v in 0..code_b.len() {
            prop_assert_eq!(shared.hard_bit(v, 7), want.hard[v]);
        }
        shared.ensure(&code_a, 4);
        shared.set_lane_llr(0, &llr_a);
        dec_a.decode_batch(&mut shared);
        for (v, &bit) in first.iter().enumerate() {
            prop_assert_eq!(shared.hard_bit(v, 0), bit);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    #[ignore = "release-mode oracle sweep: cargo test --release -p wi-ldpc -- --ignored"]
    fn bp_lanes_match_reference_sweep(
        lifting in 8usize..32,
        code_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        sigma in 0.5f64..1.2,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
        iterations in 0usize..40,
    ) {
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: iterations,
            check_rule: rule_from_selector(rule_selector),
        };
        let lanes = lanes_from_selector(lanes_selector);
        check_bp_lanes(&code, config, &lane_frames(code.len(), lanes, sigma, noise_seed))?;
    }

    #[test]
    #[ignore = "release-mode oracle sweep: cargo test --release -p wi-ldpc -- --ignored"]
    fn window_lanes_match_reference_sweep(
        lifting in 6usize..16,
        term_length in 4usize..9,
        code_seed in 0u64..500,
        noise_seed in 0u64..500,
        sigma in 0.45f64..1.1,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
        window_selector in 0usize..64,
        iterations in 0usize..64,
        reuse_selector in 0u8..2,
    ) {
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let rule = rule_from_selector(rule_selector);
        let decoder = window_decoder(&code, window_selector, iterations, reuse_selector == 1, rule);
        let lanes = lanes_from_selector(lanes_selector);
        let frames = lane_frames(code.code().len(), lanes, sigma, noise_seed);
        check_window_lanes(&code, &decoder, &frames)?;
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

        let mut iteration_counts = std::collections::BTreeSet::new();
        for (lane, llr) in frames.iter().enumerate() {
            let want = decoder::reference::decode(&code, config, llr);
            iteration_counts.insert(want.iterations);
            assert_eq!(
                bws.status(lane),
                DecodeStatus {
                    iterations: want.iterations,
                    converged: want.converged,
                },
                "{rule:?} lane {lane}"
            );
            for v in 0..code.len() {
                assert_eq!(
                    bws.posterior_at(v, lane).to_bits(),
                    want.posterior[v].to_bits(),
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
fn zero_iteration_decodes_return_the_channel_decisions() {
    // With no iteration budget both decoders return the channel's hard
    // decisions: BP with 0 iterations and `converged` equal to the
    // channel syndrome, and the window decoder because each block is
    // decided from its own channel LLRs. Lane 0 is clean (a zero
    // syndrome), the other lanes noisy.
    let block = LdpcCode::paper_block(20, 5);
    let coupled = CoupledCode::paper_cc(10, 6, 5);
    for rule in [
        CheckRule::SumProduct,
        CheckRule::min_sum(),
        CheckRule::MinSum { alpha: 0.7 },
        CheckRule::sum_product_table(),
    ] {
        for lanes in [1, 8] {
            let mut frames = lane_frames(block.len(), lanes, 0.9, 0x2E0);
            frames[0] = vec![4.0; block.len()];
            let config = BpConfig {
                max_iterations: 0,
                check_rule: rule,
            };
            check_bp_lanes(&block, config, &frames).unwrap();
            for llr in &frames {
                let got = BpDecoder::new(&block, config).decode(llr);
                let channel: Vec<bool> = llr.iter().map(|&l| l < 0.0).collect();
                assert_eq!(got.hard, channel, "{rule:?}");
                assert_eq!(got.iterations, 0);
                assert_eq!(got.converged, block.is_codeword(&channel), "{rule:?}");
            }

            let mut frames = lane_frames(coupled.code().len(), lanes, 0.9, 0x2E1);
            frames[0] = vec![4.0; coupled.code().len()];
            for reuse in [false, true] {
                let decoder = window_decoder(&coupled, 1, 0, reuse, rule);
                check_window_lanes(&coupled, &decoder, &frames).unwrap();
                for llr in &frames {
                    let channel: Vec<bool> = llr.iter().map(|&l| l < 0.0).collect();
                    assert_eq!(decoder.decode(&coupled, llr), channel, "{rule:?}");
                }
            }
        }
    }
}

#[test]
fn window_positions_with_masked_out_and_saturated_checks_match_reference() {
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
                let mut bws = BatchWorkspace::new(code.code(), 8);
                for (lane, llr) in frames.iter().enumerate() {
                    bws.set_lane_llr(lane, llr);
                }
                decoder.decode_batch(&mut bws, &code);
                for (lane, llr) in frames.iter().enumerate() {
                    let want = window::reference::decode(&decoder, &code, llr);
                    for (v, &bit) in want.iter().enumerate() {
                        assert_eq!(
                            bws.hard_bit(v, lane),
                            bit,
                            "{rule:?} mixed {mixed} lane {lane} var {v}"
                        );
                    }
                }
            }
        }
    }
}
