//! Terminated LDPC convolutional codes and the sliding-window decoder
//! (Fig. 9, Eqs. 4–5).
//!
//! A [`CoupledCode`] is the lifted, terminated convolutional code of Eq. 3:
//! `L` coupled blocks of `N·nv` code bits each. The [`WindowDecoder`]
//! decodes block `t` from the `W` coupled blocks `t … t+W−1` (it must wait
//! for them — that wait *is* the structural latency of Eq. 4) plus read
//! access to the `mcc` previously decided blocks, whose bits enter the
//! window as saturated LLRs exactly as the decided-symbol feedback in
//! Fig. 9.
//!
//! The decoder runs on the lane engine of [`crate::batch`]: a one-frame
//! [`WindowDecoder::decode_in_place`] is a one-lane
//! [`WindowDecoder::decode_batch`]. The plain nested-`Vec` decoder in
//! [`mod@reference`] is its correctness oracle.

use crate::code::LdpcCode;
use crate::decoder::{CheckRule, DecoderWorkspace};
use crate::protograph::EdgeSpreading;
use serde::{Deserialize, Serialize};

/// A lifted, terminated LDPC convolutional code.
#[derive(Clone, Debug)]
pub struct CoupledCode {
    code: LdpcCode,
    spreading: EdgeSpreading,
    term_length: usize,
    lifting: usize,
}

impl CoupledCode {
    /// Lifts the edge spreading into a terminated convolutional code with
    /// `term_length` (= `L`) coupled blocks.
    ///
    /// # Panics
    ///
    /// Panics if `term_length == 0` or the lifting factor is smaller than
    /// the largest edge multiplicity.
    pub fn new(spreading: EdgeSpreading, lifting: usize, term_length: usize, seed: u64) -> Self {
        let base = spreading.coupled(term_length);
        let code = LdpcCode::lift(&base, lifting, seed);
        CoupledCode {
            code,
            spreading,
            term_length,
            lifting,
        }
    }

    /// The paper's (4,8)-regular LDPC-CC (`B₀ = [2,2]`, `B₁ = B₂ = [1,1]`)
    /// with lifting factor `n` and termination length `l`.
    pub fn paper_cc(n: usize, l: usize, seed: u64) -> Self {
        Self::new(EdgeSpreading::paper_cc(), n, l, seed)
    }

    /// The underlying lifted code.
    pub fn code(&self) -> &LdpcCode {
        &self.code
    }

    /// Coupling memory `mcc`.
    pub fn memory(&self) -> usize {
        self.spreading.memory()
    }

    /// Termination length `L` (number of coupled blocks).
    pub fn num_blocks(&self) -> usize {
        self.term_length
    }

    /// Lifting factor `N`.
    pub fn lifting(&self) -> usize {
        self.lifting
    }

    /// Code bits per coupled block (`N·nv`).
    pub fn block_bits(&self) -> usize {
        self.lifting * self.spreading.num_variables()
    }

    /// Check nodes per time instant (`N·nc`).
    pub fn block_checks(&self) -> usize {
        self.lifting * self.spreading.num_checks()
    }

    /// Variable index range of coupled block `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_blocks()`.
    pub fn block_range(&self, t: usize) -> std::ops::Range<usize> {
        assert!(t < self.term_length, "block {t} out of range");
        let b = self.block_bits();
        t * b..(t + 1) * b
    }

    /// Structural latency of window decoding with window size `w`, in
    /// information bits (Eq. 4): `T_WD = W·N·nv·R`, independent of `L`.
    ///
    /// `R` is the design rate of the uncoupled protograph, matching the
    /// paper's convention.
    pub fn window_latency_bits(&self, w: usize) -> f64 {
        w as f64 * self.block_bits() as f64 * self.design_rate()
    }

    /// Design rate `R` of the underlying protograph (1/2 for the paper's
    /// codes).
    pub fn design_rate(&self) -> f64 {
        // Eq. 2 guarantees the components sum to B, so the design rate is
        // that of the original block protograph.
        1.0 - self.spreading.num_checks() as f64 / self.spreading.num_variables() as f64
    }

    /// Actual rate of the terminated code including the termination loss.
    pub fn terminated_rate(&self) -> f64 {
        self.spreading.terminated_rate(self.term_length)
    }
}

/// Structural latency of the LDPC block code (Eq. 5):
/// `T_B = N·nv·R` information bits.
pub fn block_latency_bits(lifting: usize, nv: usize, rate: f64) -> f64 {
    lifting as f64 * nv as f64 * rate
}

/// Former name of the one-frame window decoder's workspace: both
/// one-frame decoders now decode in [`DecoderWorkspace`]. Kept only
/// because the `e2ebench` package still names it.
pub type WindowWorkspace = DecoderWorkspace;

/// Sliding-window decoder (Fig. 9).
///
/// Two message-passing schedules are provided (the scheduling question is
/// the subject of the paper's ref \[19\]):
///
/// * **Restart** (the default): BP restarts from the channel/pinned LLRs at
///   every window position and runs `iterations` flooding iterations. Each
///   target decision comes from a freshly converged window.
/// * **Reuse** (`with_reuse`): check-to-variable messages persist as the
///   window slides, so each check refines over the `W` positions it stays
///   active. This trades per-position work for total iterations; in our
///   measurements it entrenches early wrong beliefs on these short-cycle
///   lifted graphs and *loses* ≈ 1 dB, which is why it is the ablation
///   variant rather than the default (see `ablation_window_schedule`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowDecoder {
    /// Window size `W` in coupled blocks (`mcc + 1 ≤ W ≤ L`).
    pub window: usize,
    /// Belief-propagation iterations per window position.
    pub iterations: usize,
    /// Retain messages across window positions instead of restarting.
    pub reuse_messages: bool,
    /// Check-node update rule (exact or table-driven sum-product, or
    /// normalized min-sum).
    pub check_rule: CheckRule,
}

impl WindowDecoder {
    /// Creates a window decoder with the restart schedule.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `iterations == 0`.
    pub fn new(window: usize, iterations: usize) -> Self {
        assert!(window > 0, "window size must be positive");
        assert!(iterations > 0, "need at least one iteration");
        WindowDecoder {
            window,
            iterations,
            reuse_messages: false,
            check_rule: CheckRule::SumProduct,
        }
    }

    /// Creates a decoder that retains messages across window positions
    /// (for the scheduling ablation).
    pub fn with_reuse(window: usize, iterations: usize) -> Self {
        WindowDecoder {
            reuse_messages: true,
            ..Self::new(window, iterations)
        }
    }

    /// Replaces the check-node update rule (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the rule's parameters are invalid (see
    /// [`CheckRule::validate`]).
    pub fn with_rule(mut self, rule: CheckRule) -> Self {
        rule.validate();
        self.check_rule = rule;
        self
    }

    /// Decodes a full received sequence of channel LLRs, sliding the window
    /// over all `L` blocks; returns hard decisions for every code bit.
    ///
    /// The window at target block `t` spans variable blocks
    /// `t .. min(t+W, L)` plus the `mcc` previously decided blocks (pinned
    /// at ±`LLR_CLAMP`), and all check rows whose neighborhood lies inside
    /// that span.
    ///
    /// # Panics
    ///
    /// Panics if the LLR length does not match the code or if
    /// `window < mcc + 1` (the window cannot cover a check's neighborhood).
    pub fn decode(&self, code: &CoupledCode, channel_llr: &[f64]) -> Vec<bool> {
        let mut ws = DecoderWorkspace::new(code.code());
        self.decode_in_place(&mut ws, code, channel_llr);
        ws.hard().to_vec()
    }

    /// Decodes entirely inside `ws` — no heap allocation when the
    /// workspace is already sized for the code. Read the decisions from
    /// [`DecoderWorkspace::hard`].
    ///
    /// The frame is a one-lane
    /// [`decode_batch`](WindowDecoder::decode_batch), so it runs the same
    /// engine as every batched lane.
    ///
    /// # Panics
    ///
    /// Panics as [`decode`](WindowDecoder::decode) does.
    pub fn decode_in_place(
        &self,
        ws: &mut DecoderWorkspace,
        code: &CoupledCode,
        channel_llr: &[f64],
    ) {
        ws.decode_one(code.code(), channel_llr, |batch| {
            self.decode_batch(batch, code)
        });
    }
}

/// A plain nested-`Vec` sliding-window decoder, retained as the
/// correctness oracle for the window decoder.
///
/// It holds each check's messages in vectors of its own, allocated when
/// the window activates the check, and at every window position updates
/// every check of the window in each of `iterations` iterations through
/// [`crate::decoder::reference::check_update`]: it skips no check whose
/// inputs are unchanged and never stops at a fixed point. Each lane of
/// [`WindowDecoder::decode_batch`], and so [`WindowDecoder::decode`],
/// must give the same hard decisions bit for bit, under both schedules
/// and every [`CheckRule`] (pinned by `tests/batch_equivalence.rs` and
/// tier-1 `tests/contracts.rs`).
pub mod reference {
    use super::{CoupledCode, WindowDecoder};
    use crate::decoder::reference::check_update;
    use crate::decoder::{CheckRule, LLR_CLAMP};
    use crate::kernel::PhiTable;

    /// Window-decodes `channel_llr` as `decoder` specifies and returns
    /// the hard decisions of every code bit (true = bit 1).
    ///
    /// # Panics
    ///
    /// Panics if the LLR length does not match the code, the check rule
    /// is invalid, or `decoder.window` does not exceed the coupling
    /// memory.
    pub fn decode(decoder: &WindowDecoder, code: &CoupledCode, channel_llr: &[f64]) -> Vec<bool> {
        let lifted = code.code();
        let n = lifted.len();
        assert_eq!(channel_llr.len(), n, "LLR length mismatch");
        decoder.check_rule.validate();
        let mcc = code.memory();
        assert!(
            decoder.window > mcc,
            "window {} must exceed the coupling memory {mcc}",
            decoder.window
        );
        let l = code.num_blocks();
        let block_checks = code.block_checks();
        let rule = decoder.check_rule;
        let phi = match rule {
            CheckRule::SumProductTable { bits } => Some(PhiTable::new(bits)),
            _ => None,
        };

        // Working LLRs: the raw channel, with decided blocks overwritten
        // by saturated pins. Future blocks enter the window with their raw
        // channel LLRs — feeding posteriors forward as priors would
        // double-count evidence and entrench errors; new information flows
        // through the retained extrinsic messages instead.
        let mut llr = channel_llr.to_vec();
        let mut hard = vec![false; n];
        // Each check's (v2c, c2v) messages, `None` until first activated.
        let mut checks: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; lifted.num_checks()];
        for t in 0..l {
            // Check row blocks t..min(t+W, L+mcc): row block i touches
            // variable blocks max(0, i−mcc)..=min(i, L−1), all inside the
            // window span [t−mcc, t+W).
            let rows = t * block_checks..(t + decoder.window).min(l + mcc) * block_checks;
            for c in rows.clone() {
                if checks[c].is_none() || !decoder.reuse_messages {
                    let v2c: Vec<f64> = lifted
                        .check_neighbors(c)
                        .iter()
                        .map(|&v| llr[v as usize].clamp(-LLR_CLAMP, LLR_CLAMP))
                        .collect();
                    let c2v = vec![0.0; v2c.len()];
                    checks[c] = Some((v2c, c2v));
                }
            }

            // With no iterations, the decisions are the channel's.
            let mut posterior = llr.clone();
            for _ in 0..decoder.iterations {
                for c in rows.clone() {
                    let (v2c, c2v) = checks[c].as_mut().expect("window rows are active");
                    check_update(rule, phi.as_ref(), v2c, c2v);
                }
                posterior.copy_from_slice(&llr);
                for c in rows.clone() {
                    let (_, c2v) = checks[c].as_ref().expect("window rows are active");
                    for (&v, &m) in lifted.check_neighbors(c).iter().zip(c2v) {
                        posterior[v as usize] += m;
                    }
                }
                for c in rows.clone() {
                    let (v2c, c2v) = checks[c].as_mut().expect("window rows are active");
                    for ((m, &v), &e) in v2c.iter_mut().zip(lifted.check_neighbors(c)).zip(&*c2v) {
                        *m = (posterior[v as usize] - e).clamp(-LLR_CLAMP, LLR_CLAMP);
                    }
                }
            }

            // Decide and pin the target block only.
            for v in code.block_range(t) {
                hard[v] = posterior[v] < 0.0;
                llr[v] = if hard[v] { -LLR_CLAMP } else { LLR_CLAMP };
            }
        }
        hard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{awgn_llrs, BpConfig, BpDecoder};
    use wi_num::rng::{seeded_rng, Gaussian};

    /// Full-sequence BP decoding of the coupled code (the high-latency
    /// alternative the window decoder is compared against).
    fn full_bp_decode(code: &CoupledCode, channel_llr: &[f64], iterations: usize) -> Vec<bool> {
        let decoder = BpDecoder::new(
            code.code(),
            BpConfig {
                max_iterations: iterations,
                ..BpConfig::default()
            },
        );
        decoder.decode(channel_llr).hard
    }

    fn noisy_zero_llrs(code: &CoupledCode, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        let mut gauss = Gaussian::new();
        let rx: Vec<f64> = (0..code.code().len())
            .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, sigma))
            .collect();
        awgn_llrs(&rx, sigma)
    }

    #[test]
    fn eq4_latency_values() {
        // W=3, N=25, nv=2, R=1/2 -> 75 information bits; Eq. 4 is
        // independent of L.
        let code = CoupledCode::paper_cc(25, 20, 1);
        assert_eq!(code.window_latency_bits(3), 75.0);
        assert_eq!(code.window_latency_bits(8), 200.0);
        let longer = CoupledCode::paper_cc(25, 50, 1);
        assert_eq!(longer.window_latency_bits(3), 75.0);
    }

    #[test]
    fn eq5_block_latency() {
        // T_B = N·nv·R = N for the paper's rate-1/2, nv=2 block code.
        assert_eq!(block_latency_bits(400, 2, 0.5), 400.0);
        assert_eq!(block_latency_bits(50, 2, 0.5), 50.0);
    }

    #[test]
    fn window_decodes_clean_channel() {
        let code = CoupledCode::paper_cc(15, 12, 2);
        let llr = noisy_zero_llrs(&code, 0.3, 1);
        let wd = WindowDecoder::new(3, 20);
        let hard = wd.decode(&code, &llr);
        assert!(
            hard.iter().all(|&b| !b),
            "clean channel must decode to zero"
        );
    }

    #[test]
    fn window_corrects_moderate_noise() {
        let code = CoupledCode::paper_cc(25, 16, 3);
        let llr = noisy_zero_llrs(&code, 0.62, 2); // ~4.2 dB Eb/N0 at R=1/2
        let wd = WindowDecoder::new(4, 25);
        let hard = wd.decode(&code, &llr);
        let errors = hard.iter().filter(|&&b| b).count();
        assert!(
            errors == 0,
            "expected error-free decoding, got {errors} errors"
        );
    }

    #[test]
    fn larger_window_is_no_worse() {
        // The paper's flexibility claim: increasing W at the decoder only
        // (same encoder) improves performance.
        let code = CoupledCode::paper_cc(25, 20, 4);
        let sigma = 0.75;
        let count = |w: usize| -> usize {
            (0..8)
                .map(|s| {
                    let llr = noisy_zero_llrs(&code, sigma, 100 + s);
                    WindowDecoder::new(w, 15)
                        .decode(&code, &llr)
                        .iter()
                        .filter(|&&b| b)
                        .count()
                })
                .sum()
        };
        let small = count(3);
        let large = count(7);
        assert!(large <= small, "W=7 gave {large} vs W=3 {small}");
    }

    #[test]
    fn window_matches_full_bp_when_w_equals_l() {
        let code = CoupledCode::paper_cc(15, 8, 5);
        let llr = noisy_zero_llrs(&code, 0.68, 3);
        let wd = WindowDecoder::new(8, 30);
        let windowed = wd.decode(&code, &llr);
        let full = full_bp_decode(&code, &llr, 60);
        let err_w = windowed.iter().filter(|&&b| b).count();
        let err_f = full.iter().filter(|&&b| b).count();
        // Both should decode this mild noise level completely.
        assert_eq!(err_w, 0, "window errors");
        assert_eq!(err_f, 0, "full-BP errors");
    }

    #[test]
    fn termination_protects_the_head() {
        // The first blocks decode against the lighter termination-boundary
        // checks and with no previously pinned decisions, so below the
        // waterfall they accumulate fewer errors than middle blocks (window
        // decoding propagates decision errors forward, never backward).
        let code = CoupledCode::paper_cc(20, 12, 6);
        let sigma = 0.8;
        let mut head_errs = 0usize;
        let mut mid_errs = 0usize;
        for s in 0..6 {
            let llr = noisy_zero_llrs(&code, sigma, 200 + s);
            let hard = WindowDecoder::new(4, 15).decode(&code, &llr);
            head_errs += hard[code.block_range(0)].iter().filter(|&&b| b).count();
            mid_errs += hard[code.block_range(6)].iter().filter(|&&b| b).count();
        }
        assert!(head_errs <= mid_errs, "head {head_errs} vs mid {mid_errs}");
    }

    #[test]
    #[should_panic(expected = "must exceed the coupling memory")]
    fn window_smaller_than_memory_panics() {
        let code = CoupledCode::paper_cc(10, 8, 1);
        let llr = vec![1.0; code.code().len()];
        WindowDecoder::new(2, 5).decode(&code, &llr);
    }

    #[test]
    #[should_panic(expected = "block 12 out of range")]
    fn block_range_checked() {
        let code = CoupledCode::paper_cc(10, 12, 1);
        code.block_range(12);
    }
}
