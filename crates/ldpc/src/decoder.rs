//! Belief-propagation decoding over the flat CSR edge layout.
//!
//! A flooding-schedule log-domain decoder with three check-node update
//! rules (the kernels themselves live in [`crate::kernel`]):
//!
//! * [`CheckRule::SumProduct`] — exact: forward/backward partial products
//!   of `tanh(L/2)`, each check in O(degree).
//! * [`CheckRule::SumProductTable { bits }`][CheckRule::SumProductTable]
//!   — sum-product through the involutive φ-function evaluated from a
//!   precomputed [`kernel::PhiTable`] (linear interpolation + saturation
//!   tail): no transcendentals in the loop, accuracy-tested against the
//!   exact rule instead of bit-identical (see the [`kernel`] docs).
//! * [`CheckRule::MinSum { alpha }`][CheckRule::MinSum] — normalized
//!   min-sum: sign product and two-smallest-magnitude tracking. This is
//!   the standard hardware-faithful approximation; `alpha ≈ 0.8`
//!   recovers most of the sum-product performance on the paper's
//!   (4,8)-regular codes.
//!
//! [`BpDecoder`] has one engine, the lane engine of [`crate::batch`]:
//! [`BpDecoder::decode_in_place`] decodes its frame as a one-lane batch
//! inside a reusable [`DecoderWorkspace`] and performs **zero heap
//! allocation**, with check updates streaming over `edge_var` /
//! `check_offsets` (see [`LdpcCode`]). The original nested-`Vec` decoder
//! is retained in [`mod@reference`] as the correctness oracle, and its
//! [`reference::check_update`] is the per-check definition every lane of
//! the check kernels is tested against. Engine and oracle are
//! bit-identical under every rule (see `tests/csr_equivalence.rs` — the
//! *table rule's* accuracy relative to exact sum-product is what
//! `tests/phi_table.rs` bounds instead).

use crate::batch::BatchWorkspace;
use crate::code::LdpcCode;
use crate::kernel::{self, ExactBatchScratch, PhiTable};
use serde::{Deserialize, Serialize};

/// Maximum message magnitude (log-likelihood ratios are clamped here).
pub const LLR_CLAMP: f64 = 30.0;

/// Check-node update rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum CheckRule {
    /// Exact sum-product (tanh/atanh) update.
    #[default]
    SumProduct,
    /// Sum-product through a geometric φ lookup table with `2^bits`
    /// cells per input octave ([`kernel::PhiTable`]) — the fast
    /// accuracy-tested variant; within 0.05 dB of
    /// [`CheckRule::SumProduct`] on the paper's codes at the default
    /// 7 bits.
    SumProductTable {
        /// log₂ of the table cells per input octave (valid range 2–12;
        /// the per-evaluation error shrinks as `4^-bits`).
        bits: u32,
    },
    /// Normalized min-sum: `c2v = α · sign-product · min-magnitude`.
    MinSum {
        /// Normalization factor `α` in `(0, 1]` (typically 0.7–0.9).
        alpha: f64,
    },
}

impl CheckRule {
    /// Normalized min-sum with the workspace default `α = 0.8`.
    pub fn min_sum() -> Self {
        CheckRule::MinSum { alpha: 0.8 }
    }

    /// Table-driven sum-product with the workspace default `bits = 7`
    /// (128 cells per octave, ≈ 6k nodes / 48 KiB — cache-resident;
    /// per-evaluation error uniformly ≤ ≈ 10⁻⁵ over the whole domain).
    pub fn sum_product_table() -> Self {
        CheckRule::SumProductTable { bits: 7 }
    }

    /// Returns a human-readable problem when the rule's parameters are
    /// unusable (`α ∉ (0, 1]` — zero or negative `α` silently corrupts
    /// every message; φ-table `bits ∉ 2..=12`), `None` when valid. The
    /// single source of truth for rule validity, shared by decoder
    /// construction and system-level config validation.
    pub fn problem(&self) -> Option<String> {
        match *self {
            CheckRule::SumProduct => None,
            CheckRule::SumProductTable { bits } => {
                if (2..=12).contains(&bits) {
                    None
                } else {
                    Some(format!("phi table bits {bits} must be in 2..=12"))
                }
            }
            CheckRule::MinSum { alpha } => {
                if alpha > 0.0 && alpha <= 1.0 {
                    None
                } else {
                    Some(format!("min-sum alpha {alpha} must be in (0, 1]"))
                }
            }
        }
    }

    /// Panics unless the rule's parameters are usable (see
    /// [`problem`](CheckRule::problem)).
    pub fn validate(&self) {
        if let Some(problem) = self.problem() {
            panic!("{problem}");
        }
    }
}

/// Belief-propagation decoder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BpConfig {
    /// Maximum flooding iterations.
    pub max_iterations: usize,
    /// Check-node update rule.
    pub check_rule: CheckRule,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            max_iterations: 50,
            check_rule: CheckRule::SumProduct,
        }
    }
}

/// Decoding outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecodeResult {
    /// Hard decisions (true = bit 1).
    pub hard: Vec<bool>,
    /// Posterior LLRs (positive favours bit 0).
    pub posterior: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the syndrome was zero at exit.
    pub converged: bool,
}

/// Iterations/convergence summary of an in-place decode; the hard
/// decisions and posteriors stay in the [`DecoderWorkspace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeStatus {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the syndrome was zero at exit.
    pub converged: bool,
}

/// Reusable state for one-frame decoding, by [`BpDecoder::decode_in_place`]
/// or [`WindowDecoder::decode_in_place`](crate::window::WindowDecoder::decode_in_place):
/// a one-lane [`BatchWorkspace`] and the frame's unpacked hard decisions.
///
/// Construct once per code shape and reuse across frames: the decoders
/// then run allocation-free (after the first decode of each schedule
/// sizes that schedule's buffers), so Monte-Carlo loops pay the heap cost
/// once instead of per frame.
#[derive(Clone, Debug, Default)]
pub struct DecoderWorkspace {
    /// The lane engine's state at one lane.
    batch: BatchWorkspace,
    /// Hard decision per variable.
    hard: Vec<bool>,
}

impl DecoderWorkspace {
    /// Allocates buffers sized for `code`.
    pub fn new(code: &LdpcCode) -> Self {
        DecoderWorkspace {
            batch: BatchWorkspace::new(code, 1),
            hard: vec![false; code.len()],
        }
    }

    /// Hard decisions of the last decode (true = bit 1).
    pub fn hard(&self) -> &[bool] {
        &self.hard
    }

    /// Posterior LLRs of the last decode.
    pub fn posterior(&self) -> &[f64] {
        self.batch.posteriors()
    }

    /// Decodes `channel_llr` as a one-lane batch: loads it into lane 0,
    /// runs `decode_batch` on the batch and unpacks the hard decisions.
    pub(crate) fn decode_one(
        &mut self,
        code: &LdpcCode,
        channel_llr: &[f64],
        decode_batch: impl FnOnce(&mut BatchWorkspace),
    ) -> &BatchWorkspace {
        self.batch.ensure(code, 1);
        self.batch.set_lane_llr(0, channel_llr);
        decode_batch(&mut self.batch);
        self.hard.clear();
        self.hard
            .extend((0..code.len()).map(|v| self.batch.hard_bit(v, 0)));
        &self.batch
    }
}

/// One flooding check-node update over checks `check_lo..check_hi`,
/// streaming the flat CSR arrays: dispatches `rule` to its lane-array
/// kernel in [`crate::kernel`], with messages in `[edge][lane]`
/// structure-of-arrays layout. `masks[c]` is the lane bitmask of check
/// `c` to recompute; lanes outside it may keep their c2v. Each
/// recomputed lane is bit-identical to [`reference::check_update`] on
/// that lane's messages. `scratch` holds `max_check_degree` lane-array
/// entries (the table rule's), `exact` is sized for the code at `L`
/// lanes, and `phi` must be built (see [`PhiTable::ensure`]) when the
/// rule is [`CheckRule::SumProductTable`].
#[allow(clippy::too_many_arguments)] // flat kernel: every slice is a distinct buffer
pub(crate) fn update_checks_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    masks: &[u8],
    rule: CheckRule,
    phi: &PhiTable,
    v2c: &[[f64; L]],
    c2v: &mut [[f64; L]],
    scratch: &mut [[f64; L]],
    exact: &mut ExactBatchScratch,
) {
    match rule {
        CheckRule::SumProduct => {
            kernel::sum_product_exact_batch(offsets, check_lo, check_hi, masks, v2c, c2v, exact);
        }
        CheckRule::SumProductTable { .. } => {
            kernel::sum_product_table_batch(
                offsets, check_lo, check_hi, masks, phi, v2c, c2v, scratch,
            );
        }
        CheckRule::MinSum { alpha } => {
            kernel::min_sum_batch(offsets, check_lo, check_hi, masks, alpha, v2c, c2v);
        }
    }
}

/// A belief-propagation decoder bound to a code.
#[derive(Clone, Debug)]
pub struct BpDecoder<'a> {
    code: &'a LdpcCode,
    config: BpConfig,
}

impl<'a> BpDecoder<'a> {
    /// Creates a decoder.
    ///
    /// # Panics
    ///
    /// Panics if the check rule's parameters are invalid (see
    /// [`CheckRule::validate`]).
    pub fn new(code: &'a LdpcCode, config: BpConfig) -> Self {
        config.check_rule.validate();
        BpDecoder { code, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> BpConfig {
        self.config
    }

    /// The code the decoder is bound to.
    pub fn code(&self) -> &'a LdpcCode {
        self.code
    }

    /// Decodes channel LLRs (positive favours bit 0), allocating a fresh
    /// workspace. Monte-Carlo loops should prefer
    /// [`decode_with`](BpDecoder::decode_with) /
    /// [`decode_in_place`](BpDecoder::decode_in_place) with a reused
    /// workspace.
    ///
    /// # Panics
    ///
    /// Panics if `channel_llr.len()` differs from the code length.
    pub fn decode(&self, channel_llr: &[f64]) -> DecodeResult {
        let mut ws = DecoderWorkspace::new(self.code);
        self.decode_with(&mut ws, channel_llr)
    }

    /// Decodes using a caller-owned workspace and returns an owned
    /// [`DecodeResult`] (the only allocations are the result's two
    /// output vectors).
    pub fn decode_with(&self, ws: &mut DecoderWorkspace, channel_llr: &[f64]) -> DecodeResult {
        let status = self.decode_in_place(ws, channel_llr);
        DecodeResult {
            hard: ws.hard.clone(),
            posterior: ws.posterior().to_vec(),
            iterations: status.iterations,
            converged: status.converged,
        }
    }

    /// Decodes entirely inside `ws` — **zero heap allocation** (the φ
    /// table of [`CheckRule::SumProductTable`] is built on the first
    /// decode and reused afterwards). Read the decisions from
    /// [`DecoderWorkspace::hard`] / [`DecoderWorkspace::posterior`].
    ///
    /// The frame is a one-lane [`decode_batch`](BpDecoder::decode_batch),
    /// so it runs the same engine as every batched lane.
    ///
    /// # Example
    ///
    /// ```
    /// use wi_ldpc::{BpConfig, BpDecoder, CheckRule, DecoderWorkspace, LdpcCode};
    ///
    /// let code = LdpcCode::paper_block(10, 1);
    /// let config = BpConfig {
    ///     check_rule: CheckRule::sum_product_table(),
    ///     ..BpConfig::default()
    /// };
    /// let decoder = BpDecoder::new(&code, config);
    /// let mut ws = DecoderWorkspace::new(&code);
    /// // Clean all-zero codeword: positive LLRs favour bit 0 everywhere.
    /// let status = decoder.decode_in_place(&mut ws, &vec![4.0; code.len()]);
    /// assert!(status.converged);
    /// assert!(ws.hard().iter().all(|&bit| !bit));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `channel_llr.len()` differs from the code length.
    pub fn decode_in_place(&self, ws: &mut DecoderWorkspace, channel_llr: &[f64]) -> DecodeStatus {
        ws.decode_one(self.code, channel_llr, |batch| self.decode_batch(batch))
            .status(0)
    }
}

/// Converts AWGN/BPSK observations to channel LLRs: bit 0 ↦ +1, bit 1 ↦ −1,
/// `LLR = 2·y/σ²` (positive favours bit 0).
pub fn awgn_llrs(received: &[f64], sigma: f64) -> Vec<f64> {
    assert!(sigma > 0.0, "sigma must be positive");
    let scale = 2.0 / (sigma * sigma);
    received.iter().map(|&y| scale * y).collect()
}

/// The original nested-`Vec` decoder, retained as the correctness oracle
/// for the lane engine.
///
/// It allocates per-check message vectors and per-iteration scratch on
/// every call — exactly the behaviour the workspace engine removes — and
/// is kept unoptimized on purpose: `tests/csr_equivalence.rs` asserts the
/// two engines produce bit-identical [`DecodeResult`]s under every
/// [`CheckRule`] (the table rule shares the same [`PhiTable`] evaluation,
/// so engine equivalence stays exact even though the *rule* is only
/// accuracy-tested against exact sum-product; the exact rule shares the
/// [`wi_num::fdlibm`] `tanh` and `atanh`, so it does not depend on the
/// host libm), and the `bp_decode_*` benches measure the speedup against
/// it.
pub mod reference {
    use super::{BpConfig, CheckRule, DecodeResult, LLR_CLAMP};
    use crate::code::LdpcCode;
    use crate::kernel::{PhiTable, TANH_CLAMP};
    use wi_num::fdlibm;

    /// Decodes `channel_llr` with the naive nested-`Vec` engine.
    ///
    /// # Panics
    ///
    /// Panics if `channel_llr.len()` differs from the code length.
    pub fn decode(code: &LdpcCode, config: BpConfig, channel_llr: &[f64]) -> DecodeResult {
        let n = code.len();
        assert_eq!(channel_llr.len(), n, "LLR length mismatch");
        let n_checks = code.num_checks();

        let mut v2c: Vec<Vec<f64>> = (0..n_checks)
            .map(|c| {
                code.check_neighbors(c)
                    .iter()
                    .map(|&v| channel_llr[v as usize].clamp(-LLR_CLAMP, LLR_CLAMP))
                    .collect()
            })
            .collect();
        let mut c2v: Vec<Vec<f64>> = (0..n_checks)
            .map(|c| vec![0.0; code.check_neighbors(c).len()])
            .collect();
        let mut posterior: Vec<f64> = channel_llr.to_vec();
        let mut hard: Vec<bool> = channel_llr.iter().map(|&l| l < 0.0).collect();
        // The oracle shares the engine's φ table, and its tanh and atanh
        // ports, so the two stay bit-identical under every rule on any
        // host libm.
        let phi = match config.check_rule {
            CheckRule::SumProductTable { bits } => Some(PhiTable::new(bits)),
            _ => None,
        };

        let mut iterations = 0;
        let mut converged = syndrome_ok(code, &hard);
        while iterations < config.max_iterations && !converged {
            iterations += 1;

            for (v2c_c, c2v_c) in v2c.iter().zip(&mut c2v) {
                check_update(config.check_rule, phi.as_ref(), v2c_c, c2v_c);
            }

            for (p, &ch) in posterior.iter_mut().zip(channel_llr) {
                *p = ch.clamp(-LLR_CLAMP, LLR_CLAMP);
            }
            for (c, c2v_c) in c2v.iter().enumerate() {
                for (j, &v) in code.check_neighbors(c).iter().enumerate() {
                    posterior[v as usize] += c2v_c[j];
                }
            }
            for (c, v2c_c) in v2c.iter_mut().enumerate() {
                for (j, &v) in code.check_neighbors(c).iter().enumerate() {
                    v2c_c[j] = (posterior[v as usize] - c2v[c][j]).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }

            for (h, &p) in hard.iter_mut().zip(&posterior) {
                *h = p < 0.0;
            }
            converged = syndrome_ok(code, &hard);
        }

        DecodeResult {
            hard,
            posterior,
            iterations,
            converged,
        }
    }

    /// One check node's update under `rule`: the extrinsic message to
    /// every edge of the check, written to `c2v[j]`, from the check's
    /// incoming messages `v2c` (both in the check's edge order). `phi` is
    /// the table the [`CheckRule::SumProductTable`] rule evaluates; the
    /// other rules take `None`.
    ///
    /// Written one edge at a time with no fast path, so that it is the
    /// plain definition each lane of the batched check kernels in
    /// [`crate::kernel`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `v2c` and `c2v` differ in length, or if the rule is the
    /// table rule and `phi` is `None`.
    pub fn check_update(rule: CheckRule, phi: Option<&PhiTable>, v2c: &[f64], c2v: &mut [f64]) {
        assert_eq!(v2c.len(), c2v.len(), "one c2v message per v2c message");
        let deg = v2c.len();
        match rule {
            CheckRule::SumProduct => {
                let tanhs: Vec<f64> = v2c
                    .iter()
                    .map(|&m| fdlibm::tanh(m / 2.0).clamp(-TANH_CLAMP, TANH_CLAMP))
                    .collect();
                let mut fwd = vec![1.0; deg + 1];
                for j in 0..deg {
                    fwd[j + 1] = fwd[j] * tanhs[j];
                }
                let mut bwd = 1.0;
                for j in (0..deg).rev() {
                    let excl = fwd[j] * bwd;
                    c2v[j] = (2.0 * fdlibm::atanh(excl)).clamp(-LLR_CLAMP, LLR_CLAMP);
                    bwd *= tanhs[j];
                }
            }
            CheckRule::SumProductTable { .. } => {
                let phi = phi.expect("the table rule needs its phi table");
                let floor = crate::kernel::phi_gather_floor();
                let mut phis = vec![0.0f64; deg];
                let mut total = 0.0f64;
                let mut sign_prod = 1.0f64;
                for (p, &m) in phis.iter_mut().zip(v2c) {
                    let a = phi.eval(m.abs()).max(floor);
                    *p = a;
                    total += a;
                    if m < 0.0 {
                        sign_prod = -sign_prod;
                    }
                }
                for (j, &m) in v2c.iter().enumerate() {
                    // Float cancellation can push the extrinsic φ-sum a
                    // hair below zero when one edge dominates; clamp into
                    // the domain.
                    let mag = phi.eval((total - phis[j]).max(0.0));
                    let sign = if m < 0.0 { -sign_prod } else { sign_prod };
                    c2v[j] = (sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }
            CheckRule::MinSum { alpha } => {
                // Two smallest magnitudes and the sign product; the
                // extrinsic magnitude is min1 everywhere except at the
                // first position of min1 itself, where it is min2.
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min1_at = 0;
                let mut sign_prod = 1.0f64;
                for (j, &m) in v2c.iter().enumerate() {
                    let mag = m.abs();
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min1_at = j;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                    if m < 0.0 {
                        sign_prod = -sign_prod;
                    }
                }
                for (j, &m) in v2c.iter().enumerate() {
                    let mag = if j == min1_at { min2 } else { min1 };
                    let sign = if m < 0.0 { -sign_prod } else { sign_prod };
                    c2v[j] = (alpha * sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }
        }
    }

    fn syndrome_ok(code: &LdpcCode, hard: &[bool]) -> bool {
        (0..code.num_checks()).all(|c| {
            !code
                .check_neighbors(c)
                .iter()
                .fold(false, |acc, &v| acc ^ hard[v as usize])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Encoder;
    use wi_num::rng::{seeded_rng, Gaussian};

    fn bpsk(cw: &[bool]) -> Vec<f64> {
        cw.iter().map(|&b| if b { -1.0 } else { 1.0 }).collect()
    }

    #[test]
    fn noiseless_decoding_is_exact() {
        let code = LdpcCode::paper_block(25, 3);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(1);
        let cw = code.random_codeword(&enc, &mut rng);
        let llr = awgn_llrs(&bpsk(&cw), 0.5);
        let dec = BpDecoder::new(&code, BpConfig::default()).decode(&llr);
        assert!(dec.converged);
        assert_eq!(dec.hard, cw);
        assert_eq!(dec.iterations, 0, "syndrome already satisfied");
    }

    #[test]
    fn corrects_moderate_noise() {
        let code = LdpcCode::paper_block(40, 5);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(2);
        let mut gauss = Gaussian::new();
        let sigma = 0.6; // Eb/N0 ≈ 4.4 dB at rate 1/2
        let decoder = BpDecoder::new(&code, BpConfig::default());
        let mut ws = DecoderWorkspace::new(&code);
        let mut failures = 0;
        for _ in 0..20 {
            let cw = code.random_codeword(&enc, &mut rng);
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode_with(&mut ws, &awgn_llrs(&rx, sigma));
            if dec.hard != cw {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures} failures out of 20");
    }

    #[test]
    fn min_sum_corrects_moderate_noise() {
        let code = LdpcCode::paper_block(40, 5);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(2);
        let mut gauss = Gaussian::new();
        let sigma = 0.58;
        let decoder = BpDecoder::new(
            &code,
            BpConfig {
                check_rule: CheckRule::min_sum(),
                ..BpConfig::default()
            },
        );
        let mut ws = DecoderWorkspace::new(&code);
        let mut failures = 0;
        for _ in 0..20 {
            let cw = code.random_codeword(&enc, &mut rng);
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode_with(&mut ws, &awgn_llrs(&rx, sigma));
            if dec.hard != cw {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures} min-sum failures out of 20");
    }

    #[test]
    fn fails_gracefully_under_heavy_noise() {
        let code = LdpcCode::paper_block(25, 7);
        let mut rng = seeded_rng(3);
        let mut gauss = Gaussian::new();
        let sigma = 3.0;
        let cw = vec![false; code.len()];
        let rx: Vec<f64> = bpsk(&cw)
            .iter()
            .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
            .collect();
        let dec = BpDecoder::new(
            &code,
            BpConfig {
                max_iterations: 10,
                ..BpConfig::default()
            },
        )
        .decode(&awgn_llrs(&rx, sigma));
        // No panic; may or may not converge, but must report honestly.
        assert!(dec.iterations <= 10);
        if dec.converged {
            assert!(code.is_codeword(&dec.hard));
        }
    }

    #[test]
    fn converged_output_is_a_codeword() {
        let code = LdpcCode::paper_block(30, 9);
        let mut rng = seeded_rng(4);
        let mut gauss = Gaussian::new();
        let sigma = 0.7;
        let cw = vec![false; code.len()];
        let decoder = BpDecoder::new(&code, BpConfig::default());
        for _ in 0..10 {
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode(&awgn_llrs(&rx, sigma));
            if dec.converged {
                assert!(code.is_codeword(&dec.hard));
            }
        }
    }

    #[test]
    fn stronger_code_beats_weaker_code() {
        // Larger lifting factor -> longer constraint length -> fewer errors
        // at the same noise level (the N knob of Fig. 10).
        let sigma = 0.78;
        let count_errors = |n: usize| -> u64 {
            let code = LdpcCode::paper_block(n, 13);
            let decoder = BpDecoder::new(&code, BpConfig::default());
            let mut ws = DecoderWorkspace::new(&code);
            let mut rng = seeded_rng(5);
            let mut gauss = Gaussian::new();
            let cw = vec![false; code.len()];
            let mut errs = 0u64;
            let frames = 4000 / n; // equal bit budget
            for _ in 0..frames.max(20) {
                let rx: Vec<f64> = bpsk(&cw)
                    .iter()
                    .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                    .collect();
                decoder.decode_in_place(&mut ws, &awgn_llrs(&rx, sigma));
                errs += ws.hard().iter().filter(|&&b| b).count() as u64;
            }
            errs
        };
        let weak = count_errors(20);
        let strong = count_errors(100);
        assert!(strong < weak, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        let code = LdpcCode::paper_block(30, 6);
        let decoder = BpDecoder::new(&code, BpConfig::default());
        let mut rng = seeded_rng(9);
        let mut gauss = Gaussian::new();
        let mut ws = DecoderWorkspace::new(&code);
        for _ in 0..5 {
            let rx: Vec<f64> = (0..code.len())
                .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, 0.8))
                .collect();
            let llr = awgn_llrs(&rx, 0.8);
            let reused = decoder.decode_with(&mut ws, &llr);
            let fresh = decoder.decode(&llr);
            assert_eq!(reused, fresh, "stale workspace state leaked");
        }
    }

    #[test]
    fn llr_sign_convention() {
        let llr = awgn_llrs(&[0.9, -1.1], 1.0);
        assert!(llr[0] > 0.0 && llr[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "LLR length mismatch")]
    fn wrong_length_panics() {
        let code = LdpcCode::paper_block(10, 1);
        BpDecoder::new(&code, BpConfig::default()).decode(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn invalid_min_sum_alpha_panics() {
        let code = LdpcCode::paper_block(10, 1);
        BpDecoder::new(
            &code,
            BpConfig {
                check_rule: CheckRule::MinSum { alpha: -0.8 },
                ..BpConfig::default()
            },
        );
    }
}
