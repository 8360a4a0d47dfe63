//! Accuracy harness for the φ-table check kernel
//! ([`wi_ldpc::kernel::PhiTable`] / `CheckRule::SumProductTable`).
//!
//! The table rule is the one kernel in the workspace that is
//! **accuracy-tested instead of bit-identical** (see
//! `docs/ARCHITECTURE.md`): these tests (a) property-test the documented
//! per-evaluation φ error bound, the kernel's sign symmetry and the
//! table's monotonicity across `bits` settings, (b) bound the per-edge
//! check-message error against the exact `tanh`/`atanh` kernel in the
//! decoder's operating regime (both kernels at one lane, the width a
//! one-frame decode runs), and (c) pin the end-to-end
//! `required_ebn0_db` of the table rule to exact sum-product within
//! 0.05 dB on the paper's block and coupled codes.

use proptest::prelude::*;
use rand::Rng;
use wi_ldpc::ber::{
    ber_curve, log_linear_required_ebn0, BerSimOptions, BlockBerTarget, CoupledBerTarget,
    SearchOutcome,
};
use wi_ldpc::decoder::{BpConfig, CheckRule};
use wi_ldpc::kernel::{
    phi_exact, sum_product_exact_batch, sum_product_table_batch, ExactBatchScratch, PhiTable,
    PHI_X_MAX,
};
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_ldpc::LdpcCode;
use wi_num::rng::seeded_rng;

/// The `bits` settings the property tests sweep: a coarse table, the
/// default (7), and finer ones.
const BITS_SWEEP: [u32; 4] = [3, 5, 7, 9];

/// One check over all of `v2c`'s edges as a one-lane batch, masked in:
/// the table kernel's c2v messages.
fn table_c2v(table: &PhiTable, v2c: &[f64]) -> Vec<f64> {
    let lanes: Vec<[f64; 1]> = v2c.iter().map(|&m| [m]).collect();
    let mut c2v = vec![[0.0]; v2c.len()];
    let mut phis = vec![[0.0]; v2c.len()];
    let offsets = [0, v2c.len() as u32];
    sum_product_table_batch(&offsets, 0, 1, &[1], table, &lanes, &mut c2v, &mut phis);
    c2v.as_flattened().to_vec()
}

/// The exact kernel's c2v messages for one check, as [`table_c2v`].
fn exact_c2v(v2c: &[f64]) -> Vec<f64> {
    let lanes: Vec<[f64; 1]> = v2c.iter().map(|&m| [m]).collect();
    let mut c2v = vec![[0.0]; v2c.len()];
    let mut scratch = ExactBatchScratch::new(v2c.len(), v2c.len(), 1);
    let offsets = [0, v2c.len() as u32];
    sum_product_exact_batch(&offsets, 0, 1, &[1], &lanes, &mut c2v, &mut scratch);
    c2v.as_flattened().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-evaluation φ error stays within the documented per-interval
    /// bound across the whole input range — table domain, head segment
    /// and saturation tail — for several `bits` settings.
    #[test]
    fn eval_error_within_documented_bound(
        bits_sel in 0usize..BITS_SWEEP.len(),
        seed in 0u64..10_000,
    ) {
        let table = PhiTable::new(BITS_SWEEP[bits_sel]);
        let mut rng = seeded_rng(seed);
        for _ in 0..256 {
            // Log-uniform over ~15 decades so the deep-saturation
            // octaves and the clamp knee get as much coverage as the
            // bulk.
            let exponent = rng.gen::<f64>() * 15.5 - 13.8;
            let x = 10f64.powf(exponent).min(PHI_X_MAX + 5.0);
            let err = (table.eval(x) - phi_exact(x)).abs();
            let bound = table.error_bound_at(x) + 1e-9;
            prop_assert!(
                err <= bound,
                "bits {}, x {x}: err {err} exceeds bound {bound}",
                table.bits()
            );
        }
    }

    /// The table evaluation is monotone non-increasing, like φ itself.
    #[test]
    fn eval_is_monotone_decreasing(
        bits_sel in 0usize..BITS_SWEEP.len(),
        a in 0.0f64..40.0,
        b in 0.0f64..40.0,
    ) {
        let table = PhiTable::new(BITS_SWEEP[bits_sel]);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            table.eval(lo) >= table.eval(hi),
            "eval({lo}) < eval({hi}) under bits {}",
            table.bits()
        );
    }

    /// Sign symmetry of the table kernel: flipping the sign of a single
    /// input message flips every *other* output message bit-for-bit and
    /// leaves that edge's own output unchanged (φ sees magnitudes only;
    /// signs travel through the extrinsic sign product). This is the
    /// property that makes all-zero-codeword Monte-Carlo exact for the
    /// table rule.
    #[test]
    fn table_kernel_is_sign_symmetric(
        bits_sel in 0usize..BITS_SWEEP.len(),
        deg in 2usize..11,
        flip in 0usize..11,
        seed in 0u64..10_000,
    ) {
        let flip = flip % deg;
        let table = PhiTable::new(BITS_SWEEP[bits_sel]);
        let mut rng = seeded_rng(seed);
        let v2c: Vec<f64> = (0..deg)
            .map(|_| (rng.gen::<f64>() - 0.5) * 60.0)
            .collect();
        let mut flipped = v2c.clone();
        flipped[flip] = -flipped[flip];
        let out = table_c2v(&table, &v2c);
        let out_flip = table_c2v(&table, &flipped);
        for (j, (&o, &f)) in out.iter().zip(&out_flip).enumerate() {
            let expect = if j == flip { o } else { -o };
            prop_assert!(f == expect, "edge {} of {:?}: {} vs {}", j, &v2c, o, f);
        }
    }

    /// Per-edge check-message error of the table kernel against the
    /// exact kernel, with a *propagated* tolerance derived from the
    /// documented φ bounds: the scatter evaluation's own interval bound,
    /// plus the gather errors amplified through `|φ'| = 1/sinh` at the
    /// extrinsic φ-sum (first-order error propagation, evaluated
    /// rigorously from below). Signs never flip.
    #[test]
    fn per_edge_c2v_error_within_propagated_bound(
        bits_sel in 0usize..BITS_SWEEP.len(),
        deg in 2usize..11,
        seed in 0u64..10_000,
    ) {
        let table = PhiTable::new(BITS_SWEEP[bits_sel]);
        let mut rng = seeded_rng(seed ^ 0xC2C2);
        let v2c: Vec<f64> = (0..deg)
            .map(|_| {
                let mag = 0.05 + rng.gen::<f64>() * 7.95;
                if rng.gen::<f64>() < 0.5 { -mag } else { mag }
            })
            .collect();
        let exact = exact_c2v(&v2c);
        let approx = table_c2v(&table, &v2c);
        for (j, (&e, &t)) in exact.iter().zip(&approx).enumerate() {
            // Extrinsic φ-sums: what the kernel computed (table) and the
            // true value (exact φ), plus the total gather error budget.
            let s_table: f64 = (0..deg)
                .filter(|&i| i != j)
                .map(|i| table.eval(v2c[i].abs()))
                .sum();
            let s_exact: f64 = (0..deg)
                .filter(|&i| i != j)
                .map(|i| phi_exact(v2c[i].abs()))
                .sum();
            let gather: f64 = (0..deg)
                .filter(|&i| i != j)
                .map(|i| table.error_bound_at(v2c[i].abs()))
                .sum();
            // |T(s̃) − φ(s)| ≤ bound(s̃) + |s̃ − s| · sup|φ'|, with
            // sup|φ'| = 1/sinh at the smallest point either sum can
            // reach. The tanh-form exact kernel also clamps, so cap the
            // whole thing at LLR_CLAMP.
            let s_lo = (s_table.min(s_exact) - gather).max(1e-12);
            let tol = (table.error_bound_at(s_table) + gather / s_lo.sinh())
                .min(wi_ldpc::decoder::LLR_CLAMP)
                + 1e-6;
            prop_assert!(
                (e - t).abs() <= tol,
                "edge {} of {:?}: exact {} vs table {} (tol {})",
                j,
                &v2c,
                e,
                t,
                tol
            );
            prop_assert!(e.signum() == t.signum() || e == 0.0, "sign flip at {}", j);
        }
    }
}

/// Required Eb/N0 to reach `target` BER, by the library's paired
/// common-random-numbers machinery: [`ber_curve`] measures the rule's
/// BER over a fixed grid with shared noise seeds, and
/// [`log_linear_required_ebn0`] interpolates.
///
/// The `required_ebn0_db` bisection quantizes its answer to the probe
/// grid, so with Monte-Carlo BER estimates the *difference* between two
/// nearly identical decoders measures the grid, not the decoders.
/// Interpolating both rules' curves over the *same* grid with the *same*
/// noise seeds makes the shared Monte-Carlo noise cancel in the
/// difference, which is exactly what the 0.05 dB acceptance bound is
/// about. (`log_linear_required_ebn0` is the estimator this harness
/// once hand-rolled; `tests/ber_search.rs` pins the two equal. The
/// release-mode bisection numbers for the full Fig. 10 grid are in
/// `docs/REPRODUCING.md`.)
fn paired_required_ebn0(
    target: &dyn wi_ldpc::BerTarget,
    grid: &[f64],
    opts: &BerSimOptions,
    target_ber: f64,
) -> f64 {
    let curve: Vec<(f64, f64)> = ber_curve(target, grid, opts)
        .into_iter()
        .map(|(e, est)| (e, est.ber))
        .collect();
    match log_linear_required_ebn0(&curve, target_ber) {
        SearchOutcome::Found(v) => v,
        other => panic!("target {target_ber} not resolved by curve {curve:?}: {other:?}"),
    }
}

/// Required Eb/N0 of the table rule matches exact sum-product within
/// 0.05 dB on the paper's *block* code family (acceptance criterion of
/// the table kernel).
#[test]
fn required_ebn0_matches_exact_on_paper_block_code() {
    let code = LdpcCode::paper_block(40, 23);
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 4000,
        min_frames: 4000,
        seed: 0xACC,
    };
    let grid = [3.0f64, 3.6];
    let required = |rule: CheckRule| -> f64 {
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule,
        };
        let target = BlockBerTarget::new(&code, config, 0.5);
        paired_required_ebn0(&target, &grid, &opts, 1e-2)
    };
    let exact = required(CheckRule::SumProduct);
    let table = required(CheckRule::sum_product_table());
    assert!(
        (exact - table).abs() <= 0.05,
        "block code: exact {exact} dB vs table {table} dB"
    );
}

/// Required Eb/N0 of the table rule matches exact sum-product within
/// 0.05 dB on the paper's *coupled* code under window decoding.
#[test]
fn required_ebn0_matches_exact_on_paper_coupled_code() {
    let code = CoupledCode::paper_cc(15, 10, 4);
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 1000,
        min_frames: 1000,
        seed: 0xCCACC,
    };
    let grid = [2.6f64, 3.6];
    let required = |rule: CheckRule| -> f64 {
        let wd = WindowDecoder::new(4, 15).with_rule(rule);
        let target = CoupledBerTarget::new(&code, wd);
        paired_required_ebn0(&target, &grid, &opts, 1e-2)
    };
    let exact = required(CheckRule::SumProduct);
    let table = required(CheckRule::sum_product_table());
    assert!(
        (exact - table).abs() <= 0.05,
        "coupled code: exact {exact} dB vs table {table} dB"
    );
}

/// End-to-end: the table-rule decoder corrects moderate noise on a paper
/// block code exactly like the exact decoder does in the same setting
/// (`corrects_moderate_noise` in `decoder.rs`).
#[test]
fn table_rule_decodes_the_waterfall() {
    use wi_ldpc::{BpDecoder, DecoderWorkspace};
    let code = LdpcCode::paper_block(40, 5);
    let decoder = BpDecoder::new(
        &code,
        BpConfig {
            max_iterations: 50,
            check_rule: CheckRule::sum_product_table(),
        },
    );
    let mut ws = DecoderWorkspace::new(&code);
    let mut rng = seeded_rng(0x7AB);
    let mut gauss = wi_num::rng::Gaussian::new();
    let sigma = 0.6;
    let scale = 2.0 / (sigma * sigma);
    let mut failures = 0;
    for _ in 0..20 {
        let llr: Vec<f64> = (0..code.len())
            .map(|_| scale * (1.0 + gauss.sample_with(&mut rng, 0.0, sigma)))
            .collect();
        let status = decoder.decode_in_place(&mut ws, &llr);
        if !(status.converged && ws.hard().iter().all(|&b| !b)) {
            failures += 1;
        }
    }
    assert!(failures <= 1, "{failures} table-rule failures out of 20");
}
