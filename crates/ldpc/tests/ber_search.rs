//! Contract tests for the `wi_ldpc::ber` v2 API: the search strategies
//! are deterministic and thread-count invariant,
//! `Bisection` reproduces the pre-redesign ladder probe for probe, and
//! `PairedGrid` matches the hand-rolled paired estimator that
//! `tests/phi_table.rs` used before the library absorbed it.

use wi_ldpc::ber::{
    ber_curve_with_threads, log_linear_required_ebn0, required_ebn0_db,
    search_required_ebn0_with_threads, simulate_ber_with_threads, BerSimOptions, BerTarget,
    BerWorkspace, BlockBerTarget, CoupledBerTarget, FrameStats, SearchConfig, SearchOutcome,
    SearchStrategy,
};
use wi_ldpc::decoder::BpConfig;
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_ldpc::LdpcCode;

/// A deterministic analytic "code": per-frame errors follow
/// `round(bits · 10^(−ebn0/scale))` with a seed-dependent ±1 jitter, so
/// searches on it are cheap, reproducible and have a known answer.
struct MockTarget {
    bits: u64,
    scale: f64,
}

impl BerTarget for MockTarget {
    fn bits_per_frame(&self) -> u64 {
        self.bits
    }

    fn rate(&self) -> f64 {
        0.5
    }

    fn eval_frames_each(
        &self,
        _ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        for (frame, slot) in (first..).zip(out.iter_mut()) {
            let ber = 10f64.powf(-ebn0_db / self.scale);
            let base = (self.bits as f64 * ber).round() as u64;
            // Seed/frame-dependent jitter keeps the variance machinery
            // honest without making the mean drift; the error-free tail
            // stays exactly error-free (like a real code far above its
            // waterfall at these frame budgets).
            let jitter = ((seed ^ frame) % 3) as i64 - 1;
            let errors = if base == 0 {
                0
            } else {
                (base as i64 + jitter).clamp(0, self.bits as i64) as u64
            };
            *slot = FrameStats::default();
            slot.push_frame(self.bits, errors);
        }
    }
}

/// The `Bisection` strategy dispatches to the same ladder as the closure
/// form (`required_ebn0_db` over `simulate_ber`): same probes in the
/// same order, same frames, same answer — the retained oracle contract.
#[test]
fn bisection_strategy_reproduces_the_closure_ladder() {
    let code = LdpcCode::paper_block(25, 9);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    let opts = BerSimOptions {
        target_errors: 60,
        max_frames: 40,
        min_frames: 10,
        seed: 0xF10,
    };
    let search = SearchConfig {
        strategy: SearchStrategy::Bisection,
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        ..SearchConfig::default()
    };
    let report = search_required_ebn0_with_threads(&target, 1e-2, &opts, &search, 1);

    let mut ladder_probes: Vec<f64> = Vec::new();
    let ladder = required_ebn0_db(
        |e| {
            ladder_probes.push(e);
            simulate_ber_with_threads(&target, e, &opts, 1).ber
        },
        1e-2,
        search.lo_db,
        search.hi_db,
        search.tol_db,
    );
    assert_eq!(report.outcome, ladder);
    assert_eq!(report.probes as usize, ladder_probes.len());
    let report_probes: Vec<f64> = report.curve.iter().map(|&(e, _)| e).collect();
    assert_eq!(report_probes, ladder_probes, "probe order must match");
}

/// A fig10 `--quick`-style search (same seed, frame budget, tolerance
/// and grid as the CI smoke preset, on miniature codes) must report
/// byte-identically at every batch width: the batch-1 target decodes
/// one frame at a time (on the one-lane engine, which
/// `batch_equivalence.rs` pins to the naive oracles frame by frame),
/// so this is the regression pin that inter-frame batching left every
/// probe, frame count and estimate of the search untouched.
#[test]
fn search_report_is_invariant_under_batch_width() {
    let opts = BerSimOptions {
        target_errors: 120,
        max_frames: 60,
        min_frames: 20,
        seed: 0xF10,
    };
    let search = SearchConfig {
        strategy: SearchStrategy::Bisection,
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        grid_points: 7,
    };

    let cc = CoupledCode::paper_cc(12, 8, 0xCC0C);
    let wd = WindowDecoder::new(3, 10).with_rule(wi_ldpc::decoder::CheckRule::min_sum());
    let cc_scalar = search_required_ebn0_with_threads(
        &CoupledBerTarget::new(&cc, wd).with_batch(1),
        1e-2,
        &opts,
        &search,
        1,
    );
    let bc = LdpcCode::paper_block(25, 0xBC19);
    let config = BpConfig {
        check_rule: wi_ldpc::decoder::CheckRule::min_sum(),
        ..BpConfig::default()
    };
    let bc_scalar = search_required_ebn0_with_threads(
        &BlockBerTarget::new(&bc, config, 0.5).with_batch(1),
        1e-2,
        &opts,
        &search,
        1,
    );
    for batch in [2usize, 4, 8] {
        let cc_batched = search_required_ebn0_with_threads(
            &CoupledBerTarget::new(&cc, wd).with_batch(batch),
            1e-2,
            &opts,
            &search,
            1,
        );
        assert_eq!(cc_scalar, cc_batched, "batch {batch} changed the CC search");
        let bc_batched = search_required_ebn0_with_threads(
            &BlockBerTarget::new(&bc, config, 0.5).with_batch(batch),
            1e-2,
            &opts,
            &search,
            1,
        );
        assert_eq!(bc_scalar, bc_batched, "batch {batch} changed the BC search");
    }
}

#[test]
fn concurrent_bisection_is_thread_count_invariant() {
    let code = LdpcCode::paper_block(25, 9);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    let opts = BerSimOptions {
        target_errors: 60,
        max_frames: 48,
        min_frames: 12,
        seed: 0xF10,
    };
    let search = SearchConfig {
        strategy: SearchStrategy::ConcurrentBisection,
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        ..SearchConfig::default()
    };
    let reference = search_required_ebn0_with_threads(&target, 1e-2, &opts, &search, 1);
    assert!(
        reference.outcome.found().is_some(),
        "{:?}",
        reference.outcome
    );
    for threads in [4usize, 64] {
        let par = search_required_ebn0_with_threads(&target, 1e-2, &opts, &search, threads);
        assert_eq!(reference, par, "thread count {threads} changed the search");
    }
}

#[test]
fn paired_grid_is_thread_count_invariant() {
    let code = CoupledCode::paper_cc(12, 8, 7);
    let target = CoupledBerTarget::new(&code, WindowDecoder::new(3, 10));
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 24,
        min_frames: 24,
        seed: 0xAB,
    };
    let search = SearchConfig {
        strategy: SearchStrategy::PairedGrid,
        lo_db: 0.5,
        hi_db: 8.0,
        grid_points: 5,
        ..SearchConfig::default()
    };
    let reference = search_required_ebn0_with_threads(&target, 1e-1, &opts, &search, 1);
    for threads in [4usize, 64] {
        let par = search_required_ebn0_with_threads(&target, 1e-1, &opts, &search, threads);
        assert_eq!(reference, par, "thread count {threads} changed the search");
    }
}

/// Hand-rolled copy of the estimator `tests/phi_table.rs` used before
/// the library absorbed it: fixed grid, common random numbers, log-linear
/// interpolation of the first bracketing pair.
fn hand_rolled_required_ebn0(curve: &[(f64, f64)], target: f64) -> f64 {
    for pair in curve.windows(2) {
        let (e0, b0) = pair[0];
        let (e1, b1) = pair[1];
        if b0 >= target && target >= b1 && b1 > 0.0 {
            let t = (b0.ln() - target.ln()) / (b0.ln() - b1.ln());
            return e0 + t * (e1 - e0);
        }
    }
    panic!("target {target} not bracketed by curve {curve:?}");
}

/// `PairedGrid` on the paper's block-code family lands exactly where the
/// hand-rolled estimator does on the same grid and seeds.
#[test]
fn paired_grid_matches_hand_rolled_estimator_on_block_code() {
    let code = LdpcCode::paper_block(30, 13);
    let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 80,
        min_frames: 80,
        seed: 0x9A1D,
    };
    assert_paired_grid_matches(&target, &opts, 1e-2);
}

/// `PairedGrid` on the paper's coupled-code family lands exactly where
/// the hand-rolled estimator does on the same grid and seeds.
#[test]
fn paired_grid_matches_hand_rolled_estimator_on_coupled_code() {
    let code = CoupledCode::paper_cc(15, 8, 6);
    let target = CoupledBerTarget::new(&code, WindowDecoder::new(4, 12));
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 40,
        min_frames: 40,
        seed: 0xC0FFEE,
    };
    // Target 3e-2: the crossing pair of the 40-frame curve stays at
    // positive error counts (1e-2 would cross into a zero-error point,
    // which is the `Unresolved` path, covered in the module tests).
    assert_paired_grid_matches(&target, &opts, 3e-2);
}

fn assert_paired_grid_matches(target: &dyn BerTarget, opts: &BerSimOptions, target_ber: f64) {
    let search = SearchConfig {
        strategy: SearchStrategy::PairedGrid,
        lo_db: 0.5,
        hi_db: 8.0,
        grid_points: 7,
        ..SearchConfig::default()
    };
    // The full CRN curve over the same grid the strategy walks.
    let step = (search.hi_db - search.lo_db) / (search.grid_points - 1) as f64;
    let grid: Vec<f64> = (0..search.grid_points)
        .map(|i| {
            if i + 1 == search.grid_points {
                search.hi_db
            } else {
                search.lo_db + step * i as f64
            }
        })
        .collect();
    let curve: Vec<(f64, f64)> = ber_curve_with_threads(target, &grid, opts, 1)
        .into_iter()
        .map(|(e, est)| (e, est.ber))
        .collect();
    let hand = hand_rolled_required_ebn0(&curve, target_ber);

    let report = search_required_ebn0_with_threads(target, target_ber, opts, &search, 1);
    match report.outcome {
        SearchOutcome::Found(v) => assert_eq!(v, hand, "paired grid diverged from hand-rolled"),
        other => panic!("expected Found, got {other:?}"),
    }
    // The strategy stops at the crossing: never more points than the
    // full grid, and the probes it did run followed the grid.
    assert!(report.probes as usize <= search.grid_points);
    for (probe, expect) in report.curve.iter().zip(&grid) {
        assert_eq!(probe.0, *expect);
    }
    // And the library interpolator agrees with the hand-rolled formula
    // on the full curve too.
    assert_eq!(
        log_linear_required_ebn0(&curve, target_ber),
        SearchOutcome::Found(hand)
    );
}

/// All three strategies agree on a deterministic analytic target to
/// within the coarse of (tolerance, grid spacing): the strategies answer
/// the same question, just with different budgets.
#[test]
fn strategies_agree_on_analytic_target() {
    // BER = 10^(-e/4): hits 1e-2 at exactly 8 dB... out of bracket; use
    // scale 2 → 1e-2 at 4 dB, inside [0.5, 8].
    let target = MockTarget {
        bits: 4000,
        scale: 2.0,
    };
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 64,
        min_frames: 16,
        seed: 0x5EED,
    };
    let base = SearchConfig {
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.1,
        grid_points: 9,
        ..SearchConfig::default()
    };
    let mut answers = Vec::new();
    for strategy in [
        SearchStrategy::Bisection,
        SearchStrategy::ConcurrentBisection,
        SearchStrategy::PairedGrid,
    ] {
        let search = SearchConfig { strategy, ..base };
        let report = search_required_ebn0_with_threads(&target, 1e-2, &opts, &search, 2);
        let v = report
            .outcome
            .found()
            .unwrap_or_else(|| panic!("{strategy:?}: {:?}", report.outcome));
        assert!(
            (v - 4.0).abs() < 0.5,
            "{strategy:?} found {v}, expected ≈ 4.0"
        );
        answers.push((strategy, v, report.frames));
    }
    // CI pruning must make the concurrent ladder cheaper than the full
    // oracle ladder on a clean analytic target.
    let frames_of = |s: SearchStrategy| answers.iter().find(|a| a.0 == s).unwrap().2;
    assert!(
        frames_of(SearchStrategy::ConcurrentBisection) < frames_of(SearchStrategy::Bisection),
        "concurrent {} vs bisect {} frames",
        frames_of(SearchStrategy::ConcurrentBisection),
        frames_of(SearchStrategy::Bisection)
    );
}

/// A paired-grid crossing into a zero-error point triggers midpoint
/// refinement: the coarse-grid `Unresolved` is pulled back to `Found` by
/// probing inside the bracketing pair with the same random numbers.
#[test]
fn paired_grid_refines_zero_error_crossings() {
    // bits = 200: BER 10^(-e/2) rounds to zero errors from ~5.2 dB on,
    // so a coarse grid crosses straight into the zero-error tail, while
    // the first midpoint (4.25 dB) still sees errors to interpolate on.
    let target = MockTarget {
        bits: 200,
        scale: 2.0,
    };
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 20,
        min_frames: 20,
        seed: 7,
    };
    let search = SearchConfig {
        strategy: SearchStrategy::PairedGrid,
        lo_db: 0.5,
        hi_db: 8.0,
        grid_points: 4, // 2.5 dB spacing: guarantees a zero-error crossing
        ..SearchConfig::default()
    };
    let report = search_required_ebn0_with_threads(&target, 2e-2, &opts, &search, 1);
    let v = report
        .outcome
        .found()
        .unwrap_or_else(|| panic!("refinement should resolve: {:?}", report.outcome));
    // True crossing of the analytic curve: 10^(-e/2) = 2e-2 at ≈ 3.4 dB.
    assert!((v - 3.4).abs() < 1.0, "{v}");
    // Refinement probes are off the original grid.
    let step = (search.hi_db - search.lo_db) / (search.grid_points - 1) as f64;
    let off_grid = report.curve.iter().any(|&(e, _)| {
        let k = (e - search.lo_db) / step;
        (k - k.round()).abs() > 1e-9
    });
    assert!(off_grid, "expected midpoint refinement probes");
}

/// Searches whose bracket misses the target report the side, not a bare
/// `None` — on every strategy.
#[test]
fn outcomes_distinguish_the_unbracketed_sides() {
    let easy = MockTarget {
        bits: 1000,
        scale: 8.0, // BER 10^(-e/8): still 1e-1 at 8 dB → target under reach
    };
    let opts = BerSimOptions {
        target_errors: u64::MAX,
        max_frames: 32,
        min_frames: 8,
        seed: 3,
    };
    for strategy in [
        SearchStrategy::Bisection,
        SearchStrategy::ConcurrentBisection,
        SearchStrategy::PairedGrid,
    ] {
        let search = SearchConfig {
            strategy,
            lo_db: 0.5,
            hi_db: 8.0,
            ..SearchConfig::default()
        };
        let above = search_required_ebn0_with_threads(&easy, 1e-4, &opts, &search, 1);
        assert_eq!(above.outcome, SearchOutcome::AboveHi, "{strategy:?}");
        // BER at the low edge is 10^(-0.5/8) ≈ 0.87, already under 0.9.
        let below = search_required_ebn0_with_threads(&easy, 0.9, &opts, &search, 1);
        assert_eq!(below.outcome, SearchOutcome::BelowLo, "{strategy:?}");
    }
}
