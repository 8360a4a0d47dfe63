//! Cross-layer co-simulation glue: link budget → per-link Eb/N0 →
//! measured frame-error rate → NoC fault model.
//!
//! The paper's central claim is cross-layer — coded wireless links with a
//! *non-zero* residual error rate still yield a viable interconnect — but
//! the LDPC/BER stack (Fig. 10) and the NoC DES (Fig. 8) never exchange
//! results on their own. This module closes the loop:
//!
//! 1. [`link_class_ebn0`] maps the system geometry through
//!    [`LinkBudget::snr_db_at`](wi_linkbudget::budget::LinkBudget::snr_db_at)
//!    to an Eb/N0 per link class — the short "ahead" link (board
//!    spacing, the best channel, assigned to *center* links) and the
//!    long worst-case diagonal (edge antennas see the obstructed, longer
//!    channels, assigned to *edge* links).
//! 2. [`FerCurve::measure`] runs `wi_ldpc::ber`'s deterministic
//!    `(seed, frame, ebn0)` Monte-Carlo over an Eb/N0 grid once and keeps
//!    the frame-error rate per point ([`wi_ldpc::ber::BerEstimate::fer`]);
//!    the curve is
//!    the reusable cache between the coding layer and the NoC.
//! 3. [`link_error_model`] interpolates that curve at each class's Eb/N0
//!    and emits the heterogeneous
//!    [`LinkErrorModel::EdgeCenter`] the DES fault layer consumes.
//!
//! The Eb/N0 convention matches `wi_ldpc::ber`'s AWGN sampler
//! (`σ² = 1/(2·R·Eb/N0)` at unit symbol energy): with `SNR ≡ 1/σ²`,
//! `Eb/N0 [dB] = SNR [dB] − 10·log10(2·R)` — see [`ebn0_db_from_snr`].
//! At the paper's rate R = ½ the two scales coincide.

use crate::config::SystemConfig;
use crate::eval::extreme_links;
use serde::{Deserialize, Serialize};
use wi_ldpc::ber::{ber_curve, BerSimOptions, BerTarget, CachedBerTarget, FrameEvalCache};
use wi_noc::des::LinkErrorModel;

/// Code rate of the paper's (4,8)-regular LDPC-CC — the rate at which
/// link SNR converts to Eb/N0 here.
pub const CODE_RATE: f64 = 0.5;

/// Converts a link SNR (`SNR ≡ 1/σ²` at unit symbol energy) to the
/// Eb/N0 convention of `wi_ldpc::ber`: `snr_db − 10·log10(2·rate)`.
pub fn ebn0_db_from_snr(snr_db: f64, rate: f64) -> f64 {
    snr_db - 10.0 * (2.0 * rate).log10()
}

/// A measured frame-error-rate curve over an ascending Eb/N0 grid — the
/// cacheable boundary object between the coding layer and the NoC fault
/// model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FerCurve {
    points: Vec<(f64, f64)>,
}

impl FerCurve {
    /// Wraps precomputed `(ebn0_db, fer)` points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, the grid is not strictly ascending,
    /// or any FER lies outside `[0, 1]`.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "FER curve needs at least one point");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "Eb/N0 grid must be strictly ascending"
        );
        assert!(
            points.iter().all(|&(_, f)| (0.0..=1.0).contains(&f)),
            "FER outside [0, 1]"
        );
        FerCurve { points }
    }

    /// Measures the curve by Monte-Carlo over `grid` (ascending Eb/N0 in
    /// dB): one `ber_curve` pass with common random numbers per point,
    /// keeping the frame-error rates. Deterministic in `opts.seed` and
    /// thread-count invariant (the `wi_ldpc::ber` contract).
    ///
    /// # Panics
    ///
    /// See [`FerCurve::from_points`]; also panics if the target is
    /// invalid for simulation.
    pub fn measure(target: &dyn BerTarget, grid: &[f64], opts: &BerSimOptions) -> Self {
        Self::from_points(
            ber_curve(target, grid, opts)
                .into_iter()
                .map(|(ebn0, est)| (ebn0, est.fer()))
                .collect(),
        )
    }

    /// [`measure`](FerCurve::measure) through a [`FrameEvalCache`] — the
    /// co-sim curve as a sweep-store client. Frames already in the cache
    /// (from a previous curve, an Eb/N0 search, or another spec that
    /// visited this operating point) are reused instead of re-simulated;
    /// everything newly simulated is recorded. The returned curve is
    /// bit-identical to the uncached [`measure`](FerCurve::measure) —
    /// cached stats *are* the target's stats (the `CachedBerTarget`
    /// contract).
    ///
    /// The cache must be scoped to `target` by the caller (the key does
    /// not identify the target — see `wi_ldpc::ber::FrameEvalCache`).
    pub fn measure_cached(
        target: &dyn BerTarget,
        cache: &dyn FrameEvalCache,
        grid: &[f64],
        opts: &BerSimOptions,
    ) -> Self {
        Self::measure(&CachedBerTarget::new(target, cache), grid, opts)
    }

    /// The measured `(ebn0_db, fer)` points, in grid order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// FER at `ebn0_db`: clamped to the end points outside the grid,
    /// log-linearly interpolated inside (linearly where a zero-FER point
    /// makes the log scale unusable).
    pub fn fer_at(&self, ebn0_db: f64) -> f64 {
        let pts = &self.points;
        if ebn0_db <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts[pts.len() - 1];
        if ebn0_db >= last.0 {
            return last.1;
        }
        for w in pts.windows(2) {
            let (e0, f0) = w[0];
            let (e1, f1) = w[1];
            if ebn0_db <= e1 {
                // Knots reproduce exactly (the log/exp round trip is not
                // bit-exact at t = 0 or 1).
                if ebn0_db == e0 {
                    return f0;
                }
                if ebn0_db == e1 {
                    return f1;
                }
                let t = (ebn0_db - e0) / (e1 - e0);
                return if f0 > 0.0 && f1 > 0.0 {
                    10f64.powf((1.0 - t) * f0.log10() + t * f1.log10())
                } else {
                    f0 + t * (f1 - f0)
                };
            }
        }
        unreachable!("grid is ascending and ebn0 is inside it")
    }
}

/// Per-class link quality derived from the system geometry by
/// [`link_class_ebn0`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkClassEbn0 {
    /// Eb/N0 of the short "ahead" link (board spacing) — the center
    /// link class.
    pub center_db: f64,
    /// Eb/N0 of the worst-case diagonal link (farthest facing stack,
    /// beamforming losses applied) — the edge link class.
    pub edge_db: f64,
}

/// Derives the two link-class Eb/N0s from the system's geometry and
/// PHY configuration — the same ahead/diagonal extremes §II.B and
/// [`crate::eval::evaluate`] analyse (both price them in one place),
/// converted at [`CODE_RATE`].
pub fn link_class_ebn0(config: &SystemConfig) -> LinkClassEbn0 {
    let [center_db, edge_db] = extreme_links(config).map(|(_, _, budget)| {
        ebn0_db_from_snr(budget.snr_db_at(config.link.tx_power_dbm), CODE_RATE)
    });
    LinkClassEbn0 { center_db, edge_db }
}

/// Builds the heterogeneous per-link error model the DES fault layer
/// consumes: each link class's Eb/N0 (from [`link_class_ebn0`]) looked
/// up on the measured FER curve.
pub fn link_error_model(config: &SystemConfig, curve: &FerCurve) -> LinkErrorModel {
    let q = link_class_ebn0(config);
    LinkErrorModel::EdgeCenter {
        edge_p: curve.fer_at(q.edge_db),
        center_p: curve.fer_at(q.center_db),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_ldpc::ber::CoupledBerTarget;
    use wi_ldpc::window::CoupledCode;

    fn synthetic_curve() -> FerCurve {
        FerCurve::from_points(vec![(0.0, 0.5), (2.0, 0.05), (4.0, 0.005), (6.0, 0.0)])
    }

    #[test]
    fn rate_half_makes_ebn0_equal_snr() {
        // 10·log10(2·0.5) = 0: at the paper's rate the scales coincide.
        assert_eq!(ebn0_db_from_snr(7.25, 0.5), 7.25);
        // Uncoded BPSK: Eb/N0 = SNR − 3.01 dB.
        assert!((ebn0_db_from_snr(10.0, 1.0) - (10.0 - 10.0 * 2f64.log10())).abs() < 1e-12);
    }

    #[test]
    fn fer_interpolation_clamps_and_descends() {
        let c = synthetic_curve();
        assert_eq!(c.fer_at(-3.0), 0.5); // below the grid
        assert_eq!(c.fer_at(10.0), 0.0); // above the grid
        assert_eq!(c.fer_at(2.0), 0.05); // on a knot
                                         // Log-linear midpoint between 0.5 and 0.05 is sqrt(0.5·0.05).
        let mid = c.fer_at(1.0);
        assert!((mid - (0.5f64 * 0.05).sqrt()).abs() < 1e-12, "{mid}");
        // Linear fallback into the zero-FER tail point.
        let tail = c.fer_at(5.0);
        assert!((tail - 0.0025).abs() < 1e-12, "{tail}");
        // Monotone on a descending curve.
        let mut prev = f64::INFINITY;
        for i in 0..=60 {
            let f = c.fer_at(i as f64 * 0.1);
            assert!(f <= prev + 1e-15, "FER rose at {i}");
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_grid_panics() {
        FerCurve::from_points(vec![(1.0, 0.1), (0.5, 0.2)]);
    }

    #[test]
    fn measured_fer_curve_tracks_the_waterfall() {
        // A deliberately tiny coupled code (the config-test idiom) so the
        // Monte-Carlo runs in milliseconds.
        let code = CoupledCode::paper_cc(10, 8, 0xC051);
        let target = CoupledBerTarget::new(&code, wi_ldpc::window::WindowDecoder::new(3, 8));
        let opts = BerSimOptions {
            target_errors: u64::MAX,
            max_frames: 24,
            min_frames: 24,
            seed: 0xC051,
        };
        let curve = FerCurve::measure(&target, &[0.0, 3.0, 6.0], &opts);
        assert_eq!(curve.points().len(), 3);
        assert!(curve
            .points()
            .iter()
            .all(|&(_, f)| (0.0..=1.0).contains(&f)));
        // The waterfall: FER at 0 dB must dominate FER at 6 dB.
        assert!(curve.fer_at(0.0) > curve.fer_at(6.0));
        // Deterministic: measuring again is bit-identical.
        assert_eq!(curve, FerCurve::measure(&target, &[0.0, 3.0, 6.0], &opts));
    }

    #[test]
    fn fer_curve_is_invariant_under_batch_width() {
        // The purity contract ("frame f is a function of (seed, f)") made
        // the FER cache reusable; inter-frame batching must not bend it.
        // The oracle decodes every frame alone with the naive
        // `window::reference` decoder, so equality at every width — batch
        // 1 included, which runs the one-lane engine — pins the lane
        // engine to the pre-batching results.
        use wi_ldpc::ber::{ebn0_db_to_sigma, fill_frame_llrs};
        use wi_ldpc::window::{reference, WindowDecoder};
        let code = CoupledCode::paper_cc(10, 8, 0xC051);
        let decoder = WindowDecoder::new(3, 8);
        let opts = BerSimOptions {
            target_errors: u64::MAX,
            max_frames: 30,
            min_frames: 30,
            seed: 0xC051,
        };
        let grid = [0.0, 3.0, 6.0];
        let mut llr = vec![0.0; code.code().len()];
        let oracle = FerCurve::from_points(
            grid.iter()
                .map(|&ebn0_db| {
                    let sigma = ebn0_db_to_sigma(ebn0_db, code.design_rate());
                    let failed = (0..opts.max_frames)
                        .filter(|&frame| {
                            fill_frame_llrs(&mut llr, sigma, opts.seed, frame);
                            reference::decode(&decoder, &code, &llr).contains(&true)
                        })
                        .count();
                    (ebn0_db, failed as f64 / opts.max_frames as f64)
                })
                .collect(),
        );
        for batch in [1usize, 2, 4, 8] {
            let batched = FerCurve::measure(
                &CoupledBerTarget::new(&code, decoder).with_batch(batch),
                &grid,
                &opts,
            );
            assert_eq!(oracle, batched, "batch width {batch} changed the curve");
        }
    }

    #[test]
    fn cached_measure_reuses_frames_across_curves() {
        use wi_ldpc::ber::MemoryFrameCache;
        let code = CoupledCode::paper_cc(10, 8, 0xC051);
        let target = CoupledBerTarget::new(&code, wi_ldpc::window::WindowDecoder::new(3, 8));
        let opts = BerSimOptions {
            target_errors: u64::MAX,
            max_frames: 24,
            min_frames: 24,
            seed: 0xC051,
        };
        let grid = [0.0, 3.0, 6.0];
        let plain = FerCurve::measure(&target, &grid, &opts);
        let cache = MemoryFrameCache::new();
        let cold = FerCurve::measure_cached(&target, &cache, &grid, &opts);
        assert_eq!(plain, cold, "caching must not perturb the curve");
        let (_, misses) = cache.counters();
        // A second curve on an overlapping grid re-simulates only the
        // new operating point.
        let warm = FerCurve::measure_cached(&target, &cache, &[0.0, 3.0, 4.5, 6.0], &opts);
        let (_, misses2) = cache.counters();
        assert_eq!(misses2 - misses, 24, "only the 4.5 dB point is new");
        assert_eq!(warm.fer_at(0.0), plain.fer_at(0.0));
        assert_eq!(warm.fer_at(6.0), plain.fer_at(6.0));
    }

    #[test]
    fn edge_class_sees_the_weaker_channel() {
        let q = link_class_ebn0(&SystemConfig::paper_default());
        assert!(
            q.edge_db < q.center_db,
            "diagonal {} vs ahead {}",
            q.edge_db,
            q.center_db
        );
    }

    #[test]
    fn link_quality_shifts_the_error_model() {
        let curve = synthetic_curve();
        // Tx powers chosen to land the center-link Eb/N0 inside the
        // measured grid (the paper default sits ~22 dB, far above it —
        // error-free).
        let mut weak = SystemConfig::paper_default();
        weak.link.tx_power_dbm = -20.0;
        let mut strong = weak;
        strong.link.tx_power_dbm = -16.0;
        let (mw, ms) = (
            link_error_model(&weak, &curve),
            link_error_model(&strong, &curve),
        );
        let unpack = |m: LinkErrorModel| match m {
            LinkErrorModel::EdgeCenter { edge_p, center_p } => (edge_p, center_p),
            other => panic!("expected EdgeCenter, got {other:?}"),
        };
        let (we, wc) = unpack(mw);
        let (se, sc) = unpack(ms);
        assert!(we >= wc, "edge links must be at least as bad as center");
        assert!(se <= we && sc <= wc, "more power cannot worsen links");
        assert!(se < we || sc < wc, "6 dB must improve something");
        // The paper's actual operating point is far above the waterfall:
        // both classes interpolate to (clamped) zero FER.
        let paper = link_error_model(&SystemConfig::paper_default(), &curve);
        assert_eq!(
            paper,
            LinkErrorModel::EdgeCenter {
                edge_p: 0.0,
                center_p: 0.0
            }
        );
    }
}
