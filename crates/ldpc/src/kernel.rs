//! Check-node update kernels — the innermost loops of the decoder
//! engine in this crate.
//!
//! Every [`CheckRule`](crate::decoder::CheckRule) resolves to one of the
//! lane-array kernels below, through the one dispatcher
//! `decoder::update_checks_batch`, which [`BpDecoder`] and
//! [`WindowDecoder`](crate::window::WindowDecoder) share at every lane
//! count, one included. Messages live in structure-of-arrays layout
//! `[edge][lane]` (lane = frame), and every lane is bit-identical to
//! [`reference::check_update`] on that lane's messages. The kernels are
//! public so the criterion benches (and any external experiment) can
//! measure them in isolation:
//!
//! * [`sum_product_exact_batch`] — the exact `tanh`/`atanh`
//!   forward/backward kernel. Both transcendentals come from
//!   [`wi_num::fdlibm`], a branch-free port of glibc's routines that
//!   equals the host libm bit for bit and runs eight evaluations at a
//!   time in vector registers, so the exact rule is not bound by
//!   per-edge libm calls.
//! * [`sum_product_table_batch`] — the same check update expressed
//!   through the involutive φ-function `φ(x) = −ln tanh(x/2)` and
//!   evaluated from a precomputed [`PhiTable`]: no transcendentals in the
//!   loop, accuracy bounded by [`PhiTable::error_bound_at`] instead of
//!   bit-identity. [`PhiTable::eval`] is branch-free, so the kernel
//!   computes every lane of a recomputed check in vector registers, with
//!   its table reads as hardware gathers, and stores the masked-in lanes
//!   through a select.
//! * [`min_sum_batch`] — normalized min-sum, branch-free across lanes,
//!   with a fixed-trip-count path for the paper's (4,8)-regular checks.
//!
//! [`BpDecoder`]: crate::decoder::BpDecoder
//! [`reference::check_update`]: crate::decoder::reference::check_update
//!
//! # The φ formulation
//!
//! For a check of degree `d` with incoming messages `m₁ … m_d`, the exact
//! sum-product extrinsic message to edge `j` is
//!
//! ```text
//! |c2v_j| = φ( Σ_{i≠j} φ(|m_i|) ),   sign(c2v_j) = Π_{i≠j} sign(m_i),
//! ```
//!
//! because φ is its own inverse on `(0, ∞)`. One table evaluation per
//! edge on the gather pass and one on the scatter pass replace the
//! exact kernel's `tanh`/`atanh` pair (see `docs/ARCHITECTURE.md` for
//! where the table sits in the workspace).

use crate::decoder::LLR_CLAMP;
use wi_num::fdlibm;

/// Upper edge of the φ-table input domain. Decoder messages are clamped
/// to `±LLR_CLAMP`, so magnitudes never exceed this; φ-sums beyond it
/// land in the saturation tail.
pub const PHI_X_MAX: f64 = LLR_CLAMP;

/// Exact φ-function with the decoder's clamp semantics:
/// `φ(x) = min(−ln tanh(x/2), LLR_CLAMP)` for `x > 0`, and `LLR_CLAMP`
/// at `x = 0` (where the true φ diverges — the clamp mirrors the
/// `±LLR_CLAMP` message clamp every kernel applies).
///
/// This is the reference the table kernel is accuracy-tested against.
pub fn phi_exact(x: f64) -> f64 {
    phi_raw(x).min(LLR_CLAMP)
}

/// Unclamped `−ln tanh(x/2)` (`+∞` at 0 via the `ln` of 0); the node
/// values of the geometric grid, so that interpolation error analysis
/// never has to reason about the clamp.
fn phi_raw(x: f64) -> f64 {
    debug_assert!(x >= 0.0, "phi domain is x >= 0, got {x}");
    -(x / 2.0).tanh().ln()
}

/// The input below which the clamped φ is identically [`LLR_CLAMP`]:
/// `2·atanh(e^-LLR_CLAMP) ≈ 1.87·10⁻¹³`.
fn phi_clamp_knee() -> f64 {
    2.0 * (-LLR_CLAMP).exp().atanh()
}

/// Second derivative `φ''(x) = cosh(x)/sinh²(x)` — positive and strictly
/// decreasing on `(0, ∞)`, which makes the per-interval linear
/// interpolation bound of [`PhiTable::error_bound_at`] rigorous.
fn phi_second_derivative(x: f64) -> f64 {
    let s = x.sinh();
    x.cosh() / (s * s)
}

/// Smallest binary exponent the table resolves: below `2^EXP_MIN`
/// (≈ 1.1·10⁻¹³) the clamped φ is identically [`LLR_CLAMP`], so nothing
/// is lost by returning the clamp directly.
const EXP_MIN: i32 = -43;

/// One-past-largest binary exponent: `PHI_X_MAX = 30 < 2^5`, so octaves
/// `2^-43 … 2^4` cover the whole domain.
const EXP_END: i32 = 5;

/// Number of octaves the table spans.
const N_OCTAVES: usize = (EXP_END - EXP_MIN) as usize;

/// Octaves of index space the table is padded to: a power of two, so
/// that an index mask keeps every lookup in bounds without a branch.
const PADDED_OCTAVES: usize = N_OCTAVES.next_power_of_two();

/// Precomputed lookup table for φ with linear interpolation and a
/// saturation tail.
///
/// Because φ has a logarithmic singularity at 0 — and extrinsic φ-sums
/// of saturated messages are as small as `10⁻¹²` — the breakpoints are
/// spaced **geometrically**, not uniformly: each binary octave
/// `[2^e, 2^(e+1))` of the input gets `2^bits` equal-width cells, indexed
/// straight from the f64 exponent and top mantissa bits (within a cell
/// the input is linear in its mantissa, so cell-local interpolation is
/// ordinary linear interpolation). This keeps the *relative* node
/// spacing constant, which bounds the interpolation error uniformly over
/// nine decades: `x²·φ''(x) ≤ 1.15`, so every cell's error is at most
/// `≈ 1.15 / (8·4^bits)` (about `1.1·10⁻⁵` at the default `bits = 7`).
///
/// Inputs below `2^-43` return [`LLR_CLAMP`] (the clamped φ is exactly
/// that there) and inputs at or beyond [`PHI_X_MAX`] saturate to the
/// tail value `φ(PHI_X_MAX) ≈ 1.9·10⁻¹³`.
///
/// # Accuracy contract
///
/// Unlike the CSR engines, which are pinned bit-for-bit to their naive
/// oracles, this table is **accuracy-tested**: for any input `x` the
/// evaluation error versus [`phi_exact`] is bounded by
/// [`error_bound_at(x)`](PhiTable::error_bound_at), a per-cell bound
/// derived from φ's convexity that shrinks as `4^-bits`.
/// `tests/phi_table.rs` property-tests the bound, the kernel's sign
/// symmetry and the monotonicity across `bits` settings, and pins the
/// end-to-end required Eb/N0 of the table rule to exact sum-product
/// within 0.05 dB on the paper's codes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhiTable {
    bits: u32,
    /// `2^(52 - bits)` mantissa remainder → fraction-in-cell scale.
    frac_scale: f64,
    /// Inputs below this return [`LLR_CLAMP`] exactly (the clamp knee
    /// `2·atanh(e^-LLR_CLAMP)`; above it the unclamped φ is ≤ the clamp,
    /// so clamping never enters the interpolation error analysis).
    x_min: f64,
    /// Worst per-cell interpolation bound over the table (computed at
    /// build time).
    max_bound: f64,
    /// Saturation-tail value `φ(PHI_X_MAX)`, returned for inputs at or
    /// beyond [`PHI_X_MAX`].
    tail: f64,
    /// `values[(e - EXP_MIN)·2^bits + c] = φ(2^e·(1 + c/2^bits))`
    /// (unclamped) for the `N_OCTAVES·2^bits + 1` nodes, then zeros up
    /// to the power-of-two length `PADDED_OCTAVES·2^bits`, which no
    /// lookup reads.
    values: Vec<f64>,
}

impl PhiTable {
    /// Builds the table with `2^bits` geometric cells per input octave
    /// (`N_OCTAVES · 2^bits + 1` nodes overall).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 12` (below 2 the worst-cell bound is
    /// coarser than a tenth of an LLR; above 12 the table outgrows any
    /// cache for no accuracy the f64 messages can use).
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=12).contains(&bits),
            "phi table bits {bits} must be in 2..=12"
        );
        let m = 1usize << bits;
        let n = N_OCTAVES * m;
        let node = |k: usize| {
            let exp = EXP_MIN + (k / m) as i32;
            let cell = (k % m) as f64;
            (exp as f64).exp2() * (1.0 + cell / m as f64)
        };
        let mut values: Vec<f64> = (0..=n).map(|k| phi_raw(node(k))).collect();
        values.resize(PADDED_OCTAVES * m, 0.0);
        let max_bound = (0..n)
            .map(|k| {
                let h = node(k + 1) - node(k);
                phi_second_derivative(node(k)) * h * h / 8.0
            })
            .fold(0.0f64, f64::max);
        PhiTable {
            bits,
            frac_scale: (-((52 - bits) as f64)).exp2(),
            x_min: phi_clamp_knee(),
            max_bound,
            tail: phi_raw(PHI_X_MAX),
            values,
        }
    }

    /// The `bits` parameter the table was built with (log₂ of the cells
    /// per input octave).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether the table has been built (a `Default` table is empty and
    /// must not be evaluated).
    pub fn is_built(&self) -> bool {
        !self.values.is_empty()
    }

    /// Rebuilds the table only when `bits` differs from the current
    /// build (or the table is still the empty `Default`). Workspaces
    /// call this once per decode, so switching rules is cheap and
    /// steady-state decoding never reallocates.
    pub fn ensure(&mut self, bits: u32) {
        if !self.is_built() || self.bits != bits {
            *self = PhiTable::new(bits);
        }
    }

    /// Evaluates φ at `x ≥ 0` by cell-local linear interpolation,
    /// returning [`LLR_CLAMP`] below the clamp knee `2·atanh(e^-30)`
    /// (where the clamped φ is exactly that) and saturating to
    /// `φ(PHI_X_MAX)` at or beyond [`PHI_X_MAX`] (the tail) — no
    /// transcendentals, no division.
    ///
    /// Branch-free, so a lane loop over it vectorizes and its two table
    /// reads become hardware gathers: an input outside the table's range
    /// is interpolated at the knee instead and the tail or the clamp is
    /// selected at the end, and the reads go through an index mask over
    /// the power-of-two padded table, which needs no bounds check. In
    /// range, it performs the same IEEE operations as a lookup that
    /// branched on the tails.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the table [`is_built`](PhiTable::is_built) and
    /// `x` is non-negative.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        debug_assert!(self.is_built(), "evaluating an unbuilt phi table");
        debug_assert!(x >= 0.0, "phi table domain is x >= 0, got {x}");
        // Outside [x_min, PHI_X_MAX) the knee stands in for x, so the
        // lookup below always reads a positive normal ≥ 2^EXP_MIN: its
        // biased exponent and top mantissa bits, read as one integer,
        // index the geometric grid.
        let inside = x >= self.x_min && x < PHI_X_MAX;
        let b = if inside { x } else { self.x_min }.to_bits();
        let k = (b >> (52 - self.bits)) as usize - (((1023 + EXP_MIN) as usize) << self.bits);
        let frac = (b & ((1u64 << (52 - self.bits)) - 1)) as f64 * self.frac_scale;
        let mask = (PADDED_OCTAVES << self.bits) - 1;
        let values = &self.values[..=mask];
        let lo = values[k & mask];
        // The cell straddling the clamp knee interpolates from an
        // unclamped left node > LLR_CLAMP; cap the chord so the ceiling
        // and monotonicity contracts hold right at the knee (the cap is
        // 1-Lipschitz, so the documented error bound is unaffected).
        let y = (lo + frac * (values[(k + 1) & mask] - lo)).min(LLR_CLAMP);
        if x >= PHI_X_MAX {
            self.tail
        } else if x < self.x_min {
            LLR_CLAMP
        } else {
            y
        }
    }

    /// Documented bound on `|eval(x) − phi_exact(x)|`.
    ///
    /// * `x` below the clamp knee `2·atanh(e^-30)`: zero — the clamped φ
    ///   and the table are both exactly [`LLR_CLAMP`] there.
    /// * knee `≤ x < PHI_X_MAX`: the linear-interpolation bound
    ///   `φ''(x_k) · h² / 8` on `x`'s cell (`x_k` the cell's left node,
    ///   `h = 2^e / 2^bits` its width), rigorous because φ is convex
    ///   with decreasing `φ''` (above the knee the unclamped φ is below
    ///   the clamp, so clamping never enters).
    /// * `x ≥ PHI_X_MAX` (saturation tail): `φ(PHI_X_MAX)` — the table
    ///   returns that value while the true φ lies in `(0, φ(PHI_X_MAX)]`.
    ///
    /// Since the geometric grid keeps `h/x_k ≤ 2^-bits` and
    /// `x²·φ''(x) ≤ 1.15` on `(0, ∞)`, the bound is uniformly
    /// `≤ ≈ 1.15 / (8·4^bits)` over the whole table
    /// ([`max_error_bound`](Self::max_error_bound)).
    pub fn error_bound_at(&self, x: f64) -> f64 {
        assert!(self.is_built(), "unbuilt phi table has no error bound");
        if x >= PHI_X_MAX {
            return self.tail;
        }
        if x < self.x_min {
            return 0.0;
        }
        let b = x.to_bits();
        let exp = ((b >> 52) as i32) - 1023;
        let m = 1u64 << self.bits;
        let cell = ((b & ((1u64 << 52) - 1)) >> (52 - self.bits)) as f64;
        let octave = (exp as f64).exp2();
        let node = octave * (1.0 + cell / m as f64);
        let h = octave / m as f64;
        phi_second_derivative(node) * h * h / 8.0
    }

    /// The worst documented error over the whole table — the maximum of
    /// the per-cell bounds behind
    /// [`error_bound_at`](Self::error_bound_at), computed at build time;
    /// `≈ 1.15/(8·4^bits)` (the `x ≈ 2` cells, where `x²·φ''(x)` peaks).
    /// Quoted per `bits` in `docs/REPRODUCING.md`.
    pub fn max_error_bound(&self) -> f64 {
        assert!(self.is_built(), "unbuilt phi table has no error bound");
        self.max_bound
    }
}

/// Gather-side floor on φ values, `−ln(TANH_CLAMP) ≈ 10⁻¹²`: the exact
/// kernel clamps every `tanh` factor to `±TANH_CLAMP`, which in the
/// φ-domain is exactly this floor on each summand. Applying it keeps the
/// table kernel's *saturation* behaviour aligned with the exact kernel
/// (a fully saturated degree-8 check emits ≈ 26.4 under both, instead of
/// the φ-clamp 30), which matters in the window decoder, where pinned
/// blocks make saturated checks ubiquitous.
pub fn phi_gather_floor() -> f64 {
    -TANH_CLAMP.ln()
}

/// Tanh clamp keeping `atanh` finite in the exact sum-product update.
pub const TANH_CLAMP: f64 = 0.999_999_999_999;

/// Message magnitude beyond which `tanh(m/2)` is guaranteed to exceed
/// [`TANH_CLAMP`], so the clamped result is exactly `±TANH_CLAMP` and the
/// `tanh` evaluation can be skipped: `tanh(14.25) = 1 − 2e⁻²⁸·⁵ ≈ 1 −
/// 8.4e−13 > 1 − 1e−12`, with ~1.6e−13 of margin over any rounding of
/// `tanh`. Saturated beliefs sit at exactly `±LLR_CLAMP = ±30` (and the
/// window decoder's pinned decisions always do), so
/// [`sum_product_exact_batch`] leaves such inputs out of its `tanh` list
/// often in late iterations while staying bit-identical to the naive
/// reference, which evaluates every `tanh`.
pub const TANH_SAT: f64 = 28.5;

/// Applies the `#[inline(always)]` element function `$f` to every
/// element of the slice `$v`, eight at a time: full chunks in place and
/// the remainder through a zero-padded chunk, so every element runs the
/// same straight-line body, which LLVM packs into vector instructions.
/// A macro rather than a generic function, because the `Fn` shim a
/// generic call goes through is not inlined once `$f` is large.
macro_rules! map_by_eight {
    ($v:expr, $f:ident) => {{
        let (chunks, rest) = $v.as_chunks_mut::<8>();
        for chunk in chunks {
            for x in chunk.iter_mut() {
                *x = $f(*x);
            }
        }
        if !rest.is_empty() {
            let mut pad = [0.0f64; 8];
            pad[..rest.len()].copy_from_slice(rest);
            for x in pad.iter_mut() {
                *x = $f(*x);
            }
            rest.copy_from_slice(&pad[..rest.len()]);
        }
    }};
}

/// The exact rule's gather value of a v2c message: `clamp(tanh(m/2))`.
#[inline(always)]
fn tanh_factor(m: f64) -> f64 {
    fdlibm::tanh(m / 2.0).clamp(-TANH_CLAMP, TANH_CLAMP)
}

/// The exact rule's extrinsic message of a product: `clamp(2·atanh(p))`.
#[inline(always)]
fn extrinsic(p: f64) -> f64 {
    (2.0 * fdlibm::atanh(p)).clamp(-LLR_CLAMP, LLR_CLAMP)
}

/// [`tanh_factor`] of every element, in place.
///
/// `#[inline(never)]` is load-bearing for the same reason as
/// [`min_sum_check_lanes`]: the thin-LTO post-link vectorizer packs the
/// lane loop only when it compiles as a small standalone function. The
/// element functions are `#[inline(always)]` down to the ports, since a
/// call left in the loop body would keep it scalar.
#[inline(never)]
fn tanh_factors(v: &mut [f64]) {
    map_by_eight!(v, tanh_factor);
}

/// [`extrinsic`] of every element, in place; `#[inline(never)]` as for
/// [`tanh_factors`].
#[inline(never)]
fn extrinsics(v: &mut [f64]) {
    map_by_eight!(v, extrinsic);
}

// ---------------------------------------------------------------------
// Lane-array check kernels.
//
// Messages live in structure-of-arrays layout `[edge][lane]` (lane =
// frame), and every lane executes exactly the operation sequence of
// `decoder::reference::check_update`, so each lane's output is
// bit-identical to the naive oracle's. The inner `for lane in 0..L` loops are written
// branch-free (conditional *selects*, never arithmetic blends — a blend
// like `m·new + (1−m)·old` would turn `-0.0` into `+0.0` and break
// bit-identity) so stable-rust LLVM auto-vectorizes them over `[f64; L]`.
//
// The three check kernels take per-check lane masks, `masks[c]` bit `l`
// set when lane `l` of check `c` must be recomputed. A check's c2v is a
// pure function of its v2c inputs, so a caller that knows a lane's
// inputs are unchanged since its c2v was computed may leave it out and
// keep the same bits.

/// A lane bitmask as per-lane flags.
#[inline]
fn lane_flags<const L: usize>(mask: u8) -> [bool; L] {
    core::array::from_fn(|lane| (mask >> lane) & 1 == 1)
}

/// Lane-array normalized min-sum over checks `check_lo..check_hi`, with
/// `v2c`/`c2v` in `[edge][lane]` structure-of-arrays layout. Degree-8
/// checks take a fixed-trip-count fast path; every lane is bit-identical
/// to [`check_update`](crate::decoder::reference::check_update) on that
/// lane's messages.
///
/// Checks whose `masks[c]` is empty are skipped and keep their c2v. A
/// check with any lane set is recomputed on every lane: the kernel is
/// vectorized across lanes, and an unmasked lane with unchanged inputs
/// recomputes the value it already holds.
pub fn min_sum_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    masks: &[u8],
    alpha: f64,
    v2c: &[[f64; L]],
    c2v: &mut [[f64; L]],
) {
    for c in check_lo..check_hi {
        if masks[c] == 0 {
            continue;
        }
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        if hi - lo == 8 {
            let m: &[[f64; L]; 8] = v2c[lo..hi].try_into().expect("degree-8 check");
            let out: &mut [[f64; L]; 8] = (&mut c2v[lo..hi]).try_into().expect("degree-8 check");
            min_sum_check_lanes(alpha, m, out);
        } else {
            min_sum_check_lanes(alpha, &v2c[lo..hi], &mut c2v[lo..hi]);
        }
    }
}

/// One lane-array min-sum check: a branch-free two-min tracker per lane.
/// `min1_at` is carried as an exact small-integer f64 so the scatter
/// pass's "am I the minimum position" test is a lane-wise compare; the
/// select-based updates reproduce the reference tracker's
/// first-strict-improvement tie semantics exactly.
///
/// `#[inline(never)]` is load-bearing: under the workspace's thin-LTO
/// release profile the pre-link pipeline skips loop/SLP vectorization,
/// and the post-link vectorizer only recovers these lane loops when the
/// kernel is a small standalone function — inlined into the decode loop
/// it compiles to scalar `minsd` chains (measured: the outlined form is
/// packed `minpd`/`cmpltpd` end to end).
#[inline(never)]
fn min_sum_check_lanes<const L: usize>(alpha: f64, m: &[[f64; L]], out: &mut [[f64; L]]) {
    let mut min1 = [f64::INFINITY; L];
    let mut min2 = [f64::INFINITY; L];
    let mut min1_at = [0.0f64; L];
    let mut sign_prod = [1.0f64; L];
    for (j, mj) in m.iter().enumerate() {
        let jf = j as f64;
        for lane in 0..L {
            let v = mj[lane];
            let mag = v.abs();
            let lt = mag < min1[lane];
            min2[lane] = if lt { min1[lane] } else { min2[lane].min(mag) };
            min1[lane] = if lt { mag } else { min1[lane] };
            min1_at[lane] = if lt { jf } else { min1_at[lane] };
            sign_prod[lane] = if v < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
        }
    }
    for (j, (mj, oj)) in m.iter().zip(out.iter_mut()).enumerate() {
        let jf = j as f64;
        for lane in 0..L {
            let mag = if min1_at[lane] == jf {
                min2[lane]
            } else {
                min1[lane]
            };
            let sign = if mj[lane] < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
            oj[lane] = (alpha * sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Scratch of [`sum_product_exact_batch`] for one code and lane count:
/// the clamped `tanh` factor of every edge and lane, one check's forward
/// products, and the dense list of `(edge, lane)` slots that each of the
/// kernel's two passes gathers. Sized by [`ensure`](Self::ensure); the
/// kernel then allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ExactBatchScratch {
    /// Clamped `tanh(v2c/2)`, `[edge][lane]`.
    tanhs: Vec<f64>,
    /// Forward partial products of one check, `[degree + 1][lane]`.
    fwd: Vec<f64>,
    /// Flat `edge·lanes + lane` slot of each gathered value.
    slots: Vec<u32>,
    /// The gathered values, evaluated in place.
    vals: Vec<f64>,
}

impl ExactBatchScratch {
    /// Allocates scratch for a code with `num_edges` edges and checks of
    /// degree at most `max_check_degree`, at `lanes` lanes.
    pub fn new(num_edges: usize, max_check_degree: usize, lanes: usize) -> Self {
        let mut scratch = ExactBatchScratch::default();
        scratch.ensure(num_edges, max_check_degree, lanes);
        scratch
    }

    /// Resizes the buffers for `num_edges`, `max_check_degree` and
    /// `lanes` (no-op when already sized).
    ///
    /// # Panics
    ///
    /// Panics if `num_edges · lanes` does not fit a `u32` slot.
    pub fn ensure(&mut self, num_edges: usize, max_check_degree: usize, lanes: usize) {
        let slots = num_edges * lanes;
        assert!(
            u32::try_from(slots).is_ok(),
            "{num_edges} edges at {lanes} lanes overflow a u32 slot"
        );
        self.tanhs.resize(slots, 0.0);
        self.fwd.resize((max_check_degree + 1) * lanes, 1.0);
        self.slots.resize(slots, 0);
        self.vals.resize(slots, 0.0);
    }
}

/// Lane-array exact sum-product over checks `check_lo..check_hi`, with
/// forward/backward `tanh` partial products per lane. Only the lanes set
/// in `masks[c]` are written; the other lanes keep their c2v. Every
/// written lane is bit-identical to
/// [`check_update`](crate::decoder::reference::check_update) — the
/// engine's contract under `CheckRule::SumProduct`.
///
/// The transcendentals run over dense lists rather than per check, so
/// every evaluation is one that a written lane needs, and the lists run
/// eight at a time through the vectorized [`wi_num::fdlibm`] ports:
///
/// 1. Every masked-in input with `|m| < TANH_SAT` is gathered and
///    evaluated as `clamp(tanh(m/2))`; saturated inputs take
///    `±TANH_CLAMP` directly. The factors land per edge and lane.
/// 2. The forward/backward products run over all lanes of each masked
///    check. Every masked-in extrinsic product is gathered, evaluated as
///    `clamp(2·atanh(p))` and scattered into `c2v`.
///
/// The lanes outside a check's mask form finite products from stale
/// factors, which are never stored. At one lane the lists gather a
/// check range's edges instead, so the ports run eight wide across
/// edges.
///
/// # Panics
///
/// Panics if `scratch` is not [sized](ExactBatchScratch::ensure) for the
/// code's edges and maximum check degree at `L` lanes.
pub fn sum_product_exact_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    masks: &[u8],
    v2c: &[[f64; L]],
    c2v: &mut [[f64; L]],
    scratch: &mut ExactBatchScratch,
) {
    let ExactBatchScratch {
        tanhs,
        fwd,
        slots,
        vals,
    } = scratch;
    let edge_slots = offsets[check_hi] as usize * L;
    let tanhs = &mut tanhs[..edge_slots];
    let fwd = fwd.as_chunks_mut::<L>().0;
    let slots = &mut slots[..edge_slots];
    let vals = &mut vals[..edge_slots];

    // Pass 1: the tanh factors. Appends are branch-free: each candidate
    // is written at `n`, and `n` moves past only the gathered ones.
    let mut n = 0;
    for c in check_lo..check_hi {
        let mask = masks[c];
        if mask == 0 {
            continue;
        }
        let (lo, hi) = (offsets[c] as usize, offsets[c + 1] as usize);
        for (e, inputs) in (lo..hi).zip(&v2c[lo..hi]) {
            for (lane, &m) in inputs.iter().enumerate() {
                let slot = e * L + lane;
                tanhs[slot] = if m >= TANH_SAT {
                    TANH_CLAMP
                } else if m <= -TANH_SAT {
                    -TANH_CLAMP
                } else {
                    0.0
                };
                vals[n] = m;
                slots[n] = slot as u32;
                n += usize::from((mask >> lane) & 1 == 1 && m.abs() < TANH_SAT);
            }
        }
    }
    tanh_factors(&mut vals[..n]);
    for (&slot, &t) in slots[..n].iter().zip(&vals[..n]) {
        tanhs[slot as usize] = t;
    }

    // Pass 2: the products, then the extrinsic messages.
    let mut n = 0;
    for c in check_lo..check_hi {
        let mask = masks[c];
        if mask == 0 {
            continue;
        }
        let lo = offsets[c] as usize;
        let deg = offsets[c + 1] as usize - lo;
        fwd[0] = [1.0; L];
        for j in 0..deg {
            let t = &tanhs[(lo + j) * L..][..L];
            for lane in 0..L {
                fwd[j + 1][lane] = fwd[j][lane] * t[lane];
            }
        }
        let mut bwd = [1.0f64; L];
        for j in (0..deg).rev() {
            for lane in 0..L {
                let slot = (lo + j) * L + lane;
                vals[n] = fwd[j][lane] * bwd[lane];
                slots[n] = slot as u32;
                n += usize::from((mask >> lane) & 1);
                bwd[lane] *= tanhs[slot];
            }
        }
    }
    extrinsics(&mut vals[..n]);
    let c2v = c2v.as_flattened_mut();
    for (&slot, &m) in slots[..n].iter().zip(&vals[..n]) {
        c2v[slot as usize] = m;
    }
}

/// Lane-array table-driven sum-product over checks `check_lo..check_hi`:
/// per edge, one φ-table evaluation on the gather pass (`φ(|m|)`,
/// floored at [`phi_gather_floor`] and accumulated into the check total)
/// and one on the scatter pass (`φ(total − φ(|m_j|))`). A check with any
/// lane set in `masks[c]` is computed on every lane, branch-free: with
/// [`PhiTable::eval`] straight-line code, the lane loops vectorize and
/// the table reads become hardware gathers. The store is a select that
/// writes the lanes set in the mask and keeps the old c2v of the others
/// (never an arithmetic blend, which would rewrite `-0.0`). Each lane
/// performs exactly the evaluation order of
/// [`check_update`](crate::decoder::reference::check_update), so written
/// lanes are bit-identical to it. `phis` is scratch of
/// `max_check_degree` lane-array entries.
///
/// The kernel is *accuracy-tested*, not bit-identical, against the exact
/// rule; see the [`PhiTable`] contract.
#[allow(clippy::too_many_arguments)] // flat kernel: every slice is a distinct buffer
pub fn sum_product_table_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    masks: &[u8],
    phi: &PhiTable,
    v2c: &[[f64; L]],
    c2v: &mut [[f64; L]],
    phis: &mut [[f64; L]],
) {
    let floor = phi_gather_floor();
    for c in check_lo..check_hi {
        let mask = masks[c];
        if mask == 0 {
            continue;
        }
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        table_check_lanes(
            phi,
            floor,
            mask,
            &v2c[lo..hi],
            &mut c2v[lo..hi],
            &mut phis[..hi - lo],
        );
    }
}

/// One lane-array φ-table check, every lane computed and the lanes set
/// in `mask` stored. `#[inline(never)]` for the same reason as
/// [`min_sum_check_lanes`]: the thin-LTO post-link vectorizer packs the
/// lane loops only when they compile as a small standalone function.
#[inline(never)]
fn table_check_lanes<const L: usize>(
    phi: &PhiTable,
    floor: f64,
    mask: u8,
    m: &[[f64; L]],
    out: &mut [[f64; L]],
    phis: &mut [[f64; L]],
) {
    let on = lane_flags::<L>(mask);
    let mut total = [0.0f64; L];
    let mut sign_prod = [1.0f64; L];
    for (p, mj) in phis.iter_mut().zip(m) {
        for lane in 0..L {
            let v = mj[lane];
            let a = phi.eval(v.abs()).max(floor);
            p[lane] = a;
            total[lane] += a;
            sign_prod[lane] = if v < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
        }
    }
    for ((p, mj), oj) in phis.iter().zip(m).zip(out.iter_mut()) {
        for lane in 0..L {
            let v = mj[lane];
            // Float cancellation can push the extrinsic φ-sum a hair
            // below zero when one edge dominates; clamp into the domain.
            let mag = phi.eval((total[lane] - p[lane]).max(0.0));
            let sign = if v < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
            let new = (sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
            oj[lane] = if on[lane] { new } else { oj[lane] };
        }
    }
}

// ---------------------------------------------------------------------
// Lane-array edge/variable kernels: the per-iteration decoder loops that
// surround the check update (initialization, posterior accumulation,
// variable-to-check update, hard decisions). Each is `#[inline(never)]`
// for the same reason as `min_sum_check_lanes`: the thin-LTO post-link
// vectorizer packs these lane loops only when they compile as small
// standalone functions — inlined into the decode loop they stay scalar.

/// Batched v2c (re)initialization: `out[e] = clamp(llr[edge_var[e]])`
/// for every edge in `edge_var`, the lane-wise channel clamp of the
/// decoders' message initialization.
#[inline(never)]
pub fn gather_clamp_batch<const L: usize>(
    edge_var: &[u32],
    llr: &[[f64; L]],
    out: &mut [[f64; L]],
) {
    for (m, &v) in out.iter_mut().zip(edge_var) {
        let ch = &llr[v as usize];
        for lane in 0..L {
            m[lane] = ch[lane].clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Elementwise lane clamp: `out[i] = clamp(llr[i])` — the channel term
/// of the posterior accumulation.
#[inline(never)]
pub fn clamp_batch<const L: usize>(llr: &[[f64; L]], out: &mut [[f64; L]]) {
    for (o, ch) in out.iter_mut().zip(llr) {
        for lane in 0..L {
            o[lane] = ch[lane].clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Posterior accumulation over edges: `post[edge_var[e]] += m[e]`.
#[inline(never)]
pub fn scatter_add_batch<const L: usize>(
    edge_var: &[u32],
    messages: &[[f64; L]],
    post: &mut [[f64; L]],
) {
    for (&v, m) in edge_var.iter().zip(messages) {
        let p = &mut post[v as usize];
        for lane in 0..L {
            p[lane] += m[lane];
        }
    }
}

/// Variable-to-check update over edges:
/// `v2c[e] = clamp(posterior[edge_var[e]] - c2v[e])`.
#[inline(never)]
pub fn v2c_update_batch<const L: usize>(
    edge_var: &[u32],
    posterior: &[[f64; L]],
    c2v: &[[f64; L]],
    v2c: &mut [[f64; L]],
) {
    for ((o, me), &v) in v2c.iter_mut().zip(c2v).zip(edge_var) {
        let pv = &posterior[v as usize];
        for lane in 0..L {
            o[lane] = (pv[lane] - me[lane]).clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Change detection ahead of a masked check update: for each check in
/// `check_lo..check_hi`, sets `masks[c]` bit `l` when any of the check's
/// v2c messages on lane `l` differs bit for bit from `seen`, the inputs
/// its current c2v was computed from, then copies `v2c` into `seen` for
/// the coming update. Bits, not values, are compared, so `-0.0` against
/// `+0.0` counts as a change. Returns the union of the masks: zero when
/// no check changed.
#[inline(never)]
pub(crate) fn changed_lanes_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    v2c: &[[f64; L]],
    seen: &mut [[f64; L]],
    masks: &mut [u8],
) -> u8 {
    let mut any = 0u8;
    for c in check_lo..check_hi {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        let mut diff = [0u64; L];
        for (m, s) in v2c[lo..hi].iter().zip(&mut seen[lo..hi]) {
            for lane in 0..L {
                diff[lane] |= m[lane].to_bits() ^ s[lane].to_bits();
            }
            *s = *m;
        }
        let mut mask = 0u8;
        for (lane, d) in diff.iter().enumerate() {
            mask |= u8::from(*d != 0) << lane;
        }
        masks[c] = mask;
        any |= mask;
    }
    any
}

/// Hard decisions from committed posteriors: `hard[i]` bit `l` set when
/// `posterior[i][l] < 0.0`.
#[inline(never)]
pub fn hard_decisions_batch<const L: usize>(posterior: &[[f64; L]], hard: &mut [u8]) {
    for (h, p) in hard.iter_mut().zip(posterior) {
        let mut bits = 0u8;
        for (lane, pv) in p.iter().enumerate() {
            bits |= u8::from(*pv < 0.0) << lane;
        }
        *h = bits;
    }
}

/// Masked posterior/hard commit of the batched BP decoder: on lanes set
/// in `active` the freshly accumulated `post_new` is committed, frozen
/// lanes keep their old `posterior` (a conditional *select* — an
/// arithmetic blend would rewrite `-0.0` to `+0.0` and break
/// bit-identity). Hard decisions recompute from the committed posterior,
/// so frozen lanes reproduce their frozen bits.
#[inline(never)]
pub fn masked_commit_batch<const L: usize>(
    active: u8,
    post_new: &[[f64; L]],
    posterior: &mut [[f64; L]],
    hard: &mut [u8],
) {
    let act = lane_flags::<L>(active);
    for ((p, pn), h) in posterior.iter_mut().zip(post_new).zip(hard.iter_mut()) {
        let mut bits = 0u8;
        for lane in 0..L {
            let val = if act[lane] { pn[lane] } else { p[lane] };
            p[lane] = val;
            bits |= u8::from(val < 0.0) << lane;
        }
        *h = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::reference::check_update;
    use crate::decoder::{update_checks_batch, CheckRule};
    use rand::Rng;
    use wi_num::rng::seeded_rng;

    /// `rule`'s lane-array kernel over every check of `offsets`, with
    /// every lane masked in.
    fn run_rule<const L: usize>(
        rule: CheckRule,
        offsets: &[u32],
        v2c: &[[f64; L]],
    ) -> Vec<[f64; L]> {
        let n_checks = offsets.len() - 1;
        let deg = offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let mut phi = PhiTable::default();
        if let CheckRule::SumProductTable { bits } = rule {
            phi.ensure(bits);
        }
        let mut c2v = vec![[0.0; L]; v2c.len()];
        update_checks_batch(
            offsets,
            0,
            n_checks,
            &vec![u8::MAX; n_checks],
            rule,
            &phi,
            v2c,
            &mut c2v,
            &mut vec![[0.0; L]; deg],
            &mut ExactBatchScratch::new(v2c.len(), deg, L),
        );
        c2v
    }

    /// [`check_update`] on `lane` of every check of `offsets`: what each
    /// lane of the kernels must equal bit for bit.
    fn reference_lane<const L: usize>(
        rule: CheckRule,
        phi: Option<&PhiTable>,
        offsets: &[u32],
        v2c: &[[f64; L]],
        lane: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; v2c.len()];
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let m: Vec<f64> = v2c[lo..hi].iter().map(|e| e[lane]).collect();
            check_update(rule, phi, &m, &mut out[lo..hi]);
        }
        out
    }

    #[test]
    fn phi_is_its_own_inverse_midrange() {
        for &x in &[0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let y = phi_exact(phi_exact(x));
            assert!((y - x).abs() < 1e-9, "phi(phi({x})) = {y}");
        }
    }

    #[test]
    fn table_edges_and_monotonicity() {
        let t = PhiTable::new(7);
        assert_eq!(t.eval(0.0), LLR_CLAMP);
        assert_eq!(t.eval(1e-300), LLR_CLAMP, "below the clamp knee");
        assert_eq!(t.eval(PHI_X_MAX), phi_exact(PHI_X_MAX));
        assert_eq!(t.eval(1000.0), phi_exact(PHI_X_MAX), "saturation tail");
        // Geometric sweep across every octave: monotone non-increasing.
        let mut prev = f64::INFINITY;
        let mut x = 5e-14;
        while x < 40.0 {
            let v = t.eval(x);
            assert!(v <= prev, "eval({x}) = {v} rose above {prev}");
            prev = v;
            x *= 1.07;
        }
    }

    #[test]
    fn table_error_within_documented_bound() {
        for bits in [3u32, 7, 11] {
            let t = PhiTable::new(bits);
            let mut rng = seeded_rng(42 + bits as u64);
            for _ in 0..2_000 {
                // Log-uniform over the full resolved range.
                let x = 10f64.powf(rng.gen::<f64>() * 15.0 - 13.5);
                let err = (t.eval(x) - phi_exact(x)).abs();
                let bound = t.error_bound_at(x) + 1e-9;
                assert!(err <= bound, "bits {bits}, x {x}: err {err} > {bound}");
                assert!(bound <= t.max_error_bound() + 1e-9 || x >= PHI_X_MAX);
            }
        }
    }

    #[test]
    fn more_bits_means_tighter_bound() {
        let coarse = PhiTable::new(3).max_error_bound();
        let fine = PhiTable::new(9).max_error_bound();
        assert!(
            fine < coarse / 1000.0,
            "quadratic shrink: {fine} vs {coarse}"
        );
    }

    #[test]
    fn gather_floor_matches_tanh_clamp() {
        // −ln(TANH_CLAMP) in the φ domain is exactly the tanh clamp of
        // the exact kernel; a fully saturated degree-8 check must emit
        // the same ≈ 26.4 under both kernels.
        let floor = phi_gather_floor();
        assert!((floor - 1e-12).abs() < 1e-14, "{floor}");
        let offsets = [0u32, 8];
        let v2c = [[LLR_CLAMP]; 8];
        let exact = run_rule(CheckRule::SumProduct, &offsets, &v2c);
        let table = run_rule(CheckRule::sum_product_table(), &offsets, &v2c);
        for ([e], [t]) in exact.iter().zip(&table) {
            assert!((e - t).abs() < 0.05, "saturated: exact {e} vs table {t}");
        }
    }

    #[test]
    fn ensure_rebuilds_only_on_bits_change() {
        let mut t = PhiTable::default();
        assert!(!t.is_built());
        t.ensure(7);
        assert!(t.is_built());
        let before = t.clone();
        t.ensure(7);
        assert_eq!(t, before, "same bits must not rebuild");
        t.ensure(9);
        assert_eq!(t.bits(), 9);
    }

    #[test]
    #[should_panic(expected = "must be in 2..=12")]
    fn absurd_bits_panics() {
        PhiTable::new(32);
    }

    /// Min-sum lanes against [`check_update`] on the degree-8 plus
    /// degree-5 check pair, bit for bit: a magnitude tied with the
    /// minimum is also the second minimum, and `±0.0` inputs flip no
    /// sign.
    fn assert_min_sum_lanes<const L: usize>(alpha: f64, v2c: &[[f64; L]]) {
        let rule = CheckRule::MinSum { alpha };
        let got = run_rule(rule, &MASK_OFFSETS, v2c);
        for lane in 0..L {
            let want = reference_lane(rule, None, &MASK_OFFSETS, v2c, lane);
            for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g[lane].to_bits(),
                    w.to_bits(),
                    "α {alpha} e{e} lane {lane}: {v2c:?}"
                );
            }
        }
    }

    #[test]
    fn min_sum_batch_matches_check_update_on_ties_and_signed_zeros() {
        let ties = [
            [
                1.0, -1.0, 1.0, 2.0, -2.0, 3.0, 1.0, 4.0, 1.0, -1.0, 2.0, 1.0, 5.0,
            ],
            [
                0.0, 0.0, 5.0, 5.0, -0.0, 2.0, 2.0, 2.0, -0.0, 0.0, 3.0, -3.0, 0.0,
            ],
            [3.0; 13],
        ];
        for alpha in [0.7, 0.75, 0.8, 1.0] {
            for m in ties {
                let v2c: Vec<[f64; 1]> = m.iter().map(|&x| [x]).collect();
                assert_min_sum_lanes(alpha, &v2c);
            }
        }
        // Random messages: three in ten rounded to an integer in −4..=4,
        // so ties are common, and one in ten a signed zero.
        let mut rng = seeded_rng(7);
        let mut draw = || {
            let m = (rng.gen::<f64>() - 0.5) * 2.0 * LLR_CLAMP;
            match rng.gen::<f64>() {
                u if u < 0.1 => 0.0f64.copysign(m),
                u if u < 0.4 => (m / 8.0).round(),
                _ => m,
            }
        };
        for case in 0..500 {
            let alpha = [0.7, 0.8, 1.0][case % 3];
            let one: Vec<[f64; 1]> = (0..13).map(|_| [draw()]).collect();
            assert_min_sum_lanes(alpha, &one);
            let eight: Vec<[f64; 8]> = (0..13).map(|_| core::array::from_fn(|_| draw())).collect();
            assert_min_sum_lanes(alpha, &eight);
        }
    }

    type BatchedKernel = fn(&[u32], &[u8], &[[f64; 4]], &mut [[f64; 4]]);

    /// The three batched check kernels behind one signature, over two
    /// checks (degree 8, then degree 5) of 4 lanes.
    fn batched_kernels() -> [(&'static str, BatchedKernel); 3] {
        [
            ("exact", |offsets, masks, v2c, c2v| {
                let mut scratch = ExactBatchScratch::new(13, 8, 4);
                sum_product_exact_batch(offsets, 0, 2, masks, v2c, c2v, &mut scratch);
            }),
            ("table", |offsets, masks, v2c, c2v| {
                let mut phis = [[0.0; 4]; 8];
                let phi = PhiTable::new(7);
                sum_product_table_batch(offsets, 0, 2, masks, &phi, v2c, c2v, &mut phis);
            }),
            ("minsum", |offsets, masks, v2c, c2v| {
                min_sum_batch(offsets, 0, 2, masks, 0.8, v2c, c2v);
            }),
        ]
    }

    const MASK_OFFSETS: [u32; 3] = [0, 8, 13];
    const SENTINEL: f64 = 1234.5;

    fn random_lane_messages(seed: u64) -> Vec<[f64; 4]> {
        let mut rng = seeded_rng(seed);
        (0..13)
            .map(|_| core::array::from_fn(|_| (rng.gen::<f64>() - 0.5) * 12.0))
            .collect()
    }

    #[test]
    fn batched_kernels_with_an_empty_mask_leave_c2v_untouched() {
        let v2c = random_lane_messages(11);
        for (name, kernel) in batched_kernels() {
            let mut c2v = vec![[SENTINEL; 4]; 13];
            kernel(&MASK_OFFSETS, &[0, 0], &v2c, &mut c2v);
            assert!(
                c2v.iter().flatten().all(|&m| m == SENTINEL),
                "{name}: an empty mask wrote c2v"
            );
        }
    }

    #[test]
    fn batched_kernels_with_a_one_lane_mask_write_that_lane_exactly() {
        let v2c = random_lane_messages(12);
        for (name, kernel) in batched_kernels() {
            let mut full = vec![[SENTINEL; 4]; 13];
            kernel(&MASK_OFFSETS, &[0b1111, 0b1111], &v2c, &mut full);
            for lane in 0..4 {
                let mut c2v = vec![[SENTINEL; 4]; 13];
                // Lane `lane` of the degree-8 check only.
                kernel(&MASK_OFFSETS, &[1 << lane, 0], &v2c, &mut c2v);
                for (e, (got, want)) in c2v.iter().zip(&full).enumerate() {
                    for l in 0..4 {
                        if e < 8 && l == lane {
                            assert_eq!(got[l].to_bits(), want[l].to_bits(), "{name} e{e} l{l}");
                        } else if e < 8 && name == "minsum" {
                            // Min-sum recomputes every lane of a check
                            // with any lane set: the same values.
                            assert_eq!(got[l].to_bits(), want[l].to_bits(), "{name} e{e} l{l}");
                        } else {
                            assert_eq!(got[l], SENTINEL, "{name} wrote e{e} l{l}");
                        }
                    }
                }
            }
        }
    }

    /// Eight lanes of messages on the degree-8 plus degree-5 check pair,
    /// built around the exact kernel's edges: ±0.0, `±TANH_SAT` and one
    /// ulp either side, `±LLR_CLAMP`, and fully saturated checks (lane 0
    /// on both checks, lane 1 on the degree-8 one).
    fn exact_edge_messages(seed: u64) -> Vec<[f64; 8]> {
        let below = f64::from_bits(TANH_SAT.to_bits() - 1);
        let above = f64::from_bits(TANH_SAT.to_bits() + 1);
        let edges = [
            0.0, -0.0, TANH_SAT, -TANH_SAT, below, -below, above, -above, LLR_CLAMP, -LLR_CLAMP,
        ];
        let mut rng = seeded_rng(seed);
        let mut v2c = vec![[0.0f64; 8]; 13];
        for (e, m) in v2c.iter_mut().enumerate() {
            for (lane, x) in m.iter_mut().enumerate() {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                *x = match lane {
                    0 => sign * LLR_CLAMP,
                    1 if e < 8 => sign * [LLR_CLAMP, TANH_SAT, above][e % 3],
                    _ if rng.gen::<f64>() < 0.5 => edges[rng.gen_range(0..edges.len())],
                    _ => (rng.gen::<f64>() - 0.5) * 2.0 * LLR_CLAMP,
                };
            }
        }
        v2c
    }

    #[test]
    fn exact_and_table_batches_write_each_masked_lane_as_check_update_would() {
        let phi = PhiTable::new(7);
        for rule in [CheckRule::SumProduct, CheckRule::sum_product_table()] {
            for seed in [21, 22, 23] {
                let v2c = exact_edge_messages(seed);
                let want: Vec<Vec<f64>> = (0..8)
                    .map(|lane| reference_lane(rule, Some(&phi), &MASK_OFFSETS, &v2c, lane))
                    .collect();
                let mut phis = [[0.0; 8]; 8];
                let mut scratch = ExactBatchScratch::new(13, 8, 8);
                for mask in 0..=255u8 {
                    // The degree-5 check takes a different mask, so a call
                    // can gather from one check and not the other.
                    let masks = [mask, mask.rotate_left(3) ^ 0x5a];
                    let mut c2v = vec![[SENTINEL; 8]; 13];
                    update_checks_batch(
                        &MASK_OFFSETS,
                        0,
                        2,
                        &masks,
                        rule,
                        &phi,
                        &v2c,
                        &mut c2v,
                        &mut phis,
                        &mut scratch,
                    );
                    for (e, got) in c2v.iter().enumerate() {
                        let check_mask = masks[usize::from(e >= 8)];
                        for (lane, &g) in got.iter().enumerate() {
                            let at =
                                format!("{rule:?} seed {seed} mask {mask:#04x} e{e} lane {lane}");
                            if (check_mask >> lane) & 1 == 1 {
                                assert_eq!(g.to_bits(), want[lane][e].to_bits(), "{at}");
                            } else {
                                assert_eq!(g, SENTINEL, "{at} written");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn changed_lanes_flags_bit_differences_and_catches_up() {
        let offsets = [0u32, 2, 4];
        let v2c = [[1.0, -0.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]];
        let mut seen = v2c;
        seen[0][1] = 0.0; // +0.0 against -0.0 is a change
        seen[3][0] = f64::INFINITY;
        let mut masks = [0xAAu8; 2];
        assert_eq!(
            changed_lanes_batch(&offsets, 0, 2, &v2c, &mut seen, &mut masks),
            0b11
        );
        assert_eq!(masks, [0b10, 0b01]);
        assert_eq!(seen, v2c, "seen catches up with v2c");
        assert_eq!(
            changed_lanes_batch(&offsets, 0, 2, &v2c, &mut seen, &mut masks),
            0
        );
        assert_eq!(masks, [0, 0]);
    }

    #[test]
    fn table_kernel_tracks_exact_kernel_on_a_check() {
        // One degree-5 check, moderate messages: the table kernel's c2v
        // must stay within a few table error bounds of the exact kernel.
        let offsets = [0u32, 5];
        let v2c = [[1.3], [-0.7], [2.4], [-5.0], [0.9]];
        let exact = run_rule(CheckRule::SumProduct, &offsets, &v2c);
        let table = run_rule(CheckRule::SumProductTable { bits: 12 }, &offsets, &v2c);
        for ([e], [t]) in exact.iter().zip(&table) {
            assert!((e - t).abs() < 5e-3, "exact {exact:?} vs table {table:?}");
            assert_eq!(e.signum(), t.signum(), "sign flip");
        }
    }
}
