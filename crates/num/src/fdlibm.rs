//! Bit-exact ports of the libm routines behind the exact sum-product
//! check rule: `tanh`, and `atanh` through `log1p`.
//!
//! The exact rule of `wi_ldpc` evaluates `tanh(m/2)` per edge and
//! `2·atanh(p)` per extrinsic product. Through `f64::tanh` and
//! `f64::atanh` each is an opaque libm call (17–21 ns and 11–12 ns on
//! the 2-vCPU Xeon host), so a lane-batched kernel cannot vectorize them
//! and a result depends on whichever libm the binary links. The
//! functions here repeat the IEEE operation sequence of glibc 2.36's
//! x86-64 builds instead:
//!
//! * [`tanh`] — `sysdeps/ieee754/dbl-64/s_tanh.c` (compiled without
//!   FMA) with the FMA build of `__expm1` it calls (the `s_expm1-fma`
//!   IFUNC variant libm selects on an FMA-capable CPU), ported as
//!   [`expm1`];
//! * [`log1p`] — the FMA build of `s_log1p.c` (`s_log1p-fma`);
//! * [`atanh`] — `0.5·log1p(2x/(1−x))`, the formula Rust's std
//!   evaluates `f64::atanh` with, over the ported `log1p`.
//!
//! Every multiply-add that the FMA build contracts is a
//! [`f64::mul_add`] here, and every one it leaves as a separate multiply
//! and add stays separate; the contraction sites were read off the
//! disassembly of `libm-2.36.a`. `mul_add` is a single correctly rounded
//! operation on every target (a `vfmadd` instruction with the FMA
//! feature, libm's `fma` without it), so the results do not depend on
//! `target-cpu`. On a host whose libm is glibc 2.36's FMA build they
//! equal `f64::tanh`, `f64::ln_1p` and `f64::atanh` bit for bit; the
//! workspace's tier-1 suite (`tests/libm_port.rs`) checks that at every
//! branch threshold of the three routines and at 10⁶ log-uniform points,
//! and `cargo test --release -p wi-num -- --ignored` sweeps 10⁸ points
//! per function.
//!
//! # Branch-free
//!
//! Each routine computes every branch of its C source and selects the
//! result, so the body is straight-line code: a loop that applies it to
//! an array compiles to packed vector instructions (`wi_ldpc` evaluates
//! its gather lists eight at a time). The routines are
//! `#[inline(always)]` because a call left in such a loop keeps it
//! scalar. Only the special inputs the kernel never produces (NaN, ±∞,
//! overflow, `log1p(x ≤ −1)`) cost a select each. Error flags and
//! `errno` are not reproduced.

/// High 32 bits of `x` (glibc's `GET_HIGH_WORD`).
#[inline(always)]
fn high_word(x: f64) -> u32 {
    (x.to_bits() >> 32) as u32
}

/// `x` with its high 32 bits replaced by `hi` (glibc's `SET_HIGH_WORD`).
#[inline(always)]
fn with_high_word(x: f64, hi: u32) -> f64 {
    f64::from_bits((x.to_bits() & 0xffff_ffff) | (u64::from(hi) << 32))
}

/// `k << 52` (mod 2⁶⁴) for an integral `|k| < 2⁵¹`, without a
/// float-to-int conversion (which does not vectorize): adding `1.5·2⁵²`
/// puts `k` in the low mantissa bits in two's complement.
#[inline(always)]
fn exponent_field(k: f64) -> u64 {
    (k + f64::from_bits(0x4338_0000_0000_0000)).to_bits() << 52
}

/// `y · 2^k` from `k`'s [`exponent_field`], by adding it to `y`'s
/// exponent (glibc's `SET_HIGH_WORD (y, high + (k << 20))`, wrapping
/// like that 32-bit add).
#[inline(always)]
fn add_to_exponent(y: f64, k_field: u64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add(k_field))
}

const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `e^x − 1`: glibc 2.36's `__expm1_fma`.
///
/// Reduces `x = k·ln2 + r` with `|r| ≤ ½·ln2` (`k = ±1` below
/// `1.5·ln2`, `k = 0` below `½·ln2`), carries the reduction's rounding
/// error in `c`, evaluates a degree-5 rational approximation of `r` by
/// Estrin's scheme, and scales by `2^k` through the exponent field, with
/// separate tails for `k = −1`, `k = 1`, `2 ≤ k < 20`, `20 ≤ k ≤ 56`
/// and `k ≤ −2 or k > 56`. Below `2⁻⁵⁴` it returns `x`, below `−56·ln2`
/// it returns `−1`, and above `709.78` it overflows to `+∞`.
#[inline(always)]
pub fn expm1(x: f64) -> f64 {
    const O_THRESHOLD: f64 = f64::from_bits(0x4086_2e42_fefa_39ef);
    const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
    const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
    const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
    const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
    const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);

    let hx = high_word(x);
    let neg = hx >> 31 == 1;
    let ax = hx & 0x7fff_ffff;

    // Argument reduction. k = ±1 takes `x ∓ ln2_hi` and `±ln2_lo`, which
    // is what the general form below computes for t = ±1 (the products
    // are exact), and k = 0 leaves r = x. The general k rounds half away
    // from zero through a separate multiply and add, then truncates.
    let half = if neg { -0.5 } else { 0.5 };
    let k_general = (INVLN2 * x + half).trunc();
    let k_near = if neg { -1.0 } else { 1.0 };
    let t = if ax <= 0x3fd6_2e42 {
        0.0
    } else if ax < 0x3ff0_a2b2 {
        k_near
    } else {
        k_general
    };
    let hi = (-t).mul_add(LN2_HI, x); // t·ln2_hi is exact
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let tt = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - tt) / (-r).mul_add(tt, 6.0));

    // k = 0: c is 0.
    let at_k0 = r - r.mul_add(e, -hxs);
    // k ≠ 0.
    let e = r.mul_add(e - c, -c) - hxs;
    let at_k_minus1 = 0.5f64.mul_add(r - e, -0.5);
    let at_k1 = if r < -0.25 {
        -2.0 * (e - (r + 0.5))
    } else {
        (r - e).mul_add(2.0, 1.0)
    };
    let k = exponent_field(t);
    let y_far = add_to_exponent(1.0 - (e - r), k) - 1.0;
    // 2^-k for the two mid-range tails (k is clamped only so that lanes
    // which take another tail still build a finite value).
    let pow = f64::from_bits(exponent_field(1023.0 - t.clamp(2.0, 56.0)));
    let y_below20 = add_to_exponent((1.0 - pow) - (e - r), k);
    let y_from20 = add_to_exponent((r - (e + pow)) + 1.0, k);

    let mut out = if t == 0.0 {
        at_k0
    } else if t == -1.0 {
        at_k_minus1
    } else if t == 1.0 {
        at_k1
    } else if t <= -2.0 || t > 56.0 {
        y_far
    } else if t < 20.0 {
        y_below20
    } else {
        y_from20
    };
    if ax < 0x3c90_0000 {
        // |x| < 2^-54: x itself (including ±0).
        out = x;
    }
    if neg && ax >= 0x4043_687a {
        // x ≤ −56·ln2: −1 (tiny − one).
        out = -1.0;
    }
    if x > O_THRESHOLD {
        out = f64::INFINITY;
    }
    if x.is_nan() {
        out = x + x;
    }
    out
}

/// Hyperbolic tangent: glibc 2.36's `__tanh`, over [`expm1`].
///
/// `tanh(x) = 1 − 2/(expm1(2|x|) + 2)` for `1 ≤ |x| < 22`,
/// `−t/(t + 2)` with `t = expm1(−2|x|)` below 1, `x·(1 + x)` below
/// `2⁻⁵⁵` (which keeps ±0) and `±1` from 22 on.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    const TINY: f64 = 1.0e-300;

    let hx = high_word(x);
    let ix = hx & 0x7fff_ffff;
    let a = x.abs();

    let ge1 = ix >= 0x3ff0_0000;
    // expm1(2a) from 1 on, expm1(−2a) below. The sign is set with a
    // bit-or (exactly −2a, since a = |x|) rather than a select of the two
    // arguments: LLVM pushes such a select through the inlined `expm1`
    // and evaluates both arms. Eight at a time on the 2-vCPU Xeon host,
    // the kernel's clamped `tanh(m/2)` took 12–15 ns per element that
    // way and takes 8–9 ns with the one `expm1` (`expm1` alone: 5–6 ns).
    let t = expm1(f64::from_bits((a + a).to_bits() | (u64::from(!ge1) << 63)));
    let q = (if ge1 { 2.0 } else { -t }) / (t + 2.0);
    let z = if ix >= 0x4036_0000 {
        1.0 - TINY
    } else if ge1 {
        1.0 - q
    } else {
        q
    };
    let mut out = if hx >> 31 == 1 { -z } else { z };
    if ix < 0x3c80_0000 {
        out = x * (1.0 + x);
    }
    if ix >= 0x7ff0_0000 {
        // ±∞ → ±1, NaN → NaN.
        out = if hx >> 31 == 1 {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    out
}

/// `ln(1 + x)`: glibc 2.36's `__log1p_fma`.
///
/// Writes `1 + x = 2^k·(1 + f)` with `√2/2 ≤ 1 + f < √2` and `c` the
/// rounding error of `u = 1 + x` (divided by `u`; zero once `x ≥ 2⁵³`,
/// where `u = x`), then evaluates `log(1 + f) = f − (hfsq − s·(hfsq +
/// R(s²)))` with `s = f/(2 + f)` and a degree-7 polynomial `R`, or a
/// short series when `|f| < 2⁻²⁰`. Inputs with `−0.2929 < x < 0.41422`
/// skip the reduction (`k = 0`, `f = x`), and `|x| < 2⁻²⁹` takes
/// `x − x²/2` (`x` itself below `2⁻⁵⁴`).
#[inline(always)]
pub fn log1p(x: f64) -> f64 {
    const TWO_THIRDS: f64 = f64::from_bits(0x3fe5_5555_5555_5555);
    const LP1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LP2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LP3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LP4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LP5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LP6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LP7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    const TWO54: f64 = f64::from_bits(0x4350_0000_0000_0000);

    let hx = high_word(x) as i32;
    let ax = hx & 0x7fff_ffff;

    // −0.2929 < x < 0.41422: no reduction.
    let unreduced = hx < 0x3fda_827a && (hx > 0 || hx <= 0xbfd2_bec3_u32 as i32);

    // Reduction: u = 1 + x (or x itself from 2^53 on, where c = 0).
    let exact_u = hx >= 0x4340_0000;
    let u = if exact_u { x } else { 1.0 + x };
    let hu = high_word(u) as i32;
    let k = (hu >> 20) - 1023;
    let c = (if k > 0 { 1.0 - (u - x) } else { x - (u - 1.0) }) / u;
    let c = if exact_u { 0.0 } else { c };
    let hu = hu & 0x000f_ffff;
    // Normalize u into [√2/2, √2).
    let upper = hu >= 0x6a09e;
    let k = if upper { k + 1 } else { k };
    let u = with_high_word(
        u,
        (hu | if upper { 0x3fe0_0000 } else { 0x3ff0_0000 }) as u32,
    );
    let hu = if upper { (0x0010_0000 - hu) >> 2 } else { hu };
    let f = u - 1.0;

    let (f, k, hu) = if unreduced { (x, 0, 1) } else { (f, k, hu) };
    let kf = f64::from(k);
    let hfsq = 0.5 * f * f;
    let ck = kf.mul_add(LN2_LO, c);

    // |f| < 2^-20.
    let at_f0 = if k == 0 { 0.0 } else { kf.mul_add(LN2_HI, ck) };
    let rs = hfsq * (-f).mul_add(TWO_THIRDS, 1.0);
    let at_small_f = if k == 0 {
        f - rs
    } else {
        kf.mul_add(LN2_HI, -((rs - ck) - f))
    };

    let s = f / (2.0 + f);
    let z = s * s;
    let r2 = z.mul_add(LP3, LP2);
    let r3 = z.mul_add(LP5, LP4);
    let r4 = z.mul_add(LP7, LP6);
    let z2 = z * z;
    let z4 = z2 * z2;
    let z6 = z4 * z2;
    let r = z6.mul_add(r4, z4.mul_add(r3, z.mul_add(LP1, z2 * r2)));
    let sr = s * (hfsq + r);
    let at_poly = if k == 0 {
        f - (hfsq - sr)
    } else {
        kf.mul_add(LN2_HI, -((hfsq - (sr + ck)) - f))
    };

    let mut out = if hu != 0 {
        at_poly
    } else if f != 0.0 {
        at_small_f
    } else {
        at_f0
    };
    if hx >= 0x7ff0_0000 {
        // +∞ or NaN.
        out = x + x;
    }
    if hx < 0x3fda_827a {
        if ax >= 0x3ff0_0000 {
            // x ≤ −1: −∞ at −1, NaN below.
            out = if x == -1.0 { -TWO54 / 0.0 } else { f64::NAN };
        } else if ax < 0x3e20_0000 {
            // |x| < 2^-29.
            out = if ax < 0x3c90_0000 {
                x
            } else {
                (-(x * x)).mul_add(0.5, x)
            };
        }
    }
    out
}

/// Inverse hyperbolic tangent as Rust's std computes `f64::atanh`,
/// `0.5·log1p(2x/(1 − x))`, over the ported [`log1p`].
#[inline(always)]
pub fn atanh(x: f64) -> f64 {
    0.5 * log1p((2.0 * x) / (1.0 - x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a cheap, fixed-seed stream for the sweeps.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A double with a uniform binary exponent in `lo..hi`, uniform
    /// mantissa bits and a uniform sign when `signed`.
    fn log_uniform(bits: u64, lo: i64, hi: i64, signed: bool) -> f64 {
        let exp = lo + ((bits >> 53) % (hi - lo) as u64) as i64;
        let mant = bits & ((1 << 52) - 1);
        let sign = if signed { (bits >> 52) & 1 } else { 0 };
        f64::from_bits((sign << 63) | (((exp + 1023) as u64) << 52) | mant)
    }

    fn tanh_input(bits: u64) -> f64 {
        log_uniform(bits, -60, 6, true)
    }

    fn expm1_input(bits: u64) -> f64 {
        log_uniform(bits, -60, 10, true)
    }

    /// Small and large positive inputs, (−1, 0), and 1 + x close to 0.
    fn log1p_input(bits: u64) -> f64 {
        match bits % 3 {
            0 => log_uniform(bits, -60, 64, false),
            1 => -log_uniform(bits, -60, 0, false),
            _ => log_uniform(bits, -60, 0, false) - 1.0,
        }
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Counts the samples of `n` where `port` differs from `host`.
    fn mismatches(
        seed: u64,
        n: u64,
        input: fn(u64) -> f64,
        port: fn(f64) -> f64,
        host: fn(f64) -> f64,
    ) -> (u64, Option<f64>) {
        let mut state = seed;
        let mut count = 0;
        let mut first = None;
        for _ in 0..n {
            let x = input(next(&mut state));
            if !same(port(x), host(x)) {
                count += 1;
                first.get_or_insert(x);
            }
        }
        (count, first)
    }

    type Pair = (&'static str, fn(u64) -> f64, fn(f64) -> f64, fn(f64) -> f64);

    const PAIRS: [Pair; 4] = [
        ("tanh", tanh_input, tanh, f64::tanh),
        ("expm1", expm1_input, expm1, f64::exp_m1),
        ("log1p", log1p_input, log1p, f64::ln_1p),
        ("atanh", tanh_input, atanh, f64::atanh),
    ];

    /// Checks every function on `per_function` samples, one thread each.
    fn assert_matches_host(per_function: u64) {
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = PAIRS
                .into_iter()
                .enumerate()
                .map(|(i, (name, input, port, host))| {
                    scope.spawn(move || {
                        let seed = 0xf0_1b + i as u64;
                        (name, mismatches(seed, per_function, input, port, host))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (name, (count, first)) in results {
            assert_eq!(
                count, 0,
                "{name}: {count} of {per_function} samples differ from the host libm \
                 (first at {first:?}); the host libm is not the glibc 2.36 FMA build \
                 these ports reproduce"
            );
        }
    }

    /// The release sweep: `cargo test --release -p wi-num -- --ignored`.
    #[test]
    #[ignore = "10^8 samples per function; run in release"]
    fn ports_match_the_host_libm_on_a_long_sweep() {
        assert_matches_host(100_000_000);
    }

    #[test]
    fn specials() {
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert!(tanh(f64::NAN).is_nan());
        assert_eq!(expm1(f64::NEG_INFINITY), -1.0);
        assert_eq!(expm1(1000.0), f64::INFINITY);
        assert_eq!(log1p(-1.0), f64::NEG_INFINITY);
        assert!(log1p(-2.0).is_nan());
        assert_eq!(log1p(f64::INFINITY), f64::INFINITY);
        for x in [0.0, -0.0] {
            for f in [tanh, expm1, log1p, atanh] {
                assert_eq!(f(x).to_bits(), x.to_bits(), "signed zero");
            }
        }
    }
}
