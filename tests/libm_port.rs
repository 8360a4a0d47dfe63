//! The exact sum-product rule takes `tanh` and `atanh` from
//! `wi_num::fdlibm`, a port of glibc 2.36's x86-64 FMA build of `tanh`,
//! `expm1` and `log1p`. Its decodes, and every exact-rule digest and
//! table pinned elsewhere, are those of `f64::tanh` and `f64::atanh` only
//! while the port equals the host libm bit for bit. This test checks
//! that on both sides of every branch threshold of the three routines,
//! at the exact kernel's own edges, at the multiply-add sites whose
//! contraction no random sample tells apart, and at 10⁶ log-uniform
//! points per function. It fails with a message naming the cause when
//! the host libm is a different build (`cargo test --release -p wi-num
//! -- --ignored` sweeps 10⁸ points per function).

use wireless_interconnect::ldpc::decoder::LLR_CLAMP;
use wireless_interconnect::ldpc::kernel::{
    sum_product_exact_batch, ExactBatchScratch, TANH_CLAMP, TANH_SAT,
};
use wireless_interconnect::num::fdlibm;

const CAUSE: &str = "the host libm is not the glibc 2.36 FMA build that the exact \
                     sum-product rule reproduces (wi_num::fdlibm)";

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Asserts `port == host` bit for bit on every input.
fn assert_port(name: &str, port: fn(f64) -> f64, host: fn(f64) -> f64, inputs: &[f64]) {
    let bad: Vec<(f64, f64, f64)> = inputs
        .iter()
        .filter(|&&x| !same(port(x), host(x)))
        .map(|&x| (x, port(x), host(x)))
        .take(3)
        .collect();
    assert!(
        bad.is_empty(),
        "{name}: port differs from the host libm at (x, port, host) {bad:?}: {CAUSE}"
    );
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// `x` (positive) one ulp either side and itself, with both signs.
fn around(x: f64) -> [f64; 6] {
    let (below, above) = (next_down(x), next_up(x));
    [below, x, above, -below, -x, -above]
}

/// The smallest positive double whose high word is `hi`: the first value
/// past a glibc high-word threshold.
fn high_word(hi: u32) -> f64 {
    f64::from_bits(u64::from(hi) << 32)
}

/// `x` and `radius` ulps either side of it.
fn ulps_around(x: f64, radius: u64) -> impl Iterator<Item = f64> {
    (0..=2 * radius).map(move |i| f64::from_bits(x.to_bits() - radius + i))
}

/// splitmix64: a fixed-seed stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A double with a uniform binary exponent in `lo..hi` and uniform
/// mantissa bits: log-uniform over `[2^lo, 2^hi)`.
fn log_uniform(bits: u64, lo: i64, hi: i64) -> f64 {
    let exp = lo + ((bits >> 53) % (hi - lo) as u64) as i64;
    f64::from_bits((((exp + 1023) as u64) << 52) | (bits & ((1 << 52) - 1)))
}

fn expm1_thresholds() -> Vec<f64> {
    let ln2 = std::f64::consts::LN_2;
    let mut xs = vec![0.0, -0.0];
    // |x| < 2^-54, ½·ln2 < |x|, |x| < 1.5·ln2, −56·ln2, overflow.
    for hi in [
        0x3c90_0000,
        0x3fd6_2e43,
        0x3ff0_a2b2,
        0x4043_687a,
        0x4086_2e42,
    ] {
        xs.extend(around(high_word(hi)));
    }
    xs.extend(around(f64::from_bits(0x4086_2e42_fefa_39ef)));
    // The k boundaries x ≈ (k − ½)·ln2: k = ±1, ±2, 20 and 57 switch
    // tails, and a few ulps either side of every boundary pin the
    // rounding of k itself (a separate multiply and add in this build).
    for k in -60..=80 {
        xs.extend(ulps_around((f64::from(k) - 0.5) * ln2, 8));
    }
    xs
}

#[test]
fn tanh_port_matches_the_host_libm() {
    let mut xs = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    // tanh's own branches: |x| < 2^-55, |x| ≥ 1, |x| ≥ 22.
    for x in [2f64.powi(-55), 1.0, 22.0] {
        xs.extend(around(x));
    }
    // expm1's, through tanh's arguments: −2|x| below 1, 2|x| from 1 on.
    xs.extend(expm1_thresholds().iter().map(|a| a / 2.0));
    // The kernel's saturation edge, m/2 = ±TANH_SAT/2.
    xs.extend(around(TANH_SAT / 2.0));
    let mut state = 0x7a4e;
    xs.extend((0..1_000_000).map(|_| {
        let bits = next(&mut state);
        let x = log_uniform(bits, -60, 6);
        if bits & 1 == 1 {
            -x
        } else {
            x
        }
    }));
    assert_port("tanh", fdlibm::tanh, f64::tanh, &xs);
}

#[test]
fn expm1_port_matches_the_host_libm() {
    assert_port("expm1", fdlibm::expm1, f64::exp_m1, &expm1_thresholds());
}

#[test]
fn log1p_port_matches_the_host_libm() {
    let mut xs = vec![0.0, -0.0, -1.0, -2.0, f64::INFINITY, f64::NAN];
    // |x| < 2^-54, |x| < 2^-29, x < 0.41422, and 1 + x no longer rounded.
    for hi in [0x3c90_0000, 0x3e20_0000, 0x3fda_827a, 0x4340_0000] {
        xs.extend(around(high_word(hi)));
    }
    // −0.2929: the last x left unreduced and the first reduced one.
    let cut = f64::from_bits(0xbfd2_bec3_ffff_ffff);
    xs.extend([
        next_down(cut),
        cut,
        -high_word(0x3fd2_bec4),
        -next_up(high_word(0x3fd2_bec4)),
    ]);
    for e in -45..60 {
        let scale = 2f64.powi(e);
        // The √2 split of the reduced mantissa, at u = 1 + x = 2^e·√2.
        let split = scale * f64::from_bits(0x3ff6_a09e_0000_0000);
        xs.extend(ulps_around(split, 2).map(|u| u - 1.0));
        // |f| < 2^-20: u just above and just below a power of two, where
        // k·ln2_lo + c and the short series decide the result.
        for d in [
            0.0,
            2f64.powi(-21),
            2f64.powi(-30),
            2f64.powi(-45),
            2f64.powi(-52),
        ] {
            xs.push(scale * (1.0 + d) - 1.0);
            xs.push(scale * (1.0 - d / 2.0) - 1.0);
        }
    }
    // The kernel's arguments 2p/(1 − p), p = ±TANH_CLAMP^k, k ≤ 7, built
    // as the kernel's products are; k = 1 is the largest, about 2·10¹².
    let mut p = 1.0;
    for _ in 0..7 {
        p *= TANH_CLAMP;
        for q in [p, -p] {
            xs.push((2.0 * q) / (1.0 - q));
        }
    }
    let mut state = 0x1091;
    xs.extend((0..1_000_000).map(|_| {
        let bits = next(&mut state);
        match bits % 3 {
            0 => log_uniform(bits, -60, 64),
            1 => -log_uniform(bits, -60, 0),
            _ => log_uniform(bits, -60, 0) - 1.0,
        }
    }));
    assert_port("log1p", fdlibm::log1p, f64::ln_1p, &xs);
}

#[test]
fn atanh_port_matches_the_host_libm_on_the_kernel_products() {
    let mut ps = vec![0.0, -0.0];
    let mut p = 1.0;
    for _ in 0..7 {
        p *= TANH_CLAMP;
        ps.extend(around(p));
    }
    let mut state = 0xa7a2;
    ps.extend((0..100_000).map(|_| {
        let bits = next(&mut state);
        let p = log_uniform(bits, -60, 0).min(TANH_CLAMP);
        if bits & 1 == 1 {
            -p
        } else {
            p
        }
    }));
    assert_port("atanh", fdlibm::atanh, f64::atanh, &ps);
}

/// The exact kernel, at the one lane a one-frame decode runs, gives the
/// bits of its libm formulation (clamped `tanh(m/2)`, saturated inputs
/// at `±TANH_CLAMP`, forward/backward products, clamped `2·atanh`) on
/// checks built around its edges; every 16th check is fully saturated,
/// which skips `tanh`.
#[test]
fn exact_kernel_matches_its_libm_formulation() {
    let edges = [
        0.0,
        -0.0,
        TANH_SAT,
        next_down(TANH_SAT),
        next_up(TANH_SAT),
        LLR_CLAMP,
        1e-300,
        0.5,
    ];
    let mut state = 0xc4ec;
    let offsets = [0u32, 8];
    let mut scratch = ExactBatchScratch::new(8, 8, 1);
    let mut got = [[0.0]; 8];
    for i in 0..20_000 {
        let m: [f64; 8] = core::array::from_fn(|_| {
            let bits = next(&mut state);
            let sign = if bits & 1 == 1 { -1.0 } else { 1.0 };
            let x = if i % 16 == 0 {
                [TANH_SAT, next_up(TANH_SAT), LLR_CLAMP][(bits >> 8) as usize % 3]
            } else if bits & 2 == 2 {
                edges[(bits >> 8) as usize % edges.len()]
            } else {
                log_uniform(bits, -20, 5).min(LLR_CLAMP)
            };
            sign * x
        });
        sum_product_exact_batch(
            &offsets,
            0,
            1,
            &[1],
            &m.map(|x| [x]),
            &mut got,
            &mut scratch,
        );
        let t: Vec<f64> = m
            .iter()
            .map(|&x| {
                if x.abs() >= TANH_SAT {
                    TANH_CLAMP.copysign(x)
                } else {
                    (x / 2.0).tanh().clamp(-TANH_CLAMP, TANH_CLAMP)
                }
            })
            .collect();
        for (j, &[g]) in got.iter().enumerate() {
            let forward = t[..j].iter().fold(1.0, |acc, &x| acc * x);
            let backward = t[j + 1..].iter().rev().fold(1.0, |acc, &x| acc * x);
            let want = (2.0 * (forward * backward).atanh()).clamp(-LLR_CLAMP, LLR_CLAMP);
            assert_eq!(g.to_bits(), want.to_bits(), "check {m:?} edge {j}: {CAUSE}");
        }
    }
}
