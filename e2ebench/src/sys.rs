//! Host-side measurement helpers: medians, resident memory, spin delays
//! and the host-speed reference kernel.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// A `/proc/self/status` field in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current); 0 where the file is unavailable.
fn status_mib(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident memory of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Entries of the reference kernel's lookup table (256 KiB of `u32`:
/// past the L1 cache, small enough to leave peak memory alone).
const REF_TABLE: usize = 1 << 16;

/// One unit of the reference kernel, about 0.1 ms: `tanh`/`ln` over a
/// small array (the shape of the check-node kernels), then dependent
/// loads through `table` (the shape of the DES's heap and route-table
/// lookups). Returns where the walk ended, so nothing is optimised away.
fn reference_unit(x: &mut [f64], table: &[u32], mut i: usize) -> usize {
    let mut acc = 0.0;
    for _ in 0..4 {
        for v in x.iter_mut() {
            acc += (-(*v * 0.5).tanh().ln()).min(30.0);
            *v = (*v * 1.0001 + 1e-4).min(20.0);
        }
    }
    std::hint::black_box(acc);
    for _ in 0..8_192 {
        i = table[i] as usize;
    }
    i
}

/// Runs the reference kernel on `threads` threads at once until `min_s`
/// seconds have passed and returns the median seconds of one unit: how
/// fast the host runs right now. The kernel is this crate's own fixed
/// code, so no change to the measured program moves it.
pub fn reference_kernel(threads: usize, min_s: f64) -> f64 {
    let units: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut x: Vec<f64> = (0..512).map(|i| 0.1 + (i + t) as f64 * 1e-3).collect();
                    // A full-period LCG stored as a table: i -> 5i + 1 + 2t.
                    let table: Vec<u32> = (0..REF_TABLE)
                        .map(|i| ((5 * i + 1 + 2 * t) & (REF_TABLE - 1)) as u32)
                        .collect();
                    let started = Instant::now();
                    let mut times = Vec::new();
                    let mut i = t;
                    while times.is_empty() || secs(started) < min_s {
                        let t0 = Instant::now();
                        i = reference_unit(&mut x, &table, i);
                        times.push(secs(t0));
                    }
                    std::hint::black_box(i);
                    times
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference kernel thread"))
            .collect()
    });
    median(&units)
}

/// Busy-waits for `d` — an injected slowdown that costs CPU like real
/// work (a sleep would let another worker run and hide it).
pub fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Runs `setup` repeatedly and returns the last result plus the median
/// build time: at least `min_reps` builds, more while the total stays
/// under `budget_s` (capped at `max_reps`), so a sub-millisecond setup is
/// timed over many samples and a multi-second one over a few.
pub fn timed_setup<T>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = setup();
        times.push(secs(t0));
        let done =
            times.len() >= max_reps || (times.len() >= min_reps && secs(started) >= budget_s);
        if done {
            return (built, median(&times));
        }
        drop(built);
    }
}
