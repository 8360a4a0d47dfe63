//! The four exhibit workloads and what they share: the run context, the
//! measure-until-the-window-closes loop and output digests.

pub mod des;
pub mod fig10;
pub mod noc_matrix;
pub mod noc_scale;
pub mod sweep_store;

use crate::report::Outcome;
use crate::sys::secs;
use std::path::PathBuf;
use std::time::Instant;

/// The seed the pinned output digests were recorded at.
pub const DEFAULT_SEED: u64 = 2013;

/// A second seed, never used for tuning, at which every oracle and
/// exact-repeat check must pass as well.
pub const HELD_OUT_SEED: u64 = 3557;

/// Worker threads every workload fans out over, passed explicitly to the
/// `*_with_threads` / `RunOptions { threads }` entry points so runs are
/// comparable on any host.
pub const THREADS: usize = 2;

/// Seconds of one set-up burst of a short build.
pub const SETUP_BURST_S: f64 = 0.1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fig10_quick", "noc_matrix", "noc_scale", "sweep_store"];

/// What a workload run gets from the command line.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed (Monte-Carlo and DES streams; code structures and
    /// topologies stay fixed).
    pub seed: u64,
    /// Measurement window: the timed phase repeats until it is spent.
    pub seconds: f64,
    /// Per-layer tracing on.
    pub trace: bool,
    /// Worker threads.
    pub threads: usize,
    /// Scratch directory for on-disk state (the sweep store); removed
    /// after the run.
    pub scratch: PathBuf,
}

/// Runs one workload by name (one of [`WORKLOADS`]; the command line
/// is checked before this is called).
pub fn run(name: &str, ctx: &Ctx, out: &mut Outcome) {
    match name {
        "fig10_quick" => fig10::run(ctx, out),
        "noc_matrix" => noc_matrix::run(ctx, out),
        "noc_scale" => noc_scale::run(ctx, out),
        "sweep_store" => sweep_store::run(ctx, out),
        other => unreachable!("unknown workload '{other}'"),
    }
}

/// Repeats the timed phase `f` until the measurement window has passed
/// (at least once). Before each iteration it samples the host's speed
/// and calls `between` (a set-up burst, or nothing). `f` returns its
/// simulated output and its timings (timing 0 is the phase's wall
/// clock); every iteration's output must equal the first's exactly.
/// Returns the first output and every iteration's timings.
pub fn iterate<T: PartialEq>(
    ctx: &Ctx,
    out: &mut Outcome,
    what: &str,
    mut between: impl FnMut(&mut Outcome),
    mut f: impl FnMut() -> (T, Vec<f64>),
) -> (T, Vec<Vec<f64>>) {
    let started = Instant::now();
    out.sample_host(ctx.threads);
    between(out);
    let (first, t) = f();
    let mut times = vec![t];
    while secs(started) < ctx.seconds {
        out.sample_host(ctx.threads);
        between(out);
        let (again, t) = f();
        let n = times.len();
        out.check(again == first, || {
            format!("{what}: iteration {n} output differs from iteration 0")
        });
        times.push(t);
    }
    let walls: Vec<f64> = times.iter().map(|t| t[0]).collect();
    let (lo, hi) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    out.note(format!(
        "{what}: {} iterations, wall min {lo:.4} / median {:.4} / max {hi:.4} s",
        walls.len(),
        crate::sys::median(&walls)
    ));
    (first, times)
}

/// Median of column `k` of per-iteration timings.
pub fn median_col(times: &[Vec<f64>], k: usize) -> f64 {
    crate::sys::median(&times.iter().map(|t| t[k]).collect::<Vec<_>>())
}

/// 64-bit FNV-1a digest of `parts`, each terminated by a newline.
pub fn digest<S: AsRef<str>>(parts: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_ref().as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Checks an output digest against its pinned value at the default seed
/// and records the digest in the notes at every seed.
pub fn check_digest(ctx: &Ctx, out: &mut Outcome, what: &str, got: u64, pinned: u64) {
    out.note(format!("digest {what} = {got:#018x}"));
    if ctx.seed == DEFAULT_SEED {
        out.check(got == pinned, || {
            format!("{what}: digest {got:#018x} != pinned {pinned:#018x}")
        });
    }
}
