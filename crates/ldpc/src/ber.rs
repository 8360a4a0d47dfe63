//! AWGN/BPSK bit-error-rate evaluation and required-Eb/N0 search (Fig. 10).
//!
//! Fig. 10 plots the Eb/N0 required to reach the target BER against the
//! structural decoding latency. This module provides the Monte-Carlo BER
//! estimator (all-zero codeword — exact for linear codes on the
//! output-symmetric AWGN channel with a sign-symmetric decoder) and the
//! required-Eb/N0 search strategies that drive the Fig. 10 regeneration.
//!
//! # The three abstractions
//!
//! * [`BerTarget`] — one object-safe surface, with one required method
//!   ([`eval_frames_each`](BerTarget::eval_frames_each)), unifying
//!   everything a BER point can be measured on: the BP-decoded block
//!   code ([`BlockBerTarget`]) and the window-decoded coupled code
//!   ([`CoupledBerTarget`]). Frame `f` of a target is a pure function of
//!   `(seed, f, ebn0_db)`, which is what makes common random numbers,
//!   thread fan-out and frame reuse expressible at all.
//! * [`BerEstimate`] — a BER point that carries its own uncertainty:
//!   per-frame error sums and squared sums travel with the estimate, so
//!   [`stderr`](BerEstimate::stderr) / [`ci`](BerEstimate::ci) need no
//!   side channel. Frame-level (not bit-level) variance is the honest
//!   scale here: window decoding fails in bursts, so bits within a frame
//!   are strongly correlated.
//! * [`Ebn0Search`](SearchStrategy) — the strategy enum behind
//!   [`search_required_ebn0`]: [`SearchStrategy::Bisection`] (the
//!   retained oracle ladder, bit-identical to the pre-redesign search),
//!   [`SearchStrategy::ConcurrentBisection`] (several probes per round
//!   across threads, each pruned early once its confidence interval
//!   excludes the target) and [`SearchStrategy::PairedGrid`] (fixed
//!   shared grid + common random numbers + log-linear interpolation —
//!   the right statistical design for *comparing* decoders, where
//!   bisection's grid quantization would dominate small differences).
//!
//! The pre-redesign free functions (`simulate_{bc,cc}_ber*`) were thin
//! deprecated wrappers over this API for one release and have been
//! removed; build a [`BlockBerTarget`] / [`CoupledBerTarget`] and call
//! [`simulate_ber`] instead.
//!
//! # Parallelism and determinism
//!
//! Every frame is independent: its RNG is derived from
//! `derive_seed(seed, frame)` and its [`Gaussian`] sampler is frame local
//! (a shared sampler's cached Box–Muller variate would leak state between
//! frames and make results depend on simulation order). Frame batches are
//! fanned out across threads by [`wi_num::par::ordered`] in rounds,
//! while every stopping rule — the `target_errors` / `min_frames` /
//! `max_frames` budget of [`BerSimOptions`] *and* the CI pruning of
//! [`SearchStrategy::ConcurrentBisection`] — is applied by its serial
//! fold over the per-frame results **in frame order**. [`simulate_ber`]
//! and [`search_required_ebn0`] therefore return bit-identical results
//! for any thread count; extra frames speculatively simulated past a
//! stopping point are discarded without being counted. Up to
//! `min_frames`, where no rule can stop, a round runs exactly to that
//! floor, so nothing below it is speculative; each round is dealt as
//! full-width batches plus a last wave split evenly over the workers.
//! Which frames a round evaluates depends only on where the fold stands,
//! the thread count and the batch width, so a rerun evaluates the same
//! frames. Each worker reuses one [`BerWorkspace`], so the hot loop does
//! not allocate.
//!
//! # Bit-identical vs statistically equivalent
//!
//! [`SearchStrategy::Bisection`] reproduces the pre-redesign ladder probe
//! for probe and is the pinned oracle. The other two strategies simulate
//! *different frames* (CI-pruned budgets, interpolation instead of
//! ladder quantization) and are therefore only statistically equivalent:
//! deterministic and thread-count invariant, but not bit-comparable to
//! the ladder. `docs/ARCHITECTURE.md` tabulates the contract per path.

use crate::batch::{lanes_problem, BatchWorkspace, MAX_LANES};
use crate::code::LdpcCode;
use crate::decoder::{BpConfig, BpDecoder};
use crate::window::{CoupledCode, WindowDecoder};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wi_num::par;
use wi_num::rng::{derive_seed, seeded_rng, Gaussian};
use wi_num::stats::{normal_ci, sample_variance_from_sums};

/// Noise standard deviation for BPSK at the given `Eb/N0` (dB) and code
/// rate: `σ² = 1/(2·R·(Eb/N0))`.
///
/// # Panics
///
/// Panics if `rate` is not in `(0, 1]`.
pub fn ebn0_db_to_sigma(ebn0_db: f64, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    let ebn0 = 10f64.powf(ebn0_db / 10.0);
    (1.0 / (2.0 * rate * ebn0)).sqrt()
}

/// Options for a BER Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BerSimOptions {
    /// Stop after this many bit errors have been observed (statistical
    /// confidence knob).
    pub target_errors: u64,
    /// Hard cap on simulated frames.
    pub max_frames: u64,
    /// Minimum frames (avoid lucky early exits).
    pub min_frames: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BerSimOptions {
    fn default() -> Self {
        BerSimOptions {
            target_errors: 60,
            max_frames: 400,
            min_frames: 8,
            seed: 0xBE5,
        }
    }
}

impl BerSimOptions {
    /// Returns every problem with the frame budget (empty when valid),
    /// alongside [`SearchConfig::problems`]: a zero `max_frames` makes
    /// every estimate read BER 0 from no frames, and a `min_frames` above
    /// `max_frames` is a floor the cap never lets the run reach.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.max_frames == 0 {
            problems.push("max_frames must be at least 1".into());
        }
        if self.min_frames > self.max_frames {
            problems.push(format!(
                "min_frames {} exceeds max_frames {}",
                self.min_frames, self.max_frames
            ));
        }
        problems
    }

    /// Panics unless the frame budget is usable (see
    /// [`problems`](BerSimOptions::problems)). [`simulate_ber`],
    /// [`ber_curve`] and [`search_required_ebn0`] check it first.
    pub fn validate(&self) {
        if let Some(problem) = self.problems().into_iter().next() {
            panic!("{problem}");
        }
    }
}

/// Raw Monte-Carlo counts for a range of frames, as returned by
/// [`BerTarget::eval_frames`].
///
/// Sums are order-independent, so partial stats from parallel workers
/// [`merge`](FrameStats::merge) into the same totals regardless of
/// scheduling. `errors_sq` (the sum of squared per-frame error counts)
/// is what lets a merged estimate still report its frame-level variance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames simulated.
    pub frames: u64,
    /// Code bits simulated.
    pub bits: u64,
    /// Bit errors observed.
    pub bit_errors: u64,
    /// Frames with at least one bit error (drives the frame-error rate
    /// the NoC fault layer consumes).
    pub frame_errors: u64,
    /// Sum of squared per-frame bit-error counts (exact in `u128`).
    pub errors_sq: u128,
}

impl FrameStats {
    /// Accumulates one frame's outcome.
    pub fn push_frame(&mut self, bits: u64, bit_errors: u64) {
        self.frames += 1;
        self.bits += bits;
        self.bit_errors += bit_errors;
        self.frame_errors += (bit_errors > 0) as u64;
        self.errors_sq += (bit_errors as u128) * (bit_errors as u128);
    }

    /// Adds another stats block (order-independent).
    pub fn merge(&mut self, other: &FrameStats) {
        self.frames += other.frames;
        self.bits += other.bits;
        self.bit_errors += other.bit_errors;
        self.frame_errors += other.frame_errors;
        self.errors_sq += other.errors_sq;
    }
}

/// A BER estimate with its own frame-level uncertainty.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BerEstimate {
    /// Estimated bit error rate.
    pub ber: f64,
    /// Observed bit errors.
    pub bit_errors: u64,
    /// Simulated bits.
    pub bits: u64,
    /// Simulated frames.
    pub frames: u64,
    /// Frames with at least one bit error.
    pub frame_errors: u64,
    /// Sum of squared per-frame bit-error counts (drives
    /// [`stderr`](BerEstimate::stderr)).
    pub errors_sq: u128,
}

impl BerEstimate {
    /// Builds an estimate from raw frame counts.
    pub fn from_stats(stats: FrameStats) -> Self {
        BerEstimate {
            ber: if stats.bits == 0 {
                0.0
            } else {
                stats.bit_errors as f64 / stats.bits as f64
            },
            bit_errors: stats.bit_errors,
            bits: stats.bits,
            frames: stats.frames,
            frame_errors: stats.frame_errors,
            errors_sq: stats.errors_sq,
        }
    }

    /// Frame error rate: the fraction of simulated frames with at least
    /// one residual bit error — the per-traversal corruption probability
    /// the NoC fault layer (`wi_noc::des::fault`) consumes.
    pub fn fer(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frame_errors as f64 / self.frames as f64
        }
    }

    /// Unbiased sample variance of the per-frame bit-error count.
    pub fn frame_error_variance(&self) -> f64 {
        sample_variance_from_sums(self.frames, self.bit_errors as f64, self.errors_sq as f64)
    }

    /// Standard error of [`ber`](BerEstimate::ber), from the *frame-level*
    /// error variance (bits within a frame are correlated — window
    /// decoding fails in bursts — so a per-bit binomial error bar would
    /// be dishonestly small).
    pub fn stderr(&self) -> f64 {
        if self.frames == 0 || self.bits == 0 {
            return 0.0;
        }
        (self.frame_error_variance() * self.frames as f64).sqrt() / self.bits as f64
    }

    /// Two-sided confidence interval `ber ± z·stderr`, lower endpoint
    /// clamped at 0.
    pub fn ci(&self, z: f64) -> (f64, f64) {
        let (lo, hi) = normal_ci(self.ber, self.stderr(), z);
        (lo.max(0.0), hi)
    }
}

/// Type-erased per-worker scratch state for a [`BerTarget`].
///
/// Each simulation worker owns one workspace for its whole run; the
/// target lazily installs whatever concrete state it needs (decoder
/// workspace + LLR buffer) on the first frame via
/// [`state`](BerWorkspace::state) and reuses it afterwards, so the hot
/// loop does not allocate. Erasing the type here is what keeps
/// [`BerTarget`] object-safe while letting block and coupled targets
/// (and downstream custom targets) carry different scratch shapes.
#[derive(Debug, Default)]
pub struct BerWorkspace {
    state: Option<Box<dyn Any + Send>>,
}

impl BerWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        BerWorkspace::default()
    }

    /// Returns the workspace's state of type `T`, installing `init()`
    /// first if the workspace is empty or currently holds another type
    /// (a workspace handed to a target whose state has another type is
    /// rebuilt, not corrupted).
    pub fn state<T: Send + 'static>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        let stale = match &self.state {
            Some(boxed) => !boxed.is::<T>(),
            None => true,
        };
        if stale {
            self.state = Some(Box::new(init()));
        }
        self.state
            .as_mut()
            .expect("state installed above")
            .downcast_mut::<T>()
            .expect("type checked above")
    }
}

/// Anything a BER point can be Monte-Carlo-measured on.
///
/// The contract that every search strategy builds on: frame `f` at a
/// given `ebn0_db` must be a pure function of `(seed, f)` — same noise
/// realization whenever the same `(seed, f)` pair is evaluated,
/// regardless of worker, chunking or which other frames run. That single
/// property yields thread-count invariance (fold in frame order), common
/// random numbers (same seed across Eb/N0 points or across targets) and
/// frame reuse across search steps.
pub trait BerTarget: Sync {
    /// Code bits simulated per frame.
    fn bits_per_frame(&self) -> u64;

    /// Code rate used for the Eb/N0 → noise conversion.
    fn rate(&self) -> f64;

    /// Widest frame batch [`eval_frames_each`](BerTarget::eval_frames_each)
    /// decodes in lockstep (1 = one frame at a time).
    ///
    /// The Monte-Carlo driver sizes its per-worker pieces by this so
    /// batched targets see full-width batches wherever the round allows;
    /// the value is advisory — `eval_frames_each` must accept any slice
    /// length.
    fn batch_width(&self) -> usize {
        1
    }

    /// Simulates `out.len()` consecutive frames starting at `first` at
    /// `ebn0_db`, writing frame `first + i`'s counts into `out[i]`.
    ///
    /// The one method a target must implement. The Monte-Carlo loop
    /// needs each frame's stats in its own slot so the serial in-order
    /// stop fold stays exact, while batched targets need to see many
    /// frames at once to fill their lanes. Each frame must still be the
    /// pure function of `(seed, frame)` the trait contract demands,
    /// regardless of how the loop groups frames into calls:
    /// implementations derive each frame's RNG from
    /// `derive_seed(seed, frame)` (see [`fill_frame_llrs`]) and keep all
    /// scratch in `ws`.
    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    );

    /// Simulates frames `frames` at `ebn0_db` and returns their summed
    /// counts: [`eval_frames_each`](BerTarget::eval_frames_each) over
    /// batch-width chunks, folded without heap allocation.
    fn eval_frames(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        frames: Range<u64>,
    ) -> FrameStats {
        let width = self.batch_width().clamp(1, MAX_LANES);
        let mut slots = [FrameStats::default(); MAX_LANES];
        let mut stats = FrameStats::default();
        let mut first = frames.start;
        while first < frames.end {
            let len = ((frames.end - first) as usize).min(width);
            let out = &mut slots[..len];
            self.eval_frames_each(ws, ebn0_db, seed, first, out);
            for s in out.iter() {
                stats.merge(s);
            }
            first += len as u64;
        }
        stats
    }
}

/// Concrete scratch the batched targets keep inside a [`BerWorkspace`]:
/// one frame's channel LLRs and one lane workspace per supported width
/// (indexed by `log2` of the width), each built on first use, so
/// switching between the full width and a narrower remainder never
/// resizes a buffer. Block and coupled targets share it, so a
/// workspace moving between them is reused, not rebuilt.
#[derive(Default)]
struct LaneState {
    llr: Vec<f64>,
    by_width: [Option<BatchWorkspace>; 4],
}

/// Simulates `out.len()` consecutive frames on the lane engine: full
/// batches of `width` frames, then what is left at the widest supported
/// width that fits (4, then 2, then 1). `frame_llrs(llr, i)` fills the
/// channel LLRs of the `i`-th frame and `decode` decodes one loaded
/// batch. Every lane is bit-identical to a one-frame decode, so the way
/// a slice splits into batches is invisible in the results.
fn eval_in_lanes(
    ws: &mut BerWorkspace,
    code: &LdpcCode,
    width: usize,
    frame_llrs: impl Fn(&mut [f64], usize),
    decode: impl Fn(&mut BatchWorkspace),
    out: &mut [FrameStats],
) {
    let n = code.len();
    let state = ws.state(LaneState::default);
    state.llr.resize(n, 0.0);
    let mut i = 0;
    while i < out.len() {
        let left = out.len() - i;
        let lanes = if left >= width {
            width
        } else {
            1 << left.ilog2()
        };
        let batch =
            state.by_width[lanes.ilog2() as usize].get_or_insert_with(BatchWorkspace::default);
        batch.ensure(code, lanes);
        for lane in 0..lanes {
            frame_llrs(&mut state.llr, i + lane);
            batch.set_lane_llr(lane, &state.llr);
        }
        decode(batch);
        for (lane, slot) in out[i..i + lanes].iter_mut().enumerate() {
            let mut stats = FrameStats::default();
            stats.push_frame(n as u64, batch.lane_error_count(lane));
            *slot = stats;
        }
        i += lanes;
    }
}

/// [`BerTarget`] for a BP-decoded LDPC block code over AWGN/BPSK.
#[derive(Clone, Copy, Debug)]
pub struct BlockBerTarget<'a> {
    code: &'a LdpcCode,
    config: BpConfig,
    rate: f64,
    batch: usize,
}

impl<'a> BlockBerTarget<'a> {
    /// Creates a block-code target decoding with `config` at code `rate`.
    ///
    /// Full-width batches of [`batch::MAX_LANES`](crate::batch::MAX_LANES)
    /// frames are decoded in lockstep by default — bit-identical per
    /// frame to a one-frame decode; see [`with_batch`](Self::with_batch).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `(0, 1]` or the check rule is invalid.
    pub fn new(code: &'a LdpcCode, config: BpConfig, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        config.check_rule.validate();
        BlockBerTarget {
            code,
            config,
            rate,
            batch: MAX_LANES,
        }
    }

    /// Sets the inter-frame batch width: frames are decoded in lockstep
    /// in batches of `batch`, and a shorter remainder at the widest
    /// supported width that fits (1 = one frame at a time, still on the
    /// lane engine).
    ///
    /// Any width produces bit-identical per-frame results, so no
    /// configuration or CLI flag sets it: only the width-invariance tests
    /// and the benchmarks, which time one width against another, call it.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is not one of 1, 2, 4, 8.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        if let Some(problem) = lanes_problem(batch) {
            panic!("{problem}");
        }
        self.batch = batch;
        self
    }
}

impl BerTarget for BlockBerTarget<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.code.len() as u64
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn batch_width(&self) -> usize {
        self.batch
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        let sigma = ebn0_db_to_sigma(ebn0_db, self.rate);
        let decoder = BpDecoder::new(self.code, self.config);
        eval_in_lanes(
            ws,
            self.code,
            self.batch,
            |llr, i| fill_frame_llrs(llr, sigma, seed, first + i as u64),
            |batch| decoder.decode_batch(batch),
            out,
        );
    }
}

/// [`BerTarget`] for a window-decoded LDPC convolutional code.
///
/// Uses the design rate (1/2 for the paper's codes) for the Eb/N0
/// conversion, matching the paper's convention for both code families,
/// and counts errors over all code bits of all blocks.
#[derive(Clone, Copy, Debug)]
pub struct CoupledBerTarget<'a> {
    code: &'a CoupledCode,
    decoder: WindowDecoder,
    batch: usize,
}

impl<'a> CoupledBerTarget<'a> {
    /// Creates a coupled-code target window-decoded by `decoder`.
    ///
    /// Full-width batches of [`batch::MAX_LANES`](crate::batch::MAX_LANES)
    /// frames are window-decoded in lockstep by default — bit-identical
    /// per frame to a one-frame decode; see
    /// [`with_batch`](Self::with_batch).
    ///
    /// # Panics
    ///
    /// Panics if the decoder's check rule is invalid.
    pub fn new(code: &'a CoupledCode, decoder: WindowDecoder) -> Self {
        decoder.check_rule.validate();
        CoupledBerTarget {
            code,
            decoder,
            batch: MAX_LANES,
        }
    }

    /// Sets the inter-frame batch width: frames are decoded in lockstep
    /// in batches of `batch`, and a shorter remainder at the widest
    /// supported width that fits (1 = one frame at a time, still on the
    /// lane engine).
    ///
    /// Any width produces bit-identical per-frame results, so no
    /// configuration or CLI flag sets it: only the width-invariance tests
    /// and the benchmarks, which time one width against another, call it.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is not one of 1, 2, 4, 8.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        if let Some(problem) = lanes_problem(batch) {
            panic!("{problem}");
        }
        self.batch = batch;
        self
    }
}

impl BerTarget for CoupledBerTarget<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.code.code().len() as u64
    }

    fn rate(&self) -> f64 {
        self.code.design_rate()
    }

    fn batch_width(&self) -> usize {
        self.batch
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        let sigma = ebn0_db_to_sigma(ebn0_db, self.code.design_rate());
        eval_in_lanes(
            ws,
            self.code.code(),
            self.batch,
            |llr, i| fill_frame_llrs(llr, sigma, seed, first + i as u64),
            |batch| self.decoder.decode_batch(batch, self.code),
            out,
        );
    }
}

/// Key component for one cached frame evaluation: the Eb/N0 operating
/// point by exact bit pattern. Two floats that print the same but differ
/// in the last ulp are different operating points — collapsing them
/// would serve a frame simulated under a different noise scale.
pub fn ebn0_key(ebn0_db: f64) -> u64 {
    ebn0_db.to_bits()
}

/// A store of per-frame evaluation results, keyed by
/// `(ebn0 bit pattern, seed, frame index)`.
///
/// The [`BerTarget`] purity contract — frame `f` at `ebn0_db` is a pure
/// function of `(seed, f)` for a given target — is exactly what makes a
/// frame's [`FrameStats`] cacheable: the key omits *how* the frame was
/// produced (worker, chunking, batch width) because none of it can
/// change the answer. What the key also omits is the **target itself**:
/// scoping a cache to one target (one code, decoder config and rate) is
/// the *caller's* obligation. [`CachedBerTarget`] documents this; the
/// sweep store discharges it by deriving one cache namespace per target
/// hash.
///
/// `get` is called exactly once per frame evaluated through
/// [`CachedBerTarget`], so an implementation counting hits and misses
/// inside `get` observes exact totals.
pub trait FrameEvalCache: Sync {
    /// Looks up frame `frame` of stream `seed` at operating point
    /// `ebn0_bits` (see [`ebn0_key`]).
    fn get(&self, ebn0_bits: u64, seed: u64, frame: u64) -> Option<FrameStats>;

    /// Records a freshly simulated frame.
    fn put(&self, ebn0_bits: u64, seed: u64, frame: u64, stats: FrameStats);
}

/// A heap [`FrameEvalCache`]: a mutex-guarded map with hit/miss
/// counters. The in-process complement of the sweep store's on-disk
/// cache — used by tests and by single-run callers (e.g. a co-sim FER
/// curve reusing frames across its own Eb/N0 grid).
#[derive(Debug, Default)]
pub struct MemoryFrameCache {
    map: Mutex<HashMap<(u64, u64, u64), FrameStats>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoryFrameCache {
    /// An empty cache.
    pub fn new() -> Self {
        MemoryFrameCache::default()
    }

    /// `(hits, misses)` observed so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Cached frame count.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FrameEvalCache for MemoryFrameCache {
    fn get(&self, ebn0_bits: u64, seed: u64, frame: u64) -> Option<FrameStats> {
        let hit = self
            .map
            .lock()
            .unwrap()
            .get(&(ebn0_bits, seed, frame))
            .copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn put(&self, ebn0_bits: u64, seed: u64, frame: u64, stats: FrameStats) {
        self.map
            .lock()
            .unwrap()
            .insert((ebn0_bits, seed, frame), stats);
    }
}

/// Scratch of a [`CachedBerTarget`]: the inner target's workspace plus
/// the per-call lookup buffer ([`BerWorkspace`] holds a single typed
/// slot, so the wrapper nests the inner workspace rather than sharing).
#[derive(Default)]
struct CachedScratch {
    inner_ws: BerWorkspace,
    found: Vec<Option<FrameStats>>,
}

/// Wraps a [`BerTarget`] so every frame evaluation consults a
/// [`FrameEvalCache`] first and records what it simulates.
///
/// Cached hits reproduce the wrapped target's output bit for bit (the
/// stats *are* the wrapped target's stats), so every search strategy,
/// curve and report produced through the wrapper is byte-identical to an
/// uncached run — the property the sweep store's warm-run assertions
/// pin.
///
/// **Scoping:** the cache key does not identify the target; handing one
/// cache to two different targets (different code, check rule,
/// iterations or window) serves wrong results. One cache per target.
pub struct CachedBerTarget<'a> {
    inner: &'a dyn BerTarget,
    cache: &'a dyn FrameEvalCache,
}

impl<'a> CachedBerTarget<'a> {
    /// Wraps `inner` with `cache`. The cache must be dedicated to
    /// `inner` (see the type docs).
    pub fn new(inner: &'a dyn BerTarget, cache: &'a dyn FrameEvalCache) -> Self {
        CachedBerTarget { inner, cache }
    }
}

impl BerTarget for CachedBerTarget<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.inner.bits_per_frame()
    }

    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        let bits = ebn0_key(ebn0_db);
        let scratch = ws.state(CachedScratch::default);
        scratch.found.clear();
        scratch
            .found
            .extend((0..out.len()).map(|i| self.cache.get(bits, seed, first + i as u64)));
        // Misses are simulated in maximal contiguous runs so the inner
        // target still sees full-width batches wherever possible.
        let mut i = 0;
        while i < out.len() {
            if let Some(hit) = scratch.found[i] {
                out[i] = hit;
                i += 1;
                continue;
            }
            let start = i;
            while i < out.len() && scratch.found[i].is_none() {
                i += 1;
            }
            self.inner.eval_frames_each(
                &mut scratch.inner_ws,
                ebn0_db,
                seed,
                first + start as u64,
                &mut out[start..i],
            );
            for (k, stats) in out[start..i].iter().enumerate() {
                self.cache
                    .put(bits, seed, first + (start + k) as u64, *stats);
            }
        }
    }
}

/// Frames per worker per speculative fan-out round — a round that starts
/// once the fold has reached `min_frames`, where a stop rule may fire on
/// any frame (a serial run evaluates one batch per such round). Each
/// round is one [`par::ordered`] call spawning fresh workers (tens of µs
/// each), so it must cover many ~25 µs min-sum decodes. Every frame of a
/// started round is evaluated, and a round's frames depend only on where
/// the fold stands, the thread count and the batch width, so a rerun at
/// the same thread count simulates the same frames and a warm
/// [`CachedBerTarget`] run misses nothing. Speculative frames past an
/// early stop are discarded uncounted.
const FRAMES_PER_WORKER: u64 = 16;

/// How one fan-out round of frames `base..end` is dealt to the workers:
/// whole waves of `threads` full-width batches, then the last partial
/// wave split into `threads` near-equal contiguous pieces of at most
/// `width` frames, so no worker decodes a full batch while the others
/// idle. Piece `k` is item `k` of the round's [`par::ordered`] call.
#[derive(Clone, Copy, Debug)]
struct Round {
    base: u64,
    width: u64,
    /// Full-width batches in the whole waves.
    batches: u64,
    /// Frames per tail piece before the remainder is spread.
    tail_len: u64,
    /// Tail pieces that take one extra frame (the first ones).
    tail_extra: u64,
    /// Non-empty tail pieces.
    tail_pieces: u64,
}

impl Round {
    fn new(base: u64, end: u64, threads: u64, width: u64) -> Self {
        let wave = threads * width;
        let tail = (end - base) % wave;
        let tail_len = tail / threads;
        let tail_extra = tail % threads;
        Round {
            base,
            width,
            batches: (end - base) / wave * threads,
            tail_len,
            tail_extra,
            tail_pieces: if tail_len > 0 { threads } else { tail_extra },
        }
    }

    /// Pieces in the round.
    fn pieces(&self) -> usize {
        (self.batches + self.tail_pieces) as usize
    }

    /// `(first frame, frames)` of piece `k`.
    fn piece(&self, k: usize) -> (u64, usize) {
        let k = k as u64;
        if k < self.batches {
            return (self.base + k * self.width, self.width as usize);
        }
        let j = k - self.batches;
        let first =
            self.base + self.batches * self.width + j * self.tail_len + j.min(self.tail_extra);
        (
            first,
            (self.tail_len + u64::from(j < self.tail_extra)) as usize,
        )
    }
}

/// The frame-budget stop rules a single BER point runs under (the
/// strategy-resolved view of [`BerSimOptions`] plus any search-level
/// cap).
#[derive(Clone, Copy, Debug)]
struct FrameBudget {
    min_frames: u64,
    max_frames: u64,
    target_errors: u64,
}

impl FrameBudget {
    /// The options' own budget, with the search-level frame cap applied.
    fn from_opts(opts: &BerSimOptions, cap: u64) -> Self {
        FrameBudget {
            min_frames: opts.min_frames,
            max_frames: opts.max_frames.min(cap),
            target_errors: opts.target_errors,
        }
    }

    /// Exactly `frames` frames: every early stop disabled (the
    /// common-random-numbers mode of [`ber_curve`]).
    fn exactly(frames: u64) -> Self {
        FrameBudget {
            min_frames: frames,
            max_frames: frames,
            target_errors: u64::MAX,
        }
    }
}

/// Whether the Monte-Carlo loop should simulate another frame.
///
/// `extra_stop` is the strategy-specific early-out (CI pruning); it is
/// only consulted once the frame budget's own rules allow stopping, and
/// always over the serial in-order fold — so any rule expressed here is
/// automatically thread-count invariant.
fn keep_going(
    fold: &FrameStats,
    budget: &FrameBudget,
    extra_stop: &mut dyn FnMut(&FrameStats) -> bool,
) -> bool {
    fold.frames < budget.max_frames
        && (fold.frames < budget.min_frames
            || (fold.bit_errors < budget.target_errors && !extra_stop(fold)))
}

/// Shared Monte-Carlo driver: runs `target` over frames `0, 1, 2, …`
/// with the given stopping rules, fanning frames out over `threads`
/// workers.
///
/// The stop rules are evaluated serially in frame order over the
/// fanned-out results, so the returned estimate is identical for every
/// `threads` value — extra frames speculatively simulated past the
/// stopping point are discarded without being counted. No stop rule can
/// fire below `min(min_frames, max_frames)`, so while the fold is below
/// that floor the round runs exactly up to it and nothing is
/// speculative; after it, rounds of [`FRAMES_PER_WORKER`] frames per
/// worker (one batch when serial) run until a rule fires.
fn run_target(
    target: &dyn BerTarget,
    ebn0_db: f64,
    seed: u64,
    threads: usize,
    budget: FrameBudget,
    extra_stop: &mut dyn FnMut(&FrameStats) -> bool,
) -> BerEstimate {
    let mut fold = FrameStats::default();
    let width = target.batch_width().clamp(1, MAX_LANES) as u64;
    // More workers than the simulation can ever have frames is pure
    // workspace-allocation waste.
    let threads = threads.clamp(1, budget.max_frames.max(1).try_into().unwrap_or(usize::MAX));
    let floor = budget.min_frames.min(budget.max_frames);
    let speculative = if threads == 1 {
        width
    } else {
        threads as u64 * FRAMES_PER_WORKER
    };
    // One workspace per worker for the whole simulation, not per round —
    // a decode fully reinitializes its workspace, so reuse cannot leak
    // state between frames.
    let mut workspaces: Vec<BerWorkspace> = (0..threads).map(|_| BerWorkspace::new()).collect();
    let mut stopped = !keep_going(&fold, &budget, extra_stop);
    while !stopped {
        let base = fold.frames;
        let end = if base < floor {
            floor
        } else {
            base + speculative.min(budget.max_frames - base)
        };
        let round = Round::new(base, end, threads as u64, width);
        // The fold checks the stop rules after every frame and skips the
        // frames past the stop, so neither the dealing nor scheduling can
        // move a stopping decision.
        par::ordered(
            &mut workspaces,
            round.pieces(),
            |ws, k| {
                let (first, len) = round.piece(k);
                let mut out = [FrameStats::default(); MAX_LANES];
                target.eval_frames_each(ws, ebn0_db, seed, first, &mut out[..len]);
                (out, len)
            },
            |_, (out, len)| {
                for frame_stats in &out[..len] {
                    if stopped {
                        break;
                    }
                    fold.merge(frame_stats);
                    stopped = !keep_going(&fold, &budget, extra_stop);
                }
                ControlFlow::Continue(())
            },
        );
    }
    BerEstimate::from_stats(fold)
}

/// Fills `llr` with the channel LLRs of one all-zero-codeword frame:
/// `LLR = (2/σ²)·(1 + n)`, noise drawn from the frame's own seeded RNG
/// and Gaussian sampler.
///
/// This is the common-random-numbers anchor of the whole module: the
/// noise of frame `f` depends only on `(seed, f)`, never on `sigma`'s
/// history or which other frames ran, so evaluating different Eb/N0
/// points (or different decoders) at the same `(seed, f)` pairs shares
/// one noise realization and the Monte-Carlo noise cancels in
/// differences.
pub fn fill_frame_llrs(llr: &mut [f64], sigma: f64, seed: u64, frame: u64) {
    let mut rng = seeded_rng(derive_seed(seed, frame));
    let mut gauss = Gaussian::new();
    let scale = 2.0 / (sigma * sigma);
    for l in llr.iter_mut() {
        *l = scale * (1.0 + gauss.sample_with(&mut rng, 0.0, sigma));
    }
}

/// Monte-Carlo BER of `target` at `ebn0_db`, fanning frames out over
/// [`par::threads`] workers. Bit-identical to a serial run at the same
/// options (see the module docs).
///
/// # Panics
///
/// Panics if the frame budget is invalid (see
/// [`BerSimOptions::problems`]).
pub fn simulate_ber(target: &dyn BerTarget, ebn0_db: f64, opts: &BerSimOptions) -> BerEstimate {
    simulate_ber_with_threads(target, ebn0_db, opts, par::threads())
}

/// [`simulate_ber`] with an explicit worker-thread count (1 = the serial
/// reference path).
pub fn simulate_ber_with_threads(
    target: &dyn BerTarget,
    ebn0_db: f64,
    opts: &BerSimOptions,
    threads: usize,
) -> BerEstimate {
    opts.validate();
    run_target(
        target,
        ebn0_db,
        opts.seed,
        threads,
        FrameBudget::from_opts(opts, u64::MAX),
        &mut |_| false,
    )
}

/// Measures a full BER curve over `grid` with common random numbers:
/// every point simulates exactly `opts.max_frames` frames (the
/// `target_errors` / `min_frames` early stops are disabled so all points
/// share the *same* frame set), and frame `f` uses the same noise
/// realization at every point.
///
/// Two targets measured with the same `opts` therefore pair
/// frame-for-frame, which is what makes curve *differences* (e.g. the
/// φ-table rule vs exact sum-product in `tests/phi_table.rs`) resolvable
/// far below the per-curve Monte-Carlo noise.
///
/// # Panics
///
/// Panics if the frame budget is invalid (see
/// [`BerSimOptions::problems`]).
pub fn ber_curve(
    target: &dyn BerTarget,
    grid: &[f64],
    opts: &BerSimOptions,
) -> Vec<(f64, BerEstimate)> {
    ber_curve_with_threads(target, grid, opts, par::threads())
}

/// [`ber_curve`] with an explicit worker-thread count.
pub fn ber_curve_with_threads(
    target: &dyn BerTarget,
    grid: &[f64],
    opts: &BerSimOptions,
    threads: usize,
) -> Vec<(f64, BerEstimate)> {
    opts.validate();
    grid.iter()
        .map(|&ebn0_db| {
            let est = run_target(
                target,
                ebn0_db,
                opts.seed,
                threads,
                FrameBudget::exactly(opts.max_frames),
                &mut |_| false,
            );
            (ebn0_db, est)
        })
        .collect()
}

/// Outcome of a required-Eb/N0 search.
///
/// Replaces the former `Option<f64>` return, whose `None` conflated "the
/// target is below the bracket" with "the target is above it" — two
/// answers a caller plotting Fig. 10 must distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SearchOutcome {
    /// The required Eb/N0 in dB.
    Found(f64),
    /// The target BER is already met at the bracket's low edge — the
    /// required Eb/N0 is below `lo_db`.
    BelowLo,
    /// The target BER is still missed at the bracket's high edge — the
    /// required Eb/N0 is above `hi_db` (or the code never reaches it).
    AboveHi,
    /// The search bracketed the target but could not resolve it (e.g. a
    /// paired-grid crossing into a zero-error point, below the frame
    /// budget's resolution); `best` is the tightest defensible upper
    /// bound.
    Unresolved {
        /// Best available required-Eb/N0 estimate (an upper bound).
        best: f64,
    },
}

impl SearchOutcome {
    /// The resolved required Eb/N0, if the search found one exactly.
    pub fn found(self) -> Option<f64> {
        match self {
            SearchOutcome::Found(v) => Some(v),
            _ => None,
        }
    }

    /// Best available point estimate: [`Found`](SearchOutcome::Found)'s
    /// value or [`Unresolved`](SearchOutcome::Unresolved)'s bound;
    /// `None` when the bracket never contained the target.
    pub fn value(self) -> Option<f64> {
        match self {
            SearchOutcome::Found(v) => Some(v),
            SearchOutcome::Unresolved { best } => Some(best),
            _ => None,
        }
    }
}

/// Finds the smallest Eb/N0 (dB) at which `ber_at` falls to `target_ber`,
/// by bisection over `[lo_db, hi_db]`.
///
/// BER is assumed monotone decreasing in Eb/N0 — true for these codes in
/// the waterfall region. Probe order (hi, lo, then midpoints) is the
/// pre-redesign ladder, retained as the bit-identical oracle that
/// [`SearchStrategy::Bisection`] dispatches to.
pub fn required_ebn0_db<F: FnMut(f64) -> f64>(
    mut ber_at: F,
    target_ber: f64,
    lo_db: f64,
    hi_db: f64,
    tol_db: f64,
) -> SearchOutcome {
    assert!(lo_db < hi_db, "invalid bracket");
    assert!(tol_db > 0.0, "tolerance must be positive");
    if ber_at(hi_db) > target_ber {
        return SearchOutcome::AboveHi;
    }
    if ber_at(lo_db) <= target_ber {
        return SearchOutcome::BelowLo;
    }
    let mut lo = lo_db;
    let mut hi = hi_db;
    while hi - lo > tol_db {
        let mid = 0.5 * (lo + hi);
        if ber_at(mid) <= target_ber {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    SearchOutcome::Found(hi)
}

/// Required Eb/N0 to reach `target_ber`, by log-linear interpolation of a
/// measured `(ebn0_db, ber)` curve (ascending in Eb/N0).
///
/// The estimator `tests/phi_table.rs` hand-rolled before this module
/// absorbed it: find the first adjacent pair bracketing the target and
/// interpolate linearly in `(Eb/N0, ln BER)`. Unlike bisection the
/// answer is not quantized to a probe grid, which is why the paired
/// strategies use it.
pub fn log_linear_required_ebn0(curve: &[(f64, f64)], target_ber: f64) -> SearchOutcome {
    assert!(target_ber > 0.0, "target BER must be positive");
    match curve.first() {
        None => SearchOutcome::AboveHi,
        Some(&(_, b0)) if b0 < target_ber => SearchOutcome::BelowLo,
        _ => {
            for pair in curve.windows(2) {
                let (e0, b0) = pair[0];
                let (e1, b1) = pair[1];
                if b0 >= target_ber && b1 <= target_ber {
                    if b0 <= target_ber {
                        // Exact hit at the left point: 0/0 in the
                        // interpolation weight, answer is e0 itself.
                        return SearchOutcome::Found(e0);
                    }
                    if b1 > 0.0 {
                        let t = (b0.ln() - target_ber.ln()) / (b0.ln() - b1.ln());
                        return SearchOutcome::Found(e0 + t * (e1 - e0));
                    }
                    // Crossed into a zero-error point: the target lies in
                    // (e0, e1] but the frame budget cannot resolve where.
                    return SearchOutcome::Unresolved { best: e1 };
                }
            }
            SearchOutcome::AboveHi
        }
    }
}

/// Required-Eb/N0 search strategy (the `Ebn0Search` dimension of
/// [`SearchConfig`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// The pre-redesign serial bisection ladder, retained as the
    /// bit-identical oracle: full frame budget at every probe, answer
    /// quantized to the final bisection interval.
    #[default]
    Bisection,
    /// Bisection probing several interior points per round, each point
    /// evaluated on its own thread share and pruned as soon as its
    /// confidence interval excludes the target BER. Statistically
    /// equivalent to [`Bisection`](SearchStrategy::Bisection) (same
    /// bracket semantics, different frame budgets); deterministic and
    /// thread-count invariant.
    ConcurrentBisection,
    /// Fixed shared Eb/N0 grid evaluated left to right with common
    /// random numbers until the BER curve crosses the target, then
    /// log-linear interpolation ([`log_linear_required_ebn0`]); a
    /// crossing into a zero-error point is refined with a few midpoint
    /// probes before reporting [`SearchOutcome::Unresolved`]. Frame `f`
    /// of every grid point shares one noise realization, and the
    /// interpolated answer is free of bisection's grid quantization.
    ///
    /// Each point still runs under the options' early-stop rules, so
    /// two *different targets* searched this way may average different
    /// frame *sets* per point. For comparison-grade pairing — where the
    /// Monte-Carlo noise must cancel in the difference between two
    /// decoders — measure full curves with [`ber_curve`] (which pins
    /// every point to exactly `max_frames` frames), or disable the
    /// early stops here by setting `min_frames == max_frames` and
    /// `target_errors == u64::MAX`, as the φ-table accuracy gate in
    /// `tests/phi_table.rs` does.
    PairedGrid,
}

impl SearchStrategy {
    /// Parses a CLI spelling (`bisect`, `concurrent`, `paired`; full
    /// names accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bisect" | "bisection" => Some(SearchStrategy::Bisection),
            "concurrent" | "concurrent-bisection" => Some(SearchStrategy::ConcurrentBisection),
            "paired" | "paired-grid" => Some(SearchStrategy::PairedGrid),
            _ => None,
        }
    }

    /// Canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Bisection => "bisect",
            SearchStrategy::ConcurrentBisection => "concurrent",
            SearchStrategy::PairedGrid => "paired",
        }
    }
}

/// Configuration of a required-Eb/N0 search ([`search_required_ebn0`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Search strategy.
    pub strategy: SearchStrategy,
    /// Bracket low edge in dB.
    pub lo_db: f64,
    /// Bracket high edge in dB.
    pub hi_db: f64,
    /// Bisection resolution in dB (ignored by
    /// [`SearchStrategy::PairedGrid`], which interpolates instead).
    pub tol_db: f64,
    /// Interior probes per [`SearchStrategy::ConcurrentBisection`] round
    /// (the bracket shrinks by `probes_per_round + 1` per round).
    pub probes_per_round: usize,
    /// Evenly spaced grid points of [`SearchStrategy::PairedGrid`]
    /// (including both bracket edges).
    pub grid_points: usize,
    /// Confidence multiplier for CI pruning: a concurrent probe stops
    /// early once `|BER − target| > ci_z · stderr`.
    pub ci_z: f64,
    /// Search-level cap on frames per BER point, applied on top of
    /// [`BerSimOptions::max_frames`] (the smaller wins); `u64::MAX`
    /// leaves the options in charge.
    pub max_frames: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            strategy: SearchStrategy::Bisection,
            lo_db: 0.5,
            hi_db: 8.0,
            tol_db: 0.1,
            probes_per_round: 3,
            grid_points: 7,
            ci_z: 2.576,
            max_frames: u64::MAX,
        }
    }
}

impl SearchConfig {
    /// Returns every human-readable problem with the configuration
    /// (empty when valid), so a caller assembling a sweep spec sees all
    /// offending fields at once instead of fixing them one rerun at a
    /// time. The single source of truth shared by
    /// [`search_required_ebn0`] and system-level config validation.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // `cmp` spellings chosen so NaN fails validation too.
        if self.lo_db.partial_cmp(&self.hi_db) != Some(std::cmp::Ordering::Less) {
            problems.push(format!(
                "search bracket [{}, {}] dB must be non-empty",
                self.lo_db, self.hi_db
            ));
        }
        if self.tol_db.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            let tol = self.tol_db;
            problems.push(format!("search tolerance {tol} dB must be positive"));
        }
        if self.probes_per_round == 0 {
            problems.push("concurrent search needs at least one probe per round".into());
        }
        if self.grid_points < 2 {
            let points = self.grid_points;
            problems.push(format!("paired grid needs at least 2 points, got {points}"));
        }
        if self.ci_z.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            let z = self.ci_z;
            problems.push(format!("CI multiplier {z} must be positive"));
        }
        if self.max_frames == 0 {
            problems.push("search frame cap must be at least 1".into());
        }
        problems
    }

    /// The first problem from [`problems`](SearchConfig::problems),
    /// `None` when valid.
    pub fn problem(&self) -> Option<String> {
        self.problems().into_iter().next()
    }

    /// Panics unless the configuration is usable (see
    /// [`problem`](SearchConfig::problem)).
    pub fn validate(&self) {
        if let Some(problem) = self.problem() {
            panic!("{problem}");
        }
    }
}

/// Result of [`search_required_ebn0`]: the outcome plus the evaluated
/// probes (in evaluation order) and the total simulation cost, so
/// callers can report both the answer and what it took.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReport {
    /// The search outcome.
    pub outcome: SearchOutcome,
    /// BER points evaluated.
    pub probes: u64,
    /// Total frames simulated across all probes.
    pub frames: u64,
    /// Every evaluated `(ebn0_db, estimate)` probe, in evaluation order.
    pub curve: Vec<(f64, BerEstimate)>,
}

impl SearchReport {
    fn new() -> Self {
        SearchReport {
            outcome: SearchOutcome::AboveHi,
            probes: 0,
            frames: 0,
            curve: Vec::new(),
        }
    }

    fn record(&mut self, ebn0_db: f64, est: BerEstimate) {
        self.probes += 1;
        self.frames += est.frames;
        self.curve.push((ebn0_db, est));
    }
}

/// Concurrent probes may stop on the CI rule this early; the options'
/// own `min_frames` still applies when smaller. Below this the
/// frame-level variance estimate is too ragged to trust a classification.
const MIN_CI_FRAMES: u64 = 8;

/// Midpoint probes a [`SearchStrategy::PairedGrid`] search may spend to
/// pull a zero-error crossing back into interpolation range before
/// settling for [`SearchOutcome::Unresolved`].
const PAIRED_REFINEMENTS: u32 = 3;

/// CI classification rule of [`SearchStrategy::ConcurrentBisection`]:
/// true once the probe's confidence interval excludes `target_ber`.
///
/// The variance of the total error count is the *measured* frame-level
/// variance (window decoders fail in bursts — per-bit binomial bars
/// would prune far too eagerly) floored by the Poisson variance
/// `target_ber · bits` expected if the true BER equalled the target:
/// the floor is what keeps a run of zero-error frames (measured
/// variance 0) from claiming certainty before the bit budget could
/// possibly resolve the target.
fn ci_classified(fold: &FrameStats, target_ber: f64, ci_z: f64) -> bool {
    if fold.frames < 2 || fold.bits == 0 {
        return false;
    }
    let est = BerEstimate::from_stats(*fold);
    let bits = fold.bits as f64;
    let measured = est.frame_error_variance() * fold.frames as f64;
    let stderr = measured.max(target_ber * bits).sqrt() / bits;
    (est.ber - target_ber).abs() > ci_z * stderr
}

/// Searches the smallest Eb/N0 at which `target` reaches `target_ber`,
/// fanning work out over [`par::threads`] workers. See [`SearchConfig`] for
/// the strategies; results are deterministic and thread-count invariant
/// for every strategy.
///
/// # Panics
///
/// Panics if `search` or the frame budget is invalid (see
/// [`SearchConfig::problem`] and [`BerSimOptions::problems`]) or
/// `target_ber` is not positive.
pub fn search_required_ebn0(
    target: &dyn BerTarget,
    target_ber: f64,
    opts: &BerSimOptions,
    search: &SearchConfig,
) -> SearchReport {
    search_required_ebn0_with_threads(target, target_ber, opts, search, par::threads())
}

/// [`search_required_ebn0`] with an explicit worker-thread count.
pub fn search_required_ebn0_with_threads(
    target: &dyn BerTarget,
    target_ber: f64,
    opts: &BerSimOptions,
    search: &SearchConfig,
    threads: usize,
) -> SearchReport {
    opts.validate();
    search.validate();
    assert!(target_ber > 0.0, "target BER must be positive");
    let mut report = SearchReport::new();
    match search.strategy {
        SearchStrategy::Bisection => {
            report.outcome = required_ebn0_db(
                |ebn0_db| {
                    let est = run_target(
                        target,
                        ebn0_db,
                        opts.seed,
                        threads,
                        FrameBudget::from_opts(opts, search.max_frames),
                        &mut |_| false,
                    );
                    report.record(ebn0_db, est);
                    est.ber
                },
                target_ber,
                search.lo_db,
                search.hi_db,
                search.tol_db,
            );
        }
        SearchStrategy::ConcurrentBisection => {
            concurrent_bisection(target, target_ber, opts, search, threads, &mut report);
        }
        SearchStrategy::PairedGrid => {
            let probe = |ebn0_db: f64, report: &mut SearchReport| -> f64 {
                let est = run_target(
                    target,
                    ebn0_db,
                    opts.seed,
                    threads,
                    FrameBudget::from_opts(opts, search.max_frames),
                    &mut |_| false,
                );
                report.record(ebn0_db, est);
                est.ber
            };
            let step = (search.hi_db - search.lo_db) / (search.grid_points - 1) as f64;
            let mut curve: Vec<(f64, f64)> = Vec::with_capacity(search.grid_points);
            report.outcome = SearchOutcome::AboveHi;
            for i in 0..search.grid_points {
                // Hit the high edge exactly (no accumulated rounding).
                let ebn0_db = if i + 1 == search.grid_points {
                    search.hi_db
                } else {
                    search.lo_db + step * i as f64
                };
                let ber = probe(ebn0_db, &mut report);
                curve.push((ebn0_db, ber));
                // Stop as soon as the partial curve resolves the target:
                // the points above the crossing — the expensive low-BER
                // ones — are never simulated.
                match log_linear_required_ebn0(&curve, target_ber) {
                    SearchOutcome::AboveHi => continue,
                    resolved => {
                        report.outcome = resolved;
                        break;
                    }
                }
            }
            // A crossing into a zero-error point means the frame budget
            // could not see errors at that grid spacing — refine by
            // probing midpoints of the unresolved pair (still common
            // random numbers) until the interpolation has a positive
            // right endpoint or the refinement budget runs out.
            let mut refinements = 0;
            while let SearchOutcome::Unresolved { best } = report.outcome {
                if refinements >= PAIRED_REFINEMENTS {
                    break;
                }
                refinements += 1;
                let i = curve
                    .iter()
                    .position(|&(e, _)| e == best)
                    .expect("unresolved endpoint came from the curve");
                assert!(i > 0, "a crossing pair has a left endpoint");
                let mid = 0.5 * (curve[i - 1].0 + best);
                let ber = probe(mid, &mut report);
                curve.insert(i, (mid, ber));
                report.outcome = log_linear_required_ebn0(&curve, target_ber);
            }
        }
    }
    report
}

/// [`SearchStrategy::ConcurrentBisection`]: bracket like bisection, but
/// probe `probes_per_round` interior points per round — concurrently,
/// one thread share each — and prune every probe by CI as soon as it is
/// classified against the target.
fn concurrent_bisection(
    target: &dyn BerTarget,
    target_ber: f64,
    opts: &BerSimOptions,
    search: &SearchConfig,
    threads: usize,
    report: &mut SearchReport,
) {
    // Probes may stop on the CI rule well before the options' min-frame
    // budget — the CI already guards against lucky exits.
    let min_frames = opts.min_frames.min(MIN_CI_FRAMES);
    let classify = |ebn0_db: f64, probe_threads: usize| -> BerEstimate {
        run_target(
            target,
            ebn0_db,
            opts.seed,
            probe_threads,
            FrameBudget {
                min_frames,
                ..FrameBudget::from_opts(opts, search.max_frames)
            },
            &mut |fold| ci_classified(fold, target_ber, search.ci_z),
        )
    };

    let hi_est = classify(search.hi_db, threads);
    report.record(search.hi_db, hi_est);
    if hi_est.ber > target_ber {
        report.outcome = SearchOutcome::AboveHi;
        return;
    }
    let lo_est = classify(search.lo_db, threads);
    report.record(search.lo_db, lo_est);
    if lo_est.ber <= target_ber {
        report.outcome = SearchOutcome::BelowLo;
        return;
    }

    let mut lo = search.lo_db;
    let mut hi = search.hi_db;
    while hi - lo > search.tol_db {
        // No point probing finer than the remaining bracket needs.
        let useful = ((hi - lo) / search.tol_db).ceil() as usize;
        let k = search.probes_per_round.min(useful.saturating_sub(1)).max(1);
        let points: Vec<f64> = (1..=k)
            .map(|i| lo + (hi - lo) * i as f64 / (k + 1) as f64)
            .collect();
        par::ordered(
            &mut vec![(); threads.clamp(1, k)],
            k,
            |_, i| classify(points[i], (threads / k).max(1)),
            |i, est| {
                report.record(points[i], est);
                ControlFlow::Continue(())
            },
        );
        // Monotone-BER bracket update: the leftmost at-or-below-target
        // probe becomes the new hi; its left neighbour (above target by
        // leftmost-ness) the new lo.
        let round = &report.curve[report.curve.len() - k..];
        match round.iter().position(|&(_, est)| est.ber <= target_ber) {
            Some(i) => {
                hi = round[i].0;
                if i > 0 {
                    lo = round[i - 1].0;
                }
            }
            None => lo = round[k - 1].0,
        }
    }
    report.outcome = SearchOutcome::Found(hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_reference_values() {
        // Rate 1/2, Eb/N0 = 3 dB: σ² = 1/(2·0.5·10^0.3) ≈ 0.5012.
        let s = ebn0_db_to_sigma(3.0, 0.5);
        assert!((s * s - 0.5012).abs() < 1e-3, "{s}");
        // Uncoded, 0 dB: σ² = 0.5.
        let s0 = ebn0_db_to_sigma(0.0, 1.0);
        assert!((s0 * s0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ber_decreases_with_ebn0() {
        let code = CoupledCode::paper_cc(20, 10, 1);
        let target = CoupledBerTarget::new(&code, WindowDecoder::new(4, 12));
        let opts = BerSimOptions {
            max_frames: 30,
            min_frames: 30,
            ..Default::default()
        };
        let low = simulate_ber(&target, 1.0, &opts);
        let high = simulate_ber(&target, 4.0, &opts);
        assert!(
            high.ber < low.ber,
            "BER should drop: {} -> {}",
            low.ber,
            high.ber
        );
    }

    #[test]
    fn block_code_ber_reasonable_at_high_snr() {
        let code = LdpcCode::paper_block(50, 21);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            max_frames: 40,
            min_frames: 40,
            ..Default::default()
        };
        let est = simulate_ber(&target, 5.0, &opts);
        assert!(est.ber < 1e-2, "BER {}", est.ber);
        assert_eq!(est.frames, 40);
        assert_eq!(est.bits, 40 * 100);
    }

    #[test]
    fn estimates_are_deterministic() {
        let code = CoupledCode::paper_cc(15, 8, 2);
        let target = CoupledBerTarget::new(&code, WindowDecoder::new(3, 10));
        let opts = BerSimOptions {
            max_frames: 10,
            min_frames: 10,
            ..Default::default()
        };
        let a = simulate_ber(&target, 2.5, &opts);
        let b = simulate_ber(&target, 2.5, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let code = LdpcCode::paper_block(30, 3);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            target_errors: 40,
            max_frames: 60,
            min_frames: 4,
            seed: 0xABCD,
        };
        let serial = simulate_ber_with_threads(&target, 2.0, &opts, 1);
        for threads in [2, 3, 8] {
            let par = simulate_ber_with_threads(&target, 2.0, &opts, threads);
            assert_eq!(serial, par, "thread count {threads} changed the result");
        }
    }

    #[test]
    fn cc_parallel_matches_serial_bit_for_bit() {
        let code = CoupledCode::paper_cc(15, 8, 4);
        let target = CoupledBerTarget::new(&code, WindowDecoder::new(3, 10));
        let opts = BerSimOptions {
            target_errors: 25,
            max_frames: 24,
            min_frames: 2,
            seed: 0x77,
        };
        let serial = simulate_ber_with_threads(&target, 2.0, &opts, 1);
        for threads in [2, 5] {
            let par = simulate_ber_with_threads(&target, 2.0, &opts, threads);
            assert_eq!(serial, par, "thread count {threads} changed the result");
        }
    }

    #[test]
    fn estimate_carries_frame_level_uncertainty() {
        let code = LdpcCode::paper_block(30, 3);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            target_errors: u64::MAX,
            max_frames: 40,
            min_frames: 40,
            seed: 0xC1,
        };
        let est = simulate_ber(&target, 1.5, &opts);
        assert!(est.bit_errors > 0, "waterfall point should have errors");
        assert!(est.stderr() > 0.0);
        let (lo, hi) = est.ci(1.96);
        assert!(
            lo >= 0.0 && lo < est.ber && est.ber < hi,
            "{lo} {} {hi}",
            est.ber
        );
        // Zero-error estimates degrade gracefully.
        let clean = BerEstimate::from_stats(FrameStats::default());
        assert_eq!(clean.stderr(), 0.0);
        assert_eq!(clean.ci(2.0), (0.0, 0.0));
    }

    #[test]
    fn ber_curve_uses_common_random_numbers() {
        let code = LdpcCode::paper_block(25, 9);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            target_errors: 5, // ignored: curves always run max_frames
            max_frames: 12,
            min_frames: 1,
            seed: 0xCC,
        };
        let curve = ber_curve(&target, &[1.0, 2.0, 3.0], &opts);
        assert_eq!(curve.len(), 3);
        for (_, est) in &curve {
            assert_eq!(est.frames, 12, "early stops must be disabled");
        }
        // Same seed ⇒ re-measuring one point reproduces the curve's.
        let point = ber_curve(&target, &[2.0], &opts);
        assert_eq!(point[0], curve[1]);
    }

    #[test]
    fn workspace_recovers_from_target_kind_change() {
        let bc = LdpcCode::paper_block(20, 2);
        let cc = CoupledCode::paper_cc(10, 6, 3);
        let block = BlockBerTarget::new(&bc, BpConfig::default(), 0.5);
        let coupled = CoupledBerTarget::new(&cc, WindowDecoder::new(3, 5));
        let mut ws = BerWorkspace::new();
        let a = block.eval_frames(&mut ws, 2.0, 7, 0..2);
        let b = coupled.eval_frames(&mut ws, 2.0, 7, 0..2);
        let a_again = block.eval_frames(&mut ws, 2.0, 7, 0..2);
        assert_eq!(a, a_again, "state swap must not corrupt results");
        assert_eq!(b.frames, 2);
    }

    #[test]
    fn bisection_on_analytic_curve() {
        // Mock BER curve: 10^(-x) hits 1e-3 at exactly x = 3.
        let found = required_ebn0_db(|x| 10f64.powf(-x), 1e-3, 0.0, 6.0, 0.01)
            .found()
            .expect("bracketed");
        assert!((found - 3.0).abs() < 0.02, "{found}");
    }

    #[test]
    fn bisection_reports_unbracketed_sides() {
        assert_eq!(
            required_ebn0_db(|_| 1e-2, 1e-5, 0.0, 5.0, 0.1),
            SearchOutcome::AboveHi,
            "target below reach"
        );
        assert_eq!(
            required_ebn0_db(|_| 1e-9, 1e-5, 0.0, 5.0, 0.1),
            SearchOutcome::BelowLo,
            "already satisfied at lo"
        );
        assert_eq!(SearchOutcome::AboveHi.value(), None);
        assert_eq!(SearchOutcome::Unresolved { best: 2.0 }.value(), Some(2.0));
        assert_eq!(SearchOutcome::Unresolved { best: 2.0 }.found(), None);
    }

    #[test]
    fn log_linear_interpolates_and_classifies() {
        let curve = [(1.0, 1e-1), (2.0, 1e-2), (3.0, 1e-3)];
        // Exact grid hit.
        match log_linear_required_ebn0(&curve, 1e-2) {
            SearchOutcome::Found(v) => assert!((v - 2.0).abs() < 1e-12, "{v}"),
            other => panic!("{other:?}"),
        }
        // Geometric midpoint of a log-linear segment is the dB midpoint.
        match log_linear_required_ebn0(&curve, 10f64.powf(-1.5)) {
            SearchOutcome::Found(v) => assert!((v - 1.5).abs() < 1e-12, "{v}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            log_linear_required_ebn0(&curve, 0.5),
            SearchOutcome::BelowLo
        );
        assert_eq!(
            log_linear_required_ebn0(&curve, 1e-6),
            SearchOutcome::AboveHi
        );
        assert_eq!(
            log_linear_required_ebn0(&[(1.0, 1e-1), (2.0, 0.0)], 1e-3),
            SearchOutcome::Unresolved { best: 2.0 }
        );
        assert_eq!(log_linear_required_ebn0(&[], 1e-3), SearchOutcome::AboveHi);
    }

    #[test]
    fn search_strategy_parses_cli_spellings() {
        assert_eq!(
            SearchStrategy::parse("bisect"),
            Some(SearchStrategy::Bisection)
        );
        assert_eq!(
            SearchStrategy::parse("concurrent"),
            Some(SearchStrategy::ConcurrentBisection)
        );
        assert_eq!(
            SearchStrategy::parse("paired-grid"),
            Some(SearchStrategy::PairedGrid)
        );
        assert_eq!(SearchStrategy::parse("nope"), None);
        assert_eq!(SearchStrategy::PairedGrid.name(), "paired");
    }

    #[test]
    fn search_config_validation() {
        assert_eq!(SearchConfig::default().problem(), None);
        let bad_bracket = SearchConfig {
            lo_db: 3.0,
            hi_db: 3.0,
            ..SearchConfig::default()
        };
        assert!(bad_bracket.problem().unwrap().contains("bracket"));
        let bad_grid = SearchConfig {
            grid_points: 1,
            ..SearchConfig::default()
        };
        assert!(bad_grid.problem().unwrap().contains("grid"));
        let bad_z = SearchConfig {
            ci_z: 0.0,
            ..SearchConfig::default()
        };
        assert!(bad_z.problem().unwrap().contains("CI"));
        let bad_probes = SearchConfig {
            probes_per_round: 0,
            ..SearchConfig::default()
        };
        assert!(bad_probes.problem().is_some());
        let bad_cap = SearchConfig {
            max_frames: 0,
            ..SearchConfig::default()
        };
        assert!(bad_cap.problem().is_some());
    }

    #[test]
    fn early_exit_on_target_errors() {
        let code = CoupledCode::paper_cc(15, 8, 3);
        let target = CoupledBerTarget::new(&code, WindowDecoder::new(3, 8));
        let opts = BerSimOptions {
            target_errors: 5,
            max_frames: 1000,
            min_frames: 1,
            seed: 1,
        };
        // At very low Eb/N0 errors arrive immediately.
        let est = simulate_ber(&target, -2.0, &opts);
        assert!(est.frames < 1000, "should stop early, ran {}", est.frames);
        assert!(est.bit_errors >= 5);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn bad_rate_panics() {
        ebn0_db_to_sigma(3.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn bad_target_rate_panics() {
        let code = LdpcCode::paper_block(10, 1);
        BlockBerTarget::new(&code, BpConfig::default(), 1.5);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn invalid_search_config_panics() {
        let code = LdpcCode::paper_block(10, 1);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let search = SearchConfig {
            lo_db: 5.0,
            hi_db: 1.0,
            ..SearchConfig::default()
        };
        search_required_ebn0(&target, 1e-2, &BerSimOptions::default(), &search);
    }

    #[test]
    fn search_config_collects_every_problem() {
        let bad = SearchConfig {
            lo_db: 5.0,
            hi_db: 1.0,
            tol_db: -0.5,
            grid_points: 1,
            ..SearchConfig::default()
        };
        let problems = bad.problems();
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert_eq!(bad.problem().as_deref(), Some(problems[0].as_str()));
        assert!(SearchConfig::default().problems().is_empty());
    }

    #[test]
    fn sim_options_report_empty_and_inverted_budgets() {
        assert!(BerSimOptions::default().problems().is_empty());
        let exact = BerSimOptions {
            min_frames: 24,
            max_frames: 24,
            ..BerSimOptions::default()
        };
        assert!(exact.problems().is_empty());
        let empty = BerSimOptions {
            max_frames: 0,
            min_frames: 0,
            ..BerSimOptions::default()
        };
        assert_eq!(empty.problems(), ["max_frames must be at least 1"]);
        let inverted = BerSimOptions {
            max_frames: 5,
            ..BerSimOptions::default()
        };
        assert_eq!(inverted.problems(), ["min_frames 8 exceeds max_frames 5"]);
    }

    #[test]
    #[should_panic(expected = "max_frames must be at least 1")]
    fn simulate_ber_rejects_an_empty_frame_budget() {
        let code = LdpcCode::paper_block(10, 1);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            max_frames: 0,
            min_frames: 0,
            ..BerSimOptions::default()
        };
        simulate_ber_with_threads(&target, -5.0, &opts, 1);
    }

    #[test]
    #[should_panic(expected = "max_frames must be at least 1")]
    fn ber_curve_rejects_an_empty_frame_budget() {
        let code = LdpcCode::paper_block(10, 1);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            max_frames: 0,
            min_frames: 0,
            ..BerSimOptions::default()
        };
        ber_curve_with_threads(&target, &[1.0, 2.0], &opts, 1);
    }

    #[test]
    #[should_panic(expected = "min_frames 8 exceeds max_frames 5")]
    fn search_rejects_a_floor_above_the_frame_cap() {
        let code = LdpcCode::paper_block(10, 1);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let opts = BerSimOptions {
            max_frames: 5,
            ..BerSimOptions::default()
        };
        search_required_ebn0_with_threads(&target, 1e-2, &opts, &SearchConfig::default(), 1);
    }

    /// Every piece of a round as `(first, len)`.
    fn dealt(base: u64, end: u64, threads: u64, width: u64) -> Vec<(u64, usize)> {
        let round = Round::new(base, end, threads, width);
        (0..round.pieces()).map(|k| round.piece(k)).collect()
    }

    #[test]
    fn rounds_deal_whole_waves_then_an_even_tail() {
        assert_eq!(dealt(0, 20, 2, 8), [(0, 8), (8, 8), (16, 2), (18, 2)]);
        assert_eq!(dealt(0, 20, 1, 8), [(0, 8), (8, 8), (16, 4)]);
        assert_eq!(dealt(0, 20, 4, 8), [(0, 5), (5, 5), (10, 5), (15, 5)]);
        assert_eq!(dealt(52, 60, 2, 8), [(52, 4), (56, 4)]);
        assert_eq!(dealt(7, 10, 4, 8), [(7, 1), (8, 1), (9, 1)]);
        assert_eq!(dealt(0, 7, 3, 2), [(0, 2), (2, 2), (4, 2), (6, 1)]);
        assert_eq!(dealt(3, 3, 2, 8), []);
        for (base, end, threads, width) in [(0, 48, 3, 8), (20, 52, 2, 8), (5, 77, 5, 4)] {
            let pieces = dealt(base, end, threads, width);
            let mut next = base;
            for &(first, len) in &pieces {
                assert_eq!(first, next, "pieces must tile the round");
                assert!(len >= 1 && len as u64 <= width);
                next += len as u64;
            }
            assert_eq!(next, end);
        }
    }

    #[test]
    fn cached_target_is_bit_identical_and_then_all_hits() {
        let code = CoupledCode::paper_cc(15, 10, 3);
        let target = CoupledBerTarget::new(&code, WindowDecoder::new(4, 10)).with_batch(4);
        let opts = BerSimOptions {
            target_errors: 60,
            max_frames: 40,
            min_frames: 10,
            seed: 0xCAC4E,
        };
        let search = SearchConfig {
            tol_db: 0.5,
            ..SearchConfig::default()
        };
        let plain = search_required_ebn0_with_threads(&target, 1e-2, &opts, &search, 2);

        let cache = MemoryFrameCache::new();
        let cached = CachedBerTarget::new(&target, &cache);
        let cold = search_required_ebn0_with_threads(&cached, 1e-2, &opts, &search, 2);
        assert_eq!(plain, cold, "cache wrapper must not perturb the search");
        let (h0, m0) = cache.counters();
        assert!(m0 > 0, "cold run must populate the cache");

        let warm = search_required_ebn0_with_threads(&cached, 1e-2, &opts, &search, 2);
        assert_eq!(plain, warm, "warm run must reproduce the report exactly");
        let (h1, m1) = cache.counters();
        assert_eq!(m1, m0, "warm run must simulate nothing new");
        assert!(h1 > h0, "warm run must be served from the cache");
    }

    #[test]
    fn cached_target_interleaves_hits_and_misses() {
        // Pre-warm odd frames only, then evaluate a full range: the
        // wrapper must stitch cached and simulated frames into the same
        // stats the bare target produces, at any batch width.
        let code = LdpcCode::paper_block(30, 5);
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5).with_batch(4);
        let cache = MemoryFrameCache::new();
        let mut ws = BerWorkspace::new();
        let bare = target.eval_frames(&mut ws, 2.0, 7, 0..33);
        let key = ebn0_key(2.0);
        for f in (1..33).step_by(2) {
            let mut one = [FrameStats::default()];
            target.eval_frames_each(&mut ws, 2.0, 7, f, &mut one);
            cache.put(key, 7, f, one[0]);
        }
        let cached = CachedBerTarget::new(&target, &cache);
        let stitched = cached.eval_frames(&mut ws, 2.0, 7, 0..33);
        assert_eq!(bare, stitched);
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (16, 17));
    }
}
