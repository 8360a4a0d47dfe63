//! Inter-frame batched decoding: several frames in SIMD lockstep.
//!
//! Every Monte-Carlo BER probe decodes thousands of *independent* frames
//! through the same code, rule and iteration budget. This module decodes
//! `lanes` of them at once with all message state in structure-of-arrays
//! layout — `[edge][lane]`, lane = frame — so the lane-array kernels in
//! [`crate::kernel`] (`min_sum_batch`, `sum_product_table_batch`,
//! `sum_product_exact_batch`) present LLVM with uniform, branch-free
//! inner loops over `[f64; L]` that auto-vectorize on stable rust.
//!
//! This is the crate's one decoder engine, and [`BatchWorkspace`] is
//! its one state: both schedules, flooding BP and the sliding window,
//! decode in it, and one workspace may alternate between them. The
//! one-frame decoders, [`BpDecoder::decode_in_place`] and
//! [`WindowDecoder::decode_in_place`], decode their frame as a one-lane
//! batch, and the BER layer
//! ([`crate::ber`]) drives it through `BerTarget::eval_frames_each`: full
//! batches of the target's width, then the remainder at the widest
//! supported width that fits (4, then 2, then 1). Search strategies,
//! thread fan-out and the co-sim FER cache therefore inherit its speed
//! with unchanged results. Only the naive oracles,
//! [`decoder::reference`](crate::decoder::reference) and
//! [`window::reference`](crate::window::reference), decode any other
//! way.
//!
//! # The bit-identity contract
//!
//! Each lane of a batched decode is **bit-identical** to the naive
//! oracle's decode of that frame, under all four `CheckRule`
//! configurations, pinned by `tests/batch_equivalence.rs`. Two rules make
//! this hold:
//!
//! * **Lane masking** ([`BpDecoder::decode_batch`]): BP stops a frame at
//!   convergence, so lanes stop at different iterations. In the
//!   flooding schedule everything *after* the check update is a pure
//!   function of `(channel, c2v)`; a converged lane therefore only needs
//!   its posterior/hard **writes** masked (a conditional select of the
//!   old value — never an arithmetic blend, which would rewrite `-0.0`
//!   to `+0.0`). The check kernels take the active lanes as their mask:
//!   a frozen lane's messages are never observed again, so it stops
//!   paying for `tanh`/`atanh` or φ lookups.
//! * **Recompute only what changed** ([`WindowDecoder::decode_batch`]):
//!   the window decoder runs a *fixed* iteration count with a
//!   lane-independent schedule (activation, window sweep, decide-and-pin
//!   are structurally identical across lanes), and decided blocks are
//!   pinned at `±LLR_CLAMP`, so many checks see the same inputs
//!   iteration after iteration. A check's c2v is a pure function of its
//!   v2c inputs, so the decoder keeps `seen`, per edge and lane, the v2c
//!   value the current c2v was computed from, and recomputes a check
//!   only on lanes where some input differs from it bit for bit
//!   (`kernel::changed_lanes_batch`). An activated check has its c2v
//!   cleared and `seen` set to `+∞`, which no clamped v2c can equal.
//!   A flooding iteration is a pure function of the v2c array, so once
//!   no check changed on any lane the position has reached its fixed
//!   point, and the remaining iterations are skipped. The first
//!   iteration of a position always runs: under the reuse schedule the
//!   inputs can be unchanged while the posterior still has to take in
//!   the block pinned at the previous position. Skipped work would have
//!   produced the same bits, so every lane stays bit-identical to
//!   [`window::reference`](crate::window::reference), which updates
//!   every check in every iteration.

use crate::code::LdpcCode;
use crate::decoder::{update_checks_batch, BpDecoder, CheckRule, DecodeStatus, LLR_CLAMP};
use crate::kernel::{
    changed_lanes_batch, clamp_batch, gather_clamp_batch, hard_decisions_batch,
    masked_commit_batch, scatter_add_batch, v2c_update_batch, ExactBatchScratch, PhiTable,
};
use crate::window::{CoupledCode, WindowDecoder};

/// Largest supported lane count (frames per batch). Lane masks are `u8`
/// bitmaps, and wider batches would only add register pressure beyond
/// the widest f64 vector unit in sight.
pub const MAX_LANES: usize = 8;

/// Default lane count of the batched BER targets: full width — the
/// bit-identity contract makes the batched path safe to prefer.
pub const DEFAULT_LANES: usize = 8;

/// Validates a lane count, [`None`] when usable. The batched decoders
/// are compiled for lane counts 1, 2, 4 and 8 (monomorphized so the
/// lane loops unroll); anything else is a configuration error.
pub fn lanes_problem(lanes: usize) -> Option<String> {
    if matches!(lanes, 1 | 2 | 4 | 8) {
        None
    } else {
        Some(format!("batch width {lanes} is not one of 1, 2, 4, 8"))
    }
}

/// Dispatches a runtime lane count to the monomorphized `<const L>`
/// implementation.
macro_rules! dispatch_lanes {
    ($lanes:expr, $func:ident($($args:expr),* $(,)?)) => {
        match $lanes {
            1 => $func::<1>($($args),*),
            2 => $func::<2>($($args),*),
            4 => $func::<4>($($args),*),
            8 => $func::<8>($($args),*),
            other => panic!(
                "{}",
                lanes_problem(other).unwrap_or_else(|| "unreachable".into())
            ),
        }
    };
}

/// Views a flat structure-of-arrays buffer (`len·L` scalars) as
/// lane-array chunks.
#[inline]
fn chunks<const L: usize>(flat: &[f64]) -> &[[f64; L]] {
    let (c, rest) = flat.as_chunks::<L>();
    debug_assert!(rest.is_empty(), "SoA buffer not a multiple of the lanes");
    c
}

/// Mutable counterpart of [`chunks`].
#[inline]
fn chunks_mut<const L: usize>(flat: &mut [f64]) -> &mut [[f64; L]] {
    let (c, rest) = flat.as_chunks_mut::<L>();
    debug_assert!(rest.is_empty(), "SoA buffer not a multiple of the lanes");
    c
}

/// Reusable structure-of-arrays state of the lane engine, for both
/// schedules ([`BpDecoder::decode_batch`] and
/// [`WindowDecoder::decode_batch`]): `lanes` frames of LLR/message/
/// posterior state interleaved lane-minor (`buffer[i·lanes + lane]`),
/// plus per-lane iteration/convergence results of the last BP decode.
/// Construct once and reuse across batches of either schedule —
/// decoding then performs no heap allocation.
///
/// [`new`](Self::new) and [`ensure`](Self::ensure) size the state both
/// schedules use. The buffers only one schedule reads are sized by that
/// schedule's `decode_batch` — BP's `post_new` and straggler workspace,
/// the window decoder's `seen` and `active` — so a workspace that only
/// ever runs one schedule never allocates the other's.
#[derive(Clone, Debug, Default)]
pub struct BatchWorkspace {
    lanes: usize,
    n: usize,
    /// Channel LLRs, `[variable][lane]`. The window decoder overwrites
    /// decided blocks with saturated pins, so every lane is reloaded
    /// before each decode.
    llr: Vec<f64>,
    /// Variable-to-check messages, `[edge][lane]`.
    v2c: Vec<f64>,
    /// Check-to-variable messages, `[edge][lane]`.
    c2v: Vec<f64>,
    /// Posteriors, `[variable][lane]`. Under BP, frozen lanes keep the
    /// value from their convergence iteration.
    posterior: Vec<f64>,
    /// Hard decisions as per-variable lane bitmasks (bit `l` = lane `l`).
    hard: Vec<u8>,
    /// Per-check lane masks handed to the check kernels: the lanes to
    /// recompute (BP's active lanes; the window decoder's lanes whose
    /// v2c moved since their c2v was computed).
    masks: Vec<u8>,
    /// φ-table kernel scratch, `[degree][lane]`.
    scratch: Vec<f64>,
    /// Exact sum-product kernel scratch: per-edge `tanh` factors and its
    /// gather lists.
    exact: ExactBatchScratch,
    /// φ lookup table (built lazily, only for the table rule).
    phi: PhiTable,
    /// BP: freshly accumulated posteriors before the masked commit (the
    /// in-place accumulation would otherwise destroy frozen lanes).
    post_new: Vec<f64>,
    /// BP: one-lane workspace for the straggler bail-out, built when
    /// `lanes > 1`. Boxed, because it is a `BatchWorkspace` itself.
    straggler: Option<Box<BatchWorkspace>>,
    /// BP: iterations each lane ran (the count of a decode of that frame
    /// alone).
    iterations: [usize; MAX_LANES],
    /// BP: lanes whose final syndrome was zero, as a bitmask.
    converged: u8,
    /// Window: the v2c inputs each active check's current c2v was
    /// computed from, `[edge][lane]`; `+∞` (which no clamped v2c can
    /// equal) right after activation, when c2v is cleared rather than
    /// computed.
    seen: Vec<f64>,
    /// Window: whether each check holds valid persisted messages
    /// (lane-shared — the window schedule is lane-independent).
    active: Vec<bool>,
}

impl BatchWorkspace {
    /// Allocates buffers for `lanes` frames of `code`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn new(code: &LdpcCode, lanes: usize) -> Self {
        let mut ws = BatchWorkspace::default();
        ws.ensure(code, lanes);
        ws
    }

    /// Resizes the buffers for `code` and `lanes` (no-op when already
    /// sized).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn ensure(&mut self, code: &LdpcCode, lanes: usize) {
        if let Some(problem) = lanes_problem(lanes) {
            panic!("{problem}");
        }
        let e = code.num_edges();
        let n = code.len();
        let d = code.max_check_degree();
        self.lanes = lanes;
        self.n = n;
        self.llr.resize(n * lanes, 0.0);
        self.v2c.resize(e * lanes, 0.0);
        self.c2v.resize(e * lanes, 0.0);
        self.posterior.resize(n * lanes, 0.0);
        self.hard.resize(n, 0);
        self.masks.resize(code.num_checks(), 0);
        self.scratch.resize(d * lanes, 0.0);
        self.exact.ensure(e, d, lanes);
    }

    /// The prologue of both schedules' `decode_batch`: re-sizes the
    /// shared state for `code` at the loaded lane count and builds the φ
    /// table when `rule` reads it. Returns the lane count.
    fn prepare(&mut self, code: &LdpcCode, rule: CheckRule) -> usize {
        assert_eq!(self.n, code.len(), "workspace sized for a different code");
        self.ensure(code, self.lanes);
        if let CheckRule::SumProductTable { bits } = rule {
            self.phi.ensure(bits);
        }
        self.lanes
    }

    /// The lane count the workspace is sized for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Loads one frame's channel LLRs into `lane`. Reload every lane
    /// before each decode — the window decoder pins decided blocks in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `llr` does not match the code
    /// length the workspace was sized for.
    pub fn set_lane_llr(&mut self, lane: usize, llr: &[f64]) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        assert_eq!(llr.len(), self.n, "LLR length mismatch");
        for (i, &l) in llr.iter().enumerate() {
            self.llr[i * self.lanes + lane] = l;
        }
    }

    /// Hard decision for variable `v` on `lane` (true = bit 1).
    pub fn hard_bit(&self, v: usize, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        (self.hard[v] >> lane) & 1 == 1
    }

    /// Number of one-bits in `lane`'s hard decisions — the frame's bit
    /// errors under the all-zero-codeword convention of [`crate::ber`].
    pub fn lane_error_count(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.hard
            .iter()
            .map(|&bits| u64::from((bits >> lane) & 1))
            .sum()
    }

    /// Posterior LLR for variable `v` on `lane`.
    pub fn posterior_at(&self, v: usize, lane: usize) -> f64 {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.posterior[v * self.lanes + lane]
    }

    /// Iteration count and convergence flag of `lane` in the last BP
    /// decode — exactly what a decode of that frame alone returns. A
    /// window decode does not set it.
    pub fn status(&self, lane: usize) -> DecodeStatus {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        DecodeStatus {
            iterations: self.iterations[lane],
            converged: (self.converged >> lane) & 1 == 1,
        }
    }

    /// Posteriors, `[variable][lane]`: at one lane, one per variable.
    pub(crate) fn posteriors(&self) -> &[f64] {
        &self.posterior
    }
}

impl BpDecoder<'_> {
    /// Decodes the `ws.lanes()` frames previously loaded with
    /// [`BatchWorkspace::set_lane_llr`] in SIMD lockstep — zero heap
    /// allocation once the workspace is sized. Each lane's
    /// posterior/hard/status is bit-identical to
    /// [`reference::decode`](crate::decoder::reference::decode) on that
    /// lane's LLRs: converged lanes freeze at exactly the iteration where
    /// a decode of that frame alone stops (see the module docs for the
    /// masking rule).
    ///
    /// # Panics
    ///
    /// Panics if the workspace was sized for a different code length.
    pub fn decode_batch(&self, ws: &mut BatchWorkspace) {
        let code = self.code();
        let lanes = ws.prepare(code, self.config().check_rule);
        ws.post_new.resize(code.len() * lanes, 0.0);
        if lanes > 1 {
            ws.straggler
                .get_or_insert_with(Box::default)
                .ensure(code, 1);
        }
        dispatch_lanes!(lanes, bp_decode_batch_impl(self, ws));
    }
}

/// Per-lane unsatisfied-check bitmask of the current hard decisions: an
/// integer-only pass over the checks (byte XOR fold of the per-variable
/// lane bitmasks).
fn syndrome_batch(offsets: &[u32], edge_var: &[u32], n_checks: usize, hard: &[u8]) -> u8 {
    let mut unsat = 0u8;
    for c in 0..n_checks {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        let mut parity = 0u8;
        for &v in &edge_var[lo..hi] {
            parity ^= hard[v as usize];
        }
        unsat |= parity;
    }
    unsat
}

/// Monomorphized batched BP decode: the
/// [`reference::decode`](crate::decoder::reference::decode) operation
/// sequence per lane, with per-lane convergence masking on the
/// posterior/hard commits.
fn bp_decode_batch_impl<const L: usize>(decoder: &BpDecoder<'_>, ws: &mut BatchWorkspace) {
    let code = decoder.code();
    let config = decoder.config();
    let n_checks = code.num_checks();
    let offsets = code.check_edge_offsets();
    let edge_var = code.edge_vars();

    let llr = chunks::<L>(&ws.llr);
    let v2c = chunks_mut::<L>(&mut ws.v2c);
    let c2v = chunks_mut::<L>(&mut ws.c2v);
    let posterior = chunks_mut::<L>(&mut ws.posterior);
    let post_new = chunks_mut::<L>(&mut ws.post_new);
    let hard = &mut ws.hard[..];
    let masks = &mut ws.masks[..];
    let scratch = chunks_mut::<L>(&mut ws.scratch);

    // v2c from the clamped channel; posterior/hard from the raw channel —
    // the oracle's exact initialization.
    gather_clamp_batch(edge_var, llr, v2c);
    posterior.copy_from_slice(llr);
    hard_decisions_batch(posterior, hard);

    let lane_mask: u8 = if L == 8 { 0xFF } else { (1u8 << L) - 1 };
    // Per-lane unsatisfied-check mask of the *current* hard decisions;
    // a lane leaves `active` the moment its syndrome clears and its
    // posterior/hard never move again — exactly where a decode of that
    // frame alone stops.
    let mut unsat = syndrome_batch(offsets, edge_var, n_checks, hard) & lane_mask;
    let mut active = unsat;
    ws.iterations = [0; MAX_LANES];

    // Straggler bail-out: once fewer than a third of the lanes are still
    // active, every full-width iteration wastes most of the vector work
    // (the batch otherwise runs to the max-over-lanes iteration count).
    // Those lanes finish below with a from-scratch one-lane decode, which
    // decodes each frame alone. The one-third cut was tuned on the
    // BER-eval benchmark at a straggler-heavy operating point; bailing at
    // half re-decodes too many near-converged lanes.
    let mut bailed = 0u8;
    let mut it = 0;
    while it < config.max_iterations && active != 0 {
        if L > 1 && (active.count_ones() as usize) * 3 < L {
            bailed = active;
            break;
        }
        it += 1;
        for (lane, count) in ws.iterations.iter_mut().enumerate().take(L) {
            if (active >> lane) & 1 == 1 {
                *count = it;
            }
        }

        // Check update on the active lanes only: frozen lanes' c2v stay
        // as they were and are never observed again (posterior/hard below
        // select the old value), so they stop paying for the kernel.
        masks.fill(active);
        update_checks_batch::<L>(
            offsets,
            0,
            n_checks,
            masks,
            config.check_rule,
            &ws.phi,
            v2c,
            c2v,
            scratch,
            &mut ws.exact,
        );

        // Posterior accumulation into the scratch buffer (the in-place
        // variant would destroy frozen lanes before the masked commit),
        // then the masked commit and the variable-to-check update. The
        // syndrome is a separate integer-only pass, so these loops
        // vectorize. Frozen lanes write drifted v2c (never observed) but
        // contribute their *frozen* parity, so a converged lane stays
        // converged.
        clamp_batch(llr, post_new);
        scatter_add_batch(edge_var, c2v, post_new);
        masked_commit_batch(active, post_new, posterior, hard);
        v2c_update_batch(edge_var, posterior, c2v, v2c);
        unsat = syndrome_batch(offsets, edge_var, n_checks, hard) & lane_mask;
        active &= unsat;
    }
    ws.converged = lane_mask & !unsat;

    for lane in (0..L).filter(|&lane| (bailed >> lane) & 1 == 1) {
        let one = ws
            .straggler
            .as_deref_mut()
            .expect("ensure builds the straggler workspace when lanes > 1");
        for (x, ch) in one.llr.iter_mut().zip(llr) {
            *x = ch[lane];
        }
        decoder.decode_batch(one);
        for ((p, h), (&sp, &sh)) in posterior
            .iter_mut()
            .zip(hard.iter_mut())
            .zip(one.posterior.iter().zip(&one.hard))
        {
            p[lane] = sp;
            *h = (*h & !(1 << lane)) | ((sh & 1) << lane);
        }
        ws.iterations[lane] = one.iterations[0];
        ws.converged = (ws.converged & !(1 << lane)) | ((one.converged & 1) << lane);
    }
}

impl WindowDecoder {
    /// Window-decodes the `ws.lanes()` frames previously loaded with
    /// [`BatchWorkspace::set_lane_llr`] in SIMD lockstep. Each
    /// lane's decisions are bit-identical to
    /// [`window::reference::decode`](crate::window::reference::decode)
    /// on that lane's LLRs, although a check is recomputed only on lanes
    /// whose inputs changed and a window position ends at its fixed point
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics as [`decode`](WindowDecoder::decode) does, and if the
    /// workspace was sized for a different code length.
    pub fn decode_batch(&self, ws: &mut BatchWorkspace, code: &CoupledCode) {
        self.check_rule.validate();
        let mcc = code.memory();
        assert!(
            self.window > mcc,
            "window {} must exceed the coupling memory {mcc}",
            self.window
        );
        let lanes = ws.prepare(code.code(), self.check_rule);
        ws.seen
            .resize(code.code().num_edges() * lanes, f64::INFINITY);
        ws.active.resize(code.code().num_checks(), false);
        dispatch_lanes!(lanes, window_decode_batch_impl(self, code, ws));
    }
}

/// Monomorphized batched window decode: the
/// [`window::reference::decode`](crate::window::reference::decode)
/// operation sequence per lane, less the check updates whose inputs did
/// not change.
fn window_decode_batch_impl<const L: usize>(
    decoder: &WindowDecoder,
    code: &CoupledCode,
    ws: &mut BatchWorkspace,
) {
    let mcc = code.memory();
    let l = code.num_blocks();
    let block_checks = code.block_checks();
    let offsets = code.code().check_edge_offsets();
    let edge_var = code.code().edge_vars();

    let llr = chunks_mut::<L>(&mut ws.llr);
    let v2c = chunks_mut::<L>(&mut ws.v2c);
    let c2v = chunks_mut::<L>(&mut ws.c2v);
    let seen = chunks_mut::<L>(&mut ws.seen);
    let masks = &mut ws.masks[..];
    let posterior = chunks_mut::<L>(&mut ws.posterior);
    let active = &mut ws.active[..];
    let hard = &mut ws.hard[..];
    let scratch = chunks_mut::<L>(&mut ws.scratch);
    let exact = &mut ws.exact;

    hard.fill(0);
    active.fill(false);

    for t in 0..l {
        let check_lo = t * block_checks;
        let check_hi = ((t + decoder.window).min(l + mcc)) * block_checks;
        if !decoder.reuse_messages {
            active[check_lo..check_hi].fill(false);
        }

        // Activate newly entered checks: v2c from the current working
        // LLRs, c2v cleared — computed from no input, so `seen` is set to
        // a value no v2c can take.
        for c in check_lo..check_hi {
            if !active[c] {
                active[c] = true;
                let lo = offsets[c] as usize;
                let hi = offsets[c + 1] as usize;
                gather_clamp_batch(&edge_var[lo..hi], llr, &mut v2c[lo..hi]);
                c2v[lo..hi].fill([0.0; L]);
                seen[lo..hi].fill([f64::INFINITY; L]);
            }
        }
        let edge_lo = offsets[check_lo] as usize;
        let edge_hi = offsets[check_hi] as usize;
        // Row block i touches variable blocks max(0, i−mcc)..=min(i, L−1),
        // so the window's rows read and write the posterior of blocks
        // max(0, t−mcc)..min(t+W, L) only: the one span refreshed from
        // the working LLRs, at most W+mcc of the L blocks.
        let block_bits = code.block_bits();
        let vars = t.saturating_sub(mcc) * block_bits..(t + decoder.window).min(l) * block_bits;

        posterior[vars.clone()].copy_from_slice(&llr[vars.clone()]);
        for it in 0..decoder.iterations {
            // A flooding iteration is a pure function of v2c (the working
            // LLRs are fixed within a position). Once no check's inputs
            // moved, the iteration would reproduce the previous one bit
            // for bit, and so would every later one: stop. The first
            // iteration always runs, because the posterior still has to
            // take in the LLRs pinned since the last position.
            let changed = changed_lanes_batch(offsets, check_lo, check_hi, v2c, seen, masks);
            if changed == 0 && it > 0 {
                break;
            }
            update_checks_batch::<L>(
                offsets,
                check_lo,
                check_hi,
                masks,
                decoder.check_rule,
                &ws.phi,
                v2c,
                c2v,
                scratch,
                exact,
            );
            posterior[vars.clone()].copy_from_slice(&llr[vars.clone()]);
            scatter_add_batch(
                &edge_var[edge_lo..edge_hi],
                &c2v[edge_lo..edge_hi],
                posterior,
            );
            v2c_update_batch(
                &edge_var[edge_lo..edge_hi],
                posterior,
                &c2v[edge_lo..edge_hi],
                &mut v2c[edge_lo..edge_hi],
            );
        }

        // Decide and pin the target block only.
        for v in code.block_range(t) {
            let p = &posterior[v];
            let mut bits = 0u8;
            for lane in 0..L {
                let b = p[lane] < 0.0;
                bits |= u8::from(b) << lane;
                llr[v][lane] = if b { -LLR_CLAMP } else { LLR_CLAMP };
            }
            hard[v] = bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::BpConfig;

    /// Loads the same frame into every lane of a fresh workspace.
    fn loaded(code: &LdpcCode, lanes: usize) -> BatchWorkspace {
        let mut ws = BatchWorkspace::new(code, lanes);
        for lane in 0..lanes {
            ws.set_lane_llr(lane, &vec![1.0; code.len()]);
        }
        ws
    }

    #[test]
    fn each_schedule_sizes_only_its_own_buffers() {
        let block = LdpcCode::paper_block(10, 1);
        let mut bp_only = loaded(&block, 8);
        BpDecoder::new(&block, BpConfig::default()).decode_batch(&mut bp_only);
        assert!(bp_only.seen.is_empty() && bp_only.active.is_empty());
        assert!(!bp_only.post_new.is_empty() && bp_only.straggler.is_some());

        let coupled = CoupledCode::paper_cc(10, 6, 3);
        let mut window_only = loaded(coupled.code(), 8);
        WindowDecoder::new(3, 5).decode_batch(&mut window_only, &coupled);
        assert!(window_only.post_new.is_empty() && window_only.straggler.is_none());
        assert!(!window_only.seen.is_empty() && !window_only.active.is_empty());
    }
}
