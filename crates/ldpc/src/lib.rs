//! Low-latency error-correction coding — §V of the DATE'13 paper.
//!
//! The paper's argument: convolutional codes win at low latency, LDPC block
//! codes win at high latency, and **LDPC convolutional codes (LDPC-CC) with
//! sliding-window decoding combine both advantages**. The *structural
//! latency* — how many information bits the decoder must wait for before it
//! can decide, a property of the coding scheme independent of
//! implementation — is `T_WD = W·N·nv·R` for a window decoder (Eq. 4)
//! versus `T_B = N·nv·R` for a block code (Eq. 5), and at equal structural
//! latency the LDPC-CC needs less Eb/N0 for BER 10⁻⁵ (Fig. 10; e.g. 200 vs
//! 400 information bits at 3 dB).
//!
//! * [`protograph`] — base matrices, edge spreading (Eq. 2), terminated
//!   convolutional protographs (Eq. 3).
//! * [`code`] — circulant lifting to a flat CSR (compressed sparse row)
//!   parity-check structure, plus a reference systematic encoder.
//! * [`gf2`] — the dense GF(2) linear algebra behind the encoder.
//! * [`decoder`] — flooding belief propagation over the CSR edge layout:
//!   exact sum-product, table-driven sum-product or hardware-faithful
//!   normalized min-sum ([`decoder::CheckRule`]); a one-frame decode, BP
//!   or window, reuses a [`decoder::DecoderWorkspace`] and performs zero
//!   heap allocation (the original nested-`Vec` engine survives as
//!   [`decoder::reference`], the correctness oracle).
//! * [`kernel`] — the lane-array check-node update kernels behind every
//!   rule: the exact `tanh`/`atanh` kernel, the φ-table kernel
//!   ([`kernel::PhiTable`]: lookup + linear interpolation + saturation
//!   tail, accuracy-tested rather than bit-identical) and the min-sum
//!   kernel.
//! * [`window`] — terminated coupled codes and the sliding-window decoder
//!   of Fig. 9, with structural-latency accounting and the naive
//!   [`window::reference`] oracle.
//! * [`batch`] — the one decoder engine: one [`batch::BatchWorkspace`],
//!   shared by the BP and window schedules, holds 1 to 8 frames of
//!   message state in structure-of-arrays layout so the lane-array
//!   kernels auto-vectorize the whole decode loop, with per-lane
//!   convergence masking keeping every lane bit-identical to the
//!   oracles. A one-frame decode is a one-lane batch.
//! * [`ber`] — the BER evaluation and required-Eb/N0 search subsystem:
//!   [`ber::BerTarget`] unifies block and coupled codes behind one
//!   object-safe Monte-Carlo surface (fanned out over all cores with
//!   bit-identical results at any thread count), [`ber::BerEstimate`]
//!   carries frame-level variance/CI, and [`ber::SearchConfig`] selects
//!   between the retained bisection-ladder oracle, CI-pruned concurrent
//!   bisection and the paired-grid common-random-numbers estimator used
//!   to regenerate Fig. 10.
//!
//! # Performance
//!
//! The lane engine exists because Fig. 10 is the most compute-heavy
//! result of the reproduction: each curve point bisects over Monte-Carlo
//! BER runs, each of which decodes hundreds of frames. The measured
//! per-rule tables are in `docs/REPRODUCING.md`.
//!
//! * **Sum-product** pays a `tanh` per edge and an `atanh` per extrinsic
//!   message. Approximating them would break bit-identity, so both come
//!   from [`wi_num::fdlibm`], a branch-free port of glibc's routines that
//!   equals the host libm bit for bit and runs eight evaluations at a
//!   time in vector registers. The exact kernel
//!   (`kernel::sum_product_exact_batch`) gathers every evaluation its
//!   masked-in lanes need into dense lists, so skipped lanes cost no
//!   vector width and a one-frame decode runs the port eight edges at a
//!   time; saturated beliefs skip `tanh`, which lifts the *window*
//!   decoder, whose pinned blocks always saturate.
//! * **Table-driven sum-product** breaks the transcendental wall without
//!   giving up sum-product accuracy: the φ-table kernel
//!   ([`kernel::PhiTable`]) replaces every `tanh`/`atanh` pair with two
//!   table interpolations and lands within 0.05 dB of the exact rule on
//!   the paper's codes (pinned by `tests/phi_table.rs`) at a multiple of
//!   its speed.
//! * **Normalized min-sum** eliminates the transcendentals while costing
//!   only a fraction of a dB (tracked by the equivalence suite); its lane
//!   kernel is branch-free across lanes, with a fixed-trip-count path for
//!   the degree-8 checks of the paper's (4,8)-regular codes.
//! * Batches of up to 8 frames decode in lockstep, and the BER harness
//!   fans them out over all cores with bit-identical results at any
//!   thread count, for a further ~core-count factor on multi-core hosts.
//!
//! A workspace-wide tour of where this crate sits (and which engines are
//! pinned to which oracles) is in `docs/ARCHITECTURE.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use wi_ldpc::window::{CoupledCode, WindowDecoder};
//!
//! // The paper's (4,8)-regular LDPC-CC at N = 25, terminated at L = 20.
//! let code = CoupledCode::paper_cc(25, 20, 0);
//! // Window size 4: structural latency W·N·nv·R = 100 information bits.
//! assert_eq!(code.window_latency_bits(4), 100.0);
//! let decoder = WindowDecoder::new(4, 20);
//! let clean: Vec<f64> = vec![10.0; code.code().len()];
//! let bits = decoder.decode(&code, &clean);
//! assert!(bits.iter().all(|&b| !b));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod ber;
pub mod code;
pub mod decoder;
pub mod gf2;
pub mod kernel;
pub mod protograph;
pub mod window;

pub use batch::BatchWorkspace;
pub use ber::{
    ebn0_db_to_sigma, log_linear_required_ebn0, required_ebn0_db, search_required_ebn0,
    simulate_ber, BerEstimate, BerSimOptions, BerTarget, BerWorkspace, BlockBerTarget,
    CoupledBerTarget, FrameStats, SearchConfig, SearchOutcome, SearchReport, SearchStrategy,
};
pub use code::{Encoder, LdpcCode};
pub use decoder::{
    awgn_llrs, BpConfig, BpDecoder, CheckRule, DecodeResult, DecodeStatus, DecoderWorkspace,
};
pub use kernel::PhiTable;
pub use protograph::{BaseMatrix, EdgeSpreading};
pub use window::{block_latency_bits, CoupledCode, WindowDecoder};

/// Former name of the window schedule's lane workspace: both schedules
/// now decode in [`BatchWorkspace`]. Kept only because the `e2ebench`
/// package still names it.
pub type WindowBatchWorkspace = BatchWorkspace;
