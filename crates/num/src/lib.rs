//! Numerics substrate for the `wireless-interconnect` workspace.
//!
//! This crate collects the numerical machinery that the rest of the
//! workspace needs so that the domain crates stay free of ad-hoc math:
//!
//! * [`complex`] — a minimal [`Complex64`] type with the usual field operations.
//! * [`fdlibm`] — bit-exact, branch-free ports of glibc's `tanh` and
//!   `log1p` (and `atanh` over it), the exact sum-product rule's
//!   transcendentals.
//! * [`fft`] — radix-2 decimation-in-time FFT plus a direct DFT fallback for
//!   non-power-of-two lengths (the synthetic VNA uses 4096-point transforms).
//! * [`special`] — `erf`/`erfc`, the standard normal CDF Φ and the Gaussian
//!   Q-function, and log-domain helpers used by the information-rate code and
//!   the belief-propagation decoders.
//! * [`stats`] — Welford running statistics and simple descriptive stats.
//! * [`integrate`] — composite Simpson quadrature (used for the unquantized
//!   4-ASK capacity curve).
//! * [`optimize`] — a dependency-free Nelder–Mead simplex optimizer (ISI
//!   filter design).
//! * [`par`] — the ordered thread fan-out behind every parallel
//!   Monte-Carlo and sweep path, and the one worker-count source.
//! * [`rng`] — Box–Muller Gaussian sampling on top of any [`rand::Rng`].
//! * [`db`] — decibel/linear/dBm conversions used throughout the link budget.
//! * [`fit`] — ordinary least squares line fitting (pathloss exponent fits).
//! * [`window`] — spectral windows for impulse-response estimation.
//!
//! # Example
//!
//! ```
//! use wi_num::db::{db_to_lin, lin_to_db};
//! let g = db_to_lin(3.0);
//! assert!((lin_to_db(g) - 3.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod db;
pub mod fdlibm;
pub mod fft;
pub mod fit;
pub mod integrate;
pub mod optimize;
pub mod par;
pub mod rng;
pub mod special;
pub mod stats;
pub mod window;

pub use complex::Complex64;
