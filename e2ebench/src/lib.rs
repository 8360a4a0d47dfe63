//! End-to-end and per-layer benchmark of the reproduction's exhibit
//! workloads.
//!
//! A run executes one workload (`fig10_quick`, `noc_matrix`, `noc_scale`,
//! `sweep_store`; see `README.md` in this directory) from its seed,
//! repeats the timed phase for the measurement window, checks every
//! simulated output, and prints one JSON result line: the end-to-end
//! metrics with tracing off, the per-layer metrics with tracing on.
//! Per-layer times come from timing wrappers around the layers' public
//! traits and from serial replays of what the timed phase did — the
//! library crates carry no tracing of their own.

pub mod layer;
pub mod manifest;
pub mod report;
pub mod sys;
pub mod workloads;
