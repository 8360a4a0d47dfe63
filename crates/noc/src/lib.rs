//! 3D Network-in-Chip-Stack (NiCS) substrate — §IV of the DATE'13 paper.
//!
//! The paper argues that stacking chips lets a network-on-chip use the third
//! dimension, and compares a 3D mesh against the classical 2D mesh and the
//! concentrated star-mesh with an analytic queueing model (ref \[14\]):
//! the 3D mesh combines good latency (short wires, high concentration) with
//! the highest saturation throughput, and scales best to 512 modules
//! (Figs. 7–8).
//!
//! * [`topology`] — the four topology families of Fig. 7 as graphs.
//! * [`routing`] — dimension-order, O1TURN, Valiant, RLB and adaptive
//!   routing: per-route [`routing::RouteProgram`]s the simulator steps
//!   hop by hop, and the all-pairs [`routing::RouteTable`] in flat CSR
//!   form that feeds the analytic model.
//! * [`analytic`] — the queueing-theory latency model (per-link M/M/1
//!   servers over exact routed flows), calibrated once against the paper's
//!   published low-load latencies and saturation points.
//! * [`des`] — an independent discrete-event simulator of the same system,
//!   used to validate the analytic model: an arena-based event
//!   [`des::engine`] (zero allocation in the steady-state loop), the
//!   pinned [`des::reference`] oracle, the synthetic traffic patterns of
//!   [`des::traffic::TrafficKind`] (uniform, hotspot, transpose,
//!   bit-reversal, nearest-neighbour) and parallel multi-replication
//!   [`mod@des::sweep`]s with per-rate error bars and knee detection.
//! * [`metrics`] — structural topology metrics (the quantitative Fig. 7).
//! * [`icdb`] — closed-form mesh descriptions: an
//!   [`icdb::ExpandedGrid`] answers router, link-id, link-class and
//!   policy-route queries from coordinates alone, so a 10⁴–10⁶-router
//!   mesh costs a few words, and materializes through the crate's one
//!   raster link builder (the regular [`topology`] constructors call
//!   it); plus hybrid wired+wireless board layouts
//!   ([`icdb::HybridBoards`]).
//! * [`irregular`] — partial-TSV (pillar) 3D meshes for the paper's
//!   future-work ablation, from the same link builder: vertical links
//!   only on pillar routers.
//!
//! A workspace-wide tour of where this crate sits (and which engines are
//! pinned to which oracles) is in `docs/ARCHITECTURE.md` at the
//! repository root; the closed-form topology model itself is specified
//! in `docs/TOPOLOGY.md`.
//!
//! # Example
//!
//! ```
//! use wi_noc::topology::Topology;
//! use wi_noc::analytic::{AnalyticModel, RouterParams};
//!
//! let cube = Topology::mesh3d(4, 4, 4);
//! let model = AnalyticModel::new(&cube, RouterParams::default());
//! let latency = model.mean_latency(0.1).expect("below saturation");
//! assert!(latency > 0.0 && latency < 20.0);
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod deadlock;
pub mod des;
pub mod icdb;
pub mod irregular;
pub mod metrics;
pub mod routing;
pub mod topology;

pub use analytic::{AnalyticModel, RouterParams};
pub use deadlock::ChannelDepGraph;
pub use des::traffic::{TrafficKind, TrafficPattern};
pub use des::{simulate, sweep, DesConfig, DesResult, Engine, RatePoint, SweepConfig, SweepResult};
pub use icdb::{ExpandedGrid, HybridBoards};
pub use metrics::{topology_metrics, TopologyMetrics};
pub use routing::RouteTable;
pub use topology::{Topology, TopologyKind};
