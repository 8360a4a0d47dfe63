//! The queueing-theory analytic latency model (reproduction of ref \[14\]).
//!
//! Fischer, Fehske & Fettweis, "A flexible analytic model for the design
//! space exploration of many-core network-on-chips based on queueing
//! theory" (SIMUL 2012), describes NoC latency with an open queueing
//! network: deterministic routes give exact per-link flows, each router
//! output port is an M/M/1 server, and the mean packet latency is the mean
//! over all source/destination pairs of the per-hop delays along the route.
//!
//! The model here is that construction:
//!
//! * per-link flow `λ_l = λ/(N−1) · #{(s,d) pairs routed over l}`,
//! * per-link delay `T_s + W_l` with the M/M/1 wait `W_l = ρ_l·T_s/(1−ρ_l)`,
//! * per-router pipeline delay `t_r` for every traversed router,
//! * an ejection port per module modelled as one more M/M/1 server with
//!   flow λ (uniform traffic delivers λ to every module).
//!
//! **Calibration.** The two free constants are fitted once against the
//! numbers §IV quotes and then frozen as defaults: `t_r + T_s ≈ 2.08`
//! reproduces the low-load latencies 13 / 7 / 10 cycles (8×8 mesh, 4×4×4
//! star-mesh, 4×4×4 3D mesh), and `T_s = 1.2` puts the 8×8 mesh saturation
//! at the paper's 0.41 flits/cycle/module. With those, the model yields
//! star-mesh saturation ≈ 0.20 (paper: 0.19) and 3D-mesh ≈ 0.82
//! (paper: 0.75).

use crate::routing::RouteTable;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Timing parameters of a router (see module docs for calibration).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouterParams {
    /// Pipeline (routing decision + switch traversal) delay per router,
    /// clock cycles.
    pub routing_delay: f64,
    /// Mean service (serialization) time per packet and link, clock cycles.
    pub service_time: f64,
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams {
            routing_delay: 0.88,
            service_time: 1.2,
        }
    }
}

/// The analytic queueing model bound to one topology.
#[derive(Clone, Debug)]
pub struct AnalyticModel<'a> {
    topo: &'a Topology,
    params: RouterParams,
    /// All-pairs routes in flat CSR form, built once and shared by every
    /// latency evaluation (the pre-`RouteTable` model re-routed all pairs
    /// on each [`AnalyticModel::mean_latency`] call).
    routes: RouteTable,
    /// `pair_count[l]` = number of (src,dst) module pairs whose route uses
    /// directed link `l`.
    pair_count: Vec<u64>,
    /// Sum over all module pairs of (hops, routers traversed).
    total_hops: u64,
    num_pairs: u64,
    /// Parallel inter-router links (IRLs) per topology link; flows divide
    /// evenly across them.
    irl_multiplicity: usize,
}

impl<'a> AnalyticModel<'a> {
    /// Builds the model by routing all module pairs once.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules.
    pub fn new(topo: &'a Topology, params: RouterParams) -> Self {
        Self::with_table(topo, params, RouteTable::new(topo))
    }

    /// Builds the model around a prebuilt route table — the entry point
    /// for topologies whose routes the dimension-order walker cannot
    /// derive (pillar meshes from [`crate::irregular`] and hybrid
    /// wired+wireless boards from [`crate::icdb`], whose tables come
    /// from [`RouteTable::from_routes`]). The per-link flow accumulation uses
    /// each pair's **first** route choice, so multi-choice tables are
    /// modelled by their choice-0 routes.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules or the table
    /// was built for a different module count.
    pub fn with_table(topo: &'a Topology, params: RouterParams, routes: RouteTable) -> Self {
        let n = topo.num_modules();
        assert!(n >= 2, "need at least two modules");
        assert_eq!(
            routes.num_modules(),
            n,
            "route table module count does not match the topology"
        );
        let mut pair_count = vec![0u64; topo.num_links()];
        let mut total_hops = 0u64;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let links = routes.links(s, d);
                for &l in links {
                    pair_count[l as usize] += 1;
                }
                total_hops += links.len() as u64;
            }
        }
        AnalyticModel {
            topo,
            params,
            routes,
            pair_count,
            total_hops,
            num_pairs: (n as u64) * (n as u64 - 1),
            irl_multiplicity: 1,
        }
    }

    /// Returns a copy with `m` parallel inter-router links per topology
    /// edge. §IV: "To improve the low bisection bandwidth of [the
    /// star-mesh] a common technique is to employ multiple inter-router
    /// links (IRLs) … The drawback of this approach is the high area
    /// consumption of the routers due to the big number of ports." Flows
    /// split evenly across the parallel links, multiplying effective
    /// capacity; ejection ports are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn with_irl_multiplicity(mut self, m: usize) -> Self {
        assert!(m > 0, "IRL multiplicity must be positive");
        self.irl_multiplicity = m;
        self
    }

    /// The model's timing parameters.
    pub fn params(&self) -> RouterParams {
        self.params
    }

    /// Mean hop count over all module pairs.
    pub fn mean_hops(&self) -> f64 {
        self.total_hops as f64 / self.num_pairs as f64
    }

    /// Per-link flow in packets/cycle at the given injection rate
    /// (packets/cycle/module, uniform traffic). With IRL multiplicity `m`
    /// this is the flow per *physical* link (the routed flow divided by m).
    pub fn link_flows(&self, injection_rate: f64) -> Vec<f64> {
        let n = self.topo.num_modules() as f64;
        let per_pair = injection_rate / (n - 1.0) / self.irl_multiplicity as f64;
        self.pair_count
            .iter()
            .map(|&c| c as f64 * per_pair)
            .collect()
    }

    /// Utilization `ρ` of the busiest server at the given injection rate
    /// (includes the ejection ports).
    pub fn max_utilization(&self, injection_rate: f64) -> f64 {
        let flows = self.link_flows(injection_rate);
        let max_link = flows.iter().copied().fold(0.0, f64::max);
        // Every module's ejection port carries exactly λ under uniform
        // traffic.
        let max_flow = max_link.max(injection_rate);
        max_flow * self.params.service_time
    }

    /// The saturation injection rate: the smallest λ at which some server
    /// reaches ρ = 1. This is the network capacity the paper reads off as
    /// the latency asymptote in Fig. 8.
    pub fn saturation_rate(&self) -> f64 {
        // ρ is linear in λ, so saturation is a direct division.
        let util_at_one = self.max_utilization(1.0);
        1.0 / util_at_one
    }

    /// Mean packet latency (clock cycles) at the given injection rate, or
    /// `None` at or beyond saturation.
    ///
    /// # Panics
    ///
    /// Panics if `injection_rate` is negative.
    pub fn mean_latency(&self, injection_rate: f64) -> Option<f64> {
        assert!(injection_rate >= 0.0, "injection rate must be non-negative");
        if self.max_utilization(injection_rate) >= 1.0 {
            return None;
        }
        let ts = self.params.service_time;
        let n = self.topo.num_modules();
        let flows = self.link_flows(injection_rate);
        // Per-link delay, precomputed.
        let link_delay: Vec<f64> = flows
            .iter()
            .map(|&f| {
                let rho = f * ts;
                ts + rho * ts / (1.0 - rho)
            })
            .collect();
        // Ejection port delay (flow λ at every module).
        let rho_ej = injection_rate * ts;
        let ej_delay = ts + rho_ej * ts / (1.0 - rho_ej);

        let mut total = 0.0;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let links = self.routes.links(s, d);
                // Routers traversed = hops + 1.
                let mut lat = (links.len() + 1) as f64 * self.params.routing_delay + ej_delay;
                for &l in links {
                    lat += link_delay[l as usize];
                }
                total += lat;
            }
        }
        Some(total / self.num_pairs as f64)
    }

    /// Low-load (λ → 0) latency: pipeline plus unloaded service at every
    /// hop.
    pub fn zero_load_latency(&self) -> f64 {
        self.mean_latency(1e-9)
            .expect("zero load is always below saturation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(topo: &Topology) -> AnalyticModel<'_> {
        AnalyticModel::new(topo, RouterParams::default())
    }

    #[test]
    fn paper_low_load_latencies() {
        // §IV quotes 13 / 7 / 10 cycles at low traffic for 64 modules.
        let mesh = Topology::mesh2d(8, 8);
        let star = Topology::star_mesh(4, 4, 4);
        let cube = Topology::mesh3d(4, 4, 4);
        let l_mesh = model(&mesh).zero_load_latency();
        let l_star = model(&star).zero_load_latency();
        let l_cube = model(&cube).zero_load_latency();
        assert!((l_mesh - 13.0).abs() < 1.0, "2D mesh {l_mesh}");
        assert!((l_star - 7.0).abs() < 1.0, "star-mesh {l_star}");
        assert!((l_cube - 10.0).abs() < 1.0, "3D mesh {l_cube}");
    }

    #[test]
    fn paper_saturation_points() {
        // §IV: 0.41 (2D mesh), 0.19 (star-mesh), 0.75 (3D mesh)
        // flits/cycle/module. The calibrated model reproduces the first two
        // closely and overshoots the third moderately (0.82).
        let sat_mesh = model(&Topology::mesh2d(8, 8)).saturation_rate();
        let sat_star = model(&Topology::star_mesh(4, 4, 4)).saturation_rate();
        let sat_cube = model(&Topology::mesh3d(4, 4, 4)).saturation_rate();
        assert!((sat_mesh - 0.41).abs() < 0.03, "2D mesh {sat_mesh}");
        assert!((sat_star - 0.19).abs() < 0.03, "star {sat_star}");
        assert!((sat_cube - 0.78).abs() < 0.08, "3D mesh {sat_cube}");
        // Ordering: star < 2D < 3D.
        assert!(sat_star < sat_mesh && sat_mesh < sat_cube);
    }

    #[test]
    fn latency_ordering_at_low_load() {
        // star < 3D < 2D at low load (network concentration wins).
        let mesh = Topology::mesh2d(8, 8);
        let star = Topology::star_mesh(4, 4, 4);
        let cube = Topology::mesh3d(4, 4, 4);
        let l_mesh = model(&mesh).zero_load_latency();
        let l_star = model(&star).zero_load_latency();
        let l_cube = model(&cube).zero_load_latency();
        assert!(l_star < l_cube && l_cube < l_mesh);
    }

    #[test]
    fn latency_monotone_in_load() {
        let topo = Topology::mesh2d(8, 8);
        let m = model(&topo);
        let mut prev = 0.0;
        for k in 1..=8 {
            let rate = 0.05 * k as f64;
            let l = m.mean_latency(rate).expect("below saturation");
            assert!(l > prev, "latency not increasing at {rate}");
            prev = l;
        }
    }

    #[test]
    fn latency_diverges_toward_saturation() {
        let topo = Topology::mesh2d(8, 8);
        let m = model(&topo);
        let sat = m.saturation_rate();
        let near = m.mean_latency(sat * 0.98).expect("just below saturation");
        assert!(near > 3.0 * m.zero_load_latency(), "near-saturation {near}");
        assert_eq!(m.mean_latency(sat * 1.01), None);
    }

    #[test]
    fn mean_hops_reference_values() {
        // 8×8 mesh: 2·(k²−1)/(3k) = 5.25 for k = 8.
        let mesh = model(&Topology::mesh2d(8, 8)).mean_hops();
        assert!((mesh - 5.25 * 64.0 / 63.0).abs() < 0.01, "{mesh}");
        // 4×4×4 3D mesh: 3·(k²−1)/(3k)·N/(N−1).
        let cube = model(&Topology::mesh3d(4, 4, 4)).mean_hops();
        assert!((cube - 3.75 * 64.0 / 63.0).abs() < 0.01, "{cube}");
    }

    #[test]
    fn flows_scale_linearly() {
        let topo = Topology::mesh2d(4, 4);
        let m = model(&topo);
        let f1 = m.link_flows(0.1);
        let f2 = m.link_flows(0.2);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fig8b_gap_widens_at_512() {
        // Fig. 8(b): at 512 modules the 2D/3D latency gap exceeds the
        // 64-module gap.
        let m64_2d = model2(&Topology::mesh2d(8, 8));
        let m64_3d = model2(&Topology::mesh3d(4, 4, 4));
        let m512_2d = model2(&Topology::mesh2d(32, 16));
        let m512_3d = model2(&Topology::mesh3d(8, 8, 8));
        let gap64 = m64_2d - m64_3d;
        let gap512 = m512_2d - m512_3d;
        assert!(
            gap512 > 2.0 * gap64,
            "gap should widen: 64 -> {gap64}, 512 -> {gap512}"
        );

        fn model2(t: &Topology) -> f64 {
            AnalyticModel::new(t, RouterParams::default()).zero_load_latency()
        }
    }

    #[test]
    fn irl_multiplicity_restores_star_mesh_throughput() {
        // §IV's express-channel / multi-IRL remedy: doubling the
        // inter-router links roughly doubles star-mesh saturation while
        // leaving low-load latency unchanged.
        let topo = Topology::star_mesh(4, 4, 4);
        let base = AnalyticModel::new(&topo, RouterParams::default());
        let doubled = AnalyticModel::new(&topo, RouterParams::default()).with_irl_multiplicity(2);
        let quad = AnalyticModel::new(&topo, RouterParams::default()).with_irl_multiplicity(4);
        assert!((doubled.saturation_rate() / base.saturation_rate() - 2.0).abs() < 0.2);
        // zero_load_latency evaluates at a tiny but non-zero load, so the
        // residual queueing term differs at the 1e-9 scale between the two.
        assert!(
            (doubled.zero_load_latency() - base.zero_load_latency()).abs() < 1e-6,
            "IRLs must not change unloaded latency"
        );
        // Returns diminish once the ejection port becomes the bottleneck.
        assert!(quad.saturation_rate() <= 4.0 * base.saturation_rate() + 1e-9);
    }

    #[test]
    fn with_table_matches_new() {
        let topo = Topology::mesh3d(3, 3, 3);
        let a = AnalyticModel::new(&topo, RouterParams::default());
        let b = AnalyticModel::with_table(&topo, RouterParams::default(), RouteTable::new(&topo));
        assert_eq!(a.zero_load_latency(), b.zero_load_latency());
        assert_eq!(a.saturation_rate(), b.saturation_rate());
        assert_eq!(a.link_flows(0.1), b.link_flows(0.1));
    }

    #[test]
    #[should_panic(expected = "module count")]
    fn with_table_rejects_mismatched_table() {
        let topo = Topology::mesh2d(3, 3);
        let other = Topology::mesh2d(4, 4);
        AnalyticModel::with_table(&topo, RouterParams::default(), RouteTable::new(&other));
    }

    #[test]
    #[should_panic(expected = "IRL multiplicity must be positive")]
    fn zero_irl_multiplicity_panics() {
        let t = Topology::mesh2d(2, 2);
        let _ = AnalyticModel::new(&t, RouterParams::default()).with_irl_multiplicity(0);
    }

    #[test]
    #[should_panic(expected = "at least two modules")]
    fn single_module_panics() {
        let t = Topology::mesh2d(1, 1);
        AnalyticModel::new(&t, RouterParams::default());
    }
}
