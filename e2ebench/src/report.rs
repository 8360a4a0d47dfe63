//! Metric declarations, the per-run result and its JSON rendering.
//!
//! Every run prints the full declared set for its mode: the end-to-end
//! metrics with tracing off, the per-layer metrics with tracing on. A
//! layer a workload never calls reports 0 — it did no work there.

use std::collections::BTreeMap;

/// Check rules of the Fig. 10 preset, in run order, by metric suffix.
pub const RULES: [&str; 3] = ["exact", "table", "minsum"];

/// DES legs with their own per-policy metrics, by metric suffix.
pub const POLICIES: [&str; 6] = ["dor", "o1turn", "valiant", "adaptive", "faulty", "hybrid"];

/// End-to-end metrics every workload reports with tracing off: the timed
/// phase and the set-up, in host seconds scaled to the reference host
/// speed (see [`Outcome::normalise`]).
pub const END_TO_END: [(&str, &str); 2] = [("wall_norm_s", "s"), ("setup_s", "s")];

/// Median seconds of one reference-kernel unit ([`crate::sys`]) on the
/// host the bounds were set on (2 vCPUs, `Intel(R) Xeon(R) Processor`):
/// a run whose kernel runs this fast reports its host seconds unscaled.
pub const REF_UNIT_S: f64 = 1e-4;

/// `(name, unit)` of every per-layer metric, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| v.push((name, unit));
    // The unscaled host seconds behind the end-to-end metrics, and the
    // reference kernel's time that scales them.
    push("wall_s".into(), "s");
    push("setup_host_s".into(), "s");
    push("host.ref_unit_s".into(), "s");
    // Workload-specific end-to-end figures, measured in the traced run's
    // untraced phase, so they carry no tracing overhead. Peak memory sits
    // here rather than in the gated set: a process of a few MiB moves by
    // ±20% with the allocator's per-thread arenas.
    push("peak_rss_mib".into(), "MiB");
    for rule in RULES {
        push(format!("fig10_{rule}_s"), "s");
    }
    push("ber_frames_per_s".into(), "1/s");
    push("des_pkts_per_s".into(), "1/s");
    push("sweep_cold_s".into(), "s");
    push("sweep_warm_s".into(), "s");
    push("trace.wall_gap_frac".into(), "ratio");

    push("ldpc.code_build_s".into(), "s");
    for rule in RULES {
        push(format!("ber.eval_s.{rule}"), "s");
        push(format!("ber.busy_frac.{rule}"), "ratio");
        push(format!("ber.full_batch_frac.{rule}"), "ratio");
        push(format!("ber.frames.{rule}"), "count");
        push(format!("ber.probes.{rule}"), "count");
        push(format!("ldpc.decode_s.{rule}"), "s");
        push(format!("ldpc.decode_ns_per_frame.{rule}"), "ns");
    }
    push("ber.llr_s".into(), "s");

    push("noc.topology_s".into(), "s");
    for pol in ["dor", "o1turn", "valiant", "adaptive", "hybrid"] {
        push(format!("noc.route_table_s.{pol}"), "s");
    }
    push("noc.route_table_mib".into(), "MiB");
    push("noc.analytic_s".into(), "s");
    for pol in POLICIES {
        push(format!("des.run_s.{pol}"), "s");
        push(format!("des.ns_per_pkt.{pol}"), "ns");
    }
    push("des.pkts".into(), "count");
    push("des.retries".into(), "count");
    push("des.incomplete_reps".into(), "count");
    push("des.incomplete_s".into(), "s");
    push("des.busy_frac".into(), "ratio");
    push("des.rep_max_over_p50".into(), "ratio");

    push("sweep.expand_s".into(), "s");
    push("sweep.exec_cold_s".into(), "s");
    push("sweep.exec_warm_s".into(), "s");
    push("sweep.reload_s".into(), "s");
    push("sweep.store_mib".into(), "MiB");
    push("sweep.fold_s".into(), "s");
    push("sweep.cells_executed".into(), "count");
    push("sweep.cells_cached".into(), "count");
    push("cache.open_s".into(), "s");
    push("cache.get_s".into(), "s");
    push("cache.put_s".into(), "s");
    push("cache.hits".into(), "count");
    push("cache.misses".into(), "count");
    v
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer values by name (traced runs; absent = 0).
    pub layer: BTreeMap<String, f64>,
    /// Operations attempted: searches, replications, cells, checks.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Reference-kernel unit seconds, one per host-speed sample.
    pub host_unit_s: Vec<f64>,
    /// Median build seconds of each set-up burst.
    pub setup_bursts: Vec<f64>,
}

impl Outcome {
    /// Records an end-to-end value.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Adds to a per-layer value.
    pub fn layer_add(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Counts `n` operations that ran without a check of their own.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation; a failed check is recorded with the
    /// message `what` produces.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a note for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Times the reference kernel on `threads` threads for 0.1 s: one
    /// sample of how fast the host runs. Workloads sample before each
    /// timed iteration, so the samples span the timed phase.
    pub fn sample_host(&mut self, threads: usize) {
        self.host_unit_s
            .push(crate::sys::reference_kernel(threads, 0.1));
    }

    /// Builds the set-up repeatedly for one burst (see
    /// [`crate::sys::timed_setup`]), records the burst's median build
    /// time and returns the last build. Workloads run a burst before the
    /// timed phase and, where a build is short, another before each timed
    /// iteration: the host switches between a fast and a slow state every
    /// 0.5–5 s, and a sub-millisecond build measured in one place would
    /// report whichever state it happened to hit.
    pub fn setup_burst<T>(
        &mut self,
        min_reps: usize,
        max_reps: usize,
        budget_s: f64,
        build: impl FnMut() -> T,
    ) -> T {
        let (built, t) = crate::sys::timed_setup(min_reps, max_reps, budget_s, build);
        self.setup_bursts.push(t);
        built
    }

    /// Turns the host seconds a workload recorded into the end-to-end
    /// metrics: `setup_host_s` is the mean of the set-up bursts, and
    /// both it and `wall_s` are scaled by [`REF_UNIT_S`] ÷ the median
    /// reference-kernel unit of the run. The host's speed drifts by tens
    /// of percent over minutes on a shared VM and moves the kernel and
    /// the workload alike; the kernel is fixed code, so a change to the
    /// program moves only the workload.
    pub fn normalise(&mut self) {
        let unit_s = crate::sys::median(&self.host_unit_s);
        assert!(unit_s > 0.0, "no host-speed sample was taken");
        self.layer("host.ref_unit_s", unit_s);
        assert!(!self.setup_bursts.is_empty(), "no set-up was timed");
        let setup = self.setup_bursts.iter().sum::<f64>() / self.setup_bursts.len() as f64;
        self.layer("setup_host_s", setup);
        for (host, e2e) in [("wall_s", "wall_norm_s"), ("setup_host_s", "setup_s")] {
            let v = *self
                .layer
                .get(host)
                .unwrap_or_else(|| panic!("workload did not report {host}"));
            self.e2e(e2e, v * REF_UNIT_S / unit_s);
        }
    }
}

/// Renders a float for JSON with every digit Rust's shortest round-trip
/// form gives it; non-finite values (never produced by a healthy run)
/// become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The metrics of a run's mode as `(name, value, unit)`, in declaration
/// order. Panics if a workload failed to produce an end-to-end value —
/// that is a benchmark bug, not a measurement.
pub fn selected(outcome: &Outcome, trace: bool) -> Vec<(String, f64, &'static str)> {
    if trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = outcome.layer.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = *outcome
                    .e2e
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                (name.to_string(), v, unit)
            })
            .collect()
    }
}

/// The single-line JSON result a run prints last.
pub fn result_line(outcome: &Outcome, trace: bool, correct: bool) -> String {
    let metrics = selected(outcome, trace)
        .into_iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    )
}
