//! Declarative sweep specifications over [`SystemConfig`] grids.
//!
//! A [`SweepSpec`] names a base preset, a list of [`Axis`] values (each
//! axis a named `SystemConfig` field with the values to visit), a seed
//! set, and an [`EvalSpec`] saying what to measure per cell. `expand()`
//! takes the cartesian product of the axes × seeds into [`Cell`]s —
//! each a fully *validated* `SystemConfig` — and reports **every**
//! problem across the whole grid at once (the collect-all
//! `SystemConfig::validate`), so a bad spec fails in one round trip,
//! not one axis per rerun.
//!
//! Each eval kind owns the axes it reads ([`EvalSpec::axis_names`]):
//! seven coding fields for `ebn0_search`, six NoC-workload fields for
//! `noc_knee`. Any other axis would spend one evaluation per value to
//! store one result under several keys, so `expand()` refuses it.
//!
//! Axis values are strings in the CLI spellings the bench bins already
//! use (`routing=adaptive`, `traffic=hotspot:0:0.2`, `check_rule=minsum`),
//! so a spec file reads like the command lines it replaces.

use crate::json::{obj, Json};
use wi_ldpc::ber::BerSimOptions;
use wi_ldpc::decoder::CheckRule;
use wi_noc::des::traffic::TrafficKind;
use wi_noc::des::{DesConfig, LinkErrorModel, SweepConfig};
use wi_noc::routing::RoutingKind;
use wi_system::config::SystemConfig;
use wi_system::hash::{StableHash, StableHasher};

/// One named axis: a `SystemConfig` field and the values it sweeps.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Field name: one of the eval kind's [`EvalSpec::axis_names`].
    pub field: String,
    /// Values in CLI spelling, visited in order.
    pub values: Vec<String>,
}

/// What to measure in each cell.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalSpec {
    /// Required-Eb/N0 search on the cell's coding configuration (the
    /// fig10 measurement), run through the frame-evaluation cache.
    Ebn0Search {
        /// BER the search targets.
        target_ber: f64,
        /// Bit errors collected per probe before stopping.
        target_errors: u64,
        /// Per-probe frame cap.
        max_frames: u64,
        /// Per-probe frame floor.
        min_frames: u64,
    },
    /// Injection-rate sweep to the saturation knee on the cell's NoC
    /// workload (the design-space knee matrix).
    NocKnee {
        /// Injection rates (flits/cycle/module), ascending.
        rates: Vec<f64>,
        /// Warmup packets per replication.
        warmup_packets: usize,
        /// Measured packets per replication.
        measured_packets: usize,
        /// Event budget per replication.
        max_events: u64,
    },
}

impl EvalSpec {
    /// Short kind tag stored with each cell record.
    pub fn kind(&self) -> &'static str {
        match self {
            EvalSpec::Ebn0Search { .. } => "ebn0_search",
            EvalSpec::NocKnee { .. } => "noc_knee",
        }
    }

    fn axes(&self) -> &'static [(&'static str, SetAxis)] {
        match self {
            EvalSpec::Ebn0Search { .. } => EBN0_SEARCH_AXES,
            EvalSpec::NocKnee { .. } => NOC_KNEE_AXES,
        }
    }

    /// The fields a spec with this eval may sweep: exactly the ones the
    /// eval reads.
    pub fn axis_names(&self) -> impl Iterator<Item = &'static str> {
        self.axes().iter().map(|&(name, _)| name)
    }

    /// Applies one axis value to a configuration. Returns an error
    /// string when this eval kind does not read the field or the value
    /// does not parse; range problems are left to
    /// `SystemConfig::validate` (which reports them all).
    pub fn apply_axis(
        &self,
        config: &mut SystemConfig,
        field: &str,
        value: &str,
    ) -> Result<(), String> {
        let Some(&(_, set)) = self.axes().iter().find(|&&(name, _)| name == field) else {
            return Err(format!(
                "axis {field}: not read by {} evals, which sweep {}",
                self.kind(),
                self.axis_names().collect::<Vec<_>>().join(", ")
            ));
        };
        set(config, value).ok_or_else(|| format!("axis {field}: bad value '{value}'"))
    }

    /// The DES sweep a `noc_knee` eval runs on a cell's `config` at
    /// `seed`: the eval's rates and packet budgets on the cell's NoC
    /// workload (`None` for other eval kinds).
    pub fn knee_sweep(&self, config: &SystemConfig, seed: u64) -> Option<SweepConfig> {
        let EvalSpec::NocKnee {
            rates,
            warmup_packets,
            measured_packets,
            max_events,
        } = self
        else {
            return None;
        };
        let base = DesConfig {
            warmup_packets: *warmup_packets,
            measured_packets: *measured_packets,
            max_events: *max_events,
            ..config.noc.des_config(seed)
        };
        let replications = config.noc.replications;
        Some(SweepConfig::new(rates.clone(), replications, base))
    }

    /// Stable hash of the evaluation — the `eval` component of a cell
    /// key. Two specs measuring the same thing on the same config+seed
    /// share a stored result; any budget change is a different cell.
    pub fn eval_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        match self {
            EvalSpec::Ebn0Search {
                target_ber,
                target_errors,
                max_frames,
                min_frames,
            } => {
                h.write_discriminant(1);
                h.write_f64(*target_ber);
                h.write_u64(*target_errors);
                h.write_u64(*max_frames);
                h.write_u64(*min_frames);
            }
            EvalSpec::NocKnee {
                rates,
                warmup_packets,
                measured_packets,
                max_events,
            } => {
                h.write_discriminant(2);
                h.write_u64(rates.len() as u64);
                for r in rates {
                    h.write_f64(*r);
                }
                h.write_usize(*warmup_packets);
                h.write_usize(*measured_packets);
                h.write_u64(*max_events);
            }
        }
        h.finish()
    }
}

/// A declarative sweep: base preset × axes × seeds, one evaluation kind.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Display name.
    pub name: String,
    /// Base preset the axes perturb (`"paper"` is the only preset).
    pub base: String,
    /// Swept fields, slowest-varying first.
    pub axes: Vec<Axis>,
    /// Seeds; every axis combination runs once per seed.
    pub seeds: Vec<u64>,
    /// Per-cell measurement.
    pub eval: EvalSpec,
}

/// One expanded, validated grid point.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Position in expansion order (seeds innermost).
    pub index: usize,
    /// The fully applied configuration.
    pub config: SystemConfig,
    /// This cell's RNG seed.
    pub seed: u64,
    /// `(field, value)` pairs that produced `config`, in axis order.
    pub axes: Vec<(String, String)>,
}

impl Cell {
    /// Human-readable cell label: `field=value` pairs plus the seed.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = self.axes.iter().map(|(f, v)| format!("{f}={v}")).collect();
        parts.push(format!("seed={:#x}", self.seed));
        parts.join(" ")
    }
}

/// Sets one axis value on a configuration; `None` when the value does
/// not parse.
type SetAxis = fn(&mut SystemConfig, &str) -> Option<()>;

/// The axes an `ebn0_search` eval reads: the coding fields that pick
/// the searched target and the search bracket.
const EBN0_SEARCH_AXES: &[(&str, SetAxis)] = &[
    ("lifting", |c, v| parse_into(&mut c.coding.lifting, v)),
    ("window", |c, v| parse_into(&mut c.coding.window, v)),
    ("iterations", |c, v| parse_into(&mut c.coding.iterations, v)),
    ("check_rule", |c, v| {
        c.coding.check_rule = parse_check_rule(v)?;
        Some(())
    }),
    ("search_lo_db", |c, v| {
        parse_into(&mut c.coding.search.lo_db, v)
    }),
    ("search_hi_db", |c, v| {
        parse_into(&mut c.coding.search.hi_db, v)
    }),
    ("search_tol_db", |c, v| {
        parse_into(&mut c.coding.search.tol_db, v)
    }),
];

/// The axes a `noc_knee` eval reads: the NoC-workload fields of its DES
/// sweep. The eval sets its own injection rates, and every valid
/// virtual-channel count gives the same knee, so neither is an axis.
const NOC_KNEE_AXES: &[(&str, SetAxis)] = &[
    ("routing", |c, v| {
        c.noc.routing = RoutingKind::parse(v)?;
        Some(())
    }),
    ("traffic", |c, v| {
        c.noc.traffic = TrafficKind::parse(v)?;
        Some(())
    }),
    ("replications", |c, v| {
        parse_into(&mut c.noc.replications, v)
    }),
    ("stuck_fraction", |c, v| {
        parse_into(&mut c.noc.fault.stuck_fraction, v)
    }),
    ("stuck_p", |c, v| parse_into(&mut c.noc.fault.stuck_p, v)),
    ("link_error_p", |c, v| {
        c.noc.fault.model = LinkErrorModel::Uniform { p: v.parse().ok()? };
        Some(())
    }),
];

fn parse_into<T: std::str::FromStr>(slot: &mut T, value: &str) -> Option<()> {
    *slot = value.parse().ok()?;
    Some(())
}

/// Parses a check rule in CLI spelling: `sum-product`, `table` /
/// `table:<bits>`, `minsum` / `minsum:<alpha>`.
pub fn parse_check_rule(s: &str) -> Option<CheckRule> {
    match s {
        "sum-product" | "sumproduct" | "exact" => Some(CheckRule::SumProduct),
        "table" => Some(CheckRule::sum_product_table()),
        "minsum" | "min-sum" => Some(CheckRule::min_sum()),
        _ => {
            let (head, arg) = s.split_once(':')?;
            match head {
                "table" => Some(CheckRule::SumProductTable {
                    bits: arg.parse().ok()?,
                }),
                "minsum" | "min-sum" => Some(CheckRule::MinSum {
                    alpha: arg.parse().ok()?,
                }),
                _ => None,
            }
        }
    }
}

impl SweepSpec {
    /// Expands the spec into validated cells (axes' cartesian product ×
    /// seeds, seeds innermost). On failure returns **every** problem
    /// found anywhere in the grid, deduplicated, each prefixed with the
    /// axis values of the offending cell.
    pub fn expand(&self) -> Result<Vec<Cell>, Vec<String>> {
        let base = match self.base.as_str() {
            "paper" => SystemConfig::paper_default(),
            other => return Err(vec![format!("unknown base preset '{other}'")]),
        };
        let mut problems: Vec<String> = Vec::new();
        if self.seeds.is_empty() {
            problems.push("spec needs at least one seed".into());
        }
        match &self.eval {
            EvalSpec::Ebn0Search {
                target_ber,
                target_errors,
                max_frames,
                min_frames,
            } => {
                // `!(a && b)` so a NaN target fails too.
                if !(*target_ber > 0.0 && *target_ber < 1.0) {
                    problems.push(format!(
                        "ebn0_search target_ber {target_ber} must be in (0, 1)"
                    ));
                }
                let opts = BerSimOptions {
                    target_errors: *target_errors,
                    max_frames: *max_frames,
                    min_frames: *min_frames,
                    ..BerSimOptions::default()
                };
                problems.extend(
                    opts.problems()
                        .into_iter()
                        .map(|p| format!("ebn0_search {p}")),
                );
            }
            EvalSpec::NocKnee { .. } => {
                // The sweep a cell without axes would run; axes that set
                // the replication count are checked per cell by
                // `SystemConfig::validate`.
                let sweep = self.eval.knee_sweep(&base, 0).expect("a noc_knee eval");
                problems.extend(sweep.problems().iter().map(|p| format!("noc_knee {p}")));
            }
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                problems.push(format!("axis {} has no values", axis.field));
            }
        }
        if !problems.is_empty() {
            return Err(problems);
        }

        let mut cells = Vec::new();
        let mut odometer = vec![0usize; self.axes.len()];
        'grid: loop {
            let mut config = base;
            let mut axes = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&odometer) {
                let value = &axis.values[i];
                if let Err(e) = self.eval.apply_axis(&mut config, &axis.field, value) {
                    push_unique(&mut problems, e);
                }
                axes.push((axis.field.clone(), value.clone()));
            }
            let prefix = axes
                .iter()
                .map(|(f, v)| format!("{f}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            for problem in config.validate() {
                push_unique(
                    &mut problems,
                    if prefix.is_empty() {
                        problem
                    } else {
                        format!("[{prefix}] {problem}")
                    },
                );
            }
            for &seed in &self.seeds {
                cells.push(Cell {
                    index: cells.len(),
                    config,
                    seed,
                    axes: axes.clone(),
                });
            }
            // Advance the odometer, last axis fastest.
            for pos in (0..self.axes.len()).rev() {
                odometer[pos] += 1;
                if odometer[pos] < self.axes[pos].values.len() {
                    continue 'grid;
                }
                odometer[pos] = 0;
            }
            break;
        }
        if problems.is_empty() {
            Ok(cells)
        } else {
            Err(problems)
        }
    }

    /// Serializes to the canonical JSON form [`SweepSpec::from_json`]
    /// parses.
    pub fn to_json(&self) -> Json {
        let eval = match &self.eval {
            EvalSpec::Ebn0Search {
                target_ber,
                target_errors,
                max_frames,
                min_frames,
            } => obj(vec![
                ("kind", Json::Str("ebn0_search".into())),
                ("target_ber", Json::Num(*target_ber)),
                ("target_errors", Json::u64(*target_errors)),
                ("max_frames", Json::u64(*max_frames)),
                ("min_frames", Json::u64(*min_frames)),
            ]),
            EvalSpec::NocKnee {
                rates,
                warmup_packets,
                measured_packets,
                max_events,
            } => obj(vec![
                ("kind", Json::Str("noc_knee".into())),
                (
                    "rates",
                    Json::Arr(rates.iter().map(|&r| Json::Num(r)).collect()),
                ),
                ("warmup_packets", Json::u64(*warmup_packets as u64)),
                ("measured_packets", Json::u64(*measured_packets as u64)),
                ("max_events", Json::u64(*max_events)),
            ]),
        };
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("base", Json::Str(self.base.clone())),
            (
                "axes",
                Json::Arr(
                    self.axes
                        .iter()
                        .map(|a| {
                            obj(vec![
                                ("field", Json::Str(a.field.clone())),
                                (
                                    "values",
                                    Json::Arr(
                                        a.values.iter().map(|v| Json::Str(v.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::u64(s)).collect()),
            ),
            ("eval", eval),
        ])
    }

    /// Parses a spec document. Axis values may be JSON strings or
    /// numbers (numbers are canonicalized to their string spelling).
    pub fn from_json(v: &Json) -> Result<SweepSpec, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a 'name' string")?
            .to_string();
        let base = v
            .get("base")
            .and_then(Json::as_str)
            .unwrap_or("paper")
            .to_string();
        let mut axes = Vec::new();
        for a in v.get("axes").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = a
                .get("field")
                .and_then(Json::as_str)
                .ok_or("axis needs a 'field' string")?
                .to_string();
            let values = a
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("axis {field} needs a 'values' array"))?
                .iter()
                .map(value_string)
                .collect::<Result<Vec<_>, _>>()?;
            axes.push(Axis { field, values });
        }
        let seeds = v
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or("spec needs a 'seeds' array")?
            .iter()
            .map(|s| s.as_u64().ok_or_else(|| format!("bad seed {s:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let eval = v.get("eval").ok_or("spec needs an 'eval' object")?;
        let eval = match eval.get("kind").and_then(Json::as_str) {
            Some("ebn0_search") => EvalSpec::Ebn0Search {
                target_ber: eval
                    .get("target_ber")
                    .and_then(Json::as_f64)
                    .ok_or("ebn0_search needs target_ber")?,
                target_errors: eval
                    .get("target_errors")
                    .and_then(Json::as_u64)
                    .unwrap_or(60),
                max_frames: eval.get("max_frames").and_then(Json::as_u64).unwrap_or(400),
                min_frames: eval.get("min_frames").and_then(Json::as_u64).unwrap_or(8),
            },
            Some("noc_knee") => EvalSpec::NocKnee {
                rates: eval
                    .get("rates")
                    .and_then(Json::as_arr)
                    .ok_or("noc_knee needs a 'rates' array")?
                    .iter()
                    .map(|r| r.as_f64().ok_or_else(|| format!("bad rate {r:?}")))
                    .collect::<Result<Vec<_>, _>>()?,
                warmup_packets: eval
                    .get("warmup_packets")
                    .and_then(Json::as_u64)
                    .unwrap_or(500) as usize,
                measured_packets: eval
                    .get("measured_packets")
                    .and_then(Json::as_u64)
                    .unwrap_or(4_000) as usize,
                max_events: eval
                    .get("max_events")
                    .and_then(Json::as_u64)
                    .unwrap_or(1_000_000),
            },
            other => return Err(format!("unknown eval kind {other:?}")),
        };
        Ok(SweepSpec {
            name,
            base,
            axes,
            seeds,
            eval,
        })
    }
}

/// A cell's store key components: `(config hash, seed, eval hash)`.
pub fn cell_key(cell: &Cell, eval: &EvalSpec) -> (u64, u64, u64) {
    (cell.config.config_hash(), cell.seed, eval.eval_hash())
}

fn value_string(v: &Json) -> Result<String, String> {
    match v {
        Json::Str(s) => Ok(s.clone()),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => Ok(format!("{}", *n as i64)),
        Json::Num(n) => Ok(format!("{n:?}")),
        other => Err(format!("bad axis value {other:?}")),
    }
}

fn push_unique(problems: &mut Vec<String>, problem: String) {
    if !problems.contains(&problem) {
        problems.push(problem);
    }
}

/// Hash identity of the BER target a coding configuration implies —
/// the namespace one frame-evaluation cache is scoped to. Folds exactly
/// the fields that change a frame's simulated value: the code (lifting,
/// the fig10 termination/seed conventions of
/// `CodingConfig::coupled_code`), the window decoder (window,
/// iterations, check rule) and nothing else — **not** the search
/// budget (which frames run, never their values).
pub fn coding_target_hash(coding: &wi_system::config::CodingConfig) -> u64 {
    coupled_target_hash(
        coding.lifting,
        coding.window,
        coding.iterations,
        &coding.check_rule,
    )
}

/// Namespace hash for an explicitly-constructed LDPC-CC window target
/// following the repo's fig10 conventions (`CoupledCode::paper_cc(n,
/// 20, 0xCC00 + n)`) — those conventions make `(lifting, window,
/// iterations, check rule)` a complete identity.
pub fn coupled_target_hash(
    lifting: usize,
    window: usize,
    iterations: usize,
    check_rule: &CheckRule,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_discriminant(1); // coupled-code target family
    h.write_usize(lifting);
    h.write_usize(window);
    h.write_usize(iterations);
    check_rule.stable_hash(&mut h);
    h.finish()
}

/// Namespace hash for an LDPC block-code target following the fig10
/// conventions (`LdpcCode::paper_block(n, 0xBC00 + n)`, rate-0.5
/// Eb/N0 accounting).
pub fn block_target_hash(n: usize, iterations: usize, check_rule: &CheckRule) -> u64 {
    let mut h = StableHasher::new();
    h.write_discriminant(2); // block-code target family
    h.write_usize(n);
    h.write_usize(iterations);
    check_rule.stable_hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            base: "paper".into(),
            axes: vec![
                Axis {
                    field: "routing".into(),
                    values: vec!["dor".into(), "adaptive".into()],
                },
                Axis {
                    field: "traffic".into(),
                    values: vec!["uniform".into(), "hotspot:0:0.2".into(), "transpose".into()],
                },
            ],
            seeds: vec![0xDE5, 7],
            eval: EvalSpec::NocKnee {
                rates: vec![0.1, 0.3],
                warmup_packets: 100,
                measured_packets: 500,
                max_events: 200_000,
            },
        }
    }

    #[test]
    fn expansion_is_a_cartesian_product_in_order() {
        let cells = tiny_spec().expand().unwrap();
        assert_eq!(cells.len(), 2 * 3 * 2);
        // Slowest-varying first, seeds innermost.
        assert_eq!(cells[0].axes[0].1, "dor");
        assert_eq!(cells[0].axes[1].1, "uniform");
        assert_eq!(cells[0].seed, 0xDE5);
        assert_eq!(cells[1].seed, 7);
        assert_eq!(cells[2].axes[1].1, "hotspot:0:0.2");
        assert_eq!(cells[6].axes[0].1, "adaptive");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Applied, not just labeled.
        assert_eq!(cells[6].config.noc.routing, RoutingKind::Adaptive);
    }

    #[test]
    fn expansion_reports_every_problem_at_once() {
        let mut spec = tiny_spec();
        spec.axes[0].values = vec!["dor".into(), "no-such-policy".into()];
        spec.axes[1].values = vec!["uniform".into(), "hotspot:9999:0.2".into()];
        let problems = spec.expand().unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("no-such-policy")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("hotspot")),
            "{problems:?}"
        );
        // Deduplicated per distinct message: the bad routing value
        // parses once (axis-level), the bad hotspot node once per cell
        // label that reaches validation — never once per seed.
        let bad_axis = problems
            .iter()
            .filter(|p| p.starts_with("axis routing"))
            .count();
        assert_eq!(bad_axis, 1, "{problems:?}");
        let hotspot = problems.iter().filter(|p| p.contains("9999")).count();
        assert_eq!(hotspot, 2, "{problems:?}");
    }

    fn search_spec(target_ber: f64, max_frames: u64, min_frames: u64) -> SweepSpec {
        SweepSpec {
            axes: vec![
                axis("lifting", &["10", "15"]),
                axis("check_rule", &["minsum", "exact"]),
            ],
            eval: EvalSpec::Ebn0Search {
                target_ber,
                target_errors: 60,
                max_frames,
                min_frames,
            },
            ..tiny_spec()
        }
    }

    #[test]
    fn expansion_rejects_unusable_search_budgets() {
        assert!(search_spec(0.02, 24, 8).expand().is_ok());
        assert!(search_spec(1e-5, 8, 8).expand().is_ok());
        let problems = search_spec(0.02, 0, 0).expand().unwrap_err();
        assert_eq!(
            problems,
            ["ebn0_search max_frames must be at least 1"],
            "{problems:?}"
        );
        let problems = search_spec(0.02, 5, 8).expand().unwrap_err();
        assert_eq!(
            problems,
            ["ebn0_search min_frames 8 exceeds max_frames 5"],
            "{problems:?}"
        );
        for bad in [0.0, -0.1, 1.0, 2.0, f64::NAN] {
            let problems = search_spec(bad, 24, 8).expand().unwrap_err();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains("target_ber"), "{problems:?}");
        }
        // Budget problems join the grid's other problems in one report.
        let mut spec = search_spec(0.0, 0, 0);
        spec.seeds.clear();
        assert_eq!(spec.expand().unwrap_err().len(), 3);
    }

    #[test]
    fn expansion_rejects_a_knee_eval_that_measures_no_packets() {
        let mut spec = tiny_spec();
        spec.eval = EvalSpec::NocKnee {
            rates: vec![0.1],
            warmup_packets: 100,
            measured_packets: 0,
            max_events: 200_000,
        };
        let problems = spec.expand().unwrap_err();
        assert_eq!(
            problems,
            ["noc_knee measured_packets must be at least 1"],
            "{problems:?}"
        );
        // It joins the grid's other problems in one report.
        spec.seeds.clear();
        assert_eq!(spec.expand().unwrap_err().len(), 2);
    }

    #[test]
    fn expansion_rejects_a_knee_eval_that_cannot_find_its_knee() {
        let knee = |rates: Vec<f64>, max_events| SweepSpec {
            eval: EvalSpec::NocKnee {
                rates,
                warmup_packets: 100,
                measured_packets: 500,
                max_events,
            },
            ..tiny_spec()
        };
        // No event budget: every replication would stop at once and the
        // first rate would be stored as a knee nobody measured.
        assert_eq!(
            knee(vec![0.1, 0.3], 0).expand().unwrap_err(),
            ["noc_knee max_events must be at least 1"]
        );
        // The knee is read off the grid in order, so it must ascend.
        assert_eq!(
            knee(vec![0.9, 0.5, 0.1], 200_000).expand().unwrap_err(),
            ["noc_knee rates must ascend strictly, got 0.9 then 0.5"]
        );
        assert_eq!(
            knee(vec![0.1, 0.1], 200_000).expand().unwrap_err(),
            ["noc_knee rates must ascend strictly, got 0.1 then 0.1"]
        );
        assert_eq!(
            knee(vec![], 200_000).expand().unwrap_err(),
            ["noc_knee rates must hold at least one rate"]
        );
        assert_eq!(
            knee(vec![0.1, -0.3], 200_000).expand().unwrap_err(),
            ["noc_knee rates must be positive and finite, got -0.3"]
        );
        // Every problem in one report.
        assert_eq!(knee(vec![0.3, 0.1], 0).expand().unwrap_err().len(), 2);
        assert!(knee(vec![0.1, 0.3], 1).expand().is_ok());
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = tiny_spec();
        let text = spec.to_json().to_string();
        let back = SweepSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json().to_string());
    }

    #[test]
    fn cell_keys_distinguish_config_seed_and_eval() {
        let spec = tiny_spec();
        let cells = spec.expand().unwrap();
        let k0 = cell_key(&cells[0], &spec.eval);
        let k1 = cell_key(&cells[1], &spec.eval); // same config, other seed
        let k2 = cell_key(&cells[2], &spec.eval); // other config, same seed
        assert_eq!(k0.0, k1.0);
        assert_ne!(k0.1, k1.1);
        assert_ne!(k0.0, k2.0);
        let other_eval = EvalSpec::NocKnee {
            rates: vec![0.1, 0.3, 0.5],
            warmup_packets: 100,
            measured_packets: 500,
            max_events: 200_000,
        };
        assert_ne!(spec.eval.eval_hash(), other_eval.eval_hash());
    }

    #[test]
    fn store_key_hashes_are_pinned() {
        // Literal store keys: a hashed field added, dropped or reordered
        // without a HASH_SCHEMA_VERSION bump changes one of these, and
        // every committed store and frame cache would silently miss.
        assert_eq!(tiny_spec().eval.eval_hash(), 0x73b2_7510_aa39_cb3f);
        assert_eq!(
            coupled_target_hash(25, 4, 50, &CheckRule::SumProduct),
            0x5b16_dedc_c2a9_6a74
        );
        assert_eq!(
            block_target_hash(100, 50, &CheckRule::min_sum()),
            0x31e4_43c7_59d3_5c90
        );
    }

    #[test]
    fn target_hash_ignores_the_search_budget() {
        let mut a = SystemConfig::paper_default().coding;
        let mut b = a;
        b.search.tol_db = 0.7;
        assert_eq!(coding_target_hash(&a), coding_target_hash(&b));
        a.iterations += 1;
        assert_ne!(coding_target_hash(&a), coding_target_hash(&b));
    }

    /// The seven axes no eval kind reads: they changed no stored result.
    const DELETED_AXES: [&str; 7] = [
        "batch",
        "boards",
        "board_spacing_m",
        "tx_power_dbm",
        "bandwidth_hz",
        "injection_rate",
        "vcs",
    ];

    #[test]
    fn each_eval_kind_sweeps_only_the_axes_it_reads() {
        let search = search_spec(0.02, 24, 8);
        assert_eq!(
            search.eval.axis_names().collect::<Vec<_>>(),
            [
                "lifting",
                "window",
                "iterations",
                "check_rule",
                "search_lo_db",
                "search_hi_db",
                "search_tol_db"
            ]
        );
        let knee = tiny_spec();
        assert_eq!(
            knee.eval.axis_names().collect::<Vec<_>>(),
            [
                "routing",
                "traffic",
                "replications",
                "stuck_fraction",
                "stuck_p",
                "link_error_p"
            ]
        );
        // One expand call reports every deleted axis and the other
        // kind's axis together, once each, naming the axis and the kind.
        for (spec, foreign) in [(search, "routing"), (knee, "lifting")] {
            let kind = spec.eval.kind();
            let axes = DELETED_AXES.iter().chain([&foreign]).map(|&field| Axis {
                field: field.into(),
                values: vec!["1".into(), "2".into()],
            });
            let spec = SweepSpec {
                axes: axes.collect(),
                ..spec
            };
            let problems = spec.expand().unwrap_err();
            assert_eq!(problems.len(), 8, "{problems:?}");
            for (problem, field) in problems.iter().zip(DELETED_AXES.iter().chain([&foreign])) {
                assert!(
                    problem.starts_with(&format!("axis {field}: not read by {kind} evals")),
                    "{problem}"
                );
            }
        }
    }

    #[test]
    fn every_owned_axis_applies_and_rejects_a_bad_value() {
        for (eval, field, value) in [
            (search_spec(0.02, 24, 8).eval, "lifting", "25"),
            (search_spec(0.02, 24, 8).eval, "search_tol_db", "0.3"),
            (tiny_spec().eval, "replications", "2"),
            (tiny_spec().eval, "link_error_p", "0.01"),
        ] {
            let mut config = SystemConfig::paper_default();
            assert_eq!(eval.apply_axis(&mut config, field, value), Ok(()));
            assert_ne!(config, SystemConfig::paper_default(), "{field}");
        }
        for eval in [search_spec(0.02, 24, 8).eval, tiny_spec().eval] {
            for field in eval.axis_names() {
                let mut config = SystemConfig::paper_default();
                assert_eq!(
                    eval.apply_axis(&mut config, field, "x"),
                    Err(format!("axis {field}: bad value 'x'"))
                );
                assert_eq!(config, SystemConfig::paper_default(), "{field}");
            }
        }
    }

    fn axis(field: &str, values: &[&str]) -> Axis {
        Axis {
            field: field.into(),
            values: values.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// `(cell count, labels, first cell's key)` of an expanded spec.
    fn expansion(spec: &SweepSpec) -> (usize, Vec<String>, (u64, u64, u64)) {
        let cells = spec.expand().unwrap();
        let labels = cells.iter().map(Cell::label).collect();
        (cells.len(), labels, cell_key(&cells[0], &spec.eval))
    }

    #[test]
    fn committed_and_benchmark_specs_keep_their_cells_and_keys() {
        // specs/ci_smoke.json, the sweep CI step's spec.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ci_smoke.json");
        let text = std::fs::read_to_string(path).unwrap();
        let ci = SweepSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        let (count, labels, key) = expansion(&ci);
        assert_eq!(count, 4);
        assert_eq!(labels[3], "traffic=transpose routing=o1turn seed=0xde5");
        assert_eq!(key, (0x5781_773f_ea4f_3d7f, 0xde5, 0xdacb_f8e3_e3ab_7a8f));

        // The axes of the end-to-end benchmark's `ebn0_search` spec.
        let ebn0 = SweepSpec {
            name: "e2e-ebn0".into(),
            base: "paper".into(),
            axes: vec![
                axis("lifting", &["10", "15"]),
                axis("window", &["3"]),
                axis("iterations", &["10"]),
                axis("check_rule", &["minsum", "table", "exact"]),
                axis("search_tol_db", &["0.5"]),
            ],
            seeds: vec![7, 8],
            eval: EvalSpec::Ebn0Search {
                target_ber: 0.02,
                target_errors: 60,
                max_frames: 24,
                min_frames: 8,
            },
        };
        let (count, labels, key) = expansion(&ebn0);
        assert_eq!(count, 12);
        assert_eq!(
            labels[11],
            "lifting=15 window=3 iterations=10 check_rule=exact search_tol_db=0.5 seed=0x8"
        );
        assert_eq!(key, (0x0c1d_ecc5_128f_294c, 7, 0xc060_46aa_a8c3_ff1f));

        // The axes of the end-to-end benchmark's `noc_knee` spec.
        let knee = SweepSpec {
            name: "e2e-knee".into(),
            base: "paper".into(),
            axes: vec![
                axis("routing", &["dor", "o1turn", "valiant", "adaptive"]),
                axis("traffic", &["uniform", "transpose"]),
            ],
            seeds: vec![7],
            eval: EvalSpec::NocKnee {
                rates: vec![0.1, 0.3, 0.5],
                warmup_packets: 500,
                measured_packets: 3_000,
                max_events: 600_000,
            },
        };
        let (count, labels, key) = expansion(&knee);
        assert_eq!(count, 8);
        assert_eq!(labels[7], "routing=adaptive traffic=transpose seed=0x7");
        assert_eq!(key, (0x5781_773f_ea4f_3d7f, 7, 0xbee4_63e1_9197_e690));

        // The knee matrix of examples/noc_design_space.rs.
        let design = SweepSpec {
            name: "noc-design-space-knees".into(),
            base: "paper".into(),
            axes: vec![
                axis("traffic", &["hotspot:0:0.2", "transpose", "bitrev"]),
                axis("routing", &["dor", "o1turn", "valiant"]),
            ],
            seeds: vec![0xDE5],
            eval: EvalSpec::NocKnee {
                rates: vec![0.1, 0.2, 0.3, 0.4, 0.5],
                warmup_packets: 500,
                measured_packets: 4_000,
                max_events: 1_000_000,
            },
        };
        let (count, labels, key) = expansion(&design);
        assert_eq!(count, 9);
        assert_eq!(labels[8], "traffic=bitrev routing=valiant seed=0xde5");
        assert_eq!(key, (0x0fc3_0985_73cf_6f84, 0xde5, 0xc1de_f3b5_721e_d063));
    }
}
