//! The sharded executor: fans pending cells across worker threads,
//! stores every result, and folds stored records into deterministic
//! output.
//!
//! Determinism is layered, never scheduled:
//!
//! * each cell's evaluation is a pure function of `(config, seed,
//!   eval)` — inner Monte-Carlo runs use the `derive_seed` discipline
//!   and are thread-invariant, and the executor pins them to one inner
//!   thread per cell (parallelism comes from cell fan-out);
//! * workers claim cells through [`wi_num::par::ordered`] — *which*
//!   worker runs a cell affects nothing but wall-clock — and results are
//!   stored in expansion order, so the store's `cells-*.jsonl` shards
//!   are byte-identical at any thread count;
//! * [`fold`] renders exclusively from stored records in expansion
//!   order, so the folded output is byte-identical at any thread count
//!   and any interruption/resume schedule (the resume proptest kills a
//!   run after `k` cells and compares against a single-shot run).

use crate::cache::StoreFrameCache;
use crate::json::{obj, Json};
use crate::spec::{cell_key, coding_target_hash, Cell, EvalSpec, SweepSpec};
use crate::store::{CellKey, CellRecord, ResultStore};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use wi_ldpc::ber::{
    search_required_ebn0_with_threads, BerSimOptions, CachedBerTarget, CoupledBerTarget,
    SearchOutcome, SearchReport,
};
use wi_noc::des::{sweep_with_threads, SweepResult};
use wi_num::par;

/// Executor knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Worker threads fanning over cells.
    pub threads: usize,
    /// Stop after executing this many *new* cells (kill-and-resume
    /// knob; cached cells don't count). `None` runs to completion.
    pub max_cells: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: par::threads(),
            max_cells: None,
        }
    }
}

/// What a [`run`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells in the expanded spec.
    pub total: usize,
    /// Cells already in the store when the run started.
    pub cached: usize,
    /// Cells executed by this run.
    pub executed: usize,
    /// True when every cell now has a stored result.
    pub complete: bool,
    /// Frame-evaluation cache hits across the run (Eb/N0 cells only).
    pub frame_hits: u64,
    /// Frame-evaluation cache misses (= frames actually simulated).
    pub frame_misses: u64,
}

impl RunSummary {
    /// Frame-cache hit rate in `[0, 1]`; 0 when no frames were touched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.frame_hits + self.frame_misses;
        if total == 0 {
            0.0
        } else {
            self.frame_hits as f64 / total as f64
        }
    }
}

/// Why a [`run`] refused or failed.
#[derive(Debug)]
pub enum RunError {
    /// The spec expanded with problems (all of them, deduplicated).
    Invalid(Vec<String>),
    /// Store I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Invalid(problems) => {
                writeln!(f, "invalid sweep spec ({} problems):", problems.len())?;
                for p in problems {
                    writeln!(f, "  - {p}")?;
                }
                Ok(())
            }
            RunError::Io(e) => write!(f, "store I/O: {e}"),
        }
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Expands `spec`, executes every cell not already stored (up to
/// `opts.max_cells`), and returns what happened. Results land in
/// `store` in expansion order, each as soon as every earlier cell's has
/// — killing the process mid-run loses the cells in flight plus any
/// finished cells queued behind an unfinished earlier one, and a later
/// `run` recomputes exactly those.
pub fn run(
    spec: &SweepSpec,
    store: &mut ResultStore,
    opts: &RunOptions,
) -> Result<RunSummary, RunError> {
    let cells = spec.expand().map_err(RunError::Invalid)?;
    let pending: Vec<&Cell> = cells
        .iter()
        .filter(|c| !store.contains(&key_of(c, spec)))
        .collect();
    let cached = cells.len() - pending.len();
    let budget = opts.max_cells.unwrap_or(pending.len()).min(pending.len());
    let batch = &pending[..budget];

    // One frame cache per distinct coding target in the batch, shared
    // across workers (values are pure, so sharing is free concurrency).
    let store_dir = store.dir().map(|d| d.to_path_buf());
    let caches: Mutex<HashMap<u64, Arc<StoreFrameCache>>> = Mutex::new(HashMap::new());
    let cache_for = |cell: &Cell| -> std::io::Result<Arc<StoreFrameCache>> {
        let hash = coding_target_hash(&cell.config.coding);
        let mut map = caches.lock().unwrap();
        if let Some(c) = map.get(&hash) {
            return Ok(c.clone());
        }
        let cache = Arc::new(match &store_dir {
            Some(dir) => StoreFrameCache::open(dir, hash)?,
            None => StoreFrameCache::in_memory(),
        });
        map.insert(hash, cache.clone());
        Ok(cache)
    };

    let mut stored = Ok(());
    par::ordered(
        &mut vec![(); opts.threads.max(1)],
        batch.len(),
        |_, i| evaluate(batch[i], &spec.eval, &cache_for),
        |_, record| {
            stored = record.and_then(|r| store.put(r));
            match stored {
                Ok(()) => ControlFlow::Continue(()),
                Err(_) => ControlFlow::Break(()),
            }
        },
    );
    stored?;

    let (mut frame_hits, mut frame_misses) = (0, 0);
    for cache in caches.into_inner().unwrap().values() {
        let (h, m) = cache.counters();
        frame_hits += h;
        frame_misses += m;
        cache.flush()?;
    }
    Ok(RunSummary {
        total: cells.len(),
        cached,
        executed: budget,
        complete: cached + budget == cells.len(),
        frame_hits,
        frame_misses,
    })
}

fn key_of(cell: &Cell, spec: &SweepSpec) -> CellKey {
    let (config, seed, eval) = cell_key(cell, &spec.eval);
    CellKey { config, seed, eval }
}

fn evaluate(
    cell: &Cell,
    eval: &EvalSpec,
    cache_for: &dyn Fn(&Cell) -> std::io::Result<Arc<StoreFrameCache>>,
) -> std::io::Result<CellRecord> {
    let (metrics, text) = match eval {
        EvalSpec::Ebn0Search {
            target_ber,
            target_errors,
            max_frames,
            min_frames,
        } => {
            let cache = cache_for(cell)?;
            let coding = &cell.config.coding;
            let code = coding.coupled_code();
            let target =
                CoupledBerTarget::new(&code, coding.window_decoder()).with_batch(coding.batch);
            let cached = CachedBerTarget::new(&target, cache.as_ref());
            let opts = BerSimOptions {
                target_errors: *target_errors,
                max_frames: *max_frames,
                min_frames: *min_frames,
                seed: cell.seed,
            };
            // Inner threads pinned to 1: parallelism is cell fan-out,
            // and the search is thread-invariant anyway.
            let report =
                search_required_ebn0_with_threads(&cached, *target_ber, &opts, &coding.search, 1);
            let mut metrics = Vec::new();
            if let Some(v) = report.outcome.value() {
                metrics.push(("required_ebn0_db".to_string(), v));
            }
            metrics.push(("probes".to_string(), report.probes as f64));
            metrics.push(("frames".to_string(), report.frames as f64));
            (metrics, render_search_report(&report))
        }
        EvalSpec::NocKnee { .. } => {
            let topo = cell.config.stack.topology();
            let cfg = eval
                .knee_sweep(&cell.config, cell.seed)
                .expect("a noc_knee eval");
            let result = sweep_with_threads(&topo, &cfg, 1);
            let mut metrics = Vec::new();
            if let Some(k) = result.saturation_knee {
                metrics.push(("knee".to_string(), k));
            }
            for (i, p) in result.points.iter().enumerate() {
                metrics.push((format!("latency_{i}"), p.mean_latency));
                metrics.push((format!("stderr_{i}"), p.stderr));
                metrics.push((format!("completed_{i}"), p.completed as f64));
            }
            (metrics, render_sweep_result(&result))
        }
    };
    let (config, seed, eval_hash) = cell_key(cell, eval);
    Ok(CellRecord {
        key: CellKey {
            config,
            seed,
            eval: eval_hash,
        },
        kind: eval.kind().to_string(),
        label: cell.label(),
        axes: cell.axes.clone(),
        metrics,
        text,
    })
}

/// Canonical single-line rendering of a [`SearchReport`] — the byte
/// string the "second run is byte-identical" acceptance checks compare.
/// Floats print in shortest round-trip form, counters as exact decimal
/// strings.
pub fn render_search_report(report: &SearchReport) -> String {
    let outcome = match report.outcome {
        SearchOutcome::Found(v) => obj(vec![
            ("kind", Json::Str("found".into())),
            ("ebn0_db", Json::Num(v)),
        ]),
        SearchOutcome::BelowLo => obj(vec![("kind", Json::Str("below_lo".into()))]),
        SearchOutcome::AboveHi => obj(vec![("kind", Json::Str("above_hi".into()))]),
        SearchOutcome::Unresolved { best } => obj(vec![
            ("kind", Json::Str("unresolved".into())),
            ("best", Json::Num(best)),
        ]),
    };
    obj(vec![
        ("outcome", outcome),
        ("probes", Json::u64(report.probes)),
        ("frames", Json::u64(report.frames)),
        (
            "curve",
            Json::Arr(
                report
                    .curve
                    .iter()
                    .map(|(ebn0, est)| {
                        Json::Arr(vec![
                            Json::Num(*ebn0),
                            Json::Num(est.ber),
                            Json::u64(est.bit_errors),
                            Json::u64(est.bits),
                            Json::u64(est.frames),
                            Json::u64(est.frame_errors),
                            Json::Str(est.errors_sq.to_string()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// Canonical single-line rendering of a DES rate sweep.
pub fn render_sweep_result(result: &SweepResult) -> String {
    obj(vec![
        (
            "knee",
            match result.saturation_knee {
                Some(k) => Json::Num(k),
                None => Json::Null,
            },
        ),
        (
            "points",
            Json::Arr(
                result
                    .points
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("rate", Json::Num(p.rate)),
                            ("mean_latency", Json::Num(p.mean_latency)),
                            ("stderr", Json::Num(p.stderr)),
                            ("completed", Json::u64(p.completed as u64)),
                            ("replications", Json::u64(p.replications as u64)),
                            ("retries", Json::u64(p.retries)),
                            ("dropped", Json::u64(p.dropped as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// Renders the spec's results from stored records, in expansion order —
/// the deterministic fold the resume tests byte-compare. Cells without
/// a stored record render as `pending`.
pub fn fold(spec: &SweepSpec, store: &ResultStore) -> Result<String, RunError> {
    let cells = spec.expand().map_err(RunError::Invalid)?;
    let mut out = String::new();
    out.push_str(&format!(
        "sweep {name}: {kind}, {n} cells\n",
        name = spec.name,
        kind = spec.eval.kind(),
        n = cells.len()
    ));
    for cell in &cells {
        let line = match store.get(&key_of(cell, spec)) {
            Some(record) => {
                let metrics = record
                    .metrics
                    .iter()
                    .map(|(n, v)| format!("{n}={v:?}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                format!("{label} :: {metrics}\n", label = cell.label())
            }
            None => format!("{label} :: pending\n", label = cell.label()),
        };
        out.push_str(&line);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;

    fn knee_spec() -> SweepSpec {
        SweepSpec {
            name: "exec-test".into(),
            base: "paper".into(),
            axes: vec![Axis {
                field: "traffic".into(),
                values: vec!["uniform".into(), "transpose".into()],
            }],
            seeds: vec![0xDE5],
            eval: EvalSpec::NocKnee {
                rates: vec![0.1, 0.5],
                warmup_packets: 50,
                measured_packets: 300,
                max_events: 200_000,
            },
        }
    }

    #[test]
    fn run_stores_fold_renders_and_rerun_hits() {
        let spec = knee_spec();
        let mut store = ResultStore::in_memory();
        let summary = run(&spec, &mut store, &RunOptions::default()).unwrap();
        assert_eq!((summary.total, summary.cached, summary.executed), (2, 0, 2));
        assert!(summary.complete);
        let folded = fold(&spec, &store).unwrap();
        assert!(!folded.contains("pending"), "{folded}");
        // Second run: everything served from the store.
        let again = run(&spec, &mut store, &RunOptions::default()).unwrap();
        assert_eq!((again.cached, again.executed), (2, 0));
        assert_eq!(folded, fold(&spec, &store).unwrap());
    }

    #[test]
    fn max_cells_interrupts_and_resume_completes_identically() {
        let spec = knee_spec();
        let mut oneshot = ResultStore::in_memory();
        run(&spec, &mut oneshot, &RunOptions::default()).unwrap();
        let expected = fold(&spec, &oneshot).unwrap();

        let mut resumed = ResultStore::in_memory();
        let first = run(
            &spec,
            &mut resumed,
            &RunOptions {
                threads: 1,
                max_cells: Some(1),
            },
        )
        .unwrap();
        assert!(!first.complete);
        assert!(fold(&spec, &resumed).unwrap().contains("pending"));
        let second = run(&spec, &mut resumed, &RunOptions::default()).unwrap();
        assert!(second.complete);
        assert_eq!(second.cached, 1);
        assert_eq!(expected, fold(&spec, &resumed).unwrap());
    }

    #[test]
    fn ebn0_cells_reuse_frames_across_seeds_of_the_same_target() {
        let spec = SweepSpec {
            name: "search-test".into(),
            base: "paper".into(),
            // A tiny code so the search runs in milliseconds.
            axes: vec![
                Axis {
                    field: "lifting".into(),
                    values: vec!["10".into()],
                },
                Axis {
                    field: "window".into(),
                    values: vec!["3".into()],
                },
                Axis {
                    field: "iterations".into(),
                    values: vec!["8".into()],
                },
                Axis {
                    field: "check_rule".into(),
                    values: vec!["minsum".into()],
                },
                Axis {
                    field: "search_tol_db".into(),
                    values: vec!["1.0".into()],
                },
            ],
            seeds: vec![0xA, 0xB],
            eval: EvalSpec::Ebn0Search {
                target_ber: 0.05,
                target_errors: 40,
                max_frames: 16,
                min_frames: 4,
            },
        };
        let mut store = ResultStore::in_memory();
        let cold = run(&spec, &mut store, &RunOptions::default()).unwrap();
        assert_eq!(cold.executed, 2);
        assert_eq!(cold.frame_hits, 0, "distinct seeds share no frames");
        assert!(cold.frame_misses > 0);
        let folded = fold(&spec, &store).unwrap();
        assert!(folded.contains("required_ebn0_db"), "{folded}");
    }
}
