//! `sweep_store`: the `wi_sweep` service against a fresh store. Cold: a
//! spec of `ebn0_search` cells (small LDPC-CC codes × check rule) and a
//! spec of `noc_knee` cells (routing × traffic) run into an empty store,
//! then the min-sum fig10-quick searches run through `CachedBerTarget` +
//! `StoreFrameCache`. Warm: the store is reopened, both specs re-run
//! (every cell cached) and folded, and the searches are served from the
//! frame caches.

use super::fig10::{self, build_codes, jobs, Codes, Job, Preset, ITERS};
use super::{check_digest, digest, iterate, median_col, Ctx, SETUP_BURST_S};
use crate::layer::TimedCache;
use crate::report::Outcome;
use crate::sys::{peak_rss_mib, secs};
use std::path::Path;
use std::time::{Duration, Instant};
use wi_ldpc::ber::{search_required_ebn0_with_threads, CachedBerTarget, FrameEvalCache};
use wi_num::rng::derive_seed;
use wi_sweep::exec::render_search_report;
use wi_sweep::spec::{Axis, EvalSpec, SweepSpec};
use wi_sweep::{
    block_target_hash, coupled_target_hash, fold, run as exec_run, ResultStore, RunOptions,
    RunSummary, StoreFrameCache,
};

/// Pinned digest of the cold folds and cold search reports at the
/// default seed.
const PINNED: u64 = 0x1a07_b861_d5c3_c228;

fn axis(field: &str, values: &[&str]) -> Axis {
    Axis {
        field: field.into(),
        values: values.iter().map(|v| v.to_string()).collect(),
    }
}

/// The `ebn0_search` spec: small coupled codes × check rule.
pub fn ebn0_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "e2e-ebn0".into(),
        base: "paper".into(),
        axes: vec![
            axis("lifting", &["10", "15"]),
            axis("window", &["3"]),
            axis("iterations", &["10"]),
            axis("check_rule", &["minsum", "table", "exact"]),
            axis("search_tol_db", &["0.5"]),
        ],
        seeds: vec![seed, derive_seed(seed, 1)],
        eval: EvalSpec::Ebn0Search {
            target_ber: 0.02,
            target_errors: 60,
            max_frames: 24,
            min_frames: 8,
        },
    }
}

/// The `noc_knee` spec: routing × traffic on the paper's stack.
pub fn knee_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "e2e-knee".into(),
        base: "paper".into(),
        axes: vec![
            axis("routing", &["dor", "o1turn", "valiant", "adaptive"]),
            axis("traffic", &["uniform", "transpose"]),
        ],
        seeds: vec![seed],
        eval: EvalSpec::NocKnee {
            rates: vec![0.1, 0.3, 0.5],
            warmup_packets: 500,
            measured_packets: 3_000,
            max_events: 600_000,
        },
    }
}

/// Frame-cache namespace of a fig10 job (the bin's `--store` hashes).
fn target_hash(job: &Job) -> u64 {
    match *job {
        Job::Window(code, dec) => {
            coupled_target_hash(code.lifting(), dec.window, ITERS, &dec.check_rule)
        }
        Job::Block(code, config) => block_target_hash(code.len(), ITERS, &config.check_rule),
    }
}

/// Layer timings of the store-backed searches.
#[derive(Debug, Default)]
pub struct CacheTimes {
    /// `StoreFrameCache::open` seconds.
    pub open_s: f64,
    /// `get` / `put` seconds and hit / miss counts through [`TimedCache`]
    /// (traced runs only).
    pub get_s: f64,
    /// See `get_s`.
    pub put_s: f64,
    /// See `get_s`.
    pub hits: u64,
    /// See `get_s`.
    pub misses: u64,
}

/// The min-sum fig10-quick searches through store-backed frame caches;
/// returns the rendered reports. With `trace` set, every cache access
/// goes through a [`TimedCache`] that adds the given delay to each `get`
/// (zero outside the self-test).
pub fn store_search(
    dir: &Path,
    jobs: &[Job],
    preset: &Preset,
    threads: usize,
    trace: Option<Duration>,
    times: &mut CacheTimes,
) -> std::io::Result<Vec<String>> {
    let mut renders = Vec::new();
    for job in jobs {
        let t0 = Instant::now();
        let cache = StoreFrameCache::open(dir, target_hash(job))?;
        times.open_s += secs(t0);
        let timed = TimedCache::with_delay(&cache, trace.unwrap_or_default());
        let through: &dyn FrameEvalCache = if trace.is_some() { &timed } else { &cache };
        let target = job.target();
        let cached = CachedBerTarget::new(&*target, through);
        let report = search_required_ebn0_with_threads(
            &cached,
            preset.target_ber,
            &preset.opts,
            &preset.search,
            threads,
        );
        cache.flush()?;
        renders.push(render_search_report(&report));
        let (g, p) = timed.times();
        let (h, m) = timed.counters();
        times.get_s += g;
        times.put_s += p;
        times.hits += h;
        times.misses += m;
    }
    Ok(renders)
}

/// What one cold + warm pass produced.
#[derive(Debug, PartialEq)]
pub struct Pass {
    /// Folds after the cold run (ebn0 spec, knee spec).
    pub cold_fold: Vec<String>,
    /// Folds after the warm run.
    pub warm_fold: Vec<String>,
    /// Cold store-backed search reports.
    pub cold_search: Vec<String>,
    /// Warm store-backed search reports.
    pub warm_search: Vec<String>,
    /// Run summaries: cold ebn0, cold knee, warm ebn0, warm knee.
    pub summaries: Vec<RunSummary>,
}

/// Per-layer timings of one pass (timing vector order, after wall).
const T_COLD: usize = 1;
const T_WARM: usize = 2;
const T_EXEC_COLD: usize = 3;
const T_EXEC_WARM: usize = 4;
const T_RELOAD: usize = 5;
const T_FOLD: usize = 6;
const T_STORE_MIB: usize = 7;

/// One cold + warm pass in a fresh store directory `dir`; returns the
/// outputs, the timings (indexed by the `T_*` constants) and the cache
/// layer's times.
fn pass(
    dir: &Path,
    specs: &[SweepSpec; 2],
    search_jobs: &[Job],
    preset: &Preset,
    threads: usize,
    trace: Option<Duration>,
) -> std::io::Result<(Pass, Vec<f64>, CacheTimes)> {
    let mut cache_times = CacheTimes::default();
    let opts = RunOptions {
        threads,
        max_cells: None,
    };
    let exec = |spec: &SweepSpec, store: &mut ResultStore| {
        exec_run(spec, store, &opts).map_err(|e| std::io::Error::other(e.to_string()))
    };
    let fold_all = |store: &ResultStore| -> std::io::Result<Vec<String>> {
        specs
            .iter()
            .map(|s| fold(s, store).map_err(|e| std::io::Error::other(e.to_string())))
            .collect()
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let mut store = ResultStore::open(dir)?;

    let t0 = Instant::now();
    let mut summaries = vec![exec(&specs[0], &mut store)?, exec(&specs[1], &mut store)?];
    let exec_cold_s = secs(t0);
    let cold_search = store_search(dir, search_jobs, preset, threads, trace, &mut cache_times)?;
    let cold_s = secs(t0);
    let cold_fold = fold_all(&store)?;
    drop(store);
    let store_mib = dir_bytes(dir)? as f64 / (1024.0 * 1024.0);

    let t0 = Instant::now();
    let mut store = ResultStore::open(dir)?;
    let reload_s = secs(t0);
    let te = Instant::now();
    summaries.push(exec(&specs[0], &mut store)?);
    summaries.push(exec(&specs[1], &mut store)?);
    let exec_warm_s = secs(te);
    let tf = Instant::now();
    let warm_fold = fold_all(&store)?;
    let fold_s = secs(tf);
    let warm_search = store_search(dir, search_jobs, preset, threads, trace, &mut cache_times)?;
    let warm_s = secs(t0);
    drop(store);

    let times = vec![
        cold_s + warm_s,
        cold_s,
        warm_s,
        exec_cold_s,
        exec_warm_s,
        reload_s,
        fold_s,
        store_mib,
    ];
    Ok((
        Pass {
            cold_fold,
            warm_fold,
            cold_search,
            warm_search,
            summaries,
        },
        times,
        cache_times,
    ))
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    // Set-up: lift the codes and open an empty store.
    let build = || -> Codes {
        let codes = build_codes();
        let store = ResultStore::open(&ctx.scratch.join("empty-store"));
        assert!(
            store.is_ok(),
            "cannot open a fresh store: {:?}",
            store.err()
        );
        codes
    };
    let codes = out.setup_burst(5, 5_000, SETUP_BURST_S, build);
    let specs = [ebn0_spec(ctx.seed), knee_spec(ctx.seed)];
    let preset = Preset::quick(ctx.seed);
    let search_jobs = jobs(&codes, fig10::rule("minsum"));
    let dir = ctx.scratch.join("store");

    let rebuild = |out: &mut Outcome| drop(out.setup_burst(5, 5_000, SETUP_BURST_S, build));
    let (first, times) = iterate(ctx, out, "sweep_store", rebuild, || {
        let (outputs, times, _) = pass(&dir, &specs, &search_jobs, &preset, ctx.threads, None)
            .unwrap_or_else(|e| panic!("sweep_store pass failed: {e}"));
        (outputs, times)
    });
    let cells: usize = first.summaries.iter().map(|s| s.executed).sum();
    out.ops((times.len() * (cells + search_jobs.len() * 2)) as u64);
    let wall = median_col(&times, 0);
    out.layer("wall_s", wall);
    out.layer("peak_rss_mib", peak_rss_mib());
    out.layer("sweep_cold_s", median_col(&times, T_COLD));
    out.layer("sweep_warm_s", median_col(&times, T_WARM));

    // Correctness: warm ≡ cold, nothing re-executed, search served
    // entirely from the store with byte-identical reports.
    let [ce, ck, we, wk] = [0, 1, 2, 3].map(|i| first.summaries[i]);
    out.check(ce.executed == ce.total && ck.executed == ck.total, || {
        format!(
            "cold run executed {}+{} of {}+{}",
            ce.executed, ck.executed, ce.total, ck.total
        )
    });
    out.check(we.executed == 0 && wk.executed == 0, || {
        format!("warm run executed {}+{} cells", we.executed, wk.executed)
    });
    out.check(we.cached == we.total && wk.cached == wk.total, || {
        "warm run did not find every cell cached".into()
    });
    out.check(first.warm_fold == first.cold_fold, || {
        "warm fold differs from the cold fold".into()
    });
    out.check(first.warm_search == first.cold_search, || {
        "warm store-served search differs from the cold search".into()
    });
    out.check(
        first.cold_fold.iter().all(|f| !f.contains("pending")),
        || "cold fold has pending cells".into(),
    );
    let mut pinned = first.cold_fold.clone();
    pinned.extend(first.cold_search.iter().cloned());
    check_digest(ctx, out, "sweep_store folds", digest(&pinned), PINNED);

    if ctx.trace {
        let t0 = Instant::now();
        for spec in &specs {
            let cells = spec.expand();
            out.check(cells.is_ok(), || {
                format!("{}: spec does not expand", spec.name)
            });
        }
        out.layer("sweep.expand_s", secs(t0));
        let (traced, t, cache_times) = pass(
            &dir,
            &specs,
            &search_jobs,
            &preset,
            ctx.threads,
            Some(Duration::ZERO),
        )
        .unwrap_or_else(|e| panic!("traced sweep_store pass failed: {e}"));
        out.check(traced == first, || {
            "sweep_store: traced pass differs".into()
        });
        out.layer("sweep.exec_cold_s", t[T_EXEC_COLD]);
        out.layer("sweep.exec_warm_s", t[T_EXEC_WARM]);
        out.layer("sweep.reload_s", t[T_RELOAD]);
        out.layer("sweep.fold_s", t[T_FOLD]);
        out.layer("sweep.store_mib", t[T_STORE_MIB]);
        let sum = |f: fn(&RunSummary) -> usize| traced.summaries.iter().map(f).sum::<usize>();
        out.layer("sweep.cells_executed", sum(|s| s.executed) as f64);
        out.layer("sweep.cells_cached", sum(|s| s.cached) as f64);
        out.layer("cache.open_s", cache_times.open_s);
        out.layer("cache.get_s", cache_times.get_s);
        out.layer("cache.put_s", cache_times.put_s);
        out.layer("cache.hits", cache_times.hits as f64);
        out.layer("cache.misses", cache_times.misses as f64);
        out.layer("trace.wall_gap_frac", t[0] / wall - 1.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
