//! The `sweep` CLI: run, inspect, and compare design-space sweeps.
//!
//! ```text
//! sweep run    --spec <file.json> [--store <dir>] [--threads N]
//!              [--max-cells N] [--out <file>] [--quick]
//! sweep status --spec <file.json> --store <dir>
//! sweep query  --store <dir> [--kind <kind>] [--axis field=value]...
//! sweep diff   <baseline> <candidate> [--threshold 0.10] [--warn-only]
//!              (each side: a store directory or a BENCH_<sha>.json)
//! sweep ingest --bench <BENCH_<sha>.json> --store <dir>
//! ```
//!
//! `run` is resumable: completed cells are skipped on re-run, so a
//! killed sweep continues from where it stopped, and a second run of a
//! finished sweep executes nothing and reuses every stored frame.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wi_sweep::exec::{fold, run, RunOptions};
use wi_sweep::json::Json;
use wi_sweep::spec::{EvalSpec, SweepSpec};
use wi_sweep::store::ResultStore;
use wi_sweep::{diff, ingest_bench, MetricSet};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sweep: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: sweep <run|status|query|diff|ingest> [options]
  run    --spec <file> [--store <dir>] [--threads N] [--max-cells N] [--out <file>] [--quick]
  status --spec <file> --store <dir>
  query  --store <dir> [--kind <kind>] [--axis field=value]...
  diff   <baseline> <candidate> [--threshold 0.10] [--warn-only]
  ingest --bench <BENCH_*.json> --store <dir>
";

/// Value flags that may be given more than once, each adding one value.
const LIST_FLAGS: &[&str] = &["axis"];

/// A tiny `--flag value` scanner; positional args collect separately.
struct Opts {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Opts {
    /// Scans `args` against the subcommand's flags. An unknown flag, a
    /// flag given twice (except the [`LIST_FLAGS`]), a value flag without
    /// its value, or more than `max_positional` other words is an error
    /// naming the argument.
    fn parse(
        args: &[String],
        value_flags: &[&str],
        switch_flags: &[&str],
        max_positional: usize,
    ) -> Result<Opts, String> {
        let mut opts = Opts {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let repeated = opts.has(name) || opts.get(name).is_some();
                if repeated && !LIST_FLAGS.contains(&name) {
                    return Err(format!("--{name} given twice\n{USAGE}"));
                }
                if switch_flags.contains(&name) {
                    opts.switches.push(name.to_string());
                } else if value_flags.contains(&name) {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    opts.flags.push((name.to_string(), value.clone()));
                } else {
                    return Err(format!("unknown option --{name}\n{USAGE}"));
                }
            } else if opts.positional.len() < max_positional {
                opts.positional.push(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`\n{USAGE}"));
            }
        }
        Ok(opts)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required\n{USAGE}"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }
}

fn load_spec(path: &str, quick: bool) -> Result<SweepSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = SweepSpec::from_json(&v).map_err(|e| format!("{path}: {e}"))?;
    if quick {
        shrink_for_quick(&mut spec.eval);
    }
    Ok(spec)
}

/// CI smoke budgets: cap the per-cell work so a sweep finishes in
/// seconds. The capped eval has its own eval hash, so quick results
/// never alias full-budget ones.
fn shrink_for_quick(eval: &mut EvalSpec) {
    match eval {
        EvalSpec::Ebn0Search {
            target_errors,
            max_frames,
            min_frames,
            ..
        } => {
            *target_errors = (*target_errors).min(60);
            *max_frames = (*max_frames).min(48);
            *min_frames = (*min_frames).min(8);
        }
        EvalSpec::NocKnee {
            warmup_packets,
            measured_packets,
            max_events,
            ..
        } => {
            *warmup_packets = (*warmup_packets).min(100);
            *measured_packets = (*measured_packets).min(500);
            *max_events = (*max_events).min(300_000);
        }
    }
}

fn open_store(opts: &Opts) -> Result<ResultStore, String> {
    match opts.get("store") {
        Some(dir) => ResultStore::open(Path::new(dir)).map_err(|e| format!("{dir}: {e}")),
        None => Ok(ResultStore::in_memory()),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &["spec", "store", "threads", "max-cells", "out"],
        &["quick"],
        0,
    )?;
    let run_opts = RunOptions {
        threads: match opts.parsed("threads")? {
            Some(0) => return Err(format!("--threads must be at least 1\n{USAGE}")),
            Some(n) => n,
            None => wi_num::par::threads(),
        },
        max_cells: opts.parsed("max-cells")?,
    };
    let spec = load_spec(opts.require("spec")?, opts.has("quick"))?;
    let mut store = open_store(&opts)?;
    let summary = run(&spec, &mut store, &run_opts).map_err(|e| e.to_string())?;
    eprintln!(
        "sweep `{}`: {} cells, {} cached, {} executed{}; frame cache {} hits / {} misses",
        spec.name,
        summary.total,
        summary.cached,
        summary.executed,
        if summary.complete {
            ""
        } else {
            " (incomplete)"
        },
        summary.frame_hits,
        summary.frame_misses,
    );
    let folded = fold(&spec, &store).map_err(|e| e.to_string())?;
    match opts.get("out") {
        Some(path) => std::fs::write(path, &folded).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{folded}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["spec", "store"], &[], 0)?;
    let spec = load_spec(opts.require("spec")?, false)?;
    let store = open_store(&opts)?;
    let cells = spec.expand().map_err(|p| p.join("\n"))?;
    let done = cells
        .iter()
        .filter(|c| {
            let (config, seed, eval) = wi_sweep::cell_key(c, &spec.eval);
            store.contains(&wi_sweep::CellKey { config, seed, eval })
        })
        .count();
    println!(
        "sweep `{}`: {done}/{} cells complete, {} pending",
        spec.name,
        cells.len(),
        cells.len() - done
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["store", "kind", "axis"], &[], 0)?;
    let store =
        ResultStore::open(Path::new(opts.require("store")?)).map_err(|e| format!("store: {e}"))?;
    let kind = opts.get("kind");
    let axes: Vec<(&str, &str)> = opts
        .flags
        .iter()
        .filter(|(n, _)| n == "axis")
        .map(|(_, v)| {
            v.split_once('=')
                .ok_or_else(|| format!("--axis wants field=value, got `{v}`"))
        })
        .collect::<Result<_, _>>()?;
    let mut shown = 0;
    for record in store.iter() {
        if kind.is_some_and(|k| k != record.kind) {
            continue;
        }
        if !axes
            .iter()
            .all(|(f, v)| record.axes.iter().any(|(rf, rv)| rf == f && rv == v))
        {
            continue;
        }
        let metrics = record
            .metrics
            .iter()
            .map(|(n, v)| format!("{n}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("[{}] {} :: {metrics}", record.kind, record.label);
        shown += 1;
    }
    eprintln!("{shown} of {} records matched", store.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["threshold"], &["warn-only"], 2)?;
    let [old, new] = opts.positional.as_slice() else {
        return Err(format!(
            "diff wants exactly two paths (store dir or BENCH_*.json)\n{USAGE}"
        ));
    };
    let threshold: f64 = opts.parsed("threshold")?.unwrap_or(0.10);
    let old_set = MetricSet::load(&PathBuf::from(old)).map_err(|e| format!("{old}: {e}"))?;
    let new_set = MetricSet::load(&PathBuf::from(new)).map_err(|e| format!("{new}: {e}"))?;
    let report = diff(&old_set, &new_set, threshold);
    print!("{}", report.render());
    if !report.regressions().is_empty() && !opts.has("warn-only") {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ingest(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["bench", "store"], &[], 0)?;
    let bench = opts.require("bench")?;
    let dir = opts.require("store")?;
    let mut store = ResultStore::open(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    let n = ingest_bench(Path::new(bench), &mut store).map_err(|e| format!("{bench}: {e}"))?;
    println!("ingested {n} bench results from {bench} into {dir}");
    Ok(ExitCode::SUCCESS)
}
