//! `e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints the run manifest, a human-readable
//! report and, as the last line, the JSON result. Exits nonzero when a
//! correctness check fails or the arguments are bad.

use e2ebench::manifest::Manifest;
use e2ebench::report::{result_line, selected, Outcome};
use e2ebench::workloads::{self, Ctx, THREADS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>

workloads: fig10_quick, noc_matrix, noc_scale, sweep_store";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: u64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                });
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("e2ebench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = Manifest::collect(&args.workload, args.seed, args.seconds, args.trace, THREADS);
    println!("manifest {}", manifest.to_json());

    let scratch = PathBuf::from(".bench_scratch").join(format!("e2ebench-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads: THREADS,
        scratch: scratch.clone(),
    };
    let mut outcome = Outcome::default();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workloads::run(&args.workload, &ctx, &mut outcome)
    }));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_scratch");
    if ran.is_err() {
        eprintln!("e2ebench: workload {} panicked", args.workload);
        return ExitCode::FAILURE;
    }
    outcome.normalise();

    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in selected(&outcome, args.trace) {
        println!("{name} = {value} {unit}");
    }
    if !args.trace {
        // Workload-specific figures the untraced run measures as well.
        for (name, value) in &outcome.layer {
            println!("{name} = {value}");
        }
    }
    let attempted = outcome.attempted.max(1);
    println!(
        "ops_failed_frac = {} ({} of {attempted} operations)",
        outcome.failed as f64 / attempted as f64,
        outcome.failed
    );
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    let correct = outcome.failed == 0;
    println!("{}", result_line(&outcome, args.trace, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
