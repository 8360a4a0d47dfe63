//! Figure/table regeneration harness for the DATE'13 reproduction.
//!
//! Each binary in `src/bin/` regenerates one exhibit of the paper
//! (`fig1_pathloss` … `fig10_latency_ebn0`, `table1_link_budget`) or one
//! ablation (`ablation_*`), printing the same rows/series the paper
//! reports. `benches/kernels.rs` holds the Criterion performance benches
//! for the hot computational kernels.
//!
//! Runners accept a `--full` flag where a higher-fidelity (slower) preset
//! exists; the default presets finish in seconds to a few minutes.

use std::fmt::Write as _;
use wi_ldpc::ber::SearchStrategy;
use wi_noc::des::sweep::rates_problem;
use wi_noc::des::traffic::TrafficKind;
use wi_noc::routing::RoutingKind;

/// Prints a fixed-width table with a header rule.
///
/// # Panics
///
/// Panics if any row has a different arity than the header.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().saturating_sub(2)));
    for row in rows {
        let mut out = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "{cell:>w$}  ");
        }
        println!("{out}");
    }
}

/// Formats a float with the given precision.
pub fn fmt(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats an optional float ("-" when absent, e.g. past saturation).
pub fn fmt_opt(x: Option<f64>, prec: usize) -> String {
    match x {
        Some(v) => fmt(v, prec),
        None => "-".to_string(),
    }
}

/// True when the CLI was invoked with the given flag.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Reports a CLI usage error and exits with status 2 — the graceful
/// replacement for panicking on bad arguments: no backtrace hint, just
/// the message and a pointer to `--help`.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

/// Exits via [`die`] when both mutually exclusive flags were passed.
pub fn forbid_both(a: &str, b: &str) {
    if has_flag(a) && has_flag(b) {
        die(&format!("{a} and {b} are mutually exclusive"));
    }
}

/// Prints `usage` and exits when the CLI was invoked with `--help` or
/// `-h`; exits via [`die`], naming the argument, when an argument starts
/// with `--` but is not a flag `usage` lists as a whole word. Call this
/// before any expensive work so every bin answers `--help` instantly and
/// a misspelled flag never starts a run with the defaults.
pub fn help_flag(usage: &str) {
    if has_flag("--help") || has_flag("-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(usage, &args) {
        die(&format!("unknown flag {flag:?}"));
    }
}

/// The first argument starting with `--` that `usage` does not list, if
/// any. A flag is listed when it appears in `usage` as a whole word, so a
/// listed `--sum-product-table` does not admit `--sum-product`.
/// `--help` always passes; values (`hotspot:0:0.2`, `0.05,0.15`, `-h`)
/// are never checked.
fn unknown_flag<'a>(usage: &str, args: &'a [String]) -> Option<&'a str> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '-';
    let listed = |flag: &str| {
        usage
            .match_indices(flag)
            .any(|(i, _)| !usage[..i].ends_with(word) && !usage[i + flag.len()..].starts_with(word))
    };
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && *a != "--help" && !listed(a))
}

/// Value of a `--flag value` pair, if present.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Parsed form of the shared `--routing` flag: one policy, or `all`
/// (print the policy × traffic saturation-knee matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingArg {
    /// A single routing policy.
    Policy(RoutingKind),
    /// Sweep every policy and print the knee matrix.
    All,
}

/// Parses a `--routing` spelling: a [`RoutingKind`] spelling or `all`.
pub fn parse_routing_arg(s: &str) -> Option<RoutingArg> {
    if s == "all" {
        return Some(RoutingArg::All);
    }
    RoutingKind::parse(s).map(RoutingArg::Policy)
}

/// The shared `--routing` flag, if present. Exits via [`die`], naming
/// the value, on an unknown spelling or a policy that parses but is
/// invalid ([`RoutingKind::problem`], e.g. `valiant:0`).
pub fn routing_flag() -> Option<RoutingArg> {
    flag_value("--routing").map(|s| {
        let arg = parse_routing_arg(&s).unwrap_or_else(|| {
            die(&format!(
                "unknown routing policy {s:?} (try dor, o1turn, valiant[:k], rlb[:k], \
                 adaptive, all)"
            ))
        });
        if let Some(problem) = match arg {
            RoutingArg::Policy(kind) => kind.problem(),
            RoutingArg::All => None,
        } {
            die(&format!("invalid routing policy {s:?}: {problem}"));
        }
        arg
    })
}

/// The shared `--search` flag: the required-Eb/N0 search strategy
/// ([`SearchStrategy::Bisection`] when absent — the bit-identical
/// pre-redesign ladder). Exits via [`die`] on an unknown spelling.
pub fn search_flag() -> SearchStrategy {
    match flag_value("--search") {
        Some(s) => SearchStrategy::parse(&s).unwrap_or_else(|| {
            die(&format!(
                "unknown search strategy {s:?} (try bisect, concurrent, paired)"
            ))
        }),
        None => SearchStrategy::Bisection,
    }
}

/// The shared `--traffic` flag ([`TrafficKind::Uniform`] when absent)
/// of a bin that simulates `modules` modules. Exits via [`die`], naming
/// the value, on an unknown spelling or a pattern that parses but is
/// invalid at that size ([`TrafficKind::problem`], e.g. a hotspot node
/// out of range).
pub fn traffic_flag(modules: usize) -> TrafficKind {
    let Some(s) = flag_value("--traffic") else {
        return TrafficKind::Uniform;
    };
    let kind = TrafficKind::parse(&s).unwrap_or_else(|| {
        die(&format!(
            "unknown traffic pattern {s:?} (try uniform, hotspot, \
             hotspot:<node>:<frac>, transpose, bitrev, neighbor)"
        ))
    });
    if let Some(problem) = kind.problem(modules) {
        die(&format!("invalid traffic pattern {s:?}: {problem}"));
    }
    kind
}

/// The shared `--reps` flag (replications per sweep point). Exits via
/// [`die`] unless the value is a positive integer.
pub fn reps_flag(default: usize) -> usize {
    match flag_value("--reps") {
        Some(s) => match s.parse() {
            Ok(reps) if reps > 0 => reps,
            _ => die(&format!("--reps takes a positive integer, got {s:?}")),
        },
        None => default,
    }
}

/// The shared `--batch` flag: the inter-frame decode batch width the BER
/// targets decode in lockstep ([`wi_ldpc::batch::DEFAULT_LANES`] when
/// absent). Any width produces bit-identical per-frame results. Exits via
/// [`die`] unless the value parses to one of 1, 2, 4, 8.
pub fn batch_flag() -> usize {
    match flag_value("--batch") {
        Some(s) => match s.parse::<usize>() {
            Ok(batch) => match wi_ldpc::batch::lanes_problem(batch) {
                None => batch,
                Some(problem) => die(&format!("--batch: {problem}")),
            },
            Err(_) => die(&format!("--batch takes an integer (1, 2, 4, 8), got {s:?}")),
        },
        None => wi_ldpc::batch::DEFAULT_LANES,
    }
}

/// Parses a comma-separated injection-rate grid that every DES sweep
/// accepts: positive, finite and strictly ascending
/// ([`rates_problem`]).
pub fn parse_rates(s: &str) -> Option<Vec<f64>> {
    let rates: Vec<f64> = s
        .split(',')
        .map(|part| part.trim().parse::<f64>().ok())
        .collect::<Option<_>>()?;
    rates_problem(&rates).is_none().then_some(rates)
}

/// The shared `--rates` flag: a comma-separated injection-rate grid
/// overriding a bin's default (e.g. `--rates 0.05,0.15,0.25` for the CI
/// smoke runs). Exits via [`die`] if any rate fails to parse, is not
/// positive, or does not exceed the rate before it.
pub fn rates_flag() -> Option<Vec<f64>> {
    flag_value("--rates").map(|s| {
        parse_rates(&s).unwrap_or_else(|| {
            die(&format!(
                "--rates takes comma-separated positive rates in ascending order, got {s:?}"
            ))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_variants() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_opt(None, 2), "-");
        assert_eq!(fmt_opt(Some(2.5), 1), "2.5");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        print_table("demo", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn unknown_flags_are_named_and_values_pass() {
        let usage = "\
FLAGS:
    --routing <policy>   dor, o1turn, ...
    --sum-product-table  phi-table kernel
    --rates <csv>        e.g. 0.05,0.15
    --help, -h           print this help";
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = args(&[
            "--routing",
            "hotspot:0:0.2",
            "--rates",
            "0.05,0.15",
            "--sum-product-table",
            "--help",
            "-h",
        ]);
        assert_eq!(unknown_flag(usage, &ok), None);
        let typo = args(&["--routing", "adaptive", "--routng", "adaptive"]);
        assert_eq!(unknown_flag(usage, &typo), Some("--routng"));
        let prefix = args(&["--sum-product"]);
        assert_eq!(unknown_flag(usage, &prefix), Some("--sum-product"));
        let suffix = args(&["--product-table"]);
        assert_eq!(unknown_flag(usage, &suffix), Some("--product-table"));
    }

    #[test]
    fn absent_flag_value_is_none() {
        assert_eq!(flag_value("--definitely-not-passed"), None);
    }

    #[test]
    fn routing_arg_parses_policies_and_all() {
        assert_eq!(
            parse_routing_arg("dor"),
            Some(RoutingArg::Policy(RoutingKind::DimensionOrder))
        );
        assert_eq!(
            parse_routing_arg("o1turn"),
            Some(RoutingArg::Policy(RoutingKind::O1Turn))
        );
        assert_eq!(
            parse_routing_arg("valiant:4"),
            Some(RoutingArg::Policy(RoutingKind::Valiant { choices: 4 }))
        );
        assert_eq!(
            parse_routing_arg("rlb:4"),
            Some(RoutingArg::Policy(RoutingKind::RlbValiant { choices: 4 }))
        );
        assert_eq!(
            parse_routing_arg("adaptive"),
            Some(RoutingArg::Policy(RoutingKind::Adaptive))
        );
        assert_eq!(parse_routing_arg("all"), Some(RoutingArg::All));
        assert_eq!(parse_routing_arg("nope"), None);
    }

    #[test]
    fn rates_parse_rejects_garbage() {
        assert_eq!(parse_rates("0.05,0.15,0.25"), Some(vec![0.05, 0.15, 0.25]));
        assert_eq!(parse_rates(" 0.1 , 0.2 "), Some(vec![0.1, 0.2]));
        assert_eq!(parse_rates("0.1,x"), None);
        assert_eq!(parse_rates("0.1,-0.2"), None);
        assert_eq!(parse_rates("0.0"), None);
        assert_eq!(parse_rates(""), None);
        // A knee is read off the grid in order, so it must ascend.
        assert_eq!(parse_rates("0.3,0.1"), None);
        assert_eq!(parse_rates("0.1,0.1"), None);
    }

    #[test]
    fn absent_shared_flags_take_defaults() {
        assert_eq!(traffic_flag(64), TrafficKind::Uniform);
        assert_eq!(reps_flag(3), 3);
        assert_eq!(routing_flag(), None);
        assert_eq!(rates_flag(), None);
        assert_eq!(search_flag(), SearchStrategy::Bisection);
        assert_eq!(batch_flag(), wi_ldpc::batch::DEFAULT_LANES);
    }
}
