//! Fig. 10: required Eb/N0 to reach the target BER as a function of the
//! structural decoding latency — LDPC-CC (N ∈ {25, 40, 60}, W sweeps)
//! versus the LDPC block codes they are derived from.
//!
//! Default preset targets BER 1e-3 with moderate frame counts (minutes);
//! `--full` targets the paper's 1e-5 (much slower); `--quick` is the CI
//! smoke preset (BER 1e-2, seconds). `--minsum` decodes
//! with normalized min-sum (α = 0.8) instead of sum-product — the
//! hardware-faithful variant, several times faster per iteration.
//! `--sum-product-table` keeps sum-product accuracy (within 0.05 dB,
//! pinned by `wi-ldpc/tests/phi_table.rs`) while replacing the
//! `tanh`/`atanh` inner loop with the φ lookup table — the recommended
//! preset for fast high-fidelity sweeps.
//!
//! `--search <bisect|concurrent|paired>` selects the required-Eb/N0
//! search strategy (`wi_ldpc::ber::SearchStrategy`): `bisect` is the
//! pre-redesign serial ladder, retained bit-identical at fixed seed;
//! `concurrent` probes several Eb/N0 points per round and prunes each by
//! confidence interval; `paired` walks a fixed grid with common random
//! numbers and log-linearly interpolates. The two fast strategies are
//! statistically equivalent to the ladder, not bit-identical — measured
//! speedups are recorded in `docs/REPRODUCING.md`.
//!
//! Absolute dB values are implementation-dependent; the reproduced
//! *shape* is: required Eb/N0 falls with window size and lifting factor,
//! and the spatially coupled codes beat the block codes as latency grows.
//!
//! Monte-Carlo frames are fanned out over all available cores with
//! results bit-identical to a serial run (see `wi_ldpc::ber`).

use std::path::PathBuf;
use std::time::Instant;
use wi_bench::{die, flag_value, fmt, forbid_both, has_flag, help_flag, print_table, search_flag};
use wi_ldpc::ber::{
    search_required_ebn0, BerSimOptions, BerTarget, BlockBerTarget, CachedBerTarget,
    CoupledBerTarget, SearchConfig, SearchOutcome, SearchReport,
};
use wi_ldpc::decoder::{BpConfig, CheckRule};
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_ldpc::LdpcCode;
use wi_sweep::{block_target_hash, coupled_target_hash, StoreFrameCache};

const USAGE: &str = "\
fig10_latency_ebn0 — required Eb/N0 vs structural decoding latency (Fig. 10)

USAGE:
    fig10_latency_ebn0 [FLAGS]

FLAGS:
    --full               target the paper's BER 1e-5 instead of the 1e-3
                         runtime preset (~2 min at one thread); an
                         overnight run
    --quick              reduced smoke preset: BER 1e-2, two code families,
                         coarse bisection -- finishes in ~3 s at one
                         thread (used by CI; numbers are indicative only)
    --minsum             decode with normalized min-sum (alpha = 0.8) --
                         the hardware-faithful approximation, fastest,
                         costs a fraction of a dB
    --sum-product-table  decode with the phi-table sum-product kernel --
                         sum-product accuracy (within 0.05 dB) without
                         the tanh/atanh inner loop; recommended for fast
                         high-fidelity sweeps (overrides --minsum)
    --search <strategy>  required-Eb/N0 search strategy:
                           bisect      serial bisection ladder (default;
                                       bit-identical to the pre-redesign
                                       search at fixed seed)
                           concurrent  several probes per round, each
                                       pruned early by confidence interval
                           paired      fixed grid + common random numbers
                                       + log-linear interpolation
                         concurrent/paired are statistically equivalent to
                         bisect, not bit-identical, and markedly faster
    --store <dir>        persist every (seed, frame, Eb/N0) frame
                         evaluation in a wi_sweep result-store directory
                         and reuse any already stored -- a re-run of the
                         same preset is served almost entirely from the
                         cache with bit-identical output (frame values
                         are pure; see the Sweep orchestration section
                         of docs/ARCHITECTURE.md)
    --help, -h           print this help

Monte-Carlo frames are automatically fanned out over all available CPU
cores; results are bit-identical to a serial run at any thread count for
every strategy. Exact CLI recipes, expected runtimes and measured search
speedups: docs/REPRODUCING.md.";

/// Formats a search outcome for the table: the sides of the bracket stay
/// distinguishable instead of collapsing to "n/a".
fn outcome_cell(outcome: SearchOutcome, search: &SearchConfig) -> String {
    match outcome {
        SearchOutcome::Found(v) => fmt(v, 2),
        SearchOutcome::BelowLo => format!("<{:.2}", search.lo_db),
        SearchOutcome::AboveHi => format!(">{:.2}", search.hi_db),
        SearchOutcome::Unresolved { best } => format!("~{best:.2}"),
    }
}

/// Runs one required-Eb/N0 search, through the store-backed frame cache
/// when `--store` was given, accumulating hit/miss counters.
fn searched(
    target: &dyn BerTarget,
    target_hash: u64,
    store_dir: Option<&PathBuf>,
    target_ber: f64,
    opts: &BerSimOptions,
    search: &SearchConfig,
    counters: &mut (u64, u64),
) -> SearchReport {
    match store_dir {
        Some(dir) => {
            let cache = StoreFrameCache::open(dir, target_hash)
                .unwrap_or_else(|e| die(&format!("--store {}: {e}", dir.display())));
            let cached = CachedBerTarget::new(target, &cache);
            let report = search_required_ebn0(&cached, target_ber, opts, search);
            let (h, m) = cache.counters();
            counters.0 += h;
            counters.1 += m;
            report
        }
        None => search_required_ebn0(target, target_ber, opts, search),
    }
}

fn main() {
    help_flag(USAGE);
    forbid_both("--full", "--quick");
    let full = has_flag("--full");
    let quick = has_flag("--quick");
    let check_rule = if has_flag("--sum-product-table") {
        CheckRule::sum_product_table()
    } else if has_flag("--minsum") {
        CheckRule::min_sum()
    } else {
        CheckRule::SumProduct
    };
    let target_ber = if full {
        1e-5
    } else if quick {
        1e-2
    } else {
        1e-3
    };
    // Window decoding fails in bursts (a wrong pinned block corrupts its
    // successors), so the error budget must cover several independent
    // failure events or the estimate degenerates to a frame-error rate.
    // The default preset (~2-4 burst events per estimate) sweeps all 19
    // points in about two minutes at one thread; --full is an overnight
    // run; --quick is a CI smoke preset that finishes in seconds.
    let opts = BerSimOptions {
        target_errors: if full { 600 } else { 120 },
        max_frames: if full {
            20_000
        } else if quick {
            60
        } else {
            150
        },
        min_frames: if quick { 20 } else { 30 },
        seed: 0xF10,
    };
    let term_length = 20;
    let iters = 50;
    let search = SearchConfig {
        strategy: search_flag(),
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: if quick { 0.25 } else { 0.1 },
        // Paired grid: ~1 dB spacing resolves the waterfall after
        // log-linear interpolation; the quick preset stays coarser.
        grid_points: if quick { 7 } else { 9 },
    };

    println!("Fig. 10 — required Eb/N0 for BER {target_ber:.0e} vs structural latency");
    println!("(paper targets 1e-5; default preset 1e-3 for runtime, --full for 1e-5)");
    println!(
        "decoder: {} | {} worker thread(s) | batch width {}",
        match check_rule {
            CheckRule::SumProduct => "exact sum-product".to_string(),
            CheckRule::SumProductTable { bits } => {
                format!("table sum-product (phi table, {bits} bits)")
            }
            CheckRule::MinSum { alpha } => format!("normalized min-sum (alpha = {alpha})"),
        },
        wi_num::par::threads(),
        wi_ldpc::batch::MAX_LANES,
    );
    println!(
        "search: {} over [{}, {}] dB",
        search.strategy.name(),
        search.lo_db,
        search.hi_db
    );

    let store_dir = flag_value("--store").map(PathBuf::from);
    if let Some(dir) = &store_dir {
        println!(
            "frame store: {} (pure frame evaluations cached)",
            dir.display()
        );
    }

    let started = Instant::now();
    let mut probes = 0u64;
    let mut frames = 0u64;
    let mut counters = (0u64, 0u64);
    let mut rows = Vec::new();
    let cc_sweeps: Vec<(usize, Vec<usize>)> = if quick {
        vec![(25, vec![4, 6])]
    } else {
        vec![
            (25, (3..=8).collect()),
            (40, (3..=8).collect()),
            (60, (4..=6).collect()),
        ]
    };
    for (n, windows) in &cc_sweeps {
        let code = CoupledCode::paper_cc(*n, term_length, 0xCC00 + *n as u64);
        for &w in windows {
            let wd = WindowDecoder::new(w, iters).with_rule(check_rule);
            let target = CoupledBerTarget::new(&code, wd);
            let report = searched(
                &target,
                coupled_target_hash(*n, w, iters, &check_rule),
                store_dir.as_ref(),
                target_ber,
                &opts,
                &search,
                &mut counters,
            );
            probes += report.probes;
            frames += report.frames;
            rows.push(vec![
                format!("LDPC-CC N={n}"),
                w.to_string(),
                fmt(code.window_latency_bits(w), 0),
                outcome_cell(report.outcome, &search),
            ]);
        }
    }
    let blocks: &[usize] = if quick {
        &[50, 100]
    } else {
        &[50, 100, 200, 400]
    };
    for &n in blocks {
        let code = LdpcCode::paper_block(n, 0xBC00 + n as u64);
        let config = BpConfig {
            max_iterations: iters,
            check_rule,
        };
        let target = BlockBerTarget::new(&code, config, 0.5);
        let report = searched(
            &target,
            block_target_hash(n, iters, &check_rule),
            store_dir.as_ref(),
            target_ber,
            &opts,
            &search,
            &mut counters,
        );
        probes += report.probes;
        frames += report.frames;
        rows.push(vec![
            format!("LDPC-BC N={n}"),
            "-".into(),
            fmt(n as f64, 0),
            outcome_cell(report.outcome, &search),
        ]);
    }
    print_table(
        "required Eb/N0 / dB",
        &["code", "W", "latency/info bits", "req. Eb/N0"],
        &rows,
    );
    println!(
        "\nsearch phase: {} strategy | {probes} BER probes | {frames} frames | {:.1} s",
        search.strategy.name(),
        started.elapsed().as_secs_f64()
    );
    if store_dir.is_some() {
        let (hits, misses) = counters;
        let total = hits + misses;
        println!(
            "frame store: {hits} hits / {misses} misses ({:.0}% served from store)",
            if total == 0 {
                0.0
            } else {
                100.0 * hits as f64 / total as f64
            }
        );
    }
    println!("\npaper anchor: at Eb/N0 = 3 dB the LDPC-CC needs 200 info bits of latency");
    println!("while the LDPC-BC needs 400 — a 200-bit latency gain from coupling.");
}
