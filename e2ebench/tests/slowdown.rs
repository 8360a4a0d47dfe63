//! Injected-slowdown self-test: a fixed delay added inside one timing
//! wrapper must show up under that layer's metric and not under the
//! metrics of the layers around it.

use e2ebench::report::Outcome;
use e2ebench::workloads::fig10::{
    build_codes, jobs, replay, rule, rule_metrics, run_jobs_traced, Job, Preset, Replay,
};
use e2ebench::workloads::sweep_store::{store_search, CacheTimes};
use std::path::PathBuf;
use std::time::Duration;

const DELAY: Duration = Duration::from_millis(2);

/// A small fig10-style search: the two block codes under min-sum with a
/// short ladder and few frames per probe.
fn tiny_preset() -> Preset {
    let mut preset = Preset::quick(7);
    preset.opts.min_frames = 8;
    preset.opts.max_frames = 16;
    preset.search.tol_db = 2.0;
    preset
}

/// Per-layer BER metrics of one traced search with `delay` injected into
/// every `BerTarget` call; also returns the number of calls.
fn ber_layers(delay: Duration) -> (Outcome, usize) {
    let codes = build_codes();
    let jobs: Vec<Job> = jobs(&codes, rule("minsum"))
        .into_iter()
        .filter(|j| matches!(j, Job::Block(..)))
        .collect();
    let traced = run_jobs_traced(&jobs, &tiny_preset(), 2, delay);
    let mut replayed = Replay::default();
    for (job, calls) in jobs.iter().zip(&traced.calls) {
        replay(job, calls, &mut replayed);
    }
    assert_eq!(replayed.mismatches, 0, "replay must reproduce the search");
    let mut out = Outcome::default();
    rule_metrics("minsum", &traced, &replayed, 2, &mut out);
    (out, traced.calls.iter().map(Vec::len).sum())
}

#[test]
fn ber_target_slowdown_is_charged_to_ber_eval_only() {
    let (base, calls) = ber_layers(Duration::ZERO);
    let (slow, slow_calls) = ber_layers(DELAY);
    assert!(calls > 0, "the search must evaluate frames");
    assert_eq!(calls, slow_calls, "the delay must not change the search");
    let extra = calls as f64 * DELAY.as_secs_f64();
    let delta = |name: &str| slow.layer[name] - base.layer[name];

    assert!(
        delta("ber.eval_s.minsum") >= 0.9 * extra,
        "ber.eval_s.minsum grew {:.4} s, injected {extra:.4} s",
        delta("ber.eval_s.minsum")
    );
    for other in ["ldpc.decode_s.minsum", "ber.llr_s"] {
        assert!(
            delta(other).abs() < 0.25 * extra,
            "{other} moved {:.4} s under a {extra:.4} s BER-target slowdown",
            delta(other)
        );
    }
    for count in ["ber.frames.minsum", "ber.probes.minsum"] {
        assert_eq!(base.layer[count], slow.layer[count], "{count} must repeat");
    }
}

/// Cache-layer times of a cold store-backed search with `delay` injected
/// into every `FrameEvalCache::get`.
fn cache_layers(delay: Duration, tag: &str) -> CacheTimes {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("slowdown-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let codes = build_codes();
    let jobs: Vec<Job> = jobs(&codes, rule("minsum"))
        .into_iter()
        .filter(|j| matches!(j, Job::Block(..)))
        .collect();
    let mut times = CacheTimes::default();
    store_search(&dir, &jobs, &tiny_preset(), 2, Some(delay), &mut times).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    times
}

#[test]
fn cache_get_slowdown_is_charged_to_cache_get_only() {
    let base = cache_layers(Duration::ZERO, "base");
    let slow = cache_layers(DELAY, "slow");
    assert_eq!(
        (base.hits, base.misses),
        (slow.hits, slow.misses),
        "the delay must not change what the cache serves"
    );
    assert!(base.misses > 0, "a cold search must simulate frames");
    let extra = (slow.hits + slow.misses) as f64 * DELAY.as_secs_f64();
    assert!(
        slow.get_s - base.get_s >= 0.9 * extra,
        "cache.get_s grew {:.4} s, injected {extra:.4} s",
        slow.get_s - base.get_s
    );
    for (name, b, s) in [
        ("cache.put_s", base.put_s, slow.put_s),
        ("cache.open_s", base.open_s, slow.open_s),
    ] {
        assert!(
            (s - b).abs() < 0.25 * extra,
            "{name} moved {:.4} s under a {extra:.4} s cache-get slowdown",
            s - b
        );
    }
}
