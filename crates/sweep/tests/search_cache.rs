//! Acceptance check for the frame-evaluation store: a fig10-style
//! required-Eb/N0 search run twice against the same on-disk store must
//! serve every frame evaluation of the second run from the store and
//! produce a byte-identical `SearchReport` rendering — the cache may
//! change wall-clock only, never a number.
//!
//! Zero warm misses holds because the BER driver evaluates the same
//! frames on every run at a given thread count: each fan-out round's
//! frames depend only on where the in-order fold stands, the thread count
//! and the batch width, never on thread timing, so the speculative frames
//! past an early stop are the same every time. Both the serial and a
//! threaded driver are pinned.

use wi_ldpc::ber::{
    search_required_ebn0_with_threads, BerSimOptions, CachedBerTarget, CoupledBerTarget,
    SearchConfig,
};
use wi_ldpc::decoder::CheckRule;
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_sweep::exec::render_search_report;
use wi_sweep::{coupled_target_hash, StoreFrameCache};

#[test]
fn second_search_through_the_store_misses_nothing_and_renders_identically() {
    let (n, window, iters) = (15usize, 4usize, 12usize);
    let check_rule = CheckRule::min_sum();
    // fig10 conventions: termination length 20, code seed 0xCC00 + n.
    let code = CoupledCode::paper_cc(n, 20, 0xCC00 + n as u64);
    let opts = BerSimOptions {
        target_errors: 60,
        max_frames: 40,
        min_frames: 8,
        seed: 0xF10,
    };
    let search = SearchConfig {
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.5,
        ..SearchConfig::default()
    };
    let hash = coupled_target_hash(n, window, iters, &check_rule);

    let mut texts = Vec::new();
    for threads in [1, 4] {
        let dir =
            std::env::temp_dir().join(format!("wi_sweep_fig10_{}_{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut runs = Vec::new();
        for _ in 0..2 {
            // A fresh target, workspace and cache each time — only the
            // store directory persists between "processes".
            let cache = StoreFrameCache::open(&dir, hash).unwrap();
            let decoder = WindowDecoder::new(window, iters).with_rule(check_rule);
            let target = CoupledBerTarget::new(&code, decoder).with_batch(4);
            let cached = CachedBerTarget::new(&target, &cache);
            let report = search_required_ebn0_with_threads(&cached, 1e-2, &opts, &search, threads);
            runs.push((render_search_report(&report), cache.counters()));
        }

        let (cold_text, (cold_hits, cold_misses)) = &runs[0];
        let (warm_text, (warm_hits, warm_misses)) = &runs[1];
        assert_eq!(*cold_hits, 0, "nothing to hit on the first run");
        assert!(*cold_misses > 0);
        assert_eq!(
            *warm_misses, 0,
            "second run at {threads} threads must be fully store-served \
             ({warm_hits} hits / {warm_misses} misses)"
        );
        assert!(*warm_hits > 0);
        assert_eq!(
            cold_text, warm_text,
            "cached search must render byte-identically"
        );
        assert!(cold_text.contains("\"outcome\""));
        texts.push(cold_text.clone());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(texts[0], texts[1], "the search must be thread-invariant");
}
