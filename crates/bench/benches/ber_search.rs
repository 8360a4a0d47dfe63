//! Criterion bench for the required-Eb/N0 search of `wi_ldpc::ber` —
//! the wall-clock term the `fig10_latency_ebn0` sweep is dominated by.
//! `ber_search_bisect` runs the bisection ladder over a reduced
//! block-code search at the `fig10 --quick` budget (φ-table rule,
//! single worker thread, so the number measures the ladder's frame
//! budget, not the host's core count).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wi_ldpc::ber::{
    search_required_ebn0_with_threads, BerSimOptions, BlockBerTarget, SearchConfig,
};
use wi_ldpc::decoder::{BpConfig, CheckRule};
use wi_ldpc::LdpcCode;

fn bench_search(c: &mut Criterion) {
    let code = LdpcCode::paper_block(50, 0xBC00 + 50);
    let config = BpConfig {
        max_iterations: 50,
        check_rule: CheckRule::sum_product_table(),
    };
    let target = BlockBerTarget::new(&code, config, 0.5);
    // The fig10 --quick budget: BER 1e-2, coarse tolerance.
    let opts = BerSimOptions {
        target_errors: 120,
        max_frames: 60,
        min_frames: 20,
        seed: 0xF10,
    };
    let search = SearchConfig {
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        ..SearchConfig::default()
    };
    c.bench_function("ber_search_bisect", |b| {
        b.iter(|| search_required_ebn0_with_threads(&target, 1e-2, black_box(&opts), &search, 1))
    });
}

criterion_group! {
    name = ber_search;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_search
}
criterion_main!(ber_search);
