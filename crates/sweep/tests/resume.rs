//! The resume contract, property-tested: a sweep killed after an
//! arbitrary number of cells and then resumed — through an on-disk
//! store reopen, at a different thread count — folds byte-identically
//! to a fresh single-shot run.
//!
//! This is the executable form of the executor's determinism claim:
//! results are a pure function of `(config, seed, eval)`, the store is
//! the only carrier of state, and [`fold`] reads only the store in
//! expansion order. Scheduling (thread count, interruption point,
//! which run computed which cell) must be unobservable in the output.

use proptest::prelude::*;
use std::sync::OnceLock;
use wi_sweep::exec::{fold, run, RunOptions};
use wi_sweep::spec::{Axis, EvalSpec, SweepSpec};
use wi_sweep::store::ResultStore;

/// Six fast DES cells: 3 traffic patterns x 2 seeds, tiny budgets.
fn spec() -> SweepSpec {
    SweepSpec {
        name: "resume-prop".into(),
        base: "paper".into(),
        axes: vec![Axis {
            field: "traffic".into(),
            values: vec!["uniform".into(), "transpose".into(), "bitrev".into()],
        }],
        seeds: vec![0xDE5, 0x51],
        eval: EvalSpec::NocKnee {
            rates: vec![0.1, 0.4],
            warmup_packets: 20,
            measured_packets: 120,
            max_events: 60_000,
        },
    }
}

/// Every `cells-*.jsonl` shard of the store at `dir`, sorted by name.
fn cell_shards(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut shards: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            name.starts_with("cells-")
                .then(|| (name, std::fs::read(&path).unwrap()))
        })
        .collect();
    shards.sort();
    shards
}

/// Records land in expansion order, so a run writes the same bytes into
/// every cell shard at any thread count. Only cell shards are compared:
/// the frame caches of `ebn0_search` cells (none here) are appended
/// concurrently by the inner searches of different cells.
#[test]
fn cell_shards_are_byte_identical_at_any_thread_count() {
    let spec = SweepSpec {
        axes: vec![
            spec().axes[0].clone(),
            Axis {
                field: "routing".into(),
                values: vec!["dor".into(), "o1turn".into()],
            },
        ],
        seeds: vec![1, 2, 3, 4],
        ..spec()
    };
    let mut stores = Vec::new();
    for threads in [1, 4] {
        let dir =
            std::env::temp_dir().join(format!("wi_sweep_shards_{}_{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        let opts = RunOptions {
            threads,
            max_cells: None,
        };
        assert_eq!(run(&spec, &mut store, &opts).unwrap().executed, 24);
        drop(store);
        stores.push(cell_shards(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(stores[0].len() > 1, "the spec must span several shards");
    assert_eq!(stores[0], stores[1]);
}

/// The fresh single-shot fold every interrupted schedule must match.
fn expected() -> &'static str {
    static EXPECTED: OnceLock<String> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let spec = spec();
        let mut store = ResultStore::in_memory();
        let summary = run(&spec, &mut store, &RunOptions::default()).unwrap();
        assert!(summary.complete);
        fold(&spec, &store).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn killed_after_k_cells_then_resumed_folds_bit_identical(
        k in 0usize..7,
        first_threads_idx in 0usize..3,
        resume_threads_idx in 0usize..3,
        salt in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4, 64];
        let spec = spec();
        let dir = std::env::temp_dir().join(format!(
            "wi_sweep_resume_{}_{salt:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // First run: executes at most k cells, then the process "dies"
        // (store dropped, including its buffered writers).
        {
            let mut store = ResultStore::open(&dir).unwrap();
            let first = run(
                &spec,
                &mut store,
                &RunOptions {
                    threads: threads[first_threads_idx],
                    max_cells: Some(k),
                },
            )
            .unwrap();
            prop_assert_eq!(first.executed, k.min(first.total));
        }

        // Resume in a "new process": reopen the store, run to the end
        // at a possibly different thread count.
        let mut store = ResultStore::open(&dir).unwrap();
        prop_assert_eq!(store.len(), k.min(6));
        let second = run(
            &spec,
            &mut store,
            &RunOptions {
                threads: threads[resume_threads_idx],
                max_cells: None,
            },
        )
        .unwrap();
        prop_assert!(second.complete);
        prop_assert_eq!(second.cached, k.min(6));
        prop_assert_eq!(second.executed, 6 - k.min(6));

        let folded = fold(&spec, &store).unwrap();
        prop_assert_eq!(folded.as_str(), expected());

        // Third run: pure cache, still byte-identical.
        let third = run(&spec, &mut store, &RunOptions::default()).unwrap();
        prop_assert_eq!(third.executed, 0);
        let refolded = fold(&spec, &store).unwrap();
        prop_assert_eq!(refolded.as_str(), expected());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
