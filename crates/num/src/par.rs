//! The workspace's one ordered thread fan-out ([`ordered`]) and its one
//! worker-count source ([`threads`]). Every parallel path is a serial fold
//! over independent items: folding them in index order keeps results
//! bit-identical at any thread count, and claiming them dynamically keeps a
//! slow item from idling the other workers behind a static chunk.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker threads for the auto-parallel entry points: `WI_TEST_THREADS`
/// when set (CI runs the suite at 1 and 4), else every available core.
///
/// # Panics
///
/// Panics if `WI_TEST_THREADS` is set but is not a positive integer.
pub fn threads() -> usize {
    let var = std::env::var_os("WI_TEST_THREADS");
    let var = var.as_deref().map(|v| v.to_string_lossy());
    parse_threads(var.as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The `WI_TEST_THREADS` override, `None` when the variable is unset.
fn parse_threads(var: Option<&str>) -> Option<usize> {
    let value = var?;
    match value.parse() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("WI_TEST_THREADS={value:?} is not a positive integer"),
    }
}

/// Runs `work(state, i)` for every `i` in `0..items`, one worker per
/// state, and calls `fold(i, result)` on the caller's thread in index
/// order, as soon as every earlier item is folded. Workers claim indices
/// dynamically and keep their state (a decoder workspace, an engine) for
/// the whole call. After `fold` returns [`ControlFlow::Break`], workers
/// stop claiming and unfolded results are dropped. With one state or one
/// item everything runs inline; states past `items` are never touched.
///
/// # Panics
///
/// Panics if `states` is empty while `items > 0`. A panic in `work` is
/// resumed on the caller's thread once the other workers have finished.
pub fn ordered<S, R, W, F>(states: &mut [S], items: usize, work: W, mut fold: F)
where
    S: Send,
    R: Send,
    W: Fn(&mut S, usize) -> R + Sync,
    F: FnMut(usize, R) -> ControlFlow<()>,
{
    let workers = states.len().min(items);
    if workers <= 1 {
        let _ = (0..items).try_for_each(|i| fold(i, work(&mut states[0], i)));
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .map(|state| {
                let (tx, next, work) = (tx.clone(), &next, &work);
                // Exits once every item is claimed or the receiver is gone
                // (the fold broke or panicked). The claim counter publishes
                // no data, so `Relaxed` suffices; results go by channel.
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items || tx.send((i, work(state, i))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        let mut pending = HashMap::new();
        let mut want = 0;
        let _ = rx.into_iter().try_for_each(|(i, result)| {
            pending.insert(i, result);
            while let Some(result) = pending.remove(&want) {
                fold(want, result)?;
                want += 1;
            }
            ControlFlow::Continue(())
        });
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// Deliberately uneven item costs: every seventh item is slow.
    fn uneven(i: usize) -> usize {
        if i.is_multiple_of(7) {
            std::thread::sleep(Duration::from_millis(2));
        }
        i * i
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    fn fold_sees_items_in_index_order() {
        for workers in [1, 2, 4, 64] {
            // With several workers, item 0 finishes only once item 2 has
            // started, i.e. after item 1's result was sent: the fold must
            // hold item 1 back until item 0 arrives.
            let (started_tx, started_rx) = mpsc::channel();
            let started_rx = std::sync::Mutex::new(started_rx);
            let mut states = vec![0usize; workers];
            let mut seen = Vec::new();
            ordered(
                &mut states,
                100,
                |runs, i| {
                    *runs += 1;
                    match i {
                        0 if workers > 1 => started_rx.lock().unwrap().recv().unwrap(),
                        2 => started_tx.send(()).unwrap_or(()),
                        _ => {}
                    }
                    uneven(i)
                },
                |i, square| {
                    seen.push((i, square));
                    ControlFlow::Continue(())
                },
            );
            let want: Vec<_> = (0..100).map(|i| (i, i * i)).collect();
            assert_eq!(seen, want, "{workers} states");
            assert_eq!(states.iter().sum::<usize>(), 100, "{workers} states");
        }
    }

    #[test]
    fn break_ends_the_fold() {
        for workers in [1, 4] {
            let ran_max = AtomicUsize::new(0);
            let mut seen = Vec::new();
            ordered(
                &mut vec![(); workers],
                1000,
                |_, i| {
                    ran_max.fetch_max(i, Ordering::Relaxed);
                    uneven(i)
                },
                |i, _| {
                    seen.push(i);
                    if i == 10 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(seen, (0..=10).collect::<Vec<_>>(), "{workers} states");
            if workers == 1 {
                assert_eq!(ran_max.into_inner(), 10, "work ran past the break");
            }
        }
    }

    #[test]
    fn work_panic_reaches_the_caller() {
        for workers in [1, 4] {
            let mut seen = Vec::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered(
                    &mut vec![(); workers],
                    1000,
                    |_, i| {
                        if i == 5 {
                            panic!("item {i} failed");
                        }
                        i
                    },
                    |i, _| {
                        seen.push(i);
                        ControlFlow::Continue(())
                    },
                )
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(panic_message(&*payload), "item 5 failed");
            assert_eq!(seen, (0..5).collect::<Vec<_>>(), "{workers} states");
        }
    }

    #[test]
    fn no_items_calls_neither_closure() {
        for workers in [0, 1, 3] {
            ordered(
                &mut vec![(); workers],
                0,
                |_, _| panic!("work called"),
                |_, ()| panic!("fold called"),
            );
        }
    }

    #[test]
    fn states_past_items_are_untouched() {
        let mut states = vec![0usize; 8];
        ordered(
            &mut states,
            3,
            |runs, i| {
                *runs += 1;
                uneven(i)
            },
            |_, _| ControlFlow::Continue(()),
        );
        assert_eq!(states[3..], [0; 5]);
        assert_eq!(states[..3].iter().sum::<usize>(), 3);
    }

    #[test]
    fn thread_override_must_be_a_positive_integer() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        for bad in ["0", "four", "", "-1", " 2"] {
            let payload = catch_unwind(|| parse_threads(Some(bad))).expect_err(bad);
            let message = panic_message(&*payload);
            assert!(
                message.contains("WI_TEST_THREADS") && message.contains(&format!("{bad:?}")),
                "{message}"
            );
        }
    }
}
