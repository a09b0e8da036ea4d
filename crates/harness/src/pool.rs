//! Order-preserving parallel map over a scoped worker pool.
//!
//! Plain `std::thread` + channels — no external dependencies. Workers
//! claim item indices from an atomic counter (work stealing over a static
//! grid) and send `(index, result)` pairs back; the caller reassembles
//! results **in input order**, so output is independent of scheduling and
//! a 1-thread pool is byte-identical to an N-thread pool.
//!
//! Worker panics are caught and re-raised on the calling thread with the
//! failing item's identity (via the caller's label closure), so a
//! campaign crash names the cell that died instead of dying later on an
//! opaque "pool did not complete" assertion. Remaining workers stop
//! claiming new items once a panic is observed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::telemetry::fmt_ns;

/// The default pool width: one worker per available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item, using up to `threads` workers, and returns
/// the results in input order.
///
/// `threads <= 1` runs inline on the caller's thread with no pool at all
/// (the historical serial behaviour).
///
/// # Panics
///
/// A panic in `f` is re-raised on the calling thread, labeled with the
/// failing item's index. Use [`parallel_map_observed`] to label items
/// with domain identity instead.
pub fn parallel_map<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_observed(items, threads, f, &|_| String::new(), &mut |_, _| {})
}

/// [`parallel_map`] plus diagnosability and completion hooks:
///
/// * `label` names an item for panic messages (called only when that
///   item's `f` panicked — e.g. the cell's workload/scenario/design/size
///   identity);
/// * `observe(index, &result)` runs on the **calling** thread as each
///   result arrives, in completion (not input) order — the hook for
///   checkpoint-journal appends and progress lines. It is not called for
///   items whose `f` panicked.
///
/// # Panics
///
/// A panic in `f` stops workers from claiming further items and is then
/// re-raised on the calling thread as
/// `"worker panicked running <label> after <elapsed>: <payload>"` — the
/// elapsed time distinguishes a cell that crashed instantly from one
/// that churned for minutes first (hung-vs-crashed triage in long
/// campaigns).
pub fn parallel_map_observed<I, T, F>(
    items: &[I],
    threads: usize,
    f: F,
    label: &(dyn Fn(&I) -> String + Sync),
    observe: &mut dyn FnMut(usize, &T),
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            let start = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(v) => {
                    observe(i, &v);
                    out.push(v);
                }
                Err(payload) => relabel_panic(i, &label(item), elapsed_ns(start), payload),
            }
        }
        return out;
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // The first worker panic observed, by input index (ties broken by
    // arrival; the index makes the error deterministic enough to act on),
    // with how long the item had been running when it died.
    let mut panicked: Option<(usize, u64, Box<dyn std::any::Any + Send>)> = None;

    std::thread::scope(|scope| {
        type Outcome<T> = Result<T, (u64, Box<dyn std::any::Any + Send>)>;
        let (tx, rx) = mpsc::channel::<(usize, Outcome<T>)>();
        let next_ref = &next;
        let abort_ref = &abort;
        let f_ref = &f;
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            handles.push(scope.spawn(move || loop {
                if abort_ref.load(Ordering::Relaxed) {
                    break;
                }
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let start = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| f_ref(&items[i])))
                    .map_err(|payload| (elapsed_ns(start), payload));
                if out.is_err() {
                    abort_ref.store(true, Ordering::Relaxed);
                }
                if tx.send((i, out)).is_err() {
                    break;
                }
            }));
        }
        drop(tx);
        for (i, outcome) in rx {
            match outcome {
                // Completions are observed even after a panic was
                // recorded: cells that were in flight when a sibling
                // died still finished, and dropping them would lose
                // checkpoint-journal entries exactly when the journal
                // matters most.
                Ok(v) => {
                    observe(i, &v);
                    slots[i] = Some(v);
                }
                Err((ns, payload)) => {
                    if panicked.is_none() {
                        panicked = Some((i, ns, payload));
                    }
                }
            }
        }
        // Join each worker rather than leave it to the scope, which
        // returns once the worker's closure is done but not its thread:
        // a joined thread has exited, so its malloc arena is free for the
        // next call's workers. Without the join, a worker spawned right
        // after could find no free arena and make glibc create another,
        // which then keeps its own share of freed memory resident.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    if let Some((i, ns, payload)) = panicked {
        relabel_panic(i, &label(&items[i]), ns, payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker pool completed every item"))
        .collect()
}

/// Nanoseconds elapsed since `start`, saturated into `u64`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Re-raises a caught worker panic on the calling thread, prefixed with
/// the failing item's identity and how long it had been running — a
/// crash after milliseconds and a crash after minutes of churn are
/// different bugs.
fn relabel_panic(
    index: usize,
    label: &str,
    elapsed_ns: u64,
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let what = if label.is_empty() {
        format!("item {index}")
    } else {
        format!("{label} (item {index})")
    };
    let after = fmt_ns(elapsed_ns);
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        // Opaque payload: keep the original so a caller's downcast-based
        // handling still works.
        eprintln!("[pool] worker panicked running {what} after {after} (non-string payload)");
        resume_unwind(payload);
    };
    // Also emitted directly to stderr: the orchestrator diagnoses a dead
    // worker from its captured log, and this line carries the cell
    // identity (including the [key=…] tag) even if a custom panic hook
    // swallows or reformats the re-raised panic below.
    eprintln!("[pool] worker panicked running {what} after {after}: {msg}");
    panic!("worker panicked running {what} after {after}: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 4, |&x| x * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_equals_parallel() {
        let items: Vec<u64> = (0..257).collect();
        let serial = parallel_map(&items, 1, |&x| x.wrapping_mul(0x9e37).rotate_left(7));
        let parallel = parallel_map(&items, 8, |&x| x.wrapping_mul(0x9e37).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u8, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x as u32), vec![1, 2, 3]);
    }

    #[test]
    fn observe_sees_every_completion_on_the_caller_thread() {
        let items: Vec<u32> = (0..50).collect();
        let caller = std::thread::current().id();
        for threads in [1, 4] {
            let mut seen: Vec<(usize, u32)> = Vec::new();
            let out = parallel_map_observed(
                &items,
                threads,
                |&x| x + 1,
                &|_| String::new(),
                &mut |i, &v| {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.push((i, v));
                },
            );
            assert_eq!(out.len(), 50);
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..50).map(|i| (i, i as u32 + 1)).collect::<Vec<_>>(),
                "observe must fire exactly once per item ({threads} threads)"
            );
        }
    }

    #[test]
    fn worker_panic_is_relabeled_with_the_item_identity() {
        for threads in [1usize, 4] {
            let items: Vec<u32> = (0..16).collect();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map_observed(
                    &items,
                    threads,
                    |&x| {
                        if x == 9 {
                            panic!("simulated cell failure");
                        }
                        x
                    },
                    &|&x| format!("Unison @ {x}MB on Web Search [default] (seed 42)"),
                    &mut |_, _| {},
                )
            }))
            .expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .expect("relabeled panic is a String")
                .clone();
            assert!(
                msg.contains("Unison @ 9MB on Web Search [default] (seed 42)"),
                "panic must name the failing cell ({threads} threads): {msg}"
            );
            assert!(msg.contains("simulated cell failure"), "{msg}");
            assert!(
                msg.contains(" after "),
                "panic must say how long the cell ran ({threads} threads): {msg}"
            );
        }
    }

    #[test]
    fn observe_is_not_called_for_panicked_items() {
        let items: Vec<u32> = (0..8).collect();
        let mut observed = Vec::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_observed(
                &items,
                1,
                |&x| {
                    if x == 3 {
                        panic!("boom");
                    }
                    x
                },
                &|_| String::new(),
                &mut |i, _: &u32| observed.push(i),
            )
        }));
        assert!(result.is_err());
        assert_eq!(observed, vec![0, 1, 2], "serial path observes the prefix");
    }
}
