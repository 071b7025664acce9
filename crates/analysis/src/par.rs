//! Order-preserving fan-out of independent per-index work over scoped
//! threads.
//!
//! The analyzer's per-file stages (read, scan, parse, token lints, fn-node
//! extraction) and its four interprocedural lints are pure functions of
//! their index, so they can run on every core and still merge back in
//! index order: the outputs are byte-identical to a serial run.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Worker threads the host offers this process (its affinity mask and
/// quota included), at least 1.
pub(crate) fn host_workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// `(0..n).map(f).collect()`, spread over up to `workers` threads.
///
/// The calling thread is one of the workers; the others are scoped
/// threads. Workers claim indices from a shared counter, so an expensive
/// index does not hold up the cheap ones behind it. With one worker (or at
/// most one index) everything runs inline and no thread is spawned. A
/// panic in `f` reaches the caller with its original payload.
pub(crate) fn map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results travel back
    // through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            match h.join() {
                Ok(part) => done.extend(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// `map_indexed` with the first indices held at a barrier until every
    /// worker has claimed one of them, so each worker takes part whatever
    /// the scheduler does.
    fn spread<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let all_in = Barrier::new(workers.clamp(1, n.max(1)));
        let held = workers.min(n);
        map_indexed(n, workers, |i| {
            if i < held {
                all_in.wait();
            }
            f(i)
        })
    }

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            assert_eq!(spread(37, workers, |i| i * i), want, "{workers}");
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    fn panic_message(workers: usize, panics_at: impl Fn(usize) -> bool + Sync) -> String {
        let err = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            spread(8, workers, |i| {
                if panics_at(i) {
                    panic!("hostile file {i}");
                }
                i
            })
        }))
        .unwrap_err();
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        for workers in [1, 2, 4] {
            assert_eq!(panic_message(workers, |i| i == 5), "hostile file 5");
        }
        // A panic on a spawned worker, not the calling thread.
        let caller = thread::current().id();
        for workers in [2, 4] {
            let msg = panic_message(workers, |_| thread::current().id() != caller);
            assert!(msg.starts_with("hostile file "), "{msg:?}");
        }
    }
}
