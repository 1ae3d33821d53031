//! Scoped worker-thread fan-out for borrowed jobs.
//!
//! It lives here in `knots-sim` — the workspace's root crate — so the bench
//! harness's figure sweeps and any other whole-leg fan-out share one
//! primitive instead of growing private copies. Results are always returned
//! in submission order no matter which worker finishes first, which keeps
//! every consumer deterministic across thread counts. The simulation itself
//! steps nodes serially: per-tick fan-out measured slower than the serial
//! loop at every cluster size (DESIGN.md §11).

use std::sync::{Mutex, PoisonError};

/// Worker count to use when the caller does not specify one: the host's
/// available parallelism, falling back to 1 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `jobs` on at most `threads` scoped worker threads and return their
/// results in submission order.
///
/// `threads` is clamped to `1..=jobs.len()`; `threads == 1` degenerates to
/// a plain serial loop on the calling thread. Jobs may borrow from the
/// caller's stack — the threads are scoped — and a panicking job propagates
/// out of the scope.
#[expect(
    clippy::expect_used,
    reason = "every queue entry is popped exactly once, so each slot is filled unless a job panicked (which already propagated)"
)]
pub fn run_jobs<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    // Indexed job queue; workers drain it and fill the slot matching each
    // job's original position.
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let Some((i, f)) = job else { break };
                let out = f();
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner).expect("job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        // Stagger job durations so completion order differs from submission
        // order; the result vector must not care.
        let expected: Vec<usize> = (0..16).map(|i| i * i).collect();
        for threads in [1, 2, 4, 32] {
            let jobs: Vec<_> = (0..16usize)
                .map(|i| {
                    move || {
                        std::thread::sleep(std::time::Duration::from_millis(((16 - i) % 5) as u64));
                        i * i
                    }
                })
                .collect();
            assert_eq!(run_jobs(jobs, threads), expected, "threads {threads}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let none: Vec<fn() -> i32> = Vec::new();
        assert_eq!(run_jobs(none, 4), Vec::<i32>::new());
        assert_eq!(run_jobs(vec![|| 7], 0), vec![7], "threads clamp to 1");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
