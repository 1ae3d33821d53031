//! Scoped worker-thread fan-out for borrowed jobs.
//!
//! It lives here in `knots-sim` — the workspace's root crate — so the bench
//! harness's figure sweeps and any other whole-leg fan-out share one
//! primitive instead of growing private copies. Results are always returned
//! in submission order no matter which worker finishes first, which keeps
//! every consumer deterministic across thread counts. The simulation itself
//! steps nodes serially: per-tick fan-out measured slower than the serial
//! loop at every cluster size (DESIGN.md §11).

/// Worker count to use when the caller does not specify one: the host's
/// available parallelism, falling back to 1 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `jobs` on at most `threads` scoped worker threads and return their
/// results in submission order.
///
/// `threads` is clamped to `1..=jobs.len()`; `threads == 1` degenerates to
/// a plain serial loop on the calling thread. Jobs are dealt round-robin
/// (worker `w` runs jobs `w`, `w + threads`, ...), and each worker hands
/// its results back through its `JoinHandle`, so nothing is shared between
/// workers. Jobs may borrow from the caller's stack — the threads are
/// scoped — and a panicking job propagates out of the call.
pub fn run_jobs<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let mut hands: Vec<Vec<F>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, f) in jobs.into_iter().enumerate() {
        hands[i % threads].push(f);
    }
    let mut done: Vec<std::vec::IntoIter<T>> = std::thread::scope(|scope| {
        let workers: Vec<_> = hands
            .into_iter()
            .map(|hand| scope.spawn(|| hand.into_iter().map(|f| f()).collect::<Vec<T>>()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)).into_iter())
            .collect()
    });
    // Job `i` is the `i / threads`-th result of worker `i % threads`.
    (0..n).filter_map(|i| done[i % threads].next()).collect()
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
    #[should_panic(expected = "job 3 failed")]
    fn a_panicking_job_propagates() {
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    assert!(i != 3, "job {i} failed");
                    i
                }
            })
            .collect();
        run_jobs(jobs, 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
