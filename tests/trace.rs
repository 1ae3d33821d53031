//! Trace determinism: the `experiments trace` study — spans, Chrome-trace
//! bytes, breakdown rows, digest — must be a pure function of
//! `(workload, seed)`, independent of the worker-thread count. Tracing
//! shares the control loop with the scheduler, so any wall-clock or
//! thread-order leak into span content would show up here first.

use knots_bench::figures::trace_study::{digest, TraceStudy};
use knots_sim::time::SimDuration;
use knots_workloads::dnn::DnnWorkloadConfig;

fn tiny() -> DnnWorkloadConfig {
    DnnWorkloadConfig {
        dlt_jobs: 4,
        dli_tasks: 10,
        duration: SimDuration::from_secs(20),
        time_scale: 1.0 / 240.0,
        seed: 7,
    }
}

#[test]
fn trace_study_is_byte_identical_across_thread_counts_and_runs() {
    let serial = TraceStudy::run(&tiny(), 42, 1);
    let threaded = TraceStudy::run(&tiny(), 42, 4);
    assert_eq!(serial.legs.len(), threaded.legs.len());
    for (a, b) in serial.legs.iter().zip(&threaded.legs) {
        assert_eq!((a.scheduler.as_str(), a.faulted), (b.scheduler.as_str(), b.faulted));
        assert_eq!(a.breakdown, b.breakdown, "{} faulted={}", a.scheduler, a.faulted);
        assert_eq!(
            a.chrome_json, b.chrome_json,
            "{} faulted={}: Chrome trace bytes diverged across thread counts",
            a.scheduler, a.faulted
        );
    }
    assert_eq!(digest(&serial), digest(&threaded));

    // And across two same-seed runs at the same thread count.
    let again = TraceStudy::run(&tiny(), 42, 4);
    assert_eq!(digest(&again), digest(&serial), "same-seed trace study diverged");
}
