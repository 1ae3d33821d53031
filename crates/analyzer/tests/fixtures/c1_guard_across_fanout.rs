//! C1 fixture: lock guards held across fan-out boundaries.
//! Checked as decision-crate library code; it does not need to compile.

fn fires_run_jobs(m: &Mutex<u32>, xs: &[u32]) {
    let g = m.lock();
    run_jobs(4, xs, |x| x);
}

fn fires_thread_scope(m: &RwLock<u32>) {
    let held = m.write();
    std::thread::scope(|s| s.spawn(work));
}

fn clean_dropped(m: &Mutex<u32>, xs: &[u32]) {
    let g = m.lock();
    drop(g);
    run_jobs(4, xs, |x| x);
}

fn clean_scoped(m: &Mutex<u32>, xs: &[u32]) {
    {
        let g = m.lock();
    }
    run_jobs(4, xs, |x| x);
}
