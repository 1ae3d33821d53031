//! Exclusive per-layer timers, work counters and a counting allocator.
//!
//! The traced driver wraps every call into a layer in a [`Scope`]. Scopes
//! nest: a layer's *self* time is its scope's duration minus the time of
//! the scopes opened inside it, so the self times of all layers plus the
//! remainder outside every scope add up to the traced wall time exactly.
//! Only the thread that drives the loop opens scopes; worker-pool threads
//! never do, and their allocations are charged to the layer the driving
//! thread is in at the time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// One measured layer, named `<crate>.<layer>` in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The event loop itself: calendar pops, dispatch, rescheduling, span
    /// targeting, drain checks and arrival submission.
    Calendar,
    /// `Cluster::step` / `Cluster::step_span`, including the quiet mask.
    Step,
    /// TSDB writes: `probe::sample_cluster_with`, in-span `TsdbWriter`
    /// pushes and the quiet-span backfill.
    Probe,
    /// `UtilizationAggregator::query` plus the pending/suspended views.
    Snapshot,
    /// `Scheduler::decide`.
    Decide,
    /// The `Cluster::place/resize/...` actions a round returns.
    Apply,
    /// Per-iteration bookkeeping: `TimeSeriesDb::forget_pod` garbage
    /// collection and metric-grid utilization sampling.
    Gc,
    /// `ChaosEngine::actions_due` and the injected cluster actions.
    Chaos,
    /// Checkpoint write path: state assembly, `Snapshot::from_state`, WAL
    /// appends.
    Capture,
    /// `Snapshot::state` + `KubeKnots::resume`.
    Restore,
    /// `KubeKnots::drive` back to the crash boundary +
    /// `WriteAheadLog::verify_replay`.
    Replay,
    /// Benchmark-only cost: handing a revived orchestrator's state back to
    /// the traced driver (`pause_state` + rebuild). The real supervisor
    /// keeps driving the revived orchestrator and never pays it.
    Handoff,
}

/// Number of layers.
pub const LAYERS: usize = 12;

impl Layer {
    /// Every layer, in output order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Calendar,
        Layer::Step,
        Layer::Probe,
        Layer::Snapshot,
        Layer::Decide,
        Layer::Apply,
        Layer::Gc,
        Layer::Chaos,
        Layer::Capture,
        Layer::Restore,
        Layer::Replay,
        Layer::Handoff,
    ];

    /// Output name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Calendar => "core.calendar",
            Layer::Step => "sim.step",
            Layer::Probe => "telemetry.probe",
            Layer::Snapshot => "telemetry.snapshot",
            Layer::Decide => "sched.decide",
            Layer::Apply => "sim.apply",
            Layer::Gc => "core.gc",
            Layer::Chaos => "chaos.inject",
            Layer::Capture => "recovery.capture",
            Layer::Restore => "recovery.restore",
            Layer::Replay => "recovery.replay",
            Layer::Handoff => "bench.handoff",
        }
    }
}

/// Work counters recorded at the layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Calendar events dispatched (including the final drain deadline).
    Events,
    /// Nodes × ticks advanced.
    NodeTicks,
    /// Of those, node-ticks advanced in closed form (quiet nodes).
    QuietNodeTicks,
    /// Node samples written to the TSDB by a probe push.
    Samples,
    /// Heartbeat snapshots taken.
    Snapshots,
    /// `StatsCache` hits over all rounds.
    CacheHits,
    /// `StatsCache` misses over all rounds.
    CacheMisses,
    /// Scheduler actions returned.
    Actions,
    /// Scheduler actions the cluster accepted.
    Applied,
    /// Chaos actions injected.
    ChaosActions,
    /// Snapshots captured.
    Captures,
    /// Snapshot payload bytes captured.
    CaptureBytes,
    /// Applied events re-driven during replays.
    ReplayedRecords,
    /// Pods submitted.
    Pods,
}

const COUNTERS: usize = 14;

/// Allocation slot for memory allocated outside every layer.
const OUTSIDE: usize = LAYERS;

static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicUsize = AtomicUsize::new(OUTSIDE);
static ALLOC_BYTES: [AtomicU64; LAYERS + 1] = [const { AtomicU64::new(0) }; LAYERS + 1];
static ALLOC_COUNT: [AtomicU64; LAYERS + 1] = [const { AtomicU64::new(0) }; LAYERS + 1];

/// Global allocator that counts allocations and bytes per layer while
/// counting is switched on ([`set_alloc_counting`]), and otherwise only
/// pays one relaxed load per call. Memory comes from the system allocator.
pub struct CountingAlloc;

#[inline]
fn record_alloc(size: usize) {
    if ALLOC_ON.load(Relaxed) {
        let slot = CURRENT.load(Relaxed);
        ALLOC_BYTES[slot].fetch_add(size as u64, Relaxed);
        ALLOC_COUNT[slot].fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: same layout the caller passed us, per the trait contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: same layout the caller passed us, per the trait contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc(new_size);
        // SAFETY: `ptr` was allocated by `System` (all our allocations are)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch allocation counting on or off (process-wide).
pub fn set_alloc_counting(on: bool) {
    ALLOC_ON.store(on, Relaxed);
}

/// Log-bucketed latency histogram (about 3.5% bucket width), fixed size so
/// recording never allocates inside a measured layer.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; 768],
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 768], count: 0 }
    }
}

impl Histogram {
    const PER_E: f64 = 28.0;

    /// Record one duration in nanoseconds.
    pub fn observe_ns(&mut self, ns: u64) {
        let i = ((ns.max(1) as f64).ln() * Self::PER_E) as usize;
        self.buckets[i.min(self.buckets.len() - 1)] += 1;
        self.count += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in microseconds (bucket midpoint); 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ((i as f64 + 0.5) / Self::PER_E).exp() / 1e3;
            }
        }
        0.0
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Everything one traced run measured.
#[derive(Clone, Default)]
pub struct Profile {
    /// Self time per layer, nanoseconds ([`Layer::ALL`] order).
    pub self_ns: [u64; LAYERS],
    /// Counter values ([`Counter`] discriminant order).
    pub counters: [u64; COUNTERS],
    /// Per-call `Scheduler::decide` latency.
    pub decide: Histogram,
    /// Per-heartbeat round latency: snapshot + views + decide + apply.
    pub round: Histogram,
    /// Bytes allocated per layer; the last slot is outside every layer.
    pub alloc_bytes: [u64; LAYERS + 1],
    /// Allocations per layer; the last slot is outside every layer.
    pub alloc_count: [u64; LAYERS + 1],
}

impl Profile {
    /// A counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// A layer's self time in seconds.
    pub fn self_s(&self, l: Layer) -> f64 {
        self.self_ns[l as usize] as f64 / 1e9
    }

    /// Sum of all layer self times in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, o: &Profile) {
        for i in 0..LAYERS {
            self.self_ns[i] += o.self_ns[i];
        }
        for i in 0..COUNTERS {
            self.counters[i] += o.counters[i];
        }
        for i in 0..=LAYERS {
            self.alloc_bytes[i] += o.alloc_bytes[i];
            self.alloc_count[i] += o.alloc_count[i];
        }
        self.decide.merge(&o.decide);
        self.round.merge(&o.round);
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    profile: Profile,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// An open layer scope; closing it (drop) charges its self time.
#[must_use = "a scope measures until it is dropped"]
pub struct Scope(());

impl Scope {
    /// Open a scope for `layer` on this thread.
    pub fn enter(layer: Layer) -> Scope {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            CURRENT.store(layer as usize, Relaxed);
            s.stack.push(Frame { layer, start: Instant::now(), child_ns: 0 });
        });
        Scope(())
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some(f) = s.stack.pop() else { return };
            let total = f.start.elapsed().as_nanos() as u64;
            s.profile.self_ns[f.layer as usize] += total.saturating_sub(f.child_ns);
            let parent = match s.stack.last_mut() {
                Some(p) => {
                    p.child_ns += total;
                    p.layer as usize
                }
                None => OUTSIDE,
            };
            CURRENT.store(parent, Relaxed);
        });
    }
}

/// Add `n` to a counter.
pub fn add(c: Counter, n: u64) {
    STATE.with(|s| s.borrow_mut().profile.counters[c as usize] += n);
}

/// Record one `decide` call's duration.
pub fn observe_decide(ns: u64) {
    STATE.with(|s| s.borrow_mut().profile.decide.observe_ns(ns));
}

/// Record one heartbeat round's duration.
pub fn observe_round(ns: u64) {
    STATE.with(|s| s.borrow_mut().profile.round.observe_ns(ns));
}

/// Clear this thread's profile and the allocation counters.
pub fn reset() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.stack.clear();
        s.stack.reserve(16);
        s.profile = Profile::default();
    });
    for i in 0..=LAYERS {
        ALLOC_BYTES[i].store(0, Relaxed);
        ALLOC_COUNT[i].store(0, Relaxed);
    }
    CURRENT.store(OUTSIDE, Relaxed);
}

/// Take this thread's profile (with the allocation counters) and reset.
pub fn take() -> Profile {
    let mut p = STATE.with(|s| std::mem::take(&mut s.borrow_mut().profile));
    for i in 0..=LAYERS {
        p.alloc_bytes[i] = ALLOC_BYTES[i].load(Relaxed);
        p.alloc_count[i] = ALLOC_COUNT[i].load(Relaxed);
    }
    reset();
    p
}

/// Peak resident set size of this process image in MiB (`VmHWM`).
///
/// `getrusage`'s `ru_maxrss` is not used: Linux carries it across
/// `execve`, so under `cargo run` it starts at the launcher's own peak.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds of every thread of this process so far
/// (`getrusage(RUSAGE_SELF)`).
pub fn cpu_s() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the LP64 Linux
    // layout (two timevals then fourteen longs); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}
