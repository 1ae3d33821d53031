//! Worker nodes: per-tick execution, contention, OOM detection, sampling.
//!
//! A node owns its resident pods while they are bound to it, so its tick
//! depends on nothing outside it. An idle node's tick (failed, or no
//! resident) is a constant sample and a fixed power draw, which the cluster
//! replays in closed form instead of stepping.
//!
//! ## Execution model
//!
//! * **Compute (time-shared)**: every running pod demands an SM fraction
//!   from its profile. When total demand exceeds 1.0, all pods slow down by
//!   the same factor `1 / total` — proportional-share time slicing. Granted
//!   SM utilization never exceeds 1.0.
//! * **PCIe (shared link)**: total tx+rx demand beyond the link bandwidth
//!   slows everyone down the same way. A pod's effective speed is the
//!   minimum of its compute and transfer slowdowns.
//! * **Memory (space-shared)**: usage follows the profile. A *greedy* pod
//!   (TF default, §II-C2) earmarks 99% of the memory that is free when it
//!   starts and holds it for its lifetime; it crashes if its real demand ever
//!   exceeds the earmark. If the sum of usage exceeds device capacity, a
//!   victim pod crashes with a [`CrashReason::MemoryCapacityViolation`]:
//!   preferentially the pod most over its provision, else the most recently
//!   placed grower.

use crate::events::CrashReason;
use crate::gpu::{GpuDevice, PState};
use crate::ids::{ImageId, NodeId, PodId};
use crate::metrics::GpuSample;
use crate::pod::{Pod, PodState};
use crate::power::{gpu_power_watts, EnergyMeter};
use crate::resources::{GpuModel, Usage};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Fraction of free device memory a greedy framework earmarks at startup
/// (Fig. 4 reports TF consuming 99% of device memory).
pub const GREEDY_EARMARK_FRAC: f64 = 0.99;

/// What a node reports after one tick.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Pods that finished all their work this tick.
    pub completed: Vec<(PodId, Pod)>,
    /// Pods that crashed this tick, with the reason.
    pub crashed: Vec<(PodId, Pod, CrashReason)>,
    /// Pods whose image pull finished and began executing this tick.
    pub started: Vec<PodId>,
}

/// A worker node with one GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    gpu: GpuDevice,
    residents: Vec<(PodId, Pod)>,
    image_cache: BTreeSet<ImageId>,
    last_sample: GpuSample,
    energy: EnergyMeter,
    /// Set while waking from deep sleep.
    waking_until: Option<SimTime>,
    /// Last instant the node had at least one resident pod.
    last_busy: SimTime,
    /// Whole-machine failure flag (injected fault): the node runs nothing,
    /// reports nothing and refuses placements until recovery.
    failed: bool,
}

impl Node {
    /// A new awake node.
    pub fn new(id: NodeId, model: GpuModel) -> Self {
        Node {
            id,
            gpu: GpuDevice::new(model),
            residents: Vec::new(),
            image_cache: BTreeSet::new(),
            last_sample: GpuSample::default(),
            energy: EnergyMeter::new(),
            waking_until: None,
            last_busy: SimTime::ZERO,
            failed: false,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The GPU device.
    pub fn gpu(&self) -> &GpuDevice {
        &self.gpu
    }

    /// Number of resident pods (the "queue length" signal of §IV-B).
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Iterate over resident pods.
    pub fn residents(&self) -> impl Iterator<Item = (PodId, &Pod)> {
        self.residents.iter().map(|(id, p)| (*id, p))
    }

    /// Look up a resident pod.
    pub fn resident(&self, id: PodId) -> Option<&Pod> {
        self.residents.iter().find(|(pid, _)| *pid == id).map(|(_, p)| p)
    }

    /// Sum of resident provisions (`limit_mb`) — the "free memory" a
    /// request-based scheduler believes in.
    pub fn provisioned_mb(&self) -> f64 {
        self.residents.iter().map(|(_, p)| p.limit_mb()).sum()
    }

    /// Free memory according to provisions.
    pub fn free_provision_mb(&self) -> f64 {
        (self.gpu.capacity_mb() - self.provisioned_mb()).max(0.0)
    }

    /// The most recent metrics sample.
    pub fn last_sample(&self) -> GpuSample {
        self.last_sample
    }

    /// Cumulative energy drawn by this node's GPU.
    pub fn energy(&self) -> EnergyMeter {
        self.energy
    }

    /// Pre-pull images into the node's cache (no cold start for them).
    pub(crate) fn prewarm(&mut self, images: &[ImageId]) {
        self.image_cache.extend(images.iter().copied());
    }

    /// Whether the node can accept placements right now.
    pub fn is_available(&self) -> bool {
        !self.gpu.is_asleep() && !self.failed
    }

    /// Whether the node is down with an injected whole-machine fault.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Last time the node hosted any pod.
    pub fn last_busy(&self) -> SimTime {
        self.last_busy
    }

    // ------------------------------------------------------------------
    // Cluster-driven mutations.
    // ------------------------------------------------------------------

    /// Admit a pod. Returns whether a cold-start pull is needed. The caller
    /// (`Cluster::place`) has already validated the placement.
    pub(crate) fn admit(
        &mut self,
        id: PodId,
        mut pod: Pod,
        now: SimTime,
        pull: SimDuration,
    ) -> bool {
        let cold = !self.image_cache.contains(&pod.spec().image);
        self.image_cache.insert(pod.spec().image);
        let pull_until = if cold { Some(now + pull) } else { None };
        pod.bind(self.id, now, pull_until);
        // Greedy frameworks earmark almost all *currently free* memory the
        // moment the container starts (§II-C2). "Currently free" accounts
        // for earmarks of pods admitted earlier in the same tick, which the
        // last metrics sample cannot see yet.
        if pod.spec().greedy_memory && !pod.spec().allow_growth {
            let free = self.estimated_free_mb();
            pod.set_earmark_mb(Some(free * GREEDY_EARMARK_FRAC));
        }
        self.residents.push((id, pod));
        self.last_busy = now;
        cold
    }

    /// Best current estimate of free device memory: capacity minus each
    /// resident's earmark or last measured usage, whichever is larger.
    fn estimated_free_mb(&self) -> f64 {
        let used: f64 = self
            .residents
            .iter()
            .map(|(_, p)| p.earmark_mb().unwrap_or(0.0).max(p.last_usage().mem_mb))
            .sum();
        (self.gpu.capacity_mb() - used).max(0.0)
    }

    /// Re-attach a suspended pod (resume or migration), paying `delay`
    /// before execution restarts.
    pub(crate) fn reattach(&mut self, id: PodId, mut pod: Pod, now: SimTime, delay: SimDuration) {
        debug_assert!(matches!(pod.state(), PodState::Suspended));
        self.image_cache.insert(pod.spec().image);
        let until = if delay.is_zero() { None } else { Some(now + delay) };
        pod.resume(now, until);
        pod.set_node(Some(self.id));
        if pod.spec().greedy_memory && !pod.spec().allow_growth {
            let free = self.estimated_free_mb();
            pod.set_earmark_mb(Some(free * GREEDY_EARMARK_FRAC));
        }
        self.residents.push((id, pod));
        self.last_busy = now;
    }

    /// Remove a resident pod (for preemption/migration/external eviction).
    pub(crate) fn evict(&mut self, id: PodId) -> Option<Pod> {
        let idx = self.residents.iter().position(|(pid, _)| *pid == id)?;
        let (_, mut pod) = self.residents.remove(idx);
        pod.clear_runtime_memory();
        Some(pod)
    }

    /// Mutable access for resize operations.
    pub(crate) fn resident_mut(&mut self, id: PodId) -> Option<&mut Pod> {
        self.residents.iter_mut().find(|(pid, _)| *pid == id).map(|(_, p)| p)
    }

    pub(crate) fn set_pstate(&mut self, p: PState) {
        self.gpu.set_pstate(p);
    }

    /// Take the node down (whole-machine fault), returning every resident
    /// pod. Runtime memory is cleared and the image cache is lost — the
    /// replacement machine boots cold.
    pub(crate) fn fail(&mut self) -> Vec<(PodId, Pod)> {
        self.failed = true;
        self.waking_until = None;
        self.image_cache.clear();
        self.last_sample = GpuSample::default();
        let mut victims = std::mem::take(&mut self.residents);
        for (_, pod) in victims.iter_mut() {
            pod.clear_runtime_memory();
        }
        victims
    }

    /// Bring a failed node back into service, empty and cold.
    pub(crate) fn recover(&mut self, now: SimTime) {
        self.failed = false;
        self.gpu.set_pstate(PState::Active);
        // Reset the idle clock so auto-sleep does not immediately re-park
        // the machine before the scheduler can use it.
        self.last_busy = now;
    }

    /// Apply a GPU memory-capacity degradation (0.0 restores full health).
    pub(crate) fn set_degraded_frac(&mut self, frac: f64) {
        self.gpu.set_degraded_frac(frac);
    }

    pub(crate) fn begin_wake(&mut self, until: SimTime) {
        self.gpu.set_pstate(PState::Active);
        self.waking_until = Some(until);
        // Reset the idle clock: a node woken on purpose must not be put
        // straight back to sleep by the auto-sleep timer before it has a
        // chance to receive work.
        self.last_busy = until;
    }

    /// True while the node is still paying its wake-up latency.
    pub fn is_waking(&self, now: SimTime) -> bool {
        matches!(self.waking_until, Some(u) if u > now)
    }

    /// The sample an idle node reports for a tick ending at `at`: zeros
    /// from a failed machine, deep-sleep power from a live one without
    /// residents (asleep or merely idle, the per-tick path draws the same).
    pub(crate) fn idle_sample(&self, at: SimTime) -> GpuSample {
        let power_watts = if self.failed { 0.0 } else { self.gpu.spec().sleep_watts };
        GpuSample { at, sm_util: 0.0, mem_used_mb: 0.0, power_watts, tx_mbps: 0.0, rx_mbps: 0.0 }
    }

    /// Replay `ticks` idle ticks from `start` in closed form for a node
    /// that spent them failed or without residents, in one p-state: one
    /// constant sample moved to the span end, and the per-tick energy
    /// accruals replicated one-by-one so float rounding matches the
    /// per-tick path bit for bit.
    pub(crate) fn finish_quiet_span(&mut self, start: SimTime, dt: SimDuration, ticks: u64) {
        debug_assert!(self.residents.is_empty());
        let end = start + dt * ticks;
        self.last_sample = self.idle_sample(end);
        if self.failed {
            return;
        }
        let watts = self.last_sample.power_watts;
        for _ in 0..ticks {
            self.energy.add(watts, dt);
        }
        if !self.gpu.is_asleep() && ticks > 0 {
            if let Some(u) = self.waking_until {
                // The per-tick path clears the flag on the first tick whose
                // pre-advance time has reached it.
                if u.0 <= end.0 - dt.0 {
                    self.waking_until = None;
                }
            }
        }
    }

    /// Advance the node by one tick.
    pub(crate) fn step(&mut self, now: SimTime, dt: SimDuration) -> StepOutcome {
        let mut out = StepOutcome::default();
        let spec = *self.gpu.spec();

        if self.failed {
            // A dead machine reports nothing and draws nothing from the GPU
            // power budget; residents were already crashed off at failure.
            self.last_sample = self.idle_sample(now + dt);
            return out;
        }
        if self.gpu.is_asleep() {
            self.last_sample = self.idle_sample(now + dt);
            self.energy.add(spec.sleep_watts, dt);
            return out;
        }
        if let Some(u) = self.waking_until {
            if u <= now {
                self.waking_until = None;
            }
        }

        // Phase 1: image pulls completing this tick.
        for (id, pod) in self.residents.iter_mut() {
            if let PodState::Pulling { until } = pod.state() {
                if until <= now {
                    pod.finish_pull(now);
                    out.started.push(*id);
                }
            }
        }

        // Phase 2: contention-adjusted progress for running pods.
        let dt_secs = dt.as_secs_f64();
        let mut total_sm = 0.0;
        let mut total_bw = 0.0;
        for (_, pod) in &self.residents {
            if matches!(pod.state(), PodState::Running) {
                let d = pod.current_demand();
                total_sm += d.sm_frac;
                total_bw += d.total_bw_mbps();
            }
        }
        let sm_speed = if total_sm > 1.0 { 1.0 / total_sm } else { 1.0 };
        let bw_speed = if total_bw > spec.pcie_mbps { spec.pcie_mbps / total_bw } else { 1.0 };
        let speed = sm_speed.min(bw_speed);

        let mut granted_sm = 0.0;
        let mut granted_tx = 0.0;
        let mut granted_rx = 0.0;
        for (_, pod) in self.residents.iter_mut() {
            if !matches!(pod.state(), PodState::Running) {
                // Bound-but-pulling pods hold provisioned memory but no
                // compute; their measured usage is a small startup residue.
                pod.record_usage(Usage::ZERO);
                continue;
            }
            let d = pod.current_demand();
            // Heterogeneity: work progresses at the device's relative
            // throughput (profiles are calibrated to a P100).
            let work = (dt_secs * speed * spec.compute_scale).min(pod.remaining_work());
            let share = d.sm_frac * speed;
            pod.advance(work, share * dt_secs);
            granted_sm += share;
            granted_tx += d.tx_mbps * speed;
            granted_rx += d.rx_mbps * speed;

            // Measured memory: the profile's demand, or the framework
            // earmark if that is larger.
            let mem = match pod.earmark_mb() {
                Some(e) => e.max(d.mem_mb.min(e)), // earmark is both floor and intended ceiling
                None => d.mem_mb,
            };
            pod.record_usage(Usage::new(share, mem, d.rx_mbps * speed, d.tx_mbps * speed));
        }

        // Phase 3: crash detection.
        self.detect_crashes(&mut out);

        // Phase 4: completions.
        let mut i = 0;
        while i < self.residents.len() {
            let done = {
                let (_, pod) = &self.residents[i];
                matches!(pod.state(), PodState::Running) && pod.remaining_work() <= 1e-12
            };
            if done {
                let (id, mut pod) = self.residents.remove(i);
                pod.clear_runtime_memory();
                pod.complete(now + dt);
                out.completed.push((id, pod));
            } else {
                i += 1;
            }
        }

        // Phase 5: sample + energy. A GPU with no resident context drops
        // to the deep-sleep p-state automatically (real Nvidia devices
        // downclock to `p_state 12` when idle, §VI-C) — consolidation thus
        // translates directly into power savings without explicit p-state
        // management.
        // Fold from +0.0 (`Iterator::sum` starts at -0.0, whose sign would
        // leak into an empty node's sample and break bit-parity with the
        // asleep path and the quiet-span closed form; adding +0.0 first
        // changes no non-empty sum's bits).
        let mem_used: f64 =
            self.residents.iter().map(|(_, p)| p.last_usage().mem_mb).fold(0.0, |a, b| a + b);
        let sm_util = granted_sm.min(1.0);
        let power = if self.residents.is_empty() {
            spec.sleep_watts
        } else {
            gpu_power_watts(&spec, sm_util)
        };
        self.last_sample = GpuSample {
            at: now + dt,
            sm_util,
            mem_used_mb: mem_used.min(self.gpu.capacity_mb()),
            power_watts: power,
            tx_mbps: granted_tx,
            rx_mbps: granted_rx,
        };
        self.energy.add(self.last_sample.power_watts, dt);
        if !self.residents.is_empty() {
            self.last_busy = now + dt;
        }
        out
    }

    /// Find and evict OOM victims until total usage fits in device memory.
    fn detect_crashes(&mut self, out: &mut StepOutcome) {
        let capacity = self.gpu.capacity_mb();

        // (a) A greedy pod whose real demand outgrew its startup earmark
        // crashes on its own (framework OOM), independent of node pressure.
        let mut i = 0;
        while i < self.residents.len() {
            let blown = {
                let (_, pod) = &self.residents[i];
                match (pod.state(), pod.earmark_mb()) {
                    (PodState::Running, Some(e)) => pod.current_demand().mem_mb > e + 1e-9,
                    _ => false,
                }
            };
            if blown {
                let (id, mut pod) = self.residents.remove(i);
                pod.clear_runtime_memory();
                out.crashed.push((id, pod, CrashReason::MemoryCapacityViolation));
            } else {
                i += 1;
            }
        }

        // (b) Aggregate capacity violations: evict victims until usage fits.
        loop {
            let total: f64 = self.residents.iter().map(|(_, p)| p.last_usage().mem_mb).sum();
            if total <= capacity + 1e-9 {
                break;
            }
            // Victim preference: largest overage above its own provision;
            // ties and no-overage fall back to the most recently placed pod
            // that grew this tick, then simply the most recently placed.
            let victim = self
                .residents
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| p.state().holds_gpu())
                .max_by(|(ai, (_, a)), (bi, (_, b))| {
                    let oa = a.last_usage().mem_mb - a.limit_mb();
                    let ob = b.last_usage().mem_mb - b.limit_mb();
                    oa.total_cmp(&ob).then(a.memory_grew().cmp(&b.memory_grew())).then(ai.cmp(bi))
                })
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let (id, mut pod) = self.residents.remove(i);
                    pod.clear_runtime_memory();
                    out.crashed.push((id, pod, CrashReason::MemoryCapacityViolation));
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodSpec;
    use crate::profile::{ProfileBuilder, ResourceProfile};

    fn batch_pod(sm: f64, mem: f64, work: f64) -> Pod {
        Pod::new(PodSpec::batch("b", ResourceProfile::constant(sm, mem, work)), SimTime::ZERO)
    }

    fn tick(node: &mut Node, now: &mut SimTime, dt_ms: u64) -> StepOutcome {
        let dt = SimDuration::from_millis(dt_ms);
        let out = node.step(*now, dt);
        *now += dt;
        out
    }

    #[test]
    fn solo_pod_runs_at_full_speed() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        n.admit(PodId(1), batch_pod(0.5, 1000.0, 1.0), SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let mut completed = 0;
        for _ in 0..110 {
            completed += tick(&mut n, &mut now, 10).completed.len();
        }
        assert_eq!(completed, 1);
        // 1 s of work at full speed completes at the 100th tick.
        assert!(now <= SimTime::from_millis(1100));
    }

    #[test]
    fn contention_slows_both_pods() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        // Two pods each demanding 80% SM: total 1.6 -> speed 0.625.
        n.admit(PodId(1), batch_pod(0.8, 1000.0, 1.0), SimTime::ZERO, SimDuration::ZERO);
        n.admit(PodId(2), batch_pod(0.8, 1000.0, 1.0), SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let out = tick(&mut n, &mut now, 100);
        assert!(out.completed.is_empty() && out.crashed.is_empty());
        let p = n.resident(PodId(1)).unwrap();
        assert!((p.progress() - 0.0625).abs() < 1e-9, "progress {}", p.progress());
        // Utilization is saturated at 1.0.
        assert!((n.last_sample().sm_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pcie_contention_limits_speed() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        let prof = ProfileBuilder::new().transfer(1.0, 10_000.0, 100.0).build();
        n.admit(
            PodId(1),
            Pod::new(PodSpec::batch("a", prof.clone()), SimTime::ZERO),
            SimTime::ZERO,
            SimDuration::ZERO,
        );
        n.admit(
            PodId(2),
            Pod::new(PodSpec::batch("b", prof), SimTime::ZERO),
            SimTime::ZERO,
            SimDuration::ZERO,
        );
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 100);
        // Total demand 20 GB/s on a 12 GB/s link -> speed 0.6.
        let p = n.resident(PodId(1)).unwrap();
        assert!((p.progress() - 0.06).abs() < 1e-9, "progress {}", p.progress());
    }

    #[test]
    fn capacity_violation_crashes_a_victim() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        // Two pods using 10 GB each on a 16 GB device -> second one crashes.
        n.admit(PodId(1), batch_pod(0.2, 10_000.0, 5.0), SimTime::ZERO, SimDuration::ZERO);
        n.admit(PodId(2), batch_pod(0.2, 10_000.0, 5.0), SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let out = tick(&mut n, &mut now, 10);
        assert_eq!(out.crashed.len(), 1);
        assert_eq!(n.resident_count(), 1);
        assert!(n.last_sample().mem_used_mb <= 16_384.0);
    }

    #[test]
    fn victim_is_pod_most_over_its_provision() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        // Pod 1 provisioned honestly (10 GB limit, 10 GB use); pod 2 lied
        // (1 GB limit, 8 GB use). Pod 2 must be the victim.
        let honest = Pod::new(
            PodSpec::batch("h", ResourceProfile::constant(0.1, 10_000.0, 5.0)),
            SimTime::ZERO,
        );
        let liar = Pod::new(
            PodSpec::batch("l", ResourceProfile::constant(0.1, 8_000.0, 5.0))
                .with_request_mb(1_000.0),
            SimTime::ZERO,
        );
        n.admit(PodId(1), honest, SimTime::ZERO, SimDuration::ZERO);
        n.admit(PodId(2), liar, SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let out = tick(&mut n, &mut now, 10);
        assert_eq!(out.crashed.len(), 1);
        assert_eq!(out.crashed[0].0, PodId(2));
    }

    #[test]
    fn greedy_pod_earmarks_free_memory() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        let tf = Pod::new(
            PodSpec::batch("tf", ResourceProfile::constant(0.3, 500.0, 5.0))
                .with_greedy_memory(true),
            SimTime::ZERO,
        );
        n.admit(PodId(1), tf, SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 10);
        // The pod needs 500 MB but holds ~99% of the device.
        let used = n.last_sample().mem_used_mb;
        assert!(used > 16_000.0, "greedy earmark should hog the device, used {used}");
    }

    #[test]
    fn greedy_pod_with_allow_growth_behaves() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        let tf = Pod::new(
            PodSpec::batch("tf", ResourceProfile::constant(0.3, 500.0, 5.0))
                .with_greedy_memory(true)
                .with_allow_growth(true),
            SimTime::ZERO,
        );
        n.admit(PodId(1), tf, SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 10);
        assert!((n.last_sample().mem_used_mb - 500.0).abs() < 1.0);
    }

    #[test]
    fn greedy_pod_crashes_when_demand_outgrows_earmark() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        // Fill the node so the greedy pod can only earmark ~2 GB, then let
        // its profile demand 4 GB in a later phase.
        n.admit(PodId(1), batch_pod(0.1, 14_000.0, 60.0), SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 10); // establish measured usage
        let grower =
            ProfileBuilder::new().compute(0.05, 0.2, 1_000.0).compute(1.0, 0.2, 4_000.0).build();
        let tf = Pod::new(PodSpec::batch("tf", grower).with_greedy_memory(true), SimTime::ZERO);
        n.admit(PodId(2), tf, now, SimDuration::ZERO);
        let mut crashed = vec![];
        for _ in 0..30 {
            crashed.extend(tick(&mut n, &mut now, 10).crashed);
        }
        assert!(crashed.iter().any(|(id, _, _)| *id == PodId(2)), "greedy pod should OOM");
    }

    #[test]
    fn cold_start_delays_execution() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        let pull = SimDuration::from_secs(2);
        let cold = n.admit(PodId(1), batch_pod(0.5, 100.0, 5.0), SimTime::ZERO, pull);
        assert!(cold);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            tick(&mut n, &mut now, 100);
        }
        // After 1 s, still pulling: no progress.
        assert_eq!(n.resident(PodId(1)).unwrap().progress(), 0.0);
        for _ in 0..15 {
            tick(&mut n, &mut now, 100);
        }
        assert!(n.resident(PodId(1)).unwrap().progress() > 0.0);
        // A second pod with the same image sees a warm cache.
        let warm = n.admit(PodId(2), batch_pod(0.1, 100.0, 0.5), now, pull);
        assert!(!warm);
    }

    #[test]
    fn sleeping_node_draws_sleep_power_and_runs_nothing() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        n.set_pstate(PState::DeepSleep);
        assert!(!n.is_available());
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 1000);
        assert!((n.last_sample().power_watts - 9.0).abs() < 1e-9);
        assert!((n.energy().joules() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn provision_accounting() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        n.admit(
            PodId(1),
            Pod::new(
                PodSpec::batch("a", ResourceProfile::constant(0.1, 100.0, 5.0))
                    .with_request_mb(4_096.0),
                SimTime::ZERO,
            ),
            SimTime::ZERO,
            SimDuration::ZERO,
        );
        assert_eq!(n.provisioned_mb(), 4_096.0);
        assert_eq!(n.free_provision_mb(), 16_384.0 - 4_096.0);
        // Measured free differs from provisioned free.
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 10);
        assert!(16_384.0 - n.last_sample().mem_used_mb > n.free_provision_mb());
    }

    #[test]
    fn faster_devices_finish_sooner() {
        // The same 1 s-of-work pod on a V100 (1.45x) vs a K80 (0.35x).
        let run = |model: GpuModel| {
            let mut n = Node::new(NodeId(0), model);
            n.admit(PodId(1), batch_pod(0.5, 500.0, 1.0), SimTime::ZERO, SimDuration::ZERO);
            let mut now = SimTime::ZERO;
            let mut ticks = 0u64;
            while n.resident_count() > 0 {
                tick(&mut n, &mut now, 10);
                ticks += 1;
                assert!(ticks < 100_000, "runaway");
            }
            ticks
        };
        let v100 = run(GpuModel::V100);
        let p100 = run(GpuModel::P100);
        let k80 = run(GpuModel::K80);
        assert!(v100 < p100 && p100 < k80, "v100 {v100} p100 {p100} k80 {k80}");
        // Ratios match the compute scales within tick quantization.
        assert!((k80 as f64 / p100 as f64 - 1.0 / 0.35).abs() < 0.2);
    }

    #[test]
    fn failed_node_runs_nothing_and_reports_nothing() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        n.admit(PodId(1), batch_pod(0.5, 100.0, 5.0), SimTime::ZERO, SimDuration::ZERO);
        let victims = n.fail();
        assert_eq!(victims.len(), 1);
        assert!(n.is_failed());
        assert!(!n.is_available());
        assert!(!n.image_cache.contains(&victims[0].1.spec().image), "image cache lost on failure");
        let mut now = SimTime::ZERO;
        tick(&mut n, &mut now, 1000);
        assert_eq!(n.last_sample().power_watts, 0.0);
        assert_eq!(n.energy().joules(), 0.0);
        n.recover(now);
        assert!(n.is_available());
        assert_eq!(n.resident_count(), 0);
    }

    #[test]
    fn degraded_capacity_triggers_violation_earlier() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        // 10 GB of usage fits a healthy 16 GB device...
        n.admit(PodId(1), batch_pod(0.2, 10_000.0, 5.0), SimTime::ZERO, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        assert!(tick(&mut n, &mut now, 10).crashed.is_empty());
        // ... but not one that lost half its memory.
        n.set_degraded_frac(0.5);
        let out = tick(&mut n, &mut now, 10);
        assert_eq!(out.crashed.len(), 1);
        assert!(n.gpu().capacity_mb() - n.last_sample().mem_used_mb <= 16_384.0 * 0.5);
    }

    #[test]
    fn eviction_returns_pod() {
        let mut n = Node::new(NodeId(0), GpuModel::P100);
        n.admit(PodId(1), batch_pod(0.5, 100.0, 5.0), SimTime::ZERO, SimDuration::ZERO);
        let p = n.evict(PodId(1));
        assert!(p.is_some());
        assert_eq!(n.resident_count(), 0);
        assert!(n.evict(PodId(1)).is_none());
    }
}
