//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is an ordered list of timed [`FaultEvent`]s injected
//! into a simulated run: GPU fail-stop, persistent per-GPU slowdown
//! (stragglers), NVLink failure or degradation, per-operator timeout
//! (hang), and GPU heal events.  Plans are plain data — seeded,
//! serializable, and replayable bit-for-bit — so every experiment in
//! `hios-bench` and every proptest case can name the exact fault
//! history it ran under.
//!
//! On top of the primitive events sits [`FaultScript`], the validated
//! plan layer: **failure domains** ([`FailureDomain`] — GPUs
//! grouped by host or PCIe switch, killed by one correlated event),
//! **flapping GPUs** ([`FlapSpec`] — deterministic fail/heal duty
//! cycles), and raw events, all checked with typed errors
//! ([`FaultPlanError`]) before they lower into a primitive plan.  The
//! temporal "never kill the last GPU" invariant accounts for heals: a
//! plan is rejected only if at some instant *every* GPU is
//! simultaneously dead.
//!
//! The closed detect → repair → resume loop that consumes a plan lives
//! in [`run_with_repair`](crate::run_with_repair).

use hios_graph::{Graph, OpId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What breaks.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The GPU stops executing; every operator in flight on it is lost
    /// and it takes no further work.
    GpuFailStop {
        /// The failing GPU.
        gpu: usize,
    },
    /// The GPU keeps running at `1/factor` of nominal speed from the
    /// fault instant on (a persistent straggler).
    GpuSlowdown {
        /// The slowed GPU.
        gpu: usize,
        /// Duration multiplier, `> 1`.
        factor: f64,
    },
    /// The directed link stops moving data; transfers stall until the
    /// fault is detected, after which traffic reroutes at
    /// `REROUTE_FACTOR`.
    LinkFail {
        /// Source GPU of the directed link.
        from: usize,
        /// Destination GPU of the directed link.
        to: usize,
    },
    /// The directed link keeps working at `1/factor` of nominal
    /// bandwidth from the fault instant on.
    LinkDegrade {
        /// Source GPU of the directed link.
        from: usize,
        /// Destination GPU of the directed link.
        to: usize,
        /// Transfer-duration multiplier, `> 1`.
        factor: f64,
    },
    /// The operator's execution in flight at (or started after) the
    /// fault instant hangs and never finishes; the watchdog reports it
    /// after the detection latency and it is restarted by repair.
    OpHang {
        /// The hanging operator.
        op: OpId,
    },
    /// The GPU returns to service at nominal speed (undoes a fail-stop
    /// or slowdown).  Healing never disrupts in-flight work — it only
    /// restores capacity, which the consumer picks up at its next
    /// scheduling decision (a repair in [`run_with_repair`](crate::run_with_repair), a breaker
    /// probe in `hios-serve`).  Paired with [`FaultKind::GpuFailStop`]
    /// it expresses the flapping duty cycles of [`FlapSpec`].
    GpuHeal {
        /// The healing GPU.
        gpu: usize,
    },
}

impl FaultKind {
    /// The GPU this fault takes down or degrades, if it is a GPU fault.
    pub fn gpu_target(&self) -> Option<usize> {
        match *self {
            FaultKind::GpuFailStop { gpu } | FaultKind::GpuSlowdown { gpu, .. } => Some(gpu),
            _ => None,
        }
    }

    /// The directed link this fault stalls or degrades, if it is a link
    /// fault.
    pub(crate) fn link_target(&self) -> Option<(usize, usize)> {
        match *self {
            FaultKind::LinkFail { from, to } | FaultKind::LinkDegrade { from, to, .. } => {
                Some((from, to))
            }
            _ => None,
        }
    }

    /// The GPU this event returns to service, if it is a heal.
    pub fn heal_target(&self) -> Option<usize> {
        match *self {
            FaultKind::GpuHeal { gpu } => Some(gpu),
            _ => None,
        }
    }

    /// Short label used in bench tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GpuFailStop { .. } => "gpu-fail-stop",
            FaultKind::GpuSlowdown { .. } => "gpu-slowdown",
            FaultKind::LinkFail { .. } => "link-fail",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::OpHang { .. } => "op-hang",
            FaultKind::GpuHeal { .. } => "gpu-heal",
        }
    }
}

/// One fault at one instant of simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, ms from inference start.
    pub at_ms: f64,
    /// What breaks.
    pub kind: FaultKind,
}

/// Why a fault plan is unusable against a given platform/graph.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A GPU index outside `0..m`.
    UnknownGpu(usize),
    /// A link endpoint pair that is out of range or a self-link.
    BadLink(usize, usize),
    /// An operator id outside the graph.
    UnknownOp(OpId),
    /// A slowdown/degradation factor not `> 1` and finite.
    BadFactor(f64),
    /// A negative or non-finite injection time.
    BadTime(f64),
    /// At some instant every GPU is simultaneously dead: nothing could
    /// ever finish the run (heals earlier in the plan are honoured).
    AllGpusFail,
    /// A failure domain with no member GPUs (by domain index).
    EmptyDomain(usize),
    /// A domain kill referencing a domain index the script does not
    /// define.
    UnknownDomain(usize),
    /// Two flapping duty cycles on the same GPU overlap in time.
    FlapOverlap(usize),
    /// A flap duty-cycle duration that is not finite and positive.
    BadDuration(f64),
    /// A flap spec with zero cycles.
    NoCycles,
    /// A cluster event referencing a cluster index the fleet does not
    /// have.
    UnknownCluster(usize),
    /// Every cluster of the fleet is killed: no router could ever place
    /// another request.
    AllClustersKilled,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownGpu(g) => write!(f, "fault targets unknown GPU {g}"),
            FaultPlanError::BadLink(a, b) => write!(f, "fault targets invalid link {a} -> {b}"),
            FaultPlanError::UnknownOp(v) => write!(f, "fault targets unknown operator {v}"),
            FaultPlanError::BadFactor(x) => {
                write!(f, "fault factor {x} must be finite and > 1")
            }
            FaultPlanError::BadTime(t) => write!(f, "fault time {t} must be finite and >= 0"),
            FaultPlanError::AllGpusFail => {
                write!(f, "plan kills every GPU simultaneously at some instant")
            }
            FaultPlanError::EmptyDomain(d) => write!(f, "failure domain {d} has no GPUs"),
            FaultPlanError::UnknownDomain(d) => {
                write!(f, "domain kill references unknown domain {d}")
            }
            FaultPlanError::FlapOverlap(g) => {
                write!(f, "overlapping flap duty cycles on GPU {g}")
            }
            FaultPlanError::BadDuration(x) => {
                write!(f, "flap duration {x} must be finite and > 0")
            }
            FaultPlanError::NoCycles => write!(f, "flap spec must run at least one cycle"),
            FaultPlanError::UnknownCluster(c) => {
                write!(f, "fault targets unknown cluster {c}")
            }
            FaultPlanError::AllClustersKilled => {
                write!(f, "plan kills every cluster of the fleet")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A fault as the runtime *sees* it: the injected event plus the instant
/// the detector reports it.
///
/// This is the signal feed of the `hios-serve` circuit breakers — they
/// never inspect a [`FaultPlan`] directly (a real serving layer cannot
/// see the future), only the stream of detections in time order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSignal {
    /// When the fault actually fired, ms.
    pub at_ms: f64,
    /// When the runtime noticed (`at_ms` + detection latency), ms.
    pub detected_ms: f64,
    /// What broke.
    pub kind: FaultKind,
}

/// A deterministic, replayable fault history.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events sorted by injection time (stable, so same-instant events
    /// keep their construction order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan, sorting events by time (stable).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        FaultPlan { events }
    }

    /// One fault at one instant.
    pub fn single(at_ms: f64, kind: FaultKind) -> Self {
        FaultPlan {
            events: vec![FaultEvent { at_ms, kind }],
        }
    }

    /// A seeded random plan of `count` faults over `[0, horizon_ms)` on
    /// an `m`-GPU platform running `g`.  Deterministic per seed; at most
    /// `m - 1` distinct GPUs fail-stop so the run can always complete.
    pub fn random(seed: u64, g: &Graph, m: usize, horizon_ms: f64, count: usize) -> Self {
        assert!(m >= 1 && horizon_ms > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failed = vec![false; m];
        let mut budget = m.saturating_sub(1);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at_ms = rng.random_range(0.0..horizon_ms);
            // 0: fail-stop, 1: slowdown, 2: link fail, 3: link degrade,
            // 4: op hang.  Link faults need m >= 2; fail-stops need
            // surviving budget.  Fall back to a slowdown otherwise.
            let roll: usize = rng.random_range(0..5);
            let kind = match roll {
                0 if budget > 0 => {
                    let gpu: usize = rng.random_range(0..m);
                    if failed[gpu] {
                        // Re-failing a dead GPU is a harmless no-op event.
                        FaultKind::GpuFailStop { gpu }
                    } else {
                        failed[gpu] = true;
                        budget -= 1;
                        FaultKind::GpuFailStop { gpu }
                    }
                }
                2 | 3 if m >= 2 => {
                    let from: usize = rng.random_range(0..m);
                    let mut to: usize = rng.random_range(0..m - 1);
                    if to >= from {
                        to += 1;
                    }
                    if roll == 2 {
                        FaultKind::LinkFail { from, to }
                    } else {
                        FaultKind::LinkDegrade {
                            from,
                            to,
                            factor: rng.random_range(2.0..8.0),
                        }
                    }
                }
                4 if g.num_ops() > 0 => {
                    let idx: usize = rng.random_range(0..g.num_ops());
                    FaultKind::OpHang {
                        op: OpId::from_index(idx),
                    }
                }
                _ => FaultKind::GpuSlowdown {
                    gpu: rng.random_range(0..m),
                    factor: rng.random_range(1.5..4.0),
                },
            };
            events.push(FaultEvent { at_ms, kind });
        }
        FaultPlan::new(events)
    }

    /// Exports the plan as the detection-ordered signal stream a
    /// serving-layer watchdog would emit: each event surfaces
    /// `detection_ms` after it fires.  `events` is public and may be
    /// unsorted, so the stream is sorted by firing time (stable, exactly
    /// as [`FaultPlan::new`] sorts); uniform detection latency keeps it
    /// sorted by detection time too, and ties keep plan order.
    pub fn signals(&self, detection_ms: f64) -> Vec<FaultSignal> {
        assert!(
            detection_ms.is_finite() && detection_ms >= 0.0,
            "detection latency must be finite and >= 0, got {detection_ms}"
        );
        let mut signals: Vec<FaultSignal> = self
            .events
            .iter()
            .map(|e| FaultSignal {
                at_ms: e.at_ms,
                detected_ms: e.at_ms + detection_ms,
                kind: e.kind,
            })
            .collect();
        signals.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        signals
    }

    /// Checks every event against the platform alone (`m` GPUs): finite,
    /// non-negative instants, GPU indices below `m`, link endpoints below
    /// `m` and distinct, finite factors `> 1`.  A plan that passes can be
    /// folded into an `m`-GPU [`crate::Scaling`] and scheduled on an
    /// [`crate::EventQueue`] without indexing out of range or poisoning
    /// a timestamp — the part of [`FaultPlan::validate`] a serving loop
    /// needs, which deliberately admits hangs naming another tenant's
    /// operator and plans that kill every GPU (its breakers recover).
    pub fn validate_platform(&self, m: usize) -> Result<(), FaultPlanError> {
        for e in &self.events {
            if !e.at_ms.is_finite() || e.at_ms < 0.0 {
                return Err(FaultPlanError::BadTime(e.at_ms));
            }
            let gpu = e.kind.gpu_target().or(e.kind.heal_target());
            if let Some(gpu) = gpu.filter(|&gpu| gpu >= m) {
                return Err(FaultPlanError::UnknownGpu(gpu));
            }
            let bad_link = |&(from, to): &(usize, usize)| from >= m || to >= m || from == to;
            if let Some((from, to)) = e.kind.link_target().filter(bad_link) {
                return Err(FaultPlanError::BadLink(from, to));
            }
            if let FaultKind::GpuSlowdown { factor, .. } | FaultKind::LinkDegrade { factor, .. } =
                e.kind
            {
                if !factor.is_finite() || factor <= 1.0 {
                    return Err(FaultPlanError::BadFactor(factor));
                }
            }
        }
        Ok(())
    }

    /// Checks every event against the platform
    /// ([`FaultPlan::validate_platform`]) and the graph (hung operators
    /// must exist), then that the run can finish.
    ///
    /// The liveness check is *temporal*: events are replayed in time
    /// order with [`FaultKind::GpuHeal`] clearing earlier fail-stops,
    /// and the plan is rejected only if at some instant every GPU is
    /// simultaneously dead.  A plan that fail-stops all GPUs but heals
    /// one before the last kill is fine.
    pub fn validate(&self, g: &Graph, m: usize) -> Result<(), FaultPlanError> {
        self.validate_platform(m)?;
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| self.events[a].at_ms.total_cmp(&self.events[b].at_ms));
        let mut failed = vec![false; m];
        for &i in &order {
            match self.events[i].kind {
                FaultKind::GpuFailStop { gpu } => {
                    failed[gpu] = true;
                    if failed.iter().all(|&f| f) {
                        return Err(FaultPlanError::AllGpusFail);
                    }
                }
                FaultKind::GpuHeal { gpu } => failed[gpu] = false,
                FaultKind::OpHang { op } if op.index() >= g.num_ops() => {
                    return Err(FaultPlanError::UnknownOp(op));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A correlated-failure blast radius: GPUs that share a host, PCIe
/// switch, or power feed and therefore die together.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureDomain {
    /// Human-readable name, e.g. `"host0"`.
    pub name: String,
    /// Member GPUs (need not be contiguous).
    pub gpus: Vec<usize>,
}

/// Partitions `m` GPUs into hosts of `gpus_per_host` consecutive GPUs
/// (the last host takes the remainder) — the common "GPUs 2k and 2k+1
/// share a PCIe switch" topology.
pub fn host_domains(m: usize, gpus_per_host: usize) -> Vec<FailureDomain> {
    assert!(gpus_per_host >= 1, "hosts must hold at least one GPU");
    (0..m)
        .step_by(gpus_per_host)
        .enumerate()
        .map(|(h, start)| FailureDomain {
            name: format!("host{h}"),
            gpus: (start..(start + gpus_per_host).min(m)).collect(),
        })
        .collect()
}

/// One correlated event: every GPU in the domain fail-stops at `at_ms`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainKill {
    /// Injection time, ms.
    pub at_ms: f64,
    /// Index into [`FaultScript::domains`].
    pub domain: usize,
}

/// A deterministic fail/heal duty cycle: the GPU fail-stops at
/// `first_fail_ms`, heals `down_ms` later, stays up `up_ms`, and
/// repeats for `cycles` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlapSpec {
    /// The flapping GPU.
    pub gpu: usize,
    /// First fail-stop instant, ms.
    pub first_fail_ms: f64,
    /// Dead time per cycle, ms (`> 0`).
    pub down_ms: f64,
    /// Healthy time between cycles, ms (`> 0`).
    pub up_ms: f64,
    /// Number of fail/heal cycles (`>= 1`).
    pub cycles: u32,
}

impl FlapSpec {
    /// Period of one full cycle, ms.
    pub(crate) fn period_ms(&self) -> f64 {
        self.down_ms + self.up_ms
    }

    /// Instant the last heal fires, ms.
    pub(crate) fn last_heal_ms(&self) -> f64 {
        self.first_fail_ms
            + (self.cycles.saturating_sub(1)) as f64 * self.period_ms()
            + self.down_ms
    }
}

/// A fleet-scope fault: what breaks at cluster granularity.
///
/// Cluster events never lower into a single platform's [`FaultPlan`] —
/// a cluster is a whole platform, so these are consumed by the fleet
/// router/failover layer above the per-cluster serve loops.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClusterFaultKind {
    /// Every GPU of the cluster fail-stops at once and the cluster never
    /// returns: queued and in-flight work must be drained and re-routed
    /// (or shed with a typed disposition) by the fleet layer.
    ClusterKill,
    /// Every GPU of the cluster runs `factor`× slower from the fault
    /// instant on — a whole-rack thermal event or a shared power cap.
    /// Lowers to per-GPU [`FaultKind::GpuSlowdown`] events in the
    /// cluster's own plan, so the cluster's breakers and repair loop see
    /// it through their normal signal path.
    ClusterDegrade {
        /// Duration multiplier, `> 1`.
        factor: f64,
    },
    /// The router loses contact with the cluster for `heal_ms`: work
    /// already inside keeps running to completion, but no new requests
    /// can be routed there until the partition heals.
    PartitionRouter {
        /// Partition duration, ms (`> 0`).
        heal_ms: f64,
    },
}

impl ClusterFaultKind {
    /// Short label used in bench tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ClusterFaultKind::ClusterKill => "cluster-kill",
            ClusterFaultKind::ClusterDegrade { .. } => "cluster-degrade",
            ClusterFaultKind::PartitionRouter { .. } => "partition-router",
        }
    }
}

/// One cluster-scope fault at one instant of simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterFaultEvent {
    /// Injection time, ms from serving start.
    pub at_ms: f64,
    /// Index of the affected cluster within the fleet.
    pub cluster: usize,
    /// What breaks.
    pub kind: ClusterFaultKind,
}

/// Checks cluster-scope events against a fleet of `clusters` clusters:
/// indices in range, times (heal instants included) finite and
/// non-negative, factors/durations sane, and at least one cluster never
/// killed (kills are permanent, so
/// killing all of them would strand every future request).
pub fn validate_cluster_events(
    events: &[ClusterFaultEvent],
    clusters: usize,
) -> Result<(), FaultPlanError> {
    let mut killed = vec![false; clusters];
    for e in events {
        if !e.at_ms.is_finite() || e.at_ms < 0.0 {
            return Err(FaultPlanError::BadTime(e.at_ms));
        }
        if e.cluster >= clusters {
            return Err(FaultPlanError::UnknownCluster(e.cluster));
        }
        match e.kind {
            ClusterFaultKind::ClusterKill => {
                killed[e.cluster] = true;
                if killed.iter().all(|&k| k) {
                    return Err(FaultPlanError::AllClustersKilled);
                }
            }
            ClusterFaultKind::ClusterDegrade { factor } => {
                if !factor.is_finite() || factor <= 1.0 {
                    return Err(FaultPlanError::BadFactor(factor));
                }
            }
            ClusterFaultKind::PartitionRouter { heal_ms } => {
                // The heal fires at `at_ms + heal_ms`: an instant too.
                if !heal_ms.is_finite() || heal_ms <= 0.0 || !(e.at_ms + heal_ms).is_finite() {
                    return Err(FaultPlanError::BadDuration(heal_ms));
                }
            }
        }
    }
    Ok(())
}

/// A validated high-level fault scenario: failure domains with
/// correlated kills, flapping GPUs, and raw primitive events.  Compiles
/// into a plain [`FaultPlan`] after typed validation, so every consumer
/// of the primitive layer (the engine, the recovery loop, the serving
/// breakers) works unchanged.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultScript {
    /// Blast radii referenced by [`FaultScript::kills`].
    pub domains: Vec<FailureDomain>,
    /// Correlated domain kills.
    pub kills: Vec<DomainKill>,
    /// Flapping duty cycles (at most one per GPU, non-overlapping in
    /// time if a GPU appears more than once).
    pub flaps: Vec<FlapSpec>,
    /// Extra primitive events injected verbatim.
    pub raw: Vec<FaultEvent>,
}

impl FaultScript {
    /// Validates the script and lowers it to a primitive [`FaultPlan`]
    /// (sorted by time), then re-validates the lowered plan against the
    /// platform — so the temporal "never kill every GPU at once"
    /// invariant covers interactions between domains, flaps, and raw
    /// events.
    pub fn compile(&self, g: &Graph, m: usize) -> Result<FaultPlan, FaultPlanError> {
        for (d, dom) in self.domains.iter().enumerate() {
            if dom.gpus.is_empty() {
                return Err(FaultPlanError::EmptyDomain(d));
            }
            for &gpu in &dom.gpus {
                if gpu >= m {
                    return Err(FaultPlanError::UnknownGpu(gpu));
                }
            }
        }
        let mut events = Vec::new();
        for k in &self.kills {
            if !k.at_ms.is_finite() || k.at_ms < 0.0 {
                return Err(FaultPlanError::BadTime(k.at_ms));
            }
            let dom = self
                .domains
                .get(k.domain)
                .ok_or(FaultPlanError::UnknownDomain(k.domain))?;
            for &gpu in &dom.gpus {
                events.push(FaultEvent {
                    at_ms: k.at_ms,
                    kind: FaultKind::GpuFailStop { gpu },
                });
            }
        }
        // Per-GPU duty-cycle windows, to reject overlapping flaps.
        let mut windows: Vec<(usize, f64, f64)> = Vec::new();
        for f in &self.flaps {
            if f.gpu >= m {
                return Err(FaultPlanError::UnknownGpu(f.gpu));
            }
            if !f.first_fail_ms.is_finite() || f.first_fail_ms < 0.0 {
                return Err(FaultPlanError::BadTime(f.first_fail_ms));
            }
            for d in [f.down_ms, f.up_ms] {
                if !d.is_finite() || d <= 0.0 {
                    return Err(FaultPlanError::BadDuration(d));
                }
            }
            if f.cycles == 0 {
                return Err(FaultPlanError::NoCycles);
            }
            let span = (f.first_fail_ms, f.last_heal_ms());
            for &(gpu, lo, hi) in &windows {
                if gpu == f.gpu && f.first_fail_ms < hi && lo < span.1 {
                    return Err(FaultPlanError::FlapOverlap(f.gpu));
                }
            }
            windows.push((f.gpu, span.0, span.1));
            for c in 0..f.cycles {
                let fail_at = f.first_fail_ms + c as f64 * f.period_ms();
                events.push(FaultEvent {
                    at_ms: fail_at,
                    kind: FaultKind::GpuFailStop { gpu: f.gpu },
                });
                events.push(FaultEvent {
                    at_ms: fail_at + f.down_ms,
                    kind: FaultKind::GpuHeal { gpu: f.gpu },
                });
            }
        }
        events.extend_from_slice(&self.raw);
        let plan = FaultPlan::new(events);
        plan.validate(g, m)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn small_graph() -> Graph {
        generate_layered_dag(&LayeredDagConfig {
            ops: 20,
            layers: 4,
            deps: 40,
            seed: 1,
        })
        .unwrap()
    }

    #[test]
    fn new_sorts_by_time() {
        let p = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 5.0,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
            FaultEvent {
                at_ms: 2.0,
                kind: FaultKind::LinkFail { from: 0, to: 1 },
            },
        ]);
        assert!(p.events[0].at_ms < p.events[1].at_ms);
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let g = small_graph();
        for seed in 0..20 {
            let a = FaultPlan::random(seed, &g, 4, 100.0, 6);
            let b = FaultPlan::random(seed, &g, 4, 100.0, 6);
            assert_eq!(a, b, "seed {seed}");
            a.validate(&g, 4).unwrap();
        }
    }

    #[test]
    fn random_never_kills_every_gpu() {
        let g = small_graph();
        for seed in 0..40 {
            let p = FaultPlan::random(seed, &g, 2, 50.0, 10);
            p.validate(&g, 2).unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_targets() {
        let g = small_graph();
        let bad_gpu = FaultPlan::single(1.0, FaultKind::GpuFailStop { gpu: 9 });
        assert_eq!(bad_gpu.validate(&g, 2), Err(FaultPlanError::UnknownGpu(9)));
        let self_link = FaultPlan::single(1.0, FaultKind::LinkFail { from: 1, to: 1 });
        assert_eq!(
            self_link.validate(&g, 2),
            Err(FaultPlanError::BadLink(1, 1))
        );
        let bad_factor = FaultPlan::single(
            1.0,
            FaultKind::GpuSlowdown {
                gpu: 0,
                factor: 0.5,
            },
        );
        assert_eq!(
            bad_factor.validate(&g, 2),
            Err(FaultPlanError::BadFactor(0.5))
        );
        let bad_time = FaultPlan::single(-1.0, FaultKind::GpuFailStop { gpu: 0 });
        assert_eq!(bad_time.validate(&g, 2), Err(FaultPlanError::BadTime(-1.0)));
        let wipeout = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 1.0,
                kind: FaultKind::GpuFailStop { gpu: 0 },
            },
            FaultEvent {
                at_ms: 2.0,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
        ]);
        assert_eq!(wipeout.validate(&g, 2), Err(FaultPlanError::AllGpusFail));
    }

    #[test]
    fn signal_export_is_ordered_and_offset() {
        let g = small_graph();
        let p = FaultPlan::random(11, &g, 3, 40.0, 6);
        let sigs = p.signals(0.5);
        assert_eq!(sigs.len(), p.events.len());
        for (s, e) in sigs.iter().zip(&p.events) {
            assert_eq!(s.at_ms, e.at_ms);
            assert_eq!(s.kind, e.kind);
            assert!((s.detected_ms - (e.at_ms + 0.5)).abs() < 1e-12);
        }
        assert!(
            sigs.windows(2)
                .all(|w| w[0].detected_ms <= w[1].detected_ms)
        );

        // A plan built unsorted through the public field exports the
        // same stream as its sorted self.
        let mut shuffled = p.events.clone();
        shuffled.reverse();
        let unsorted = FaultPlan { events: shuffled };
        assert_ne!(unsorted, p);
        assert_eq!(
            unsorted.signals(0.5),
            FaultPlan::new(unsorted.events.clone()).signals(0.5)
        );
    }

    #[test]
    fn fault_targets_are_exposed() {
        assert_eq!(FaultKind::GpuFailStop { gpu: 2 }.gpu_target(), Some(2));
        assert_eq!(
            FaultKind::GpuSlowdown {
                gpu: 1,
                factor: 2.0
            }
            .gpu_target(),
            Some(1)
        );
        assert_eq!(
            FaultKind::LinkFail { from: 0, to: 1 }.link_target(),
            Some((0, 1))
        );
        assert_eq!(FaultKind::LinkFail { from: 0, to: 1 }.gpu_target(), None);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let g = small_graph();
        let p = FaultPlan::random(7, &g, 3, 40.0, 5);
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn heal_restores_liveness_in_temporal_check() {
        let g = small_graph();
        // Kill 0, kill 1 → dead fleet at t=2 even though 0 heals later.
        let dead = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 1.0,
                kind: FaultKind::GpuFailStop { gpu: 0 },
            },
            FaultEvent {
                at_ms: 2.0,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
            FaultEvent {
                at_ms: 3.0,
                kind: FaultKind::GpuHeal { gpu: 0 },
            },
        ]);
        assert_eq!(dead.validate(&g, 2), Err(FaultPlanError::AllGpusFail));
        // Kill 0, heal 0, kill 1 → someone is always alive.
        let ok = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 1.0,
                kind: FaultKind::GpuFailStop { gpu: 0 },
            },
            FaultEvent {
                at_ms: 2.0,
                kind: FaultKind::GpuHeal { gpu: 0 },
            },
            FaultEvent {
                at_ms: 3.0,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
        ]);
        ok.validate(&g, 2).unwrap();
        let bad_heal = FaultPlan::single(1.0, FaultKind::GpuHeal { gpu: 7 });
        assert_eq!(bad_heal.validate(&g, 2), Err(FaultPlanError::UnknownGpu(7)));
    }

    #[test]
    fn host_domains_partition_the_fleet() {
        let doms = host_domains(5, 2);
        assert_eq!(doms.len(), 3);
        assert_eq!(doms[0].gpus, vec![0, 1]);
        assert_eq!(doms[1].gpus, vec![2, 3]);
        assert_eq!(doms[2].gpus, vec![4]);
        assert_eq!(doms[0].name, "host0");
    }

    #[test]
    fn domain_kill_compiles_to_correlated_fail_stops() {
        let g = small_graph();
        let script = FaultScript {
            domains: host_domains(4, 2),
            kills: vec![DomainKill {
                at_ms: 10.0,
                domain: 0,
            }],
            ..FaultScript::default()
        };
        let plan = script.compile(&g, 4).unwrap();
        assert_eq!(plan.events.len(), 2);
        let gpus: Vec<usize> = plan
            .events
            .iter()
            .filter_map(|e| e.kind.gpu_target())
            .collect();
        assert_eq!(gpus, vec![0, 1]);
        assert!(plan.events.iter().all(|e| e.at_ms == 10.0));
    }

    #[test]
    fn flap_compiles_to_alternating_fail_heal() {
        let g = small_graph();
        let script = FaultScript {
            flaps: vec![FlapSpec {
                gpu: 1,
                first_fail_ms: 5.0,
                down_ms: 2.0,
                up_ms: 3.0,
                cycles: 3,
            }],
            ..FaultScript::default()
        };
        let plan = script.compile(&g, 3).unwrap();
        assert_eq!(plan.events.len(), 6);
        let times: Vec<f64> = plan.events.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![5.0, 7.0, 10.0, 12.0, 15.0, 17.0]);
        for (i, e) in plan.events.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(e.kind, FaultKind::GpuFailStop { gpu: 1 });
            } else {
                assert_eq!(e.kind, FaultKind::GpuHeal { gpu: 1 });
            }
        }
    }

    #[test]
    fn script_validation_rejects_bad_shapes() {
        let g = small_graph();
        let empty_dom = FaultScript {
            domains: vec![FailureDomain {
                name: "x".into(),
                gpus: vec![],
            }],
            ..FaultScript::default()
        };
        assert_eq!(
            empty_dom.compile(&g, 2),
            Err(FaultPlanError::EmptyDomain(0))
        );

        let unknown_dom = FaultScript {
            domains: host_domains(2, 2),
            kills: vec![DomainKill {
                at_ms: 1.0,
                domain: 5,
            }],
            ..FaultScript::default()
        };
        assert_eq!(
            unknown_dom.compile(&g, 2),
            Err(FaultPlanError::UnknownDomain(5))
        );

        // A single domain covering the whole fleet → killing it wipes
        // out every GPU, mirroring the primitive-layer invariant.
        let wipeout = FaultScript {
            domains: host_domains(2, 2),
            kills: vec![DomainKill {
                at_ms: 1.0,
                domain: 0,
            }],
            ..FaultScript::default()
        };
        assert_eq!(wipeout.compile(&g, 2), Err(FaultPlanError::AllGpusFail));

        let overlap = FaultScript {
            flaps: vec![
                FlapSpec {
                    gpu: 0,
                    first_fail_ms: 0.0,
                    down_ms: 5.0,
                    up_ms: 5.0,
                    cycles: 2,
                },
                FlapSpec {
                    gpu: 0,
                    first_fail_ms: 8.0,
                    down_ms: 1.0,
                    up_ms: 1.0,
                    cycles: 1,
                },
            ],
            ..FaultScript::default()
        };
        assert_eq!(overlap.compile(&g, 2), Err(FaultPlanError::FlapOverlap(0)));

        let bad_dur = FaultScript {
            flaps: vec![FlapSpec {
                gpu: 0,
                first_fail_ms: 0.0,
                down_ms: -1.0,
                up_ms: 1.0,
                cycles: 1,
            }],
            ..FaultScript::default()
        };
        assert_eq!(
            bad_dur.compile(&g, 2),
            Err(FaultPlanError::BadDuration(-1.0))
        );

        let no_cycles = FaultScript {
            flaps: vec![FlapSpec {
                gpu: 0,
                first_fail_ms: 0.0,
                down_ms: 1.0,
                up_ms: 1.0,
                cycles: 0,
            }],
            ..FaultScript::default()
        };
        assert_eq!(no_cycles.compile(&g, 2), Err(FaultPlanError::NoCycles));
    }

    #[test]
    fn flap_on_sole_survivor_is_rejected_only_while_domain_dead() {
        let g = small_graph();
        // GPU 0 dies for good at t=1; GPU 1 flaps at t=5 → all dead.
        let script = FaultScript {
            domains: host_domains(2, 1),
            kills: vec![DomainKill {
                at_ms: 1.0,
                domain: 0,
            }],
            flaps: vec![FlapSpec {
                gpu: 1,
                first_fail_ms: 5.0,
                down_ms: 1.0,
                up_ms: 1.0,
                cycles: 1,
            }],
            ..FaultScript::default()
        };
        assert_eq!(script.compile(&g, 2), Err(FaultPlanError::AllGpusFail));
        // Same flap before the kill, healed by t=1 → fine.
        let ok = FaultScript {
            domains: host_domains(2, 1),
            kills: vec![DomainKill {
                at_ms: 5.0,
                domain: 0,
            }],
            flaps: vec![FlapSpec {
                gpu: 1,
                first_fail_ms: 1.0,
                down_ms: 1.0,
                up_ms: 1.0,
                cycles: 1,
            }],
            ..FaultScript::default()
        };
        ok.compile(&g, 2).unwrap();
    }

    #[test]
    fn cluster_events_reject_bad_shapes() {
        let ev = |at_ms, cluster, kind| ClusterFaultEvent {
            at_ms,
            cluster,
            kind,
        };
        let kill = ClusterFaultKind::ClusterKill;
        assert_eq!(
            validate_cluster_events(&[ev(1.0, 7, kill)], 4),
            Err(FaultPlanError::UnknownCluster(7))
        );
        assert_eq!(
            validate_cluster_events(&[ev(-1.0, 0, kill)], 4),
            Err(FaultPlanError::BadTime(-1.0))
        );
        let weak = ClusterFaultKind::ClusterDegrade { factor: 1.0 };
        assert_eq!(
            validate_cluster_events(&[ev(1.0, 0, weak)], 4),
            Err(FaultPlanError::BadFactor(1.0))
        );
        let unhealed = ClusterFaultKind::PartitionRouter { heal_ms: 0.0 };
        assert_eq!(
            validate_cluster_events(&[ev(1.0, 0, unhealed)], 4),
            Err(FaultPlanError::BadDuration(0.0))
        );
        // Each finite, but the heal instant they add up to is not.
        let never = ClusterFaultKind::PartitionRouter { heal_ms: 1.0e308 };
        assert_eq!(
            validate_cluster_events(&[ev(1.0e308, 0, never)], 4),
            Err(FaultPlanError::BadDuration(1.0e308))
        );
        let two_kills = [ev(1.0, 0, kill), ev(2.0, 1, kill)];
        assert_eq!(
            validate_cluster_events(&two_kills, 2),
            Err(FaultPlanError::AllClustersKilled)
        );
        // Killing 2 of 3 clusters is survivable.
        assert_eq!(validate_cluster_events(&two_kills, 3), Ok(()));
    }

    #[test]
    fn cluster_fault_kinds_have_labels() {
        assert_eq!(
            ClusterFaultKind::PartitionRouter { heal_ms: 1.0 }.label(),
            "partition-router"
        );
    }
}
