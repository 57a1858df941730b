//! The discrete-event engine.

use crate::fault::FaultKind;
use hios_core::Schedule;
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How operators inside a stage are released.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// The paper's analytical model (§III-A): a stage starts when its
    /// GPU's previous stage finished *and* every member's inputs arrived;
    /// all members occupy the GPU for `t(S)` and finish together.
    StageSync,
    /// The real engine's behaviour: stages still gate on the previous
    /// stage (stream sync), but each member starts as soon as its own
    /// inputs are ready, running for `t(v)` scaled by the stage's
    /// contention factor `t(S) / max_member t(v)`.
    Relaxed,
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Stage-release semantics.
    pub semantics: Semantics,
    /// Serialize transfers sharing a directed GPU-to-GPU link.
    pub link_serialization: bool,
    /// Per-kernel launch overhead added to every operator, ms.  Use the
    /// cost table's value (or 0 to reproduce the analytical evaluator).
    pub launch_overhead_ms: f64,
    /// Extra delay between a remote transfer completing and the consumer
    /// kernel launching (the CUDA-aware-MPI gap of §VI-E), ms.
    pub cross_gpu_launch_gap_ms: f64,
    /// Reroute transfers whose direct link prices as +∞ (a stalled link
    /// under [`Scaling`], or a pair the topology leaves unconnected)
    /// through the cheapest two-hop path over an intermediate GPU.  Off
    /// by default: a stalled link then stalls its consumers, which is
    /// what fault *detection* needs to observe.
    pub reroute_failed_links: bool,
}

impl SimConfig {
    /// Pure stage-synchronous semantics with no hardware overheads —
    /// bit-compatible with `hios_core::evaluate`.
    pub fn analytical() -> Self {
        SimConfig {
            semantics: Semantics::StageSync,
            link_serialization: false,
            launch_overhead_ms: 0.0,
            cross_gpu_launch_gap_ms: 0.0,
            reroute_failed_links: false,
        }
    }

    /// Realistic defaults for the paper's testbed.  Profiled operator
    /// times already include their own kernel launch, so no extra launch
    /// overhead is stacked on; the CUDA-aware-MPI gap (consumer kernel
    /// launched only after the transfer lands, §VI-E) is partially in the
    /// profiled transfer times already; one extra launch overhead per
    /// remote delivery stays unmodeled by the schedulers, which is the
    /// effect behind the paper's NASNet small-input anomaly (Fig. 13b).
    pub fn realistic(cost: &CostTable) -> Self {
        SimConfig {
            semantics: Semantics::Relaxed,
            link_serialization: true,
            launch_overhead_ms: 0.0,
            cross_gpu_launch_gap_ms: cost.launch_overhead_ms,
            reroute_failed_links: false,
        }
    }
}

/// Transfer-duration factor of the rerouted path (e.g. through host
/// memory) that replaces a failed link once the failure is detected.
pub const REROUTE_FACTOR: f64 = 3.0;

/// Multiplicative duration factors applied on top of the cost table —
/// the hook through which fault injection expresses persistent GPU
/// slowdowns and link degradation ([`crate::fault`], DESIGN.md §8).
///
/// The cost table's topology carries the platform's *static* per-pair
/// pricing; these factors are the *dynamic* overlay (a GPU thermally
/// throttling, a link flapping) that fault injection turns on and off
/// mid-run, applied by the engine at the moment the directed link is
/// known.
///
/// This is the one live platform model: the recovery loop
/// ([`crate::recover`]) and the serving loop (`hios-serve`) both keep a
/// `Scaling` over the physical GPUs, fold detected faults into it with
/// [`Scaling::apply_fault`], and hand the engine its
/// [`Scaling::project`]ion onto the slots of the schedule being run.
#[derive(Clone, Debug, PartialEq)]
pub struct Scaling {
    /// Per-GPU execution factor (`1.0` = nominal, `2.0` = half speed).
    pub gpu: Vec<f64>,
    /// Per-directed-link transfer factor, indexed `from * m + to`.
    /// `f64::INFINITY` models a stalled link.
    pub link: Vec<f64>,
}

impl Scaling {
    /// Nominal speed everywhere on an `m`-GPU platform.
    pub fn identity(m: usize) -> Self {
        Scaling {
            gpu: vec![1.0; m],
            link: vec![1.0; m * m],
        }
    }

    /// Factor of the directed link `from -> to`.
    pub fn link_factor(&self, from: usize, to: usize) -> f64 {
        self.link[from * self.gpu.len() + to]
    }

    /// The factors a slot schedule sees when slot `i` is physical GPU
    /// `gpu_map[i]`: GPU factors gathered per slot, link factors per
    /// ordered slot pair.
    pub fn project(&self, gpu_map: &[usize]) -> Scaling {
        let mut out = Scaling {
            gpu: Vec::with_capacity(gpu_map.len()),
            link: Vec::with_capacity(gpu_map.len() * gpu_map.len()),
        };
        self.project_into(gpu_map, &mut out);
        out
    }

    /// [`Scaling::project`] into a buffer the caller keeps (overwritten),
    /// for a loop that projects once per dispatch.
    pub fn project_into(&self, gpu_map: &[usize], out: &mut Scaling) {
        out.gpu.clear();
        out.gpu.extend(gpu_map.iter().map(|&p| self.gpu[p]));
        out.link.clear();
        for &from in gpu_map {
            for &to in gpu_map {
                out.link.push(self.link_factor(from, to));
            }
        }
    }

    /// Folds the lasting effect of a *detected* fault into the platform
    /// (indices must fit it — [`crate::FaultPlan::validate_platform`]):
    /// a fail-stopped GPU prices as `+∞`, slowdowns and link degrades
    /// compound with whatever the device already suffers, a failed link
    /// is replaced by the [`REROUTE_FACTOR`] path, a heal restores
    /// nominal speed, and an operator hang is transient.
    pub fn apply_fault(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::GpuFailStop { gpu } => self.gpu[gpu] = f64::INFINITY,
            FaultKind::GpuSlowdown { gpu, factor } => self.gpu[gpu] *= factor,
            FaultKind::LinkFail { from, to } => *self.link_mut(from, to) = REROUTE_FACTOR,
            FaultKind::LinkDegrade { from, to, factor } => *self.link_mut(from, to) *= factor,
            FaultKind::GpuHeal { gpu } => self.gpu[gpu] = 1.0,
            FaultKind::OpHang { .. } => {}
        }
    }

    fn link_mut(&mut self, from: usize, to: usize) -> &mut f64 {
        let m = self.gpu.len();
        &mut self.link[from * m + to]
    }

    fn check(&self, m: usize) -> Result<(), SimError> {
        if self.gpu.len() != m || self.link.len() != m * m {
            return Err(SimError::BadScaling {
                gpus: self.gpu.len(),
                links: self.link.len(),
                expected_gpus: m,
            });
        }
        if self
            .gpu
            .iter()
            .any(|&f| f.is_nan() || f <= 0.0 || f.is_infinite())
            || self.link.iter().any(|&f| f.is_nan() || f <= 0.0)
        {
            return Err(SimError::BadScaling {
                gpus: self.gpu.len(),
                links: self.link.len(),
                expected_gpus: m,
            });
        }
        Ok(())
    }
}

/// One inter-GPU tensor transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferRecord {
    /// Producing operator.
    pub from: OpId,
    /// Consuming operator.
    pub to: OpId,
    /// Source GPU.
    pub from_gpu: usize,
    /// Destination GPU.
    pub to_gpu: usize,
    /// Transfer start time, ms.
    pub start: f64,
    /// Transfer finish time, ms.
    pub finish: f64,
}

/// Simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// End-to-end latency (max finish over operators and transfers), ms.
    pub makespan: f64,
    /// Per-operator start times, ms.
    pub op_start: Vec<f64>,
    /// Per-operator finish times, ms.
    pub op_finish: Vec<f64>,
    /// All inter-GPU transfers, in start order.
    pub transfers: Vec<TransferRecord>,
    /// Per-GPU busy time (union of operator execution intervals), ms.
    pub gpu_busy: Vec<f64>,
}

impl SimResult {
    /// Fraction of the makespan each GPU spent executing operators.
    pub fn gpu_utilization(&self) -> Vec<f64> {
        if self.makespan <= 0.0 {
            return vec![0.0; self.gpu_busy.len()];
        }
        self.gpu_busy.iter().map(|&b| b / self.makespan).collect()
    }
}

/// Simulation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The schedule failed structural validation.
    Structure(hios_core::ScheduleError),
    /// Execution deadlocked (circular wait between stages).
    Deadlock {
        /// Operators that never became ready.
        stuck_ops: usize,
    },
    /// The cost table covers a different operator count than the graph.
    CostMismatch {
        /// Operators in the graph.
        expected: usize,
        /// Operators in the cost table.
        got: usize,
    },
    /// The [`Scaling`] arrays do not fit the platform, or hold
    /// non-positive (or, for GPUs, infinite) factors.
    BadScaling {
        /// GPU factors supplied.
        gpus: usize,
        /// Link factors supplied.
        links: usize,
        /// GPUs the schedule uses.
        expected_gpus: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Structure(e) => write!(f, "invalid schedule: {e}"),
            SimError::Deadlock { stuck_ops } => {
                write!(f, "deadlock: {stuck_ops} operators never became ready")
            }
            SimError::CostMismatch { expected, got } => {
                write!(f, "cost table covers {got} operators, graph has {expected}")
            }
            SimError::BadScaling {
                gpus,
                links,
                expected_gpus,
            } => write!(
                f,
                "scaling has {gpus} GPU / {links} link factors for an \
                 {expected_gpus}-GPU platform (or a non-positive factor)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    /// All operators of stage (gpu, stage) finished: open the next stage.
    StageDone(usize, usize),
    /// Operator finished executing.
    OpFinished(OpId),
    /// A transfer delivering to `to` completed (includes the launch gap).
    InputDelivered(OpId),
}

/// Runs the discrete-event simulation of `sched` on `g` with costs from
/// `cost` at nominal speed everywhere.
pub fn simulate(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_scaled(g, cost, sched, cfg, &Scaling::identity(sched.num_gpus()))
}

/// [`simulate`] with per-GPU and per-link duration factors: operator and
/// stage durations on GPU `i` stretch by `scaling.gpu[i]`, transfers over
/// the directed link `i -> j` by `scaling.link[i * m + j]` (an infinite
/// link factor stalls every transfer crossing it).
pub fn simulate_scaled(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    cfg: &SimConfig,
    scaling: &Scaling,
) -> Result<SimResult, SimError> {
    if cost.num_ops() != g.num_ops() {
        return Err(SimError::CostMismatch {
            expected: g.num_ops(),
            got: cost.num_ops(),
        });
    }
    let n = g.num_ops();
    let m = sched.num_gpus();
    scaling.check(m)?;
    sched.validate(g).map_err(SimError::Structure)?;
    let place = sched.placements(n);
    let place = |v: OpId| place[v.index()].expect("schedule validated");

    // Contention factor per stage: t(S) / max member t(v), with the
    // GPU's scaling factor folded into t(S) (so Relaxed member durations
    // stretch by the same factor).
    let mut stage_factor: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut stage_duration: Vec<Vec<f64>> = Vec::with_capacity(m);
    for (gi, gpu) in sched.gpus.iter().enumerate() {
        let mut fs = Vec::with_capacity(gpu.stages.len());
        let mut ds = Vec::with_capacity(gpu.stages.len());
        for stage in &gpu.stages {
            let t_s = cost.concurrent_on(gi, &stage.ops) * scaling.gpu[gi];
            let t_max = stage
                .ops
                .iter()
                .map(|&v| cost.exec_on(gi, v))
                .fold(0.0f64, f64::max);
            fs.push(if t_max > 0.0 { t_s / t_max } else { 1.0 });
            ds.push(t_s);
        }
        stage_factor.push(fs);
        stage_duration.push(ds);
    }

    // Per-op bookkeeping.
    let mut missing_inputs: Vec<usize> = g.op_ids().map(|v| g.preds(v).len()).collect();
    let mut op_start = vec![f64::NAN; n];
    let mut op_finish = vec![f64::NAN; n];
    let mut started = vec![false; n];

    // Per-stage bookkeeping.
    let mut stage_open: Vec<Vec<bool>> = sched
        .gpus
        .iter()
        .map(|gpu| vec![false; gpu.stages.len()])
        .collect();
    let mut stage_open_time: Vec<Vec<f64>> = sched
        .gpus
        .iter()
        .map(|gpu| vec![0.0f64; gpu.stages.len()])
        .collect();
    let mut stage_unfinished: Vec<Vec<usize>> = sched
        .gpus
        .iter()
        .map(|gpu| gpu.stages.iter().map(|s| s.ops.len()).collect())
        .collect();
    // For StageSync: members not yet input-ready.
    let mut stage_unready: Vec<Vec<usize>> = sched
        .gpus
        .iter()
        .map(|gpu| {
            gpu.stages
                .iter()
                .map(|s| s.ops.iter().filter(|&&v| !g.preds(v).is_empty()).count())
                .collect()
        })
        .collect();
    // Latest input arrival per stage (StageSync start bound).
    let mut stage_data_ready: Vec<Vec<f64>> = sched
        .gpus
        .iter()
        .map(|gpu| vec![0.0f64; gpu.stages.len()])
        .collect();

    // Directed links: busy-until per (from_gpu, to_gpu).
    let mut link_busy = vec![0.0f64; m * m];
    let mut transfers: Vec<TransferRecord> = Vec::new();

    // Event queue ordered by (time, sequence) for determinism.
    let mut queue: BinaryHeap<Reverse<(OrderedF64, u64, EventKey)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |queue: &mut BinaryHeap<Reverse<(OrderedF64, u64, EventKey)>>,
                seq: &mut u64,
                time: f64,
                ev: Event| {
        *seq += 1;
        queue.push(Reverse((OrderedF64(time), *seq, EventKey(ev))));
    };

    let mut finished_ops = 0usize;

    // An op starts when its stage is open and its inputs arrived.
    // StageSync additionally waits for the *whole stage* to be ready and
    // starts everyone together.
    macro_rules! try_start_stage_sync {
        ($queue:expr, $gi:expr, $si:expr, $now:expr) => {{
            let (gi, si) = ($gi, $si);
            if stage_open[gi][si] && stage_unready[gi][si] == 0 {
                let start = stage_open_time[gi][si]
                    .max(stage_data_ready[gi][si])
                    .max($now);
                let dur = stage_duration[gi][si] + cfg.launch_overhead_ms;
                for &v in &sched.gpus[gi].stages[si].ops {
                    if !started[v.index()] {
                        started[v.index()] = true;
                        op_start[v.index()] = start;
                        op_finish[v.index()] = start + dur;
                        push(&mut $queue, &mut seq, start + dur, Event::OpFinished(v));
                    }
                }
            }
        }};
    }

    macro_rules! try_start_op_relaxed {
        ($queue:expr, $v:expr, $now:expr) => {{
            let v: OpId = $v;
            let p = place(v);
            if !started[v.index()] && stage_open[p.gpu][p.stage] && missing_inputs[v.index()] == 0 {
                let start = stage_open_time[p.gpu][p.stage].max($now);
                let dur =
                    cost.exec_on(p.gpu, v) * stage_factor[p.gpu][p.stage] + cfg.launch_overhead_ms;
                started[v.index()] = true;
                op_start[v.index()] = start;
                op_finish[v.index()] = start + dur;
                push(&mut $queue, &mut seq, start + dur, Event::OpFinished(v));
            }
        }};
    }

    macro_rules! open_stage {
        ($queue:expr, $gi:expr, $si:expr, $time:expr) => {{
            let (gi, si, time) = ($gi, $si, $time);
            if si < sched.gpus[gi].stages.len() {
                stage_open[gi][si] = true;
                stage_open_time[gi][si] = time;
                match cfg.semantics {
                    Semantics::StageSync => try_start_stage_sync!($queue, gi, si, time),
                    Semantics::Relaxed => {
                        let ops = sched.gpus[gi].stages[si].ops.clone();
                        for v in ops {
                            try_start_op_relaxed!($queue, v, time);
                        }
                    }
                }
            }
        }};
    }

    // Open the first stage of every GPU at t = 0.
    for gi in 0..m {
        open_stage!(queue, gi, 0, 0.0);
    }

    while let Some(Reverse((OrderedF64(now), _, EventKey(ev)))) = queue.pop() {
        match ev {
            Event::OpFinished(v) => {
                finished_ops += 1;
                let pv = place(v);
                // Deliver outputs.
                for &w in g.succs(v) {
                    let pw = place(w);
                    if pw.gpu == pv.gpu {
                        missing_inputs[w.index()] -= 1;
                        note_arrival(
                            &mut stage_data_ready,
                            &mut stage_unready,
                            &missing_inputs,
                            pw.gpu,
                            pw.stage,
                            w,
                            now,
                        );
                        match cfg.semantics {
                            Semantics::StageSync => {
                                try_start_stage_sync!(queue, pw.gpu, pw.stage, now)
                            }
                            Semantics::Relaxed => try_start_op_relaxed!(queue, w, now),
                        }
                    } else {
                        // Remote consumer: occupy the directed link.
                        let link = pv.gpu * m + pw.gpu;
                        let direct = cost.transfer(v, pv.gpu, pw.gpu) * scaling.link[link];
                        // A dead direct route (stalled link or a pair the
                        // topology leaves unconnected) can optionally be
                        // rerouted over the cheapest intermediate hop.
                        let (dt, route) = if cfg.reroute_failed_links && !direct.is_finite() {
                            let mut best = f64::INFINITY;
                            let mut hop = None;
                            for k in 0..m {
                                if k == pv.gpu || k == pw.gpu {
                                    continue;
                                }
                                let legs = cost.transfer(v, pv.gpu, k)
                                    * scaling.link_factor(pv.gpu, k)
                                    + cost.transfer(v, k, pw.gpu) * scaling.link_factor(k, pw.gpu);
                                if legs < best {
                                    best = legs;
                                    hop = Some(k);
                                }
                            }
                            match hop {
                                Some(k) => (best, [pv.gpu * m + k, k * m + pw.gpu]),
                                None => (direct, [link, link]),
                            }
                        } else {
                            (direct, [link, link])
                        };
                        let t_start = if cfg.link_serialization {
                            route.iter().map(|&l| link_busy[l]).fold(now, f64::max)
                        } else {
                            now
                        };
                        // A 0 × ∞ product (zero-cost transfer over a
                        // stalled link) still means "never delivers".
                        let t_finish = t_start + if dt.is_nan() { f64::INFINITY } else { dt };
                        for &l in &route {
                            link_busy[l] = link_busy[l].max(t_finish);
                        }
                        transfers.push(TransferRecord {
                            from: v,
                            to: w,
                            from_gpu: pv.gpu,
                            to_gpu: pw.gpu,
                            start: t_start,
                            finish: t_finish,
                        });
                        push(
                            &mut queue,
                            &mut seq,
                            t_finish + cfg.cross_gpu_launch_gap_ms,
                            Event::InputDelivered(w),
                        );
                    }
                }
                // Stage completion.
                stage_unfinished[pv.gpu][pv.stage] -= 1;
                if stage_unfinished[pv.gpu][pv.stage] == 0 {
                    push(
                        &mut queue,
                        &mut seq,
                        now,
                        Event::StageDone(pv.gpu, pv.stage),
                    );
                }
            }
            Event::InputDelivered(w) => {
                let pw = place(w);
                missing_inputs[w.index()] -= 1;
                note_arrival(
                    &mut stage_data_ready,
                    &mut stage_unready,
                    &missing_inputs,
                    pw.gpu,
                    pw.stage,
                    w,
                    now,
                );
                match cfg.semantics {
                    Semantics::StageSync => try_start_stage_sync!(queue, pw.gpu, pw.stage, now),
                    Semantics::Relaxed => try_start_op_relaxed!(queue, w, now),
                }
            }
            Event::StageDone(gi, si) => {
                open_stage!(queue, gi, si + 1, now);
            }
        }
    }

    if finished_ops != n {
        return Err(SimError::Deadlock {
            stuck_ops: n - finished_ops,
        });
    }

    let makespan = op_finish
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(transfers.iter().map(|t| t.finish).fold(0.0f64, f64::max));
    let mut gpu_busy = vec![0.0f64; m];
    for (gi, slot) in gpu_busy.iter_mut().enumerate() {
        let mut intervals: Vec<(f64, f64)> = sched.gpus[gi]
            .stages
            .iter()
            .flat_map(|s| s.ops.iter())
            .map(|&v| (op_start[v.index()], op_finish[v.index()]))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut busy = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, f) in intervals {
            match cur {
                Some((cs, cf)) if s <= cf => cur = Some((cs, cf.max(f))),
                Some((cs, cf)) => {
                    busy += cf - cs;
                    cur = Some((s, f));
                    let _ = cs;
                }
                None => cur = Some((s, f)),
            }
        }
        if let Some((cs, cf)) = cur {
            busy += cf - cs;
        }
        *slot = busy;
    }

    Ok(SimResult {
        makespan,
        op_start,
        op_finish,
        transfers,
        gpu_busy,
    })
}

/// Records an input arrival for StageSync bookkeeping: bumps the stage's
/// data-ready bound and, when `w` just became fully ready, decrements the
/// stage's unready-member count.
fn note_arrival(
    stage_data_ready: &mut [Vec<f64>],
    stage_unready: &mut [Vec<usize>],
    missing_inputs: &[usize],
    gpu: usize,
    stage: usize,
    w: OpId,
    now: f64,
) {
    stage_data_ready[gpu][stage] = stage_data_ready[gpu][stage].max(now);
    if missing_inputs[w.index()] == 0 {
        stage_unready[gpu][stage] -= 1;
    }
}

/// Total-ordered f64 for the event queue (times are always finite).
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Event wrapper with an arbitrary (but deterministic) total order so the
/// heap type is fully ordered.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EventKey(Event);

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_core::schedule::{GpuSchedule, Stage};
    use hios_core::{Schedule, evaluate};
    use hios_cost::{ConcurrencyParams, CostTable, RandomCostConfig, random_cost_table};
    use hios_graph::{GraphBuilder, LayeredDagConfig, generate_layered_dag};

    fn uniform_cost(n: usize, exec: f64, util: f64, transfer: f64) -> CostTable {
        CostTable::homogeneous(
            "test",
            vec![exec; n],
            vec![util; n],
            vec![transfer; n],
            ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.0,
        )
    }

    /// a feeds b on another GPU.
    fn cross_pair() -> (hios_graph::Graph, Schedule) {
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let _b = b.add_synthetic("b", &[a]);
        let g = b.build();
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::solo(hios_graph::OpId(0))],
                },
                GpuSchedule {
                    stages: vec![Stage::solo(hios_graph::OpId(1))],
                },
            ],
        };
        (g, s)
    }

    #[test]
    fn analytical_config_matches_evaluator() {
        for seed in 0..6 {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 50,
                layers: 5,
                deps: 110,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let out = hios_core::run_scheduler(
                hios_core::Algorithm::HiosLp,
                &g,
                &cost,
                &hios_core::SchedulerOptions::new(3),
            )
            .unwrap();
            let sim = simulate(&g, &cost, &out.schedule, &SimConfig::analytical()).unwrap();
            let ev = evaluate(&g, &cost, &out.schedule).unwrap();
            assert!(
                (sim.makespan - ev.latency).abs() < 1e-6,
                "seed {seed}: sim {} vs eval {}",
                sim.makespan,
                ev.latency
            );
        }
    }

    #[test]
    fn transfer_and_gap_delay_remote_consumer() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut cfg = SimConfig::analytical();
        cfg.cross_gpu_launch_gap_ms = 0.25;
        let r = simulate(&g, &cost, &s, &cfg).unwrap();
        // 1.0 exec + 0.5 transfer + 0.25 gap + 1.0 exec.
        assert!((r.makespan - 2.75).abs() < 1e-9);
        assert_eq!(r.transfers.len(), 1);
        assert!((r.transfers[0].start - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_serialization_queues_transfers() {
        // Two producers on GPU0 feeding two consumers on GPU1; transfers
        // of 1 ms each must serialize on the single directed link.
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let c = b.add_synthetic("c", &[]);
        let _x = b.add_synthetic("x", &[a]);
        let _y = b.add_synthetic("y", &[c]);
        let g = b.build();
        let cost = uniform_cost(4, 1.0, 0.3, 1.0);
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::group(vec![hios_graph::OpId(0), hios_graph::OpId(1)])],
                },
                GpuSchedule {
                    stages: vec![Stage::group(vec![hios_graph::OpId(2), hios_graph::OpId(3)])],
                },
            ],
        };
        let mut cfg = SimConfig::analytical();
        cfg.semantics = Semantics::Relaxed;
        let serial = {
            let mut c = cfg;
            c.link_serialization = true;
            simulate(&g, &cost, &s, &c).unwrap()
        };
        let parallel = {
            let mut c = cfg;
            c.link_serialization = false;
            simulate(&g, &cost, &s, &c).unwrap()
        };
        assert!(
            serial.makespan > parallel.makespan,
            "serialized {} must exceed parallel {}",
            serial.makespan,
            parallel.makespan
        );
        // Serialized: second transfer starts when the first ends.
        assert!((serial.transfers[1].start - serial.transfers[0].finish).abs() < 1e-9);
    }

    #[test]
    fn relaxed_is_never_slower_than_stage_sync() {
        for seed in 0..6 {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 60,
                layers: 6,
                deps: 130,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let out = hios_core::run_scheduler(
                hios_core::Algorithm::HiosLp,
                &g,
                &cost,
                &hios_core::SchedulerOptions::new(4),
            )
            .unwrap();
            let mut sync_cfg = SimConfig::analytical();
            sync_cfg.link_serialization = false;
            let mut relaxed_cfg = sync_cfg;
            relaxed_cfg.semantics = Semantics::Relaxed;
            let sync = simulate(&g, &cost, &out.schedule, &sync_cfg).unwrap();
            let relaxed = simulate(&g, &cost, &out.schedule, &relaxed_cfg).unwrap();
            assert!(
                relaxed.makespan <= sync.makespan + 1e-6,
                "seed {seed}: relaxed {} vs sync {}",
                relaxed.makespan,
                sync.makespan
            );
        }
    }

    #[test]
    fn deadlock_is_reported() {
        // Same circular-wait construction as the evaluator test.
        let mut builder = GraphBuilder::new();
        let a = builder.add_synthetic("a", &[]);
        let _b = builder.add_synthetic("b", &[a]);
        let c = builder.add_synthetic("c", &[]);
        let _d = builder.add_synthetic("d", &[c]);
        let g = builder.build();
        let cost = uniform_cost(4, 1.0, 1.0, 0.1);
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![
                        Stage::solo(hios_graph::OpId(3)),
                        Stage::solo(hios_graph::OpId(0)),
                    ],
                },
                GpuSchedule {
                    stages: vec![
                        Stage::solo(hios_graph::OpId(1)),
                        Stage::solo(hios_graph::OpId(2)),
                    ],
                },
            ],
        };
        assert!(matches!(
            simulate(&g, &cost, &s, &SimConfig::analytical()),
            Err(SimError::Deadlock { stuck_ops: 4 })
        ));
    }

    #[test]
    fn utilization_is_sane() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let r = simulate(&g, &cost, &s, &SimConfig::analytical()).unwrap();
        let u = r.gpu_utilization();
        assert_eq!(u.len(), 2);
        for &x in &u {
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn identity_scaling_is_bit_identical_to_simulate() {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 40,
            layers: 5,
            deps: 80,
            seed: 9,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(9));
        let out = hios_core::run_scheduler(
            hios_core::Algorithm::HiosLp,
            &g,
            &cost,
            &hios_core::SchedulerOptions::new(3),
        )
        .unwrap();
        let cfg = SimConfig::realistic(&cost);
        let plain = simulate(&g, &cost, &out.schedule, &cfg).unwrap();
        let scaled =
            simulate_scaled(&g, &cost, &out.schedule, &cfg, &Scaling::identity(3)).unwrap();
        assert_eq!(plain.makespan.to_bits(), scaled.makespan.to_bits());
        assert_eq!(plain.op_finish, scaled.op_finish);
    }

    #[test]
    fn gpu_slowdown_stretches_only_that_gpu() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut sc = Scaling::identity(2);
        sc.gpu[0] = 2.0;
        let r = simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &sc).unwrap();
        // 2.0 (slowed a) + 0.5 transfer + 1.0 (nominal b).
        assert!((r.makespan - 3.5).abs() < 1e-9, "got {}", r.makespan);
    }

    #[test]
    fn link_degradation_stretches_the_transfer() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut sc = Scaling::identity(2);
        sc.link[1] = 4.0; // link 0 -> 1
        let r = simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &sc).unwrap();
        assert!((r.makespan - 4.0).abs() < 1e-9, "got {}", r.makespan);
        assert!((r.transfers[0].finish - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stalled_link_never_delivers() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut sc = Scaling::identity(2);
        sc.link[1] = f64::INFINITY;
        let r = simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &sc).unwrap();
        assert!(r.makespan.is_infinite());
        assert!(r.op_finish[1].is_infinite());
    }

    #[test]
    fn reroute_sends_stalled_transfers_over_a_hop() {
        // a on GPU 0 feeds b on GPU 2; the direct 0 -> 2 link is stalled.
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let _b = b.add_synthetic("b", &[a]);
        let g = b.build();
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::solo(hios_graph::OpId(0))],
                },
                GpuSchedule { stages: vec![] },
                GpuSchedule {
                    stages: vec![Stage::solo(hios_graph::OpId(1))],
                },
            ],
        };
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut sc = Scaling::identity(3);
        sc.link[2] = f64::INFINITY; // link 0 -> 2

        let stuck = simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &sc).unwrap();
        assert!(stuck.makespan.is_infinite());

        let mut cfg = SimConfig::analytical();
        cfg.reroute_failed_links = true;
        let routed = simulate_scaled(&g, &cost, &s, &cfg, &sc).unwrap();
        // 1.0 exec + (0.5 + 0.5) two-hop transfer + 1.0 exec.
        assert!((routed.makespan - 3.0).abs() < 1e-9, "{}", routed.makespan);

        // With only two GPUs there is no intermediate hop: the flag
        // changes nothing and the stall is still observed.
        let (g2, s2) = cross_pair();
        let cost2 = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut sc2 = Scaling::identity(2);
        sc2.link[1] = f64::INFINITY;
        let r2 = simulate_scaled(&g2, &cost2, &s2, &cfg, &sc2).unwrap();
        assert!(r2.makespan.is_infinite());
    }

    #[test]
    fn mismatched_cost_table_is_a_typed_error() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(5, 1.0, 1.0, 0.5); // graph has 2 ops
        assert_eq!(
            simulate(&g, &cost, &s, &SimConfig::analytical()).unwrap_err(),
            SimError::CostMismatch {
                expected: 2,
                got: 5
            }
        );
    }

    #[test]
    fn bad_scaling_is_rejected() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let short = Scaling {
            gpu: vec![1.0],
            link: vec![1.0; 4],
        };
        assert!(matches!(
            simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &short),
            Err(SimError::BadScaling { .. })
        ));
        let mut inf_gpu = Scaling::identity(2);
        inf_gpu.gpu[1] = f64::INFINITY;
        assert!(matches!(
            simulate_scaled(&g, &cost, &s, &SimConfig::analytical(), &inf_gpu),
            Err(SimError::BadScaling { .. })
        ));
    }

    #[test]
    fn projection_and_fault_effects_follow_the_platform_rules() {
        let id = Scaling::identity(3);
        assert_eq!(id.project(&[0, 1, 2]), id);
        assert_eq!(id.project(&[2, 0]), Scaling::identity(2));

        // Start from a platform where every factor is distinct, so a
        // projection or a fault reading the wrong cell shows.
        let base = Scaling {
            gpu: vec![1.5, 2.5, 3.5],
            link: (0..9).map(|i| 10.0 + i as f64).collect(),
        };
        let p = base.project(&[2, 0]);
        assert_eq!(p.gpu, vec![3.5, 1.5]);
        assert_eq!(p.link_factor(0, 1), base.link_factor(2, 0));
        assert_eq!(p.link_factor(1, 0), base.link_factor(0, 2));
        assert_eq!(p.link_factor(1, 1), base.link_factor(0, 0));

        let gpu = |g: usize, f: f64| {
            let mut s = base.clone();
            s.gpu[g] = f;
            s
        };
        let link = |from: usize, to: usize, f: f64| {
            let mut s = base.clone();
            s.link[from * 3 + to] = f;
            s
        };
        let factor = 4.0;
        for (kind, want) in [
            (FaultKind::GpuFailStop { gpu: 1 }, gpu(1, f64::INFINITY)),
            (FaultKind::GpuSlowdown { gpu: 2, factor }, gpu(2, 3.5 * 4.0)),
            (
                FaultKind::LinkFail { from: 2, to: 0 },
                link(2, 0, REROUTE_FACTOR),
            ),
            (
                FaultKind::LinkDegrade {
                    from: 0,
                    to: 1,
                    factor,
                },
                link(0, 1, 11.0 * 4.0),
            ),
            (FaultKind::GpuHeal { gpu: 0 }, gpu(0, 1.0)),
            (FaultKind::OpHang { op: OpId(7) }, base.clone()),
        ] {
            let mut got = base.clone();
            got.apply_fault(&kind);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn launch_overhead_accumulates() {
        let (g, s) = cross_pair();
        let cost = uniform_cost(2, 1.0, 1.0, 0.5);
        let mut cfg = SimConfig::analytical();
        cfg.launch_overhead_ms = 0.1;
        let r = simulate(&g, &cost, &s, &cfg).unwrap();
        assert!((r.makespan - 2.7).abs() < 1e-9, "got {}", r.makespan);
    }
}
