//! The discrete-event engine.

use crate::clock::EventQueue;
use crate::fault::FaultKind;
use hios_core::Schedule;
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};
use std::collections::VecDeque;

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
    /// Extra delay between a remote transfer completing and the consumer
    /// kernel launching (the CUDA-aware-MPI gap of §VI-E), ms.
    pub cross_gpu_launch_gap_ms: f64,
}

impl SimConfig {
    /// Pure stage-synchronous semantics with no hardware overheads —
    /// bit-compatible with `hios_core::evaluate`.
    pub fn analytical() -> Self {
        SimConfig {
            semantics: Semantics::StageSync,
            link_serialization: false,
            cross_gpu_launch_gap_ms: 0.0,
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
            cross_gpu_launch_gap_ms: cost.launch_overhead_ms,
        }
    }
}

/// Transfer-duration factor of the rerouted path (e.g. through host
/// memory) that replaces a failed link once the failure is detected.
pub(crate) const REROUTE_FACTOR: f64 = 3.0;

/// Multiplicative duration factors applied on top of the cost table —
/// the hook through which fault injection expresses persistent GPU
/// slowdowns and link degradation (see [`FaultPlan`](crate::FaultPlan), DESIGN.md §8).
///
/// The cost table's topology carries the platform's *static* per-pair
/// pricing; these factors are the *dynamic* overlay (a GPU thermally
/// throttling, a link flapping) that fault injection turns on and off
/// mid-run, applied by the engine at the moment the directed link is
/// known.
///
/// This is the one live platform model: the recovery loop
/// ([`run_with_repair`](crate::run_with_repair)) and the serving loop (`hios-serve`) both keep a
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
    pub(crate) fn link_factor(&self, from: usize, to: usize) -> f64 {
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
    /// is replaced by the `REROUTE_FACTOR` path, a heal restores
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

/// A schedule over `m` GPUs can run only on a table whose topology
/// prices every one of them.
pub(crate) fn check_platform(cost: &CostTable, m: usize) -> Result<(), SimError> {
    if cost.topology.covers(m) {
        return Ok(());
    }
    Err(SimError::Structure(
        hios_core::ScheduleError::PlatformMismatch {
            schedule_gpus: m,
            platform_gpus: cost.topology.num_gpus(),
        },
    ))
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
    let m = sched.num_gpus();
    check_platform(cost, m)?;
    scaling.check(m)?;
    sched.validate(g).map_err(SimError::Structure)?;

    let mut run = Run::new(g, cost, sched, cfg, scaling);
    // Open the first stage of every GPU at t = 0.
    let mut first = 0;
    for gpu in &sched.gpus {
        if !gpu.stages.is_empty() {
            run.open(first, 0.0);
        }
        first += gpu.stages.len();
    }
    let mut finished_ops = 0usize;
    while let Some((now, ev)) = run.next() {
        match ev {
            Event::OpenStage(s) => run.open(s, now),
            Event::InputDelivered(w) => run.arrive(w, now),
            Event::OpFinished(v) => {
                finished_ops += 1;
                run.finish(v, now);
            }
        }
    }
    let n = g.num_ops();
    if finished_ops != n {
        return Err(SimError::Deadlock {
            stuck_ops: n - finished_ops,
        });
    }

    let Run {
        stages,
        op_start,
        op_finish,
        transfers,
        ..
    } = run;
    let makespan = op_finish
        .iter()
        .copied()
        .fold(0.0f64, f64::max)
        .max(transfers.iter().map(|t| t.finish).fold(0.0f64, f64::max));
    let mut gpu_busy = vec![0.0f64; m];
    for gpu_stages in stages.chunk_by(|a, b| a.gpu == b.gpu) {
        let mut intervals: Vec<(f64, f64)> = gpu_stages
            .iter()
            .flat_map(|s| s.ops)
            .map(|&v| (op_start[v.index()], op_finish[v.index()]))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Union of the intervals: sum each maximal overlapping run.
        let Some(&(mut cs, mut cf)) = intervals.first() else {
            continue;
        };
        let mut busy = 0.0;
        for &(s, f) in &intervals[1..] {
            if s <= cf {
                cf = cf.max(f);
            } else {
                busy += cf - cs;
                (cs, cf) = (s, f);
            }
        }
        gpu_busy[gpu_stages[0].gpu] = busy + (cf - cs);
    }

    Ok(SimResult {
        makespan,
        op_start,
        op_finish,
        transfers,
        gpu_busy,
    })
}

/// What the event loop reacts to.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Every member of the previous stage on the same GPU finished: open
    /// stage `s` (a global stage index, see [`Run::stages`]).
    OpenStage(usize),
    /// Operator finished executing.
    OpFinished(OpId),
    /// A transfer delivering to the operator completed (includes the
    /// launch gap).
    InputDelivered(OpId),
}

/// One stage of the schedule and its progress.
struct StageRun<'a> {
    ops: &'a [OpId],
    gpu: usize,
    /// Whether another stage follows on the same GPU.
    has_next: bool,
    /// `t(S)` with the GPU's scaling factor folded in.
    duration: f64,
    /// Contention factor `t(S) / max member t(v)`: Relaxed member
    /// durations stretch by it (and so by the GPU's factor too).
    factor: f64,
    /// When the stage opened, once it has.
    opened: Option<f64>,
    /// Members still running or not yet started.
    unfinished: usize,
    /// Members whose inputs have not all arrived (the StageSync gate).
    unready: usize,
    /// Latest input arrival (the StageSync start bound).
    data_ready: f64,
}

/// The state of one simulation.
struct Run<'a> {
    g: &'a Graph,
    cost: &'a CostTable,
    cfg: &'a SimConfig,
    scaling: &'a Scaling,
    /// Every stage, GPU by GPU and in stage order on each GPU.
    stages: Vec<StageRun<'a>>,
    /// Global stage index per operator.
    stage_of: Vec<usize>,
    /// Inputs not yet arrived, per operator.
    missing_inputs: Vec<usize>,
    /// Per-operator start time; `NaN` until the operator starts.
    op_start: Vec<f64>,
    op_finish: Vec<f64>,
    /// Busy-until per directed link, indexed `from * m + to`.
    link_busy: Vec<f64>,
    transfers: Vec<TransferRecord>,
    queue: EventQueue<Event>,
    /// Events at `+∞` (a delivery over a stalled link, and whatever it
    /// starts), in insertion order.  [`EventQueue`] takes only finite
    /// instants; nothing at `+∞` schedules an earlier event, so draining
    /// these after the queue runs dry is the (time, insertion) order.
    stalled: VecDeque<Event>,
}

impl<'a> Run<'a> {
    fn new(
        g: &'a Graph,
        cost: &'a CostTable,
        sched: &'a Schedule,
        cfg: &'a SimConfig,
        scaling: &'a Scaling,
    ) -> Self {
        let n = g.num_ops();
        let m = sched.num_gpus();
        let mut stages = Vec::new();
        let mut stage_of = vec![0; n];
        for (gi, gpu) in sched.gpus.iter().enumerate() {
            for (si, stage) in gpu.stages.iter().enumerate() {
                let duration = cost.concurrent_on(gi, &stage.ops) * scaling.gpu[gi];
                let t_max = stage
                    .ops
                    .iter()
                    .map(|&v| cost.exec_on(gi, v))
                    .fold(0.0f64, f64::max);
                for &v in &stage.ops {
                    stage_of[v.index()] = stages.len();
                }
                stages.push(StageRun {
                    ops: &stage.ops,
                    gpu: gi,
                    has_next: si + 1 < gpu.stages.len(),
                    duration,
                    factor: if t_max > 0.0 { duration / t_max } else { 1.0 },
                    opened: None,
                    unfinished: stage.ops.len(),
                    unready: stage
                        .ops
                        .iter()
                        .filter(|&&v| !g.preds(v).is_empty())
                        .count(),
                    data_ready: 0.0,
                });
            }
        }
        Run {
            g,
            cost,
            cfg,
            scaling,
            stages,
            stage_of,
            missing_inputs: g.op_ids().map(|v| g.preds(v).len()).collect(),
            op_start: vec![f64::NAN; n],
            op_finish: vec![f64::NAN; n],
            link_busy: vec![0.0; m * m],
            transfers: Vec::new(),
            queue: EventQueue::new(),
            stalled: VecDeque::new(),
        }
    }

    fn push(&mut self, at: f64, ev: Event) {
        if at.is_finite() {
            self.queue.push(at, ev);
        } else {
            self.stalled.push_back(ev);
        }
    }

    fn next(&mut self) -> Option<(f64, Event)> {
        self.queue
            .pop()
            .or_else(|| Some((f64::INFINITY, self.stalled.pop_front()?)))
    }

    fn open(&mut self, s: usize, now: f64) {
        self.stages[s].opened = Some(now);
        match self.cfg.semantics {
            Semantics::StageSync => self.try_start_stage(s, now),
            Semantics::Relaxed => {
                for &v in self.stages[s].ops {
                    self.try_start_op(v, now);
                }
            }
        }
    }

    /// StageSync: once the stage is open and every member's inputs
    /// arrived, all members start together and run for `t(S)`.
    fn try_start_stage(&mut self, s: usize, now: f64) {
        let st = &self.stages[s];
        let Some(opened) = st.opened else { return };
        if st.unready > 0 {
            return;
        }
        let (ops, start) = (st.ops, opened.max(st.data_ready).max(now));
        let finish = start + st.duration;
        for &v in ops {
            if self.op_start[v.index()].is_nan() {
                self.start(v, start, finish);
            }
        }
    }

    /// Relaxed: a member starts once its stage is open and its own inputs
    /// arrived, and runs for `t(v)` times the stage's contention factor.
    fn try_start_op(&mut self, v: OpId, now: f64) {
        let st = &self.stages[self.stage_of[v.index()]];
        let Some(opened) = st.opened else { return };
        if !self.op_start[v.index()].is_nan() || self.missing_inputs[v.index()] > 0 {
            return;
        }
        let start = opened.max(now);
        let finish = start + self.cost.exec_on(st.gpu, v) * st.factor;
        self.start(v, start, finish);
    }

    fn start(&mut self, v: OpId, start: f64, finish: f64) {
        self.op_start[v.index()] = start;
        self.op_finish[v.index()] = finish;
        self.push(finish, Event::OpFinished(v));
    }

    /// One input of `w` arrived at `now`.
    fn arrive(&mut self, w: OpId, now: f64) {
        let s = self.stage_of[w.index()];
        self.missing_inputs[w.index()] -= 1;
        let st = &mut self.stages[s];
        st.data_ready = st.data_ready.max(now);
        if self.missing_inputs[w.index()] == 0 {
            st.unready -= 1;
        }
        match self.cfg.semantics {
            Semantics::StageSync => self.try_start_stage(s, now),
            Semantics::Relaxed => self.try_start_op(w, now),
        }
    }

    /// `v` finished at `now`: deliver its output to every consumer and,
    /// when it was its stage's last member, open the next stage.
    fn finish(&mut self, v: OpId, now: f64) {
        let s = self.stage_of[v.index()];
        let gpu = self.stages[s].gpu;
        for &w in self.g.succs(v) {
            let to = self.stages[self.stage_of[w.index()]].gpu;
            if to == gpu {
                self.arrive(w, now);
            } else {
                self.send(v, w, gpu, to, now);
            }
        }
        let st = &mut self.stages[s];
        st.unfinished -= 1;
        if st.unfinished == 0 && st.has_next {
            self.push(now, Event::OpenStage(s + 1));
        }
    }

    /// Sends `v`'s output to `w` over the directed link `from -> to`.
    fn send(&mut self, v: OpId, w: OpId, from: usize, to: usize, now: f64) {
        let link = from * self.scaling.gpu.len() + to;
        let dt = self.cost.transfer(v, from, to) * self.scaling.link[link];
        let start = if self.cfg.link_serialization {
            now.max(self.link_busy[link])
        } else {
            now
        };
        // A 0 × ∞ product (zero-cost transfer over a stalled link) still
        // means "never delivers".
        let finish = start + if dt.is_nan() { f64::INFINITY } else { dt };
        self.link_busy[link] = self.link_busy[link].max(finish);
        self.transfers.push(TransferRecord {
            from: v,
            to: w,
            from_gpu: from,
            to_gpu: to,
            start,
            finish,
        });
        self.push(
            finish + self.cfg.cross_gpu_launch_gap_ms,
            Event::InputDelivered(w),
        );
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
    fn a_stalled_link_is_not_routed_around() {
        // a on GPU 0 feeds b on GPU 2; the direct 0 -> 2 link is stalled.
        // The idle GPU 1 offers a two-hop path, and the engine does not
        // take it: the stall is what fault detection needs to observe.
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
        assert!(stuck.op_finish[1].is_infinite());
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
    fn a_schedule_wider_than_its_platform_is_a_typed_error() {
        // Six GPUs round robin on the four-GPU mixed A40 + V100S box: the
        // schedule is structurally valid, the platform cannot price it.
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 24,
            layers: 4,
            deps: 40,
            seed: 5,
        })
        .unwrap();
        let cost = hios_cost::platform_table(&hios_cost::Platform::mixed_a40_v100s(), &g).unwrap();
        let mut s = Schedule {
            gpus: vec![GpuSchedule { stages: vec![] }; 6],
        };
        for v in g.op_ids() {
            s.gpus[v.index() % 6].stages.push(Stage::solo(v));
        }
        let want = SimError::Structure(hios_core::ScheduleError::PlatformMismatch {
            schedule_gpus: 6,
            platform_gpus: 4,
        });
        let cfg = SimConfig::analytical();
        assert_eq!(simulate(&g, &cost, &s, &cfg).unwrap_err(), want);
        assert_eq!(
            simulate_scaled(&g, &cost, &s, &cfg, &Scaling::identity(6)).unwrap_err(),
            want
        );
        assert_eq!(
            crate::run_with_repair(
                &g,
                &cost,
                &s,
                &crate::FaultPlan::none(),
                &hios_core::repair::RepairConfig::default()
            )
            .unwrap_err(),
            crate::RecoverError::Sim(want)
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
}
