//! The deterministic serving loop.
//!
//! One multi-GPU backend (the `hios-sim` virtual cluster) serves a
//! multi-tenant stream of DAG-inference requests from a bounded FIFO
//! queue, entirely on a virtual clock:
//!
//! * **Admission** — a request whose *provable* lower-bound finish time
//!   ([`hios_core::bounds::combined_bound`] on the full platform)
//!   already misses its deadline is shed at arrival; so is any arrival
//!   that finds the queue at capacity.
//! * **Dispatch** — the anytime ladder ([`AnytimeLadder`]) produces a
//!   schedule for the GPUs the circuit breakers currently admit; its
//!   *modeled* scheduling time is charged to the clock before the
//!   request starts executing.
//! * **Faults** — detection signals from a [`FaultPlan`] trip per-GPU
//!   breakers, scale the platform, and invalidate in-flight work.  An
//!   invalidated request is first **repaired in place**
//!   ([`hios_core::repair`]) — finished operators keep their results,
//!   the remainder is rescheduled onto the survivors — and only falls
//!   back to a full retry (exponential backoff, deterministic jitter)
//!   when no repair path exists.  Hung operators are converted into
//!   typed [`ServeError::WatchdogTimeout`]s by a watchdog instead of
//!   blocking the loop forever.
//! * **Recovery** — opened breakers probe half-open after a reset
//!   timeout (doubling on failed probes) and close once the GPU heals,
//!   restoring capacity mid-run.
//!
//! Every instant in the loop is virtual and every tie deterministic,
//! so a serving run is a pure function of `(models, trace, faults,
//! config)` — bit-identical across machines and thread counts.

use crate::breaker::BreakerBank;
use crate::brownout::{BrownoutController, BrownoutTelemetry, OverloadConfig};
use crate::ladder::{
    AnytimeLadder, LadderConfig, LadderDecision, PlatformState, Policy, RungCap, greedy_cost_ms,
};
use crate::lru::Lru;
use crate::report::{ReportInputs, ServeReport, summarize};
use crate::request::{Disposition, PriorityClass, Request, RequestRecord, ServeError, ShedReason};
use crate::retry::{self, RetryBudget};
use hios_core::repair::{RepairConfig, RepairPolicy, repair_schedule};
use hios_core::{
    Algorithm, EvalWorkspace, Schedule, ScheduleCacheKey, SchedulerError, alive_slots, bounds,
    graph_fingerprint, modeled_sched_cost_ms,
};
use hios_cost::uncertainty::observation_ratio;
use hios_cost::{CalibratedTable, CalibrationConfig, Calibrator, CostTable};
use hios_graph::{Graph, OpId};
use hios_sim::{
    DriftPlan, EventQueue, FaultKind, FaultPlan, FaultSignal, Scaling, SimConfig, VirtualClock,
    simulate_scaled,
};
use hios_store::{PlanStore, StoreOptions};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// One tenant model served by the loop.
#[derive(Debug)]
pub struct ServedModel {
    /// Display name.
    pub name: String,
    /// The inference DAG.
    pub graph: Graph,
    /// Profiled cost snapshot for the DAG.
    pub cost: CostTable,
}

/// Knobs of a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Physical GPUs in the backend.
    pub num_gpus: usize,
    /// Bounded queue capacity (arrivals beyond it are shed).
    pub queue_capacity: usize,
    /// Scheduling policy.
    pub policy: Policy,
    /// Anytime-ladder knobs.
    pub ladder: LadderConfig,
    /// Virtual repair time of a faulted GPU (fail-stop or slowdown), ms.
    pub gpu_repair_ms: f64,
    /// Fault detection latency, ms.
    pub detection_ms: f64,
    /// Online cost calibration: `Some` closes the loop (completions feed
    /// the calibrator, drift alarms re-price planning and invalidate
    /// stale cached schedules), `None` plans on the static profile
    /// forever.  With no drift present, enabling calibration is
    /// bit-identical to leaving it off.  Its settings are the constants
    /// of [`hios_cost::uncertainty`].
    pub calibration: Option<CalibrationConfig>,
    /// Durable plan store: `Some` opens (and crash-recovers) the
    /// append-only plan log at startup and gives the anytime ladder a
    /// warm-start rung below the memory cache; `None` serves from the
    /// memory cache alone.  Store corruption can only cost warm starts,
    /// never serve a wrong plan.
    pub store: Option<StoreConfig>,
    /// Overload hardening: `Some` attaches the hysteresis brownout
    /// controller and the global retry budget;
    /// `None` admits everything until the queue overflows.  A controller
    /// that never leaves Normal level (no overload, no faults) is
    /// bit-identical to `None`.  Its settings are the constants of
    /// the `brownout` and `retry` modules.
    pub overload: Option<OverloadConfig>,
    /// Execution-engine semantics.
    pub sim: SimConfig,
}

/// Delay between a hang being detected and the watchdog converting it
/// into a typed [`ServeError::WatchdogTimeout`], ms.
const WATCHDOG_MS: f64 = 5.0;

/// Initial breaker reset timeout, ms (doubles on each failed probe).
const BREAKER_RESET_MS: f64 = 20.0;

/// Where the durable plan log lives.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Path of the append-only plan log file.
    pub path: PathBuf,
}

impl StoreConfig {
    /// A store at `path`.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        StoreConfig { path: path.into() }
    }
}

impl ServeConfig {
    /// Analytical-engine defaults on `m` GPUs.
    pub fn new(m: usize) -> Self {
        ServeConfig {
            num_gpus: m,
            queue_capacity: 32,
            policy: Policy::Anytime,
            ladder: LadderConfig::default(),
            gpu_repair_ms: 60.0,
            detection_ms: 0.5,
            calibration: None,
            store: None,
            overload: None,
            sim: SimConfig::analytical(),
        }
    }
}

/// Everything a serving run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Terminal record of every request, sorted by request id.
    pub records: Vec<RequestRecord>,
    /// Aggregate statistics.
    pub report: ServeReport,
}

/// What waits on the event queue.  Fault signals do not: they are known
/// at build and merged from a cursor ([`Server::step`]).  `Retry` is the
/// only event that names a request slot, so the slot stays held
/// ([`Hold::Backoff`] / [`Hold::Withdrawn`]) until it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Completion { token: u64 },
    Watchdog { token: u64 },
    BreakerProbe { gpu: usize },
    Retry { req: usize },
}

struct InFlight {
    req: usize,
    token: u64,
    /// The slots this attempt runs on.
    serving: Arc<SlotMap>,
    run: Attempt,
    /// The operator a detected hang blocked, if any.
    hung_op: Option<OpId>,
}

/// When each operator of an in-flight attempt finishes.
enum Attempt {
    /// One clean timeline started at `t0`: operator `v` finishes at
    /// `t0 + actual.op_finish[v]`.  Nothing per-operator is copied for
    /// an attempt that simply runs to completion.
    Clean {
        t0: f64,
        actual: Arc<Timeline>,
        /// With calibration on: the schedule that ran and the timeline
        /// the profile (under the *known* fault scaling) predicted for
        /// it.  Fed to the calibrator on a clean completion; a hang or a
        /// repair muddies the attribution and drops it.
        lesson: Option<(Arc<Schedule>, Arc<Timeline>)>,
    },
    /// Absolute finish instants per operator, materialised once a hang
    /// or an in-place repair has to edit single operators.
    Stitched(Vec<f64>),
}

impl Attempt {
    /// Absolute finish instant of operator `op`, if the graph has one.
    fn op_finish_abs(&self, op: usize) -> Option<f64> {
        match self {
            Attempt::Clean { t0, actual, .. } => actual.op_finish.get(op).map(|&f| t0 + f),
            Attempt::Stitched(abs) => abs.get(op).copied(),
        }
    }

    /// The per-operator absolute finish instants, owned.
    fn into_abs(self) -> Vec<f64> {
        match self {
            Attempt::Clean { t0, actual, .. } => actual.op_finish.iter().map(|&f| t0 + f).collect(),
            Attempt::Stitched(abs) => abs,
        }
    }
}

/// What the serving loop reads of a [`hios_sim::SimResult`], from
/// t = 0.  The transfer log and the per-GPU busy times — most of a
/// result's bytes — are not kept.
struct Timeline {
    makespan: f64,
    op_start: Vec<f64>,
    op_finish: Vec<f64>,
}

impl Timeline {
    /// Whether `self` is `other` bit for bit.
    fn same_bits(&self, other: &Timeline) -> bool {
        self.makespan.to_bits() == other.makespan.to_bits()
            && bits(&self.op_start).eq(bits(&other.op_start))
            && bits(&self.op_finish).eq(bits(&other.op_finish))
    }
}

/// The bits of every float of `xs`.
fn bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

/// A [`Scaling`] as a key: equal when every factor is equal bit for bit
/// (never hashed, never compared with `==`: `-0.0`, NaN payloads and `+∞`
/// stay distinct).
#[derive(Clone)]
struct ScalingBits(Scaling);

impl PartialEq<Scaling> for ScalingBits {
    fn eq(&self, other: &Scaling) -> bool {
        bits(&self.0.gpu).eq(bits(&other.gpu)) && bits(&self.0.link).eq(bits(&other.link))
    }
}

impl PartialEq for ScalingBits {
    fn eq(&self, other: &Self) -> bool {
        *self == other.0
    }
}

/// Timelines kept per model.  Two cover the steady state (the plan in
/// service under the fault-only and under the drifted scaling), a
/// flapping GPU doubles that (two alive sets, two plans), and a platform
/// change leaves the old scaling's entries to age out.
const TIMELINE_MEMO_SLOTS: usize = 8;

/// What names one memoised [`simulate_scaled`] run of a model.  The plan
/// is compared by identity, like [`LessonKey`]'s: holding the `Arc`
/// keeps its address from being reused while it is a key.
struct TimelineKey {
    schedule: Arc<Schedule>,
    alive_mask: u64,
    scale: ScalingBits,
}

/// A lookup compares `(schedule, alive_mask, scaling)` with both
/// borrowed, so that it allocates nothing.
impl PartialEq<(&Arc<Schedule>, u64, &Scaling)> for TimelineKey {
    fn eq(&self, &(schedule, alive_mask, scale): &(&Arc<Schedule>, u64, &Scaling)) -> bool {
        Arc::ptr_eq(&self.schedule, schedule)
            && self.alive_mask == alive_mask
            && self.scale == *scale
    }
}

impl PartialEq for TimelineKey {
    fn eq(&self, other: &Self) -> bool {
        *self == (&other.schedule, other.alive_mask, &other.scale.0)
    }
}

/// Dispatch is a replay: `simulate_scaled(graph, cost, schedule, sim,
/// scaling)` is a pure function from t = 0, and for one server the
/// graph, the execution cost table and the sim config are fixed per
/// model, and the table's slot view is fixed per alive mask — so per
/// model, (which schedule, which mask, which scaling) names its result
/// exactly.  The schedule is named by the `Arc` the ladder shares
/// it through: a cached plan is one `Arc` for as long as it lives — the
/// store hands back the very `Arc` it was given or recovered, and a
/// replayed re-rank re-inserts its own plan — so nothing ever has to be
/// invalidated: a replaced plan simply stops being asked for.  The
/// scaling is held and compared bit for bit.  The alive mask says which
/// cache slot the plan came from: the ladder keeps one plan per (model,
/// alive set), so a new plan under a mask means the mask's older plans
/// are dead, and their timelines are dropped rather than left to age
/// out (a tenant churning through a small cache would otherwise pin
/// [`TIMELINE_MEMO_SLOTS`] dead timelines and their plans).
///
/// Only the two per-request simulations go through here (the dispatch
/// itself and the calibrator's drift-free prediction of it).  Re-pricing,
/// repair resumes and the fixed-policy baselines simulate directly: they
/// run per fault or per scheduling pass, on tables or schedules that are
/// not cached plans.
struct TimelineMemo {
    /// At most [`TIMELINE_MEMO_SLOTS`] per model.
    per_model: Vec<Lru<TimelineKey, Arc<Timeline>>>,
}

impl TimelineMemo {
    fn new(models: usize) -> Self {
        TimelineMemo {
            per_model: (0..models).map(|_| Lru::new(TIMELINE_MEMO_SLOTS)).collect(),
        }
    }

    /// The timeline of `schedule` (a cached plan's when `cached`, else a
    /// one-off schedule) for model `mi` on `slots` under `scale`; `None`
    /// when it cannot run to a finite finish (an operator on a dead GPU,
    /// a transfer over a stalled link).
    #[allow(clippy::too_many_arguments)]
    fn timeline(
        &mut self,
        mi: usize,
        model: &ServedModel,
        sim: &SimConfig,
        schedule: &Arc<Schedule>,
        cached: bool,
        slots: &SlotMap,
        scale: &Scaling,
    ) -> Option<Arc<Timeline>> {
        let alive_mask = slots.mask;
        let simulate = || {
            let cost = model.cost.restrict_gpus(&slots.gpu_map);
            let r = simulate_scaled(&model.graph, &cost, schedule, sim, scale).ok()?;
            r.makespan.is_finite().then_some(Timeline {
                makespan: r.makespan,
                op_start: r.op_start,
                op_finish: r.op_finish,
            })
        };
        if !cached {
            return simulate().map(Arc::new);
        }
        let memo = &mut self.per_model[mi];
        let same = |held: &Arc<Timeline>, fresh: &Option<Timeline>| {
            fresh.as_ref().is_some_and(|fresh| fresh.same_bits(held))
        };
        if let Some(held) = memo.recall(&(schedule, alive_mask, scale), simulate, same) {
            return Some(Arc::clone(held));
        }
        let timeline = Arc::new(simulate()?);
        memo.retain(|k, _| k.alive_mask != alive_mask || Arc::ptr_eq(&k.schedule, schedule));
        let key = TimelineKey {
            schedule: Arc::clone(schedule),
            alive_mask,
            scale: ScalingBits(scale.clone()),
        };
        memo.insert(key, Arc::clone(&timeline));
        Some(timeline)
    }
}

/// Physical platform states kept by name.  A flapping GPU with a
/// degraded link alternates between a handful; compounding slowdowns
/// mint new ones and the stalest falls out.
const PLATFORM_STATE_SLOTS: usize = 16;

/// The known-fault [`Scaling`] of the physical platform, with a name for
/// the ladder's verdict memo: every re-price of one server simulates on
/// the model's planning table (named by the cache key) under this
/// scaling projected onto the key's alive mask, so per key the scaling
/// names what `eval` returns.  States are interned bit for bit; a name
/// is never issued twice, so a state that fell out of the table and
/// comes back is a new one and the verdicts reached on its old name age
/// out of the ladder unasked.
struct PlatformModel {
    scaling: ScalingBits,
    /// Name of the state `scaling` is.
    state: PlatformState,
    /// Names of the states seen, at most [`PLATFORM_STATE_SLOTS`].
    seen: Lru<ScalingBits, PlatformState>,
    issued: u64,
}

impl PlatformModel {
    fn healthy(m: usize) -> Self {
        let scaling = ScalingBits(Scaling::identity(m));
        let mut seen = Lru::new(PLATFORM_STATE_SLOTS);
        seen.insert(scaling.clone(), PlatformState(0));
        PlatformModel {
            scaling,
            state: PlatformState(0),
            seen,
            issued: 0,
        }
    }

    /// Folds the lasting effect of a detected fault (or a heal) into the
    /// platform and names the state it leaves.
    fn apply_fault(&mut self, kind: &FaultKind) {
        self.scaling.0.apply_fault(kind);
        self.state = match self.seen.get(&self.scaling) {
            Some(&mut state) => state,
            None => {
                self.issued += 1;
                let state = PlatformState(self.issued);
                self.seen.insert(self.scaling.clone(), state);
                state
            }
        };
    }
}

/// Cache-key parts of one model that cost O(model size) to derive and
/// change rarely: taken once, not once per dispatch.
struct ModelKeys {
    /// [`graph_fingerprint`] of the model, taken in [`Server::build`].
    graph_fp: u64,
    /// Alive mask → platform fingerprint of the planning table priced on
    /// those slots, under the model's current calibration epoch; emptied
    /// when the epoch is bumped.  At most [`PLATFORM_FP_SLOTS`].
    platform_fps: Lru<u64, u64>,
}

/// Alive masks whose platform fingerprint is kept per model and epoch
/// (breakers move between a handful of masks; a miss only recomputes).
const PLATFORM_FP_SLOTS: usize = 8;

/// The slots attempts run on while the admitted set and the known
/// faults stay as they are.  Built through [`alive_slots`] in
/// [`Server::build`] and [`Server::platform_fault`], the only places
/// either changes, and shared by every attempt dispatched on it.
struct SlotMap {
    /// Per-GPU admission mask (breaker closed or half-open).
    alive: Vec<bool>,
    /// `alive` as bits.
    mask: u64,
    /// Slot → physical GPU of `alive`.
    gpu_map: Vec<usize>,
    /// The known-fault scaling projected onto the slots.
    fault_scale: Scaling,
}

impl SlotMap {
    fn new(breakers: &BreakerBank, platform: &Scaling) -> Arc<Self> {
        let alive = breakers.admitted();
        let gpu_map = alive_slots(&alive);
        Arc::new(SlotMap {
            mask: gpu_map.iter().fold(0, |mask, &g| mask | 1 << g),
            fault_scale: platform.project(&gpu_map),
            alive,
            gpu_map,
        })
    }

    /// Prices a run over these slots from instant `t_ms` on the platform
    /// as it is: `fault_scale` with the drift factors of `t_ms`
    /// multiplied in, written into `out`.  With no drift every factor is
    /// exactly `1.0` and `x * 1.0` is a bitwise identity, so drift-free
    /// runs keep their bits.
    fn scale(&self, drift: &DriftPlan, t_ms: f64, out: &mut Scaling) {
        out.gpu.clone_from(&self.fault_scale.gpu);
        out.link.clone_from(&self.fault_scale.link);
        for (factor, &phys) in out.gpu.iter_mut().zip(&self.gpu_map) {
            *factor *= drift.factor_at(phys, t_ms);
        }
    }
}

/// Per-model calibration state: the learning calibrator, the lessons it
/// is taught, and the materialized planning overlay the ladder uses.
struct CalibState {
    cal: Calibrator,
    table: CalibratedTable,
    /// At most [`LESSON_MEMO_SLOTS`].
    lessons: Lru<LessonKey, Lesson>,
    /// The buffers of the lesson evicted last, for the next one compiled.
    spare: Observations,
}

/// Lessons kept per model, like [`TIMELINE_MEMO_SLOTS`].
const LESSON_MEMO_SLOTS: usize = 8;

/// What a clean completion's lesson is compiled from (DESIGN §9.9),
/// compared by identity.  Holding the `Arc`s keeps their addresses from
/// being reused while they are a key.
struct LessonKey {
    schedule: Arc<Schedule>,
    actual: Arc<Timeline>,
    predicted: Arc<Timeline>,
    /// The slots the attempt ran on.
    serving: Arc<SlotMap>,
}

impl PartialEq for LessonKey {
    fn eq(&self, other: &Self) -> bool {
        self.serving.mask == other.serving.mask
            && Arc::ptr_eq(&self.schedule, &other.schedule)
            && Arc::ptr_eq(&self.actual, &other.actual)
            && Arc::ptr_eq(&self.predicted, &other.predicted)
    }
}

/// What a clean completion teaches the calibrator.
struct Lesson {
    observations: Observations,
    /// Completions whose nominal observations are not yet folded in.
    pending: u64,
}

/// The observations of one completion, compiled once per lesson.
#[derive(Default, PartialEq)]
struct Observations {
    /// `(gpu, op)` of every observation at a ratio of exactly 1.
    nominal: Vec<(usize, OpId)>,
    /// `(gpu, op, observed_ms, predicted_ms)` of every other usable one.
    drifted: Vec<(usize, OpId, f64, f64)>,
}

impl Observations {
    /// Per operator of the lesson's plan (slot by slot, stage by stage),
    /// the duration `actual` took next to the one `predicted` gave, on
    /// the physical GPU the attempt's slot map names.  Unusable durations
    /// (a zero-cost stub, a saturated float) are dropped, as the
    /// calibrator would reject them.
    fn compile(&mut self, lesson: &LessonKey) {
        self.nominal.clear();
        self.drifted.clear();
        let (actual, predicted) = (&lesson.actual, &lesson.predicted);
        for (gq, &gpu) in lesson.schedule.gpus.iter().zip(&lesson.serving.gpu_map) {
            for &op in gq.stages.iter().flat_map(|stage| &stage.ops) {
                let v = op.index();
                let observed_ms = actual.op_finish[v] - actual.op_start[v];
                let predicted_ms = predicted.op_finish[v] - predicted.op_start[v];
                match observation_ratio(observed_ms, predicted_ms) {
                    Ok(1.0) => self.nominal.push((gpu, op)),
                    Ok(_) => self.drifted.push((gpu, op, observed_ms, predicted_ms)),
                    Err(_) => {}
                }
            }
        }
    }
}

impl CalibState {
    /// Teaches the calibrator one clean completion of `lesson`; returns
    /// the drift alarms it raised.  Nominal observations never alarm, so
    /// they only add to the lesson's pending count, folded in before
    /// another lesson's drifted observations, on eviction and in
    /// [`CalibState::refresh`] (DESIGN §9.5: a completion observes each
    /// cell once, and nominal folds of one cell commute).
    fn learn(&mut self, lesson: LessonKey) -> u64 {
        let compile = || {
            let mut fresh = Observations::default();
            fresh.compile(&lesson);
            fresh
        };
        let same = |held: &Lesson, fresh: &Observations| held.observations == *fresh;
        if self.lessons.recall(&lesson, compile, same).is_none() {
            let mut observations = std::mem::take(&mut self.spare);
            observations.compile(&lesson);
            let taught = Lesson {
                observations,
                pending: 0,
            };
            if let Some((_, mut evicted)) = self.lessons.insert(lesson, taught) {
                evicted.fold(&mut self.cal);
                self.spare = evicted.observations;
            }
        }
        let mut lessons = self.lessons.iter_mut().map(|(_, lesson)| lesson);
        let taught = lessons
            .next()
            .expect("the lesson just recalled or inserted is the most recent");
        let mut alarms = 0;
        if !taught.observations.drifted.is_empty() {
            for lesson in lessons {
                lesson.fold(&mut self.cal);
            }
            for &(gpu, op, observed_ms, predicted_ms) in &taught.observations.drifted {
                if let Ok(Some(_alarm)) = self.cal.observe(gpu, op, observed_ms, predicted_ms) {
                    alarms += 1;
                }
            }
        }
        taught.pending += 1;
        alarms
    }

    /// Folds every pending nominal observation in, then rebuilds the
    /// planning overlay; `true` when planning prices changed.
    fn refresh(&mut self) -> bool {
        for (_, lesson) in self.lessons.iter_mut() {
            lesson.fold(&mut self.cal);
        }
        self.table.refresh(&self.cal)
    }
}

impl Lesson {
    /// Folds the pending nominal observations into `cal`: one batch per
    /// cell.
    fn fold(&mut self, cal: &mut Calibrator) {
        if self.pending == 0 {
            return;
        }
        for &(gpu, op) in &self.observations.nominal {
            // A cell outside the grid is rejected untouched, as by `observe`.
            let _ = cal.observe_nominal(gpu, op, self.pending);
        }
        self.pending = 0;
    }
}

/// One request slot of [`Server::states`].
struct ReqState {
    request: Request,
    /// The caller's name for this copy, handed back with its record
    /// ([`Sink`]): its trace position under `serve_drift`, the fleet's
    /// copy reference in a cluster.
    tag: usize,
    /// Injection sequence number: a drain returns retry-pending copies
    /// in this order, whichever slots they hold.
    seq: u64,
    attempts: u32,
    repairs: u32,
    hold: Hold,
}

/// Who holds a request slot (DESIGN §9.1, *Slot lifetime*).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Hold {
    /// Nobody: the slot is on the free list.
    Free,
    /// The loop: the request is queued or in flight.
    Live,
    /// A backoff timer: the request sits in the event queue, not the
    /// FIFO, and a fleet drain must collect it from here.
    Backoff,
    /// A backoff timer, for a copy the fleet layer withdrew while it
    /// backed off: its `Retry` frees the slot and does nothing else.
    Withdrawn,
}

/// Where a server's terminal records go (DESIGN §9.1, *The terminal
/// sink*): each is written once, to where its caller keeps it.
enum Sink {
    /// `serve_drift`'s: every record straight to its place in the
    /// id-sorted outcome, found from the trace position it was injected
    /// under.
    Placed {
        records: Vec<RequestRecord>,
        placement: Placement,
        /// Records written so far: every position, by the end.
        written: usize,
    },
    /// A fleet cluster's: `(tag, record)` in push order, until the fleet
    /// moves them out ([`Server::take_record`]).
    HandOff(VecDeque<(usize, RequestRecord)>),
}

/// Live overload-hardening state: the brownout state machine plus the
/// server-global retry budget.  Present iff [`ServeConfig::overload`].
struct OverloadState {
    ctl: BrownoutController,
    budget: RetryBudget,
}

pub(crate) struct Server<'a> {
    models: &'a [ServedModel],
    cfg: &'a ServeConfig,
    /// Time-varying drift of the "hardware" (the simulator) away from
    /// the profile — invisible to the schedulers except through the
    /// calibration loop.
    drift: &'a DriftPlan,
    /// One entry per model when calibration is on, empty when off.
    calib: Vec<CalibState>,
    clock: VirtualClock,
    events: EventQueue<Event>,
    queue: VecDeque<usize>,
    /// Request slots, recycled through `free_slots`: one per request the
    /// loop still holds, so the table grows with the requests live at
    /// once, not with the trace.
    states: Vec<ReqState>,
    free_slots: Vec<usize>,
    /// Requests injected so far: the next [`ReqState::seq`].
    injected: u64,
    /// Sorted by both `at_ms` and `detected_ms`, so the ones a
    /// completion must inspect are one contiguous run, and detection
    /// order is index order.
    signals: Vec<FaultSignal>,
    /// First signal not yet detected strictly before now.
    first_live_signal: usize,
    /// First signal whose detection is not yet processed: the cursor
    /// [`Server::step`] merges with the event queue.
    next_signal: usize,
    next_token: u64,
    in_flight: Option<InFlight>,
    breakers: BreakerBank,
    /// Checked against the breakers by [`Server::slots`].
    slots: Arc<SlotMap>,
    /// The slots' scaling with a run's drift multiplied in, refilled per
    /// run ([`SlotMap::scale`]).
    slot_scale: Scaling,
    keys: Vec<ModelKeys>,
    memo: TimelineMemo,
    overload: Option<OverloadState>,
    platform: PlatformModel,
    healthy_at: Vec<f64>,
    ladder: AnytimeLadder,
    /// Per-model calibration epoch: bumped every time a drift alarm
    /// re-materializes the model's planning overlay.  Part of the
    /// durable plan key, so a restarted server (epoch 0 again) warm
    /// starts from base-profile plans, never stale-price ones.
    epochs: Vec<u64>,
    repair_ws: EvalWorkspace,
    /// Provable full-platform lower bound per model, ms.  Deliberately
    /// priced on the *base* profile even when calibration is on:
    /// slowdown drift only raises true costs, so the bound stays a
    /// valid reason to shed, and admission decisions never churn with
    /// the calibration state.
    bound_full: Vec<f64>,
    /// Instant of the most recent arrival (NaN before the first), ms.
    last_arrival_ms: f64,
    /// EWMA of inter-arrival gaps (infinite until two arrivals), ms.
    ewma_gap_ms: f64,
    sink: Sink,
    /// Model of the most recent terminal record: the one whose plan
    /// idle time upgrades.
    last_model: Option<usize>,
    attempts_total: u64,
    repairs_total: u64,
    alarms_total: u64,
    recalibrations_total: u64,
    cache_drops_total: u64,
}

/// Runs the serving loop to completion.
///
/// Pure in its inputs: the same `(models, trace, faults, cfg)` produce
/// the same [`ServeOutcome`] — including bit-identical latencies and
/// history digest — on every run.
pub fn serve(
    models: &[ServedModel],
    trace: &[Request],
    faults: &FaultPlan,
    cfg: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    serve_drift(models, trace, faults, &DriftPlan::none(), cfg)
}

/// [`serve`] under time-varying cost drift.
///
/// `drift` silently bends the backend's execution speeds away from the
/// profiled cost tables at dispatch time; the schedulers never see it
/// directly.  With [`ServeConfig::calibration`] enabled, completed
/// requests feed observed/predicted duration ratios back into a
/// per-model [`Calibrator`]; a sustained deviation raises a CUSUM drift
/// alarm, quarantines the cell, re-materializes the planning overlay,
/// purges the now-stale schedule-cache entries, and re-ranks the cached
/// plans — a budget-bounded re-schedule on the anytime ladder.  An
/// empty drift plan reproduces [`serve`] bit-for-bit, with or without
/// calibration.
pub fn serve_drift(
    models: &[ServedModel],
    trace: &[Request],
    faults: &FaultPlan,
    drift: &DriftPlan,
    cfg: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    validate(models, trace, cfg)?;
    let mut srv = Server::build(models, faults, drift, cfg)?;
    srv.run_trace(trace);
    Ok(srv.into_outcome())
}

pub(crate) fn bad_options(msg: String) -> ServeError {
    ServeError::Scheduler(SchedulerError::BadOptions(msg))
}

/// [`validate_config`] then [`validate_trace`]: everything one cluster
/// needs checked before it serves `trace`.
pub(crate) fn validate(
    models: &[ServedModel],
    trace: &[Request],
    cfg: &ServeConfig,
) -> Result<(), ServeError> {
    validate_config(models, cfg)?;
    validate_trace(models, trace)
}

/// Checks `cfg` and that every model is servable under it.
pub(crate) fn validate_config(models: &[ServedModel], cfg: &ServeConfig) -> Result<(), ServeError> {
    let bad = |msg: String| Err(bad_options(msg));
    if cfg.num_gpus == 0 || cfg.num_gpus > 64 {
        return bad(format!("num_gpus must be in 1..=64, got {}", cfg.num_gpus));
    }
    if cfg.queue_capacity == 0 {
        return bad("queue_capacity must be >= 1".into());
    }
    // A capacity-0 cache would re-schedule every dispatch, so a serving
    // run rejects it.  (`ladder.window` 0 needs no check: the intra-GPU
    // pass returns its input below 2.)
    if cfg.ladder.cache_capacity == 0 {
        return bad("ladder.cache_capacity must be >= 1".into());
    }
    if models.is_empty() {
        return bad("at least one served model required".into());
    }
    for (i, model) in models.iter().enumerate() {
        if model.cost.num_ops() != model.graph.num_ops() {
            return Err(ServeError::Scheduler(SchedulerError::CostMismatch {
                table_ops: model.cost.num_ops(),
                graph_ops: model.graph.num_ops(),
            }));
        }
        if model.graph.num_ops() == 0 {
            return bad(format!("model {i} has no operators"));
        }
        if !model.cost.topology.covers(cfg.num_gpus) {
            return bad(format!(
                "model {i} cost table prices {} GPUs, backend has {}",
                model.cost.topology.num_gpus(),
                cfg.num_gpus
            ));
        }
    }
    if !(cfg.gpu_repair_ms.is_finite() && cfg.gpu_repair_ms > 0.0) {
        return bad(format!(
            "gpu_repair_ms must be positive and finite, got {}",
            cfg.gpu_repair_ms
        ));
    }
    if !(cfg.detection_ms.is_finite() && cfg.detection_ms >= 0.0) {
        return bad(format!(
            "detection_ms must be non-negative, got {}",
            cfg.detection_ms
        ));
    }
    Ok(())
}

/// Checks that every request names a served model and finite instants
/// (they land on event queues, which accept nothing else).
pub(crate) fn validate_trace(models: &[ServedModel], trace: &[Request]) -> Result<(), ServeError> {
    if let Some(r) = trace.iter().find(|r| r.model >= models.len()) {
        return Err(bad_options(format!(
            "request {} targets model {} of {}",
            r.id,
            r.model,
            models.len()
        )));
    }
    if let Some(r) = trace
        .iter()
        .find(|r| !(r.arrival_ms.is_finite() && r.deadline_ms.is_finite()))
    {
        return Err(bad_options(format!(
            "request {} has non-finite instants",
            r.id
        )));
    }
    Ok(())
}

/// A trace's arrival order: by instant (`total_cmp`), trace position
/// among equal instants, so an unsorted trace serves like its sorted
/// self.  A trace already in that order — every generated one — is read
/// in place; any other is stable-sorted into a permutation once.
pub(crate) struct Arrivals {
    len: usize,
    /// `None` when the trace is its own arrival order.
    order: Option<Vec<usize>>,
}

impl Arrivals {
    pub(crate) fn of(trace: &[Request]) -> Self {
        let by_instant = |a: &Request, b: &Request| a.arrival_ms.total_cmp(&b.arrival_ms);
        let order = (!trace.is_sorted_by(|a, b| by_instant(a, b).is_le())).then(|| {
            let mut order: Vec<usize> = (0..trace.len()).collect();
            order.sort_by(|&a, &b| by_instant(&trace[a], &trace[b]));
            order
        });
        Arrivals {
            len: trace.len(),
            order,
        }
    }

    /// Trace position of the `k`-th arrival, if there is one.
    pub(crate) fn get(&self, k: usize) -> Option<usize> {
        match &self.order {
            Some(order) => order.get(k).copied(),
            None => (k < self.len).then_some(k),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// What a placed record holds until its own is written.
pub(crate) const UNWRITTEN: Request = Request {
    id: 0,
    model: 0,
    arrival_ms: f64::NAN,
    deadline_ms: f64::NAN,
    class: PriorityClass::Gold,
};

/// How trace entries that share an id order among themselves in an
/// id-sorted outcome.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Ties {
    /// In the order their records are written: `serve` once pushed its
    /// records as they came, then stable-sorted them by id.
    Terminal,
    /// In trace order: the fleet once collected its fates in trace
    /// order, then stable-sorted them by id.
    Trace,
}

/// Where each trace entry's record lands in an outcome sorted by request
/// id, so that a record is written once, in its final place, and never
/// sorted.  A trace whose ids strictly increase in trace order — every
/// generated one — places entry `i` at `i`; any other is stable-sorted
/// by id into a table once.
pub(crate) struct Placement {
    /// Trace position → its position, or the first of its id's positions
    /// under [`Ties::Terminal`]; `None` when that is the trace position.
    at: Option<Vec<usize>>,
    /// `(first position, records placed)` of every id that more than one
    /// entry shares, by position (under [`Ties::Terminal`] only).
    shared: Vec<(usize, usize)>,
}

impl Placement {
    pub(crate) fn of(trace: &[Request], ties: Ties) -> Self {
        let mut placement = Placement {
            at: None,
            shared: Vec::new(),
        };
        if trace.is_sorted_by(|a, b| a.id < b.id) {
            return placement;
        }
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by_key(|&i| trace[i].id);
        let mut at = vec![0; trace.len()];
        let mut first = 0;
        for (k, &i) in order.iter().enumerate() {
            if k > 0 && trace[order[k - 1]].id != trace[i].id {
                first = k;
            }
            at[i] = match ties {
                Ties::Trace => k,
                Ties::Terminal => first,
            };
            if ties == Ties::Terminal && k == first + 1 {
                placement.shared.push((first, 0));
            }
        }
        placement.at = Some(at);
        placement
    }

    /// Position of trace entry `i` when ties keep trace order.
    pub(crate) fn at(&self, i: usize) -> usize {
        self.at.as_ref().map_or(i, |at| at[i])
    }

    /// Position of trace entry `i`'s record, written now.
    fn place(&mut self, i: usize) -> usize {
        let first = self.at(i);
        match self.shared.binary_search_by_key(&first, |&(p, _)| p) {
            Ok(g) => {
                let placed = &mut self.shared[g].1;
                *placed += 1;
                first + *placed - 1
            }
            Err(_) => first,
        }
    }
}

impl<'a> Server<'a> {
    /// Constructs an empty serving loop: platform, breakers, ladder,
    /// store, overload controller, and the fault plan's detection
    /// events — but no requests.  Requests enter one at a time through
    /// [`Server::inject`], interleaved with [`Server::step`]: by
    /// `serve_drift` in trace order, by the fleet layer as its router
    /// places them.
    ///
    /// Assumes `validate(models, trace, cfg)` already passed for every
    /// request this server will ever see.
    pub(crate) fn build(
        models: &'a [ServedModel],
        faults: &FaultPlan,
        drift: &'a DriftPlan,
        cfg: &'a ServeConfig,
    ) -> Result<Self, ServeError> {
        let m = cfg.num_gpus;
        if let Err(e) = drift.validate(m) {
            return Err(bad_options(format!("drift plan: {e}")));
        }
        // Signals index the platform model and land on the event queue:
        // out-of-range targets and non-finite instants stop here.
        if let Err(e) = faults.validate_platform(m) {
            return Err(bad_options(format!("fault plan: {e}")));
        }
        let calib: Vec<CalibState> = match cfg.calibration {
            Some(_) => models
                .iter()
                .map(|model| CalibState {
                    cal: Calibrator::new(m, model.graph.num_ops()),
                    table: CalibratedTable::new(model.cost.clone(), m),
                    lessons: Lru::new(LESSON_MEMO_SLOTS),
                    spare: Observations::default(),
                })
                .collect(),
            None => Vec::new(),
        };
        let mut ladder = AnytimeLadder::new(cfg.ladder);
        if let Some(sc) = &cfg.store {
            // Open is the only store call that can fail a run: a log in any
            // state of corruption still opens (recovery quarantines what it
            // must), so `Err` here means the file itself is unusable
            // (permissions, unsupported newer format) — a deployment error
            // worth surfacing, not absorbing.
            let store = PlanStore::open(&sc.path, StoreOptions).map_err(ServeError::Store)?;
            ladder.attach_store(store);
        }
        let signals = faults.signals(cfg.detection_ms);
        // The clock advances to every detection instant: a finite firing
        // instant plus the detection latency must not overflow.
        if let Some(sig) = signals.iter().find(|sig| !sig.detected_ms.is_finite()) {
            return Err(bad_options(format!(
                "fault plan: the fault at {} ms is detected at {}",
                sig.at_ms, sig.detected_ms
            )));
        }
        let breakers = BreakerBank::new(m, BREAKER_RESET_MS);
        let platform = PlatformModel::healthy(m);
        Ok(Server {
            slots: SlotMap::new(&breakers, &platform.scaling.0),
            slot_scale: Scaling::identity(0),
            breakers,
            platform,
            models,
            cfg,
            drift,
            calib,
            clock: VirtualClock::new(),
            events: EventQueue::new(),
            queue: VecDeque::new(),
            states: Vec::new(),
            free_slots: Vec::new(),
            injected: 0,
            signals,
            first_live_signal: 0,
            next_signal: 0,
            next_token: 0,
            in_flight: None,
            keys: models
                .iter()
                .map(|model| ModelKeys {
                    graph_fp: graph_fingerprint(&model.graph),
                    platform_fps: Lru::new(PLATFORM_FP_SLOTS),
                })
                .collect(),
            memo: TimelineMemo::new(models.len()),
            overload: cfg.overload.map(|_| OverloadState {
                ctl: BrownoutController::default(),
                budget: RetryBudget::default(),
            }),
            healthy_at: vec![0.0; m],
            ladder,
            epochs: vec![0; models.len()],
            repair_ws: EvalWorkspace::new(),
            bound_full: models
                .iter()
                .map(|model| bounds::combined_bound(&model.graph, &model.cost, m))
                .collect(),
            last_arrival_ms: f64::NAN,
            ewma_gap_ms: f64::INFINITY,
            sink: Sink::HandOff(VecDeque::new()),
            last_model: None,
            attempts_total: 0,
            repairs_total: 0,
            alarms_total: 0,
            recalibrations_total: 0,
            cache_drops_total: 0,
        })
    }

    /// Serves `trace` to the end: every request injected at its arrival
    /// instant, every event stepped, every record placed.
    fn run_trace(&mut self, trace: &[Request]) {
        let unwritten = RequestRecord {
            request: UNWRITTEN,
            disposition: Disposition::Shed {
                at_ms: f64::NAN,
                reason: ShedReason::QueueFull { capacity: 0 },
            },
        };
        self.sink = Sink::Placed {
            records: vec![unwritten; trace.len()],
            placement: Placement::of(trace, Ties::Terminal),
            written: 0,
        };
        let arrivals = Arrivals::of(trace);
        let mut arrived = 0;
        loop {
            // An arrival due no later than the next scheduled event is
            // admitted before it.
            let next_event = self.next_event_ms();
            let due = arrivals.get(arrived).filter(|&ti| {
                next_event.is_none_or(|t| trace[ti].arrival_ms.total_cmp(&t).is_le())
            });
            if let Some(ti) = due {
                arrived += 1;
                self.inject(trace[ti], ti, trace[ti].arrival_ms);
            } else if !self.step() {
                break;
            }
        }
    }

    /// Processes the next scheduled event — the next fault signal or
    /// the head of the event queue, whichever is due first; `false` when
    /// none remain.
    pub(crate) fn step(&mut self) -> bool {
        if let Some(sig) = self.signal_due() {
            self.next_signal += 1;
            self.clock.advance_to(sig.detected_ms);
            self.on_fault(sig);
            return true;
        }
        match self.events.pop() {
            Some((t, ev)) => {
                self.clock.advance_to(t);
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// The next fault signal, if it is due no later than the head of the
    /// event queue.  A tie goes to the signal, as it did when every
    /// signal was pushed onto the queue at build and so held its lowest
    /// sequence numbers.
    fn signal_due(&self) -> Option<FaultSignal> {
        let sig = *self.signals.get(self.next_signal)?;
        let head = self.events.peek_time();
        head.is_none_or(|t| sig.detected_ms.total_cmp(&t).is_le())
            .then_some(sig)
    }

    /// Instant of the next scheduled event, if any.
    pub(crate) fn next_event_ms(&self) -> Option<f64> {
        let signal = self
            .signals
            .get(self.next_signal)
            .map(|sig| sig.detected_ms);
        signal
            .into_iter()
            .chain(self.events.peek_time())
            .min_by(f64::total_cmp)
    }

    /// Tears `serve_drift`'s drained loop down into its outcome: the
    /// placed records are already in id order.
    fn into_outcome(mut self) -> ServeOutcome {
        let records = match std::mem::replace(&mut self.sink, Sink::HandOff(VecDeque::new())) {
            Sink::Placed {
                records, written, ..
            } => {
                debug_assert_eq!(written, records.len(), "positions left unwritten");
                records
            }
            // Handed off as they came: the caller holds them.
            Sink::HandOff(_) => Vec::new(),
        };
        self.outcome(records)
    }

    /// Tears the drained loop down into its outcome over `records`, its
    /// terminal records sorted by request id.
    pub(crate) fn outcome(mut self, records: Vec<RequestRecord>) -> ServeOutcome {
        debug_assert!(self.queue.is_empty(), "drained loop left queued requests");
        debug_assert!(self.in_flight.is_none(), "drained loop left in-flight work");
        debug_assert!(records.is_sorted_by_key(|r| r.request.id));
        // What only the loop read goes before the report is built.
        drop(self.states);
        drop(self.free_slots);
        let horizon_ms = self.clock.now_ms();
        let retry_budget_denied = self.overload.as_ref().map_or(0, |ov| ov.budget.denied());
        let brownout = match self.overload.take() {
            Some(ov) => ov.ctl.finish(horizon_ms),
            None => BrownoutTelemetry::default(),
        };
        let report = summarize(
            &records,
            &ReportInputs {
                horizon_ms,
                attempts: self.attempts_total,
                repairs: self.repairs_total,
                breaker_opens: self.breakers.total_opens(),
                cache: self.ladder.cache_stats(),
                rungs: self.ladder.rung_counts(),
                upgrades: self.ladder.upgrades(),
                drift_alarms: self.alarms_total,
                recalibrations: self.recalibrations_total,
                cache_invalidations: self.cache_drops_total,
                cache_evictions: self.ladder.cache_evictions(),
                store: self.ladder.store_stats().unwrap_or_default(),
                store_recovery: self.ladder.store_recovery().copied().unwrap_or_default(),
                store_io_errors: self.ladder.store_io_errors(),
                retry_budget_denied,
                flap_escalations: self.breakers.total_flap_escalations(),
                brownout,
            },
        );
        ServeOutcome { records, report }
    }

    // ---- driver interface ----------------------------------------------
    //
    // `serve_drift` drives one loop from a trace; the fleet layer
    // (`crate::fleet`) drives N of them under one router.  Both admit
    // requests through `inject` and advance the loop through `step`;
    // the fleet additionally withdraws work (`cancel`, `drain`) and
    // takes the terminal records handed off to it (`take_record`).

    /// Admits `request` as if it arrived at `now_ms` (the cluster clock
    /// advances there first) under the caller's `tag`, and returns its
    /// slot.  The tag — not the request id — names this copy in its
    /// record: a hedged twin shares the id but never a tag with its
    /// sibling.  The slot is what `cancel` takes; it is reused once its
    /// request is terminal or withdrawn, so a caller cancelling by slot
    /// takes every record handed off before its next `inject`.
    pub(crate) fn inject(&mut self, request: Request, tag: usize, now_ms: f64) -> usize {
        self.clock.advance_to(now_ms);
        let state = ReqState {
            request,
            tag,
            seq: self.injected,
            attempts: 0,
            repairs: 0,
            hold: Hold::Live,
        };
        self.injected += 1;
        let i = match self.free_slots.pop() {
            Some(i) => {
                self.states[i] = state;
                i
            }
            None => {
                self.states.push(state);
                self.states.len() - 1
            }
        };
        self.on_arrival(i);
        i
    }

    /// Returns slot `i` to the free list: its request was recorded
    /// terminal, withdrawn from the queue or flight, or withdrawn while
    /// backing off and its `Retry` has fired.
    fn release(&mut self, i: usize) {
        debug_assert!(matches!(self.states[i].hold, Hold::Live | Hold::Withdrawn));
        self.states[i].hold = Hold::Free;
        self.free_slots.push(i);
    }

    /// Slots the table has ever needed at once: the most requests the
    /// loop held together.
    #[cfg(test)]
    fn slots_allocated(&self) -> usize {
        self.states.len()
    }

    /// Advances the cluster clock without processing anything — so a
    /// fleet-level action (a drain at a kill instant, a hedge-twin
    /// cancel) is charged to the instant it logically happens at.
    pub(crate) fn touch(&mut self, now_ms: f64) {
        self.clock.advance_to(now_ms);
    }

    /// Withdraws the request in slot `i` without a terminal record (its
    /// fate is owned elsewhere — a hedged twin completed, or a failover
    /// already re-routed it).  Pending events for it become no-ops; freed
    /// backend capacity is re-dispatched immediately.  Returns whether a
    /// record of it is still to be taken: a slot already free had its
    /// record pushed before the caller took it.  A slot already
    /// withdrawn is left alone.
    pub(crate) fn cancel(&mut self, i: usize) -> bool {
        match self.states[i].hold {
            Hold::Free => return true,
            Hold::Withdrawn => {}
            // `on_retry` frees the slot when the backoff timer fires.
            Hold::Backoff => self.states[i].hold = Hold::Withdrawn,
            Hold::Live => {
                if let Some(pos) = self.queue.iter().position(|&q| q == i) {
                    self.queue.remove(pos);
                    self.release(i);
                } else if self.in_flight.as_ref().is_some_and(|fl| fl.req == i) {
                    // The scheduled Completion/Watchdog event goes stale
                    // with the in-flight attempt cleared.
                    self.in_flight = None;
                    self.release(i);
                    self.try_dispatch();
                }
            }
        }
        false
    }

    /// Withdraws every live request — queued (FIFO order), in-flight,
    /// then retry-pending (injection order) — and returns their tags for
    /// re-routing.  Used when the cluster dies; the loop's remaining
    /// events are then abandoned unstepped.
    pub(crate) fn drain(&mut self) -> Vec<usize> {
        let mut out: Vec<usize> = self.queue.drain(..).collect();
        out.extend(self.in_flight.take().map(|fl| fl.req));
        for &i in &out {
            self.release(i);
        }
        let mut backoff: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.states[i].hold == Hold::Backoff)
            .collect();
        backoff.sort_unstable_by_key(|&i| self.states[i].seq);
        for &i in &backoff {
            self.states[i].hold = Hold::Withdrawn;
        }
        out.extend(backoff);
        out.iter().map(|&i| self.states[i].tag).collect()
    }

    /// Requests currently holding FIFO slots.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Queue occupancy in `[0, 1]`, for health heartbeats.
    pub(crate) fn queue_fill_now(&self) -> f64 {
        self.queue_fill()
    }

    /// Fraction of GPUs whose breakers currently admit work.
    pub(crate) fn alive_fraction(&self) -> f64 {
        self.breakers.num_admitted() as f64 / self.breakers.len().max(1) as f64
    }

    /// Provable full-platform lower bound of model `mi` on this
    /// cluster, ms — the feasibility floor for failover re-routing.
    pub(crate) fn bound_ms(&self, mi: usize) -> f64 {
        self.bound_full[mi]
    }

    /// The oldest terminal record not yet taken, with its copy's tag
    /// (`None` under `serve_drift`, whose records are placed).
    pub(crate) fn take_record(&mut self) -> Option<(usize, RequestRecord)> {
        match &mut self.sink {
            Sink::HandOff(waiting) => waiting.pop_front(),
            Sink::Placed { .. } => None,
        }
    }

    /// Whether handed-off records wait to be taken.
    pub(crate) fn records_waiting(&self) -> bool {
        matches!(&self.sink, Sink::HandOff(waiting) if !waiting.is_empty())
    }

    fn now(&self) -> f64 {
        self.clock.now_ms()
    }

    /// The slot map attempts run on now: rebuilt wherever the admitted
    /// set changes ([`Server::platform_fault`]), so it always agrees with
    /// the breakers.
    fn slots(&self) -> &SlotMap {
        debug_assert_eq!(self.slots.alive, self.breakers.admitted());
        &self.slots
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Completion { token } => self.on_completion(token),
            Event::Watchdog { token } => self.on_watchdog(token),
            Event::BreakerProbe { gpu } => self.on_probe(gpu),
            Event::Retry { req } => self.on_retry(req),
        }
    }

    // ---- admission -----------------------------------------------------

    fn on_arrival(&mut self, i: usize) {
        let req = self.states[i].request;
        let now = self.now();
        if self.last_arrival_ms.is_finite() {
            let gap = now - self.last_arrival_ms;
            self.ewma_gap_ms = if self.ewma_gap_ms.is_finite() {
                0.2 * gap + 0.8 * self.ewma_gap_ms
            } else {
                gap
            };
        }
        self.last_arrival_ms = now;
        // Brownout gate: reassess pressure on every arrival; at elevated
        // levels low-priority classes are shed before they can take a
        // queue slot.  At Normal level this is pure bookkeeping — a
        // controller that never escalates admits exactly what a
        // controller-free server admits.
        let fill = self.queue_fill();
        if let Some(ov) = &mut self.overload {
            let level = ov.ctl.reassess(now, fill);
            if level.sheds(req.class) {
                self.shed(
                    i,
                    ShedReason::Brownout {
                        level: level.index() as u8,
                    },
                );
                return;
            }
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.shed(
                i,
                ShedReason::QueueFull {
                    capacity: self.cfg.queue_capacity,
                },
            );
            return;
        }
        if let Some(reason) = self.deadline_hopeless(&req) {
            self.shed(i, reason);
            return;
        }
        self.queue.push_back(i);
        if let Some(ov) = &mut self.overload {
            ov.budget.note_admission(now);
        }
        self.try_dispatch();
    }

    /// Queue occupancy in `[0, 1]`.
    fn queue_fill(&self) -> f64 {
        self.queue.len() as f64 / self.cfg.queue_capacity as f64
    }

    /// A provable refusal: even the combined lower bound on the *full*
    /// healthy platform — never beatable by any schedule, any policy,
    /// or any future heal — misses the deadline.
    fn deadline_hopeless(&self, req: &Request) -> Option<ShedReason> {
        let bound_finish_ms = self.now() + self.bound_full[req.model];
        (bound_finish_ms > req.deadline_ms)
            .then_some(ShedReason::DeadlineUnmeetable { bound_finish_ms })
    }

    fn shed(&mut self, i: usize, reason: ShedReason) {
        // Brownout sheds are the controller's *own* output; feeding them
        // back as misses would hold pressure up and lock the deepest
        // level in place after the load drops.  Every other shed is a
        // genuine miss signal.
        let brownout_shed = matches!(reason, ShedReason::Brownout { .. });
        let at_ms = self.now();
        self.terminate(i, Disposition::Shed { at_ms, reason });
        if !brownout_shed {
            let (now, fill) = (self.now(), self.queue_fill());
            if let Some(ov) = &mut self.overload {
                ov.ctl.observe_outcome(now, true, fill);
            }
        }
    }

    // ---- dispatch ------------------------------------------------------

    fn try_dispatch(&mut self) {
        while self.in_flight.is_none() {
            let Some(&i) = self.queue.front() else { return };
            let req = self.states[i].request;
            if let Some(reason) = self.deadline_hopeless(&req) {
                self.queue.pop_front();
                self.shed(i, reason);
                continue;
            }
            if self.slots().gpu_map.is_empty() {
                return; // every breaker open; a probe event will resume us
            }
            let mi = req.model;
            let model = &self.models[mi];
            // Time this dispatch can afford to spend scheduling: the
            // request's deadline slack after a provable service lower
            // bound, capped by the queue-overflow stall budget.
            let slack_ms = req.deadline_ms - self.now() - self.bound_full[mi];
            let stall_ms = self.stall_headroom_ms();
            let key = self.plan_key(mi);
            let planning = planning_table(&self.calib, model, mi);
            // An elevated brownout level caps the ladder at cheaper
            // rungs; at Normal level the cap is `Full` and the decision
            // is bit-identical to the uncapped one.
            let cap = self
                .overload
                .as_ref()
                .map_or(RungCap::Full, |ov| ov.ctl.level().rung_cap());
            let chosen = match self.ladder.decide_keyed(
                &model.graph,
                planning,
                &self.slots.gpu_map,
                &key,
                self.queue.len(),
                slack_ms.min(stall_ms),
                self.epochs[mi],
                self.cfg.policy,
                cap,
            ) {
                Ok(d) => d,
                Err(ServeError::NoCapacity) => return,
                Err(e) => {
                    self.queue.pop_front();
                    self.states[i].attempts += 1;
                    self.attempts_total += 1;
                    self.fail_attempt(i, e);
                    continue;
                }
            };
            self.queue.pop_front();
            self.states[i].attempts += 1;
            self.attempts_total += 1;
            let t0 = self.now() + chosen.sched_cost_ms;
            match self.launch(mi, chosen, t0) {
                Some((run, finish_ms)) => self.fly(i, run, finish_ms),
                // A stalled or failed execution plan: typed failure,
                // retry (the platform may heal).
                None => self.fail_attempt(i, ServeError::NoCapacity),
            }
        }
    }

    /// Cache key of model `mi` on the slots in `self.slots`: the graph
    /// fingerprint taken in `build`, the slot-priced planning table's
    /// taken once per (calibration epoch, alive mask).
    fn plan_key(&mut self, mi: usize) -> ScheduleCacheKey {
        let (slots, calib, model) = (&self.slots, &self.calib, &self.models[mi]);
        let fingerprint = || {
            planning_table(calib, model, mi)
                .restrict_gpus(&slots.gpu_map)
                .platform_fingerprint()
        };
        let keys = &mut self.keys[mi];
        let platform_fp = match keys.platform_fps.recall(&slots.mask, fingerprint, u64::eq) {
            Some(&mut fp) => fp,
            None => {
                let fp = fingerprint();
                keys.platform_fps.insert(slots.mask, fp);
                fp
            }
        };
        ScheduleCacheKey::from_fingerprints(keys.graph_fp, &slots.alive, platform_fp)
    }

    /// Starts `chosen` for model `mi` at instant `t0` on the slots in
    /// `self.slots`, on the platform as it is: the known-fault scaling
    /// with the drift of `t0` multiplied in.  `None` when the plan cannot
    /// run to a finite finish.  With calibration on, also takes the
    /// timeline the profile predicts (the same plan without the drift
    /// factors).  Both timelines come from the memo.
    fn launch(&mut self, mi: usize, chosen: LadderDecision, t0: f64) -> Option<(Attempt, f64)> {
        let (slots, slot_scale) = (&*self.slots, &mut self.slot_scale);
        slots.scale(self.drift, t0, slot_scale);
        let (schedule, cached) = (chosen.schedule, chosen.cached);
        let (model, sim) = (&self.models[mi], &self.cfg.sim);
        let memo = &mut self.memo;
        let mut timeline = |scale| memo.timeline(mi, model, sim, &schedule, cached, slots, scale);
        let actual = timeline(slot_scale)?;
        let predicted = if self.calib.is_empty() {
            None
        } else if slot_scale.gpu == slots.fault_scale.gpu {
            // No drift deflected this dispatch: the two scalings are
            // equal and the actual timeline *is* the prediction — every
            // ratio is then exactly 1, which keeps the calibrator on its
            // bit-identity fast path.
            Some(Arc::clone(&actual))
        } else {
            timeline(&slots.fault_scale)
        };
        let finish_ms = t0 + actual.makespan;
        let run = Attempt::Clean {
            t0,
            actual,
            lesson: predicted.map(|p| (schedule, p)),
        };
        Some((run, finish_ms))
    }

    /// Puts request `i` in flight on the GPUs in `self.slots` under a
    /// fresh token and schedules its completion for `finish_ms`.
    fn fly(&mut self, i: usize, run: Attempt, finish_ms: f64) {
        let token = self.fresh_token();
        self.in_flight = Some(InFlight {
            req: i,
            token,
            serving: Arc::clone(&self.slots),
            run,
            hung_op: None,
        });
        // Finite: both callers filter for a finite makespan and add it
        // to a finite start — now plus a modeled scheduling cost, which
        // is finite for any model size.
        self.schedule(finish_ms, Event::Completion { token });
    }

    /// Queues `event` at `at_ms`.  [`EventQueue::push`] panics on a
    /// non-finite instant, so each caller says why its instant is
    /// finite, and debug builds check it here.  Every instant the clock
    /// reaches is finite too: trace instants are validated, signal
    /// detections checked in [`Server::build`], and the rest are these.
    fn schedule(&mut self, at_ms: f64, event: Event) {
        debug_assert!(at_ms.is_finite(), "{event:?} at {at_ms} ms");
        self.events.push(at_ms, event);
    }

    fn fresh_token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// How long the backend may stall before the arrival stream (at its
    /// EWMA rate) would overflow the queue's remaining headroom — half
    /// the projected fill time, for safety margin.  Zero until the
    /// server has seen two arrivals: with no load estimate it refuses
    /// to stall at all, and quality comes from the idle-time upgrader
    /// instead of gambling the queue.
    fn stall_headroom_ms(&self) -> f64 {
        if !self.ewma_gap_ms.is_finite() {
            return 0.0;
        }
        let headroom = self.cfg.queue_capacity.saturating_sub(self.queue.len());
        0.5 * headroom as f64 * self.ewma_gap_ms
    }

    /// Feeds a cleanly completed attempt into model `mi`'s calibrator
    /// ([`CalibState::learn`]).  When an observation raises a drift alarm
    /// the cell is quarantined; the planning overlay is then
    /// re-materialized, every schedule-cache entry priced against the
    /// stale platform is purged, and the cached plans are re-ranked on
    /// the new prices — the budget-bounded re-schedule itself happens
    /// lazily, on the next dispatch's cache miss, through the anytime
    /// ladder.
    fn feed_observations(&mut self, mi: usize, lesson: LessonKey) {
        let state = &mut self.calib[mi];
        let alarms = state.learn(lesson);
        if alarms == 0 {
            return;
        }
        self.alarms_total += alarms;
        if state.refresh() {
            self.recalibrations_total += 1;
            self.epochs[mi] += 1;
            // The planning table moved: its fingerprints are stale.
            self.keys[mi].platform_fps.retain(|_, _| false);
            let fp = self.calib[mi].table.table().platform_fingerprint();
            let gfp = self.keys[mi].graph_fp;
            self.cache_drops_total += self.ladder.invalidate_stale(gfp, fp, self.epochs[mi]) as u64;
            self.reprice(mi, false);
        }
    }

    // ---- completion / watchdog ----------------------------------------

    fn on_completion(&mut self, token: u64) {
        // A stale token: this attempt was invalidated.
        let Some(fl) = self.in_flight.take_if(|fl| fl.token == token) else {
            return;
        };
        if self.occurred_undetected_disruption(&fl) {
            // A fault has physically happened but is not yet detected:
            // this completion is phantom.  The detection event owns the
            // request's fate.
            self.in_flight = Some(fl);
            return;
        }
        let i = fl.req;
        let mi = self.states[i].request.model;
        self.complete(i);
        // Only clean completions teach the calibrator: this attempt ran
        // exactly the timeline its observations describe.
        if let Attempt::Clean {
            actual,
            lesson: Some((schedule, predicted)),
            ..
        } = fl.run
        {
            let lesson = LessonKey {
                schedule,
                actual,
                predicted,
                serving: fl.serving,
            };
            self.feed_observations(mi, lesson);
        }
        self.idle_work();
    }

    fn complete(&mut self, i: usize) {
        let st = &self.states[i];
        let now = self.now();
        let met_deadline = now <= st.request.deadline_ms;
        let disposition = Disposition::Completed {
            finish_ms: now,
            latency_ms: now - st.request.arrival_ms,
            attempts: st.attempts,
            met_deadline,
            repairs: st.repairs,
        };
        self.terminate(i, disposition);
        let fill = self.queue_fill();
        if let Some(ov) = &mut self.overload {
            ov.ctl.observe_outcome(now, !met_deadline, fill);
        }
    }

    /// Writes slot `i`'s terminal record to the sink and frees the slot.
    fn terminate(&mut self, i: usize, disposition: Disposition) {
        let st = &self.states[i];
        self.last_model = Some(st.request.model);
        let record = RequestRecord {
            request: st.request,
            disposition,
        };
        match &mut self.sink {
            Sink::Placed {
                records,
                placement,
                written,
            } => {
                records[placement.place(st.tag)] = record;
                *written += 1;
            }
            Sink::HandOff(waiting) => waiting.push_back((st.tag, record)),
        }
        self.release(i);
    }

    /// Folds a detected fault (or a heal) into the platform model and
    /// rebuilds the slot map on it, then re-ranks every model's cached
    /// plan for the current alive set against a greedy candidate on the
    /// state that leaves: the nominally-best cached plan may lean on
    /// hardware that just degraded — or hardware that just came back.
    ///
    /// The admitted set changes only here: a trip precedes a fault's
    /// call, a closing probe calls it with its heal, and a failed probe
    /// reads no slots between Open → HalfOpen → Open.
    fn platform_fault(&mut self, kind: &FaultKind) {
        self.platform.apply_fault(kind);
        self.slots = SlotMap::new(&self.breakers, &self.platform.scaling.0);
        for mi in 0..self.models.len() {
            self.reprice(mi, false);
        }
    }

    /// Re-prices model `mi`'s cached plan for the current alive set on
    /// the platform as it is *now* — candidates are simulated on the
    /// model's planning table (the calibrated overlay when calibration
    /// is on) under the current fault scaling, because the
    /// nominally-best plan may lean on a degraded link.  The challenger
    /// is a full HIOS-LP pass when `upgrade`, a greedy pass otherwise.
    fn reprice(&mut self, mi: usize, upgrade: bool) {
        if self.cfg.policy != Policy::Anytime || self.slots().gpu_map.is_empty() {
            return;
        }
        let key = self.plan_key(mi);
        let (gpu_map, fault_scale) = (&self.slots.gpu_map, &self.slots.fault_scale);
        let (model, sim_cfg) = (&self.models[mi], &self.cfg.sim);
        let eval = |table: &CostTable, schedule: &Schedule| {
            simulate_scaled(&model.graph, table, schedule, sim_cfg, fault_scale)
                .map(|r| r.makespan)
                .unwrap_or(f64::INFINITY)
        };
        let (g, state) = (&model.graph, self.platform.state);
        let planning = planning_table(&self.calib, model, mi);
        if upgrade {
            let epoch = self.epochs[mi];
            self.ladder
                .upgrade_keyed(g, planning, gpu_map, &key, epoch, state, eval);
        } else {
            self.ladder
                .rerank_keyed(g, planning, gpu_map, &key, state, eval);
        }
    }

    /// After the backend drains: let the anytime ladder spend the idle
    /// CPU time upgrading the cached plan of the last-served model,
    /// then dispatch whatever queued meanwhile.
    fn idle_work(&mut self) {
        if self.queue.is_empty() {
            if let Some(mi) = self.last_model {
                self.reprice(mi, true);
            }
        }
        self.try_dispatch();
    }

    /// Whether a fault that disrupts the in-flight attempt `fl` has
    /// occurred but not yet been detected (its consequences own the
    /// attempt, so any completion before detection is phantom).
    fn occurred_undetected_disruption(&mut self, fl: &InFlight) -> bool {
        let now = self.clock.now_ms();
        // Candidates are the signals with `at_ms <= now <= detected_ms`.
        // The clock only moves forward, so signals detected before now
        // never qualify again (the cursor) and the first one still in the
        // future ends the run.
        let signals = &self.signals;
        while signals
            .get(self.first_live_signal)
            .is_some_and(|sig| sig.detected_ms < now)
        {
            self.first_live_signal += 1;
        }
        let rest = &signals[self.first_live_signal..];
        rest[..rest.partition_point(|sig| sig.at_ms <= now)]
            .iter()
            .any(|sig| disruption(sig, fl).is_some())
    }

    fn on_watchdog(&mut self, token: u64) {
        let Some(fl) = &self.in_flight else { return };
        if fl.token != token {
            return;
        }
        let i = fl.req;
        let op = fl.hung_op.unwrap_or(OpId(0));
        self.in_flight = None;
        self.fail_attempt(
            i,
            ServeError::WatchdogTimeout {
                op,
                waited_ms: WATCHDOG_MS,
            },
        );
        self.try_dispatch();
    }

    // ---- faults --------------------------------------------------------

    fn on_fault(&mut self, sig: FaultSignal) {
        let now = self.now();
        if let Some(gpu) = sig.kind.gpu_target() {
            // 1. The GPU is repaired `gpu_repair_ms` from now; trip its
            // breaker.  (An already-open breaker keeps its pending probe;
            // the pushed-out heal horizon makes that probe fail and
            // re-arm.)
            self.healthy_at[gpu] = now + self.cfg.gpu_repair_ms;
            if self.breakers.peek(gpu).admits() {
                let until = self.breakers.gpu(gpu).trip(now);
                // Finite: now plus the breaker's timeout — its base, an
                // escalation capped at MAX_QUARANTINE_MS, or (half-open)
                // a doubled one it already waited out, so at most now.
                self.schedule(until, Event::BreakerProbe { gpu });
            }
        } else if let Some(gpu) = sig.kind.heal_target() {
            // A scripted heal (the "up" edge of a flapping GPU): the heal
            // horizon snaps to now so the breaker's next probe succeeds
            // instead of waiting out `gpu_repair_ms`.
            self.healthy_at[gpu] = now;
        }
        // 2. Persist the fault in the platform model; the platform
        // changed under the cache, so re-rank the cached plans on it.
        self.platform_fault(&sig.kind);
        // 3. Invalidate in-flight work the fault touches.
        let Some(mut fl) = self.in_flight.take() else {
            return;
        };
        match disruption(&sig, &fl) {
            None => self.in_flight = Some(fl),
            Some(Disruption::Hang(op)) => {
                // Arm the watchdog; the hang itself is silent.
                let token = self.fresh_token();
                fl.token = token;
                fl.hung_op = Some(op);
                let mut op_finish_abs = fl.run.into_abs();
                op_finish_abs[op.index()] = f64::INFINITY;
                fl.run = Attempt::Stitched(op_finish_abs);
                self.in_flight = Some(fl);
                // Finite: now plus a constant.
                self.schedule(now + WATCHDOG_MS, Event::Watchdog { token });
            }
            Some(Disruption::Gpu(gpu)) => self.disrupt(fl, ServeError::GpuFault { gpu }),
            Some(Disruption::Link(from, to)) => {
                self.disrupt(fl, ServeError::LinkFault { from, to });
            }
        }
    }

    /// The attempt `fl`, taken out of flight, is invalid from `now` on.
    /// Try an in-place repair (finished operators keep their results,
    /// the remainder is rescheduled onto the surviving GPUs); fall back
    /// to a full retry.
    fn disrupt(&mut self, fl: InFlight, err: ServeError) {
        let i = fl.req;
        let now = self.now();
        if fl.hung_op.is_some() {
            // Progress accounting is unreliable once an operator hangs;
            // restart the attempt from scratch.
            self.fail_attempt(i, err);
            self.try_dispatch();
            return;
        }
        let req = self.states[i].request;
        let model = &self.models[req.model];
        let g = &model.graph;
        let mut op_finish_abs = fl.run.into_abs();
        let completed: Vec<bool> = op_finish_abs.iter().map(|&f| f <= now).collect();
        if completed.iter().all(|&c| c) {
            // The fault only delayed the final acknowledgement.
            self.complete(i);
            self.idle_work();
            return;
        }
        if self.slots().gpu_map.is_empty() {
            self.fail_attempt(i, err);
            self.try_dispatch();
            return;
        }
        let n_left = completed.iter().filter(|&&c| !c).count();
        let m_alive = self.slots.gpu_map.len();
        let slack_ms = (req.deadline_ms - now).min(self.stall_headroom_ms());
        let (policy, sched_cost) = self.repair_policy(n_left, m_alive, slack_ms);
        // Repair *plans* on the calibrated planning table (the best
        // current estimate of what the survivors cost) but *executes*
        // on the base profile, like every dispatch.
        let planning = planning_table(&self.calib, model, req.model);
        let repair = repair_schedule(
            &mut self.repair_ws,
            g,
            planning,
            &completed,
            &self.slots.alive,
            &RepairConfig {
                policy,
                window: self.cfg.ladder.window,
            },
        );
        let Ok((outcome, map)) = repair else {
            self.fail_attempt(i, err);
            self.try_dispatch();
            return;
        };
        let projected = hios_core::repair::project_cost(&model.cost, &map);
        let resume = now + sched_cost;
        // The remainder resumes on the survivors, on the platform as it
        // is at `resume` (known faults times drift).
        self.slots.scale(self.drift, resume, &mut self.slot_scale);
        let resumed = simulate_scaled(
            &map.sub,
            &projected.restrict_gpus(&self.slots.gpu_map),
            &outcome.schedule,
            &self.cfg.sim,
            &self.slot_scale,
        );
        match resumed.ok().filter(|r| r.makespan.is_finite()) {
            Some(r) => {
                for (sv, &parent) in map.to_parent.iter().enumerate() {
                    op_finish_abs[parent.index()] = resume + r.op_finish[sv];
                }
                self.states[i].repairs += 1;
                self.repairs_total += 1;
                // A stitched-together attempt is no longer one clean
                // timeline; its observations would mis-attribute the
                // disruption as drift, so it carries none.
                let finish_ms = resume + r.makespan;
                self.fly(i, Attempt::Stitched(op_finish_abs), finish_ms);
            }
            None => {
                self.fail_attempt(i, err);
                self.try_dispatch();
            }
        }
    }

    /// Repair policy and its modeled scheduling cost, picked like a
    /// ladder rung: reschedule (HIOS-LP from scratch) when the budget, the
    /// queue, and the disrupted request's remaining slack admit it,
    /// greedy otherwise.
    fn repair_policy(&self, n_left: usize, m_alive: usize, slack_ms: f64) -> (RepairPolicy, f64) {
        let w = self.cfg.ladder.window;
        let lp_cost = modeled_sched_cost_ms(Algorithm::HiosLp, n_left, m_alive, w);
        let pressured = self.queue.len() >= self.cfg.ladder.pressure_threshold;
        if self.cfg.policy != Policy::GreedyOnly
            && !pressured
            && self.cfg.ladder.budget.admits(lp_cost)
            && lp_cost <= slack_ms
        {
            (RepairPolicy::Reschedule, lp_cost)
        } else {
            (RepairPolicy::Greedy, greedy_cost_ms(n_left))
        }
    }

    /// One attempt failed with `err`: back off and retry if the budget
    /// allows, shed otherwise.  (`in_flight` must already be cleared.)
    fn fail_attempt(&mut self, i: usize, err: ServeError) {
        let attempts = self.states[i].attempts;
        if !retry::allows(attempts) {
            self.shed(
                i,
                ShedReason::RetriesExhausted {
                    attempts,
                    last_error: Box::new(err),
                },
            );
            return;
        }
        // Per-request policy allows another attempt; the server-global
        // budget must also grant a token, or a correlated fault's worth
        // of requests would retry in lockstep and crowd out fresh work.
        let now = self.now();
        let granted = match &mut self.overload {
            Some(ov) => ov.budget.try_retry(now),
            None => true,
        };
        if granted {
            let backoff = retry::backoff_ms(self.states[i].request.id, attempts);
            self.states[i].hold = Hold::Backoff;
            // Finite: the backoff's doubling is capped (≤ 2¹⁷ + 1 ms).
            self.schedule(now + backoff, Event::Retry { req: i });
        } else {
            self.shed(
                i,
                ShedReason::RetryBudgetExhausted {
                    attempts,
                    last_error: Box::new(err),
                },
            );
        }
    }

    fn on_retry(&mut self, i: usize) {
        if self.states[i].hold == Hold::Withdrawn {
            // Withdrawn by the fleet layer while backing off: the timer
            // was the slot's last holder.
            self.release(i);
            return;
        }
        debug_assert_eq!(self.states[i].hold, Hold::Backoff);
        self.states[i].hold = Hold::Live;
        let req = self.states[i].request;
        if let Some(reason) = self.deadline_hopeless(&req) {
            self.shed(i, reason);
            return;
        }
        // Retries were admitted once; they re-enter even a full queue.
        self.queue.push_back(i);
        self.try_dispatch();
    }

    // ---- breaker probes ------------------------------------------------

    fn on_probe(&mut self, gpu: usize) {
        let now = self.now();
        if !self.breakers.gpu(gpu).try_half_open(now) {
            return; // stale probe (breaker re-tripped meanwhile)
        }
        if now >= self.healthy_at[gpu] {
            self.breakers.gpu(gpu).probe_success(now);
            // Repaired or replaced: the GPU runs at full speed again.
            self.platform_fault(&FaultKind::GpuHeal { gpu });
            self.try_dispatch();
        } else {
            let next = self.breakers.gpu(gpu).probe_failure(now);
            // Finite: a probe fails only before `healthy_at`, a finite
            // detection instant plus `gpu_repair_ms`, and it waited out
            // the timeout it doubles, so `next` < 3 × `healthy_at`.
            self.schedule(next, Event::BreakerProbe { gpu });
        }
    }
}

/// How a fault invalidates an in-flight attempt.
enum Disruption {
    /// An operator still to finish hangs.
    Hang(OpId),
    /// A serving GPU failed or slowed.
    Gpu(usize),
    /// A link between two serving GPUs failed or degraded.
    Link(usize, usize),
}

/// How fault `sig` invalidates the in-flight attempt `fl`, if it does.
fn disruption(sig: &FaultSignal, fl: &InFlight) -> Option<Disruption> {
    let serves = |gpu: usize| fl.serving.mask >> gpu & 1 == 1;
    match sig.kind {
        FaultKind::GpuFailStop { gpu } | FaultKind::GpuSlowdown { gpu, .. } => {
            serves(gpu).then_some(Disruption::Gpu(gpu))
        }
        FaultKind::LinkFail { from, to } | FaultKind::LinkDegrade { from, to, .. } => {
            (fl.serving.mask.count_ones() > 1 && serves(from) && serves(to))
                .then_some(Disruption::Link(from, to))
        }
        // Hang plans may target a larger tenant's operator ids: an
        // operator this graph does not have cannot hang.
        FaultKind::OpHang { op } => fl
            .run
            .op_finish_abs(op.index())
            .is_some_and(|finish| finish > sig.at_ms)
            .then_some(Disruption::Hang(op)),
        // A heal only adds capacity; it never invalidates work.
        FaultKind::GpuHeal { .. } => None,
    }
}

/// The table model `mi` plans with: the calibrated overlay when
/// calibration is on (the base profile itself while the calibrator is
/// still the identity), the base profile when it is off.  A free
/// function so callers can keep disjoint borrows of the server's other
/// fields.
fn planning_table<'a>(calib: &'a [CalibState], model: &'a ServedModel, mi: usize) -> &'a CostTable {
    match calib.get(mi) {
        Some(state) => state.table.table(),
        None => &model.cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PriorityClass;
    use crate::workload::{WorkloadConfig, generate_trace};
    use hios_cost::AnalyticCostModel;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};
    use hios_sim::FaultEvent;

    fn model(seed: u64, ops: usize) -> ServedModel {
        let graph = generate_layered_dag(&LayeredDagConfig {
            ops,
            layers: 6,
            deps: ops * 2,
            seed,
        })
        .unwrap();
        let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
        ServedModel {
            name: format!("dag{seed}"),
            graph,
            cost,
        }
    }

    fn trace_for(models: &[ServedModel], cfg: &ServeConfig, wl: &WorkloadConfig) -> Vec<Request> {
        let nominal: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, cfg.num_gpus))
            .collect();
        generate_trace(wl, &nominal)
    }

    fn wl(requests: usize, rate: f64, factor: f64) -> WorkloadConfig {
        WorkloadConfig {
            requests,
            arrival_rate_rps: rate,
            deadline_factor: factor,
            seed: 11,
        }
    }

    #[test]
    fn fault_free_run_completes_every_request() {
        let models = vec![model(1, 30), model(2, 40)];
        let cfg = ServeConfig::new(3);
        let trace = trace_for(&models, &cfg, &wl(40, 20.0, 20.0));
        let out = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
        assert_eq!(out.records.len(), 40);
        assert_eq!(out.report.completed, 40);
        assert_eq!(out.report.shed_queue + out.report.shed_deadline, 0);
        assert!(out.report.miss_rate < 0.5, "miss {}", out.report.miss_rate);
        assert!(out.report.p99_ms >= out.report.p50_ms);
        // Replay is bit-identical.
        let again = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
        assert_eq!(out.report.history_digest, again.report.history_digest);
    }

    #[test]
    fn gpu_fail_stop_trips_the_breaker_and_requests_still_terminate() {
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.gpu_repair_ms = 40.0;
        // Arrivals dense enough that the stream is still flowing when
        // the GPU dies, and slack generous enough to absorb the outage.
        let trace = trace_for(&models, &cfg, &wl(60, 2000.0, 500.0));
        let faults = FaultPlan::single(20.0, FaultKind::GpuFailStop { gpu: 1 });
        let out = serve(&models, &trace, &faults, &cfg).unwrap();
        assert_eq!(out.records.len(), 60);
        assert!(out.report.breaker_opens >= 1);
        // The degraded platform forces a fresh schedule (cache keys
        // include the alive mask), proving rerouting happened.
        assert!(
            out.report.cache.1 >= 2,
            "expected a schedule per platform, cache {:?} rungs {:?}",
            out.report.cache,
            out.report.rungs
        );
        assert!(
            out.report.completed >= 50,
            "completed {}",
            out.report.completed
        );
    }

    #[test]
    fn mid_flight_fault_is_repaired_in_place() {
        // One big request, a GPU dies while its operators are running:
        // the finished prefix must be kept and only the remainder
        // rescheduled — one attempt, one in-place repair, no retry.
        let graph = generate_layered_dag(&LayeredDagConfig {
            ops: 120,
            layers: 10,
            deps: 240,
            seed: 21,
        })
        .unwrap();
        let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
        let models = vec![ServedModel {
            name: "big".into(),
            graph,
            cost,
        }];
        let mut cfg = ServeConfig::new(3);
        cfg.detection_ms = 0.1;
        let trace = vec![Request {
            id: 0,
            model: 0,
            arrival_ms: 0.0,
            deadline_ms: 1.0e6,
            class: PriorityClass::Gold,
        }];
        let faults = FaultPlan::single(0.6, FaultKind::GpuFailStop { gpu: 2 });
        let out = serve(&models, &trace, &faults, &cfg).unwrap();
        assert_eq!(out.report.completed, 1);
        let Disposition::Completed {
            attempts, repairs, ..
        } = out.records[0].disposition
        else {
            panic!("expected completion, got {:?}", out.records[0].disposition);
        };
        assert_eq!(attempts, 1, "repair must not consume a retry attempt");
        assert_eq!(repairs, 1, "the fault must be repaired in place");
    }

    /// The 3-GPU box GPUs 1–3 of [`hios_cost::Platform::mixed_a40_v100s`]
    /// make, built on its own: an A40 and two V100Ss, PCIe from the A40
    /// to each V100S, NVLink between the V100Ss.
    fn mixed_box_without_gpu0() -> hios_cost::Platform {
        use hios_cost::{GpuSpec, LinkSpec, Platform, Topology};
        let (nv, pc) = (0, 1);
        #[rustfmt::skip]
        let link_class = vec![
            nv, pc, pc,
            pc, nv, nv,
            pc, nv, nv,
        ];
        Platform::hetero(
            vec![GpuSpec::a40(), GpuSpec::v100s()],
            vec![LinkSpec::nvlink_bridge(), LinkSpec::pcie_gen3()],
            Topology::hetero(vec![0, 1, 1], link_class),
        )
    }

    #[test]
    fn a_plan_dispatched_without_gpu0_runs_on_the_gpus_its_slots_name() {
        // GPU 0 of the mixed A40 + V100S box is out, so slots 0..3 are
        // GPUs 1–3.  The plan finishes when the same slot schedule
        // finishes on the box those three GPUs make — not when it would
        // on GPUs 0–2.
        use hios_cost::{Platform, platform_table};
        let mut m = model(7, 40);
        m.cost = platform_table(&Platform::mixed_a40_v100s(), &m.graph).unwrap();
        let three = platform_table(&mixed_box_without_gpu0(), &m.graph).unwrap();
        let mut cfg = ServeConfig::new(4);
        cfg.policy = Policy::GreedyOnly;
        cfg.gpu_repair_ms = 1.0e9;
        let arrival_ms = 50.0;
        let trace = [Request {
            id: 0,
            model: 0,
            arrival_ms,
            deadline_ms: 1.0e6,
            class: PriorityClass::Gold,
        }];
        let faults = FaultPlan::single(0.0, FaultKind::GpuFailStop { gpu: 0 });
        let plan = hios_core::greedy_schedule(&m.graph, &three, 3);
        let run = simulate_scaled(&m.graph, &three, &plan, &cfg.sim, &Scaling::identity(3));
        let t0 = arrival_ms + greedy_cost_ms(m.graph.num_ops());
        let out = serve(&[m], &trace, &faults, &cfg).unwrap();
        let Disposition::Completed {
            finish_ms,
            attempts: 1,
            ..
        } = out.records[0].disposition
        else {
            panic!("{:?}", out.records[0].disposition);
        };
        assert_eq!(finish_ms, t0 + run.unwrap().makespan);
    }

    #[test]
    fn overload_sheds_at_the_bounded_queue() {
        let models = vec![model(4, 40)];
        let mut cfg = ServeConfig::new(2);
        cfg.queue_capacity = 2;
        // Arrivals far faster than service.
        let trace = trace_for(&models, &cfg, &wl(120, 2000.0, 4.0));
        let out = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
        assert_eq!(out.records.len(), 120);
        assert!(out.report.shed_queue > 0, "queue sheds expected");
        assert!(out.report.shed_rate > 0.0 && out.report.shed_rate < 1.0);
    }

    #[test]
    fn impossible_deadlines_are_shed_by_the_provable_bound() {
        let models = vec![model(5, 30)];
        let cfg = ServeConfig::new(2);
        let mut trace = trace_for(&models, &cfg, &wl(5, 50.0, 3.0));
        for r in &mut trace {
            r.deadline_ms = r.arrival_ms; // zero slack: provably unmeetable
        }
        let out = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
        assert_eq!(out.report.shed_deadline, 5);
        assert_eq!(out.report.completed, 0);
    }

    #[test]
    fn op_hang_is_converted_into_a_watchdog_retry() {
        let models = vec![model(6, 30)];
        let cfg = ServeConfig::new(2);
        let trace = vec![Request {
            id: 0,
            model: 0,
            arrival_ms: 0.0,
            deadline_ms: 1.0e6,
            class: PriorityClass::Gold,
        }];
        // Hang the sink operator while the request is in flight (the
        // cold-start greedy dispatch serves it within the first ms).
        let faults = FaultPlan::single(0.2, FaultKind::OpHang { op: OpId(29) });
        let out = serve(&models, &trace, &faults, &cfg).unwrap();
        assert_eq!(out.report.completed, 1);
        let Disposition::Completed { attempts, .. } = out.records[0].disposition else {
            panic!("request must complete");
        };
        assert_eq!(attempts, 2, "hang must force exactly one retry");
    }

    /// Faults that hang op 29 of `gold(0, 1.0)` (the sink of `model(6,
    /// 30)`) a microsecond into each of its first `hangs` attempts, with
    /// the instant a microsecond into the attempt after them.  Each
    /// retry starts when its backoff ends, the watchdog's delay after the
    /// hang.
    fn hang_every_attempt(hangs: u32) -> (Vec<FaultEvent>, f64) {
        const INTO_MS: f64 = 1.0e-3;
        let mut at_ms = 1.0 + INTO_MS;
        let mut events = Vec::new();
        for attempts in 1..=hangs {
            events.push(FaultEvent {
                at_ms,
                kind: FaultKind::OpHang { op: OpId(29) },
            });
            at_ms = at_ms + WATCHDOG_MS + retry::backoff_ms(0, attempts) + INTO_MS;
        }
        (events, at_ms)
    }

    #[test]
    fn a_request_out_of_retries_on_a_fail_stop_records_the_gpu_that_failed() {
        let models = vec![model(6, 30)];
        let mut cfg = ServeConfig::new(2);
        cfg.detection_ms = 0.0;
        cfg.gpu_repair_ms = 1.0e6;
        // GPU 0 is down for the whole run, so when GPU 1 fails under the
        // fourth attempt no survivor is left to repair it onto.
        let (mut events, fourth_ms) = hang_every_attempt(3);
        events.push(FaultEvent {
            at_ms: 0.0,
            kind: FaultKind::GpuFailStop { gpu: 0 },
        });
        events.push(FaultEvent {
            at_ms: fourth_ms,
            kind: FaultKind::GpuFailStop { gpu: 1 },
        });
        let out = serve(&models, &[gold(0, 1.0)], &FaultPlan::new(events), &cfg).unwrap();
        assert_eq!(
            out.records[0].disposition,
            Disposition::Shed {
                at_ms: fourth_ms,
                reason: ShedReason::RetriesExhausted {
                    attempts: 4,
                    last_error: Box::new(ServeError::GpuFault { gpu: 1 }),
                },
            }
        );
    }

    #[test]
    fn a_retry_budget_denial_records_the_error_that_ended_the_attempt() {
        let models = vec![model(6, 30)];
        let mut cfg = ServeConfig::new(2);
        cfg.detection_ms = 0.0;
        cfg.overload = Some(OverloadConfig::default());
        // One admission buys one retry per budget window: the second hang
        // is denied its retry.
        let (events, _) = hang_every_attempt(2);
        let out = serve(&models, &[gold(0, 1.0)], &FaultPlan::new(events), &cfg).unwrap();
        let Disposition::Shed { reason, .. } = &out.records[0].disposition else {
            panic!("{:?}", out.records[0]);
        };
        assert_eq!(
            *reason,
            ShedReason::RetryBudgetExhausted {
                attempts: 2,
                last_error: Box::new(ServeError::WatchdogTimeout {
                    op: OpId(29),
                    waited_ms: WATCHDOG_MS,
                }),
            }
        );
    }

    #[test]
    fn all_breakers_open_still_drains_via_recovery() {
        let models = vec![model(7, 30)];
        let mut cfg = ServeConfig::new(2);
        cfg.gpu_repair_ms = 30.0;
        let trace = trace_for(&models, &cfg, &wl(10, 50.0, 60.0));
        let faults = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 2.0,
                kind: FaultKind::GpuFailStop { gpu: 0 },
            },
            FaultEvent {
                at_ms: 2.5,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
        ]);
        let out = serve(&models, &trace, &faults, &cfg).unwrap();
        // Every request terminates despite a total outage window.
        assert_eq!(out.records.len(), 10);
        assert!(out.report.breaker_opens >= 2);
    }

    #[test]
    fn bad_setups_are_typed_errors() {
        let models = vec![model(8, 20)];
        let cfg = ServeConfig::new(0);
        let err = serve(&models, &[], &FaultPlan::new(vec![]), &cfg).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scheduler(SchedulerError::BadOptions(_))
        ));

        let mut cfg = ServeConfig::new(2);
        cfg.ladder.cache_capacity = 0;
        let err = serve(&models, &[], &FaultPlan::new(vec![]), &cfg).unwrap_err();
        assert!(
            matches!(&err, ServeError::Scheduler(SchedulerError::BadOptions(msg))
                if msg.contains("cache_capacity")),
            "{err:?}"
        );

        // A zero window is not an error: the intra-GPU pass is skipped.
        let mut cfg = ServeConfig::new(2);
        cfg.ladder.window = 0;
        let trace = trace_for(&models, &cfg, &wl(5, 50.0, 20.0));
        let out = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
        assert_eq!(out.report.completed, 5);

        let cfg = ServeConfig::new(2);
        let bad_trace = vec![Request {
            id: 0,
            model: 9,
            arrival_ms: 0.0,
            deadline_ms: 1.0,
            class: PriorityClass::Gold,
        }];
        let err = serve(&models, &bad_trace, &FaultPlan::new(vec![]), &cfg).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scheduler(SchedulerError::BadOptions(_))
        ));
    }

    #[test]
    fn fault_plans_that_do_not_fit_the_platform_are_typed_errors() {
        let models = vec![model(8, 20)];
        let cfg = ServeConfig::new(3);
        let trace = trace_for(&models, &cfg, &wl(5, 50.0, 20.0));
        for (what, at_ms, kind) in [
            ("GPU out of range", 1.0, FaultKind::GpuFailStop { gpu: 7 }),
            (
                "link endpoint out of range",
                1.0,
                FaultKind::LinkFail { from: 0, to: 9 },
            ),
            ("NaN instant", f64::NAN, FaultKind::GpuFailStop { gpu: 0 }),
        ] {
            let err = serve(&models, &trace, &FaultPlan::single(at_ms, kind), &cfg).unwrap_err();
            assert!(
                matches!(err, ServeError::Scheduler(SchedulerError::BadOptions(_))),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn an_unsorted_fault_plan_serves_like_its_sorted_self() {
        use crate::fleet::{FleetConfig, FleetFaults, serve_fleet};
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.gpu_repair_ms = 4.0;
        let trace = trace_for(&models, &cfg, &wl(60, 2000.0, 500.0));
        let fail = |at_ms, gpu| FaultEvent {
            at_ms,
            kind: FaultKind::GpuFailStop { gpu },
        };
        // `events` is public: nothing stops a caller building it unsorted.
        let unsorted = FaultPlan {
            events: vec![fail(9.0, 2), fail(3.0, 1), fail(9.0, 0)],
        };
        let sorted = FaultPlan::new(unsorted.events.clone());
        assert_ne!(unsorted, sorted);

        let one = serve(&models, &trace, &unsorted, &cfg).unwrap();
        assert!(one.report.breaker_opens >= 2);
        let want = serve(&models, &trace, &sorted, &cfg).unwrap();
        assert_eq!(one.report.history_digest, want.report.history_digest);

        let fleet = FleetConfig::new(2, 3);
        let per_cluster = |plan: &FaultPlan| FleetFaults {
            per_cluster: vec![plan.clone(), FaultPlan::none()],
            cluster_events: Vec::new(),
        };
        let one = serve_fleet(&models, &trace, &per_cluster(&unsorted), &fleet).unwrap();
        let want = serve_fleet(&models, &trace, &per_cluster(&sorted), &fleet).unwrap();
        assert_eq!(one.report.history_digest, want.report.history_digest);
    }

    #[test]
    fn a_signal_detected_on_a_timer_instant_goes_first() {
        // GPU 1 fails at 1.0, detected at 1.5: its breaker trips and will
        // probe at 1.5 + 20.  It fails again at 21.0, detected exactly on
        // that probe's instant.  The signal goes first, as it did when
        // every signal held the event queue's lowest sequence numbers:
        // the probe then meets the pushed-out heal horizon, fails, and
        // doubles the timeout.  Probe first would have closed the breaker
        // and let the signal re-trip it for the base 20 ms.
        use crate::breaker::BreakerState;
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.gpu_repair_ms = 10.0;
        let fail = |at_ms| FaultEvent {
            at_ms,
            kind: FaultKind::GpuFailStop { gpu: 1 },
        };
        let faults = FaultPlan::new(vec![fail(1.0), fail(21.0)]);
        let drift = DriftPlan::none();
        let mut srv = Server::build(&models, &faults, &drift, &cfg).unwrap();
        while srv.next_event_ms().is_some_and(|t| t <= 21.5) {
            assert!(srv.step());
        }
        assert_eq!(
            srv.breakers.peek(1).state(),
            BreakerState::Open { until_ms: 61.5 }
        );
    }

    fn gold(id: u64, arrival_ms: f64) -> Request {
        Request {
            id,
            model: 0,
            arrival_ms,
            deadline_ms: arrival_ms + 1.0e6,
            class: PriorityClass::Gold,
        }
    }

    /// Injects `request` under its id as the tag.
    fn inject(srv: &mut Server, request: Request, now_ms: f64) -> usize {
        srv.inject(request, request.id as usize, now_ms)
    }

    /// The records a server driven without a trace has handed off.
    fn handed_off<'s>(srv: &'s Server) -> Vec<&'s RequestRecord> {
        match &srv.sink {
            Sink::HandOff(waiting) => waiting.iter().map(|(_, r)| r).collect(),
            Sink::Placed { .. } => Vec::new(),
        }
    }

    #[test]
    fn a_withdrawn_backoff_keeps_its_slot_until_its_retry_fires() {
        // A hang fails the only request's attempt and it backs off; the
        // fleet layer then withdraws it (a hedged twin won).  Its `Retry`
        // still names its slot, so the requests injected meanwhile must
        // get other slots, or the timer would queue one of them twice.
        let models = vec![model(6, 30)];
        let cfg = ServeConfig::new(2);
        let faults = FaultPlan::single(0.2, FaultKind::OpHang { op: OpId(29) });
        let drift = DriftPlan::none();
        let mut srv = Server::build(&models, &faults, &drift, &cfg).unwrap();
        let hung = inject(&mut srv, gold(0, 0.0), 0.0);
        while srv.states[hung].hold != Hold::Backoff {
            assert!(srv.step(), "the hang must end in a backoff");
        }
        assert!(!srv.cancel(hung), "no record of it is pending");
        assert_eq!(srv.states[hung].hold, Hold::Withdrawn);
        let now = srv.now();
        let fresh: Vec<usize> = (1..=30)
            .map(|id| inject(&mut srv, gold(id, now), now))
            .collect();
        assert!(!fresh.contains(&hung), "slot {hung} reused under its timer");
        while srv.states[hung].hold == Hold::Withdrawn {
            assert!(srv.step(), "the withdrawn backoff's retry must fire");
        }
        assert_eq!(srv.states[hung].hold, Hold::Free);
        assert!(
            handed_off(&srv).len() < fresh.len(),
            "work left when it fired"
        );
        while srv.step() {}
        // Every fresh request ran once and ended once; the withdrawn one
        // left no record.
        let mut ids: Vec<u64> = handed_off(&srv).iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=30).collect::<Vec<u64>>());
        for r in handed_off(&srv) {
            assert!(
                matches!(r.disposition, Disposition::Completed { attempts: 1, .. }),
                "{r:?}"
            );
        }
        // Its slot is back in circulation.
        assert!(srv.free_slots.contains(&hung));
        assert_eq!(srv.slots_allocated(), 1 + fresh.len());
    }

    #[test]
    fn a_kill_after_out_of_order_slot_reuse_drains_backoffs_in_injection_order() {
        let models = vec![model(3, 36)];
        let cfg = ServeConfig::new(2);
        let drift = DriftPlan::none();
        let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
        for id in 0..4 {
            assert_eq!(inject(&mut srv, gold(id, 0.0), 0.0), id as usize);
        }
        // Requests 0 and 1 complete, freeing slots 0 then 1; the next two
        // arrivals take them last freed first.
        while handed_off(&srv).len() < 2 {
            assert!(srv.step());
        }
        let now = srv.now();
        assert_eq!(inject(&mut srv, gold(4, now), now), 1);
        assert_eq!(inject(&mut srv, gold(5, now), now), 0);
        // Request 2 is in flight; 3, 4 and 5 fail at dispatch, as on a
        // scheduler error, and back off in slots 3, 1, 0.
        assert_eq!(srv.in_flight.as_ref().map(|fl| fl.req), Some(2));
        assert_eq!(srv.queue, [3, 1, 0]);
        while let Some(slot) = srv.queue.pop_front() {
            srv.states[slot].attempts += 1;
            srv.fail_attempt(slot, ServeError::NoCapacity);
            assert_eq!(srv.states[slot].hold, Hold::Backoff);
        }
        // The kill: in flight first, then the backoffs as injected (their
        // tags are their ids).
        assert_eq!(srv.drain(), [2, 3, 4, 5]);
        for slot in [3, 1, 0] {
            assert_eq!(srv.states[slot].hold, Hold::Withdrawn);
        }
        // Their timers still fire, free the slots and record nothing.
        while srv.step() {}
        assert_eq!(handed_off(&srv).len(), 2);
        assert_eq!(srv.free_slots.len(), srv.slots_allocated());
    }

    #[test]
    fn slots_grow_with_the_requests_held_at_once_not_with_the_trace() {
        let models = vec![model(1, 24), model(2, 30), model(3, 36)];
        let cfg = ServeConfig::new(3);
        let nominal: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, cfg.num_gpus))
            .collect();
        let mean_ms = nominal.iter().sum::<f64>() / nominal.len() as f64;
        let trace = generate_trace(
            &WorkloadConfig {
                requests: 20_000,
                arrival_rate_rps: 0.5 * 1000.0 / mean_ms,
                deadline_factor: 40.0,
                seed: 11,
            },
            &nominal,
        );
        let drift = DriftPlan::none();
        let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
        srv.run_trace(&trace);
        // The queue, the attempt in flight, and the arrival being admitted
        // or shed.
        let held = srv.slots_allocated();
        assert!(
            (2..=cfg.queue_capacity + 2).contains(&held),
            "{held} slots for 20 000 requests"
        );
        assert_eq!(srv.into_outcome().report.total, 20_000);
    }

    #[test]
    fn runs_that_shed_everything_report_equal() {
        // No completion: every latency figure is 0, not NaN, so the two
        // reports are `==` as ClassStats promises.
        let models = vec![model(5, 30)];
        let cfg = ServeConfig::new(2);
        let mut trace = trace_for(&models, &cfg, &wl(5, 50.0, 3.0));
        for r in &mut trace {
            r.deadline_ms = r.arrival_ms;
        }
        let run = || serve(&models, &trace, &FaultPlan::none(), &cfg).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.report.completed, 0);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn zero_drift_calibration_is_bit_identical() {
        // Turning calibration on in a drift-free deployment must change
        // nothing: every observation ratio is exactly 1, the planning
        // overlay stays the base table, and the full report — digest
        // included — is equal field for field.
        let models = vec![model(1, 30), model(2, 40)];
        let cfg_off = ServeConfig::new(3);
        let trace = trace_for(&models, &cfg_off, &wl(40, 20.0, 20.0));
        let base = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg_off).unwrap();
        let mut cfg_on = ServeConfig::new(3);
        cfg_on.calibration = Some(CalibrationConfig::default());
        let on = serve_drift(
            &models,
            &trace,
            &FaultPlan::new(vec![]),
            &DriftPlan::none(),
            &cfg_on,
        )
        .unwrap();
        assert_eq!(on.report.drift_alarms, 0);
        assert_eq!(on.report.recalibrations, 0);
        assert_eq!(on.report.cache_invalidations, 0);
        assert_eq!(base.report, on.report);
    }

    #[test]
    fn faults_without_drift_never_alarm_the_calibrator() {
        // A detected fault scales the *known* platform model, so the
        // predicted timeline already includes it: observation ratios
        // stay exactly 1 and the serving history keeps its bits.
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.gpu_repair_ms = 40.0;
        let trace = trace_for(&models, &cfg, &wl(60, 2000.0, 500.0));
        let faults = FaultPlan::single(20.0, FaultKind::GpuFailStop { gpu: 1 });
        let off = serve(&models, &trace, &faults, &cfg).unwrap();
        cfg.calibration = Some(CalibrationConfig::default());
        let on = serve_drift(&models, &trace, &faults, &DriftPlan::none(), &cfg).unwrap();
        assert_eq!(on.report.drift_alarms, 0);
        assert_eq!(off.report.history_digest, on.report.history_digest);
    }

    #[test]
    fn sustained_drift_alarms_recalibrates_and_invalidates() {
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.calibration = Some(CalibrationConfig::default());
        let trace = trace_for(&models, &cfg, &wl(60, 200.0, 50.0));
        // GPU 2 ramps to a sustained 4x slowdown early in the run.
        let drift = DriftPlan::ramp(2, 2.0, 10.0, 1.0, 4.0, 4);
        let out = serve_drift(&models, &trace, &FaultPlan::new(vec![]), &drift, &cfg).unwrap();
        assert_eq!(out.records.len(), 60);
        assert!(out.report.drift_alarms > 0, "sustained drift must alarm");
        assert!(
            out.report.recalibrations > 0,
            "alarms must re-price planning"
        );
        assert!(
            out.report.cache_invalidations > 0,
            "re-pricing must purge stale cached schedules"
        );
        // Replaying the drifted run is still bit-identical.
        let again = serve_drift(&models, &trace, &FaultPlan::new(vec![]), &drift, &cfg).unwrap();
        assert_eq!(out.report.history_digest, again.report.history_digest);
    }

    #[test]
    fn bad_drift_setups_are_typed_errors() {
        let models = vec![model(8, 20)];
        let cfg = ServeConfig::new(2);
        let drift = DriftPlan::ramp(5, 0.0, 1.0, 1.0, 2.0, 2); // unknown GPU
        let err = serve_drift(&models, &[], &FaultPlan::new(vec![]), &drift, &cfg).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scheduler(SchedulerError::BadOptions(_))
        ));
    }

    /// The slot map of the GPUs in `mask` on a healthy `m`-GPU platform,
    /// built as the server builds it.
    fn slot_map(m: usize, mask: u64) -> Arc<SlotMap> {
        let mut breakers = BreakerBank::new(m, BREAKER_RESET_MS);
        for g in (0..m).filter(|&g| mask >> g & 1 == 0) {
            breakers.gpu(g).trip(0.0);
        }
        SlotMap::new(&breakers, &Scaling::identity(m))
    }

    /// Simulations run for memoisable plans: the timeline memos' misses.
    fn simulated(memo: &TimelineMemo) -> u64 {
        memo.per_model.iter().map(|memo| memo.stats().1).sum()
    }

    /// Dispatches answered by a rung that computed a plan.
    fn computed(report: &ServeReport) -> u64 {
        use crate::ladder::Rung;
        [Rung::FullLp, Rung::InterLp, Rung::Greedy]
            .map(|rung| report.rungs[rung.index()])
            .iter()
            .sum()
    }

    #[test]
    fn fault_free_dispatch_simulates_each_plan_once() {
        // 10 000 dispatches of three tenants: the only real simulations
        // are the first dispatch of each plan a tenant was ever served
        // with (its first rung's, then its idle-time upgrade's).  Every
        // other dispatch is a memo hit — and, this being a debug build,
        // each hit was re-simulated and compared bit for bit.
        let models = vec![model(1, 24), model(2, 30), model(3, 36)];
        let cfg = ServeConfig::new(3);
        let trace = trace_for(&models, &cfg, &wl(10_000, 300.0, 40.0));
        let drift = DriftPlan::none();
        let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
        srv.run_trace(&trace);
        let simulated = simulated(&srv.memo);
        let report = srv.into_outcome().report;
        // A plan enters the cache per dispatch that computed one and per
        // idle-time upgrade that won — here every pass run wins (one that
        // lost would enter nothing, and leave the count one short) — and
        // every plan that entered was served: as many simulations as plans.
        let plans = computed(&report) + report.upgrades;
        assert_eq!(simulated, plans, "simulations, plans");
        assert!(
            plans >= models.len() as u64 && plans <= 2 * models.len() as u64,
            "{plans} plans"
        );
        assert_eq!(report.completed, 10_000);
    }

    #[test]
    fn a_timeline_is_keyed_by_its_plan_not_by_equal_content() {
        // A plan recomputed into a new `Arc` is a new plan to the memo:
        // under one mask and one scaling, two `Arc`s of equal content are
        // each simulated into an entry of their own, and a lookup of one
        // never answers with the other's.
        let m = model(5, 40);
        let mut ladder = AnytimeLadder::new(LadderConfig::default());
        let inf = f64::INFINITY;
        let d = ladder.decide(&m.graph, &m.cost, &[true; 3], 0, inf, 0, Policy::GreedyOnly);
        let a = d.unwrap().schedule;
        let b = Arc::new(Schedule::clone(&a));
        let (sim, scale, mask) = (SimConfig::analytical(), Scaling::identity(3), 0b111);
        let key = TimelineKey {
            schedule: Arc::clone(&a),
            alive_mask: mask,
            scale: ScalingBits(scale.clone()),
        };
        assert!(key == (&a, mask, &scale));
        assert!(key != (&b, mask, &scale));

        let mut memo = TimelineMemo::new(1);
        let slots = slot_map(3, mask);
        let mut timeline = |s: &Arc<Schedule>| memo.timeline(0, &m, &sim, s, true, &slots, &scale);
        let (ta, tb) = (timeline(&a).unwrap(), timeline(&b).unwrap());
        assert!(!Arc::ptr_eq(&ta, &tb) && ta.same_bits(&tb));
        assert!(Arc::ptr_eq(&timeline(&b).unwrap(), &tb));
        assert!(!Arc::ptr_eq(&timeline(&a).unwrap(), &tb));
        // `b` displaced `a` under the mask, and `a` displaced `b` back.
        assert_eq!(memo.per_model[0].stats(), (1, 3));
    }

    #[test]
    fn platform_states_are_named_bit_for_bit_and_never_twice() {
        let fail = FaultKind::GpuFailStop { gpu: 2 };
        let heal = FaultKind::GpuHeal { gpu: 2 };
        let mut platform = PlatformModel::healthy(3);
        let healthy = platform.state;
        platform.apply_fault(&fail);
        let down = platform.state;
        assert_ne!(down, healthy);
        // A transient fault leaves the state it found; a flap revisits
        // the two it alternates between.
        platform.apply_fault(&FaultKind::OpHang { op: OpId(0) });
        assert_eq!(platform.state, down);
        for _ in 0..3 {
            platform.apply_fault(&heal);
            assert_eq!(platform.state, healthy);
            platform.apply_fault(&fail);
            assert_eq!(platform.state, down);
        }
        assert_eq!(platform.seen.len(), 2);
        // Compounding slowdowns are new states every time; the table
        // stays bounded, and a state that fell out of it comes back
        // under a new name.
        let mut named = vec![healthy, down];
        for _ in 0..PLATFORM_STATE_SLOTS {
            platform.apply_fault(&FaultKind::GpuSlowdown {
                gpu: 0,
                factor: 1.5,
            });
            assert!(!named.contains(&platform.state));
            named.push(platform.state);
        }
        assert_eq!(platform.seen.len(), PLATFORM_STATE_SLOTS);
        assert_eq!(platform.seen.peek(&platform.scaling), Some(&platform.state));
        platform.apply_fault(&FaultKind::GpuHeal { gpu: 0 });
        assert!(bits(&platform.scaling.0.gpu).eq(bits(&[1.0, 1.0, f64::INFINITY])));
        assert!(!named.contains(&platform.state));
    }

    #[test]
    fn a_verdict_replays_only_on_the_platform_state_it_was_reached_on() {
        // The ladder tests' fixture: on three healthy GPUs greedy loses
        // to the full-LP plan; with GPU 1 at quarter speed it wins.  A
        // hang leaves the healthy state (and its name) as it found it;
        // the slowdown is a new state under a new name, so its re-rank
        // is reached, not replayed.  A replay there — a name issued
        // twice, or the state left out of the verdict's key — would be
        // a wrong verdict, and the table's check fails it.
        use crate::ladder::Rung;
        let m = model(5, 40);
        let mut ladder = AnytimeLadder::new(LadderConfig {
            budget: hios_core::SchedBudget::unlimited(),
            ..LadderConfig::default()
        });
        let alive = [true; 3];
        let inf = f64::INFINITY;
        let first = ladder.decide(&m.graph, &m.cost, &alive, 0, inf, 0, Policy::Anytime);
        assert_eq!(first.unwrap().rung, Rung::FullLp);
        let key = ScheduleCacheKey::for_platform(&m.graph, &alive, &m.cost);
        let mut platform = PlatformModel::healthy(3);
        let sim = SimConfig::analytical();
        let mut changed = Vec::new();
        for kind in [
            FaultKind::OpHang { op: OpId(0) },
            FaultKind::GpuSlowdown {
                gpu: 1,
                factor: 4.0,
            },
        ] {
            platform.apply_fault(&kind);
            let scale = &platform.scaling.0;
            let eval = |slots: &CostTable, schedule: &Schedule| {
                simulate_scaled(&m.graph, slots, schedule, &sim, scale)
                    .map_or(f64::INFINITY, |r| r.makespan)
            };
            let state = platform.state;
            changed.push(ladder.rerank_keyed(&m.graph, &m.cost, &[0, 1, 2], &key, state, eval));
        }
        assert_eq!(changed, [false, true]);
    }

    #[test]
    fn a_flapping_gpu_reranks_each_platform_state_once() {
        // `flapping_gpu_with_link_degrade` of tests/golden_digests.rs, and
        // the same shape ten times longer: GPU 2 flaps and the 0 -> 1
        // link degrades mid-run, so the platform changes on every edge
        // but is only ever in a handful of states.  Each (tenant, alive
        // set, state, incumbent) is ranked once; every other edge replays
        // the verdict — and, this being a debug build, re-reaches it and
        // compares.
        use crate::workload::{ClassMix, generate_trace_with_classes, trace_span_ms};
        use hios_sim::{FaultScript, FlapSpec};
        let models = vec![model(41, 24), model(42, 36), model(43, 48)];
        let tenants = models.len() as u64;
        let cfg = ServeConfig::new(3);
        let nominal: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, cfg.num_gpus))
            .collect();
        let mean_ms = nominal.iter().sum::<f64>() / nominal.len() as f64;
        let drift = DriftPlan::none();
        // (platform changes, distinct platform states, alive masks keyed
        // on, verdicts reached rather than replayed — re-ranks and lost
        // idle upgrades —, history digest).  Every platform change looks
        // its state up once in `seen`, every state but the healthy one was
        // issued a name there, and every alive mask a plan was keyed on
        // holds a platform fingerprint.
        let flapping = |requests: usize, cycles: u32| {
            let trace = generate_trace_with_classes(
                &WorkloadConfig {
                    requests,
                    arrival_rate_rps: 0.18 * 1000.0 / mean_ms,
                    deadline_factor: 60.0,
                    seed: 29,
                },
                &nominal,
                &ClassMix::default(),
            );
            let span = trace_span_ms(&trace);
            let period = span / f64::from(cycles + 2);
            let script = FaultScript {
                flaps: vec![FlapSpec {
                    gpu: 2,
                    first_fail_ms: 0.05 * span,
                    down_ms: 0.15 * period,
                    up_ms: 0.85 * period,
                    cycles,
                }],
                raw: vec![FaultEvent {
                    at_ms: 0.4 * span,
                    kind: FaultKind::LinkDegrade {
                        from: 0,
                        to: 1,
                        factor: 3.0,
                    },
                }],
                ..FaultScript::default()
            };
            let faults = script.compile(&models[0].graph, 3).unwrap();
            let mut srv = Server::build(&models, &faults, &drift, &cfg).unwrap();
            srv.run_trace(&trace);
            let (hits, misses) = srv.platform.seen.stats();
            (
                hits + misses,
                srv.platform.issued + 1,
                srv.keys[0].platform_fps.len() as u64,
                srv.ladder.verdicts_reached(),
                srv.into_outcome().report.history_digest,
            )
        };
        // One greedy pass and two simulations per re-rank reached; a
        // tenant meets an (alive mask, state) point with at most two
        // incumbents (the plan of its first miss and the idle upgrade's),
        // and an idle upgrade that lost there is reached once as well.
        let (changes, states, masks, computed, digest) = flapping(300, 6);
        assert!(
            changes >= 13 && states <= 4 && masks <= 2,
            "{changes} changes, {states} states, {masks} masks"
        );
        assert!(
            computed >= tenants && computed <= 2 * tenants * states * masks,
            "{computed} verdicts reached on {states} states and {masks} masks"
        );
        // `FLAP_LINK_DEGRADE` of tests/golden_digests.rs.
        assert_eq!(digest, 0xea1f_d922_b149_8b8b);

        // Ten times the edges are the same points again.
        let (changes, states, masks, long_run, _) = flapping(3000, 60);
        assert!(
            changes >= 121 && states <= 4 && masks <= 2,
            "{changes} changes, {states} states, {masks} masks"
        );
        assert!(
            long_run <= 2 * tenants * states * masks && 10 * long_run <= changes * tenants,
            "{long_run} verdicts reached on {states} states and {masks} masks for {changes} \
             platform changes"
        );
    }

    #[test]
    fn churning_through_a_store_schedules_validates_and_simulates_each_plan_once() {
        // `plan_churn`'s shape at the size (and with the inputs) of the
        // golden store scenario: six tenants through three cache slots,
        // cold then restart-warm on one log.  Every cache miss after a
        // tenant's first is a re-adoption from the store; none of them
        // may cost an LP pass, a new plan or a simulation — and, this
        // being a debug build, every memo hit on a re-adopted plan was
        // re-simulated and compared bit for bit.
        use crate::ladder::Rung;
        use crate::workload::{ClassMix, generate_trace_with_classes};
        let models: Vec<ServedModel> = (0..6).map(|s| model(60 + s, 30 + 4 * s as usize)).collect();
        let tenants = models.len() as u64;
        let dir = std::env::temp_dir().join(format!("hios-server-churn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.log");
        let _ = std::fs::remove_file(&path);
        let mut cfg = ServeConfig::new(3);
        cfg.ladder.cache_capacity = 3;
        cfg.store = Some(StoreConfig::at(&path));
        let nominal: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, cfg.num_gpus))
            .collect();
        let mean_ms = nominal.iter().sum::<f64>() / nominal.len() as f64;
        let mut trace = generate_trace_with_classes(
            &WorkloadConfig {
                requests: 240,
                arrival_rate_rps: 0.12 * 1000.0 / mean_ms,
                deadline_factor: 40.0,
                seed: 29,
            },
            &nominal,
            &ClassMix::default(),
        );
        const POPULARITY: [usize; 16] = [0, 1, 0, 2, 0, 1, 3, 0, 4, 1, 0, 5, 2, 0, 1, 3];
        for (i, r) in trace.iter_mut().enumerate() {
            r.model = POPULARITY[i % POPULARITY.len()];
            r.deadline_ms = r.arrival_ms + 40.0 * nominal[r.model];
        }
        let drift = DriftPlan::none();
        let mut upgrades = Vec::new();
        let mut digests = Vec::new();
        for _phase in ["cold", "warm"] {
            let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
            srv.run_trace(&trace);
            let simulated = simulated(&srv.memo);
            let report = srv.into_outcome().report;
            // Plans are computed, upgraded or read from the log at open;
            // the store hands a re-adopted plan back as the plan it was.
            let loaded = report.store_recovery.records_loaded as u64;
            let plans = computed(&report) + report.upgrades + loaded;
            assert!(plans <= 2 * tenants, "{plans} plans");
            assert!(simulated <= plans, "{simulated} simulations, {plans} plans");
            assert!(report.rungs[Rung::Store.index()] > 100 && report.cache_evictions > 100);
            upgrades.push(report.upgrades);
            digests.push(report.history_digest);
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(upgrades[0] <= tenants, "{upgrades:?}");
        assert_eq!(
            upgrades[1], 0,
            "a restart re-derives nothing the log recorded"
        );
        // `STORE_COLD` / `STORE_WARM` of tests/golden_digests.rs.
        assert_eq!(digests, [0xf954_6eeb_ad9b_0118, 0x478b_d296_ba67_f2fe]);
    }

    #[test]
    fn ramp_drift_degrades_to_simulating_within_the_memo_bound() {
        // GPU 2's speed changes every few dispatches, so most dispatches
        // miss the memo and simulate as they always did; what must hold
        // is the bound (the table evicts at it; the test reads its size).
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.calibration = Some(CalibrationConfig::default());
        let trace = trace_for(&models, &cfg, &wl(600, 200.0, 50.0));
        let span = trace.last().unwrap().arrival_ms;
        let drift = DriftPlan::ramp(2, 0.0, span, 1.0, 4.0, 300);
        let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
        srv.run_trace(&trace);
        assert_eq!(srv.memo.per_model[0].len(), TIMELINE_MEMO_SLOTS);
        assert!(simulated(&srv.memo) > 200, "{}", simulated(&srv.memo));
        assert!(srv.into_outcome().report.recalibrations > 0);
    }

    #[test]
    fn lessons_teach_like_an_operator_by_operator_feed() {
        // The lesson memo against the feed it replaced, which observed
        // every operator of every clean completion in schedule order: the
        // same alarms after every completion, and the same calibrator,
        // field for field, at every refresh.  GPUs 0 and 1 drift in turns,
        // so a cell one lesson drifted is still settling while another
        // lesson teaches it nominally; three plans, two of them under two
        // serving masks that share timelines, three equal nominal
        // timelines per plan (as a re-simulation after a timeline-memo
        // eviction makes them), and mismatched actual/predicted pairs make
        // more lessons than the memo keeps, nominal ones included.
        use hios_core::{SchedulerOptions, run_scheduler};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = model(3, 36);
        let sim = SimConfig::analytical();
        let plans: Vec<(Arc<Schedule>, Vec<u64>)> = [
            (Algorithm::HiosLp, 3, vec![0b111]),
            (Algorithm::HiosMr, 3, vec![0b111]),
            (Algorithm::HiosLp, 2, vec![0b011, 0b110]),
        ]
        .into_iter()
        .map(|(algo, gpus, masks)| {
            let opts = SchedulerOptions::new(gpus);
            let plan = run_scheduler(algo, &m.graph, &m.cost, &opts).unwrap();
            (Arc::new(plan.schedule), masks)
        })
        .collect();
        // Per plan: the nominal timeline, slot 0 slow, slot 1 slow, slot 0
        // fast, and two more nominal ones.
        let timelines: Vec<Vec<Arc<Timeline>>> = plans
            .iter()
            .map(|(schedule, _)| {
                let slots = schedule.gpus.len();
                [(0, 1.0), (0, 2.5), (1, 1.7), (0, 0.5), (0, 1.0), (0, 1.0)]
                    .iter()
                    .map(|&(slot, factor)| {
                        let mut scale = Scaling::identity(slots);
                        scale.gpu[slot] = factor;
                        let r = simulate_scaled(&m.graph, &m.cost, schedule, &sim, &scale).unwrap();
                        Arc::new(Timeline {
                            makespan: r.makespan,
                            op_start: r.op_start,
                            op_finish: r.op_finish,
                        })
                    })
                    .collect()
            })
            .collect();
        let mut state = CalibState {
            cal: Calibrator::new(3, m.graph.num_ops()),
            table: CalibratedTable::new(m.cost.clone(), 3),
            lessons: Lru::new(LESSON_MEMO_SLOTS),
            spare: Observations::default(),
        };
        let mut reference = Calibrator::new(3, m.graph.num_ops());
        let mut reference_table = CalibratedTable::new(m.cost.clone(), 3);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut alarms_total, mut refreshes) = (0, 0);
        let mut lessons = std::collections::HashSet::new();
        for step in 0..1200 {
            // Drift changes every 60 completions: none, GPU 0 slow, none,
            // GPU 1 slow, none, GPU 0 fast, …
            let drift = [0, 1, 0, 2, 0, 3][step / 60 % 6];
            let p = rng.random_range(0..plans.len());
            let (schedule, masks) = &plans[p];
            let serving = slot_map(3, masks[rng.random_range(0..masks.len())]);
            let nominal = [0, 4, 5][rng.random_range(0..3usize)];
            let (mut actual, mut predicted) = (if drift == 0 { nominal } else { drift }, nominal);
            if rng.random_range(0..10u32) == 0 {
                (actual, predicted) = (nominal, rng.random_range(1..4));
            }
            lessons.insert((p, serving.mask, actual, predicted));
            let (actual, predicted) = (&timelines[p][actual], &timelines[p][predicted]);
            let alarms = state.learn(LessonKey {
                schedule: Arc::clone(schedule),
                actual: Arc::clone(actual),
                predicted: Arc::clone(predicted),
                serving: Arc::clone(&serving),
            });
            let mut expected = 0;
            for (slot, gq) in schedule.gpus.iter().enumerate() {
                let gpu = serving.gpu_map[slot];
                for &op in gq.stages.iter().flat_map(|stage| &stage.ops) {
                    let v = op.index();
                    let observed_ms = actual.op_finish[v] - actual.op_start[v];
                    let predicted_ms = predicted.op_finish[v] - predicted.op_start[v];
                    if let Ok(Some(_)) = reference.observe(gpu, op, observed_ms, predicted_ms) {
                        expected += 1;
                    }
                }
            }
            assert_eq!(alarms, expected, "alarms of completion {step}");
            alarms_total += alarms;
            if alarms > 0 || step % 97 == 0 {
                refreshes += 1;
                assert_eq!(state.refresh(), reference_table.refresh(&reference));
                assert_eq!(format!("{:?}", state.cal), format!("{reference:?}"));
            }
        }
        assert!(
            alarms_total >= 3 && refreshes >= 15,
            "{alarms_total} alarms"
        );
        assert!(
            lessons.len() > 2 * LESSON_MEMO_SLOTS,
            "{} lessons",
            lessons.len()
        );
    }

    #[test]
    fn a_lesson_is_taught_on_the_slots_its_attempt_ran_on() {
        // GPU 1 is quarantined when the only request dispatches, so its
        // plan runs on GPUs 0 and 2, and GPU 2 runs slow.  A probe closes
        // GPU 1's breaker while the attempt is in flight, so the server's
        // slots are all three GPUs when it completes: its drifted
        // observations must still land on GPU 2, and GPU 1's cells must
        // stay untouched.
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.calibration = Some(CalibrationConfig::default());
        cfg.gpu_repair_ms = 1.0;
        let faults = FaultPlan::single(0.0, FaultKind::GpuFailStop { gpu: 1 });
        let drift = DriftPlan::ramp(2, 0.0, 1.0, 2.0, 2.0, 1);
        let mut srv = Server::build(&models, &faults, &drift, &cfg).unwrap();
        assert!(srv.step() && !srv.breakers.peek(1).admits());
        let at = srv.next_event_ms().unwrap() - 0.01;
        inject(&mut srv, gold(0, at), at);
        let serving = Arc::clone(&srv.in_flight.as_ref().unwrap().serving);
        assert_eq!(serving.gpu_map, [0, 2]);
        assert!(srv.step(), "the probe");
        assert!(srv.breakers.peek(1).admits() && srv.in_flight.is_some());
        assert_eq!(srv.slots().gpu_map, [0, 1, 2]);
        while srv.step() {}
        let records = handed_off(&srv);
        assert!(matches!(
            records[..],
            [RequestRecord {
                disposition: Disposition::Completed { attempts: 1, .. },
                ..
            }]
        ));
        let cal = &srv.calib[0].cal;
        let ops = || (0..models[0].graph.num_ops()).map(|v| OpId(v as u32));
        assert!(
            ops().all(|op| cal.correction(1, op) == 1.0),
            "GPU 1 was taught"
        );
        assert!(
            ops().any(|op| cal.correction(2, op) != 1.0),
            "GPU 2 was not"
        );
    }

    #[test]
    fn policies_share_admission_but_differ_in_scheduling() {
        let models = vec![model(9, 40)];
        let trace;
        {
            let cfg = ServeConfig::new(3);
            trace = trace_for(&models, &cfg, &wl(30, 100.0, 12.0));
        }
        let mut digests = Vec::new();
        for policy in [Policy::Anytime, Policy::FixedFullLp, Policy::GreedyOnly] {
            let mut cfg = ServeConfig::new(3);
            cfg.policy = policy;
            let out = serve(&models, &trace, &FaultPlan::new(vec![]), &cfg).unwrap();
            assert_eq!(out.records.len(), 30);
            digests.push(out.report.history_digest);
        }
        assert_ne!(digests[0], digests[1]);
        assert_ne!(digests[0], digests[2]);
    }
}
