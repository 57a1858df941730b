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
//! * **Dispatch** — the anytime ladder ([`crate::ladder`]) produces a
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
    AnytimeLadder, Chosen, LadderConfig, PlatformState, Policy, RungCap, greedy_cost_ms, slot_cost,
};
use crate::report::{ReportInputs, ServeReport, summarize};
use crate::request::{Disposition, Request, RequestRecord, ServeError, ShedReason};
use crate::retry::{self, RetryBudget};
use hios_core::repair::{RepairConfig, RepairPolicy, repair_schedule};
use hios_core::{
    Algorithm, EvalWorkspace, Schedule, ScheduleCacheKey, SchedulerError, bounds,
    graph_fingerprint, modeled_sched_cost_ms,
};
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
    /// bit-identical to leaving it off.
    pub calibration: Option<CalibrationConfig>,
    /// Durable plan store: `Some` opens (and crash-recovers) the
    /// append-only plan log at startup and gives the anytime ladder a
    /// warm-start rung below the memory cache; `None` serves from the
    /// memory cache alone.  Store corruption can only cost warm starts,
    /// never serve a wrong plan.
    pub store: Option<StoreConfig>,
    /// Overload hardening: `Some` attaches the hysteresis brownout
    /// controller ([`crate::brownout`]) and the global retry budget;
    /// `None` admits everything until the queue overflows.  A controller
    /// that never leaves Normal level (no overload, no faults) is
    /// bit-identical to `None`.
    pub overload: Option<OverloadConfig>,
    /// Execution-engine semantics.
    pub sim: SimConfig,
}

/// Delay between a hang being detected and the watchdog converting it
/// into a typed [`ServeError::WatchdogTimeout`], ms.
const WATCHDOG_MS: f64 = 5.0;

/// Initial breaker reset timeout, ms (doubles on each failed probe).
const BREAKER_RESET_MS: f64 = 20.0;

/// Where the durable plan log lives and how it behaves.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Path of the append-only plan log file.
    pub path: PathBuf,
    /// Store knobs (delta-chain depth bound).
    pub options: StoreOptions,
}

impl StoreConfig {
    /// A store at `path` with default options.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            path: path.into(),
            options: StoreOptions::default(),
        }
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

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    FaultDetected(usize),
    Completion { token: u64 },
    Watchdog { token: u64 },
    BreakerProbe { gpu: usize },
    Retry { req: usize },
}

struct InFlight {
    req: usize,
    token: u64,
    /// Bit `g` set ⇔ physical GPU `g` serves this attempt.
    serving: u64,
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

/// Timelines kept per model.  Two cover the steady state (the plan in
/// service under the fault-only and under the drifted scaling), a
/// flapping GPU doubles that (two alive sets, two plans), and a platform
/// change leaves the old scaling's entries to age out.
const TIMELINE_MEMO_SLOTS: usize = 8;

/// One memoised [`simulate_scaled`] run.
struct Memoised {
    plan_id: u64,
    alive_mask: u64,
    scale: Scaling,
    timeline: Arc<Timeline>,
}

/// Dispatch is a replay: `simulate_scaled(graph, cost, schedule, sim,
/// scaling)` is a pure function from t = 0, and for one server the
/// graph, the execution cost table and the sim config are fixed per
/// model — so per model, (which schedule, which scaling) names its
/// result exactly.  The schedule is named by its
/// [`crate::ladder::CachedPlan::plan_id`] — never issued for a second
/// schedule, and kept by a plan that leaves the cache and comes back
/// from the store — so nothing ever has to be invalidated: a replaced
/// plan's id simply stops being asked for.  The
/// scaling is held and compared bit for bit.  The alive mask says which
/// cache slot the plan came from: the ladder keeps one plan per (model,
/// alive set), so a new plan id under a mask means the mask's older ids
/// are dead, and their timelines are dropped rather than left to age
/// out (a tenant churning through a small cache would otherwise pin
/// [`TIMELINE_MEMO_SLOTS`] dead timelines).
///
/// Only the two per-request simulations go through here (the dispatch
/// itself and the calibrator's drift-free prediction of it).  Re-pricing,
/// repair resumes and the fixed-policy baselines simulate directly: they
/// run per fault or per scheduling pass, on tables or schedules that are
/// not cached plans.
struct TimelineMemo {
    /// Most recently used first, at most [`TIMELINE_MEMO_SLOTS`] each.
    per_model: Vec<Vec<Memoised>>,
    /// Simulations actually run for memoisable plans (the misses).
    #[cfg(test)]
    simulated: u64,
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two scalings are the same bit for bit (never hashed, never
/// compared with `==`: `-0.0`, NaN payloads and `+∞` stay distinct).
fn same_scaling(a: &Scaling, b: &Scaling) -> bool {
    bits_eq(&a.gpu, &b.gpu) && bits_eq(&a.link, &b.link)
}

impl TimelineMemo {
    fn new(models: usize) -> Self {
        TimelineMemo {
            per_model: (0..models).map(|_| Vec::new()).collect(),
            #[cfg(test)]
            simulated: 0,
        }
    }

    /// The timeline of `schedule` (cached plan `plan_id`, or a one-off
    /// schedule when `None`) for model `mi` under `scale`; `None` when
    /// it cannot run to a finite finish (an operator on a dead GPU, a
    /// transfer over a stalled link).
    #[allow(clippy::too_many_arguments)]
    fn timeline(
        &mut self,
        mi: usize,
        model: &ServedModel,
        sim: &SimConfig,
        schedule: &Schedule,
        plan_id: Option<u64>,
        alive_mask: u64,
        scale: &Scaling,
    ) -> Option<Arc<Timeline>> {
        let simulate = || {
            let r = simulate_scaled(&model.graph, &model.cost, schedule, sim, scale).ok()?;
            r.makespan.is_finite().then_some(Timeline {
                makespan: r.makespan,
                op_start: r.op_start,
                op_finish: r.op_finish,
            })
        };
        let Some(plan_id) = plan_id else {
            return simulate().map(Arc::new);
        };
        let slots = &mut self.per_model[mi];
        let hit = slots.iter().position(|t| {
            t.plan_id == plan_id && t.alive_mask == alive_mask && same_scaling(&t.scale, scale)
        });
        if let Some(i) = hit {
            slots[..=i].rotate_right(1);
            let timeline = &slots[0].timeline;
            // The memo's check: debug builds (every `cargo test`) re-run
            // each hit and compare bits; release builds pay nothing.
            if cfg!(debug_assertions) {
                let fresh = simulate().expect("a memoised timeline simulates");
                debug_assert!(
                    fresh.makespan.to_bits() == timeline.makespan.to_bits()
                        && bits_eq(&fresh.op_start, &timeline.op_start)
                        && bits_eq(&fresh.op_finish, &timeline.op_finish),
                    "memoised timeline of model {mi} plan {plan_id} diverged from simulate_scaled"
                );
            }
            return Some(Arc::clone(timeline));
        }
        #[cfg(test)]
        {
            self.simulated += 1;
        }
        let timeline = Arc::new(simulate()?);
        slots.retain(|t| t.alive_mask != alive_mask || t.plan_id == plan_id);
        slots.truncate(TIMELINE_MEMO_SLOTS - 1);
        slots.insert(
            0,
            Memoised {
                plan_id,
                alive_mask,
                scale: scale.clone(),
                timeline: Arc::clone(&timeline),
            },
        );
        debug_assert!(slots.len() <= TIMELINE_MEMO_SLOTS);
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
/// names what `eval` returns.  States are interned bit for bit, most
/// recent first; a name is never issued twice, so a state that fell out
/// of the table and comes back is a new one and the verdicts reached on
/// its old name age out of the ladder unasked.
struct PlatformModel {
    scaling: Scaling,
    /// `(state, name)`; the head is `scaling`'s.
    seen: Vec<(Scaling, PlatformState)>,
    issued: u64,
}

impl PlatformModel {
    fn healthy(m: usize) -> Self {
        let scaling = Scaling::identity(m);
        PlatformModel {
            seen: vec![(scaling.clone(), PlatformState(0))],
            scaling,
            issued: 0,
        }
    }

    /// Name of the state the platform is in.
    fn state(&self) -> PlatformState {
        self.seen[0].1
    }

    /// Folds the lasting effect of a detected fault (or a heal) into the
    /// platform and names the state it leaves.
    fn apply_fault(&mut self, kind: &FaultKind) {
        self.scaling.apply_fault(kind);
        let now = &self.scaling;
        match self.seen.iter().position(|(s, _)| same_scaling(s, now)) {
            Some(i) => self.seen[..=i].rotate_right(1),
            None => {
                self.issued += 1;
                self.seen.truncate(PLATFORM_STATE_SLOTS - 1);
                self.seen
                    .insert(0, (now.clone(), PlatformState(self.issued)));
            }
        }
    }
}

/// Cache-key parts of one model that cost O(model size) to derive and
/// change rarely: taken once, not once per dispatch.
struct ModelKeys {
    /// [`graph_fingerprint`] of the model, taken in [`Server::build`].
    graph_fp: u64,
    /// `(alive mask, platform fingerprint of the planning table priced
    /// on those slots)` under the model's current calibration epoch;
    /// cleared when the epoch is bumped.  Oldest first, at most
    /// [`PLATFORM_FP_SLOTS`].
    platform_fps: Vec<(u64, u64)>,
}

/// Alive masks whose platform fingerprint is kept per model and epoch
/// (breakers move between a handful of masks; a miss only recomputes).
const PLATFORM_FP_SLOTS: usize = 8;

/// What every attempt derives from the breakers and the platform, kept
/// so the dispatch path refills it instead of allocating it.
struct Slots {
    /// Per-GPU admission mask (breaker closed or half-open).
    alive: Vec<bool>,
    /// `alive` as bits.
    mask: u64,
    /// Slot → physical GPU of `alive`
    /// ([`hios_core::repair::alive_slots`] numbering).
    gpu_map: Vec<usize>,
    /// The known-fault scaling projected onto the slots …
    fault_scale: Scaling,
    /// … and with the drift of the run's start instant multiplied in.
    slot_scale: Scaling,
}

impl Slots {
    fn new(m: usize) -> Self {
        Slots {
            alive: Vec::with_capacity(m),
            mask: 0,
            gpu_map: Vec::with_capacity(m),
            fault_scale: Scaling::identity(0),
            slot_scale: Scaling::identity(0),
        }
    }

    /// Re-reads the breakers; `false` when none admits work.
    fn refresh(&mut self, breakers: &BreakerBank) -> bool {
        self.alive.clear();
        self.gpu_map.clear();
        self.mask = 0;
        for g in 0..breakers.len() {
            let admits = breakers.peek(g).admits();
            self.alive.push(admits);
            if admits {
                self.gpu_map.push(g);
                self.mask |= 1 << g;
            }
        }
        !self.gpu_map.is_empty()
    }

    /// Prices a run over the current slots from instant `t_ms` on the
    /// platform as it is: `fault_scale` is `platform` projected onto the
    /// slots, `slot_scale` the same with the drift factors of `t_ms`
    /// multiplied in.  With no drift every factor is exactly `1.0` and
    /// `x * 1.0` is a bitwise identity, so drift-free runs keep their
    /// bits.
    fn scale(&mut self, platform: &Scaling, drift: &DriftPlan, t_ms: f64) {
        platform.project_into(&self.gpu_map, &mut self.fault_scale);
        self.slot_scale.gpu.clone_from(&self.fault_scale.gpu);
        self.slot_scale.link.clone_from(&self.fault_scale.link);
        for (slot, &phys) in self.gpu_map.iter().enumerate() {
            self.slot_scale.gpu[slot] *= drift.factor_at(phys, t_ms);
        }
    }
}

/// Per-model calibration state: the learning calibrator plus the
/// materialized planning overlay the ladder schedules on.
struct CalibState {
    cal: Calibrator,
    table: CalibratedTable,
}

struct ReqState {
    request: Request,
    attempts: u32,
    repairs: u32,
    /// Set by the fleet layer when a hedged twin won or a failover
    /// drained this copy: pending events for it become no-ops and it
    /// produces no terminal record.  Never set in single-cluster runs.
    cancelled: bool,
    /// A backoff timer holds this request (it sits in the event queue,
    /// not the FIFO); a fleet drain must collect it from here.
    retry_pending: bool,
}

impl ReqState {
    fn fresh(request: Request) -> Self {
        ReqState {
            request,
            attempts: 0,
            repairs: 0,
            cancelled: false,
            retry_pending: false,
        }
    }
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
    states: Vec<ReqState>,
    signals: Vec<FaultSignal>,
    /// `signals` is sorted by both `at_ms` and `detected_ms` (what
    /// [`FaultPlan::signals`] yields for a sorted plan), so the ones a
    /// completion must inspect are one contiguous run.
    signals_sorted: bool,
    /// First signal not yet detected strictly before now; only advanced
    /// while `signals_sorted`.
    first_live_signal: usize,
    next_token: u64,
    in_flight: Option<InFlight>,
    breakers: BreakerBank,
    slots: Slots,
    keys: Vec<ModelKeys>,
    memo: TimelineMemo,
    overload: Option<OverloadState>,
    platform: PlatformModel,
    /// `(alive mask, platform state)` of every platform-change re-rank.
    #[cfg(test)]
    reranked_on: Vec<(u64, PlatformState)>,
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
    records: Vec<RequestRecord>,
    /// State index of each record, in push order — the fleet layer maps
    /// terminal records back to its own request copies through this
    /// (request ids alone are ambiguous: a hedged twin shares its id).
    terminal_idx: Vec<usize>,
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
/// history digest — on every run and at every `RAYON_NUM_THREADS`.
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
/// plans — a budget-bounded warm-started re-schedule on the anytime
/// ladder.  An empty drift plan reproduces [`serve`] bit-for-bit, with
/// or without calibration.
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
    // `ScheduleCache::with_capacity` asserts on it.  (`ladder.window` 0
    // needs no check: the intra-GPU pass returns its input below 2.)
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
    if let Some(ccfg) = &cfg.calibration {
        if let Err(msg) = ccfg.validate() {
            return bad(format!("calibration: {msg}"));
        }
    }
    if let Some(oc) = &cfg.overload {
        if let Err(msg) = oc.validate() {
            return bad(format!("overload: {msg}"));
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
        let calib: Vec<CalibState> = match &cfg.calibration {
            Some(ccfg) => models
                .iter()
                .map(|model| CalibState {
                    cal: Calibrator::new(m, model.graph.num_ops(), *ccfg),
                    table: CalibratedTable::new(model.cost.clone(), m),
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
            let store = PlanStore::open(&sc.path, sc.options).map_err(ServeError::Store)?;
            ladder.attach_store(store);
        }
        let signals = faults.signals(cfg.detection_ms);
        let signals_sorted = signals
            .windows(2)
            .all(|w| w[0].at_ms <= w[1].at_ms && w[0].detected_ms <= w[1].detected_ms);
        debug_assert!(signals_sorted, "fault plan events are not in time order");
        let mut events = EventQueue::new();
        for (s, sig) in signals.iter().enumerate() {
            events.push(sig.detected_ms, Event::FaultDetected(s));
        }
        Ok(Server {
            models,
            cfg,
            drift,
            calib,
            clock: VirtualClock::new(),
            events,
            queue: VecDeque::new(),
            states: Vec::new(),
            signals,
            signals_sorted,
            first_live_signal: 0,
            next_token: 0,
            in_flight: None,
            breakers: BreakerBank::new(m, BREAKER_RESET_MS),
            slots: Slots::new(m),
            keys: models
                .iter()
                .map(|model| ModelKeys {
                    graph_fp: graph_fingerprint(&model.graph),
                    platform_fps: Vec::new(),
                })
                .collect(),
            memo: TimelineMemo::new(models.len()),
            overload: cfg.overload.map(|oc| OverloadState {
                ctl: BrownoutController::new(oc.brownout),
                budget: RetryBudget::new(oc.retry_budget),
            }),
            platform: PlatformModel::healthy(m),
            #[cfg(test)]
            reranked_on: Vec::new(),
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
            records: Vec::new(),
            terminal_idx: Vec::new(),
            attempts_total: 0,
            repairs_total: 0,
            alarms_total: 0,
            recalibrations_total: 0,
            cache_drops_total: 0,
        })
    }

    /// Serves `trace` to the end: every request injected at its arrival
    /// instant, every event stepped.
    fn run_trace(&mut self, trace: &[Request]) {
        self.states.reserve(trace.len());
        self.records.reserve(trace.len());
        self.terminal_idx.reserve(trace.len());
        // Requests arrive by instant, trace position among equal instants
        // (the sort is stable), so an unsorted trace serves like its
        // sorted self.
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by(|&a, &b| trace[a].arrival_ms.total_cmp(&trace[b].arrival_ms));
        let mut arrivals = order.into_iter().map(|i| trace[i]).peekable();
        loop {
            // An arrival due no later than the next scheduled event is
            // admitted before it.
            let next_event = self.next_event_ms();
            let due = |r: &Request| next_event.is_none_or(|t| r.arrival_ms.total_cmp(&t).is_le());
            if let Some(r) = arrivals.next_if(due) {
                self.inject(r, r.arrival_ms);
            } else if !self.step() {
                break;
            }
        }
    }

    /// Processes the next scheduled event; `false` when none remain.
    pub(crate) fn step(&mut self) -> bool {
        match self.events.pop() {
            Some((t, ev)) => {
                self.clock.advance_to(t);
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// Instant of the next scheduled event, if any.
    pub(crate) fn next_event_ms(&self) -> Option<f64> {
        self.events.peek_time()
    }

    /// Tears the drained loop down into its outcome.
    pub(crate) fn into_outcome(mut self) -> ServeOutcome {
        debug_assert!(self.queue.is_empty(), "drained loop left queued requests");
        debug_assert!(self.in_flight.is_none(), "drained loop left in-flight work");
        let mut records = self.records;
        records.sort_by_key(|r| r.request.id);
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
    // the fleet additionally withdraws work (`cancel`, `drain`) and reads
    // terminal records back through the `(terminal_idx, records)`
    // watermark.

    /// Admits `request` as if it arrived at `now_ms` (the cluster clock
    /// advances there first) and returns its state index.  The index —
    /// not the request id — names this copy in later records: a hedged
    /// twin shares the id but never the index.
    pub(crate) fn inject(&mut self, request: Request, now_ms: f64) -> usize {
        self.clock.advance_to(now_ms);
        let i = self.states.len();
        self.states.push(ReqState::fresh(request));
        self.on_arrival(i);
        i
    }

    /// Advances the cluster clock without processing anything — so a
    /// fleet-level action (a drain at a kill instant, a hedge-twin
    /// cancel) is charged to the instant it logically happens at.
    pub(crate) fn touch(&mut self, now_ms: f64) {
        self.clock.advance_to(now_ms);
    }

    /// Withdraws request `i` without a terminal record (its fate is
    /// owned elsewhere — a hedged twin completed, or a failover already
    /// re-routed it).  Pending events for it become no-ops; freed
    /// backend capacity is re-dispatched immediately.
    pub(crate) fn cancel(&mut self, i: usize) {
        if self.states[i].cancelled {
            return;
        }
        self.states[i].cancelled = true;
        if let Some(pos) = self.queue.iter().position(|&q| q == i) {
            self.queue.remove(pos);
            return;
        }
        if self.in_flight.as_ref().is_some_and(|fl| fl.req == i) {
            // The scheduled Completion/Watchdog event goes stale with the
            // in-flight slot cleared.
            self.in_flight = None;
            self.try_dispatch();
        }
        // A retry-pending request needs nothing more: `on_retry` checks
        // the cancelled flag when its backoff timer fires.
    }

    /// Withdraws every live request — queued (FIFO order), in-flight,
    /// then retry-pending (state order) — marking each cancelled, and
    /// returns them for re-routing.  Used when the cluster dies; the
    /// loop's remaining events are then abandoned unstepped.
    pub(crate) fn drain(&mut self) -> Vec<(usize, Request)> {
        let mut out: Vec<(usize, Request)> = self
            .queue
            .iter()
            .map(|&i| (i, self.states[i].request))
            .collect();
        self.queue.clear();
        if let Some(fl) = self.in_flight.take() {
            out.push((fl.req, self.states[fl.req].request));
        }
        for (i, st) in self.states.iter().enumerate() {
            if st.retry_pending && !st.cancelled {
                out.push((i, st.request));
            }
        }
        for &(i, _) in &out {
            self.states[i].cancelled = true;
            self.states[i].retry_pending = false;
        }
        out
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

    /// Terminal records produced so far, in push order, with the state
    /// index of each.
    pub(crate) fn outcomes(&self) -> (&[usize], &[RequestRecord]) {
        (&self.terminal_idx, &self.records)
    }

    fn now(&self) -> f64 {
        self.clock.now_ms()
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::FaultDetected(s) => self.on_fault(s),
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
        (bound_finish_ms > req.deadline_ms).then_some(ShedReason::DeadlineUnmeetable {
            bound_finish_ms,
            deadline_ms: req.deadline_ms,
        })
    }

    fn shed(&mut self, i: usize, reason: ShedReason) {
        // Brownout sheds are the controller's *own* output; feeding them
        // back as misses would hold pressure up and lock the deepest
        // level in place after the load drops.  Every other shed is a
        // genuine miss signal.
        let brownout_shed = matches!(reason, ShedReason::Brownout { .. });
        self.terminal_idx.push(i);
        self.records.push(RequestRecord {
            request: self.states[i].request,
            disposition: Disposition::Shed {
                at_ms: self.now(),
                reason,
            },
        });
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
            if !self.slots.refresh(&self.breakers) {
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
        let mask = self.slots.mask;
        let keys = &mut self.keys[mi];
        let known = keys.platform_fps.iter().find(|&&(m, _)| m == mask);
        let platform_fp = match known {
            Some(&(_, fp)) => fp,
            None => {
                let planning = planning_table(&self.calib, &self.models[mi], mi);
                let fp = slot_cost(planning, &self.slots.gpu_map).platform_fingerprint();
                if keys.platform_fps.len() == PLATFORM_FP_SLOTS {
                    keys.platform_fps.remove(0);
                }
                keys.platform_fps.push((mask, fp));
                fp
            }
        };
        ScheduleCacheKey::from_fingerprints(keys.graph_fp, &self.slots.alive, platform_fp)
    }

    /// Starts `chosen` for model `mi` at instant `t0` on the slots in
    /// `self.slots`, on the platform as it is: the known-fault scaling
    /// with the drift of `t0` multiplied in.  `None` when the plan cannot
    /// run to a finite finish.  With calibration on, also takes the
    /// timeline the profile predicts (the same plan without the drift
    /// factors).  Both timelines come from the memo.
    fn launch(&mut self, mi: usize, chosen: Chosen, t0: f64) -> Option<(Attempt, f64)> {
        self.slots.scale(&self.platform.scaling, self.drift, t0);
        let (schedule, plan_id) = (chosen.schedule, chosen.plan_id);
        let (model, sim, slots) = (&self.models[mi], &self.cfg.sim, &self.slots);
        let memo = &mut self.memo;
        let mut timeline =
            |scale| memo.timeline(mi, model, sim, &schedule, plan_id, slots.mask, scale);
        let actual = timeline(&slots.slot_scale)?;
        let predicted = if self.calib.is_empty() {
            None
        } else if slots.slot_scale.gpu == slots.fault_scale.gpu {
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
            serving: self.slots.mask,
            run,
            hung_op: None,
        });
        self.events.push(finish_ms, Event::Completion { token });
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

    /// Feeds a cleanly completed attempt into model `mi`'s calibrator:
    /// per operator of `schedule` (slot by slot, stage by stage), the
    /// duration the drifted backend actually took next to the duration
    /// the profile predicted, on the physical GPU `serving` maps the
    /// slot to.  When an observation raises a drift alarm the cell is
    /// quarantined; the planning overlay is then re-materialized, every
    /// schedule-cache entry priced against the stale platform is purged,
    /// and the cached plans are re-ranked on the new prices — the
    /// budget-bounded re-schedule itself happens lazily, on the next
    /// dispatch's cache miss, through the anytime ladder.
    fn feed_observations(
        &mut self,
        mi: usize,
        serving: u64,
        schedule: &Schedule,
        actual: &Timeline,
        predicted: &Timeline,
    ) {
        let mut alarmed = false;
        let mut unmapped = serving;
        for gq in &schedule.gpus {
            // Slots number the serving GPUs in ascending order.
            let gpu = unmapped.trailing_zeros() as usize;
            unmapped &= unmapped.wrapping_sub(1);
            for &op in gq.stages.iter().flat_map(|stage| &stage.ops) {
                let v = op.index();
                let actual_ms = actual.op_finish[v] - actual.op_start[v];
                let predicted_ms = predicted.op_finish[v] - predicted.op_start[v];
                // Unusable durations (a zero-cost stub, a saturated
                // float) are typed rejections that leave the calibrator
                // untouched.
                if let Ok(Some(_alarm)) =
                    self.calib[mi].cal.observe(gpu, op, actual_ms, predicted_ms)
                {
                    self.alarms_total += 1;
                    alarmed = true;
                }
            }
        }
        if !alarmed {
            return;
        }
        let changed = {
            let state = &mut self.calib[mi];
            state.table.refresh(&state.cal)
        };
        if changed {
            self.recalibrations_total += 1;
            self.epochs[mi] += 1;
            // The planning table moved: its fingerprints are stale.
            self.keys[mi].platform_fps.clear();
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
        } = &fl.run
        {
            self.feed_observations(mi, fl.serving, schedule, actual, predicted);
        }
        self.idle_work();
    }

    fn complete(&mut self, i: usize) {
        let st = &self.states[i];
        let now = self.now();
        let met_deadline = now <= st.request.deadline_ms;
        self.terminal_idx.push(i);
        self.records.push(RequestRecord {
            request: st.request,
            disposition: Disposition::Completed {
                finish_ms: now,
                latency_ms: now - st.request.arrival_ms,
                attempts: st.attempts,
                met_deadline,
                repairs: st.repairs,
            },
        });
        let fill = self.queue_fill();
        if let Some(ov) = &mut self.overload {
            ov.ctl.observe_outcome(now, !met_deadline, fill);
        }
    }

    /// Folds a detected fault (or a heal) into the platform model, then
    /// re-ranks every model's cached plan for the current alive set
    /// against a greedy candidate on the state that leaves: the
    /// nominally-best cached plan may lean on hardware that just
    /// degraded — or hardware that just came back.
    fn platform_fault(&mut self, kind: &FaultKind) {
        self.platform.apply_fault(kind);
        for mi in 0..self.models.len() {
            self.reprice(mi, false);
        }
        #[cfg(test)]
        self.reranked_on
            .push((self.slots.mask, self.platform.state()));
    }

    /// Re-prices model `mi`'s cached plan for the current alive set on
    /// the platform as it is *now* — candidates are simulated on the
    /// model's planning table (the calibrated overlay when calibration
    /// is on) under the current fault scaling, because the
    /// nominally-best plan may lean on a degraded link.  The challenger
    /// is a full HIOS-LP pass when `upgrade`, a greedy pass otherwise.
    fn reprice(&mut self, mi: usize, upgrade: bool) {
        if self.cfg.policy != Policy::Anytime || !self.slots.refresh(&self.breakers) {
            return;
        }
        let key = self.plan_key(mi);
        let state = self.platform.state();
        // Asked after every idle completion: answer "nothing to try"
        // before pricing anything.  (Debug builds price anyway, so the
        // ladder can re-check a remembered loss.)
        if upgrade && !cfg!(debug_assertions) && self.ladder.upgrade_settled(&key, state) {
            return;
        }
        let gpu_map = &self.slots.gpu_map;
        let scale = self.platform.scaling.project(gpu_map);
        let sim_cfg = &self.cfg.sim;
        let model = &self.models[mi];
        let planning = planning_table(&self.calib, model, mi);
        let slots = slot_cost(planning, gpu_map);
        let eval = |schedule: &Schedule| {
            simulate_scaled(&model.graph, &slots, schedule, sim_cfg, &scale)
                .map(|r| r.makespan)
                .unwrap_or(f64::INFINITY)
        };
        let g = &model.graph;
        if upgrade {
            let epoch = self.epochs[mi];
            self.ladder
                .upgrade_keyed(g, &slots, &key, epoch, state, eval);
        } else {
            self.ladder.rerank_keyed(g, &slots, &key, state, eval);
        }
    }

    /// After the backend drains: let the anytime ladder spend the idle
    /// CPU time upgrading the cached plan of the last-served model,
    /// then dispatch whatever queued meanwhile.
    fn idle_work(&mut self) {
        if self.queue.is_empty() {
            if let Some(last) = self.records.last() {
                self.reprice(last.request.model, true);
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
        // On a sorted stream the clock only moves forward, so signals
        // detected before now never qualify again (the cursor) and the
        // first one still in the future ends the run; an unsorted stream
        // is scanned whole.  Either way the same signals are tested, in
        // the same order.
        let live = if self.signals_sorted {
            let signals = &self.signals;
            while signals
                .get(self.first_live_signal)
                .is_some_and(|sig| sig.detected_ms < now)
            {
                self.first_live_signal += 1;
            }
            let rest = &signals[self.first_live_signal..];
            &rest[..rest.partition_point(|sig| sig.at_ms <= now)]
        } else {
            &self.signals[..]
        };
        live.iter()
            .filter(|sig| sig.at_ms <= now && sig.detected_ms >= now)
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

    fn on_fault(&mut self, s: usize) {
        let sig = self.signals[s];
        let now = self.now();
        if let Some(gpu) = sig.kind.gpu_target() {
            // 1. The GPU is repaired `gpu_repair_ms` from now; trip its
            // breaker.  (An already-open breaker keeps its pending probe;
            // the pushed-out heal horizon makes that probe fail and
            // re-arm.)
            self.healthy_at[gpu] = now + self.cfg.gpu_repair_ms;
            if self.breakers.peek(gpu).admits() {
                let until = self.breakers.gpu(gpu).trip(now);
                self.events.push(until, Event::BreakerProbe { gpu });
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
                self.events
                    .push(now + WATCHDOG_MS, Event::Watchdog { token });
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
        if !self.slots.refresh(&self.breakers) {
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
        let sub_cost = hios_core::repair::project_cost(&model.cost, &map);
        let resume = now + sched_cost;
        let sub_schedule = map.to_sub_schedule(&outcome.schedule);
        // The remainder resumes on the survivors, on the platform as it
        // is at `resume` (known faults times drift).
        debug_assert_eq!(outcome.gpu_map, self.slots.gpu_map);
        self.slots.scale(&self.platform.scaling, self.drift, resume);
        let resumed = simulate_scaled(
            &map.sub,
            &sub_cost,
            &sub_schedule,
            &self.cfg.sim,
            &self.slots.slot_scale,
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
    /// ladder rung: reschedule (warm-started LP) when the budget, the
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
                    last_error: err,
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
            self.states[i].retry_pending = true;
            self.events.push(now + backoff, Event::Retry { req: i });
        } else {
            self.shed(
                i,
                ShedReason::RetryBudgetExhausted {
                    attempts,
                    last_error: err,
                },
            );
        }
    }

    fn on_retry(&mut self, i: usize) {
        self.states[i].retry_pending = false;
        if self.states[i].cancelled {
            return; // withdrawn by the fleet layer while backing off
        }
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
            self.events.push(next, Event::BreakerProbe { gpu });
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
    let serves = |gpu: usize| fl.serving >> gpu & 1 == 1;
    match sig.kind {
        FaultKind::GpuFailStop { gpu } | FaultKind::GpuSlowdown { gpu, .. } => {
            serves(gpu).then_some(Disruption::Gpu(gpu))
        }
        FaultKind::LinkFail { from, to } | FaultKind::LinkDegrade { from, to, .. } => {
            (fl.serving.count_ones() > 1 && serves(from) && serves(to))
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
    fn bad_drift_and_calibration_setups_are_typed_errors() {
        let models = vec![model(8, 20)];
        let mut cfg = ServeConfig::new(2);
        cfg.calibration = Some(CalibrationConfig {
            alpha: 0.0,
            ..CalibrationConfig::default()
        });
        let err = serve(&models, &[], &FaultPlan::new(vec![]), &cfg).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scheduler(SchedulerError::BadOptions(_))
        ));

        let cfg = ServeConfig::new(2);
        let drift = DriftPlan::ramp(5, 0.0, 1.0, 1.0, 2.0, 2); // unknown GPU
        let err = serve_drift(&models, &[], &FaultPlan::new(vec![]), &drift, &cfg).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scheduler(SchedulerError::BadOptions(_))
        ));
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
        let (simulated, plans) = (srv.memo.simulated, srv.ladder.plans_issued());
        // An id is drawn only for a plan that enters the cache (a losing
        // idle-time challenger draws none), and every plan that entered
        // was served: as many simulations as ids.
        assert_eq!(simulated, plans, "simulations, plans");
        assert!(
            plans >= models.len() as u64 && plans <= 2 * models.len() as u64,
            "{plans} plans"
        );
        assert_eq!(srv.into_outcome().report.completed, 10_000);
    }

    #[test]
    fn platform_states_are_named_bit_for_bit_and_never_twice() {
        let fail = FaultKind::GpuFailStop { gpu: 2 };
        let heal = FaultKind::GpuHeal { gpu: 2 };
        let mut platform = PlatformModel::healthy(3);
        let healthy = platform.state();
        platform.apply_fault(&fail);
        let down = platform.state();
        assert_ne!(down, healthy);
        // A transient fault leaves the state it found; a flap revisits
        // the two it alternates between.
        platform.apply_fault(&FaultKind::OpHang { op: OpId(0) });
        assert_eq!(platform.state(), down);
        for _ in 0..3 {
            platform.apply_fault(&heal);
            assert_eq!(platform.state(), healthy);
            platform.apply_fault(&fail);
            assert_eq!(platform.state(), down);
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
            assert!(!named.contains(&platform.state()));
            named.push(platform.state());
        }
        assert_eq!(platform.seen.len(), PLATFORM_STATE_SLOTS);
        assert!(same_scaling(&platform.seen[0].0, &platform.scaling));
        platform.apply_fault(&FaultKind::GpuHeal { gpu: 0 });
        assert!(bits_eq(&platform.scaling.gpu, &[1.0, 1.0, f64::INFINITY]));
        assert!(!named.contains(&platform.state()));
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
        // (platform changes, distinct (alive mask, state) points re-ranked
        // on, re-ranks computed, history digest).
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
            let changes = srv.reranked_on.len() as u64;
            srv.reranked_on
                .sort_by_key(|&(mask, state)| (mask, state.0));
            srv.reranked_on.dedup();
            let points = srv.reranked_on.len() as u64;
            let computed = srv.ladder.reranks_computed();
            (
                changes,
                points,
                computed,
                srv.into_outcome().report.history_digest,
            )
        };
        // One greedy pass and two simulations per computed re-rank; a
        // tenant meets a point with at most two incumbents (the plan of
        // its first miss and the idle upgrade's).
        let (changes, points, computed, digest) = flapping(300, 6);
        assert!(
            changes >= 13 && points <= 6,
            "{changes} changes, {points} points"
        );
        assert!(
            computed >= tenants && computed <= 2 * tenants * points,
            "{computed} re-ranks computed on {points} points"
        );
        // `FLAP_LINK_DEGRADE` of tests/golden_digests.rs.
        assert_eq!(digest, 0xea1f_d922_b149_8b8b);

        // Ten times the edges are the same points again.
        let (changes, points, long_run, _) = flapping(3000, 60);
        assert!(
            changes >= 121 && points <= 6,
            "{changes} changes, {points} points"
        );
        assert!(
            long_run <= 2 * tenants * points && 10 * long_run <= changes * tenants,
            "{long_run} re-ranks computed on {points} points for {changes} platform changes"
        );
    }

    #[test]
    fn churning_through_a_store_schedules_validates_and_simulates_each_plan_once() {
        // `plan_churn`'s shape at the size (and with the inputs) of the
        // golden store scenario: six tenants through three cache slots,
        // cold then restart-warm on one log.  Every cache miss after a
        // tenant's first is a re-adoption from the store; none of them
        // may cost an LP pass, a plan id or a simulation — and, this
        // being a debug build, every memo hit on a re-adopted id was
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
            let (simulated, plans) = (srv.memo.simulated, srv.ladder.plans_issued());
            assert!(plans <= 2 * tenants, "{plans} plans");
            assert!(simulated <= plans, "{simulated} simulations, {plans} plans");
            let report = srv.into_outcome().report;
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
        // is the bound (`timeline` debug-asserts it on every insert).
        let models = vec![model(3, 36)];
        let mut cfg = ServeConfig::new(3);
        cfg.calibration = Some(CalibrationConfig::default());
        let trace = trace_for(&models, &cfg, &wl(600, 200.0, 50.0));
        let span = trace.last().unwrap().arrival_ms;
        let drift = DriftPlan::ramp(2, 0.0, span, 1.0, 4.0, 300);
        let mut srv = Server::build(&models, &FaultPlan::none(), &drift, &cfg).unwrap();
        srv.run_trace(&trace);
        assert_eq!(srv.memo.per_model[0].len(), TIMELINE_MEMO_SLOTS);
        assert!(srv.memo.simulated > 200, "{}", srv.memo.simulated);
        assert!(srv.into_outcome().report.recalibrations > 0);
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
