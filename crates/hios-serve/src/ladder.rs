//! The budget-bounded anytime scheduling ladder.
//!
//! Every dispatch needs a schedule for "this model on the GPUs the
//! breakers currently admit".  The ladder produces one at the best
//! quality the scheduling-time budget and queue pressure allow:
//!
//! 1. **Cached** — the best schedule previously computed for this exact
//!    (model, alive-set) pair; near-free.
//! 2. **Store** — the durable plan store ([`hios_store::PlanStore`]),
//!    when one is attached: a digest-verified plan persisted by an
//!    earlier run (or an earlier epoch of this one), served at roughly
//!    the cost of a read and a validation — the warm-start rung that
//!    makes restarts cheap.
//! 3. **Full LP** — HIOS-LP with the intra-GPU pass (Alg. 1 + Alg. 2),
//!    warm-started on a shared [`EvalWorkspace`].
//! 4. **Inter LP** — the inter-GPU phase alone (Alg. 1); roughly the
//!    `w`-th of the full cost.
//! 5. **Greedy** — the deterministic earliest-finish list pass; the
//!    rung a saturated server can always afford.
//!
//! Scheduling time is *modeled* ([`modeled_sched_cost_ms`]) and charged
//! to the virtual clock, never measured from the wall clock, so the
//! ladder's choices — and everything downstream of them — replay
//! bit-identically.  Results only enter the cache through
//! `insert_if_better`, so cache quality is monotone: once the idle-time
//! upgrader has run full HIOS-LP for a platform, every later hit serves
//! that schedule at cached cost.

use crate::request::ServeError;
use hios_core::eval::evaluate_with;
use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_core::{
    Algorithm, EvalWorkspace, SchedBudget, Schedule, ScheduleCache, ScheduleCacheKey,
    SchedulerError, alive_slots, greedy_schedule, modeled_sched_cost_ms,
};
use hios_cost::CostTable;
use hios_graph::Graph;
use hios_store::{PlanKey, PlanRung, PlanStore, RecoveryReport, StoreStats};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cost view where slot `i` prices as physical GPU `gpu_map[i]`.
///
/// On a uniform platform every GPU prices alike, so the table is lent
/// out untouched (keeping the homogeneous serving path
/// allocation-free); a heterogeneous table is
/// re-indexed so the schedulers' "try every GPU" loop prices the alive
/// devices — and the links between them — correctly.
pub(crate) fn slot_cost<'a>(cost: &'a CostTable, gpu_map: &[usize]) -> Cow<'a, CostTable> {
    if cost.topology.is_uniform() {
        Cow::Borrowed(cost)
    } else {
        Cow::Owned(cost.restrict_gpus(gpu_map))
    }
}

/// Modeled cost of serving a schedule straight from the cache, ms.
pub const CACHE_HIT_COST_MS: f64 = 0.05;

/// Modeled cost of serving a schedule from the durable plan store, ms:
/// a log-index lookup, a possible delta replay, a digest check and a
/// structural validation — pricier than a memory hit, orders cheaper
/// than any LP rung.
pub const STORE_HIT_COST_MS: f64 = 0.25;

/// Modeled cost of the greedy rung for an `n`-operator model, ms.
pub fn greedy_cost_ms(n_ops: usize) -> f64 {
    0.004 * n_ops as f64
}

/// Which rung produced a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Served from the schedule cache.
    Cached,
    /// Served from the durable plan store (warm start).
    Store,
    /// HIOS-LP with the intra-GPU pass.
    FullLp,
    /// Inter-GPU LP phase only.
    InterLp,
    /// Earliest-finish greedy list pass.
    Greedy,
}

impl Rung {
    /// All rungs, cheapest answer first.
    pub const ALL: [Rung; 5] = [
        Rung::Cached,
        Rung::Store,
        Rung::FullLp,
        Rung::InterLp,
        Rung::Greedy,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Cached => "cached",
            Rung::Store => "store",
            Rung::FullLp => "full-lp",
            Rung::InterLp => "inter-lp",
            Rung::Greedy => "greedy",
        }
    }

    /// Position of this rung in [`Rung::ALL`] — and therefore in the
    /// per-rung dispatch counters of the serving report.
    pub fn index(self) -> usize {
        match self {
            Rung::Cached => 0,
            Rung::Store => 1,
            Rung::FullLp => 2,
            Rung::InterLp => 3,
            Rung::Greedy => 4,
        }
    }

    /// What the plan store records for a plan this rung computed; the
    /// two answering rungs compute nothing, so they record nothing.
    fn recorded(self) -> Option<PlanRung> {
        match self {
            Rung::Cached | Rung::Store => None,
            Rung::FullLp => Some(PlanRung::FullLp),
            Rung::InterLp => Some(PlanRung::InterLp),
            Rung::Greedy => Some(PlanRung::Greedy),
        }
    }
}

impl From<PlanRung> for Rung {
    fn from(rung: PlanRung) -> Rung {
        match rung {
            PlanRung::FullLp => Rung::FullLp,
            PlanRung::InterLp => Rung::InterLp,
            PlanRung::Greedy => Rung::Greedy,
        }
    }
}

/// Upper bound on the rung the anytime policy may buy, imposed by the
/// brownout controller: a browned-out server stops paying for
/// expensive scheduling before it starts shedding traffic.  Cache and
/// store hits are never capped — they are already paid for.  The fixed
/// baselines ([`Policy::FixedFullLp`], [`Policy::GreedyOnly`]) ignore
/// the cap by design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RungCap {
    /// No cap: any rung the budget admits.
    #[default]
    Full,
    /// At most the inter-GPU LP phase (no full LP).
    InterLp,
    /// Greedy only.
    Greedy,
}

/// Scheduling policy of a serving loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// The full ladder: cache, then the best rung the budget admits,
    /// with idle-time upgrades.
    Anytime,
    /// Always run full HIOS-LP at dispatch time (no cache) — the
    /// quality-obsessed baseline that melts under load.
    FixedFullLp,
    /// Always run the greedy pass — the latency-obsessed baseline that
    /// serves mediocre schedules forever.
    GreedyOnly,
}

impl Policy {
    /// Display name used in bench tables.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Anytime => "anytime",
            Policy::FixedFullLp => "fixed-full-lp",
            Policy::GreedyOnly => "greedy-only",
        }
    }
}

/// Ladder knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderConfig {
    /// Scheduling-time budget per dispatch (modeled ms).
    pub budget: SchedBudget,
    /// Sliding-window size `w` for the LP rungs.
    pub window: usize,
    /// Queue depth at which the ladder stops buying quality and drops
    /// straight to the greedy rung.
    pub pressure_threshold: usize,
    /// Bound on in-memory schedule-cache entries; the least recently
    /// used entry is evicted (deterministically) at capacity.  Evicted
    /// plans that were persisted remain reachable through the store
    /// rung.
    pub cache_capacity: usize,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            budget: SchedBudget::limited(30.0),
            window: 4,
            pressure_threshold: 8,
            cache_capacity: 256,
        }
    }
}

/// A cached best-known plan for one (model, alive-set) pair.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// Slot-schedule over the alive GPUs, shared with every dispatch
    /// that serves it.
    pub schedule: Arc<Schedule>,
    /// Stage-synchronous fault-free latency, ms.
    pub makespan_ms: f64,
    /// The rung that computed it — for a plan adopted from the store,
    /// the rung the store recorded ([`Rung::Store`] when it recorded
    /// none), so a plan that was the full-LP one before an eviction or a
    /// restart still is.
    pub rung: Rung,
    /// Identity of this plan within its ladder: every schedule that
    /// enters the cache (miss, upgrade, re-rank, first adoption from the
    /// store) draws a fresh id, and an id is only ever handed out again
    /// with the schedule it was issued for (the store returning a plan
    /// this ladder has already adopted or persisted, a re-rank replayed
    /// from the verdict memo), so equal ids mean the same schedule —
    /// what lets a caller memoise anything derived from it without an
    /// invalidation protocol.
    pub plan_id: u64,
    /// [`Schedule::content_digest`] of `schedule`.
    digest: u64,
}

/// What one ladder consultation produced.
#[derive(Clone, Debug)]
pub struct LadderDecision {
    /// Slot-schedule over `gpu_map.len()` slots.
    pub schedule: Arc<Schedule>,
    /// Slot → physical GPU.
    pub gpu_map: Vec<usize>,
    /// Stage-synchronous fault-free latency estimate, ms.
    pub nominal_ms: f64,
    /// The rung that answered.
    pub rung: Rung,
    /// Modeled scheduling time to charge to the virtual clock, ms.
    pub sched_cost_ms: f64,
    /// [`CachedPlan::plan_id`] of the schedule; `None` under the fixed
    /// baselines, whose schedules never enter the cache.
    pub plan_id: Option<u64>,
}

/// [`LadderDecision`] minus the slot map, for the keyed entry point
/// (its caller already holds the map).
pub(crate) struct Chosen {
    pub(crate) schedule: Arc<Schedule>,
    pub(crate) nominal_ms: f64,
    pub(crate) rung: Rung,
    pub(crate) sched_cost_ms: f64,
    pub(crate) plan_id: Option<u64>,
}

/// What the un-keyed entry points derive from `(g, cost, alive)` on
/// every call and the keyed ones are handed: the slot → GPU map, the
/// slot-priced table and the cache key of the problem it prices.  `None`
/// with no GPU alive.
fn resolve<'a>(
    g: &Graph,
    cost: &'a CostTable,
    alive: &[bool],
) -> Option<(Vec<usize>, Cow<'a, CostTable>, ScheduleCacheKey)> {
    let gpu_map = alive_slots(alive);
    if gpu_map.is_empty() {
        return None;
    }
    let slots = slot_cost(cost, &gpu_map);
    let key = ScheduleCacheKey::for_platform(g, alive, &slots);
    Some((gpu_map, slots, key))
}

/// Opaque name of the platform state a re-price ranks its candidates
/// on.  The caller's promise: under equal names its `eval` prices every
/// schedule of a cache key to the same bits, and a name is never handed
/// out again for a different state — which is what lets the ladder
/// remember a verdict instead of reaching it again.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlatformState(pub u64);

/// Who challenged the incumbent of a [`Contest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Challenger {
    /// The greedy pass of a platform-change re-rank.
    Greedy,
    /// The full HIOS-LP pass of an idle-time upgrade.
    FullLp,
}

/// One re-price: `challenger` against the cached plan whose content
/// digest is `incumbent`, for the problem `key`, priced on `state`.
/// Both challengers are deterministic in the key, and `eval` in (key,
/// state), so these four name the outcome exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Contest {
    key: ScheduleCacheKey,
    state: PlatformState,
    incumbent: u64,
    challenger: Challenger,
}

impl Contest {
    fn new(
        key: &ScheduleCacheKey,
        state: PlatformState,
        incumbent: &CachedPlan,
        challenger: Challenger,
    ) -> Self {
        Contest {
            key: *key,
            state,
            incumbent: incumbent.digest,
            challenger,
        }
    }
}

/// How a [`Contest`] ended.
#[derive(Clone, Debug)]
enum Verdict {
    /// The incumbent stays: greedy did not beat it, or full LP lost to it.
    Kept,
    /// The greedy challenger took the key as this plan — replayed with
    /// the id and the price it won under.
    Replaced(CachedPlan),
}

/// Verdicts remembered per ladder.  `serve_chaos` (six tenants under a
/// flapping GPU, a link degrade and recalibrations) reaches under a
/// hundred contests; beyond the bound the oldest is forgotten and, if
/// ever asked again, reached again.
const VERDICT_MEMO_SLOTS: usize = 256;

/// Re-rank is a replay: the verdicts of past [`Contest`]s, oldest first
/// out.  Nothing is ever invalidated — a contest names everything its
/// outcome depends on, so a verdict that stops applying simply stops
/// being asked for (a state that left the caller's table, a key a
/// recalibration retired).  It outlives the cache entries it is about:
/// the same plan re-entering the cache (re-adopted, or re-computed by a
/// deterministic rung) meets the same verdict.
#[derive(Default)]
struct VerdictMemo {
    verdicts: HashMap<Contest, Verdict>,
    /// Insertion order of `verdicts`' keys.
    order: VecDeque<Contest>,
}

impl VerdictMemo {
    fn get(&self, contest: &Contest) -> Option<&Verdict> {
        self.verdicts.get(contest)
    }

    /// Keeps the verdict of a contest [`VerdictMemo::get`] just missed.
    fn remember(&mut self, contest: Contest, verdict: Verdict) {
        if self.order.len() == VERDICT_MEMO_SLOTS {
            if let Some(oldest) = self.order.pop_front() {
                self.verdicts.remove(&oldest);
            }
        }
        let unasked = self.verdicts.insert(contest, verdict).is_none();
        debug_assert!(unasked, "{contest:?} was decided twice");
        self.order.push_back(contest);
    }
}

/// The ladder: schedule cache + shared evaluation workspace + counters,
/// optionally backed by a durable plan store.
pub struct AnytimeLadder {
    cfg: LadderConfig,
    cache: ScheduleCache<CachedPlan>,
    /// Durable warm-start tier; `None` serves from the memory cache
    /// alone.
    store: Option<PlanStore>,
    ws: EvalWorkspace,
    rung_counts: [u64; 5],
    upgrades: u64,
    store_io_errors: u64,
    /// Last [`CachedPlan::plan_id`] issued.
    plans_issued: u64,
    /// How every remembered re-rank and lost idle-time upgrade ended.
    verdicts: VerdictMemo,
    /// Re-ranks actually computed — each one greedy pass and two `eval`
    /// calls; replayed verdicts (and their debug re-checks) not counted.
    #[cfg(test)]
    reranks_computed: u64,
    /// Per durable key, the `(content digest, plan id)` of the plan this
    /// ladder last persisted under it or adopted from it — content it
    /// computed or has validated once already, so the store handing it
    /// back needs no second validation and no second id.
    known: HashMap<PlanKey, (u64, u64)>,
}

impl AnytimeLadder {
    /// A fresh ladder.
    pub fn new(cfg: LadderConfig) -> Self {
        AnytimeLadder {
            cfg,
            cache: ScheduleCache::with_capacity(cfg.cache_capacity),
            store: None,
            ws: EvalWorkspace::new(),
            rung_counts: [0; 5],
            upgrades: 0,
            store_io_errors: 0,
            plans_issued: 0,
            verdicts: VerdictMemo::default(),
            #[cfg(test)]
            reranks_computed: 0,
            known: HashMap::new(),
        }
    }

    /// The next never-issued plan id.
    fn fresh_id(&mut self) -> u64 {
        self.plans_issued += 1;
        self.plans_issued
    }

    /// A cache entry for a newly computed schedule, under a fresh id.
    fn plan(&mut self, schedule: Arc<Schedule>, makespan_ms: f64, rung: Rung) -> CachedPlan {
        CachedPlan {
            digest: schedule.content_digest(),
            schedule,
            makespan_ms,
            rung,
            plan_id: self.fresh_id(),
        }
    }

    /// Backs the ladder with a durable plan store: memory-cache misses
    /// consult it before scheduling, computed plans are persisted into
    /// it, and epoch purges extend to it.
    pub fn attach_store(&mut self, store: PlanStore) {
        self.store = Some(store);
    }

    /// Produces a schedule for `g` on the GPUs `alive` admits, at the
    /// quality `policy`, the budget, the queue depth, and the request's
    /// remaining scheduling slack allow.
    ///
    /// `slack_ms` is the time the dispatched request can still afford to
    /// spend *scheduling* (deadline minus now minus a service-time lower
    /// bound); the anytime policy never picks a rung whose modeled cost
    /// already guarantees a miss.  Pass `f64::INFINITY` when there is no
    /// deadline.  The fixed baselines ignore it by design.
    ///
    /// `epoch` is the model's calibration epoch — part of the durable
    /// plan key, so plans persisted under stale prices are typed misses
    /// rather than warm starts.  Irrelevant (and ignored) without an
    /// attached store.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        alive: &[bool],
        queue_depth: usize,
        slack_ms: f64,
        epoch: u64,
        policy: Policy,
    ) -> Result<LadderDecision, ServeError> {
        self.decide_capped(
            g,
            cost,
            alive,
            queue_depth,
            slack_ms,
            epoch,
            policy,
            RungCap::Full,
        )
    }

    /// [`AnytimeLadder::decide`] with an explicit brownout rung cap: the
    /// anytime policy never *computes* a rung above `cap` (cache and
    /// store hits still answer — they cost nothing extra).
    #[allow(clippy::too_many_arguments)]
    pub fn decide_capped(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        alive: &[bool],
        queue_depth: usize,
        slack_ms: f64,
        epoch: u64,
        policy: Policy,
        cap: RungCap,
    ) -> Result<LadderDecision, ServeError> {
        let (gpu_map, _, key) = resolve(g, cost, alive).ok_or(ServeError::NoCapacity)?;
        let chosen = self.decide_keyed(
            g,
            cost,
            &gpu_map,
            &key,
            queue_depth,
            slack_ms,
            epoch,
            policy,
            cap,
        )?;
        Ok(LadderDecision {
            schedule: chosen.schedule,
            gpu_map,
            nominal_ms: chosen.nominal_ms,
            rung: chosen.rung,
            sched_cost_ms: chosen.sched_cost_ms,
            plan_id: chosen.plan_id,
        })
    }

    /// [`AnytimeLadder::decide_capped`] for a caller that already holds
    /// what [`resolve`] derives (so `gpu_map` is not empty) — the serving
    /// loop computes the fingerprints behind `key` once per model and
    /// planning table, not once per dispatch.  A cache hit touches
    /// neither `g` nor `cost`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide_keyed(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        gpu_map: &[usize],
        key: &ScheduleCacheKey,
        queue_depth: usize,
        slack_ms: f64,
        epoch: u64,
        policy: Policy,
        cap: RungCap,
    ) -> Result<Chosen, ServeError> {
        let m = gpu_map.len();
        let n = g.num_ops();
        match policy {
            Policy::GreedyOnly => {
                let (schedule, nominal_ms) = self.run_greedy(g, &slot_cost(cost, gpu_map), m)?;
                self.rung_counts[Rung::Greedy.index()] += 1;
                Ok(Chosen {
                    schedule: Arc::new(schedule),
                    nominal_ms,
                    rung: Rung::Greedy,
                    sched_cost_ms: greedy_cost_ms(n),
                    plan_id: None,
                })
            }
            Policy::FixedFullLp => {
                let (schedule, nominal_ms, sched_cost_ms) =
                    self.run_lp(g, &slot_cost(cost, gpu_map), m, true);
                self.rung_counts[Rung::FullLp.index()] += 1;
                Ok(Chosen {
                    schedule: Arc::new(schedule),
                    nominal_ms,
                    rung: Rung::FullLp,
                    sched_cost_ms,
                    plan_id: None,
                })
            }
            Policy::Anytime => {
                if let Some(plan) = self.cache.get(key) {
                    self.rung_counts[Rung::Cached.index()] += 1;
                    return Ok(Chosen {
                        schedule: Arc::clone(&plan.schedule),
                        nominal_ms: plan.makespan_ms,
                        rung: Rung::Cached,
                        sched_cost_ms: CACHE_HIT_COST_MS,
                        plan_id: Some(plan.plan_id),
                    });
                }
                if let Some(plan) = self.store_lookup(g, key, m, epoch) {
                    self.rung_counts[Rung::Store.index()] += 1;
                    return Ok(Chosen {
                        schedule: plan.schedule,
                        nominal_ms: plan.makespan_ms,
                        rung: Rung::Store,
                        sched_cost_ms: STORE_HIT_COST_MS,
                        plan_id: Some(plan.plan_id),
                    });
                }
                let rung = self.pick_rung(n, m, queue_depth, slack_ms, cap);
                let (schedule, nominal_ms, sched_cost_ms) =
                    self.run_rung(rung, g, &slot_cost(cost, gpu_map), m)?;
                self.rung_counts[rung.index()] += 1;
                let plan = self.plan(Arc::new(schedule), nominal_ms, rung);
                self.store_put(key, epoch, &plan);
                let chosen = Chosen {
                    schedule: Arc::clone(&plan.schedule),
                    nominal_ms,
                    rung,
                    sched_cost_ms,
                    plan_id: Some(plan.plan_id),
                };
                self.cache
                    .insert_if_better(*key, plan, |new, old| new.makespan_ms < old.makespan_ms);
                Ok(chosen)
            }
        }
    }

    /// Durable-tier lookup on a memory-cache miss.  A hit is adopted
    /// into the memory cache so subsequent dispatches pay memory-hit
    /// cost, at the rung the store recorded for it.  The stored plan is
    /// digest-verified by the store and structurally validated here
    /// against the model it is about to serve — a corrupt or foreign
    /// plan is a miss, never a dispatch.  Both checks are per content,
    /// not per read: the store verifies a record once and shares the
    /// result, and content this ladder already validated (or computed
    /// and persisted itself) comes back under the id it was issued.
    fn store_lookup(
        &mut self,
        g: &Graph,
        key: &ScheduleCacheKey,
        m: usize,
        epoch: u64,
    ) -> Option<CachedPlan> {
        let durable = PlanKey::from_cache_key(key, epoch);
        let hit = self.store.as_mut()?.get_shared(&durable)?;
        let plan_id = match self.known.get(&durable) {
            Some(&(digest, plan_id)) if digest == hit.digest => plan_id,
            _ => {
                if hit.schedule.gpus.len() != m || hit.schedule.validate_full(g, None).is_err() {
                    return None; // fingerprint collision or foreign plan
                }
                let plan_id = self.fresh_id();
                self.known.insert(durable, (hit.digest, plan_id));
                plan_id
            }
        };
        let plan = CachedPlan {
            schedule: hit.schedule,
            makespan_ms: hit.makespan_ms,
            rung: hit.rung.map_or(Rung::Store, Rung::from),
            plan_id,
            digest: hit.digest,
        };
        self.cache.insert_if_better(*key, plan.clone(), |new, old| {
            new.makespan_ms < old.makespan_ms
        });
        Some(plan)
    }

    /// Best-effort durable persist of a plan this ladder computed, with
    /// the rung that computed it.  An I/O failure here costs future
    /// warm starts, never the dispatch in hand: it is counted
    /// ([`AnytimeLadder::store_io_errors`]) and serving continues on
    /// the in-memory tier.
    fn store_put(&mut self, key: &ScheduleCacheKey, epoch: u64, plan: &CachedPlan) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let durable = PlanKey::from_cache_key(key, epoch);
        let rung = plan.rung.recorded();
        match store.put_shared(durable, &plan.schedule, plan.makespan_ms, rung) {
            Ok(_) => {
                self.known.insert(durable, (plan.digest, plan.plan_id));
            }
            Err(_) => self.store_io_errors += 1,
        }
    }

    /// Idle-time upgrade: with the backend drained, spend CPU cycles
    /// running full HIOS-LP for `(g, alive)` and keep the result iff it
    /// beats the cached plan.  Runs off the request path (the GPUs are
    /// idle), so it is never charged to a request's latency.
    ///
    /// Candidates are ranked by `eval` — the caller's view of what a
    /// schedule costs *on the platform as it is now* (e.g. simulated
    /// under the current fault scaling), not by nominal makespan: the
    /// LP's nominally-optimal plan can be slower than a greedy one when
    /// the links it leans on are degraded.  `state` names that platform
    /// ([`PlatformState`]).
    ///
    /// HIOS-LP is deterministic, so a pass that loses to the cached plan
    /// would lose to it again on the same state: the verdict is
    /// remembered per key, state and plan content — through evictions,
    /// re-adoptions and re-misses that bring the same plan back, and
    /// through any number of other states in between — and the pass
    /// skipped until a different plan takes the key or `state` is one
    /// this plan has not been challenged on.
    ///
    /// Returns whether the cache improved.  An improvement is also
    /// persisted to the attached store under `epoch`, so idle-time
    /// quality survives a restart.
    pub fn upgrade(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        alive: &[bool],
        epoch: u64,
        state: PlatformState,
        eval: impl Fn(&Schedule) -> f64,
    ) -> bool {
        let Some((_, slots, key)) = resolve(g, cost, alive) else {
            return false;
        };
        self.upgrade_keyed(g, &slots, &key, epoch, state, eval)
    }

    /// Whether [`AnytimeLadder::upgrade`] for `key` on `state` would
    /// change nothing: the cached plan already is the full-LP one
    /// (computed here, or recorded as such by the store it was adopted
    /// from), or full LP was tried against it on this state and lost.
    pub(crate) fn upgrade_settled(&self, key: &ScheduleCacheKey, state: PlatformState) -> bool {
        self.cache.peek(key).is_some_and(|plan| {
            let lost = Contest::new(key, state, plan, Challenger::FullLp);
            plan.rung == Rung::FullLp || self.verdicts.get(&lost).is_some()
        })
    }

    /// [`AnytimeLadder::upgrade`] for a caller that already holds the
    /// key and `slots`, the table priced on the key's alive slots.
    pub(crate) fn upgrade_keyed(
        &mut self,
        g: &Graph,
        slots: &CostTable,
        key: &ScheduleCacheKey,
        epoch: u64,
        state: PlatformState,
        eval: impl Fn(&Schedule) -> f64,
    ) -> bool {
        let m = key.num_alive();
        if self.upgrade_settled(key, state) {
            // The memo's check: a remembered loss is a loss again.
            if cfg!(debug_assertions) {
                if let Some(old) = self.cache.peek(key).filter(|p| p.rung != Rung::FullLp) {
                    let (lp, ..) = self.run_lp(g, slots, m, true);
                    let wins = eval(&lp) <= eval(&old.schedule);
                    debug_assert!(
                        !wins,
                        "full LP now beats plan {} it lost to on {state:?}",
                        old.plan_id
                    );
                }
            }
            return false;
        }
        let (schedule, ..) = self.run_lp(g, slots, m, true);
        self.upgrades += 1;
        let new_ms = eval(&schedule);
        // `<=` so an equal-cost full-LP plan still records the rung
        // upgrade and stops future re-upgrades.  The incumbent is
        // re-evaluated: its stored makespan may predate a fault.
        let lost_to = self.cache.peek(key).filter(|old| {
            let wins = new_ms <= eval(&old.schedule);
            !wins
        });
        if let Some(old) = lost_to {
            let contest = Contest::new(key, state, old, Challenger::FullLp);
            self.verdicts.remember(contest, Verdict::Kept);
            return false;
        }
        let plan = self.plan(Arc::new(schedule), new_ms, Rung::FullLp);
        self.cache.insert_if_better(*key, plan.clone(), |_, _| true);
        self.store_put(key, epoch, &plan);
        true
    }

    /// Platform-change re-rank: after a fault (or a heal) changes what
    /// schedules actually cost, pit the cached plan for `(g, alive)`
    /// against a fresh greedy candidate under `eval` and keep the
    /// winner.  A nominally-optimal cached plan can lean on a link that
    /// just degraded; serving it blindly would be slower than greedy.
    ///
    /// The greedy pass is deterministic too, so the outcome is a
    /// function of the key, `state` ([`PlatformState`]) and the
    /// incumbent's content: the first time it is computed, every later
    /// time — a flapping GPU revisits the same few states on every edge
    /// — replayed, down to the winner's plan id and price.
    ///
    /// Returns whether the cache changed.
    pub fn rerank(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        alive: &[bool],
        state: PlatformState,
        eval: impl Fn(&Schedule) -> f64,
    ) -> bool {
        let Some((_, slots, key)) = resolve(g, cost, alive) else {
            return false;
        };
        self.rerank_keyed(g, &slots, &key, state, eval)
    }

    /// [`AnytimeLadder::rerank`] for a caller that already holds the
    /// key and `slots`, the table priced on the key's alive slots.
    pub(crate) fn rerank_keyed(
        &mut self,
        g: &Graph,
        slots: &CostTable,
        key: &ScheduleCacheKey,
        state: PlatformState,
        eval: impl Fn(&Schedule) -> f64,
    ) -> bool {
        let Some(old) = self.cache.peek(key) else {
            return false; // nothing cached: the miss path will schedule
        };
        let contest = Contest::new(key, state, old, Challenger::Greedy);
        let incumbent = Arc::clone(&old.schedule);
        let m = key.num_alive();
        let verdict = match self.verdicts.get(&contest) {
            Some(verdict) => {
                let verdict = verdict.clone();
                // The memo's check: debug builds (every `cargo test`)
                // reach each replayed verdict again and compare winner
                // and price bits; release builds pay nothing.
                if cfg!(debug_assertions) {
                    let fresh = self.greedy_challenge(g, slots, m, &incumbent, &eval);
                    debug_assert!(
                        match (&verdict, &fresh) {
                            (Verdict::Kept, None) => true,
                            (Verdict::Replaced(plan), Some((schedule, ms))) =>
                                plan.digest == schedule.content_digest()
                                    && plan.makespan_ms.to_bits() == ms.to_bits(),
                            _ => false,
                        },
                        "remembered {verdict:?} of {contest:?} diverged from a fresh re-rank"
                    );
                }
                verdict
            }
            None => {
                #[cfg(test)]
                {
                    self.reranks_computed += 1;
                }
                let verdict = match self.greedy_challenge(g, slots, m, &incumbent, &eval) {
                    // Only a challenger that enters the cache is a plan.
                    Some((schedule, ms)) => {
                        Verdict::Replaced(self.plan(Arc::new(schedule), ms, Rung::Greedy))
                    }
                    None => Verdict::Kept,
                };
                self.verdicts.remember(contest, verdict.clone());
                verdict
            }
        };
        match verdict {
            Verdict::Kept => false,
            Verdict::Replaced(plan) => self.cache.insert_if_better(*key, plan, |_, _| true),
        }
    }

    /// The greedy candidate for `slots` and its price, if it beats
    /// `incumbent` under `eval`.
    fn greedy_challenge(
        &mut self,
        g: &Graph,
        slots: &CostTable,
        m: usize,
        incumbent: &Schedule,
        eval: &impl Fn(&Schedule) -> f64,
    ) -> Option<(Schedule, f64)> {
        let old_ms = eval(incumbent);
        let (schedule, _) = self.run_greedy(g, slots, m).ok()?;
        let new_ms = eval(&schedule);
        (new_ms < old_ms).then_some((schedule, new_ms))
    }

    /// Best rung the budget, the queue, the request's slack, and the
    /// brownout cap admit (never refuses: the greedy rung is always
    /// affordable).
    fn pick_rung(
        &self,
        n: usize,
        m: usize,
        queue_depth: usize,
        slack_ms: f64,
        cap: RungCap,
    ) -> Rung {
        if queue_depth >= self.cfg.pressure_threshold || cap == RungCap::Greedy {
            return Rung::Greedy;
        }
        let w = self.cfg.window;
        let affordable = |cost: f64| self.cfg.budget.admits(cost) && cost <= slack_ms;
        if cap == RungCap::Full && affordable(modeled_sched_cost_ms(Algorithm::HiosLp, n, m, w)) {
            Rung::FullLp
        } else if affordable(modeled_sched_cost_ms(Algorithm::InterGpuLp, n, m, w)) {
            Rung::InterLp
        } else {
            Rung::Greedy
        }
    }

    fn run_rung(
        &mut self,
        rung: Rung,
        g: &Graph,
        cost: &CostTable,
        m: usize,
    ) -> Result<(Schedule, f64, f64), ServeError> {
        // Unreachable with an answering rung: `pick_rung` is the only
        // producer of `rung` and returns one of the three computing
        // rungs, and `decide_keyed` returns on a cache or store hit before
        // it asks.  Were that ever broken, a release build computes the
        // always-affordable greedy plan rather than panic mid-dispatch.
        debug_assert!(!matches!(rung, Rung::Cached | Rung::Store));
        match rung {
            Rung::FullLp | Rung::InterLp => Ok(self.run_lp(g, cost, m, rung == Rung::FullLp)),
            Rung::Cached | Rung::Store | Rung::Greedy => {
                let (schedule, nominal) = self.run_greedy(g, cost, m)?;
                Ok((schedule, nominal, greedy_cost_ms(g.num_ops())))
            }
        }
    }

    /// HIOS-LP on `m` slots — with the intra-GPU pass (Alg. 1 + Alg. 2)
    /// or the inter-GPU phase alone: the schedule, its nominal latency,
    /// and the modeled scheduling time of the pass, ms.
    fn run_lp(&self, g: &Graph, cost: &CostTable, m: usize, intra: bool) -> (Schedule, f64, f64) {
        let window = self.cfg.window;
        let out = schedule_hios_lp(
            g,
            cost,
            HiosLpConfig {
                num_gpus: m,
                window,
                intra,
            },
        );
        let algo = if intra {
            Algorithm::HiosLp
        } else {
            Algorithm::InterGpuLp
        };
        let sched_cost_ms = modeled_sched_cost_ms(algo, g.num_ops(), m, window);
        (out.schedule, out.latency, sched_cost_ms)
    }

    fn run_greedy(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        m: usize,
    ) -> Result<(Schedule, f64), ServeError> {
        let schedule = greedy_schedule(g, cost, m);
        let eval = evaluate_with(&mut self.ws, g, cost, &schedule).map_err(|error| {
            ServeError::Scheduler(SchedulerError::Infeasible {
                algorithm: Algorithm::Sequential,
                error,
            })
        })?;
        Ok((schedule, eval.latency))
    }

    /// Calibration invalidation: drops every cached plan for the graph
    /// fingerprinted `gfp` that was priced against a platform other than
    /// `current_platform_fp`.
    ///
    /// Called when a drift alarm re-materializes the model's planning
    /// overlay: all of its cached plans were computed on stale prices,
    /// and the new platform fingerprint in the cache key means they can
    /// never be hit again — purging them keeps the cache from growing
    /// one generation of dead entries per recalibration.  Entries
    /// cached under restricted (partial-alive) slot tables carry the
    /// restricted table's fingerprint and are conservatively dropped
    /// too.  Other models' entries are untouched.  Returns the number
    /// of in-memory entries dropped.
    ///
    /// The purge extends to the durable tier: stored plans for this
    /// model whose epoch is older than `current_epoch` (but not the
    /// epoch-0 base plans, which remain warm-start inventory for
    /// restarts) are dropped from the store and its log compacted.
    /// Durable drops are reported through
    /// [`AnytimeLadder::store_stats`]; a purge I/O failure is counted,
    /// never fatal.
    pub fn invalidate_stale(
        &mut self,
        gfp: u64,
        current_platform_fp: u64,
        current_epoch: u64,
    ) -> usize {
        if let Some(store) = self.store.as_mut() {
            if store.invalidate_stale(gfp, current_epoch).is_err() {
                self.store_io_errors += 1;
            }
            // What the ladder knew of the model's stored plans goes with
            // them; a survivor is validated once more when next adopted.
            self.known.retain(|k, _| k.graph_fp != gfp);
        }
        self.cache
            .retain(|k| k.graph_fp != gfp || k.platform_fp == current_platform_fp)
    }

    /// `(hits, misses)` of the schedule cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Entries evicted from the bounded schedule cache.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Counters of the attached plan store (`None` without one).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(PlanStore::stats)
    }

    /// What opening the attached plan store found and repaired
    /// (`None` without one).
    pub fn store_recovery(&self) -> Option<&RecoveryReport> {
        self.store.as_ref().map(PlanStore::recovery)
    }

    /// Store put/purge I/O failures absorbed (never fatal to serving).
    pub fn store_io_errors(&self) -> u64 {
        self.store_io_errors
    }

    /// Dispatch counts per rung, in [`Rung::ALL`] order.
    pub fn rung_counts(&self) -> [u64; 5] {
        self.rung_counts
    }

    /// Idle-time upgrade passes run.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }

    /// Plans that ever entered the cache.
    #[cfg(test)]
    pub(crate) fn plans_issued(&self) -> u64 {
        self.plans_issued
    }

    /// Platform-change re-ranks computed, not replayed.
    #[cfg(test)]
    pub(crate) fn reranks_computed(&self) -> u64 {
        self.reranks_computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_cost::AnalyticCostModel;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn fixture() -> (Graph, CostTable) {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 40,
            layers: 6,
            deps: 80,
            seed: 5,
        })
        .unwrap();
        let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
        (g, cost)
    }

    #[test]
    fn anytime_caches_after_the_first_dispatch() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig::default());
        let alive = [true, true];
        let first = ladder
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_ne!(first.rung, Rung::Cached);
        let second = ladder
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(second.rung, Rung::Cached);
        assert_eq!(second.nominal_ms, first.nominal_ms);
        assert!(second.sched_cost_ms < first.sched_cost_ms);
        assert_eq!(ladder.cache_stats(), (1, 1));
    }

    #[test]
    fn queue_pressure_forces_the_greedy_rung() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig {
            pressure_threshold: 2,
            ..LadderConfig::default()
        });
        let d = ladder
            .decide(
                &g,
                &cost,
                &[true, true, false],
                5,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::Greedy);
        assert_eq!(d.gpu_map, vec![0, 1]);
    }

    #[test]
    fn tight_budget_degrades_loose_budget_does_not() {
        let (g, cost) = fixture();
        let mut tight = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::limited(0.5),
            ..LadderConfig::default()
        });
        let d = tight
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::Greedy);

        let mut loose = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        });
        let d = loose
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::FullLp);
    }

    #[test]
    fn idle_upgrade_improves_a_greedy_cache_entry() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::limited(0.5), // only greedy affordable
            ..LadderConfig::default()
        });
        let alive = [true, true];
        let before = ladder
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(before.rung, Rung::Greedy);
        let eval = |s: &Schedule| {
            hios_sim::simulate(&g, &cost, s, &hios_sim::SimConfig::analytical())
                .map(|r| r.makespan)
                .unwrap_or(f64::INFINITY)
        };
        let state = PlatformState(0);
        assert!(ladder.upgrade(&g, &cost, &alive, 0, state, eval));
        assert!(!ladder.upgrade(&g, &cost, &alive, 0, state, eval)); // already top quality
        let after = ladder
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(after.rung, Rung::Cached);
        assert!(after.nominal_ms <= before.nominal_ms);
        assert_eq!(ladder.upgrades(), 1);
    }

    #[test]
    fn a_lost_upgrade_is_not_retried_until_something_changes() {
        let (g, cost) = fixture();
        let cfg = LadderConfig {
            budget: SchedBudget::limited(0.5), // only greedy affordable
            cache_capacity: 1,
            ..LadderConfig::default()
        };
        let mut ladder = AnytimeLadder::new(cfg);
        let inf = f64::INFINITY;
        let both = [true, true];
        let [a, b, c] = [0, 1, 2].map(PlatformState);
        let greedy = ladder
            .decide(&g, &cost, &both, 0, inf, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(greedy.rung, Rung::Greedy);
        // A platform on which the cached greedy plan beats anything else.
        let greedy_wins = |s: &Schedule| if *s == *greedy.schedule { 1.0 } else { 2.0 };
        assert!(!ladder.upgrade(&g, &cost, &both, 0, a, greedy_wins));
        assert_eq!(ladder.upgrades(), 1);
        // LP is deterministic: it would lose again, so it is not run.
        assert!(!ladder.upgrade(&g, &cost, &both, 0, a, greedy_wins));
        assert_eq!(ladder.upgrades(), 1);
        let hit = ladder
            .decide(&g, &cost, &both, 0, inf, 0, Policy::Anytime)
            .unwrap();
        assert_eq!((hit.rung, hit.plan_id), (Rung::Cached, greedy.plan_id));

        // An eviction does not forget the verdict: two keys alternating
        // through one cache slot evict each other on every dispatch, the
        // greedy rung recomputes the same plan each time, and LP — which
        // would lose to it again — runs once per key, not once per miss.
        let one = [true, false];
        for round in 0..3 {
            for alive in [&one, &both] {
                let d = ladder
                    .decide(&g, &cost, alive, 0, inf, 0, Policy::Anytime)
                    .unwrap();
                assert_eq!(d.rung, Rung::Greedy, "capacity 1 must miss");
                let current = d.schedule;
                let incumbent_wins = |s: &Schedule| if *s == *current { 1.0 } else { 2.0 };
                assert!(!ladder.upgrade(&g, &cost, alive, 0, a, incumbent_wins));
                assert!(!ladder.upgrade(&g, &cost, alive, 0, a, incumbent_wins));
                // One pass for `both` (above), one for `one` (round 0).
                assert_eq!(ladder.upgrades(), 2, "round {round}");
            }
        }
        assert_eq!(ladder.cache_evictions(), 6);
        let again = ladder
            .decide(&g, &cost, &both, 0, inf, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(
            (again.rung, &again.schedule),
            (Rung::Cached, &greedy.schedule)
        );
        assert_ne!(
            again.plan_id, greedy.plan_id,
            "a recomputed plan is a new id"
        );

        // A verdict holds on the state it was reached on, and only there:
        // a state this plan has not been challenged on runs LP (once),
        // and coming back to A afterwards asks nothing again.
        assert!(!ladder.upgrade(&g, &cost, &both, 0, b, greedy_wins));
        assert_eq!(ladder.upgrades(), 3);
        for state in [a, b, a] {
            assert!(!ladder.upgrade(&g, &cost, &both, 0, state, greedy_wins));
        }
        assert_eq!(ladder.upgrades(), 3);
        // A third state, and on this one LP wins.
        let lp_wins = |s: &Schedule| if *s == *greedy.schedule { 2.0 } else { 1.0 };
        assert!(ladder.upgrade(&g, &cost, &both, 0, c, lp_wins));
        assert_eq!(ladder.upgrades(), 4);
        for state in [a, b, c] {
            // Already top quality, wherever it is asked.
            assert!(!ladder.upgrade(&g, &cost, &both, 0, state, lp_wins));
        }
        assert_eq!(ladder.upgrades(), 4);
    }

    #[test]
    fn breakers_on_the_fast_class_reprice_the_slow_pair() {
        // Mixed box: GPUs 0-1 are A40s, 2-3 are V100Ss.  When breakers
        // trip the fast pair, the ladder must schedule on a slot table
        // restricted to the slow class — not serve a plan priced for
        // A40s — and the two platform slices must never share a cache
        // entry.
        let (g, _) = fixture();
        let platform = hios_cost::Platform::mixed_a40_v100s();
        let cost = hios_cost::platform_table(&platform, &g).unwrap();
        let mut ladder = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        });
        let inf = f64::INFINITY;
        let fast = ladder
            .decide(
                &g,
                &cost,
                &[true, true, false, false],
                0,
                inf,
                0,
                Policy::Anytime,
            )
            .unwrap();
        let slow = ladder
            .decide(
                &g,
                &cost,
                &[false, false, true, true],
                0,
                inf,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_ne!(slow.rung, Rung::Cached, "different alive set must miss");
        assert_eq!(slow.gpu_map, vec![2, 3]);
        assert!(
            slow.nominal_ms > fast.nominal_ms,
            "V100S-only plan ({:.3} ms) must price slower than the A40 pair ({:.3} ms)",
            slow.nominal_ms,
            fast.nominal_ms
        );
        // Same alive mask on a *different* platform: the fingerprint in
        // the cache key keeps the uniform table from hitting the entry
        // the heterogeneous table populated.
        let uniform = AnalyticCostModel::a40_nvlink().build_table(&g);
        let u = ladder
            .decide(
                &g,
                &uniform,
                &[true, true, false, false],
                0,
                inf,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_ne!(u.rung, Rung::Cached, "platform change must miss");
        // Re-asking for the slow pair on the hetero table still hits.
        let again = ladder
            .decide(
                &g,
                &cost,
                &[false, false, true, true],
                0,
                inf,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(again.rung, Rung::Cached);
        assert_eq!(again.nominal_ms, slow.nominal_ms);
    }

    #[test]
    fn brownout_cap_bounds_the_computed_rung_but_not_cache_hits() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        });
        let inf = f64::INFINITY;
        // Capped at InterLp: full LP is affordable but forbidden.
        let d = ladder
            .decide_capped(
                &g,
                &cost,
                &[true, true],
                0,
                inf,
                0,
                Policy::Anytime,
                RungCap::InterLp,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::InterLp);
        // Under the deepest cap a *different* platform goes greedy.
        let d = ladder
            .decide_capped(
                &g,
                &cost,
                &[true, false],
                0,
                inf,
                0,
                Policy::Anytime,
                RungCap::Greedy,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::Greedy);
        // But the cached inter-LP plan still answers under any cap.
        let d = ladder
            .decide_capped(
                &g,
                &cost,
                &[true, true],
                0,
                inf,
                0,
                Policy::Anytime,
                RungCap::Greedy,
            )
            .unwrap();
        assert_eq!(d.rung, Rung::Cached);
        // The uncapped wrapper is the Full cap.
        let mut fresh = AnytimeLadder::new(LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        });
        let d = fresh
            .decide(&g, &cost, &[true, true], 0, inf, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(d.rung, Rung::FullLp);
    }

    #[test]
    fn no_alive_gpus_is_a_typed_error() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig::default());
        let err = ladder
            .decide(
                &g,
                &cost,
                &[false, false],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::NoCapacity);
    }

    #[test]
    fn policies_count_their_rungs() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig::default());
        ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::GreedyOnly,
            )
            .unwrap();
        ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::FixedFullLp,
            )
            .unwrap();
        let counts = ladder.rung_counts();
        assert_eq!(counts[Rung::Greedy.index()], 1);
        assert_eq!(counts[Rung::FullLp.index()], 1);
    }

    // ---- verdict memo --------------------------------------------------

    use hios_sim::{Scaling, SimConfig, simulate_scaled};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Three physical states of a 3-GPU box, picked so that rankings
    /// flip on the fixture: healthy (full LP < inter-GPU LP < greedy on
    /// every alive set), GPU 1 at quarter speed (greedy beats both LP
    /// plans on three GPUs), the 0<->1 link degraded (the inter-GPU LP
    /// plan beats the full one on GPUs 0-1).
    fn platform_pool() -> [Scaling; 3] {
        let healthy = Scaling::identity(3);
        let mut slow_gpu = healthy.clone();
        slow_gpu.gpu[1] = 4.0;
        let mut slow_link = healthy.clone();
        slow_link.link[1] = 4.0;
        slow_link.link[3] = 4.0;
        [healthy, slow_gpu, slow_link]
    }

    /// What of `key`'s cache entry a replayed verdict must reproduce.
    fn entry(ladder: &AnytimeLadder, key: &ScheduleCacheKey) -> Option<(u64, Rung, u64)> {
        let plan = ladder.cache.peek(key)?;
        Some((plan.digest, plan.rung, plan.makespan_ms.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Differential check of the verdict memo: one random history of
        /// dispatches, re-ranks and idle upgrades over three alive sets
        /// and three platform states, through a cache small enough to
        /// evict — run on a ladder that is told the states by name (so
        /// verdicts replay) and, through the same code, on one that is
        /// told a never-repeating name (so every verdict is computed).
        #[test]
        fn replayed_verdicts_leave_the_cache_as_computed_ones_do(
            (seed, capacity) in (0u64..u64::MAX, 1usize..=3)
        ) {
            let (g, cost) = fixture();
            let pool = platform_pool();
            let masks = [[true, true, true], [true, true, false], [false, true, true]];
            let keys = masks.map(|alive| resolve(&g, &cost, &alive).unwrap().2);
            let cfg = LadderConfig {
                cache_capacity: capacity,
                ..LadderConfig::default()
            };
            let mut replaying = AnytimeLadder::new(cfg);
            let mut computing = AnytimeLadder::new(cfg);
            let mut rng = TestRng::for_case("verdict-memo", seed);
            // Re-ranks and upgrades that had something to decide.
            let mut contests = [0u64; 2];
            for step in 0..80u64 {
                let at = rng.below(3) as usize;
                let alive = &masks[at];
                let on = rng.below(3) as usize;
                let scale = pool[on].project(&alive_slots(alive));
                let eval = |s: &Schedule| {
                    simulate_scaled(&g, &cost, s, &SimConfig::analytical(), &scale)
                        .map_or(f64::INFINITY, |r| r.makespan)
                };
                let op = rng.below(4);
                // What a miss can afford: full LP, inter-GPU LP or greedy.
                let slack = [f64::INFINITY, 10.0, 1.0][rng.below(3) as usize];
                let names = [PlatformState(on as u64), PlatformState(1000 + step)];
                let before = entry(&computing, &keys[at]);
                contests[0] += u64::from(op == 0 && before.is_some());
                contests[1] += u64::from(op == 1 && before.is_none_or(|e| e.1 != Rung::FullLp));
                let mut changed = [false; 2];
                for (i, ladder) in [&mut replaying, &mut computing].into_iter().enumerate() {
                    changed[i] = match op {
                        0 => ladder.rerank(&g, &cost, alive, names[i], eval),
                        1 => ladder.upgrade(&g, &cost, alive, 0, names[i], eval),
                        _ => {
                            ladder
                                .decide(&g, &cost, alive, 0, slack, 0, Policy::Anytime)
                                .unwrap();
                            false
                        }
                    };
                }
                prop_assert_eq!((step, changed[0]), (step, changed[1]));
                for key in &keys {
                    prop_assert_eq!(
                        (step, entry(&replaying, key)),
                        (step, entry(&computing, key))
                    );
                }
            }
            prop_assert_eq!(replaying.cache_evictions(), computing.cache_evictions());
            // The never-repeating name really never hit; the pool's did.
            prop_assert_eq!([computing.reranks_computed, computing.upgrades()], contests);
            prop_assert!(replaying.reranks_computed <= computing.reranks_computed);
            prop_assert!(replaying.upgrades() <= computing.upgrades());
        }
    }

    #[test]
    fn the_verdict_memo_forgets_its_oldest_verdict_at_the_bound() {
        let (g, cost) = fixture();
        let mut ladder = AnytimeLadder::new(LadderConfig::default());
        let alive = [true, true];
        ladder
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        let nominal = |s: &Schedule| {
            hios_sim::simulate(&g, &cost, s, &SimConfig::analytical())
                .map_or(f64::INFINITY, |r| r.makespan)
        };
        let slots = VERDICT_MEMO_SLOTS as u64;
        for state in 0..=slots {
            ladder.rerank(&g, &cost, &alive, PlatformState(state), nominal);
        }
        assert_eq!(ladder.reranks_computed, slots + 1);
        assert_eq!(ladder.verdicts.verdicts.len(), VERDICT_MEMO_SLOTS);
        assert_eq!(ladder.verdicts.order.len(), VERDICT_MEMO_SLOTS);
        // The newest verdict replays; the oldest was dropped to make room
        // for it and is reached again.
        ladder.rerank(&g, &cost, &alive, PlatformState(slots), nominal);
        assert_eq!(ladder.reranks_computed, slots + 1);
        ladder.rerank(&g, &cost, &alive, PlatformState(0), nominal);
        assert_eq!(ladder.reranks_computed, slots + 2);
        assert_eq!(ladder.verdicts.verdicts.len(), VERDICT_MEMO_SLOTS);
    }

    // ---- durable store rung -------------------------------------------

    use hios_store::StoreOptions;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch() -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hios-ladder-store-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&p).expect("create scratch dir");
        p.join("plans.log")
    }

    fn with_store(cfg: LadderConfig, path: &std::path::Path) -> AnytimeLadder {
        let mut ladder = AnytimeLadder::new(cfg);
        ladder.attach_store(PlanStore::open(path, StoreOptions::default()).unwrap());
        ladder
    }

    #[test]
    fn store_rung_warm_starts_a_fresh_ladder() {
        let (g, cost) = fixture();
        let path = scratch();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        };
        let alive = [true, true];
        let cold = {
            let mut ladder = with_store(cfg, &path);
            ladder
                .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
                .unwrap()
        };
        assert_eq!(cold.rung, Rung::FullLp);

        // A restarted process: fresh ladder, same log.
        let mut warm = with_store(cfg, &path);
        let first = warm
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(first.rung, Rung::Store, "restart must warm-start");
        assert_eq!(first.sched_cost_ms, STORE_HIT_COST_MS);
        assert_eq!(first.schedule, cold.schedule);
        assert_eq!(first.nominal_ms, cold.nominal_ms);
        // The store hit was adopted into the memory cache.
        let second = warm
            .decide(&g, &cost, &alive, 0, f64::INFINITY, 0, Policy::Anytime)
            .unwrap();
        assert_eq!(second.rung, Rung::Cached);
        assert_eq!(warm.rung_counts()[Rung::Store.index()], 1);
        let stats = warm.store_stats().unwrap();
        assert_eq!((stats.hits, stats.quarantines), (1, 0));
    }

    #[test]
    fn decisions_with_and_without_a_store_are_identical() {
        let (g, cost) = fixture();
        let cfg = LadderConfig::default();
        let mut plain = AnytimeLadder::new(cfg);
        let mut backed = with_store(cfg, &scratch());
        for queue in [0usize, 1, 9] {
            let a = plain
                .decide(&g, &cost, &[true, true], queue, 40.0, 0, Policy::Anytime)
                .unwrap();
            let b = backed
                .decide(&g, &cost, &[true, true], queue, 40.0, 0, Policy::Anytime)
                .unwrap();
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.nominal_ms, b.nominal_ms);
            assert_eq!(a.sched_cost_ms, b.sched_cost_ms);
        }
    }

    #[test]
    fn stale_epoch_plans_are_typed_misses() {
        let (g, cost) = fixture();
        let path = scratch();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        };
        {
            let mut ladder = with_store(cfg, &path);
            ladder
                .decide(
                    &g,
                    &cost,
                    &[true, true],
                    0,
                    f64::INFINITY,
                    0,
                    Policy::Anytime,
                )
                .unwrap();
        }
        // Same problem, later calibration epoch: the epoch-0 plan must
        // not masquerade as a current-price plan.
        let mut ladder = with_store(cfg, &path);
        let d = ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                3,
                Policy::Anytime,
            )
            .unwrap();
        assert_ne!(d.rung, Rung::Store);
        assert_eq!(ladder.store_stats().unwrap().misses, 1);
    }

    #[test]
    fn evicted_entries_fall_back_to_the_store_rung() {
        let (g, cost) = fixture();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            cache_capacity: 1,
            ..LadderConfig::default()
        };
        let mut ladder = with_store(cfg, &scratch());
        let a = ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        ladder
            .decide(
                &g,
                &cost,
                &[true, false],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(ladder.cache_evictions(), 1, "capacity 1 must evict");
        // The evicted platform's plan survives in the durable tier.
        let again = ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_eq!(again.rung, Rung::Store);
        assert_eq!(again.schedule, a.schedule);
    }

    #[test]
    fn a_log_without_rungs_learns_them_in_one_lp_pass_per_tenant() {
        // Three tenants' full-LP plans, persisted the way a build that
        // predates the rung field does: through the rung-less `put`.
        let tenants: Vec<(Graph, CostTable)> = (0..3)
            .map(|seed| {
                let g = generate_layered_dag(&LayeredDagConfig {
                    ops: 30 + 5 * seed as usize,
                    layers: 6,
                    deps: 60,
                    seed,
                })
                .unwrap();
                let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
                (g, cost)
            })
            .collect();
        let eval = |g: &Graph, cost: &CostTable, s: &Schedule| {
            hios_sim::simulate(g, cost, s, &hios_sim::SimConfig::analytical())
                .map(|r| r.makespan)
                .unwrap_or(f64::INFINITY)
        };
        let path = scratch();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            cache_capacity: 1, // every dispatch evicts the previous tenant
            ..LadderConfig::default()
        };
        let alive = [true, true];
        let inf = f64::INFINITY;
        let mut keys = Vec::new();
        {
            let mut plain = AnytimeLadder::new(cfg);
            let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
            for (g, cost) in &tenants {
                let d = plain
                    .decide(g, cost, &alive, 0, inf, 0, Policy::Anytime)
                    .unwrap();
                assert_eq!(d.rung, Rung::FullLp);
                let key = PlanKey::from_cache_key(&resolve(g, cost, &alive).unwrap().2, 0);
                store
                    .put(key, &d.schedule, eval(g, cost, &d.schedule))
                    .unwrap();
                keys.push(key);
            }
        }

        // Served from that log, each tenant is re-adopted on every
        // dispatch and offered an upgrade after it: LP runs once per
        // tenant, ties its own plan, and the put that follows — same
        // content, same makespan, a rung the record lacked — is written.
        let mut ladder = with_store(cfg, &path);
        for _round in 0..3 {
            for (g, cost) in &tenants {
                let d = ladder
                    .decide(g, cost, &alive, 0, inf, 0, Policy::Anytime)
                    .unwrap();
                assert_eq!(d.rung, Rung::Store);
                let on_profile = |s: &Schedule| eval(g, cost, s);
                ladder.upgrade(g, cost, &alive, 0, PlatformState(0), on_profile);
            }
        }
        assert_eq!(ladder.upgrades(), tenants.len() as u64);
        assert_eq!(ladder.store_stats().unwrap().puts_full, 3);
        drop(ladder);

        // The reopened log knows, and a restarted ladder runs no pass.
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        for key in &keys {
            assert_eq!(store.get_shared(key).unwrap().rung, Some(PlanRung::FullLp));
        }
        drop(store);
        let mut restarted = with_store(cfg, &path);
        for (g, cost) in &tenants {
            let d = restarted
                .decide(g, cost, &alive, 0, inf, 0, Policy::Anytime)
                .unwrap();
            assert_eq!(d.rung, Rung::Store, "the decision still names the store");
            let on_profile = |s: &Schedule| eval(g, cost, s);
            assert!(!restarted.upgrade(g, cost, &alive, 0, PlatformState(0), on_profile));
        }
        assert_eq!(restarted.upgrades(), 0);
        assert_eq!(restarted.store_stats().unwrap().puts_full, 0);
    }

    #[test]
    fn a_readopted_plan_keeps_its_id_and_is_validated_once() {
        let (g, cost) = fixture();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            cache_capacity: 1,
            ..LadderConfig::default()
        };
        let path = scratch();
        let inf = f64::INFINITY;
        let (both, one) = ([true, true], [true, false]);
        let mut ladder = with_store(cfg, &path);
        let computed = ladder
            .decide(&g, &cost, &both, 0, inf, 0, Policy::Anytime)
            .unwrap();
        for _ in 0..3 {
            ladder
                .decide(&g, &cost, &one, 0, inf, 0, Policy::Anytime)
                .unwrap();
            let back = ladder
                .decide(&g, &cost, &both, 0, inf, 0, Policy::Anytime)
                .unwrap();
            assert_eq!(back.rung, Rung::Store);
            assert_eq!(back.plan_id, computed.plan_id, "same content, same id");
            assert!(Arc::ptr_eq(&back.schedule, &computed.schedule));
        }
        assert_eq!(ladder.plans_issued(), 2, "one id per key, ever");
        drop(ladder);

        // A restart adopts each stored plan under one new id.
        let mut warm = with_store(cfg, &path);
        let mut ids = Vec::new();
        for _ in 0..3 {
            for alive in [&both, &one] {
                let d = warm
                    .decide(&g, &cost, alive, 0, inf, 0, Policy::Anytime)
                    .unwrap();
                assert_eq!(d.rung, Rung::Store);
                ids.push(d.plan_id);
            }
        }
        assert_eq!(warm.plans_issued(), 2);
        assert!(ids.chunks(2).all(|pair| pair == &ids[..2]));
    }

    #[test]
    fn corrupted_log_replans_instead_of_serving_garbage() {
        let (g, cost) = fixture();
        let path = scratch();
        let cfg = LadderConfig {
            budget: SchedBudget::unlimited(),
            ..LadderConfig::default()
        };
        let cold = {
            let mut ladder = with_store(cfg, &path);
            ladder
                .decide(
                    &g,
                    &cost,
                    &[true, true],
                    0,
                    f64::INFINITY,
                    0,
                    Policy::Anytime,
                )
                .unwrap()
        };
        // Flip a bit in the record body.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 40;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let mut ladder = with_store(cfg, &path);
        let d = ladder
            .decide(
                &g,
                &cost,
                &[true, true],
                0,
                f64::INFINITY,
                0,
                Policy::Anytime,
            )
            .unwrap();
        assert_ne!(d.rung, Rung::Store, "corruption must be a miss, not a hit");
        assert_eq!(d.schedule, cold.schedule, "replanning restores the plan");
        assert_eq!(ladder.rung_counts()[Rung::Store.index()], 0);
    }
}
