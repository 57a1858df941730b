//! Fleet serving: N independent cluster serve loops behind a
//! failure-aware router, on one virtual clock.
//!
//! Each cluster is a full [`crate::server`] instance — its own
//! `hios-sim` platform, breakers, brownout controller, and retry budget
//! — stepped as a coroutine by the fleet pump.  The pump is a three-way
//! merge, in strict virtual-time order, of the clusters' own events, the
//! trace's arrivals (read off a cursor sorted by arrival instant — they
//! are known up front and never queued) and the few fleet events that
//! are scheduled as the run goes (cluster faults, partition heals,
//! health heartbeats).  Ties are broken deterministically — cluster
//! before arrival before queued event; lower cluster index, trace
//! position, push order within each — so a fleet run is as replayable
//! as a single-cluster run: same inputs, same seed, bit-identical
//! outcome digest, regardless of thread count.  A request costs the
//! fleet layer no allocation of its own: the routable set is a bitmask,
//! each tenant's cluster ranking is computed once, and a request's
//! first copy lives inline in its slot.
//!
//! The robustness machinery on top:
//!
//! * **Failure-aware routing** ([`crate::router`]): per-tenant
//!   rendezvous hashing filtered by the [`crate::health`] view, with
//!   power-of-two-choices on live queue depth.  The
//!   [`crate::router::RouterPolicy::StaticHash`] ablation keeps hashing
//!   onto dead clusters.
//! * **Cluster failover**: a [`hios_sim::ClusterFaultKind::ClusterKill`]
//!   drains the dying cluster's queued, in-flight, and retry-pending
//!   requests and re-routes each one that is still feasible — the
//!   deadline is re-checked against the target cluster's admission
//!   bound — producing typed [`FleetDisposition::Rerouted`] chains and
//!   [`FleetDisposition::FailoverShed`] leaves.  No request is silently
//!   lost: every trace entry ends in exactly one terminal disposition.
//! * **Hedged dispatch**: a Gold request whose deadline slack is tighter
//!   than 4 × the primary cluster's admission bound is duplicated onto
//!   the second-choice cluster.  First completion wins;
//!   the loser is cancelled (freeing its slot) and counted, never
//!   recorded twice.
//! * **Backpressure**: when every routable candidate's smoothed queue
//!   fill exceeds the health threshold, non-Gold arrivals are shed at
//!   the router instead of being rammed into survivors — a dead
//!   cluster's load cannot stampede the rest of the fleet past their
//!   brownout thresholds.

use crate::health::{HealthConfig, HealthSample, HealthView};
use crate::report::{ClassStats, Fnv, OutcomeFold};
use crate::request::{Disposition, PriorityClass, Request, RequestRecord, ServeError, ShedReason};
use crate::router::{Choice, Ranking, Router, RouterConfig, RouterPolicy};
use crate::server::{self, ServeConfig, ServeOutcome, ServedModel, Server};
use hios_sim::{
    ClusterFaultEvent, ClusterFaultKind, DriftPlan, EventQueue, FaultEvent, FaultKind, FaultPlan,
    validate_cluster_events,
};

/// A Gold request is hedged when its remaining slack at routing time is
/// below this many times the primary cluster's admission bound for its
/// model.
const HEDGE_SLACK_FACTOR: f64 = 4.0;

/// Configuration of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// One serve configuration per cluster (the fleet size is
    /// `clusters.len()`, capped at 16).
    pub clusters: Vec<ServeConfig>,
    /// Router policy and seed.
    pub router: RouterConfig,
    /// Health-view knobs (heartbeat period, EWMA weight, backpressure
    /// threshold).
    pub health: HealthConfig,
    /// Hedged dispatch for deadline-critical Gold requests.
    pub hedge: bool,
}

impl FleetConfig {
    /// A fleet of `clusters` identical clusters with `gpus` GPUs each,
    /// default router, health, and hedging.
    pub fn new(clusters: usize, gpus: usize) -> Self {
        FleetConfig {
            clusters: (0..clusters).map(|_| ServeConfig::new(gpus)).collect(),
            router: RouterConfig::default(),
            health: HealthConfig::default(),
            hedge: true,
        }
    }
}

/// Fault inputs of a fleet run: per-cluster GPU-level plans plus
/// cluster-level events.
#[derive(Clone, Debug, Default)]
pub struct FleetFaults {
    /// GPU-level fault plans, one per cluster (or empty for none
    /// anywhere).
    pub per_cluster: Vec<FaultPlan>,
    /// Cluster-scoped events: kills, degrades, router partitions.
    /// Degrades are lowered to per-GPU slowdowns in the target cluster's
    /// own plan (and are therefore subject to its normal repair loop);
    /// kills and partitions are handled at the fleet layer.
    pub cluster_events: Vec<ClusterFaultEvent>,
}

impl FleetFaults {
    /// A fault-free fleet.
    pub fn none() -> Self {
        FleetFaults::default()
    }
}

/// Why failover gave up on re-routing a drained request.
#[derive(Clone, Debug, PartialEq)]
pub enum FailoverReason {
    /// Every routable target's admission bound lands past the deadline.
    DeadlineInfeasible {
        /// Earliest bounded finish on the best target, ms.
        bound_finish_ms: f64,
        /// The request's deadline, ms.
        deadline_ms: f64,
    },
    /// No cluster is routable (all dead or partitioned).
    NoRoutableCluster,
    /// Every routable target is over the backpressure threshold and the
    /// request is not Gold.
    Backpressure,
}

/// Why the fleet shed a request outside a cluster's own admission path.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetShedReason {
    /// The owning cluster shed it through its normal admission /
    /// brownout / retry machinery.
    Cluster(ShedReason),
    /// Static-hash routing sent it to a dead cluster.
    DeadCluster {
        /// The dead target.
        cluster: usize,
    },
    /// Static-hash routing sent it to a cluster the router cannot reach.
    Partitioned {
        /// The unreachable target.
        cluster: usize,
    },
    /// Router backpressure: every candidate over the fill threshold.
    Backpressure,
    /// No cluster was routable at arrival.
    NoRoutableCluster,
}

/// The typed terminal fate of one fleet request.  `Rerouted` wraps the
/// downstream outcome, so a request that survives a cluster kill reads
/// as `Rerouted { .., outcome: Completed { .. } }`.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetDisposition {
    /// Ran to completion on `cluster`.
    Completed {
        /// Cluster that produced the completion.
        cluster: usize,
        /// Completion instant, ms.
        finish_ms: f64,
        /// End-to-end latency, ms.
        latency_ms: f64,
        /// Execution attempts on the completing cluster.
        attempts: u32,
        /// Whether it finished by its deadline.
        met_deadline: bool,
        /// Mid-run plan repairs it observed.
        repairs: u32,
        /// Whether a hedged twin was issued for this request.
        hedged: bool,
    },
    /// Shed — by a cluster's own machinery or by the router.
    Shed {
        /// The cluster involved, when one was (router-level sheds with
        /// no target carry `None`).
        cluster: Option<usize>,
        /// Shed instant, ms.
        at_ms: f64,
        /// Typed reason.
        reason: FleetShedReason,
    },
    /// Failover moved the request off a killed cluster; `outcome` is
    /// what happened next.
    Rerouted {
        /// The killed source cluster.
        from: usize,
        /// The failover target.
        to: usize,
        /// Re-route instant (the kill instant), ms.
        at_ms: f64,
        /// The request's fate on the target.
        outcome: Box<FleetDisposition>,
    },
    /// Failover drained the request off a killed cluster but could not
    /// re-route it.
    FailoverShed {
        /// The killed source cluster.
        from: usize,
        /// Shed instant (the kill instant), ms.
        at_ms: f64,
        /// Why re-routing was impossible.
        reason: FailoverReason,
    },
}

impl FleetDisposition {
    /// The innermost (terminal) node, unwrapping `Rerouted` chains.
    pub fn terminal(&self) -> &FleetDisposition {
        match self {
            FleetDisposition::Rerouted { outcome, .. } => outcome.terminal(),
            other => other,
        }
    }

    /// Whether the request ultimately completed.
    pub fn completed(&self) -> bool {
        matches!(self.terminal(), FleetDisposition::Completed { .. })
    }

    /// Whether the request completed on time.
    pub fn on_time(&self) -> bool {
        matches!(
            self.terminal(),
            FleetDisposition::Completed {
                met_deadline: true,
                ..
            }
        )
    }

    /// Number of `Rerouted` hops in the chain.
    pub fn reroutes(&self) -> usize {
        match self {
            FleetDisposition::Rerouted { outcome, .. } => 1 + outcome.reroutes(),
            _ => 0,
        }
    }
}

/// One fleet request's final record.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRecord {
    /// The request as served.
    pub request: Request,
    /// Its typed fate.
    pub disposition: FleetDisposition,
}

/// Aggregate statistics of one fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Requests in the trace.
    pub total: usize,
    /// Requests that ran to completion somewhere.
    pub completed: usize,
    /// Completions that met their deadline.
    pub on_time: usize,
    /// Requests that ended shed (any typed reason).
    pub shed: usize,
    /// Deadline misses (late completions + every shed) over the trace.
    pub miss_rate: f64,
    /// On-time completions per second of virtual horizon.
    pub goodput_rps: f64,
    /// Virtual horizon, ms.
    pub horizon_ms: f64,
    /// Requests that survived at least one failover re-route.
    pub rerouted: usize,
    /// Drained requests failover could not place.
    pub failover_sheds: usize,
    /// Static-hash requests lost to a dead cluster.
    pub dead_cluster_sheds: usize,
    /// Static-hash requests lost to a router partition.
    pub partitioned_sheds: usize,
    /// Router backpressure sheds (arrival- and failover-time).
    pub backpressure_sheds: usize,
    /// Sheds because no cluster was routable.
    pub no_routable_sheds: usize,
    /// Hedged twins issued.
    pub hedges_issued: u64,
    /// Hedged requests whose secondary copy won.
    pub hedge_wins_secondary: u64,
    /// Losing twins cancelled after the winner completed.
    pub hedge_cancelled: u64,
    /// Twin outcomes that arrived after the winner (wasted work).
    pub hedge_wasted: u64,
    /// Cluster-kill events that fired.
    pub cluster_kills: usize,
    /// Router-partition events that fired.
    pub partitions: usize,
    /// Per-priority-class statistics, indexed by `PriorityClass::index`.
    pub class_stats: [ClassStats; 3],
    /// FNV-1a digest of the full outcome stream (replay check).
    pub history_digest: u64,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-request fates, sorted by request id.
    pub records: Vec<FleetRecord>,
    /// Aggregate statistics.
    pub report: FleetReport,
    /// Each cluster's own serve outcome (its records cover only the
    /// copies that terminated there).
    pub clusters: Vec<ServeOutcome>,
}

/// FNV-1a digest of a fleet outcome stream.  Same constants as
/// [`crate::report::history_digest`]; `Rerouted` chains are folded
/// recursively, so two runs agree iff every request took the same path
/// to the same fate.
pub fn fleet_history_digest(records: &[FleetRecord]) -> u64 {
    fn fold(h: &mut Fnv, d: &FleetDisposition) {
        match d {
            FleetDisposition::Completed {
                cluster,
                finish_ms,
                latency_ms,
                attempts,
                met_deadline,
                repairs,
                hedged,
            } => {
                h.eat(1);
                h.eat(*cluster as u64);
                h.eat(finish_ms.to_bits());
                h.eat(latency_ms.to_bits());
                h.eat(u64::from(*attempts));
                h.eat(u64::from(*met_deadline));
                h.eat(u64::from(*repairs));
                h.eat(u64::from(*hedged));
            }
            FleetDisposition::Shed {
                cluster,
                at_ms,
                reason,
            } => {
                h.eat(2);
                h.eat(cluster.map_or(0, |c| c as u64 + 1));
                h.eat(at_ms.to_bits());
                match reason {
                    FleetShedReason::Cluster(r) => h.eat_shed(r),
                    FleetShedReason::DeadCluster { cluster } => {
                        h.eat(20);
                        h.eat(*cluster as u64);
                    }
                    FleetShedReason::Partitioned { cluster } => {
                        h.eat(21);
                        h.eat(*cluster as u64);
                    }
                    FleetShedReason::Backpressure => h.eat(22),
                    FleetShedReason::NoRoutableCluster => h.eat(23),
                }
            }
            FleetDisposition::Rerouted {
                from,
                to,
                at_ms,
                outcome,
            } => {
                h.eat(3);
                h.eat(*from as u64);
                h.eat(*to as u64);
                h.eat(at_ms.to_bits());
                fold(h, outcome);
            }
            FleetDisposition::FailoverShed {
                from,
                at_ms,
                reason,
            } => {
                h.eat(4);
                h.eat(*from as u64);
                h.eat(at_ms.to_bits());
                match reason {
                    FailoverReason::DeadlineInfeasible {
                        bound_finish_ms,
                        deadline_ms,
                    } => {
                        h.eat(30);
                        h.eat(bound_finish_ms.to_bits());
                        h.eat(deadline_ms.to_bits());
                    }
                    FailoverReason::NoRoutableCluster => h.eat(31),
                    FailoverReason::Backpressure => h.eat(32),
                }
            }
        }
    }
    let mut h = Fnv::new();
    for r in records {
        h.eat(r.request.id);
        fold(&mut h, &r.disposition);
    }
    h.finish()
}

/// A completed failover hop, recorded so the terminal disposition can be
/// wrapped in its `Rerouted` chain.
#[derive(Clone, Copy, Debug)]
struct Hop {
    from: usize,
    to: usize,
    at_ms: f64,
}

/// One physical copy of a request (the original, or its hedged twin).
struct Branch {
    cluster: usize,
    /// State index inside the owning cluster's server.
    idx: usize,
    /// Still pending inside a cluster.
    live: bool,
    /// This copy's shed, parked while its sibling is still live (so only
    /// ever set on a hedged request).
    shed: Option<Box<FleetDisposition>>,
    /// Failover hops this copy took (empty, unallocated, unless its
    /// cluster was killed under it).
    hops: Vec<Hop>,
}

impl Branch {
    /// The first copy of a request the router has not placed (yet).
    const UNPLACED: Branch = Branch {
        cluster: 0,
        idx: 0,
        live: false,
        shed: None,
        hops: Vec::new(),
    };

    /// A copy about to be admitted into `cluster`.
    fn bound_for(cluster: usize) -> Self {
        Branch {
            cluster,
            live: true,
            ..Branch::UNPLACED
        }
    }
}

/// The fleet's state for one trace entry (`reqs[i]` is `trace[i]`) across
/// its copies.  A request has at most two — a re-route moves a copy, it
/// does not add one — so the first lives inline and the hedged twin in
/// [`Fleet::twins`].
struct FleetReq {
    first: Branch,
    /// The hedged twin's slot in [`Fleet::twins`], once one was issued.
    twin: Option<usize>,
    terminal: Option<FleetDisposition>,
}

// 300k of these are the fleet layer's working set; a `Vec<Branch>` per
// request once made that 640 B each.
const _: () = assert!(std::mem::size_of::<FleetReq>() <= 192);

/// A hedged twin: the second copy of `reqs[fi]`.
struct Twin {
    fi: usize,
    branch: Branch,
}

/// Names one physical copy: what a cluster's state index maps back to.
#[derive(Clone, Copy, Debug)]
enum CopyRef {
    /// The first-issued copy of `reqs[fi]`.
    First(usize),
    /// `twins[ti]`.
    Twin(usize),
}

/// A fleet event that waits on the queue.  Arrivals never do: the trace
/// is known up front, so the pump reads them off a sorted cursor.
enum FleetEvent {
    /// A cluster kill or router partition fires.
    Fault(ClusterFaultEvent),
    /// A router partition to this cluster heals.
    PartitionHeal(usize),
    /// Periodic health heartbeat across all live clusters.
    Heartbeat,
}

/// What the pump processes next.
enum Next {
    /// Cluster `ci` steps its own earliest event.
    Cluster(usize),
    /// Trace entry `ti` arrives at the router.
    Arrival(usize),
    /// The head of the fleet event queue fires.
    Queued,
}

struct Cluster<'a> {
    srv: Server<'a>,
    alive: bool,
    /// Consumed-records watermark into `srv.outcomes()`.
    seen: usize,
    /// State index → the copy it stands for.
    copy_map: Vec<CopyRef>,
    /// Terminal outcomes since the last heartbeat.
    window_outcomes: u64,
    /// Misses (shed or late) among them.
    window_misses: u64,
}

struct Fleet<'a> {
    cfg: &'a FleetConfig,
    trace: &'a [Request],
    clusters: Vec<Cluster<'a>>,
    /// Each tenant's cluster ranking, fixed for the run.
    rankings: Vec<Ranking>,
    health: HealthView,
    /// Faults, heals and heartbeats — a handful of entries at any time.
    events: EventQueue<FleetEvent>,
    /// Trace positions by arrival instant, trace position among equals.
    arrivals: Vec<usize>,
    /// Arrivals already routed: `arrivals[arrived..]` are still to come.
    arrived: usize,
    /// One per trace entry, in trace order.
    reqs: Vec<FleetReq>,
    twins: Vec<Twin>,
    /// Fleet requests without a terminal disposition yet.
    open: usize,
    now: f64,
    ctr: FleetCounters,
}

#[derive(Default)]
struct FleetCounters {
    hedges_issued: u64,
    hedge_wins_secondary: u64,
    hedge_cancelled: u64,
    hedge_wasted: u64,
    cluster_kills: usize,
    partitions: usize,
}

fn wrap_hops(hops: &[Hop], inner: FleetDisposition) -> FleetDisposition {
    let mut d = inner;
    for h in hops.iter().rev() {
        d = FleetDisposition::Rerouted {
            from: h.from,
            to: h.to,
            at_ms: h.at_ms,
            outcome: Box::new(d),
        };
    }
    d
}

impl<'a> Fleet<'a> {
    /// The clusters the router may place new work on, as a bitmask.
    fn routable(&self) -> u16 {
        (0..self.clusters.len())
            .filter(|&c| self.clusters[c].alive && self.health.routable(c))
            .fold(0, |mask, c| mask | 1 << c)
    }

    /// The failover choice for `tenant` right now.
    fn choose(&self, tenant: usize) -> Option<Choice> {
        self.rankings[tenant].choose(self.routable(), |c| self.clusters[c].srv.queue_depth())
    }

    /// The fleet request `copy` belongs to.
    fn owner(&self, copy: CopyRef) -> usize {
        match copy {
            CopyRef::First(fi) => fi,
            CopyRef::Twin(ti) => self.twins[ti].fi,
        }
    }

    fn branch(&self, copy: CopyRef) -> &Branch {
        match copy {
            CopyRef::First(fi) => &self.reqs[fi].first,
            CopyRef::Twin(ti) => &self.twins[ti].branch,
        }
    }

    fn branch_mut(&mut self, copy: CopyRef) -> &mut Branch {
        match copy {
            CopyRef::First(fi) => &mut self.reqs[fi].first,
            CopyRef::Twin(ti) => &mut self.twins[ti].branch,
        }
    }

    /// The other copy of `copy`'s request, if it exists and is pending.
    fn live_sibling(&self, copy: CopyRef) -> Option<CopyRef> {
        let sibling = match copy {
            CopyRef::First(fi) => CopyRef::Twin(self.reqs[fi].twin?),
            CopyRef::Twin(ti) => CopyRef::First(self.twins[ti].fi),
        };
        self.branch(sibling).live.then_some(sibling)
    }

    /// Settles `fi` with its terminal disposition.
    fn finish(&mut self, fi: usize, d: FleetDisposition) {
        debug_assert!(self.reqs[fi].terminal.is_none());
        self.reqs[fi].terminal = Some(d);
        self.open -= 1;
    }

    /// Admits `copy` into the cluster its branch names, records which
    /// copy the cluster's new state index stands for, and drains any
    /// records the injection produced synchronously (immediate sheds,
    /// cascaded dispatch sheds).
    fn admit(&mut self, copy: CopyRef) {
        let fi = self.owner(copy);
        let ci = self.branch(copy).cluster;
        let idx = self.clusters[ci].srv.inject(self.trace[fi], self.now);
        debug_assert_eq!(self.clusters[ci].copy_map.len(), idx);
        self.clusters[ci].copy_map.push(copy);
        self.branch_mut(copy).idx = idx;
        self.consume(ci);
    }

    /// Places the first copy of `fi` on cluster `ci`.
    fn inject_first(&mut self, fi: usize, ci: usize) {
        self.reqs[fi].first = Branch::bound_for(ci);
        self.admit(CopyRef::First(fi));
    }

    /// Issues the hedged twin of `fi` on cluster `ci`.
    fn inject_twin(&mut self, fi: usize, ci: usize) {
        let ti = self.twins.len();
        self.twins.push(Twin {
            fi,
            branch: Branch::bound_for(ci),
        });
        self.reqs[fi].twin = Some(ti);
        self.ctr.hedges_issued += 1;
        self.admit(CopyRef::Twin(ti));
    }

    /// Routes a fresh arrival.
    fn route_fresh(&mut self, fi: usize) {
        let request = self.trace[fi];
        match self.cfg.router.policy {
            RouterPolicy::StaticHash => {
                let target = self.rankings[request.model].top();
                if !self.clusters[target].alive || self.health.cluster(target).dead {
                    let d = FleetDisposition::Shed {
                        cluster: Some(target),
                        at_ms: self.now,
                        reason: FleetShedReason::DeadCluster { cluster: target },
                    };
                    self.finish(fi, d);
                } else if !self.health.cluster(target).reachable {
                    let d = FleetDisposition::Shed {
                        cluster: Some(target),
                        at_ms: self.now,
                        reason: FleetShedReason::Partitioned { cluster: target },
                    };
                    self.finish(fi, d);
                } else {
                    self.inject_first(fi, target);
                }
            }
            RouterPolicy::Failover => {
                let Some(choice) = self.choose(request.model) else {
                    let d = FleetDisposition::Shed {
                        cluster: None,
                        at_ms: self.now,
                        reason: FleetShedReason::NoRoutableCluster,
                    };
                    self.finish(fi, d);
                    return;
                };
                let over_primary = self.health.overloaded(choice.primary);
                let over_all = choice
                    .hedge
                    .map_or(over_primary, |h| over_primary && self.health.overloaded(h));
                if over_all && request.class != PriorityClass::Gold {
                    let d = FleetDisposition::Shed {
                        cluster: Some(choice.primary),
                        at_ms: self.now,
                        reason: FleetShedReason::Backpressure,
                    };
                    self.finish(fi, d);
                    return;
                }
                let hedge_target = match choice.hedge {
                    Some(target) if self.cfg.hedge && request.class == PriorityClass::Gold => {
                        let bound = self.clusters[choice.primary].srv.bound_ms(request.model);
                        let slack = request.deadline_ms - self.now;
                        (slack < HEDGE_SLACK_FACTOR * bound).then_some(target)
                    }
                    _ => None,
                };
                self.inject_first(fi, choice.primary);
                if let Some(target) = hedge_target {
                    if self.reqs[fi].terminal.is_none() {
                        self.inject_twin(fi, target);
                    }
                }
            }
        }
    }

    /// Drains new records from cluster `ci` past its watermark.
    fn consume(&mut self, ci: usize) {
        loop {
            let (idx, record) = {
                let c = &self.clusters[ci];
                let (terminal_idx, records) = c.srv.outcomes();
                if c.seen >= records.len() {
                    return;
                }
                (terminal_idx[c.seen], records[c.seen].clone())
            };
            self.clusters[ci].seen += 1;
            let copy = self.clusters[ci].copy_map[idx];
            self.on_branch_record(ci, copy, record);
        }
    }

    /// Folds one cluster-level record into the fleet request it belongs
    /// to.
    fn on_branch_record(&mut self, ci: usize, copy: CopyRef, record: RequestRecord) {
        let miss = match &record.disposition {
            Disposition::Completed { met_deadline, .. } => !met_deadline,
            Disposition::Shed { .. } => true,
        };
        self.clusters[ci].window_outcomes += 1;
        if miss {
            self.clusters[ci].window_misses += 1;
        }
        let fi = self.owner(copy);
        self.branch_mut(copy).live = false;
        if self.reqs[fi].terminal.is_some() {
            // The twin already settled this request; late work is waste.
            self.ctr.hedge_wasted += 1;
            return;
        }
        match record.disposition {
            Disposition::Completed {
                finish_ms,
                latency_ms,
                attempts,
                met_deadline,
                repairs,
            } => {
                if matches!(copy, CopyRef::Twin(_)) {
                    self.ctr.hedge_wins_secondary += 1;
                }
                let inner = FleetDisposition::Completed {
                    cluster: ci,
                    finish_ms,
                    latency_ms,
                    attempts,
                    met_deadline,
                    repairs,
                    hedged: self.reqs[fi].twin.is_some(),
                };
                let wrapped = wrap_hops(&self.branch(copy).hops, inner);
                // First completion wins: cancel the live sibling so it
                // neither runs nor records.
                if let Some(other) = self.live_sibling(copy) {
                    let b = self.branch_mut(other);
                    b.live = false;
                    let (oc, oidx) = (b.cluster, b.idx);
                    if self.clusters[oc].alive {
                        self.clusters[oc].srv.touch(self.now);
                        self.clusters[oc].srv.cancel(oidx);
                        self.ctr.hedge_cancelled += 1;
                        // Cancelling may free a slot and shed other
                        // queued requests at dispatch — drain them.
                        self.consume(oc);
                    }
                }
                self.finish(fi, wrapped);
            }
            Disposition::Shed { at_ms, reason } => {
                let inner = FleetDisposition::Shed {
                    cluster: Some(ci),
                    at_ms,
                    reason: FleetShedReason::Cluster(reason),
                };
                self.on_branch_shed(copy, inner);
            }
        }
    }

    /// `copy` (no longer live) ended in `shed`.  While its sibling is
    /// still pending the shed is parked on the copy; once no copy is
    /// live, the first-issued copy's shed becomes the request's fate.
    fn on_branch_shed(&mut self, copy: CopyRef, shed: FleetDisposition) {
        let fi = self.owner(copy);
        debug_assert!(self.reqs[fi].terminal.is_none() && !self.branch(copy).live);
        let wrapped = wrap_hops(&self.branch(copy).hops, shed);
        if self.live_sibling(copy).is_some() {
            self.branch_mut(copy).shed = Some(Box::new(wrapped));
            return;
        }
        let fate = match copy {
            CopyRef::First(_) => wrapped,
            // A first copy that was drained while this twin carried the
            // request on parked nothing; the twin's shed then stands.
            CopyRef::Twin(_) => match self.reqs[fi].first.shed.take() {
                Some(parked) => *parked,
                None => wrapped,
            },
        };
        self.finish(fi, fate);
    }

    /// Kills cluster `ci`: drains its pending work and, under the
    /// failover policy, re-routes each still-feasible request.
    fn on_cluster_kill(&mut self, ci: usize) {
        if !self.clusters[ci].alive {
            return;
        }
        self.ctr.cluster_kills += 1;
        self.consume(ci);
        self.clusters[ci].srv.touch(self.now);
        self.clusters[ci].alive = false;
        self.health.mark_dead(ci);
        let drained = self.clusters[ci].srv.drain();
        for (idx, _) in drained {
            let copy = self.clusters[ci].copy_map[idx];
            self.branch_mut(copy).live = false;
            if self.reqs[self.owner(copy)].terminal.is_some() {
                continue;
            }
            if self.live_sibling(copy).is_some() {
                // The hedged twin carries the request forward.
                continue;
            }
            match self.cfg.router.policy {
                RouterPolicy::Failover => self.reroute(copy, ci),
                RouterPolicy::StaticHash => {
                    let inner = FleetDisposition::Shed {
                        cluster: Some(ci),
                        at_ms: self.now,
                        reason: FleetShedReason::DeadCluster { cluster: ci },
                    };
                    self.on_branch_shed(copy, inner);
                }
            }
        }
    }

    /// Re-routes `copy` off killed cluster `from`, shedding with a typed
    /// reason when no feasible target exists.
    fn reroute(&mut self, copy: CopyRef, from: usize) {
        let request = self.trace[self.owner(copy)];
        let failover_shed = |fleet: &mut Fleet<'a>, reason: FailoverReason| {
            let inner = FleetDisposition::FailoverShed {
                from,
                at_ms: fleet.now,
                reason,
            };
            fleet.on_branch_shed(copy, inner);
        };
        let Some(choice) = self.choose(request.model) else {
            failover_shed(self, FailoverReason::NoRoutableCluster);
            return;
        };
        let target = choice.primary;
        let bound_finish_ms = self.now + self.clusters[target].srv.bound_ms(request.model);
        if bound_finish_ms > request.deadline_ms {
            failover_shed(
                self,
                FailoverReason::DeadlineInfeasible {
                    bound_finish_ms,
                    deadline_ms: request.deadline_ms,
                },
            );
            return;
        }
        let over_all = self.health.overloaded(target)
            && choice.hedge.is_none_or(|h| self.health.overloaded(h));
        if over_all && request.class != PriorityClass::Gold {
            failover_shed(self, FailoverReason::Backpressure);
            return;
        }
        let at_ms = self.now;
        let b = self.branch_mut(copy);
        b.hops.push(Hop {
            from,
            to: target,
            at_ms,
        });
        b.cluster = target;
        b.live = true;
        self.admit(copy);
    }

    /// Samples every live cluster into the health view and re-arms the
    /// heartbeat while the run still has events to process.
    fn on_heartbeat(&mut self) {
        for ci in 0..self.clusters.len() {
            let c = &mut self.clusters[ci];
            if !c.alive {
                continue;
            }
            let miss_rate =
                (c.window_outcomes > 0).then(|| c.window_misses as f64 / c.window_outcomes as f64);
            let sample = HealthSample {
                queue_fill: c.srv.queue_fill_now(),
                miss_rate,
                alive_frac: c.srv.alive_fraction(),
            };
            c.window_outcomes = 0;
            c.window_misses = 0;
            self.health.heartbeat(ci, sample);
        }
        let work_left = self.arrived < self.arrivals.len()
            || self.events.peek_time().is_some()
            || self
                .clusters
                .iter()
                .any(|c| c.alive && c.srv.next_event_ms().is_some());
        if work_left {
            let period = self.health.config().heartbeat_ms;
            self.events.push(self.now + period, FleetEvent::Heartbeat);
        }
    }

    fn handle(&mut self, ev: FleetEvent) {
        match ev {
            FleetEvent::Fault(e) => match e.kind {
                ClusterFaultKind::ClusterKill => self.on_cluster_kill(e.cluster),
                ClusterFaultKind::PartitionRouter { heal_ms } => {
                    if self.clusters[e.cluster].alive {
                        self.ctr.partitions += 1;
                        self.health.set_reachable(e.cluster, false);
                        self.events
                            .push(self.now + heal_ms, FleetEvent::PartitionHeal(e.cluster));
                    }
                }
                // Degrades were lowered into the cluster's own plan.
                ClusterFaultKind::ClusterDegrade { .. } => {}
            },
            FleetEvent::PartitionHeal(ci) => {
                if self.clusters[ci].alive {
                    self.health.set_reachable(ci, true);
                }
            }
            FleetEvent::Heartbeat => self.on_heartbeat(),
        }
    }

    /// The earliest pending event and its instant — a three-way merge of
    /// the live clusters' own queues, the arrival cursor and the fleet
    /// event queue.  Equal instants go cluster first (lower index among
    /// clusters), then arrival (trace position among arrivals), then
    /// queued event (push order): a completion landing on the very kill
    /// instant still counts before the drain, and an arrival on a fault,
    /// heal or heartbeat instant is routed on the view from before it.
    fn next(&self) -> Option<(f64, Next)> {
        let cluster = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .filter_map(|(ci, c)| c.srv.next_event_ms().map(|t| (t, ci)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let arrival = self
            .arrivals
            .get(self.arrived)
            .map(|&ti| (self.trace[ti].arrival_ms, Next::Arrival(ti)));
        let queued = self.events.peek_time().map(|t| (t, Next::Queued));
        let fleet = match (arrival, queued) {
            (Some(a), Some(q)) if a.0.total_cmp(&q.0).is_gt() => Some(q),
            (arrival, queued) => arrival.or(queued),
        };
        match (cluster, fleet) {
            (Some((tc, _)), Some((tf, next))) if tf < tc => Some((tf, next)),
            (Some((tc, ci)), _) => Some((tc, Next::Cluster(ci))),
            (None, fleet) => fleet,
        }
    }

    /// Runs every cluster and the router to quiescence.
    fn pump(&mut self) {
        while let Some((t, next)) = self.next() {
            match next {
                Next::Cluster(ci) => {
                    self.clusters[ci].srv.step();
                    self.now = self.now.max(t);
                    self.consume(ci);
                }
                Next::Arrival(ti) => {
                    self.arrived += 1;
                    self.now = self.now.max(t);
                    self.route_fresh(ti);
                }
                Next::Queued => {
                    if let Some((_, ev)) = self.events.pop() {
                        self.now = self.now.max(t);
                        self.handle(ev);
                    }
                }
            }
        }
    }
}

/// Serves `trace` across a fleet of clusters under `faults`.
///
/// Deterministic: the pump orders cluster events, arrivals and fleet
/// events by virtual time with fixed tie-breaks (cluster before arrival
/// before fault, heal or heartbeat; lower cluster index first; trace
/// position among equal arrivals, so an unsorted trace serves like its
/// sorted self), and the outcome digest is bit-identical across runs and
/// rayon thread counts.
pub fn serve_fleet(
    models: &[ServedModel],
    trace: &[Request],
    faults: &FleetFaults,
    cfg: &FleetConfig,
) -> Result<FleetOutcome, ServeError> {
    let n = cfg.clusters.len();
    let router = Router::new(cfg.router, n)?;
    let health = HealthView::new(cfg.health, n)?;
    if !faults.per_cluster.is_empty() && faults.per_cluster.len() != n {
        return Err(server::bad_options(format!(
            "fleet faults: {} per-cluster plans for {} clusters",
            faults.per_cluster.len(),
            n
        )));
    }
    validate_cluster_events(&faults.cluster_events, n)
        .map_err(|e| server::bad_options(format!("fleet faults: {e}")))?;
    for ccfg in &cfg.clusters {
        server::validate_config(models, ccfg)?;
    }
    server::validate_trace(models, trace)?;

    // Stable-sort the cluster events by time (validation already ran).
    let mut cluster_faults = faults.cluster_events.clone();
    cluster_faults.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));

    // Lower degrades into the target cluster's own GPU-level plan, where
    // the normal detection/repair loop sees them; kills and partitions
    // wait on the fleet's queue, and the first heartbeat behind them.
    let mut plans: Vec<FaultPlan> = if faults.per_cluster.is_empty() {
        (0..n).map(|_| FaultPlan::none()).collect()
    } else {
        faults.per_cluster.clone()
    };
    let mut events = EventQueue::new();
    for e in &cluster_faults {
        if let ClusterFaultKind::ClusterDegrade { factor } = e.kind {
            let mut lowered = plans[e.cluster].events.clone();
            for gpu in 0..cfg.clusters[e.cluster].num_gpus {
                lowered.push(FaultEvent {
                    at_ms: e.at_ms,
                    kind: FaultKind::GpuSlowdown { gpu, factor },
                });
            }
            plans[e.cluster] = FaultPlan::new(lowered);
        } else {
            events.push(e.at_ms, FleetEvent::Fault(*e));
        }
    }
    events.push(cfg.health.heartbeat_ms, FleetEvent::Heartbeat);

    let drift = DriftPlan::none();
    let mut clusters = Vec::with_capacity(n);
    for (ci, ccfg) in cfg.clusters.iter().enumerate() {
        clusters.push(Cluster {
            srv: Server::build(models, &plans[ci], &drift, ccfg)?,
            alive: true,
            seen: 0,
            copy_map: Vec::new(),
            window_outcomes: 0,
            window_misses: 0,
        });
    }

    // Requests arrive by instant, trace position among equal instants
    // (the sort is stable), as in `Server::run_trace`.
    let mut arrivals: Vec<usize> = (0..trace.len()).collect();
    arrivals.sort_by(|&a, &b| trace[a].arrival_ms.total_cmp(&trace[b].arrival_ms));

    let mut fleet = Fleet {
        cfg,
        trace,
        clusters,
        rankings: (0..models.len())
            .map(|tenant| router.ranking(tenant as u64))
            .collect(),
        health,
        events,
        arrivals,
        arrived: 0,
        reqs: trace
            .iter()
            .map(|_| FleetReq {
                first: Branch::UNPLACED,
                twin: None,
                terminal: None,
            })
            .collect(),
        twins: Vec::new(),
        open: trace.len(),
        now: 0.0,
        ctr: FleetCounters::default(),
    };
    fleet.pump();

    let horizon_ms = fleet.now;
    // Every `terminal` is set: the cursor routed every arrival, which
    // settled it at the router or injected a copy; a cluster terminates
    // every copy it holds before its queue runs dry, or is killed and
    // drained; and each copy's end settles its request unless the sibling
    // is still live to do so.
    debug_assert_eq!(fleet.open, 0, "fleet pump drained with open requests");
    let mut records: Vec<FleetRecord> = fleet
        .reqs
        .into_iter()
        .zip(trace)
        .filter_map(|(r, &request)| {
            r.terminal.map(|disposition| FleetRecord {
                request,
                disposition,
            })
        })
        .collect();
    records.sort_by_key(|r| r.request.id);

    let report = summarize_fleet(&records, horizon_ms, fleet.ctr);
    let clusters = fleet
        .clusters
        .into_iter()
        .map(|c| c.srv.into_outcome())
        .collect();
    Ok(FleetOutcome {
        records,
        report,
        clusters,
    })
}

fn summarize_fleet(records: &[FleetRecord], horizon_ms: f64, ctr: FleetCounters) -> FleetReport {
    let mut rerouted = 0;
    let mut failover_sheds = 0;
    let mut dead_cluster_sheds = 0;
    let mut partitioned_sheds = 0;
    let mut backpressure_sheds = 0;
    let mut no_routable_sheds = 0;
    let mut fold = OutcomeFold::default();
    for r in records {
        let class = r.request.class;
        if r.disposition.reroutes() > 0 {
            rerouted += 1;
        }
        match r.disposition.terminal() {
            FleetDisposition::Completed {
                latency_ms,
                met_deadline,
                ..
            } => fold.note_completed(class, *latency_ms, *met_deadline),
            FleetDisposition::Shed { reason, .. } => {
                fold.note_shed(class);
                match reason {
                    FleetShedReason::Cluster(_) => {}
                    FleetShedReason::DeadCluster { .. } => dead_cluster_sheds += 1,
                    FleetShedReason::Partitioned { .. } => partitioned_sheds += 1,
                    FleetShedReason::Backpressure => backpressure_sheds += 1,
                    FleetShedReason::NoRoutableCluster => no_routable_sheds += 1,
                }
            }
            FleetDisposition::FailoverShed { reason, .. } => {
                fold.note_shed(class);
                failover_sheds += 1;
                match reason {
                    FailoverReason::DeadlineInfeasible { .. } => {}
                    FailoverReason::NoRoutableCluster => no_routable_sheds += 1,
                    FailoverReason::Backpressure => backpressure_sheds += 1,
                }
            }
            // `terminal()` recurses through every `Rerouted`, so it never
            // returns one.
            FleetDisposition::Rerouted { .. } => debug_assert!(false, "terminal() is a leaf"),
        }
    }
    let f = fold.finish(horizon_ms);
    FleetReport {
        total: f.total,
        completed: f.completed,
        on_time: f.on_time,
        shed: f.total - f.completed,
        miss_rate: f.miss_rate,
        goodput_rps: f.goodput_rps,
        horizon_ms,
        rerouted,
        failover_sheds,
        dead_cluster_sheds,
        partitioned_sheds,
        backpressure_sheds,
        no_routable_sheds,
        hedges_issued: ctr.hedges_issued,
        hedge_wins_secondary: ctr.hedge_wins_secondary,
        hedge_cancelled: ctr.hedge_cancelled,
        hedge_wasted: ctr.hedge_wasted,
        cluster_kills: ctr.cluster_kills,
        partitions: ctr.partitions,
        class_stats: f.class_stats,
        history_digest: fleet_history_digest(records),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ClassMix, WorkloadConfig, generate_trace_with_classes};
    use hios_core::{SchedulerError, bounds};
    use hios_cost::AnalyticCostModel;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn models() -> Vec<ServedModel> {
        [(1u64, 20), (2, 24), (3, 18)]
            .into_iter()
            .map(|(seed, ops)| {
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
            })
            .collect()
    }

    fn trace(n: usize, rate: f64, seed: u64) -> Vec<Request> {
        let models = models();
        let nominal: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, 2))
            .collect();
        let cfg = WorkloadConfig {
            requests: n,
            arrival_rate_rps: rate,
            deadline_factor: 6.0,
            seed,
        };
        generate_trace_with_classes(&cfg, &nominal, &ClassMix::default())
    }

    fn kill(cluster: usize, at_ms: f64) -> FleetFaults {
        FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![ClusterFaultEvent {
                at_ms,
                cluster,
                kind: ClusterFaultKind::ClusterKill,
            }],
        }
    }

    #[test]
    fn fault_free_fleet_completes_everything_it_admits() {
        let models = models();
        let trace = trace(400, 60.0, 7);
        let cfg = FleetConfig::new(3, 2);
        let out = serve_fleet(&models, &trace, &FleetFaults::none(), &cfg).unwrap();
        assert_eq!(out.report.total, trace.len());
        assert_eq!(out.records.len(), trace.len());
        assert_eq!(out.report.completed + out.report.shed, trace.len());
        assert_eq!(out.report.cluster_kills, 0);
        assert_eq!(out.report.dead_cluster_sheds, 0);
        assert!(out.report.completed > 0);
    }

    #[test]
    fn fleet_replay_is_bit_identical() {
        let models = models();
        let trace = trace(300, 80.0, 11);
        let cfg = FleetConfig::new(4, 2);
        let faults = kill(0, 2_000.0);
        let a = serve_fleet(&models, &trace, &faults, &cfg).unwrap();
        let b = serve_fleet(&models, &trace, &faults, &cfg).unwrap();
        assert_eq!(a.report.history_digest, b.report.history_digest);
        assert_eq!(a.report, b.report);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn cluster_kill_loses_nothing_under_failover() {
        let models = models();
        let trace = trace(500, 100.0, 3);
        let cfg = FleetConfig::new(4, 2);
        let span = trace.last().unwrap().arrival_ms;
        let out = serve_fleet(&models, &trace, &kill(1, span * 0.5), &cfg).unwrap();
        assert_eq!(out.report.total, trace.len());
        assert_eq!(out.report.cluster_kills, 1);
        // Failover never loses a request to the dead cluster untyped:
        // everything is completed, cluster-shed, rerouted, or
        // failover-shed.
        assert_eq!(out.report.dead_cluster_sheds, 0);
        // Cluster 1's own records never extend past the kill: its
        // pending work was drained, not abandoned.
        for r in &out.records {
            if let FleetDisposition::Rerouted { from, .. } = &r.disposition {
                assert_eq!(*from, 1);
            }
        }
    }

    #[test]
    fn static_hash_loses_the_dead_clusters_requests() {
        let models = models();
        let trace = trace(500, 100.0, 3);
        let mut cfg = FleetConfig::new(4, 2);
        cfg.router.policy = RouterPolicy::StaticHash;
        cfg.hedge = false;
        let span = trace.last().unwrap().arrival_ms;
        let out = serve_fleet(&models, &trace, &kill(1, span * 0.5), &cfg).unwrap();
        assert!(out.report.dead_cluster_sheds > 0);
        assert_eq!(out.report.rerouted, 0);
        assert_eq!(out.report.hedges_issued, 0);
        // Every post-kill arrival hashed to cluster 1 died with it.
        let r = Router::new(cfg.router, 4).unwrap();
        for rec in &out.records {
            let target = r.static_target(rec.request.model as u64);
            if target == 1 && rec.request.arrival_ms >= span * 0.5 {
                assert!(matches!(
                    rec.disposition.terminal(),
                    FleetDisposition::Shed {
                        reason: FleetShedReason::DeadCluster { cluster: 1 },
                        ..
                    }
                ));
            }
        }
    }

    #[test]
    fn failover_beats_static_hash_under_a_kill() {
        let models = models();
        let trace = trace(600, 90.0, 5);
        let span = trace.last().unwrap().arrival_ms;
        let faults = kill(0, span * 0.5);
        let failover = serve_fleet(&models, &trace, &faults, &FleetConfig::new(4, 2)).unwrap();
        let mut scfg = FleetConfig::new(4, 2);
        scfg.router.policy = RouterPolicy::StaticHash;
        scfg.hedge = false;
        let stat = serve_fleet(&models, &trace, &faults, &scfg).unwrap();
        assert!(
            failover.report.on_time > stat.report.on_time,
            "failover {} must beat static {}",
            failover.report.on_time,
            stat.report.on_time
        );
    }

    #[test]
    fn tight_deadlines_trigger_hedges_and_exactly_one_completion() {
        let models = models();
        // Tight deadlines: slack of 2× the admission bound is feasible
        // but under the 4×-bound hedge threshold, so every Gold hedges.
        let bounds: Vec<f64> = models
            .iter()
            .map(|m| bounds::combined_bound(&m.graph, &m.cost, 2))
            .collect();
        let mut trace = trace(300, 70.0, 13);
        for r in &mut trace {
            r.deadline_ms = r.arrival_ms + 2.0 * bounds[r.model];
        }
        let cfg = FleetConfig::new(3, 2);
        let out = serve_fleet(&models, &trace, &FleetFaults::none(), &cfg).unwrap();
        assert!(out.report.hedges_issued > 0, "tight Golds must hedge");
        assert!(out.report.hedge_wins_secondary <= out.report.hedges_issued);
        assert!(out.report.hedge_cancelled <= out.report.hedges_issued);
        // Cluster-level records never double-complete a request id
        // except via a cancelled (unrecorded) twin: ids seen across all
        // cluster completion records are unique.
        let mut seen = std::collections::BTreeSet::new();
        for c in &out.clusters {
            for rec in &c.records {
                if matches!(rec.disposition, Disposition::Completed { .. }) {
                    assert!(seen.insert(rec.request.id), "id {} twice", rec.request.id);
                }
            }
        }
    }

    #[test]
    fn a_completion_on_an_arrival_instant_is_stepped_first() {
        let models = models();
        let mut cfg = FleetConfig::new(1, 2);
        cfg.clusters[0].queue_capacity = 1;
        let request = |id: u64, arrival_ms: f64| Request {
            id,
            model: 0,
            arrival_ms,
            deadline_ms: arrival_ms + 1.0e6,
            class: PriorityClass::Gold,
        };
        // Request 0 runs while request 1 fills the one-slot queue.
        let mut trace = vec![request(0, 0.0), request(1, 0.001)];
        let alone = serve_fleet(&models, &trace, &FleetFaults::none(), &cfg).unwrap();
        let FleetDisposition::Completed { finish_ms, .. } = alone.records[0].disposition else {
            panic!("{:?}", alone.records[0]);
        };
        // Request 2 arrives on the instant request 0 completes: the
        // cluster steps first, so the slot request 1 leaves is free.
        trace.push(request(2, finish_ms));
        let out = serve_fleet(&models, &trace, &FleetFaults::none(), &cfg).unwrap();
        assert_eq!(out.records[0], alone.records[0]);
        assert!(
            out.records[2].disposition.completed(),
            "{:?}",
            out.records[2]
        );
    }

    #[test]
    fn the_fleet_report_does_not_depend_on_record_order() {
        let models = models();
        let trace = trace(300, 100.0, 3);
        let span = trace.last().unwrap().arrival_ms;
        let out = serve_fleet(
            &models,
            &trace,
            &kill(1, span * 0.5),
            &FleetConfig::new(4, 2),
        );
        let out = out.unwrap();
        let latency_of = |r: &FleetRecord| match r.disposition.terminal() {
            FleetDisposition::Completed { latency_ms, .. } => *latency_ms,
            _ => f64::INFINITY,
        };
        let mut sorted = out.records;
        sorted.sort_by(|a, b| latency_of(a).total_cmp(&latency_of(b)));
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (i * 7919 + 13) % (i + 1));
        }
        assert_ne!(shuffled, sorted);
        let report = |records: &[FleetRecord]| FleetReport {
            history_digest: 0,
            ..summarize_fleet(records, out.report.horizon_ms, FleetCounters::default())
        };
        assert_eq!(report(&shuffled), report(&sorted));
    }

    #[test]
    fn partition_sheds_static_and_reroutes_failover_then_heals() {
        let models = models();
        let trace = trace(400, 80.0, 9);
        let span = trace.last().unwrap().arrival_ms;
        let faults = FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![ClusterFaultEvent {
                at_ms: span * 0.25,
                cluster: 0,
                kind: ClusterFaultKind::PartitionRouter {
                    heal_ms: span * 0.25,
                },
            }],
        };
        let out = serve_fleet(&models, &trace, &faults, &FleetConfig::new(3, 2)).unwrap();
        assert_eq!(out.report.partitions, 1);
        // Failover routes around the partition: nothing is lost to it.
        assert_eq!(out.report.partitioned_sheds, 0);
        let mut scfg = FleetConfig::new(3, 2);
        scfg.router.policy = RouterPolicy::StaticHash;
        scfg.hedge = false;
        let stat = serve_fleet(&models, &trace, &faults, &scfg).unwrap();
        assert!(stat.report.partitioned_sheds > 0);
    }

    #[test]
    fn degrade_lowers_into_the_clusters_own_plan() {
        let models = models();
        let trace = trace(300, 60.0, 17);
        let span = trace.last().unwrap().arrival_ms;
        let faults = FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![ClusterFaultEvent {
                at_ms: span * 0.3,
                cluster: 0,
                kind: ClusterFaultKind::ClusterDegrade { factor: 8.0 },
            }],
        };
        let degraded = serve_fleet(&models, &trace, &faults, &FleetConfig::new(2, 2)).unwrap();
        let clean = serve_fleet(
            &models,
            &trace,
            &FleetFaults::none(),
            &FleetConfig::new(2, 2),
        )
        .unwrap();
        assert_ne!(
            degraded.report.history_digest, clean.report.history_digest,
            "an 8× degrade must perturb the outcome stream"
        );
        assert_eq!(degraded.report.cluster_kills, 0);
    }

    #[test]
    fn bad_fleet_inputs_are_typed_errors() {
        let models = models();
        let trace = trace(10, 50.0, 1);
        // Zero clusters.
        let cfg = FleetConfig {
            clusters: Vec::new(),
            ..FleetConfig::new(1, 2)
        };
        assert!(serve_fleet(&models, &trace, &FleetFaults::none(), &cfg).is_err());
        // Mismatched per-cluster plans.
        let faults = FleetFaults {
            per_cluster: vec![FaultPlan::none()],
            cluster_events: Vec::new(),
        };
        let cfg = FleetConfig::new(2, 2);
        assert!(serve_fleet(&models, &trace, &faults, &cfg).is_err());
        // Cluster event out of range.
        let faults = kill(9, 10.0);
        assert!(serve_fleet(&models, &trace, &faults, &cfg).is_err());
    }

    #[test]
    fn per_cluster_plan_that_does_not_fit_its_cluster_is_a_typed_error() {
        let models = models();
        let trace = trace(10, 50.0, 1);
        let faults = FleetFaults {
            per_cluster: vec![
                FaultPlan::none(),
                FaultPlan::single(1.0, FaultKind::GpuFailStop { gpu: 7 }),
            ],
            cluster_events: Vec::new(),
        };
        let err = serve_fleet(&models, &trace, &faults, &FleetConfig::new(2, 2)).unwrap_err();
        assert!(
            matches!(err, ServeError::Scheduler(SchedulerError::BadOptions(_))),
            "{err:?}"
        );
    }

    #[test]
    fn every_request_has_exactly_one_disposition_under_faults() {
        let models = models();
        let trace = trace(400, 120.0, 23);
        let span = trace.last().unwrap().arrival_ms;
        let faults = FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![
                ClusterFaultEvent {
                    at_ms: span * 0.3,
                    cluster: 2,
                    kind: ClusterFaultKind::ClusterKill,
                },
                ClusterFaultEvent {
                    at_ms: span * 0.5,
                    cluster: 1,
                    kind: ClusterFaultKind::PartitionRouter { heal_ms: 50.0 },
                },
            ],
        };
        let out = serve_fleet(&models, &trace, &faults, &FleetConfig::new(4, 2)).unwrap();
        assert_eq!(out.records.len(), trace.len());
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "one disposition per request");
    }
}
