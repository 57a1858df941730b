//! Online schedule repair after a fault.
//!
//! Given the set of operators that already completed (their outputs are
//! checkpointed and available cluster-wide) and the set of GPUs still
//! alive, [`repair_schedule`] extracts the unfinished subgraph —
//! completed ops pinned, in-flight ops restarted from scratch — and
//! produces a fresh schedule for it over the survivors:
//!
//! * [`RepairPolicy::Reschedule`] re-runs HIOS-LP (Alg. 1 + Alg. 2) on
//!   the subgraph, warm-started through the caller's [`EvalWorkspace`]
//!   so repeated repairs in one recovery loop reuse every allocation;
//! * [`RepairPolicy::Greedy`] is the fast fallback for tight deadlines:
//!   one deterministic earliest-finish pass in topological order, no
//!   candidate search.
//!
//! Either way the repaired schedule must pass
//! [`Schedule::validate_full`] before it is returned; the subsystem
//! degrades gracefully down to a single surviving GPU (`M = 1`).
//!
//! The returned schedule is expressed over *slots* `0..m_alive`;
//! [`RepairOutcome::gpu_map`] maps each slot back to the physical GPU
//! index so the simulator can resume on the real device set.

use crate::eval::{EvalError, EvalWorkspace, evaluate_with};
use crate::lp::{HiosLpConfig, schedule_hios_lp};
use crate::schedule::{GpuSchedule, Schedule, Stage};
use hios_cost::CostTable;
use hios_graph::{Graph, GraphBuilder, OpId};
use std::fmt;

/// How to rebuild the unfinished part of a schedule after a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepairPolicy {
    /// Deterministic earliest-finish list pass — cheap, no search.
    Greedy,
    /// Warm-started HIOS-LP over the survivors — slower, better latency.
    Reschedule,
}

impl RepairPolicy {
    /// Display name used in bench tables.
    pub fn name(self) -> &'static str {
        match self {
            RepairPolicy::Greedy => "greedy",
            RepairPolicy::Reschedule => "reschedule",
        }
    }
}

/// Knobs of a repair run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairConfig {
    /// Rebuild policy.
    pub policy: RepairPolicy,
    /// Sliding-window size `w` handed to Alg. 2 under
    /// [`RepairPolicy::Reschedule`].
    pub window: usize,
}

impl RepairConfig {
    /// Default window of 4 with the given policy.
    pub fn new(policy: RepairPolicy) -> Self {
        RepairConfig { policy, window: 4 }
    }
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig::new(RepairPolicy::Reschedule)
    }
}

/// Why a repair failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RepairError {
    /// Every GPU is marked dead; nothing can host the remaining work.
    NoSurvivingGpus,
    /// Mask lengths disagree with the graph / platform.
    BadInput(String),
    /// The rebuilt schedule failed validation or evaluation (a scheduler
    /// bug, surfaced instead of panicking mid-recovery).
    Invalid(EvalError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::NoSurvivingGpus => write!(f, "no surviving GPUs to repair onto"),
            RepairError::BadInput(why) => write!(f, "bad repair input: {why}"),
            RepairError::Invalid(e) => write!(f, "repair produced an invalid schedule: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<EvalError> for RepairError {
    fn from(e: EvalError) -> Self {
        RepairError::Invalid(e)
    }
}

/// The unfinished subgraph and its id correspondence with the parent.
#[derive(Clone, Debug)]
pub struct SubgraphMap {
    /// The induced subgraph over unfinished operators.
    pub sub: Graph,
    /// Subgraph id → parent id.
    pub to_parent: Vec<OpId>,
    /// Parent id → subgraph id, dense ([`SubgraphMap::NO_SUB`] marks a
    /// completed operator).  A flat `u32` vector instead of
    /// `Vec<Option<OpId>>`: half the memory, and the recovery loops that
    /// translate whole schedules through it stay on a branch-light
    /// sentinel compare.
    pub from_parent: Vec<u32>,
}

impl SubgraphMap {
    /// Sentinel in [`SubgraphMap::from_parent`] for operators with no
    /// subgraph counterpart (already completed).
    pub const NO_SUB: u32 = u32::MAX;

    /// Subgraph id of a parent operator, `None` when it completed.
    #[inline]
    pub fn sub_id(&self, parent: OpId) -> Option<OpId> {
        let s = self.from_parent[parent.index()];
        (s != Self::NO_SUB).then(|| OpId::from_index(s as usize))
    }

    /// Re-expresses a slot schedule over parent ids (what
    /// [`RepairOutcome::schedule`] holds) in subgraph ids, keeping the
    /// slot and stage structure — the form the simulator runs against
    /// [`SubgraphMap::sub`].
    ///
    /// # Panics
    /// If `sched` names an operator that already completed.
    pub fn to_sub_schedule(&self, sched: &Schedule) -> Schedule {
        relabel(sched, |p| {
            self.sub_id(p)
                .expect("schedule covers only unfinished operators")
        })
    }
}

/// `sched` with every operator renamed through `f`, structure kept.
fn relabel(sched: &Schedule, f: impl Fn(OpId) -> OpId) -> Schedule {
    Schedule {
        gpus: sched
            .gpus
            .iter()
            .map(|gq| GpuSchedule {
                stages: gq
                    .stages
                    .iter()
                    .map(|st| Stage {
                        ops: st.ops.iter().map(|&v| f(v)).collect(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Slot → physical GPU map of an alive mask: the indices of the GPUs
/// still marked alive, ascending.  Every slot schedule in the repair,
/// recovery and serving loops numbers its slots this way.
pub fn alive_slots(alive: &[bool]) -> Vec<usize> {
    alive
        .iter()
        .enumerate()
        .filter_map(|(i, &a)| a.then_some(i))
        .collect()
}

/// Extracts the subgraph induced by the unfinished operators.
///
/// Completed predecessors are dropped: their outputs are treated as
/// checkpointed inputs available on every GPU (DESIGN.md §8), so an
/// unfinished operator whose remaining predecessors are all complete
/// becomes a source of the subgraph.  Subgraph ids are assigned in the
/// parent's topological id sweep, so `sub` ids are insertion-ordered and
/// the extraction is deterministic.
pub fn extract_unfinished(g: &Graph, completed: &[bool]) -> SubgraphMap {
    assert_eq!(completed.len(), g.num_ops(), "completed mask length");
    let mut from_parent = vec![SubgraphMap::NO_SUB; g.num_ops()];
    let mut to_parent = Vec::new();
    let mut bld = GraphBuilder::new();
    let mut inputs = Vec::new();
    for v in hios_graph::topo::topo_order(g) {
        if completed[v.index()] {
            continue;
        }
        inputs.clear();
        for &u in g.preds(v) {
            let su = from_parent[u.index()];
            if su != SubgraphMap::NO_SUB {
                inputs.push(OpId::from_index(su as usize));
            }
        }
        let sv = bld.add_synthetic(g.node(v).name.clone(), &inputs);
        from_parent[v.index()] = sv.index() as u32;
        to_parent.push(v);
    }
    SubgraphMap {
        sub: bld.build(),
        to_parent,
        from_parent,
    }
}

/// Projects the parent cost table onto a subgraph: per-operator costs are
/// carried over verbatim on every device and link class, the topology and
/// concurrency model are shared, and the meter starts fresh.
pub fn project_cost(cost: &CostTable, map: &SubgraphMap) -> CostTable {
    let project =
        |row: &Vec<f64>| -> Vec<f64> { map.to_parent.iter().map(|&p| row[p.index()]).collect() };
    hios_cost::CostTable::heterogeneous(
        format!("{} (repair projection)", cost.source),
        hios_cost::DeviceCosts {
            exec_ms: cost.device.exec_ms.iter().map(project).collect(),
            util: cost.device.util.iter().map(project).collect(),
        },
        cost.transfer_ms.iter().map(project).collect(),
        cost.topology.clone(),
        cost.concurrency,
        cost.launch_overhead_ms,
    )
}

/// What a repair produced.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Schedule of the unfinished operators (parent ids) over slots
    /// `0..m_alive`; slot `i` is physical GPU [`RepairOutcome::gpu_map`]`[i]`.
    pub schedule: Schedule,
    /// Slot → physical GPU index.
    pub gpu_map: Vec<usize>,
    /// Stage-synchronous latency of the remaining work, ms (relative to
    /// the resume instant).
    pub latency: f64,
    /// The policy that built it.
    pub policy: RepairPolicy,
}

/// Deterministic multi-GPU earliest-finish list schedule over `m` GPUs:
/// one pass in topological order, each operator placed where it finishes
/// soonest (lowest-GPU tie-break), every operator its own stage.
///
/// This is [`RepairPolicy::Greedy`]'s scheduler, exposed on its own
/// because it is also the cheapest rung of the `hios-serve` anytime
/// ladder — the thing a loaded server falls back to when even the
/// inter-GPU-only LP blows the scheduling budget.
pub fn greedy_schedule(g: &Graph, cost: &CostTable, m: usize) -> Schedule {
    Schedule::from_gpu_orders(greedy_orders(g, cost, m))
}

/// Deterministic earliest-finish assignment over `m` slots, topological
/// order, lowest-slot tie-break.  No randomness, no thread pool: output
/// is identical at any thread count by construction.
fn greedy_orders(sub: &Graph, cost: &CostTable, m: usize) -> Vec<Vec<OpId>> {
    let n = sub.num_ops();
    let mut finish = vec![0.0f64; n];
    let mut slot_of = vec![0usize; n];
    let mut free = vec![0.0f64; m];
    let mut orders = vec![Vec::new(); m];
    for v in hios_graph::topo::topo_order(sub) {
        let mut best_slot = 0usize;
        let mut best_f = f64::INFINITY;
        for (slot, &slot_free) in free.iter().enumerate() {
            let mut ready = slot_free;
            for &u in sub.preds(v) {
                let arrival = if slot_of[u.index()] == slot {
                    finish[u.index()]
                } else {
                    finish[u.index()] + cost.transfer(u, slot_of[u.index()], slot)
                };
                ready = ready.max(arrival);
            }
            let f = ready + cost.exec_on(slot, v);
            if f < best_f {
                best_f = f;
                best_slot = slot;
            }
        }
        finish[v.index()] = best_f;
        slot_of[v.index()] = best_slot;
        free[best_slot] = best_f;
        orders[best_slot].push(v);
    }
    orders
}

/// Repairs a partially-executed run: schedules the unfinished subgraph of
/// `g` (per `completed`) over the GPUs still marked `alive`.
///
/// `ws` is the caller's evaluation arena — passing the same workspace
/// across repairs (and across the scheduler that built the original
/// schedule) keeps the relaxation buffers warm.  The repaired schedule is
/// checked with [`Schedule::validate_full`] against the subgraph and
/// evaluated through `ws` before being returned, so callers can trust
/// [`RepairOutcome::latency`] and resume without re-validating.
pub fn repair_schedule(
    ws: &mut EvalWorkspace,
    g: &Graph,
    cost: &CostTable,
    completed: &[bool],
    alive: &[bool],
    cfg: &RepairConfig,
) -> Result<(RepairOutcome, SubgraphMap), RepairError> {
    if completed.len() != g.num_ops() {
        return Err(RepairError::BadInput(format!(
            "completed mask has {} entries for {} operators",
            completed.len(),
            g.num_ops()
        )));
    }
    let gpu_map = alive_slots(alive);
    let m_alive = gpu_map.len();
    if m_alive == 0 {
        return Err(RepairError::NoSurvivingGpus);
    }

    let map = extract_unfinished(g, completed);
    if map.sub.num_ops() == 0 {
        return Ok((
            RepairOutcome {
                schedule: Schedule::empty(m_alive),
                gpu_map,
                latency: 0.0,
                policy: cfg.policy,
            },
            map,
        ));
    }
    // Project op rows onto the unfinished subgraph, then restrict the
    // topology to the surviving GPUs so slot `i` prices as physical GPU
    // `gpu_map[i]` (on a uniform platform this is the identity).
    let sub_cost = project_cost(cost, &map).restrict_gpus(&gpu_map);

    let sub_sched = match cfg.policy {
        RepairPolicy::Reschedule => {
            schedule_hios_lp(
                &map.sub,
                &sub_cost,
                HiosLpConfig {
                    num_gpus: m_alive,
                    window: cfg.window,
                    intra: true,
                },
            )
            .schedule
        }
        RepairPolicy::Greedy => {
            Schedule::from_gpu_orders(greedy_orders(&map.sub, &sub_cost, m_alive))
        }
    };

    sub_sched
        .validate_full(&map.sub, None)
        .map_err(EvalError::Structure)?;
    let latency = evaluate_with(ws, &map.sub, &sub_cost, &sub_sched)?.latency;

    // Translate subgraph ids back to parent ids, keeping slot structure.
    let schedule = relabel(&sub_sched, |v| map.to_parent[v.index()]);
    Ok((
        RepairOutcome {
            schedule,
            gpu_map,
            latency,
            policy: cfg.policy,
        },
        map,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn instance(seed: u64) -> (Graph, CostTable) {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 60,
            layers: 6,
            deps: 120,
            seed,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
        (g, cost)
    }

    /// Predecessor-closed completed mask: the first `k` ops of a
    /// topological order.
    fn completed_prefix(g: &Graph, k: usize) -> Vec<bool> {
        let mut done = vec![false; g.num_ops()];
        for &v in hios_graph::topo::topo_order(g).iter().take(k) {
            done[v.index()] = true;
        }
        done
    }

    #[test]
    fn extraction_preserves_unfinished_dependencies() {
        let (g, _) = instance(7);
        let done = completed_prefix(&g, 25);
        let map = extract_unfinished(&g, &done);
        assert_eq!(map.sub.num_ops(), 35);
        // Every parent edge between unfinished ops survives.
        for (u, v) in g.edges() {
            if let (Some(su), Some(sv)) = (map.sub_id(u), map.sub_id(v)) {
                assert!(map.sub.has_edge(su, sv), "{u} -> {v} dropped");
            }
        }
        // Round trip of the id maps.
        for (si, &p) in map.to_parent.iter().enumerate() {
            assert_eq!(map.sub_id(p), Some(OpId::from_index(si)));
        }
    }

    #[test]
    fn both_policies_repair_and_validate() {
        let (g, cost) = instance(11);
        let done = completed_prefix(&g, 30);
        let alive = [true, false, true, true]; // GPU 1 failed
        let mut ws = EvalWorkspace::new();
        for policy in [RepairPolicy::Greedy, RepairPolicy::Reschedule] {
            let (out, map) = repair_schedule(
                &mut ws,
                &g,
                &cost,
                &done,
                &alive,
                &RepairConfig::new(policy),
            )
            .unwrap();
            assert_eq!(out.gpu_map, vec![0, 2, 3]);
            assert_eq!(out.schedule.num_gpus(), 3);
            assert_eq!(out.schedule.num_ops(), 30);
            assert!(out.latency > 0.0);
            // The slot schedule, mapped back to subgraph ids, validates.
            let sub_view = map.to_sub_schedule(&out.schedule);
            assert!(sub_view.validate_full(&map.sub, None).is_ok(), "{policy:?}");
        }
    }

    #[test]
    fn degrades_to_single_gpu() {
        let (g, cost) = instance(3);
        let done = completed_prefix(&g, 10);
        let mut ws = EvalWorkspace::new();
        let (out, _) = repair_schedule(
            &mut ws,
            &g,
            &cost,
            &done,
            &[false, false, false, true],
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(out.gpu_map, vec![3]);
        assert_eq!(out.schedule.num_gpus(), 1);
        assert_eq!(out.schedule.num_ops(), 50);
    }

    #[test]
    fn no_survivors_is_an_error() {
        let (g, cost) = instance(3);
        let done = completed_prefix(&g, 10);
        let mut ws = EvalWorkspace::new();
        assert_eq!(
            repair_schedule(
                &mut ws,
                &g,
                &cost,
                &done,
                &[false, false],
                &RepairConfig::default()
            )
            .unwrap_err(),
            RepairError::NoSurvivingGpus
        );
    }

    #[test]
    fn nothing_left_yields_empty_schedule() {
        let (g, cost) = instance(5);
        let done = vec![true; g.num_ops()];
        let mut ws = EvalWorkspace::new();
        let (out, map) = repair_schedule(
            &mut ws,
            &g,
            &cost,
            &done,
            &[true, true],
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(map.sub.num_ops(), 0);
        assert_eq!(out.schedule.num_ops(), 0);
        assert_eq!(out.latency, 0.0);
    }

    #[test]
    fn reschedule_beats_or_matches_greedy_on_average() {
        // The paper's ordering should carry over to repairs: the HIOS-LP
        // rebuild is at least as good as the greedy fallback on average.
        let mut greedy_sum = 0.0;
        let mut resched_sum = 0.0;
        let mut ws = EvalWorkspace::new();
        for seed in 0..5 {
            let (g, cost) = instance(seed);
            let done = completed_prefix(&g, 20);
            let alive = [true, true, false, true];
            for (policy, sum) in [
                (RepairPolicy::Greedy, &mut greedy_sum),
                (RepairPolicy::Reschedule, &mut resched_sum),
            ] {
                let (out, _) = repair_schedule(
                    &mut ws,
                    &g,
                    &cost,
                    &done,
                    &alive,
                    &RepairConfig::new(policy),
                )
                .unwrap();
                *sum += out.latency;
            }
        }
        assert!(
            resched_sum <= greedy_sum * 1.05,
            "{resched_sum} vs {greedy_sum}"
        );
    }
}
