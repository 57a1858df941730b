//! The closed detect → repair → resume loop.
//!
//! [`run_with_repair`] executes a schedule under a [`FaultPlan`]: the
//! discrete-event engine runs until a fault fires, the fault is detected
//! after a configurable latency, the run is cut at the detection instant
//! — operators that finished by then are *pinned* (their outputs are
//! checkpointed and available cluster-wide, DESIGN.md §8), operators in
//! flight or invalidated by the fault are *restarted* — and
//! [`hios_core::repair`] rebuilds a schedule for the unfinished subgraph
//! over the surviving GPUs, warm-started through one shared
//! [`EvalWorkspace`].  The loop resumes and repeats until the model
//! completes or no GPU survives.
//!
//! Fault semantics at the cut (relative to the fault instant `t_f` and
//! detection instant `t_d = t_f + detection`):
//!
//! * **fail-stop** — the GPU's operators finishing after `t_f` are lost;
//!   the GPU leaves the platform;
//! * **slowdown** — the GPU's operators finishing in `(t_f, t_d]` would
//!   actually have finished later, so they restart; the persistent
//!   factor applies to every later run;
//! * **link fail** — transfers on the directed link stall from `t_f`, so
//!   consumers fed by such a transfer after `t_f` restart; from the
//!   repair on, traffic reroutes at [`crate::REROUTE_FACTOR`];
//! * **link degrade** — like link-fail for the conservative restart
//!   rule, but the persistent factor is the event's own;
//! * **op hang** — the operator's in-flight execution never finishes;
//!   the watchdog reports it at `t_d` and repair restarts it (the hang
//!   is transient — a timeout, not a broken device).
//!
//! Everything is deterministic: same graph, costs, schedule, plan and
//! configuration give bit-identical results at any thread count.

use crate::engine::{Scaling, SimConfig, SimError, simulate_scaled};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
use hios_core::eval::EvalWorkspace;
use hios_core::repair::{RepairConfig, RepairError, RepairPolicy, repair_schedule};
use hios_core::repair::{extract_unfinished, project_cost};
use hios_core::schedule::Schedule;
use hios_cost::CostTable;
use hios_graph::Graph;
use std::fmt;

/// Downtime spent computing and distributing one repair, ms.
const REPAIR_OVERHEAD_MS: f64 = 0.1;

/// Knobs of the recovery loop.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Engine configuration for every (re)run segment.
    pub sim: SimConfig,
    /// Repair policy and window.
    pub repair: RepairConfig,
    /// Time between a fault firing and the runtime noticing it, ms.
    pub detection_ms: f64,
}

impl RecoveryConfig {
    /// Analytical engine semantics with a testbed-flavoured 0.5 ms
    /// detection latency.
    pub fn analytical() -> Self {
        RecoveryConfig {
            sim: SimConfig::analytical(),
            repair: RepairConfig::default(),
            detection_ms: 0.5,
        }
    }

    /// Rejects a non-finite or negative detection latency: a NaN would
    /// otherwise poison every absolute timestamp downstream of the
    /// first repair.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.detection_ms >= 0.0 && self.detection_ms.is_finite()) {
            return Err(format!(
                "detection_ms {} must be finite >= 0",
                self.detection_ms
            ));
        }
        Ok(())
    }
}

/// What the loop did about one fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepairAction {
    /// The fault had no effect (dead target, completed operator, or it
    /// fired after the run finished); no cut was made.
    Absorbed,
    /// The run was cut and the unfinished subgraph rescheduled.
    Rescheduled {
        /// Policy the repair used.
        policy: RepairPolicy,
        /// GPUs still alive after the fault.
        survivors: usize,
    },
    /// No GPU survived; the run was abandoned.
    Abandoned,
}

/// One detected (or absorbed) fault in the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimEvent {
    /// The injected fault (absolute plan time in
    /// [`FaultEvent::at_ms`]).
    pub fault: FaultEvent,
    /// Absolute detection time, ms; `None` when the fault was absorbed
    /// without a cut.
    pub detected_ms: Option<f64>,
    /// What the loop did.
    pub action: RepairAction,
}

/// Outcome of a faulted run.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryResult {
    /// End-to-end latency including detection and repair downtime, ms
    /// (meaningless when `completed` is false).
    pub makespan: f64,
    /// Whether every operator eventually finished.
    pub completed: bool,
    /// Absolute finish time per operator, ms (`NaN` for operators that
    /// never completed).
    pub op_finish: Vec<f64>,
    /// The fault trace, in processing order.
    pub events: Vec<SimEvent>,
    /// Number of cut-and-reschedule repairs performed.
    pub repairs: usize,
    /// Liveness per GPU at the end of the run.
    pub final_alive: Vec<bool>,
}

/// Why a recovery run could not be carried out.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoverError {
    /// The recovery configuration has a non-finite or out-of-range knob.
    BadConfig(String),
    /// The fault plan does not fit the platform or graph.
    Plan(FaultPlanError),
    /// A simulation segment failed.
    Sim(SimError),
    /// A repair failed.
    Repair(RepairError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::BadConfig(msg) => write!(f, "invalid recovery config: {msg}"),
            RecoverError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            RecoverError::Sim(e) => write!(f, "simulation failed: {e}"),
            RecoverError::Repair(e) => write!(f, "repair failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Runs `sched` on `g` under `plan`, repairing after every disruptive
/// fault.  See the module docs for the exact cut semantics.
pub fn run_with_repair(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    plan: &FaultPlan,
    cfg: &RecoveryConfig,
) -> Result<RecoveryResult, RecoverError> {
    let m = sched.num_gpus();
    cfg.validate().map_err(RecoverError::BadConfig)?;
    plan.validate(g, m).map_err(RecoverError::Plan)?;
    let n = g.num_ops();

    let mut completed = vec![false; n];
    let mut finish_abs = vec![f64::NAN; n];
    let mut alive = vec![true; m];
    let mut scale = Scaling::identity(m);
    let mut t_now = 0.0f64;
    let mut events_out: Vec<SimEvent> = Vec::new();
    let mut repairs = 0usize;
    // The live schedule is over *slots*; slot i is physical GPU
    // gpu_map[i].  The input schedule starts with the identity map.
    let mut cur_sched = sched.clone();
    let mut gpu_map: Vec<usize> = (0..m).collect();
    let mut ws = EvalWorkspace::new();
    let mut ev_idx = 0usize;

    loop {
        let map = extract_unfinished(g, &completed);
        if map.sub.num_ops() == 0 {
            // Everything was pinned at the last cut.
            let makespan = finish_abs
                .iter()
                .copied()
                .filter(|f| f.is_finite())
                .fold(0.0f64, f64::max);
            while ev_idx < plan.events.len() {
                events_out.push(SimEvent {
                    fault: plan.events[ev_idx],
                    detected_ms: None,
                    action: RepairAction::Absorbed,
                });
                ev_idx += 1;
            }
            return Ok(RecoveryResult {
                makespan,
                completed: true,
                op_finish: finish_abs,
                events: events_out,
                repairs,
                final_alive: alive,
            });
        }
        let sub_cost = project_cost(cost, &map);
        let sub_sched = map.to_sub_schedule(&cur_sched);
        let slot_scale = scale.project(&gpu_map);
        let r = simulate_scaled(&map.sub, &sub_cost, &sub_sched, &cfg.sim, &slot_scale)
            .map_err(RecoverError::Sim)?;

        // Consume events that cannot disturb this run.
        let mut disruptive: Option<FaultEvent> = None;
        while ev_idx < plan.events.len() {
            let e = plan.events[ev_idx];
            let t_rel = (e.at_ms - t_now).max(0.0);
            if t_rel >= r.makespan {
                break; // fires after this run segment completes
            }
            let absorbed = match e.kind {
                FaultKind::GpuFailStop { gpu } | FaultKind::GpuSlowdown { gpu, .. } => !alive[gpu],
                FaultKind::LinkFail { from, to } | FaultKind::LinkDegrade { from, to, .. } => {
                    !alive[from] || !alive[to]
                }
                FaultKind::OpHang { op } => {
                    completed[op.index()]
                        || map
                            .sub_id(op)
                            .is_some_and(|sv| r.op_finish[sv.index()] <= t_rel)
                }
                // Healing restores capacity without disturbing in-flight
                // work, so it never cuts the run; the healed GPU rejoins
                // at the next repair.
                FaultKind::GpuHeal { .. } => true,
            };
            if !absorbed {
                disruptive = Some(e);
                break;
            }
            if let FaultKind::GpuHeal { gpu } = e.kind {
                alive[gpu] = true;
                scale.apply_fault(&e.kind);
            }
            events_out.push(SimEvent {
                fault: e,
                detected_ms: None,
                action: RepairAction::Absorbed,
            });
            ev_idx += 1;
        }

        let Some(e) = disruptive else {
            // The segment runs to completion; commit it wholesale.
            for (si, &p) in map.to_parent.iter().enumerate() {
                completed[p.index()] = true;
                finish_abs[p.index()] = t_now + r.op_finish[si];
            }
            while ev_idx < plan.events.len() {
                events_out.push(SimEvent {
                    fault: plan.events[ev_idx],
                    detected_ms: None,
                    action: RepairAction::Absorbed,
                });
                ev_idx += 1;
            }
            return Ok(RecoveryResult {
                makespan: t_now + r.makespan,
                completed: true,
                op_finish: finish_abs,
                events: events_out,
                repairs,
                final_alive: alive,
            });
        };
        ev_idx += 1;

        let t_f = (e.at_ms - t_now).max(0.0);
        let t_d = t_f + cfg.detection_ms;
        let nsub = map.sub.num_ops();
        let sub_place = sub_sched.placements(nsub);

        // Consumers fed after t_f by a transfer over the faulted link
        // cannot trust their inputs.
        let mut link_victim = vec![false; nsub];
        if let FaultKind::LinkFail { from, to } | FaultKind::LinkDegrade { from, to, .. } = e.kind {
            for tr in &r.transfers {
                if gpu_map[tr.from_gpu] == from && gpu_map[tr.to_gpu] == to && tr.finish > t_f {
                    link_victim[tr.to.index()] = true;
                }
            }
        }

        // Pin what demonstrably finished; restart what the fault touched.
        let mut pin = vec![false; nsub];
        for sv in 0..nsub {
            let f = r.op_finish[sv];
            if f.is_nan() || f > t_d {
                continue; // in flight at detection: the cut aborts it
            }
            let phys = gpu_map[sub_place[sv].expect("schedule covers the subgraph").gpu];
            let lost = match e.kind {
                FaultKind::GpuFailStop { gpu } | FaultKind::GpuSlowdown { gpu, .. } => {
                    phys == gpu && f > t_f
                }
                FaultKind::OpHang { op } => map.to_parent[sv] == op && f > t_f,
                FaultKind::LinkFail { .. } | FaultKind::LinkDegrade { .. } => {
                    link_victim[sv] && f > t_f
                }
                // Heals are always absorbed above and never reach the cut.
                FaultKind::GpuHeal { .. } => false,
            };
            pin[sv] = !lost;
        }
        // Downward closure: an operator cannot have finished if a
        // predecessor did not.
        for v in hios_graph::topo::topo_order(&map.sub) {
            if pin[v.index()] && map.sub.preds(v).iter().any(|&u| !pin[u.index()]) {
                pin[v.index()] = false;
            }
        }
        for (sv, &pinned) in pin.iter().enumerate() {
            if pinned {
                let p = map.to_parent[sv];
                completed[p.index()] = true;
                finish_abs[p.index()] = t_now + r.op_finish[sv];
            }
        }

        // Persist the fault's effect on the platform; a fail-stopped GPU
        // additionally leaves the set repairs may schedule onto.
        scale.apply_fault(&e.kind);
        if let FaultKind::GpuFailStop { gpu } = e.kind {
            alive[gpu] = false;
        }

        let detected_abs = t_now + t_d;
        t_now = detected_abs + REPAIR_OVERHEAD_MS;

        if !alive.iter().any(|&a| a) {
            events_out.push(SimEvent {
                fault: e,
                detected_ms: Some(detected_abs),
                action: RepairAction::Abandoned,
            });
            return Ok(RecoveryResult {
                makespan: t_now,
                completed: false,
                op_finish: finish_abs,
                events: events_out,
                repairs,
                final_alive: alive,
            });
        }

        let (rep, _) = repair_schedule(&mut ws, g, cost, &completed, &alive, &cfg.repair)
            .map_err(RecoverError::Repair)?;
        cur_sched = rep.schedule;
        gpu_map = rep.gpu_map;
        repairs += 1;
        events_out.push(SimEvent {
            fault: e,
            detected_ms: Some(detected_abs),
            action: RepairAction::Rescheduled {
                policy: rep.policy,
                survivors: gpu_map.len(),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, OpId, generate_layered_dag};

    fn setup(m: usize, seed: u64) -> (Graph, CostTable, Schedule, f64) {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 60,
            layers: 6,
            deps: 120,
            seed,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
        let s = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(m))
            .unwrap()
            .schedule;
        let base = simulate(&g, &cost, &s, &SimConfig::analytical())
            .unwrap()
            .makespan;
        (g, cost, s, base)
    }

    #[test]
    fn bad_recovery_knobs_are_rejected() {
        let (g, cost, s, _) = setup(2, 4);
        let plan = FaultPlan::none();
        for mutate in [
            (|c: &mut RecoveryConfig| c.detection_ms = f64::NAN) as fn(&mut RecoveryConfig),
            |c| c.detection_ms = -1.0,
            |c| c.detection_ms = f64::INFINITY,
        ] {
            let mut cfg = RecoveryConfig::analytical();
            mutate(&mut cfg);
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
            assert!(matches!(
                run_with_repair(&g, &cost, &s, &plan, &cfg),
                Err(RecoverError::BadConfig(_))
            ));
        }
        assert!(RecoveryConfig::analytical().validate().is_ok());
    }

    #[test]
    fn no_faults_matches_plain_simulation() {
        let (g, cost, s, base) = setup(2, 4);
        let r = run_with_repair(
            &g,
            &cost,
            &s,
            &FaultPlan::none(),
            &RecoveryConfig::analytical(),
        )
        .unwrap();
        assert!(r.completed);
        assert_eq!(r.repairs, 0);
        assert_eq!(r.makespan.to_bits(), base.to_bits());
        assert!(r.op_finish.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn fail_stop_midway_completes_via_repair() {
        for m in [2usize, 4] {
            let (g, cost, s, base) = setup(m, 4);
            let plan = FaultPlan::single(base * 0.5, FaultKind::GpuFailStop { gpu: 0 });
            let r = run_with_repair(&g, &cost, &s, &plan, &RecoveryConfig::analytical()).unwrap();
            assert!(r.completed, "M={m}");
            assert_eq!(r.repairs, 1);
            assert!(!r.final_alive[0]);
            assert!(r.op_finish.iter().all(|f| f.is_finite()));
            assert!(
                r.makespan >= base,
                "M={m}: faulted {} vs fault-free {base}",
                r.makespan
            );
            assert!(matches!(
                r.events[0].action,
                RepairAction::Rescheduled { survivors, .. } if survivors == m - 1
            ));
        }
    }

    #[test]
    fn slowdown_and_link_faults_complete() {
        let (g, cost, s, base) = setup(2, 8);
        for kind in [
            FaultKind::GpuSlowdown {
                gpu: 1,
                factor: 3.0,
            },
            FaultKind::LinkFail { from: 0, to: 1 },
            FaultKind::LinkDegrade {
                from: 0,
                to: 1,
                factor: 4.0,
            },
        ] {
            let plan = FaultPlan::single(base * 0.4, kind);
            let r = run_with_repair(&g, &cost, &s, &plan, &RecoveryConfig::analytical()).unwrap();
            assert!(r.completed, "{kind:?}");
            assert!(r.op_finish.iter().all(|f| f.is_finite()), "{kind:?}");
            assert!(r.makespan >= base * 0.4, "{kind:?}");
            assert_eq!(r.final_alive, vec![true, true], "{kind:?}");
        }
    }

    #[test]
    fn op_hang_restarts_the_operator() {
        let (g, cost, s, base) = setup(2, 5);
        // Hang an operator that is still running midway.
        let sim = simulate(&g, &cost, &s, &SimConfig::analytical()).unwrap();
        let mid = base * 0.5;
        let victim = g
            .op_ids()
            .find(|&v| sim.op_start[v.index()] <= mid && sim.op_finish[v.index()] > mid)
            .expect("some op spans the midpoint");
        let plan = FaultPlan::single(mid, FaultKind::OpHang { op: victim });
        let cfg = RecoveryConfig::analytical();
        let r = run_with_repair(&g, &cost, &s, &plan, &cfg).unwrap();
        assert!(r.completed);
        assert_eq!(r.repairs, 1);
        // The hung op only finishes after detection + repair downtime.
        assert!(r.op_finish[victim.index()] > mid + cfg.detection_ms);
    }

    #[test]
    fn post_completion_faults_are_absorbed() {
        let (g, cost, s, base) = setup(2, 4);
        let plan = FaultPlan::single(base * 10.0, FaultKind::GpuFailStop { gpu: 0 });
        let r = run_with_repair(&g, &cost, &s, &plan, &RecoveryConfig::analytical()).unwrap();
        assert!(r.completed);
        assert_eq!(r.repairs, 0);
        assert_eq!(r.makespan.to_bits(), base.to_bits());
        assert_eq!(r.events[0].action, RepairAction::Absorbed);
    }

    #[test]
    fn cascading_failures_degrade_to_one_gpu() {
        let (g, cost, s, base) = setup(4, 4);
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_ms: base * 0.2,
                kind: FaultKind::GpuFailStop { gpu: 3 },
            },
            FaultEvent {
                at_ms: base * 0.4,
                kind: FaultKind::GpuFailStop { gpu: 2 },
            },
            FaultEvent {
                at_ms: base * 0.6,
                kind: FaultKind::GpuFailStop { gpu: 1 },
            },
        ]);
        let r = run_with_repair(&g, &cost, &s, &plan, &RecoveryConfig::analytical()).unwrap();
        assert!(r.completed);
        assert_eq!(r.final_alive, vec![true, false, false, false]);
        assert!(r.op_finish.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn recovery_is_deterministic() {
        let (g, cost, s, _) = setup(3, 6);
        let plan = FaultPlan::random(13, &g, 3, 40.0, 5);
        let cfg = RecoveryConfig::analytical();
        let a = run_with_repair(&g, &cost, &s, &plan, &cfg).unwrap();
        let b = run_with_repair(&g, &cost, &s, &plan, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let (g, cost, s, _) = setup(2, 4);
        let plan = FaultPlan::single(1.0, FaultKind::OpHang { op: OpId(999) });
        assert!(matches!(
            run_with_repair(&g, &cost, &s, &plan, &RecoveryConfig::analytical()),
            Err(RecoverError::Plan(FaultPlanError::UnknownOp(_)))
        ));
    }
}
