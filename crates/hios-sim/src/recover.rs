//! The closed detect → repair → resume loop.
//!
//! [`run_with_repair`] executes a schedule under a [`FaultPlan`]: the
//! discrete-event engine runs until a fault fires, the fault is detected
//! after a fixed latency (0.5 ms), the run is cut at the detection instant
//! — operators that finished by then are *pinned* (their outputs are
//! checkpointed and available cluster-wide, DESIGN.md §8), operators in
//! flight or invalidated by the fault are *restarted* — and
//! [`hios_core::repair`] rebuilds a schedule for the unfinished subgraph
//! over the surviving GPUs (one [`EvalWorkspace`] checks every repair).
//! The loop resumes on the subgraph the repair hands over, on the
//! survivors' slots ([`alive_slots`]: slot `i` is the `i`-th survivor),
//! and repeats until the model completes or no GPU survives.
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
//!   repair on, traffic reroutes at `REROUTE_FACTOR`;
//! * **link degrade** — like link-fail for the conservative restart
//!   rule, but the persistent factor is the event's own;
//! * **op hang** — the operator's in-flight execution never finishes;
//!   the watchdog reports it at `t_d` and repair restarts it (the hang
//!   is transient — a timeout, not a broken device).
//!
//! Everything is deterministic: same graph, costs, schedule, plan and
//! repair configuration give bit-identical results at any thread count.

use crate::engine::{Scaling, SimConfig, SimError, check_platform, simulate_scaled};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
use hios_core::eval::EvalWorkspace;
use hios_core::repair::{RepairConfig, RepairError, RepairPolicy, repair_schedule};
use hios_core::repair::{alive_slots, extract_unfinished, project_cost};
use hios_core::schedule::Schedule;
use hios_cost::CostTable;
use hios_graph::Graph;
use std::fmt;

/// Downtime spent computing and distributing one repair, ms.
const REPAIR_OVERHEAD_MS: f64 = 0.1;

/// Time between a fault firing and the runtime noticing it, ms (a
/// testbed-flavoured watchdog latency).
const DETECTION_MS: f64 = 0.5;

const _: () = assert!(DETECTION_MS >= 0.0 && DETECTION_MS.is_finite());

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
            RecoverError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            RecoverError::Sim(e) => write!(f, "simulation failed: {e}"),
            RecoverError::Repair(e) => write!(f, "repair failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Runs `sched` on `g` under `plan` with the analytical engine,
/// rebuilding the unfinished subgraph by `repair` after every disruptive
/// fault.  See the module docs for the exact cut semantics.
pub fn run_with_repair(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    plan: &FaultPlan,
    repair: &RepairConfig,
) -> Result<RecoveryResult, RecoverError> {
    let m = sched.num_gpus();
    plan.validate(g, m).map_err(RecoverError::Plan)?;
    check_platform(cost, m).map_err(RecoverError::Sim)?;
    let n = g.num_ops();

    let mut completed = vec![false; n];
    let mut finish_abs = vec![f64::NAN; n];
    let mut alive = vec![true; m];
    let mut scale = Scaling::identity(m);
    let mut t_now = 0.0f64;
    let mut events_out: Vec<SimEvent> = Vec::new();
    let mut repairs = 0usize;
    // The live schedule runs `map.sub` over *slots*: slot i is physical
    // GPU gpu_map[i], the slot map of the alive set it was planned on —
    // every GPU for the input schedule, the survivors for a repair's.
    let mut map = extract_unfinished(g, &completed);
    let mut cur_sched = map.to_sub_schedule(sched);
    let mut gpu_map = alive_slots(&alive);
    let mut ws = EvalWorkspace::new();
    let sim = SimConfig::analytical();
    let mut ev_idx = 0usize;

    loop {
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
        let projected = project_cost(cost, &map);
        let (slots, slot_scale) = (projected.restrict_gpus(&gpu_map), scale.project(&gpu_map));
        let r = simulate_scaled(&map.sub, &slots, &cur_sched, &sim, &slot_scale)
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
        let t_d = t_f + DETECTION_MS;
        let nsub = map.sub.num_ops();
        let sub_place = cur_sched.placements(nsub);

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

        let (rep, rep_map) = repair_schedule(&mut ws, g, cost, &completed, &alive, repair)
            .map_err(RecoverError::Repair)?;
        map = rep_map;
        cur_sched = rep.schedule;
        gpu_map = alive_slots(&alive);
        repairs += 1;
        events_out.push(SimEvent {
            fault: e,
            detected_ms: Some(detected_abs),
            action: RepairAction::Rescheduled {
                policy: repair.policy,
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
    fn no_faults_matches_plain_simulation() {
        let (g, cost, s, base) = setup(2, 4);
        let r =
            run_with_repair(&g, &cost, &s, &FaultPlan::none(), &RepairConfig::default()).unwrap();
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
            let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
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
    fn a_repaired_segment_runs_on_the_gpus_its_slots_name() {
        // GPU 0 of the mixed A40 + V100S box fails at 0 ms, so the repair
        // schedules onto slots 0..3 = GPUs 1–3.  The repaired segment
        // finishes when the same slot schedule finishes on the box those
        // three GPUs make, built on its own: an A40 and two V100Ss, PCIe
        // from the A40 to each V100S, NVLink between the V100Ss.
        use hios_cost::{GpuSpec, LinkSpec, Platform, Topology, platform_table};
        let (nv, pc) = (0, 1);
        #[rustfmt::skip]
        let link_class = vec![
            nv, pc, pc,
            pc, nv, nv,
            pc, nv, nv,
        ];
        let survivors = Platform::hetero(
            vec![GpuSpec::a40(), GpuSpec::v100s()],
            vec![LinkSpec::nvlink_bridge(), LinkSpec::pcie_gen3()],
            Topology::hetero(vec![0, 1, 1], link_class),
        );
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 80,
            layers: 8,
            deps: 160,
            seed: 2,
        })
        .unwrap();
        let cost = platform_table(&Platform::mixed_a40_v100s(), &g).unwrap();
        let three = platform_table(&survivors, &g).unwrap();
        let s = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(4))
            .unwrap()
            .schedule;
        let repair = RepairConfig::default();
        let plan = FaultPlan::single(0.0, FaultKind::GpuFailStop { gpu: 0 });
        let r = run_with_repair(&g, &cost, &s, &plan, &repair).unwrap();
        assert!(r.completed);
        assert_eq!(r.repairs, 1);
        // What finished by detection was pinned; the rest is the segment.
        let done: Vec<bool> = r.op_finish.iter().map(|&f| f <= DETECTION_MS).collect();
        assert!(done.iter().any(|&d| d) && !done.iter().all(|&d| d));
        let (rep, map) = repair_schedule(
            &mut EvalWorkspace::new(),
            &g,
            &three,
            &done,
            &[true; 3],
            &repair,
        )
        .unwrap();
        let seg = simulate(
            &map.sub,
            &project_cost(&three, &map),
            &rep.schedule,
            &SimConfig::analytical(),
        )
        .unwrap();
        let resume = DETECTION_MS + REPAIR_OVERHEAD_MS;
        assert_eq!(r.makespan, resume + seg.makespan);
    }

    #[test]
    fn a_fail_stop_repair_is_pinned() {
        // Detection latency, repair downtime and the resumed segment all
        // land in the makespan's bits.
        let (g, cost, s, base) = setup(3, 7);
        let plan = FaultPlan::single(base * 0.5, FaultKind::GpuFailStop { gpu: 1 });
        let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
        assert_eq!(r.repairs, 1);
        assert_eq!(r.makespan, f64::from_bits(0x4049_64f2_292f_975a));
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
            let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
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
        let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
        assert!(r.completed);
        assert_eq!(r.repairs, 1);
        // The hung op only finishes after detection + repair downtime.
        assert!(r.op_finish[victim.index()] > mid + DETECTION_MS);
    }

    #[test]
    fn post_completion_faults_are_absorbed() {
        let (g, cost, s, base) = setup(2, 4);
        let plan = FaultPlan::single(base * 10.0, FaultKind::GpuFailStop { gpu: 0 });
        let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
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
        let r = run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()).unwrap();
        assert!(r.completed);
        assert_eq!(r.final_alive, vec![true, false, false, false]);
        assert!(r.op_finish.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn recovery_is_deterministic() {
        let (g, cost, s, _) = setup(3, 6);
        let plan = FaultPlan::random(13, &g, 3, 40.0, 5);
        let repair = RepairConfig::default();
        let a = run_with_repair(&g, &cost, &s, &plan, &repair).unwrap();
        let b = run_with_repair(&g, &cost, &s, &plan, &repair).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let (g, cost, s, _) = setup(2, 4);
        let plan = FaultPlan::single(1.0, FaultKind::OpHang { op: OpId(999) });
        assert!(matches!(
            run_with_repair(&g, &cost, &s, &plan, &RepairConfig::default()),
            Err(RecoverError::Plan(FaultPlanError::UnknownOp(_)))
        ));
    }
}
