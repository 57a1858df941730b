//! Property-based coverage of the fault-tolerance loop (ISSUE 2): on
//! arbitrary layered DAGs under arbitrary seeded fault plans, the
//! detect → repair → resume loop must always complete the model, every
//! repaired schedule must validate, and every operator must get a finite
//! finish time.

use hios::core::{Algorithm, SchedulerOptions, run_scheduler};
use hios::cost::{RandomCostConfig, random_cost_table};
use hios::graph::{LayeredDagConfig, generate_layered_dag};
use hios::sim::{FaultPlan, SimConfig, run_with_repair, simulate};
use hios_core::repair::{RepairConfig, RepairPolicy};
use proptest::prelude::*;

/// Strategy: a feasible layered-DAG configuration, a cost seed, a fault
/// seed and a fault count.
fn faulted_workload() -> impl Strategy<Value = (LayeredDagConfig, u64, u64, usize)> {
    (3usize..7, 0u64..500, 0u64..500, 0u64..500, 1usize..5).prop_flat_map(
        |(layers, seed, cost_seed, fault_seed, faults)| {
            (layers * 4..layers * 10).prop_map(move |ops| {
                (
                    LayeredDagConfig {
                        ops,
                        layers,
                        deps: 2 * ops,
                        seed,
                    },
                    cost_seed,
                    fault_seed,
                    faults,
                )
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_always_completes((cfg, cost_seed, fault_seed, faults) in faulted_workload()) {
        let m = 3usize;
        let g = generate_layered_dag(&cfg).unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(cost_seed));
        let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(m)).unwrap();
        let horizon = simulate(&g, &cost, &out.schedule, &SimConfig::analytical())
            .unwrap()
            .makespan * 1.2;
        let plan = FaultPlan::random(fault_seed, &g, m, horizon, faults);
        prop_assert!(plan.validate(&g, m).is_ok());

        for policy in [RepairPolicy::Greedy, RepairPolicy::Reschedule] {
            let repair = RepairConfig::new(policy);
            let r = run_with_repair(&g, &cost, &out.schedule, &plan, &repair).unwrap();
            prop_assert!(r.completed, "{policy:?}: run must complete");
            prop_assert!(
                r.op_finish.iter().all(|f| f.is_finite()),
                "{policy:?}: every op gets a finite finish"
            );
            prop_assert!(r.makespan.is_finite() && r.makespan >= 0.0);
            // Every planned fault is accounted for in the trace.
            prop_assert_eq!(r.events.len(), plan.events.len());
            prop_assert!(r.final_alive.iter().any(|&a| a));
        }
    }
}
