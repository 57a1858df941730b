//! Latency lower bounds.
//!
//! No schedule on `M` GPUs can beat either the critical path of the
//! computation graph (ignoring transfers — the best case where every
//! dependent pair shares a GPU) or the total work spread perfectly over
//! the machine.  The bench harness reports schedule quality against these
//! bounds and the test suite uses them as universal invariants.

use hios_cost::CostTable;
use hios_graph::Graph;
use hios_graph::paths::longest_to_sink;

/// Critical-path bound: the longest vertex-weighted path, with transfers
/// costed at zero (dependent operators can always share a GPU) and every
/// operator priced on its *fastest* device class, so the bound stays
/// admissible on heterogeneous platforms.
pub fn critical_path_bound(g: &Graph, cost: &CostTable) -> f64 {
    longest_to_sink(g, |v| cost.exec_best(v), |_, _| 0.0)
        .into_iter()
        .fold(0.0f64, f64::max)
}

/// Work bound: total *SM-work* divided by the number of GPUs.
///
/// Concurrent execution inside one GPU cannot create SM-milliseconds out
/// of thin air: under the `t(S)` model a stage always lasts at least
/// `Σ t(v)·u(v)` over its members, so each GPU is busy at least its total
/// SM-work and the makespan is at least `Σ t(v)·u(v) / M`.  Each
/// operator's SM-work is taken over its *cheapest* device class, keeping
/// the bound admissible on heterogeneous platforms.
pub fn work_bound(g: &Graph, cost: &CostTable, num_gpus: usize) -> f64 {
    g.op_ids().map(|v| cost.work_best(v)).sum::<f64>() / num_gpus.max(1) as f64
}

/// Combined bound: the max of the critical-path and work bounds.
pub fn combined_bound(g: &Graph, cost: &CostTable, num_gpus: usize) -> f64 {
    critical_path_bound(g, cost).max(work_bound(g, cost, num_gpus))
}

/// Quality ratio of a latency against [`combined_bound`]: 1.0 is provably
/// optimal, 2.0 means twice the bound.
pub fn quality_ratio(latency: f64, g: &Graph, cost: &CostTable, num_gpus: usize) -> f64 {
    latency / combined_bound(g, cost, num_gpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, SchedulerOptions, run_scheduler};
    use crate::fixtures::{fig4, fig4_cost};
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    #[test]
    fn fig4_bounds() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        // Critical path without transfers: 2+3+3+3+2 = 13.
        assert!((critical_path_bound(&g, &cost) - 13.0).abs() < 1e-9);
        // Total work 19 over 2 GPUs.
        assert!((work_bound(&g, &cost, 2) - 9.5).abs() < 1e-9);
        assert!((combined_bound(&g, &cost, 2) - 13.0).abs() < 1e-9);
    }

    #[test]
    fn no_algorithm_beats_the_bound() {
        for seed in 0..6 {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 60,
                layers: 6,
                deps: 120,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            for m in [1usize, 2, 4] {
                let bound = critical_path_bound(&g, &cost);
                for algo in Algorithm::ALL {
                    let out = run_scheduler(algo, &g, &cost, &SchedulerOptions::new(m)).unwrap();
                    assert!(
                        out.latency_ms >= bound - 1e-9,
                        "{algo:?} on {m} GPUs: {} < bound {bound}",
                        out.latency_ms
                    );
                    assert!(quality_ratio(out.latency_ms, &g, &cost, m) >= 1.0 - 1e-12);
                }
            }
        }
    }

    #[test]
    fn hios_lp_is_near_optimal_on_fig4() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(2)).unwrap();
        // Fig. 4 fixture: HIOS-LP reaches 13.0, exactly the bound.
        assert!((quality_ratio(out.latency_ms, &g, &cost, 2) - 1.0).abs() < 1e-9);
    }
}
