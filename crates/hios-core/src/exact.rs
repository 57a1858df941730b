//! Exhaustive spatial scheduling for tiny instances.
//!
//! Enumerates *every* operator-to-GPU assignment (up to GPU-permutation
//! symmetry, since the machine is homogeneous) and temporally schedules
//! each with the same priority-ordered list scheduler HIOS uses.  The
//! result is the optimum over the spatial dimension given HIOS's temporal
//! policy — the yardstick the property tests hold HIOS-LP and HIOS-MR
//! against on small graphs.  Cost is `O(M^n)`; refuse anything big.

use crate::dense::DenseContext;
use crate::list::ListState;
use crate::priority::priority_order;
use crate::schedule::Schedule;
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};

/// Hard cap on the instance size accepted by [`exhaustive_spatial`].
pub const MAX_EXHAUSTIVE_OPS: usize = 12;

/// Finds the best GPU assignment by exhaustive search (restricted-growth
/// enumeration: assignments identical up to relabeling GPUs are visited
/// once).  Returns the schedule (singleton stages in list-schedule order)
/// and its latency.
///
/// # Panics
/// Panics when the graph has more than [`MAX_EXHAUSTIVE_OPS`] operators
/// or `num_gpus == 0`.
pub fn exhaustive_spatial(g: &Graph, cost: &CostTable, num_gpus: usize) -> (Schedule, f64) {
    assert!(num_gpus >= 1, "need at least one GPU");
    assert!(
        g.num_ops() <= MAX_EXHAUSTIVE_OPS,
        "exhaustive search is O(M^n); {} operators is too many",
        g.num_ops()
    );
    let n = g.num_ops();
    if n == 0 {
        return (Schedule::empty(num_gpus), 0.0);
    }
    let order = priority_order(g, cost);
    let ctx = DenseContext::build(g, cost, num_gpus);

    let mut best_latency = f64::INFINITY;
    let mut best_orders: Vec<Vec<OpId>> = vec![Vec::new(); num_gpus];
    let mut gpu_of = vec![None::<u32>; n];

    // Depth-first over restricted-growth strings: position i may use GPUs
    // 0..=min(max_used_so_far + 1, M-1).
    fn recurse(
        i: usize,
        max_used: u32,
        ctx: &DenseContext,
        order: &[OpId],
        gpu_of: &mut [Option<u32>],
        best_latency: &mut f64,
        best_orders: &mut Vec<Vec<OpId>>,
    ) {
        if i == order.len() {
            let st = ListState::from_scratch(ctx, order, gpu_of);
            if st.latency() < *best_latency {
                *best_latency = st.latency();
                *best_orders = st.into_result().gpu_order;
            }
            return;
        }
        let limit = (max_used + 1).min(ctx.num_gpus() as u32 - 1);
        for gpu in 0..=limit {
            gpu_of[order[i].index()] = Some(gpu);
            recurse(
                i + 1,
                max_used.max(gpu),
                ctx,
                order,
                gpu_of,
                best_latency,
                best_orders,
            );
        }
        gpu_of[order[i].index()] = None;
    }
    recurse(
        0,
        0,
        &ctx,
        &order,
        &mut gpu_of,
        &mut best_latency,
        &mut best_orders,
    );

    let schedule = Schedule::from_gpu_orders(best_orders);
    (schedule, best_latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::fixtures::{fig4, fig4_cost};
    use crate::lp::{HiosLpConfig, schedule_hios_lp};
    use crate::mr::{HiosMrConfig, schedule_hios_mr};
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    #[test]
    fn fig4_exhaustive_optimum() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let (sched, latency) = exhaustive_spatial(&g, &cost, 2);
        assert!(sched.validate(&g).is_ok());
        let ev = evaluate(&g, &cost, &sched).unwrap();
        assert!((ev.latency - latency).abs() < 1e-9);
        // HIOS-LP found 13.0 on this fixture; the exhaustive optimum can
        // only match or beat it, and never beats the 13.0 bound.
        assert!((latency - 13.0).abs() < 1e-9, "got {latency}");
    }

    #[test]
    fn heuristics_stay_close_to_exhaustive_on_tiny_instances() {
        let mut worst_lp: f64 = 1.0;
        let mut worst_mr: f64 = 1.0;
        for seed in 0..12 {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 9,
                layers: 3,
                deps: 12,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let (_, opt) = exhaustive_spatial(&g, &cost, 2);
            let lp = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2)).latency;
            let mr = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(2)).latency;
            assert!(lp >= opt - 1e-9, "seed {seed}: LP {lp} below optimum {opt}");
            assert!(mr >= opt - 1e-9, "seed {seed}: MR {mr} below optimum {opt}");
            worst_lp = worst_lp.max(lp / opt);
            worst_mr = worst_mr.max(mr / opt);
        }
        assert!(
            worst_lp < 1.35,
            "HIOS-LP within 35% of the spatial optimum, got {worst_lp}"
        );
        assert!(worst_mr < 1.6, "HIOS-MR within 60%, got {worst_mr}");
    }

    #[test]
    fn one_gpu_equals_sequential() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let (_, latency) = exhaustive_spatial(&g, &cost, 1);
        assert!((latency - cost.total_exec()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn refuses_large_graphs() {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 30,
            layers: 3,
            deps: 40,
            seed: 0,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(0));
        exhaustive_spatial(&g, &cost, 2);
    }
}
