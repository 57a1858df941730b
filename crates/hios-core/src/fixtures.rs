//! Shared test fixtures: the worked examples of the paper's Figs. 4-6.

use crate::dense::DenseContext;
use crate::list::{ListScheduleResult, ListState};
use hios_cost::{ConcurrencyParams, CostTable};
use hios_graph::{Graph, GraphBuilder, OpId};
use rand::Rng;
use rand::rngs::StdRng;

/// The Fig. 4 topology with weights chosen to reproduce the figure's
/// narrative (see `hios-graph::paths` for the derivation):
/// v1->v2->v4->v6->v8 is the longest path P1 (length 17); the second
/// longest *valid* path is P2 = {e2, v3, e4, v5, e6}; P3 = {e7, v7, e9}.
/// t(v) = [2,3,2,3,2,3,2,2], all transfers 1 ms.
pub(crate) fn fig4() -> (Graph, Vec<f64>) {
    let mut b = GraphBuilder::new();
    let v: Vec<OpId> = (0..8)
        .map(|i| b.add_synthetic(format!("v{}", i + 1), &[]))
        .collect();
    for (u, w) in [
        (0u32, 1u32), // e1
        (0, 2),       // e2
        (1, 3),       // e3
        (2, 4),       // e4
        (3, 5),       // e5
        (4, 5),       // e6
        (4, 6),       // e7
        (5, 7),       // e8
        (6, 7),       // e9
    ] {
        b.add_edge(v[u as usize], v[w as usize]).unwrap();
    }
    let node_w = vec![2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 2.0];
    (b.build(), node_w)
}

/// Cost table for [`fig4`]: saturating utilizations (no intra-GPU grouping
/// pays off, isolating the inter-GPU behaviour) and unit transfers.
pub(crate) fn fig4_cost() -> CostTable {
    let (_, exec) = fig4();
    let n = exec.len();
    CostTable::homogeneous(
        "fig4",
        exec,
        vec![1.0; n],
        vec![1.0; n],
        ConcurrencyParams {
            contention_alpha: 0.15,
            stream_overhead_ms: 0.0,
        },
        0.0,
    )
}

/// Variant of [`fig4_cost`] with low utilizations so the sliding-window
/// pass (Alg. 2) finds profitable intra-GPU groupings.
pub(crate) fn fig4_cost_small_ops() -> CostTable {
    let mut c = fig4_cost();
    c.device.util = vec![vec![0.3; c.num_ops()]];
    c
}

/// A cost table whose times are small multiples of 0.5 ms, with
/// zero-cost transfers mixed in: stage arrivals tie often.
pub(crate) fn tied_cost(n: usize, rng: &mut StdRng) -> CostTable {
    CostTable::homogeneous(
        "ties",
        (0..n)
            .map(|_| 0.5 * rng.random_range(1..5u32) as f64)
            .collect(),
        (0..n)
            .map(|_| 0.3 * rng.random_range(1..4u32) as f64)
            .collect(),
        (0..n)
            .map(|_| 0.5 * rng.random_range(0..3u32) as f64)
            .collect(),
        ConcurrencyParams {
            contention_alpha: 0.15,
            stream_overhead_ms: 0.0,
        },
        0.0,
    )
}

/// The from-scratch list schedule (`ListState::from_scratch`) of the
/// operators of `order` that `gpu_of` places on `num_gpus` GPUs.
pub(crate) fn list_schedule(
    g: &Graph,
    cost: &CostTable,
    order: &[OpId],
    gpu_of: &[Option<u32>],
    num_gpus: usize,
) -> ListScheduleResult {
    let ctx = DenseContext::build(g, cost, num_gpus);
    ListState::from_scratch(&ctx, order, gpu_of).into_result()
}
