//! HIOS-MR: mapping-recording-based operator scheduling (paper Alg. 3).
//!
//! Operators are mapped one by one in descending-priority order.  An
//! `n × M` table records, for every operator `v_i` and GPU `j`, the
//! earliest finish time `t_{i,j}` of `v_i` on GPU `j` together with the
//! GPU `g_{i,j}` that `v_{i-1}` occupied in the recorded schedule that
//! achieved it.  Each cell is filled by replaying the recorded schedule of
//! `v_1..v_{i-1}` for every possible GPU `k` of `v_{i-1}` (Alg. 3 lines
//! 8-21), so the algorithm is a polynomial-time greedy-DP hybrid — cheap,
//! but only locally optimal, which is why the paper's HIOS-LP beats it.

use crate::dense::DenseContext;
use crate::eval::EvalWorkspace;
use crate::priority::priority_order;
use crate::schedule::Schedule;
use crate::window::parallelize_with;
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};

/// The recorded schedule ending one row of the table: finish time and
/// GPU of `v_0..v_{i-1}` (dense, indexed by priority position) plus the
/// running per-GPU busy times.  Two generations of `M` buffers are kept
/// and double-buffered across rows, so a row's recorded schedule is
/// *extended* from the previous row's by one `memcpy` + one entry
/// instead of being re-walked cell by cell through the record table.
#[derive(Clone, Debug)]
struct ReplayBuf {
    fin: Vec<f64>,
    gpu: Vec<u32>,
    busy: Vec<f64>,
}

impl ReplayBuf {
    fn new(n: usize, m: usize) -> Self {
        ReplayBuf {
            fin: vec![0.0; n],
            gpu: vec![0; n],
            busy: vec![0.0; m],
        }
    }
}

/// Configuration of HIOS-MR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HiosMrConfig {
    /// GPU budget `M`.
    pub num_gpus: usize,
    /// Maximum sliding-window size `w` of the intra-GPU pass (Alg. 2).
    pub window: usize,
    /// Run the intra-GPU pass; `false` gives the "inter-GPU w/ MR"
    /// ablation of §V-B.
    pub intra: bool,
}

impl HiosMrConfig {
    /// Full HIOS-MR on `m` GPUs with the default window of 4.
    pub fn new(m: usize) -> Self {
        HiosMrConfig {
            num_gpus: m,
            window: 4,
            intra: true,
        }
    }

    /// The inter-GPU-only ablation ("inter-GPU w/ MR").
    pub fn inter_only(m: usize) -> Self {
        HiosMrConfig {
            intra: false,
            ..Self::new(m)
        }
    }
}

/// Outcome of HIOS-MR.
#[derive(Clone, Debug)]
pub struct MrOutcome {
    /// The resulting schedule.
    pub schedule: Schedule,
    /// Stage-synchronous latency, ms.
    pub latency: f64,
    /// GPU assignment per operator.
    pub gpu_of: Vec<u32>,
}

/// Runs HIOS-MR (Alg. 3, optionally followed by Alg. 2).
///
/// # Panics
/// Panics when `cfg.num_gpus == 0` or the cost table does not match `g`.
pub fn schedule_hios_mr(g: &Graph, cost: &CostTable, cfg: HiosMrConfig) -> MrOutcome {
    schedule_hios_mr_with(&mut EvalWorkspace::new(), g, cost, cfg)
}

/// [`schedule_hios_mr`] with Alg. 2 run through a caller-provided
/// [`EvalWorkspace`] ([`parallelize_with`]).
pub(crate) fn schedule_hios_mr_with(
    ws: &mut EvalWorkspace,
    g: &Graph,
    cost: &CostTable,
    cfg: HiosMrConfig,
) -> MrOutcome {
    assert!(cfg.num_gpus >= 1, "need at least one GPU");
    assert_eq!(cost.num_ops(), g.num_ops(), "cost table mismatch");
    let n = g.num_ops();
    let m = cfg.num_gpus;
    if n == 0 {
        return MrOutcome {
            schedule: Schedule::empty(m),
            latency: 0.0,
            gpu_of: Vec::new(),
        };
    }

    let order = priority_order(g, cost);
    let order_u32: Vec<u32> = order.iter().map(|v| v.index() as u32).collect();
    // Position of each operator in the priority order (dense u32).
    let mut pos = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i as u32;
    }
    // Dense SoA cost/topology mirror: exec, transfer, and predecessor
    // lookups in the fill loop below are flat-array reads holding the
    // exact `CostTable` values, so results stay bit-identical.
    let ctx = DenseContext::build(g, cost, m);

    // The n × M record table (Alg. 3 lines 2-4), row-major flat.
    let mut t = vec![f64::INFINITY; n * m];
    let mut gprev = vec![0u32; n * m];
    t[0] = ctx.exec(0, order_u32[0]);

    // Double-buffered recorded schedules, one per `k` trial.
    //
    // The reference re-walks the recorded schedule of `v_1..v_{i-1}`
    // through the record table for every `(i, k)` cell (Alg. 3 lines
    // 10-12) and recomputes busy times from scratch.  But the schedule
    // recorded at row `i`, trial `k` is exactly the schedule recorded at
    // row `i-1`, trial `gprev[i-1][k]`, extended by `v_{i-1}` on GPU
    // `k`.  Keeping last row's `M` replay buffers alive turns the O(i)
    // random-access walk into one sequential copy plus an O(1) append,
    // and the busy-time fold accumulates in the same ascending-`l` order
    // as the reference's from-scratch recompute, so every float matches
    // bitwise.  Folding each trial's proposals straight into the row in
    // ascending `k` with a strict `<` keeps the recorded `gprev`
    // bit-identical to the reference's k-inner loop.
    let mut cur_bufs: Vec<ReplayBuf> = (0..m).map(|_| ReplayBuf::new(n, m)).collect();
    let mut nxt_bufs: Vec<ReplayBuf> = (0..m).map(|_| ReplayBuf::new(n, m)).collect();
    // Row 1 reads the schedule "v_0 on GPU 0".
    cur_bufs[0].fin[0] = t[0];
    cur_bufs[0].gpu[0] = 0;
    cur_bufs[0].busy[0] = t[0];

    for i in 1..n {
        let vi = order_u32[i];
        let jmax = m.min(i + 1);
        let kmax = m.min(i);
        let (filled, rest) = t.split_at_mut(i * m);
        let prev_row = &filled[(i - 1) * m..];
        let t_row = &mut rest[..m];
        let gp_row = &mut gprev[i * m..(i + 1) * m];
        for (k, buf) in cur_bufs.iter().enumerate().take(kmax) {
            if !prev_row[k].is_finite() {
                continue;
            }
            // Earliest start of v_i on every GPU j (lines 13-19): GPU-j
            // busy time, then data arrivals.
            for j in 0..jmax {
                let mut ready = buf.busy[j];
                for &u in ctx.preds(vi) {
                    let l = pos[u as usize] as usize;
                    debug_assert!(l < i, "priority order is topological");
                    let gl = buf.gpu[l] as usize;
                    let arrival = if gl == j {
                        buf.fin[l]
                    } else {
                        buf.fin[l] + ctx.transfer(u, gl, j)
                    };
                    if arrival > ready {
                        ready = arrival;
                    }
                }
                let finish = ready + ctx.exec(j, vi);
                if finish < t_row[j] {
                    t_row[j] = finish;
                    gp_row[j] = k as u32;
                }
            }
        }
        // Extend this row's winners into next row's replay buffers:
        // next trial j reads the schedule recorded at (i, j), i.e. the
        // schedule at (i-1, gprev[i][j]) plus v_i on GPU j.  Row i+1's
        // kmax equals this row's jmax, so exactly these cells are read.
        if i + 1 < n {
            for (j, nb) in nxt_bufs.iter_mut().enumerate().take(jmax) {
                let cb = &cur_bufs[gp_row[j] as usize];
                nb.fin[..i].copy_from_slice(&cb.fin[..i]);
                nb.gpu[..i].copy_from_slice(&cb.gpu[..i]);
                nb.busy.copy_from_slice(&cb.busy);
                nb.fin[i] = t_row[j];
                nb.gpu[i] = j as u32;
                if t_row[j] > nb.busy[j] {
                    nb.busy[j] = t_row[j];
                }
            }
            std::mem::swap(&mut cur_bufs, &mut nxt_bufs);
        }
    }

    // Pick the best final cell and walk the records back (lines 22-26).
    let last = (n - 1) * m;
    let mut best_j = 0usize;
    for j in 1..m {
        if t[last + j] < t[last + best_j] {
            best_j = j;
        }
    }
    let mut gpu_of = vec![0u32; n];
    let mut cur = best_j;
    for i in (0..n).rev() {
        gpu_of[order[i].index()] = cur as u32;
        cur = gprev[i * m + cur] as usize;
    }

    // Per-GPU sequences in priority order, singleton stages.
    let mut gpu_orders: Vec<Vec<OpId>> = vec![Vec::new(); m];
    for &v in &order {
        gpu_orders[gpu_of[v.index()] as usize].push(v);
    }
    let schedule = Schedule::from_gpu_orders(gpu_orders);
    // A window below 2 only evaluates the inter-GPU schedule.
    let window = if cfg.intra { cfg.window } else { 1 };
    let (schedule, latency) = parallelize_with(ws, g, cost, schedule, window);
    MrOutcome {
        schedule,
        latency,
        gpu_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::fixtures::{fig4, fig4_cost};
    use crate::seq::schedule_sequential;

    #[test]
    fn single_gpu_equals_sequential() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(1));
        let seq = evaluate(&g, &cost, &schedule_sequential(&g, &cost))
            .unwrap()
            .latency;
        assert!((out.latency - seq).abs() < 1e-9);
        assert!(out.schedule.validate(&g).is_ok());
    }

    #[test]
    fn fig6_style_two_gpu_mapping_is_valid_and_helps() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(2));
        assert!(out.schedule.validate(&g).is_ok());
        let seq = cost.total_exec();
        assert!(
            out.latency < seq,
            "MR on 2 GPUs ({}) must beat sequential ({seq})",
            out.latency
        );
    }

    #[test]
    fn first_operator_lands_on_gpu_zero() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(3));
        // v1 (highest priority) is pinned to GPU 1 by Alg. 3 line 5.
        assert_eq!(out.gpu_of[0], 0);
    }

    #[test]
    fn valid_on_random_graphs() {
        for seed in 0..4 {
            let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
                ops: 70,
                layers: 7,
                deps: 140,
                seed,
            })
            .unwrap();
            let cost =
                hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(seed));
            for gpus in [1, 2, 4] {
                let out = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(gpus));
                assert!(out.schedule.validate(&g).is_ok(), "seed {seed} m {gpus}");
                let r = evaluate(&g, &cost, &out.schedule).unwrap();
                assert!((r.latency - out.latency).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn intra_pass_never_hurts() {
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 60,
            layers: 6,
            deps: 120,
            seed: 11,
        })
        .unwrap();
        let cost =
            hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(11));
        let inter = schedule_hios_mr(&g, &cost, HiosMrConfig::inter_only(4));
        let full = schedule_hios_mr(&g, &cost, HiosMrConfig::new(4));
        assert!(full.latency <= inter.latency + 1e-9);
    }
}
