//! Dense, flat views of the operator graph and cost table for the hot
//! scheduling loops.
//!
//! The schedulers' inner loops (HIOS-LP path trials, the HIOS-MR record
//! table, greedy repair) perform millions of predecessor walks and cost
//! lookups.  Going through [`Graph`]'s `Vec<Vec<OpId>>` adjacency and
//! [`CostTable`]'s class/link indirection on every query costs two to
//! three dependent loads each.  [`DenseContext`] compiles both into flat
//! structure-of-arrays buffers once per scheduler run:
//!
//! * the operator adjacency as CSR over `u32` indices (predecessors and
//!   successors, preserving the graph's edge order exactly);
//! * `exec[g * n + v]` — every operator's execution time on every GPU;
//! * `trans[(v * m + src) * m + dst]` — every operator's transfer time
//!   over every GPU pair (`src == dst` entries are unused by callers and
//!   stored as `0.0`).
//!
//! All values are copied verbatim from the [`CostTable`] accessors, so
//! reads through the dense views are bit-identical to the original keyed
//! lookups — the differential proptests against [`crate::reference`]
//! prove this end to end.

use hios_cost::CostTable;
use hios_graph::{Graph, OpId};

/// Sentinel for "no GPU / not scheduled" in dense placement vectors.
pub(crate) const NO_GPU: u32 = u32::MAX;

/// Flat CSR adjacency + dense cost arrays for one `(graph, cost table,
/// GPU count)` triple.  Built once per scheduler invocation and shared
/// (immutably) by all candidate trials.
#[derive(Clone, Debug, Default)]
pub(crate) struct DenseContext {
    n: usize,
    m: usize,
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    /// `exec[g * n + v]` = `cost.exec_on(g, v)`.
    exec: Vec<f64>,
    /// `trans[(v * m + src) * m + dst]` = `cost.transfer(v, src, dst)`
    /// for `src != dst`, `0.0` on the diagonal.
    trans: Vec<f64>,
    /// `exec_worst[v]` = `cost.exec_worst(v)`.
    exec_worst: Vec<f64>,
    /// `trans_worst[v]` = `cost.transfer_worst(v)`.
    trans_worst: Vec<f64>,
}

impl DenseContext {
    /// Compiles `g` and `cost` into dense arrays for `num_gpus` GPUs.
    pub(crate) fn build(g: &Graph, cost: &CostTable, num_gpus: usize) -> Self {
        let n = g.num_ops();
        let m = num_gpus;
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred_idx = Vec::new();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ_idx = Vec::new();
        for i in 0..n {
            let v = OpId::from_index(i);
            pred_off.push(pred_idx.len() as u32);
            pred_idx.extend(g.preds(v).iter().map(|u| u.0));
            succ_off.push(succ_idx.len() as u32);
            succ_idx.extend(g.succs(v).iter().map(|w| w.0));
        }
        pred_off.push(pred_idx.len() as u32);
        succ_off.push(succ_idx.len() as u32);

        let mut exec = vec![0.0f64; n * m];
        for gpu in 0..m {
            let row = &mut exec[gpu * n..(gpu + 1) * n];
            for (i, e) in row.iter_mut().enumerate() {
                *e = cost.exec_on(gpu, OpId::from_index(i));
            }
        }
        let mut trans = vec![0.0f64; n * m * m];
        for i in 0..n {
            let v = OpId::from_index(i);
            for src in 0..m {
                for dst in 0..m {
                    if src != dst {
                        trans[(i * m + src) * m + dst] = cost.transfer(v, src, dst);
                    }
                }
            }
        }
        let exec_worst: Vec<f64> = (0..n)
            .map(|i| cost.exec_worst(OpId::from_index(i)))
            .collect();
        let trans_worst: Vec<f64> = (0..n)
            .map(|i| cost.transfer_worst(OpId::from_index(i)))
            .collect();
        DenseContext {
            n,
            m,
            pred_off,
            pred_idx,
            succ_off,
            succ_idx,
            exec,
            trans,
            exec_worst,
            trans_worst,
        }
    }

    /// Number of operators.
    #[inline]
    pub(crate) fn num_ops(&self) -> usize {
        self.n
    }

    /// Number of GPUs.
    #[inline]
    pub(crate) fn num_gpus(&self) -> usize {
        self.m
    }

    /// Predecessors of `v`, in the graph's order.
    #[inline]
    pub(crate) fn preds(&self, v: u32) -> &[u32] {
        &self.pred_idx[self.pred_off[v as usize] as usize..self.pred_off[v as usize + 1] as usize]
    }

    /// Successors of `v`, in the graph's order.
    #[inline]
    pub(crate) fn succs(&self, v: u32) -> &[u32] {
        &self.succ_idx[self.succ_off[v as usize] as usize..self.succ_off[v as usize + 1] as usize]
    }

    /// `cost.exec_on(gpu, v)`, from the dense array.
    #[inline]
    pub(crate) fn exec(&self, gpu: usize, v: u32) -> f64 {
        self.exec[gpu * self.n + v as usize]
    }

    /// `cost.transfer(v, src, dst)` for `src != dst`, from the dense
    /// array.
    #[inline]
    pub(crate) fn transfer(&self, v: u32, src: usize, dst: usize) -> f64 {
        self.trans[(v as usize * self.m + src) * self.m + dst]
    }

    /// `cost.exec_worst(v)`, from the dense array.
    #[inline]
    pub(crate) fn exec_worst(&self, v: u32) -> f64 {
        self.exec_worst[v as usize]
    }

    /// `cost.transfer_worst(v)`, from the dense array.
    #[inline]
    pub(crate) fn transfer_worst(&self, v: u32) -> f64 {
        self.trans_worst[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_views_match_keyed_lookups() {
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 40,
            layers: 5,
            deps: 80,
            seed: 3,
        })
        .unwrap();
        let cost = hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(3));
        let m = 3;
        let ctx = DenseContext::build(&g, &cost, m);
        assert_eq!(ctx.num_ops(), g.num_ops());
        for v in g.op_ids() {
            let preds: Vec<u32> = g.preds(v).iter().map(|u| u.0).collect();
            assert_eq!(ctx.preds(v.0), preds.as_slice());
            let succs: Vec<u32> = g.succs(v).iter().map(|w| w.0).collect();
            assert_eq!(ctx.succs(v.0), succs.as_slice());
            for gpu in 0..m {
                assert_eq!(ctx.exec(gpu, v.0).to_bits(), cost.exec_on(gpu, v).to_bits());
                for dst in 0..m {
                    if gpu != dst {
                        assert_eq!(
                            ctx.transfer(v.0, gpu, dst).to_bits(),
                            cost.transfer(v, gpu, dst).to_bits()
                        );
                    }
                }
            }
        }
    }
}
