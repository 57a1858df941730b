//! Randomized costs for the simulation study (paper §V-A).
//!
//! "The execution time of an operator is randomly selected between 0.1 and
//! 4 milliseconds; the transfer time between GPUs for the output data of an
//! operator is a maximum of 0.1 milliseconds and p of the execution time of
//! this operator, where p is preset to 80%."

use crate::table::{ConcurrencyParams, CostTable};
use hios_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Lower bound of the uniform execution-time draw, ms (paper: 0.1).
const MIN_EXEC_MS: f64 = 0.1;
/// Upper bound of the draw, ms (paper: 4.0).
const MAX_EXEC_MS: f64 = 4.0;
/// Transfer-time floor, ms (paper: 0.1): `t(u,v) = max(floor, p·t(u))`.
const TRANSFER_FLOOR_MS: f64 = 0.1;
/// Execution time at which an operator is considered to saturate the
/// GPU; `u(v) = clamp(t(v)/saturation, 0.05, 1)`.  Big operators (the
/// paper's motivation) gain nothing from co-scheduling, small ones do.
const SATURATION_EXEC_MS: f64 = 2.0;

const _: () = {
    assert!(MIN_EXEC_MS > 0.0 && MAX_EXEC_MS >= MIN_EXEC_MS && MAX_EXEC_MS.is_finite());
    assert!(TRANSFER_FLOOR_MS > 0.0 && SATURATION_EXEC_MS > 0.0);
};

/// Parameters of the random cost generator; the paper's fixed ranges
/// are this module's constants.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RandomCostConfig {
    /// Communication/computation ratio `p`: `t(u,v) = max(floor, p·t(u))`
    /// (paper default 0.8; Fig. 11 sweeps 0.4..1.2).
    pub p: f64,
    /// RNG seed; combined with the graph size so each instance differs.
    pub seed: u64,
}

impl RandomCostConfig {
    /// The paper's §V-A defaults with the given seed.
    pub fn paper_default(seed: u64) -> Self {
        RandomCostConfig { p: 0.8, seed }
    }

    /// Same defaults with a different communication ratio (Fig. 11 sweep).
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }
}

/// Draws a random cost table for `graph` per the paper's simulation
/// settings. Deterministic in `(graph size, cfg.seed)`.
pub fn random_cost_table(graph: &Graph, cfg: &RandomCostConfig) -> CostTable {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (graph.num_ops() as u64).rotate_left(32));
    let exec_ms: Vec<f64> = (0..graph.num_ops())
        .map(|_| rng.random_range(MIN_EXEC_MS..=MAX_EXEC_MS))
        .collect();
    let util: Vec<f64> = exec_ms
        .iter()
        .map(|&t| (t / SATURATION_EXEC_MS).clamp(0.05, 1.0))
        .collect();
    let transfer_out_ms: Vec<f64> = exec_ms
        .iter()
        .map(|&t| (cfg.p * t).max(TRANSFER_FLOOR_MS))
        .collect();
    CostTable::homogeneous(
        format!("random(seed={}, p={})", cfg.seed, cfg.p),
        exec_ms,
        util,
        transfer_out_ms,
        ConcurrencyParams::default(),
        0.006,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn sample_graph(seed: u64) -> Graph {
        generate_layered_dag(&LayeredDagConfig {
            ops: 50,
            layers: 5,
            deps: 100,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn times_respect_paper_bounds() {
        let g = sample_graph(1);
        let t = random_cost_table(&g, &RandomCostConfig::paper_default(7));
        assert!(t.validate(&g).is_ok());
        for v in g.op_ids() {
            let e = t.exec(v);
            assert!((0.1..=4.0).contains(&e));
            let x = t.transfer(v, 0, 1);
            assert!((x - (0.8 * e).max(0.1)).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = sample_graph(2);
        let a = random_cost_table(&g, &RandomCostConfig::paper_default(9));
        let b = random_cost_table(&g, &RandomCostConfig::paper_default(9));
        assert_eq!(a.device.exec_ms, b.device.exec_ms);
        let c = random_cost_table(&g, &RandomCostConfig::paper_default(10));
        assert_ne!(a.device.exec_ms, c.device.exec_ms);
    }

    #[test]
    fn p_scales_transfers() {
        let g = sample_graph(3);
        let lo = random_cost_table(&g, &RandomCostConfig::paper_default(4).with_p(0.4));
        let hi = random_cost_table(&g, &RandomCostConfig::paper_default(4).with_p(1.2));
        assert_eq!(
            lo.device.exec_ms, hi.device.exec_ms,
            "p must not change exec times"
        );
        for v in g.op_ids() {
            assert!(lo.transfer(v, 0, 1) <= hi.transfer(v, 0, 1));
        }
    }

    #[test]
    fn big_ops_saturate_small_ops_do_not() {
        let g = sample_graph(4);
        let t = random_cost_table(&g, &RandomCostConfig::paper_default(5));
        for v in g.op_ids() {
            if t.exec(v) >= 2.0 {
                assert_eq!(t.util_of(v), 1.0);
            } else {
                assert!(t.util_of(v) < 1.0);
            }
        }
    }

    #[test]
    fn the_paper_draw_is_pinned() {
        // The fingerprint folds every exec, utilization and transfer bit,
        // so a moved range, floor or saturation point moves it.
        let g = sample_graph(6);
        let cfg = RandomCostConfig::paper_default(7);
        let hex = |t: CostTable| format!("{:#018x}", t.platform_fingerprint());
        assert_eq!(hex(random_cost_table(&g, &cfg)), "0x3fbb668e3cad4100");
        assert_eq!(
            hex(random_cost_table(&g, &cfg.with_p(1.2))),
            "0x380cec3630a583fe"
        );
    }
}
