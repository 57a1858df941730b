//! `sched-scaling`: scheduler wall-clock cost vs problem size and GPU count.
//!
//! Times the optimized `schedule_hios_lp` / `schedule_hios_mr` against the
//! pre-optimization implementations kept in `hios_core::reference` on
//! layered DAGs of growing size (the simulation-study workload generator,
//! §V-A), checking on the way that both produce bit-identical latencies.
//! Its `BENCH_schedulers.json` holds per-cell median and p95 wall-clock
//! plus the headline LP speedup on the largest instance (1000 operators,
//! 160 layers, 4 GPUs).  IOS is excluded: its DP cost is
//! dominated by group profiling, which Fig. 14 already covers.

use crate::study::{Headlines, Row, Study, col};
use crate::{RunCfg, Table};
use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_core::mr::{HiosMrConfig, schedule_hios_mr};
use hios_core::reference;
use hios_cost::{CostTable, RandomCostConfig, random_cost_table};
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};
use std::time::Instant;

/// `(ops, layers)` grid; dependencies are `2 * ops` as in the sweep study.
const SIZES: [(usize, usize); 3] = [(120, 20), (400, 64), (1000, 160)];

/// GPU budgets `M` to sweep.
const GPUS: [usize; 2] = [2, 4];

/// Instance seed (one fixed instance per cell; the reps capture timer
/// noise, not workload variance).
const SEED: u64 = 7;

/// Median and 95th percentile of a sample (sorted copy; p95 by the
/// nearest-rank method).
pub fn median_p95(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "median_p95 of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    };
    let rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
    (median, s[rank - 1])
}

/// Wall-clock milliseconds of `reps` calls to `f` (after one warm-up call
/// so lazy initialization is not charged to the first sample); also
/// returns the latency of the produced schedule for cross-checking.
fn time_ms<F: FnMut() -> f64>(reps: usize, mut f: F) -> (Vec<f64>, f64) {
    let latency = f();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let l = std::hint::black_box(f());
        samples.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(l.to_bits(), latency.to_bits(), "non-deterministic run");
    }
    (samples, latency)
}

struct Cell {
    ops: usize,
    layers: usize,
    gpus: usize,
    algo: &'static str,
    ref_median: f64,
    ref_p95: f64,
    new_median: f64,
    new_p95: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.ref_median / self.new_median
    }

    fn row(&self) -> Row {
        vec![
            col("ops", self.ops),
            col("layers", self.layers),
            col("gpus", self.gpus),
            col("algo", self.algo),
            col("ref_median_ms", self.ref_median).dp(3),
            col("ref_p95_ms", self.ref_p95).dp(3),
            col("new_median_ms", self.new_median).dp(3),
            col("new_p95_ms", self.new_p95).dp(3),
            col("speedup_median", self.speedup()).dp(2),
        ]
    }
}

fn measure(g: &Graph, cost: &CostTable, gpus: usize, reps: usize) -> (Cell, Cell) {
    let (ops, layers) = (g.num_ops(), 0);
    let lp_cfg = HiosLpConfig::new(gpus);
    let mr_cfg = HiosMrConfig::new(gpus);

    let (ref_lp, ref_lp_lat) = time_ms(reps, || {
        reference::schedule_hios_lp(g, cost, lp_cfg).latency
    });
    let (new_lp, new_lp_lat) = time_ms(reps, || schedule_hios_lp(g, cost, lp_cfg).latency);
    assert_eq!(
        new_lp_lat.to_bits(),
        ref_lp_lat.to_bits(),
        "optimized HIOS-LP diverged from the reference"
    );

    let (ref_mr, ref_mr_lat) = time_ms(reps, || {
        reference::schedule_hios_mr(g, cost, mr_cfg).latency
    });
    let (new_mr, new_mr_lat) = time_ms(reps, || schedule_hios_mr(g, cost, mr_cfg).latency);
    assert_eq!(
        new_mr_lat.to_bits(),
        ref_mr_lat.to_bits(),
        "optimized HIOS-MR diverged from the reference"
    );

    let cell = |algo, r: &[f64], n: &[f64]| {
        let (ref_median, ref_p95) = median_p95(r);
        let (new_median, new_p95) = median_p95(n);
        Cell {
            ops,
            layers,
            gpus,
            algo,
            ref_median,
            ref_p95,
            new_median,
            new_p95,
        }
    };
    (
        cell("HIOS-LP", &ref_lp, &new_lp),
        cell("HIOS-MR", &ref_mr, &new_mr),
    )
}

/// The `sched-scaling` experiment: scheduling cost vs `n` and `M`,
/// optimized engine against the reference implementations.
pub fn sched_scaling(cfg: &RunCfg) -> Table {
    let reps = if cfg.seeds <= 8 { 3 } else { 5 };
    let mut cells: Vec<Cell> = Vec::new();
    for &(ops, layers) in &SIZES {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops,
            layers,
            deps: ops * 2,
            seed: SEED,
        })
        .expect("feasible workload config");
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(SEED));
        for &gpus in &GPUS {
            let (mut lp, mut mr) = measure(&g, &cost, gpus, reps);
            lp.layers = layers;
            mr.layers = layers;
            cells.push(lp);
            cells.push(mr);
        }
    }
    let speedup = cells
        .iter()
        .find(|c| c.ops == 1000 && c.gpus == 4 && c.algo == "HIOS-LP")
        .map(Cell::speedup)
        .unwrap_or(f64::NAN);
    let mut headline = Headlines::default();
    headline.metric("lp_speedup_vs_reference_1000ops_160layers_4gpus", speedup);
    Study::new(
        "sched-scaling",
        "Scheduling wall-clock vs problem size: optimized engine vs reference (ms)",
    )
    .files("sched_scaling", "schedulers")
    .meta("reps", reps)
    .meta("seed", SEED)
    .finish(cells.iter().map(Cell::row), headline, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_p95_nearest_rank() {
        let (m, p) = median_p95(&[5.0, 1.0, 3.0]);
        assert_eq!((m, p), (3.0, 5.0));
        let (m, p) = median_p95(&[4.0, 2.0, 3.0, 1.0]);
        assert_eq!((m, p), (2.5, 4.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median_p95(&xs), (50.5, 95.0));
        assert_eq!(median_p95(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn timed_runs_agree_on_a_small_instance() {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 40,
            layers: 5,
            deps: 80,
            seed: 11,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(11));
        let (lp, mr) = measure(&g, &cost, 2, 2);
        assert!(lp.speedup().is_finite() && lp.ref_median >= 0.0);
        assert!(mr.speedup().is_finite() && mr.new_median >= 0.0);
    }
}
