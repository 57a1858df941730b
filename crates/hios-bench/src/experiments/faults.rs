//! `fault-matrix`: fault tolerance of the recovery loop on the CNN
//! benchmarks (ISSUE 2).
//!
//! Sweeps fault kind × model × GPU count × repair policy.  Each cell
//! schedules the model with HIOS-LP, measures the fault-free latency,
//! injects the fault at 50% of that baseline, and drives the full
//! detect → repair → resume loop over jittered repetitions
//! ([`hios_sim::measure_recovery`]).  Reported per cell: completion rate,
//! latency-degradation ratio (faulted mean / fault-free mean) and mean
//! repair count.  Headline field: `completion_rate_overall` (the
//! acceptance bar is 1.0).

use crate::study::{Headlines, Row, Study, col};
use crate::{RunCfg, Table};
use hios_core::repair::{RepairConfig, RepairPolicy};
use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
use hios_cost::AnalyticCostModel;
use hios_graph::Graph;
use hios_sim::{
    FaultKind, FaultPlan, MeasureConfig, RecoveryConfig, SimConfig, measure, measure_recovery,
    simulate,
};
use rayon::prelude::*;

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    model: &'static str,
    size: u32,
    gpus: usize,
    fault: &'static str,
    policy: RepairPolicy,
}

/// One grid cell's outcome.
struct CellOut {
    cfg: CellCfg,
    completion_rate: f64,
    base_ms: f64,
    faulted_ms: f64,
    mean_repairs: f64,
}

impl CellOut {
    fn degradation(&self) -> f64 {
        self.faulted_ms / self.base_ms
    }

    fn row(&self) -> Row {
        let c = &self.cfg;
        vec![
            col("model", c.model),
            col("input_size", c.size),
            col("gpus", c.gpus),
            col("fault", c.fault),
            col("policy", c.policy.name()),
            col("completion_rate", self.completion_rate).dp(2),
            col("fault_free_ms", self.base_ms).dp(3),
            col("faulted_ms", self.faulted_ms).dp(3),
            col("degradation", self.degradation()).dp(3),
            col("mean_repairs", self.mean_repairs).dp(2),
        ]
    }
}

/// Builds the fault for a cell, injected at `at_ms`.  The victim GPU is
/// the highest-numbered one, the victim link is `0 -> 1`, and the hung
/// operator is one still running at the injection instant.
fn plan_for(
    fault: &'static str,
    at_ms: f64,
    g: &Graph,
    sim: &hios_sim::SimResult,
    m: usize,
) -> FaultPlan {
    let kind = match fault {
        "gpu-fail-stop" => FaultKind::GpuFailStop { gpu: m - 1 },
        "gpu-slowdown" => FaultKind::GpuSlowdown {
            gpu: m - 1,
            factor: 3.0,
        },
        "link-fail" => FaultKind::LinkFail { from: 0, to: 1 },
        "link-degrade" => FaultKind::LinkDegrade {
            from: 0,
            to: 1,
            factor: 4.0,
        },
        "op-hang" => {
            let victim = g
                .op_ids()
                .find(|&v| sim.op_start[v.index()] <= at_ms && sim.op_finish[v.index()] > at_ms)
                .unwrap_or_else(|| g.op_ids().next().expect("non-empty model"));
            FaultKind::OpHang { op: victim }
        }
        other => panic!("unknown fault kind {other}"),
    };
    FaultPlan::single(at_ms, kind)
}

fn run_cell(c: CellCfg, runs: u32, validate: bool) -> CellOut {
    let g = super::testbed::build_model(c.model, c.size);
    let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
    let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(c.gpus)).unwrap();
    if validate {
        out.schedule
            .validate_full(&g, None)
            .expect("HIOS-LP schedule is structurally sound");
    }
    let sim = simulate(&g, &cost, &out.schedule, &SimConfig::analytical())
        .expect("scheduler output is feasible");
    let at_ms = sim.makespan * 0.5;
    let plan = plan_for(c.fault, at_ms, &g, &sim, c.gpus);

    let mcfg = MeasureConfig {
        runs,
        jitter: 0.03,
        seed: 17,
    };
    let base = measure(&g, &cost, &out.schedule, &SimConfig::analytical(), &mcfg)
        .expect("fault-free measurement");
    let rcfg = RecoveryConfig {
        repair: RepairConfig::new(c.policy),
        ..RecoveryConfig::analytical()
    };
    let rec = measure_recovery(&g, &cost, &out.schedule, &plan, &rcfg, &mcfg)
        .expect("recovery measurement");
    CellOut {
        cfg: c,
        completion_rate: rec.completion_rate(),
        base_ms: base.mean_ms,
        faulted_ms: rec.stats.mean_ms,
        mean_repairs: rec.mean_repairs,
    }
}

/// All fault kinds in the sweep.
const FAULTS: [&str; 5] = [
    "gpu-fail-stop",
    "gpu-slowdown",
    "link-fail",
    "link-degrade",
    "op-hang",
];

/// The `fault-matrix` experiment.
pub fn fault_matrix(cfg: &RunCfg) -> Table {
    let (models, gpu_counts, runs): (&[(&'static str, u32)], &[usize], u32) = if cfg.smoke {
        (&[("inception_v3", 299)], &[2], 3)
    } else {
        (&[("inception_v3", 299), ("nasnet", 331)], &[2, 4], 8)
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &(model, size) in models {
        for &gpus in gpu_counts {
            for &fault in &FAULTS {
                for policy in [RepairPolicy::Greedy, RepairPolicy::Reschedule] {
                    cells.push(CellCfg {
                        model,
                        size,
                        gpus,
                        fault,
                        policy,
                    });
                }
            }
        }
    }
    let outs: Vec<CellOut> = cells
        .into_par_iter()
        .map(|c| run_cell(c, runs, cfg.validate))
        .collect();

    let overall = outs.iter().map(|o| o.completion_rate).sum::<f64>() / outs.len() as f64;
    let worst = outs.iter().map(CellOut::degradation).fold(0.0f64, f64::max);
    let mut headline = Headlines::default();
    headline
        .metric("completion_rate_overall", overall)
        .metric("worst_degradation", worst);
    Study::new(
        "fault-matrix",
        "Fault tolerance: completion rate and latency degradation under injected faults",
    )
    .files("fault_matrix", "faults")
    .meta("runs_per_cell", runs)
    .meta("smoke", cfg.smoke)
    .finish(outs.iter().map(CellOut::row), headline, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_stop_cell_completes_with_both_policies() {
        for policy in [RepairPolicy::Greedy, RepairPolicy::Reschedule] {
            let o = run_cell(
                CellCfg {
                    model: "inception_v3",
                    size: 299,
                    gpus: 2,
                    fault: "gpu-fail-stop",
                    policy,
                },
                2,
                true,
            );
            assert_eq!(o.completion_rate, 1.0, "{policy:?}");
            assert!(o.mean_repairs >= 1.0, "{policy:?}");
            assert!(
                o.degradation() >= 1.0,
                "{policy:?}: faults cannot speed the run up ({})",
                o.degradation()
            );
        }
    }

    #[test]
    fn every_fault_kind_builds_a_valid_plan() {
        let g = super::super::testbed::build_model("inception_v3", 299);
        let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
        let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(2)).unwrap();
        let sim = simulate(&g, &cost, &out.schedule, &SimConfig::analytical()).unwrap();
        for fault in FAULTS {
            let plan = plan_for(fault, sim.makespan * 0.5, &g, &sim, 2);
            plan.validate(&g, 2).expect("plan fits the platform");
        }
    }
}
