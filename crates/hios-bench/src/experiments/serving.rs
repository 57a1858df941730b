//! `serving`: the deadline-aware multi-tenant serving study (`hios-serve`).
//!
//! Sweeps load level × deadline tightness × fault scenario × scheduling
//! policy on a shared multi-GPU backend serving two tenant DAGs.  Each
//! cell replays the same seeded Poisson arrival trace through
//! [`hios_serve::serve`] and reports latency percentiles, deadline-miss
//! rate, shed rate, and goodput.  Headline criteria:
//!
//! * `anytime_beats_fixed_lp` — in at least one overload+fault cell the
//!   anytime ladder beats always-run-the-full-LP on **both** p99 latency
//!   and miss rate (the LP's modeled scheduling cost dominates the
//!   virtual service times, so paying it per request starves the queue);
//! * `anytime_goodput_ok` — the anytime ladder's goodput is at least
//!   greedy-only's in **every** cell (the schedule cache makes the good
//!   schedules as cheap as the greedy ones).
//!
//! `--validate` turns both headline criteria into hard assertions.

use crate::study::{Headlines, Row, Study, col, layered_tenants, nominal_bounds};
use crate::{RunCfg, Table};
use hios_serve::{
    Policy, Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig, generate_trace, serve,
};
use hios_sim::{FaultEvent, FaultKind, FaultPlan};
use rayon::prelude::*;

/// GPUs in the shared backend.
const GPUS: usize = 3;

/// One load level of the sweep.
#[derive(Clone, Copy)]
struct Load {
    name: &'static str,
    rate_rps: f64,
    requests: usize,
}

/// The load levels of the full grid.
const LOADS: [Load; 2] = [
    Load {
        name: "light",
        rate_rps: 100.0,
        requests: 80,
    },
    Load {
        name: "overload",
        rate_rps: 2000.0,
        requests: 160,
    },
];

/// The smoke grid's only load: the overload level on a shorter trace.
const SMOKE_LOAD: Load = Load {
    requests: 80,
    ..LOADS[1]
};

/// The fault scenarios (`--smoke` runs only the first two).
const FAULTS: [&str; 3] = ["none", "gpu-fail", "gpu+link"];

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    load: Load,
    deadline_factor: f64,
    fault: &'static str,
    policy: Policy,
}

/// One grid cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: ServeReport,
}

impl CellOut {
    fn row(&self) -> Row {
        let (c, r) = (&self.cfg, &self.report);
        vec![
            col("load", c.load.name),
            col("arrival_rate_rps", c.load.rate_rps).json_only(),
            col("requests", r.total).json_only(),
            col("deadline_factor", c.deadline_factor).dp(0),
            col("fault", c.fault),
            col("policy", c.policy.name()),
            col("completed", r.completed),
            col("on_time", r.on_time).json_only(),
            col("p50_ms", r.p50_ms).dp(3),
            col("p95_ms", r.p95_ms).json_only(),
            col("p99_ms", r.p99_ms).dp(3),
            col("miss_rate", r.miss_rate).dp(3),
            col("shed_rate", r.shed_rate).dp(3),
            col("goodput_rps", r.goodput_rps).dp(2),
            col("repairs", r.repairs),
            col("breaker_opens", r.breaker_opens).json_only(),
            col("cache_hits", r.cache.0).json_only(),
        ]
    }
}

/// The two tenant models served in every cell, as `(seed, ops)`.
const TENANTS: [(u64, usize); 2] = [(31, 36), (32, 48)];

/// The fault plan of a scenario.  Faults land mid-stream (well after the
/// first dispatch, well before the trace drains).
fn plan_for(fault: &'static str) -> FaultPlan {
    match fault {
        "none" => FaultPlan::new(vec![]),
        "gpu-fail" => FaultPlan::single(15.0, FaultKind::GpuFailStop { gpu: GPUS - 1 }),
        "gpu+link" => FaultPlan::new(vec![
            FaultEvent {
                at_ms: 12.0,
                kind: FaultKind::LinkDegrade {
                    from: 0,
                    to: 1,
                    factor: 4.0,
                },
            },
            FaultEvent {
                at_ms: 15.0,
                kind: FaultKind::GpuFailStop { gpu: GPUS - 1 },
            },
        ]),
        other => panic!("unknown fault scenario {other}"),
    }
}

/// The shared arrival trace of a (load, deadline) pair: every policy in
/// the cell sees the identical trace.
fn trace_for(models: &[ServedModel], load: Load, factor: f64) -> Vec<Request> {
    generate_trace(
        &WorkloadConfig {
            requests: load.requests,
            arrival_rate_rps: load.rate_rps,
            deadline_factor: factor,
            seed: 23,
        },
        &nominal_bounds(models, GPUS),
    )
}

fn run_cell(c: CellCfg) -> CellOut {
    let models = layered_tenants(&TENANTS);
    let trace = trace_for(&models, c.load, c.deadline_factor);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.policy = c.policy;
    let out = serve(&models, &trace, &plan_for(c.fault), &cfg).expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// Extract the (anytime, fixed, greedy) triple of each (load, factor,
/// fault) cell and fold the acceptance headlines.
fn verdict(outs: &[CellOut]) -> Headlines {
    let mut beats = false;
    let mut goodput_ok = true;
    let mut worst_ratio = f64::INFINITY;
    for chunk in outs.chunks(3) {
        let [any, fixed, greedy] = chunk else {
            panic!("cells come in policy triples");
        };
        debug_assert!(matches!(any.cfg.policy, Policy::Anytime));
        debug_assert!(matches!(fixed.cfg.policy, Policy::FixedFullLp));
        debug_assert!(matches!(greedy.cfg.policy, Policy::GreedyOnly));
        let overloaded = any.cfg.load.name == "overload";
        let faulted = any.cfg.fault != "none";
        if overloaded
            && faulted
            && any.report.p99_ms < fixed.report.p99_ms
            && any.report.miss_rate < fixed.report.miss_rate
        {
            beats = true;
        }
        let ratio = if greedy.report.goodput_rps > 0.0 {
            any.report.goodput_rps / greedy.report.goodput_rps
        } else {
            f64::INFINITY
        };
        worst_ratio = worst_ratio.min(ratio);
        if any.report.goodput_rps < greedy.report.goodput_rps {
            goodput_ok = false;
        }
    }
    let mut h = Headlines::default();
    h.criterion(
        "anytime_beats_fixed_lp",
        beats,
        "anytime must beat FixedFullLp on p99 and miss rate in an overload+fault cell",
    );
    h.criterion(
        "anytime_goodput_ok",
        goodput_ok,
        format_args!(
            "anytime goodput must match greedy-only in every cell (worst ratio {worst_ratio})"
        ),
    );
    h.metric("worst_goodput_ratio", worst_ratio);
    h
}

/// All policies, in the order [`verdict`] expects per cell.
const POLICIES: [Policy; 3] = [Policy::Anytime, Policy::FixedFullLp, Policy::GreedyOnly];

/// The `serving` experiment.
pub fn serving(cfg: &RunCfg) -> Table {
    let (loads, factors, faults): (&[Load], &[f64], _) = if cfg.smoke {
        (&[SMOKE_LOAD], &[600.0], &FAULTS[..2])
    } else {
        (&LOADS, &[200.0, 800.0], &FAULTS[..])
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &load in loads {
        for &deadline_factor in factors {
            for &fault in faults {
                for policy in POLICIES {
                    cells.push(CellCfg {
                        load,
                        deadline_factor,
                        fault,
                        policy,
                    });
                }
            }
        }
    }
    let outs: Vec<CellOut> = cells.into_par_iter().map(run_cell).collect();
    Study::new(
        "serving",
        "Deadline-aware serving: latency percentiles, miss/shed rates, and goodput per policy",
    )
    .meta("gpus", GPUS)
    .meta("smoke", cfg.smoke)
    .finish(outs.iter().map(CellOut::row), verdict(&outs), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_fault_cell_prefers_the_anytime_ladder() {
        let outs: Vec<CellOut> = POLICIES
            .iter()
            .map(|&policy| {
                run_cell(CellCfg {
                    load: SMOKE_LOAD,
                    deadline_factor: 600.0,
                    fault: "gpu-fail",
                    policy,
                })
            })
            .collect();
        verdict(&outs).assert_hold();
    }

    #[test]
    fn every_fault_scenario_builds_a_valid_plan() {
        for fault in FAULTS {
            let plan = plan_for(fault);
            for m in &layered_tenants(&TENANTS) {
                plan.validate(&m.graph, GPUS).expect("plan fits platform");
            }
        }
    }
}
