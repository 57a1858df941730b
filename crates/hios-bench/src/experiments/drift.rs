//! `drift`: robustness of serving under cost-model drift (`hios-serve` +
//! the `hios-cost` online calibrator).
//!
//! The profile a scheduler plans on goes stale in production: thermal
//! throttling, co-tenant interference, clock policies.  This study
//! sweeps drift shape × load × planning mode on a shared 3-GPU backend
//! serving two tenant DAGs.  Every cell replays the same seeded Poisson
//! trace through [`hios_serve::serve_drift`] while the simulated
//! backend drifts away from the profile; only the *planning* mode
//! varies:
//!
//! * `adaptive` — anytime ladder + online calibration: EWMA correction
//!   per (GPU, op), CUSUM drift alarms, planning-table re-pricing, and
//!   fingerprint-keyed cache invalidation;
//! * `static` — the same anytime ladder planning forever on the stale
//!   profile;
//! * `greedy` — oracle-free greedy dispatch on the stale profile.
//!
//! Headline criteria:
//!
//! * `adaptive_no_worse_everywhere` — adaptive ≤ static on **both** p99
//!   latency and miss rate in **every** drift cell;
//! * `adaptive_beats_greedy` — adaptive strictly beats greedy on p99 or
//!   miss rate (other metric no worse) in ≥ 1 drift cell;
//! * `zero_drift_identical` — with no drift, calibration on/off produce
//!   bit-identical serving histories (the loop is free when unneeded).
//!
//! `--validate` turns all three headline criteria into hard assertions
//! (and requires the drift cells to raise alarms at all).

use crate::study::{Headlines, Row, Study, col, layered_tenants, nominal_bounds};
use crate::{RunCfg, Table};
use hios_cost::CalibrationConfig;
use hios_serve::{
    Policy, Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig, generate_trace,
    serve_drift,
};
use hios_sim::{DriftPlan, FaultPlan};
use rayon::prelude::*;

/// GPUs in the shared backend.
const GPUS: usize = 3;

/// One load level of the sweep.
#[derive(Clone, Copy)]
struct Load {
    name: &'static str,
    rate_rps: f64,
    requests: usize,
    deadline_factor: f64,
}

/// The load levels (`--smoke` runs only the first).
const LOADS: [Load; 2] = [
    Load {
        name: "steady",
        rate_rps: 150.0,
        requests: 80,
        deadline_factor: 8.0,
    },
    Load {
        name: "heavy",
        rate_rps: 400.0,
        requests: 160,
        deadline_factor: 10.0,
    },
];

/// The drift shapes (`--smoke` runs only the first two).
const SHAPES: [&str; 4] = ["none", "ramp", "bursts", "walk"];

/// One planning mode compared in every cell.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    policy: Policy,
    calibrate: bool,
}

/// All planning modes, in the order [`verdict`] expects per cell.
const MODES: [Mode; 3] = [
    Mode {
        name: "adaptive",
        policy: Policy::Anytime,
        calibrate: true,
    },
    Mode {
        name: "static",
        policy: Policy::Anytime,
        calibrate: false,
    },
    Mode {
        name: "greedy",
        policy: Policy::GreedyOnly,
        calibrate: false,
    },
];

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    load: Load,
    shape: &'static str,
    mode: Mode,
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
            col("deadline_factor", c.load.deadline_factor).json_only(),
            col("drift", c.shape),
            col("mode", c.mode.name),
            col("completed", r.completed),
            col("on_time", r.on_time).json_only(),
            col("p50_ms", r.p50_ms).dp(3),
            col("p95_ms", r.p95_ms).json_only(),
            col("p99_ms", r.p99_ms).dp(3),
            col("miss_rate", r.miss_rate).dp(3),
            col("shed_rate", r.shed_rate).json_only(),
            col("goodput_rps", r.goodput_rps).dp(2),
            col("drift_alarms", r.drift_alarms).csv_as("alarms"),
            col("recalibrations", r.recalibrations).csv_as("recal"),
            col("cache_invalidations", r.cache_invalidations).json_only(),
        ]
    }
}

/// The two tenant models served in every cell, as `(seed, ops)`.
const TENANTS: [(u64, usize); 2] = [(41, 36), (42, 48)];

/// The drift plan of a scenario.  All plans target the last GPU so the
/// stale profile keeps routing critical stages onto the slowed device.
fn drift_for(shape: &'static str) -> DriftPlan {
    let gpu = GPUS - 1;
    match shape {
        "none" => DriftPlan::none(),
        // Sustained thermal throttle: ramps to a 5x slowdown early on.
        "ramp" => DriftPlan::ramp(gpu, 5.0, 30.0, 1.0, 5.0, 6),
        // Co-tenant interference: 4x slower for 60% of every 40 ms.
        "bursts" => DriftPlan::bursts(gpu, 5.0, 40.0, 0.6, 4.0, 2000.0),
        // Slow degradation: seeded biased random walk toward slower.
        "walk" => DriftPlan::random_walk(gpu, 9, 2000.0, 10.0, 0.05, 0.12, 8.0),
        other => panic!("unknown drift shape {other}"),
    }
}

/// The shared arrival trace of a load level: every mode and drift shape
/// at that load sees the identical trace.
fn trace_for(models: &[ServedModel], load: Load) -> Vec<Request> {
    generate_trace(
        &WorkloadConfig {
            requests: load.requests,
            arrival_rate_rps: load.rate_rps,
            deadline_factor: load.deadline_factor,
            seed: 17,
        },
        &nominal_bounds(models, GPUS),
    )
}

fn run_cell(c: CellCfg) -> CellOut {
    let models = layered_tenants(&TENANTS);
    let trace = trace_for(&models, c.load);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.policy = c.mode.policy;
    if c.mode.calibrate {
        cfg.calibration = Some(CalibrationConfig::default());
    }
    let out = serve_drift(
        &models,
        &trace,
        &FaultPlan::none(),
        &drift_for(c.shape),
        &cfg,
    )
    .expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// Extract the (adaptive, static, greedy) triple of each (load, shape)
/// cell and fold the acceptance headlines.
fn verdict(outs: &[CellOut]) -> Headlines {
    let mut no_worse = true;
    let mut beats_greedy = false;
    let mut alarms = 0u64;
    let mut worst_ratio = 0.0f64;
    for chunk in outs.chunks(3) {
        let [adaptive, stale, greedy] = chunk else {
            panic!("cells come in mode triples");
        };
        debug_assert_eq!(adaptive.cfg.mode.name, "adaptive");
        debug_assert_eq!(stale.cfg.mode.name, "static");
        debug_assert_eq!(greedy.cfg.mode.name, "greedy");
        if adaptive.cfg.shape == "none" {
            continue; // the no-drift column is judged by digest identity
        }
        alarms += adaptive.report.drift_alarms;
        let (a, s, g) = (&adaptive.report, &stale.report, &greedy.report);
        if a.p99_ms > s.p99_ms || a.miss_rate > s.miss_rate {
            no_worse = false;
        }
        if s.p99_ms > 0.0 {
            worst_ratio = worst_ratio.max(a.p99_ms / s.p99_ms);
        }
        let strictly = a.p99_ms < g.p99_ms || a.miss_rate < g.miss_rate;
        if strictly && a.p99_ms <= g.p99_ms && a.miss_rate <= g.miss_rate {
            beats_greedy = true;
        }
    }
    let mut h = Headlines::default();
    h.criterion(
        "adaptive_no_worse_everywhere",
        no_worse,
        format_args!(
            "adaptive must match static planning on p99 and miss rate in every drift cell \
             (worst p99 ratio {worst_ratio})"
        ),
    );
    h.criterion(
        "adaptive_beats_greedy",
        beats_greedy,
        "adaptive must strictly beat greedy dispatch in at least one drift cell",
    );
    h.criterion(
        "zero_drift_identical",
        zero_drift_identical(outs),
        "zero-drift calibration must be bit-identical to calibration off",
    );
    h.metric_must(
        "alarms_total",
        alarms,
        alarms > 0,
        "drift cells must raise alarms",
    );
    h.metric("worst_p99_ratio", worst_ratio);
    h
}

/// The zero-drift bit-identity headline: with no drift, calibration
/// on/off must produce the same serving history, bit for bit.
fn zero_drift_identical(outs: &[CellOut]) -> bool {
    let digests: Vec<(bool, u64)> = outs
        .iter()
        .filter(|o| o.cfg.shape == "none" && o.cfg.mode.name != "greedy")
        .map(|o| (o.cfg.mode.calibrate, o.report.history_digest))
        .collect();
    digests
        .chunks(2)
        .all(|pair| matches!(pair, [(true, a), (false, b)] if a == b))
}

/// The `drift` experiment.
pub fn drift(cfg: &RunCfg) -> Table {
    let (loads, shapes) = if cfg.smoke {
        (&LOADS[..1], &SHAPES[..2])
    } else {
        (&LOADS[..], &SHAPES[..])
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &load in loads {
        for &shape in shapes {
            for mode in MODES {
                cells.push(CellCfg { load, shape, mode });
            }
        }
    }
    let outs: Vec<CellOut> = cells.into_par_iter().map(run_cell).collect();
    Study::new(
        "drift",
        "Serving under cost-model drift: adaptive calibration vs static planning vs greedy",
    )
    .meta("gpus", GPUS)
    .meta("smoke", cfg.smoke)
    .finish(outs.iter().map(CellOut::row), verdict(&outs), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_cell_prefers_adaptive_calibration() {
        let outs: Vec<CellOut> = MODES
            .iter()
            .map(|&mode| {
                run_cell(CellCfg {
                    load: LOADS[0],
                    shape: "ramp",
                    mode,
                })
            })
            .collect();
        verdict(&outs).assert_hold();
    }

    #[test]
    fn every_drift_shape_builds_a_valid_plan() {
        for shape in SHAPES {
            drift_for(shape).validate(GPUS).expect("plan fits platform");
        }
    }
}
