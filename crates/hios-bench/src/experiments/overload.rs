//! `overload`: overload-hardened serving under SLO priority classes and
//! correlated failures (`hios-serve` brownout controller + retry budget
//! + flap-aware breakers).
//!
//! An admit-everything server collapses uniformly under overload: the
//! queue sheds blindly, every class misses together, and a correlated
//! fault turns the retry path into a storm.  This study sweeps load
//! multiplier × fault shape × hardening mode on a shared 3-GPU backend
//! serving two tenant DAGs under a Gold/Silver/Bronze arrival mix:
//!
//! * `brownout` — [`hios_serve::OverloadConfig`] attached: hysteresis
//!   brownout levels (cap the ladder → shed Bronze → Gold only), the
//!   server-global retry budget, and flap-escalating breakers;
//! * `static` — the same server with no overload hardening.
//!
//! The load axis is calibrated, not guessed: a saturating probe trace
//! measures the backend's sustained service rate, and `1x` is pinned at
//! 75% of it (a healthy utilization), so `2x`/`3x` are honest overload
//! multiples on any cost model.  Fault shapes are `none`, a correlated
//! `domain-kill` (one two-GPU host dies mid-run), and `flapping` (a GPU
//! cycling fail/heal on a deterministic duty cycle).
//!
//! Headline criteria:
//!
//! * `gold_protected_overloaded` — brownout Gold on-time ≥ static in
//!   **every** cell at ≥ 1.5× load;
//! * `transitions_bounded` — no cell's brownout controller oscillates
//!   (hysteresis + dwell keep the transition count small);
//! * `nominal_identical` — at 1× load with no faults, the attached
//!   controller is bit-identical to the unhardened server;
//! * `deterministic_replay` — the deepest overload cell replays
//!   digest-identically.
//!
//! `--validate` turns all four headline criteria into hard assertions
//! (and requires the overloaded cells to actually brown out).

use crate::study::{
    Headlines, Row, Study, class_col, class_trace, col, layered_tenants, probe_capacity_rps,
};
use crate::{RunCfg, Table};
use hios_serve::{
    OverloadConfig, PriorityClass, Request, ServeConfig, ServeReport, ServedModel, WorkloadConfig,
    serve, trace_span_ms,
};
use hios_sim::{DomainKill, FaultPlan, FaultScript, FlapSpec, host_domains};
use rayon::prelude::*;

/// GPUs in the shared backend (two on one host, one on its own).
const GPUS: usize = 3;

/// GPUs per PCIe-switch failure domain.
const GPUS_PER_HOST: usize = 2;

/// Requests per cell.
const REQUESTS: usize = 200;

/// Deadline slack factor over the nominal bound.
const DEADLINE_FACTOR: f64 = 30.0;

/// Transition bound per cell: far below the outcome-event count, so a
/// pass certifies hysteresis, not luck.
const MAX_TRANSITIONS: u64 = 48;

/// The fault shapes (`--smoke` runs only the first two).
const SHAPES: [&str; 3] = ["none", "domain-kill", "flapping"];

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct CellCfg {
    /// Load multiplier over the calibrated 1x rate.
    mult: f64,
    /// Fault shape name.
    shape: &'static str,
    /// Whether overload hardening is attached.
    harden: bool,
}

/// One cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: ServeReport,
}

impl CellOut {
    fn row(&self) -> Row {
        let (c, r) = (&self.cfg, &self.report);
        let [gold, silver, bronze] = &r.class_stats;
        // The table orders `shed_q` and `p99_ms` differently from the
        // JSON point, so each is declared once per output.
        vec![
            col("load_mult", c.mult)
                .csv_as("load")
                .cell(format!("{:.1}x", c.mult)),
            col("fault", c.shape),
            col("mode", if c.harden { "brownout" } else { "static" }),
            col("completed", r.completed).json_only(),
            col("on_time", r.on_time).json_only(),
            col("p99_ms", r.p99_ms).json_only(),
            col("miss_rate", r.miss_rate).json_only(),
            col("goodput_rps", r.goodput_rps).json_only(),
            class_col("gold", gold).csv_as("gold_ontime"),
            class_col("silver", silver).csv_as("silver_ontime"),
            class_col("bronze", bronze).csv_as("bronze_ontime"),
            col("shed_queue", r.shed_queue).json_only(),
            col("shed_brownout", r.shed_brownout).csv_as("shed_brn"),
            col("shed_q", r.shed_queue).csv_only(),
            col("shed_retry_budget", r.shed_retry_budget).json_only(),
            col("retry_budget_denied", r.retry_budget_denied).csv_as("rb_denied"),
            col("flap_escalations", r.flap_escalations).json_only(),
            col("brownout_transitions", r.brownout.transitions).csv_as("trans"),
            col("brownout_max_level", r.brownout.max_level).csv_as("maxlvl"),
            col("brownout_timeline", &r.brownout.timeline).json_only(),
            col("history_digest", format!("{:016x}", r.history_digest)).json_only(),
            col("p99_ms", r.p99_ms).dp(3).csv_only(),
        ]
    }
}

/// The two tenant models served in every cell, as `(seed, ops)`.
const TENANTS: [(u64, usize); 2] = [(41, 36), (42, 48)];

/// The `1x` load: 75% of the backend's probed sustained service rate (a
/// healthy utilization), so `2x`/`3x` are honest overload multiples.
fn calibrated_rate_rps(models: &[ServedModel]) -> f64 {
    0.75 * probe_capacity_rps(models, GPUS, 120, 13)
}

/// The shared class-mixed arrival trace of one load multiplier.
fn trace_for(models: &[ServedModel], rate_rps: f64) -> Vec<Request> {
    class_trace(
        models,
        GPUS,
        &WorkloadConfig {
            requests: REQUESTS,
            arrival_rate_rps: rate_rps,
            deadline_factor: DEADLINE_FACTOR,
            seed: 17,
        },
    )
}

/// The fault plan of a shape, anchored to the trace's arrival span.
fn faults_for(models: &[ServedModel], shape: &'static str, span_ms: f64) -> FaultPlan {
    let script = match shape {
        "none" => return FaultPlan::none(),
        // One two-GPU host dies mid-run: a correlated loss of 2/3 of
        // the platform in a single instant.
        "domain-kill" => FaultScript {
            domains: host_domains(GPUS, GPUS_PER_HOST),
            kills: vec![DomainKill {
                at_ms: 0.4 * span_ms,
                domain: 0,
            }],
            ..FaultScript::default()
        },
        // The lone-host GPU cycles fail/heal: each up interval outlasts
        // the breaker reset, so every cycle closes the breaker and the
        // re-trip lands inside the flap window — the worst shape for a
        // breaker without flap detection.
        "flapping" => FaultScript {
            flaps: vec![FlapSpec {
                gpu: GPUS - 1,
                first_fail_ms: 0.2 * span_ms,
                down_ms: 6.0,
                up_ms: 30.0,
                cycles: 4,
            }],
            ..FaultScript::default()
        },
        other => panic!("unknown fault shape {other}"),
    };
    script
        .compile(&models[0].graph, GPUS)
        .expect("valid fault script")
}

fn run_cell(models: &[ServedModel], rate_1x: f64, c: CellCfg) -> CellOut {
    let trace = trace_for(models, c.mult * rate_1x);
    let faults = faults_for(models, c.shape, trace_span_ms(&trace));
    let mut cfg = ServeConfig::new(GPUS);
    if c.harden {
        cfg.overload = Some(OverloadConfig::default());
    }
    let out = serve(models, &trace, &faults, &cfg).expect("well-formed serving setup");
    CellOut {
        cfg: c,
        report: out.report,
    }
}

/// Folds the acceptance headlines.  Cells come in `(brownout, static)`
/// pairs per `(mult, shape)`; `deterministic_replay` is whether the
/// caller's re-run of the deepest overload cell matched its digest.
fn verdict(outs: &[CellOut], deterministic_replay: bool) -> Headlines {
    let mut protected = true;
    let mut nominal_identical = true;
    let mut worst_margin = i64::MAX;
    let mut max_transitions = 0u64;
    let mut sheds = 0u64;
    for pair in outs.chunks(2) {
        let [brn, stat] = pair else {
            panic!("cells come in mode pairs");
        };
        debug_assert!(brn.cfg.harden && !stat.cfg.harden);
        max_transitions = max_transitions.max(brn.report.brownout.transitions);
        if brn.cfg.mult < 1.5 {
            // Nominal cells are judged by digest identity: the attached
            // controller must not perturb a server that never needs it.
            if brn.cfg.mult == 1.0 && brn.cfg.shape == "none" {
                nominal_identical &= brn.report.history_digest == stat.report.history_digest;
            }
            continue;
        }
        // The controller must actually act, not win by accident.
        sheds += brn.report.shed_brownout as u64;
        let gold = PriorityClass::Gold.index();
        let margin = brn.report.class_stats[gold].on_time as i64
            - stat.report.class_stats[gold].on_time as i64;
        worst_margin = worst_margin.min(margin);
        if margin < 0 {
            protected = false;
        }
    }
    if worst_margin == i64::MAX {
        worst_margin = 0;
    }

    let mut h = Headlines::default();
    h.criterion(
        "gold_protected_overloaded",
        protected,
        format_args!(
            "brownout must keep Gold on-time >= static in every >=1.5x cell \
             (worst margin {worst_margin})"
        ),
    );
    h.criterion(
        "transitions_bounded",
        max_transitions <= MAX_TRANSITIONS,
        format_args!(
            "brownout controller oscillated: {max_transitions} transitions > {MAX_TRANSITIONS}"
        ),
    );
    h.criterion(
        "nominal_identical",
        nominal_identical,
        "at 1x no-fault the controller must be digest-identical to the static server",
    );
    h.criterion(
        "deterministic_replay",
        deterministic_replay,
        "overload cells must replay bit-identically",
    );
    h.metric("worst_gold_margin", worst_margin)
        .metric("max_transitions", max_transitions);
    h.metric_must(
        "brownout_sheds_total",
        sheds,
        sheds > 0,
        "overloaded cells must actually brown out",
    );
    h
}

/// The `overload` experiment.
pub fn overload(cfg: &RunCfg) -> Table {
    let models = layered_tenants(&TENANTS);
    let rate_1x = calibrated_rate_rps(&models);
    let (mults, shapes): (&[f64], _) = if cfg.smoke {
        (&[1.0, 2.0], &SHAPES[..2])
    } else {
        (&[1.0, 1.5, 2.0, 3.0], &SHAPES[..])
    };
    let mut cells: Vec<CellCfg> = Vec::new();
    for &mult in mults {
        for &shape in shapes {
            for harden in [true, false] {
                cells.push(CellCfg {
                    mult,
                    shape,
                    harden,
                });
            }
        }
    }
    let outs: Vec<CellOut> = cells
        .into_par_iter()
        .map(|c| run_cell(&models, rate_1x, c))
        .collect();
    // Deterministic replay of the deepest overload cell.
    let deepest = CellCfg {
        mult: *mults.last().expect("non-empty sweep"),
        shape: shapes[1],
        harden: true,
    };
    let replay_digest = run_cell(&models, rate_1x, deepest).report.history_digest;
    let original_digest = outs
        .iter()
        .find(|o| o.cfg.mult == deepest.mult && o.cfg.shape == deepest.shape && o.cfg.harden)
        .expect("deepest cell ran")
        .report
        .history_digest;
    let deterministic_replay = replay_digest == original_digest;

    Study::new(
        "overload",
        "Overload-hardened serving: brownout + retry budget vs an unhardened server",
    )
    .meta("gpus", GPUS)
    .meta("smoke", cfg.smoke)
    .meta("rate_1x_rps", rate_1x)
    .meta("requests_per_cell", REQUESTS)
    .meta("deadline_factor", DEADLINE_FACTOR)
    .finish(
        outs.iter().map(CellOut::row),
        verdict(&outs, deterministic_replay),
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_rate_is_positive_and_finite() {
        let models = layered_tenants(&TENANTS);
        let rate = calibrated_rate_rps(&models);
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
    }

    #[test]
    fn overloaded_cell_browns_out_and_protects_gold() {
        let models = layered_tenants(&TENANTS);
        let rate_1x = calibrated_rate_rps(&models);
        let outs: Vec<CellOut> = [true, false]
            .iter()
            .map(|&harden| {
                run_cell(
                    &models,
                    rate_1x,
                    CellCfg {
                        mult: 2.0,
                        shape: "none",
                        harden,
                    },
                )
            })
            .collect();
        verdict(&outs, true).assert_hold();
    }

    #[test]
    fn every_fault_shape_compiles_to_a_valid_plan() {
        let models = layered_tenants(&TENANTS);
        for shape in SHAPES {
            faults_for(&models, shape, 300.0);
        }
    }
}
