//! `serve_chaos`: the same cluster and tenants as `serve_steady`, with
//! every GPU-level fault axis at once.
//!
//! One GPU flaps (6 ms down in every 80 ms), a link degrades, one
//! operator hangs, a second GPU suffers bursty drift (×2.5 for 30 % of
//! every period) that the online calibrator has to learn, the overload
//! controller is attached, and arrivals double over the middle 5 % of
//! the span.  Same `server` layer as the steady workload, used
//! differently: repair, retry, breakers, brownout, re-rank,
//! recalibration and the calibration dual simulation all run — so a
//! fast-path gain that costs the fault path shows here.  Sized so that
//! at least 90 % of requests still finish on time: it times serving
//! under faults, not refusing.

use super::serve_steady::{DEADLINE_FACTOR, GPUS, scaled};
use super::{Traced, Workload};
use crate::gen::{Popularity, RateBurst, TraceSpec, poisson_trace, small_tenants, span_ms};
use crate::layers::Layers;
use crate::replay::{SchedCosts, ServeCall, trace_single_serve};
use crate::serving::{
    SimStats, Terminal, capacity_rps, check_terminals, nominal_ms, sim_stats, tenants_sequential_ms,
};
use crate::span::Recorder;
use hios_cost::CalibrationConfig;
use hios_graph::OpId;
use hios_serve::{OverloadConfig, Request, ServeConfig, ServeOutcome, ServedModel, serve_drift};
use hios_sim::{DriftPlan, FaultEvent, FaultKind, FaultPlan, FaultScript, FlapSpec};
use std::time::Instant;

pub const REQUESTS: usize = 200_000;
pub const LOAD: f64 = 0.80;

/// The flapping GPU: down `FLAP_DOWN_MS` in every `FLAP_PERIOD_MS`.
const FLAP_GPU: usize = 2;
const FLAP_DOWN_MS: f64 = 6.0;
const FLAP_PERIOD_MS: f64 = 80.0;
/// The drifting GPU: `DRIFT_FACTOR`× slower for `DRIFT_DUTY` of every
/// `DRIFT_PERIOD_MS`.
const DRIFT_GPU: usize = 1;
const DRIFT_FACTOR: f64 = 2.5;
const DRIFT_DUTY: f64 = 0.3;
const DRIFT_PERIOD_MS: f64 = 400.0;

pub struct Input {
    models: Vec<ServedModel>,
    cfg: ServeConfig,
    seq_ms: Vec<f64>,
    trace: Vec<Request>,
    faults: FaultPlan,
    drift: DriftPlan,
}

pub struct ServeChaos;

impl Workload for ServeChaos {
    const NAME: &'static str = "serve_chaos";
    type Input = Input;
    type Output = ServeOutcome;

    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Input {
        let models = small_tenants(layers);
        let mut cfg = ServeConfig::new(GPUS);
        cfg.calibration = Some(CalibrationConfig::default());
        cfg.overload = Some(OverloadConfig::default());
        let nominal = nominal_ms(&models, GPUS);
        let seq_ms = tenants_sequential_ms(&models);
        // Capacity is calibrated fault-free, like the steady workload's:
        // 80 % of it under faults is the point.
        let capacity = capacity_rps(
            &models,
            &ServeConfig::new(GPUS),
            Popularity::uniform(models.len()),
        );
        let requests = scaled(REQUESTS, smoke);
        let rate_rps = LOAD * capacity;
        let expected_span_ms = 1000.0 * requests as f64 / rate_rps;

        let started = Instant::now();
        let trace = poisson_trace(
            &TraceSpec {
                requests,
                rate_rps,
                deadline_factor: DEADLINE_FACTOR,
                popularity: Popularity::uniform(models.len()),
                burst: Some(RateBurst {
                    from_ms: 0.475 * expected_span_ms,
                    to_ms: 0.525 * expected_span_ms,
                    mult: 2.0,
                }),
                seed,
            },
            &nominal,
        );
        layers.add("workload.gen_s", started.elapsed().as_secs_f64());

        let span = span_ms(&trace);
        let started = Instant::now();
        let first_fail_ms = 0.02 * span;
        let script = FaultScript {
            flaps: vec![FlapSpec {
                gpu: FLAP_GPU,
                first_fail_ms,
                down_ms: FLAP_DOWN_MS,
                up_ms: FLAP_PERIOD_MS - FLAP_DOWN_MS,
                cycles: (((0.96 * span) / FLAP_PERIOD_MS) as u32).max(1),
            }],
            raw: vec![
                FaultEvent {
                    at_ms: 0.85 * span,
                    kind: FaultKind::LinkDegrade {
                        from: 0,
                        to: 1,
                        factor: 2.0,
                    },
                },
                FaultEvent {
                    at_ms: 0.60 * span,
                    kind: FaultKind::OpHang { op: OpId(5) },
                },
            ],
            ..FaultScript::default()
        };
        let faults = script
            .compile(&models[0].graph, GPUS)
            .expect("valid chaos fault script");
        let drift = DriftPlan::bursts(
            DRIFT_GPU,
            0.05 * span,
            DRIFT_PERIOD_MS,
            DRIFT_DUTY,
            DRIFT_FACTOR,
            span,
        );
        layers.add("sim.fault_compile_s", started.elapsed().as_secs_f64());
        Input {
            models,
            cfg,
            seq_ms,
            trace,
            faults,
            drift,
        }
    }

    fn work(input: &Input) -> usize {
        input.trace.len()
    }

    fn run(input: &Input, _rep: usize) -> ServeOutcome {
        serve_drift(
            &input.models,
            &input.trace,
            &input.faults,
            &input.drift,
            &input.cfg,
        )
        .expect("well-formed chaos serving run")
    }

    fn digest(out: &ServeOutcome) -> u64 {
        out.report.history_digest
    }

    fn verify(
        input: &Input,
        out: &ServeOutcome,
        _smoke: bool,
        failures: &mut Vec<String>,
    ) -> usize {
        let terminals = Terminal::of_records(&out.records);
        let bad = check_terminals(&input.trace, &terminals, failures);
        // Shape guards: every fault-path mechanism must actually run, and
        // the run must still be mostly service.
        let r = &out.report;
        let ok = r.on_time as f64 / r.total.max(1) as f64;
        if !(0.90..=0.99).contains(&ok) {
            failures.push(format!(
                "ok_frac {ok:.4} outside the chaos band [0.90, 0.99]"
            ));
        }
        for (what, count) in [
            ("repairs", r.repairs),
            ("breaker opens", r.breaker_opens),
            ("recalibrations", r.recalibrations),
            ("brownout transitions", r.brownout.transitions),
        ] {
            if count == 0 {
                failures.push(format!("chaos run saw no {what}"));
            }
        }
        bad
    }

    fn sim_stats(input: &Input, out: &ServeOutcome) -> SimStats {
        let terminals = Terminal::of_records(&out.records);
        sim_stats(&terminals, out.report.horizon_ms, &input.seq_ms)
    }

    fn trace(input: &Input, rec: &mut Recorder) -> Traced<ServeOutcome> {
        let span = rec.enter("serve_drift");
        let out = Self::run(input, 0);
        let wall_s = rec.exit(span);
        let sched = SchedCosts::measure(&input.models, GPUS, &input.cfg.ladder);
        // Simulations the report cannot count.  The calibrator re-runs a
        // dispatch without drift whenever drift deflected it: one more per
        // completion that started inside a drift burst.  And every
        // detected fault or successful breaker probe re-ranks each
        // tenant's cached plan against a greedy candidate: two each.
        let dual_sims = out
            .records
            .iter()
            .filter_map(|r| {
                Terminal::of_record(r)
                    .completed
                    .map(|(finish, _)| (r, finish))
            })
            .filter(|(r, finish)| {
                let started_ms = finish - sched.plan_ms[r.request.model];
                input.drift.factor_at(DRIFT_GPU, started_ms) != 1.0
            })
            .count() as u64;
        let reranks = input.faults.events.len() as u64 + out.report.breaker_opens;
        let extra_sims = dual_sims + 2 * input.models.len() as u64 * reranks;
        let call = ServeCall {
            models: &input.models,
            trace: &input.trace,
            cfg: &input.cfg,
            outcome: &out,
            extra_sims,
            store_scratch: None,
        };
        let layers = trace_single_serve(rec, span, wall_s, &call, &sched);
        Traced {
            out,
            layers,
            wall_s,
        }
    }
}
