//! `serve_steady`: the clean hot path.
//!
//! One 3-GPU cluster, six small tenants, uniform popularity, Poisson
//! arrivals at 70 % of the calibrated capacity, no faults, no store, no
//! overload controller.  After the first six dispatches every decision
//! is a ladder cache hit, so the time goes to the event loop, one
//! `simulate_scaled` per dispatch, and the report; the schedulers and
//! the store do next to nothing.  Open loop on the virtual clock
//! (latency counts from the scheduled arrival; a shed request misses);
//! on the host the whole trace is handed over at once, so `req_per_s`
//! is simulated requests per wall-clock second at this size.

use super::{Traced, Workload};
use crate::gen::{Popularity, TraceSpec, poisson_trace, small_tenants};
use crate::layers::Layers;
use crate::replay::{SchedCosts, ServeCall, trace_single_serve};
use crate::serving::{
    SimStats, Terminal, capacity_rps, check_terminals, nominal_ms, sim_stats, tenants_sequential_ms,
};
use crate::span::Recorder;
use hios_serve::{Request, ServeConfig, ServeOutcome, ServedModel, serve};
use hios_sim::FaultPlan;
use std::time::Instant;

pub const GPUS: usize = 3;
pub const REQUESTS: usize = 300_000;
pub const LOAD: f64 = 0.70;
/// Gold deadline = this × the tenant's lower-bound latency (Silver 1.5×,
/// Bronze 2.5× that).
pub const DEADLINE_FACTOR: f64 = 25.0;

/// Load fractions of the SLO sweep and its pass mark.
const SWEEP_LOADS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
const SWEEP_REQUESTS: usize = 50_000;
const SWEEP_OK: f64 = 0.99;

pub struct Input {
    models: Vec<ServedModel>,
    cfg: ServeConfig,
    nominal: Vec<f64>,
    seq_ms: Vec<f64>,
    capacity_rps: f64,
    trace: Vec<Request>,
    seed: u64,
    smoke: bool,
}

pub fn scaled(n: usize, smoke: bool) -> usize {
    if smoke { n / 20 } else { n }
}

fn trace_at(input_seed: u64, requests: usize, rate_rps: f64, nominal: &[f64]) -> Vec<Request> {
    poisson_trace(
        &TraceSpec {
            requests,
            rate_rps,
            deadline_factor: DEADLINE_FACTOR,
            popularity: Popularity::uniform(nominal.len()),
            burst: None,
            seed: input_seed,
        },
        nominal,
    )
}

pub struct ServeSteady;

impl Workload for ServeSteady {
    const NAME: &'static str = "serve_steady";
    type Input = Input;
    type Output = ServeOutcome;

    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Input {
        let models = small_tenants(layers);
        let cfg = ServeConfig::new(GPUS);
        let nominal = nominal_ms(&models, GPUS);
        let seq_ms = tenants_sequential_ms(&models);
        let capacity_rps = capacity_rps(&models, &cfg, Popularity::uniform(models.len()));
        let started = Instant::now();
        let trace = trace_at(seed, scaled(REQUESTS, smoke), LOAD * capacity_rps, &nominal);
        layers.add("workload.gen_s", started.elapsed().as_secs_f64());
        Input {
            models,
            cfg,
            nominal,
            seq_ms,
            capacity_rps,
            trace,
            seed,
            smoke,
        }
    }

    fn work(input: &Input) -> usize {
        input.trace.len()
    }

    fn run(input: &Input, _rep: usize) -> ServeOutcome {
        serve(&input.models, &input.trace, &FaultPlan::none(), &input.cfg)
            .expect("well-formed steady-state serving run")
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
        // Shape guards: this workload must stay the cache-hit fast path.
        let r = &out.report;
        let hit_ratio = r.cache.0 as f64 / (r.cache.0 + r.cache.1).max(1) as f64;
        let hit_floor = 1.0 - 2.0 * input.models.len() as f64 / input.trace.len() as f64;
        if hit_ratio < hit_floor.min(0.999) {
            failures.push(format!(
                "ladder cache-hit ratio {hit_ratio:.5} below the fast-path floor"
            ));
        }
        if r.repairs + r.breaker_opens + r.store.hits + r.store.puts_full > 0 {
            failures.push("steady state saw repairs, breaker opens or store traffic".into());
        }
        bad
    }

    fn sim_stats(input: &Input, out: &ServeOutcome) -> SimStats {
        let terminals = Terminal::of_records(&out.records);
        sim_stats(&terminals, out.report.horizon_ms, &input.seq_ms)
    }

    fn trace(input: &Input, rec: &mut Recorder) -> Traced<ServeOutcome> {
        let span = rec.enter("serve");
        let out = Self::run(input, 0);
        let wall_s = rec.exit(span);
        let sched = SchedCosts::measure(&input.models, GPUS, &input.cfg.ladder);
        let call = ServeCall {
            models: &input.models,
            trace: &input.trace,
            cfg: &input.cfg,
            outcome: &out,
            extra_sims: 0,
            store_scratch: None,
        };
        let mut layers = trace_single_serve(rec, span, wall_s, &call, &sched);
        layers.set("sim_slo_load_frac", slo_load_frac(input));
        Traced {
            out,
            layers,
            wall_s,
        }
    }
}

/// Highest swept load fraction at which at least [`SWEEP_OK`] of the
/// requests sent finish on time, from six short runs outside the timed
/// repetitions (0 when even the lowest load misses the mark).
fn slo_load_frac(input: &Input) -> f64 {
    let mut best = 0.0;
    for load in SWEEP_LOADS {
        let trace = trace_at(
            input.seed,
            scaled(SWEEP_REQUESTS, input.smoke),
            load * input.capacity_rps,
            &input.nominal,
        );
        let out = serve(&input.models, &trace, &FaultPlan::none(), &input.cfg)
            .expect("well-formed sweep run");
        if out.report.on_time as f64 >= SWEEP_OK * trace.len() as f64 {
            best = load;
        }
    }
    best
}
