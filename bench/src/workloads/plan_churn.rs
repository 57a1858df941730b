//! `plan_churn`: working set ≫ schedule cache.
//!
//! One 3-GPU cluster serves 48 tenants at paper scale — Inception-v3,
//! NASNet-A and 46 layered DAGs of 100–240 operators — under Zipf(1.0)
//! popularity with a 12-entry ladder cache and a durable plan store.
//! Each repetition runs two phases on one fresh log: **cold** (misses,
//! puts, greedy dispatches and idle-time HIOS-LP upgrades) and
//! **restart-warm** (a second `serve` call: `PlanStore::open` recovery
//! scan, store hits, `validate_full` on adoption).  The ladder's miss
//! path, the `hios-core` schedulers and `hios-store` do most of the work
//! and the event loop little; writes sit beside reads.

use super::serve_steady::{DEADLINE_FACTOR, GPUS, scaled};
use super::{Traced, Workload};
use crate::gen::{Popularity, TraceSpec, layered_graph, poisson_trace, tenant};
use crate::layers::Layers;
use crate::replay::{
    SchedCosts, ServeCall, Tally, add_report_counts, finish_report_ratios, replay_serve,
};
use crate::serving::{
    SimStats, Terminal, capacity_rps, check_terminals, nominal_ms, sim_stats, tenants_sequential_ms,
};
use crate::span::Recorder;
use hios_models::{ModelConfig, inception_v3, nasnet_a};
use hios_serve::{Request, ServeConfig, ServeOutcome, ServedModel, StoreConfig, serve};
use hios_sim::FaultPlan;
use hios_store::{PlanStore, StoreOptions};
use std::path::PathBuf;
use std::time::Instant;

pub const TENANTS: usize = 48;
/// Requests per phase; a repetition sends twice this.
pub const REQUESTS: usize = 3_000;
pub const LOAD: f64 = 0.50;
pub const CACHE_CAPACITY: usize = 12;
pub const ZIPF_S: f64 = 1.0;

pub struct Input {
    models: Vec<ServedModel>,
    cfg: ServeConfig,
    seq_ms: Vec<f64>,
    trace: Vec<Request>,
    scratch: PathBuf,
}

impl Drop for Input {
    fn drop(&mut self) {
        // Leave nothing behind; errors here cost only a stray directory.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

pub struct Output {
    cold: ServeOutcome,
    warm: ServeOutcome,
}

/// Inception-v3 is the most popular tenant and NASNet-A the sixth; the
/// layered DAGs fill the other ranks with 100–240 operators.
fn tenants(layers: &mut Layers) -> Vec<ServedModel> {
    let mut models = Vec::with_capacity(TENANTS);
    let mut dag = 0usize;
    for rank in 0..TENANTS {
        let model = match rank {
            0 => {
                let started = Instant::now();
                let graph = inception_v3(&ModelConfig::with_input(299));
                layers.add("graph.build_s", started.elapsed().as_secs_f64());
                tenant("inception_v3".into(), graph, layers)
            }
            5 => {
                let started = Instant::now();
                let graph = nasnet_a(&ModelConfig::with_input(331));
                layers.add("graph.build_s", started.elapsed().as_secs_f64());
                tenant("nasnet_a".into(), graph, layers)
            }
            _ => {
                // 100, 103, …, 235 operators, 14–33 layers.
                let ops = 100 + 3 * dag;
                let graph = layered_graph(700 + dag as u64, ops, ops / 7, layers);
                dag += 1;
                tenant(format!("layered{ops}"), graph, layers)
            }
        };
        models.push(model);
    }
    models
}

fn store_cfg(cfg: &ServeConfig, path: PathBuf) -> ServeConfig {
    let mut cfg = cfg.clone();
    cfg.store = Some(StoreConfig::at(path));
    cfg
}

pub struct PlanChurn;

impl Workload for PlanChurn {
    const NAME: &'static str = "plan_churn";
    type Input = Input;
    type Output = Output;

    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Input {
        let models = tenants(layers);
        let mut cfg = ServeConfig::new(GPUS);
        cfg.ladder.cache_capacity = CACHE_CAPACITY;
        let nominal = nominal_ms(&models, GPUS);
        let seq_ms = tenants_sequential_ms(&models);
        let capacity = capacity_rps(&models, &cfg, Popularity::zipf(TENANTS, ZIPF_S));
        let started = Instant::now();
        let trace = poisson_trace(
            &TraceSpec {
                requests: scaled(REQUESTS, smoke).max(400),
                rate_rps: LOAD * capacity,
                deadline_factor: DEADLINE_FACTOR,
                popularity: Popularity::zipf(TENANTS, ZIPF_S),
                burst: None,
                seed,
            },
            &nominal,
        );
        layers.add("workload.gen_s", started.elapsed().as_secs_f64());
        let scratch = crate::out_dir().join(format!("plan_churn.{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create the plan-store scratch directory");
        Input {
            models,
            cfg,
            seq_ms,
            trace,
            scratch,
        }
    }

    fn work(input: &Input) -> usize {
        2 * input.trace.len()
    }

    fn run(input: &Input, rep: usize) -> Output {
        let log = input.scratch.join(format!("rep{rep}.planlog"));
        let _ = std::fs::remove_file(&log);
        let cfg = store_cfg(&input.cfg, log.clone());
        let cold = serve(&input.models, &input.trace, &FaultPlan::none(), &cfg)
            .expect("well-formed cold phase");
        let warm = serve(&input.models, &input.trace, &FaultPlan::none(), &cfg)
            .expect("well-formed restart-warm phase");
        let _ = std::fs::remove_file(&log);
        Output { cold, warm }
    }

    fn digest(out: &Output) -> u64 {
        out.cold.report.history_digest ^ out.warm.report.history_digest.rotate_left(1)
    }

    fn verify(input: &Input, out: &Output, smoke: bool, failures: &mut Vec<String>) -> usize {
        let mut bad = 0;
        for phase in [&out.cold, &out.warm] {
            let terminals = Terminal::of_records(&phase.records);
            bad += check_terminals(&input.trace, &terminals, failures);
        }
        // Shape guards: the cache must churn, the store must be written
        // cold and read warm, and nothing may be quarantined.
        let (cold, warm) = (&out.cold.report, &out.warm.report);
        for (name, r) in [("cold", cold), ("warm", warm)] {
            let hit_ratio = r.cache.0 as f64 / (r.cache.0 + r.cache.1).max(1) as f64;
            if !smoke && !(0.3..=0.8).contains(&hit_ratio) {
                failures.push(format!(
                    "{name} cache-hit ratio {hit_ratio:.3} outside [0.3, 0.8]"
                ));
            }
            if r.cache_evictions == 0 {
                failures.push(format!(
                    "{name} phase evicted nothing: the cache is not churning"
                ));
            }
            if r.store.quarantines + r.store_io_errors > 0
                || r.store_recovery.records_quarantined > 0
            {
                failures.push(format!(
                    "{name} phase quarantined plans or hit store I/O errors"
                ));
            }
        }
        if cold.store.puts_full + cold.store.puts_delta == 0 {
            failures.push("cold phase persisted no plan".into());
        }
        if warm.store.hits == 0 || warm.store_recovery.records_loaded == 0 {
            failures.push("restart-warm phase recovered or hit nothing in the store".into());
        }
        bad
    }

    fn sim_stats(input: &Input, out: &Output) -> SimStats {
        let terminals: Vec<Terminal> = out
            .cold
            .records
            .iter()
            .chain(&out.warm.records)
            .map(Terminal::of_record)
            .collect();
        let horizon_ms = out.cold.report.horizon_ms + out.warm.report.horizon_ms;
        sim_stats(&terminals, horizon_ms, &input.seq_ms)
    }

    fn trace(input: &Input, rec: &mut Recorder) -> Traced<Output> {
        let mut layers = Layers::new();
        let mut tally = Tally::default();
        let log = input.scratch.join("traced.planlog");
        let _ = std::fs::remove_file(&log);
        let cfg = store_cfg(&input.cfg, log.clone());
        let cold_span = rec.enter("serve.cold");
        let cold = serve(&input.models, &input.trace, &FaultPlan::none(), &cfg)
            .expect("well-formed cold phase");
        let cold_s = rec.exit(cold_span);
        // The recovery scan the restarted server is about to pay, timed
        // on the same log, outside both calls.
        let t0 = Instant::now();
        drop(PlanStore::open(&log, StoreOptions::default()).expect("plan log reopens"));
        let open_s = t0.elapsed().as_secs_f64();
        let warm_span = rec.enter("serve.warm");
        let warm = serve(&input.models, &input.trace, &FaultPlan::none(), &cfg)
            .expect("well-formed restart-warm phase");
        let warm_s = rec.exit(warm_span);
        let log_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&log);
        let wall_s = cold_s + warm_s;
        let out = Output { cold, warm };
        layers.set("store.open_s", open_s);
        layers.set("store.log_bytes", log_bytes as f64);
        rec.replayed(warm_span, "store.open", open_s, 1);

        let sched = SchedCosts::measure(&input.models, GPUS, &input.cfg.ladder);
        let scratch = input.scratch.join("replay.planlog");
        for (span, outcome) in [(cold_span, &out.cold), (warm_span, &out.warm)] {
            replay_serve(
                rec,
                span,
                &ServeCall {
                    models: &input.models,
                    trace: &input.trace,
                    cfg: &input.cfg,
                    outcome,
                    extra_sims: 0,
                    store_scratch: Some(&scratch),
                },
                &sched,
                &mut tally,
            );
            add_report_counts(&mut layers, outcome);
        }
        tally.write(&mut layers);
        let (c, w) = (&out.cold.report, &out.warm.report);
        finish_report_ratios(
            &mut layers,
            (c.cache.0 + w.cache.0, c.cache.1 + w.cache.1),
            (c.store.hits + w.store.hits, c.store.misses + w.store.misses),
            input.models.len(),
        );
        layers.set("serve.wall_s", wall_s);
        layers.set(
            "serve.self_s",
            rec.self_s(cold_span) + rec.self_s(warm_span),
        );
        layers.set(
            "sim.simulate_scaled.share_of_wall",
            tally.busy_s("sim.simulate_scaled") / wall_s,
        );
        Traced {
            out,
            layers,
            wall_s,
        }
    }
}
