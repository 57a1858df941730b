//! Outside-in replay of the layers beneath one `serve` call.
//!
//! `serve` is a single call, so the benchmark cannot put spans inside
//! it.  Instead, after the call, it takes the counts the report gives
//! (dispatches, rung counts, cache and store hits, repairs, puts) and
//! times the same public functions on the same inputs — at most
//! [`MAX_SAMPLES`] sampled calls each, scaled to the count.  The results
//! become `replayed` child spans of the call; what is left is the serve
//! loop's self time.  It is a cost model, not an observation: it misses
//! cache effects between layers and prices repairs and misses at the
//! tenant mean.  Spans inside the program are a later issue.

use crate::layers::Layers;
use crate::span::Recorder;
use hios_core::repair::{RepairConfig, RepairPolicy, repair_schedule};
use hios_core::{
    Algorithm, EvalWorkspace, Schedule, ScheduleCacheKey, SchedulerOptions, bounds, run_scheduler,
};
use hios_serve::report::ReportInputs;
use hios_serve::{
    AnytimeLadder, LadderConfig, Policy, Request, ServeConfig, ServeOutcome, ServedModel,
    history_digest, summarize,
};
use hios_sim::{Scaling, simulate_scaled};
use hios_store::{PlanKey, PlanStore, StoreOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Sampled calls timed per layer function and `serve` call.
pub const MAX_SAMPLES: usize = 20_000;

/// Busy seconds and call counts per layer function, summed over every
/// `serve` call of a traced repetition.
#[derive(Default)]
pub struct Tally(BTreeMap<&'static str, (f64, u64)>);

impl Tally {
    pub fn add(&mut self, key: &'static str, busy_s: f64, calls: u64) {
        let e = self.0.entry(key).or_insert((0.0, 0));
        e.0 += busy_s;
        e.1 += calls;
    }

    pub fn busy_s(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |e| e.0)
    }

    pub fn calls(&self, key: &str) -> u64 {
        self.0.get(key).map_or(0, |e| e.1)
    }

    /// Seconds per call (0 when the function never ran).
    pub fn per_call_s(&self, key: &str) -> f64 {
        match self.0.get(key) {
            Some(&(busy, calls)) if calls > 0 => busy / calls as f64,
            _ => 0.0,
        }
    }

    /// Writes the tallies out under their registered metric names.
    pub fn write(&self, layers: &mut Layers) {
        let calls = |k: &str| self.calls(k) as f64;
        layers.set("sim.simulate_scaled.calls", calls("sim.simulate_scaled"));
        layers.set(
            "sim.simulate_scaled.us_per_call",
            1e6 * self.per_call_s("sim.simulate_scaled"),
        );
        layers.set(
            "sim.simulate_scaled.busy_s",
            self.busy_s("sim.simulate_scaled"),
        );
        layers.set("core.bound.calls", calls("core.bound"));
        layers.set(
            "core.bound.ns_per_call",
            1e9 * self.per_call_s("core.bound"),
        );
        for (key, calls_name, time_name) in [
            (
                "core.sched.lp",
                "core.sched.lp.calls",
                "core.sched.lp.ms_per_call",
            ),
            (
                "core.sched.inter_lp",
                "core.sched.inter_lp.calls",
                "core.sched.inter_lp.ms_per_call",
            ),
            (
                "core.sched.mr",
                "core.sched.mr.calls",
                "core.sched.mr.ms_per_call",
            ),
            (
                "core.sched.inter_mr",
                "core.sched.inter_mr.calls",
                "core.sched.inter_mr.ms_per_call",
            ),
            (
                "core.sched.seq",
                "core.sched.seq.calls",
                "core.sched.seq.ms_per_call",
            ),
            (
                "core.sched.greedy",
                "core.sched.greedy.calls",
                "core.sched.greedy.ms_per_call",
            ),
        ] {
            layers.set(calls_name, calls(key));
            layers.set(time_name, 1e3 * self.per_call_s(key));
        }
        layers.set(
            "core.sched.ios.ms_per_call",
            1e3 * self.per_call_s("core.sched.ios"),
        );
        layers.set("core.validate.calls", calls("core.validate"));
        layers.set(
            "core.validate.us_per_call",
            1e6 * self.per_call_s("core.validate"),
        );
        layers.set("core.repair.calls", calls("core.repair"));
        layers.set(
            "core.repair.us_per_call",
            1e6 * self.per_call_s("core.repair"),
        );
        layers.set(
            "ladder.decide_hit.us_per_call",
            1e6 * self.per_call_s("ladder.decide_hit"),
        );
        layers.set(
            "ladder.decide_miss.us_per_call",
            1e6 * self.per_call_s("ladder.decide_miss"),
        );
        layers.set("store.get.calls", calls("store.get"));
        layers.set("store.get.us_per_call", 1e6 * self.per_call_s("store.get"));
        layers.set("store.put.calls", calls("store.put"));
        layers.set("store.put.us_per_call", 1e6 * self.per_call_s("store.put"));
        layers.set("report.summarize_s", self.busy_s("report.summarize"));
        layers.set("report.digest_s", self.busy_s("report.digest"));
        layers.set("router.choose.calls", calls("router.choose"));
        layers.set(
            "router.choose.ns_per_call",
            1e9 * self.per_call_s("router.choose"),
        );
        layers.set("health.heartbeat.calls", calls("health.heartbeat"));
        layers.set(
            "health.heartbeat.ns_per_call",
            1e9 * self.per_call_s("health.heartbeat"),
        );
    }
}

/// Seconds `f` takes per call, over `calls` back-to-back calls.
pub fn per_call_s(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let calls = calls.max(1);
    let started = Instant::now();
    for i in 0..calls {
        f(i);
    }
    started.elapsed().as_secs_f64() / calls as f64
}

/// Per-tenant plans and scheduler costs, measured once per workload and
/// shared by every `serve` call replayed over the same tenants.
pub struct SchedCosts {
    /// HIOS-LP plan of each tenant on the full platform — what the
    /// ladder's cache converges to after the idle-time upgrade.
    pub plans: Vec<Schedule>,
    pub plan_ms: Vec<f64>,
    pub lp_s: Vec<f64>,
    pub inter_lp_s: Vec<f64>,
    pub greedy_s: Vec<f64>,
}

impl SchedCosts {
    pub fn measure(models: &[ServedModel], m: usize, ladder: &LadderConfig) -> Self {
        let mut opts = SchedulerOptions::new(m);
        opts.window = ladder.window;
        opts.validate = false;
        let mut costs = SchedCosts {
            plans: Vec::new(),
            plan_ms: Vec::new(),
            lp_s: Vec::new(),
            inter_lp_s: Vec::new(),
            greedy_s: Vec::new(),
        };
        let alive = vec![true; m];
        for model in models {
            let t0 = Instant::now();
            let lp = run_scheduler(Algorithm::HiosLp, &model.graph, &model.cost, &opts)
                .expect("HIOS-LP schedules every tenant");
            costs.lp_s.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            black_box(
                run_scheduler(Algorithm::InterGpuLp, &model.graph, &model.cost, &opts)
                    .expect("inter-GPU LP schedules every tenant"),
            );
            costs.inter_lp_s.push(t0.elapsed().as_secs_f64());
            // The greedy rung, through the ladder's own entry point.
            let mut greedy = AnytimeLadder::new(*ladder);
            let t0 = Instant::now();
            black_box(
                greedy
                    .decide(
                        &model.graph,
                        &model.cost,
                        &alive,
                        0,
                        f64::INFINITY,
                        0,
                        Policy::GreedyOnly,
                    )
                    .expect("greedy rung schedules every tenant"),
            );
            costs.greedy_s.push(t0.elapsed().as_secs_f64());
            costs.plan_ms.push(lp.latency_ms);
            costs.plans.push(lp.schedule);
        }
        costs
    }
}

/// One finished `serve` call and what the replay needs to know about it.
pub struct ServeCall<'a> {
    pub models: &'a [ServedModel],
    pub trace: &'a [Request],
    pub cfg: &'a ServeConfig,
    pub outcome: &'a ServeOutcome,
    /// `simulate_scaled` calls the report cannot count (calibration dual
    /// simulations, re-rank evaluations), estimated by the workload.
    pub extra_sims: u64,
    /// Scratch file for timing the plan store, when the call had one.
    pub store_scratch: Option<&'a Path>,
}

/// Mean of per-tenant `values` weighted by each tenant's share of the
/// trace: misses and idle-time upgrades follow the traffic.
fn traffic_mean(values: &[f64], requests_of: &[usize]) -> f64 {
    let total: usize = requests_of.iter().sum();
    values
        .iter()
        .zip(requests_of)
        .map(|(&v, &n)| v * n as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

/// Replays the layers beneath `call` as children of span `parent`,
/// adding their busy time and counts to `tally`.
pub fn replay_serve(
    rec: &mut Recorder,
    parent: usize,
    call: &ServeCall,
    sched: &SchedCosts,
    tally: &mut Tally,
) {
    let ServeCall {
        models,
        trace,
        cfg,
        outcome,
        ..
    } = *call;
    let report = &outcome.report;
    let m = cfg.num_gpus;
    let alive = vec![true; m];
    let stride = trace.len().div_ceil(MAX_SAMPLES).max(1);
    let sampled: Vec<&Request> = trace.iter().step_by(stride).collect();
    let mut requests_of = vec![0usize; models.len()];
    for r in trace {
        requests_of[r.model] += 1;
    }
    // A replayed child of `parent`: `calls` calls at `per_s` each.
    let mut child = |tally: &mut Tally, key: &'static str, per_s: f64, calls: u64| {
        if calls > 0 {
            tally.add(key, per_s * calls as f64, calls);
            rec.replayed(parent, key, per_s * calls as f64, calls);
        }
    };

    // Admission bound: computed once per tenant when the server is built.
    let loops = (2_000 / models.len()).max(1);
    let bound_s = per_call_s(loops * models.len(), |i| {
        let model = &models[i % models.len()];
        black_box(bounds::combined_bound(&model.graph, &model.cost, m));
    });
    child(tally, "core.bound", bound_s, models.len() as u64);

    // Ladder decisions.  Hits are timed on a ladder big enough to hold
    // every tenant; the miss cost is the first decision per tenant on a
    // fresh ladder (scheduler run included), reported but not added as a
    // span — its parts are the scheduler spans below.
    let mut ladder = AnytimeLadder::new(LadderConfig {
        cache_capacity: cfg.ladder.cache_capacity.max(models.len()),
        ..cfg.ladder
    });
    let decide = |ladder: &mut AnytimeLadder, mi: usize| {
        let model = &models[mi];
        black_box(
            ladder
                .decide(
                    &model.graph,
                    &model.cost,
                    &alive,
                    0,
                    f64::INFINITY,
                    0,
                    Policy::Anytime,
                )
                .expect("the ladder schedules every tenant"),
        );
    };
    let tenants: Vec<usize> = (0..models.len()).filter(|&i| requests_of[i] > 0).collect();
    let miss_s = per_call_s(tenants.len(), |i| decide(&mut ladder, tenants[i]));
    tally.add(
        "ladder.decide_miss",
        miss_s * report.cache.1 as f64,
        report.cache.1,
    );
    let hit_s = per_call_s(sampled.len(), |i| decide(&mut ladder, sampled[i].model));
    child(tally, "ladder.decide_hit", hit_s, report.cache.0);

    // Scheduler rungs, priced at the traffic-weighted tenant mean.
    child(
        tally,
        "core.sched.lp",
        traffic_mean(&sched.lp_s, &requests_of),
        report.rungs[2] + report.upgrades,
    );
    child(
        tally,
        "core.sched.inter_lp",
        traffic_mean(&sched.inter_lp_s, &requests_of),
        report.rungs[3],
    );
    child(
        tally,
        "core.sched.greedy",
        traffic_mean(&sched.greedy_s, &requests_of),
        report.rungs[4],
    );

    // Execution: one simulation per dispatch and per repair, two per
    // idle-time upgrade (candidate and incumbent), plus the workload's
    // estimate of what the report cannot count.
    let scaling = Scaling::identity(m);
    let sim_s = per_call_s(sampled.len(), |i| {
        let mi = sampled[i].model;
        black_box(
            simulate_scaled(
                &models[mi].graph,
                &models[mi].cost,
                &sched.plans[mi],
                &cfg.sim,
                &scaling,
            )
            .expect("tenant plans simulate"),
        );
    });
    child(
        tally,
        "sim.simulate_scaled",
        sim_s,
        report.attempts + report.repairs + 2 * report.upgrades + call.extra_sims,
    );

    // In-place repair: half the plan finished, the last GPU lost.
    if report.repairs > 0 {
        let mut ws = EvalWorkspace::new();
        let mut survivors = alive.clone();
        survivors[m - 1] = false;
        let repair_cfg = RepairConfig {
            policy: RepairPolicy::Reschedule,
            window: cfg.ladder.window,
        };
        let masks: Vec<Vec<bool>> = tenants
            .iter()
            .map(|&mi| half_done(&models[mi], &sched.plans[mi], cfg))
            .collect();
        let loops = (200 / tenants.len()).max(1);
        let repair_s = per_call_s(loops * tenants.len(), |i| {
            let k = i % tenants.len();
            let model = &models[tenants[k]];
            black_box(
                repair_schedule(
                    &mut ws,
                    &model.graph,
                    &model.cost,
                    &masks[k],
                    &survivors,
                    &repair_cfg,
                )
                .expect("half-finished plans repair onto the survivors"),
            );
        });
        child(tally, "core.repair", repair_s, report.repairs);
    }

    // Durable plan store: puts, gets, and the validation of adopted hits.
    if let Some(path) = call.store_scratch {
        let _ = std::fs::remove_file(path);
        let mut store = PlanStore::open(path, StoreOptions::default()).expect("scratch plan store");
        let keys: Vec<PlanKey> = tenants
            .iter()
            .map(|&mi| {
                let key =
                    ScheduleCacheKey::for_platform(&models[mi].graph, &alive, &models[mi].cost);
                PlanKey::from_cache_key(&key, 0)
            })
            .collect();
        let put_s = per_call_s(tenants.len(), |i| {
            let mi = tenants[i];
            store
                .put(keys[i], &sched.plans[mi], sched.plan_ms[mi])
                .expect("scratch put");
        });
        let loops = (2_000 / tenants.len()).max(1);
        let get_s = per_call_s(loops * tenants.len(), |i| {
            black_box(
                store
                    .get(&keys[i % tenants.len()])
                    .expect("stored plan reads back"),
            );
        });
        let validate_s = per_call_s(loops * tenants.len(), |i| {
            let mi = tenants[i % tenants.len()];
            sched.plans[mi]
                .validate_full(&models[mi].graph, None)
                .expect("tenant plans validate");
        });
        drop(store);
        let _ = std::fs::remove_file(path);
        let st = &report.store;
        child(tally, "store.put", put_s, st.puts_full + st.puts_delta);
        child(tally, "store.get", get_s, st.hits + st.misses);
        child(tally, "core.validate", validate_s, st.hits);
    }

    // Report construction, on the call's own records.
    let inputs = ReportInputs {
        horizon_ms: report.horizon_ms,
        attempts: report.attempts,
        repairs: report.repairs,
        breaker_opens: report.breaker_opens,
        cache: report.cache,
        rungs: report.rungs,
        upgrades: report.upgrades,
        drift_alarms: report.drift_alarms,
        recalibrations: report.recalibrations,
        cache_invalidations: report.cache_invalidations,
        cache_evictions: report.cache_evictions,
        store: report.store,
        store_recovery: report.store_recovery,
        store_io_errors: report.store_io_errors,
        retry_budget_denied: report.retry_budget_denied,
        flap_escalations: report.flap_escalations,
        brownout: report.brownout.clone(),
    };
    let t0 = Instant::now();
    let rebuilt = black_box(summarize(&outcome.records, &inputs));
    let summarize_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        rebuilt.history_digest, report.history_digest,
        "summarize replays the report"
    );
    let t0 = Instant::now();
    black_box(history_digest(&outcome.records));
    let digest_s = t0.elapsed().as_secs_f64();
    // The digest is part of `summarize`; count it once in the span tree.
    tally.add("report.digest", digest_s, 1);
    child(tally, "report.summarize", summarize_s, 1);
}

/// The traced form of a workload that is one `serve` call: replays the
/// layers beneath it and returns the per-layer metrics.
pub fn trace_single_serve(
    rec: &mut Recorder,
    span: usize,
    wall_s: f64,
    call: &ServeCall,
    sched: &SchedCosts,
) -> Layers {
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    replay_serve(rec, span, call, sched, &mut tally);
    tally.write(&mut layers);
    add_report_counts(&mut layers, call.outcome);
    finish_report_ratios(
        &mut layers,
        call.outcome.report.cache,
        (0, 0),
        call.models.len(),
    );
    layers.set("serve.wall_s", wall_s);
    layers.set("serve.self_s", rec.self_s(span));
    layers.set(
        "sim.simulate_scaled.share_of_wall",
        tally.busy_s("sim.simulate_scaled") / wall_s,
    );
    layers
}

/// Completion mask of `plan` at the instant half of its simulated
/// makespan has elapsed.
fn half_done(model: &ServedModel, plan: &Schedule, cfg: &ServeConfig) -> Vec<bool> {
    let sim = simulate_scaled(
        &model.graph,
        &model.cost,
        plan,
        &cfg.sim,
        &Scaling::identity(plan.num_gpus()),
    )
    .expect("tenant plans simulate");
    sim.op_finish
        .iter()
        .map(|&f| f <= 0.5 * sim.makespan)
        .collect()
}

/// Counts the report gives directly, summed over `serve` calls.
pub fn add_report_counts(layers: &mut Layers, outcome: &ServeOutcome) {
    let r = &outcome.report;
    for (name, v) in [
        ("ladder.rung.cached", r.rungs[0]),
        ("ladder.rung.store", r.rungs[1]),
        ("ladder.rung.full_lp", r.rungs[2]),
        ("ladder.rung.inter_lp", r.rungs[3]),
        ("ladder.rung.greedy", r.rungs[4]),
        ("ladder.evictions", r.cache_evictions),
        ("ladder.upgrades", r.upgrades),
        ("serve.dispatches", r.attempts),
        (
            "serve.retries",
            r.attempts.saturating_sub(r.admitted as u64),
        ),
        ("serve.breaker_opens", r.breaker_opens),
        ("serve.shed.queue", r.shed_queue as u64),
        ("serve.shed.deadline", r.shed_deadline as u64),
        ("serve.shed.retries", r.shed_retries as u64),
        ("serve.shed.brownout", r.shed_brownout as u64),
        ("serve.shed.retry_budget", r.shed_retry_budget as u64),
        ("serve.brownout_transitions", r.brownout.transitions),
        ("serve.recalibrations", r.recalibrations),
        ("serve.drift_alarms", r.drift_alarms),
        (
            "store.recovered_records",
            r.store_recovery.records_loaded as u64,
        ),
    ] {
        layers.add(name, v as f64);
    }
}

/// Ratios over the summed counts; call once after every
/// [`add_report_counts`].
pub fn finish_report_ratios(
    layers: &mut Layers,
    cache: (u64, u64),
    store: (u64, u64),
    models: usize,
) {
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    layers.set("ladder.cache_hit_ratio", ratio(cache.0, cache.0 + cache.1));
    layers.set("store.hit_ratio", ratio(store.0, store.0 + store.1));
    layers.set(
        "ladder.upgrades_per_model",
        layers.get("ladder.upgrades") / models.max(1) as f64,
    );
}
