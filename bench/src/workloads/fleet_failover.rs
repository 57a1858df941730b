//! `fleet_failover`: four 3-GPU clusters behind the failure-aware
//! router, the same six tenants, 55 % of aggregate capacity.
//!
//! Every eighth Gold deadline is tightened to 3.6 × its bound (so hedged
//! dispatch runs), the router loses one cluster at 20 % of the span, a
//! second degrades 4× at 40 %, and the cluster that is rendezvous-primary
//! for the most tenants is killed at 70 % with a 48-request burst landing
//! at the kill instant (so the failover drain has a real backlog).  No
//! GPU-level fault scripts: what differs from `serve_steady` is the
//! fleet layer — router, health view, pump, hedging, failover — and this
//! is the only workload a parallel fleet pump can move.

use super::serve_steady::{DEADLINE_FACTOR, GPUS, scaled};
use super::{Traced, Workload};
use crate::gen::{
    Popularity, TraceSpec, insert_burst, poisson_trace, small_tenants, span_ms, tighten_gold,
};
use crate::layers::Layers;
use crate::replay::{
    MAX_SAMPLES, SchedCosts, ServeCall, Tally, add_report_counts, finish_report_ratios, per_call_s,
    replay_serve,
};
use crate::serving::{
    SimStats, Terminal, capacity_rps, check_terminals, nominal_ms, sim_stats, tenants_sequential_ms,
};
use crate::span::Recorder;
use hios_serve::{
    FleetConfig, FleetFaults, FleetOutcome, HealthSample, HealthView, Request, Router, ServeConfig,
    ServedModel, serve, serve_fleet,
};
use hios_sim::{ClusterFaultEvent, ClusterFaultKind, FaultEvent, FaultKind, FaultPlan};
use std::hint::black_box;
use std::time::Instant;

pub const CLUSTERS: usize = 4;
pub const REQUESTS: usize = 300_000;
pub const LOAD: f64 = 0.55;
const TIGHT_EVERY: usize = 8;
const TIGHT_FACTOR: f64 = 3.6;
const BURST: usize = 48;
const PARTITION_AT: f64 = 0.20;
const PARTITION_FOR: f64 = 0.10;
const DEGRADE_AT: f64 = 0.40;
const DEGRADE_FACTOR: f64 = 4.0;
const KILL_AT: f64 = 0.70;

pub struct Input {
    models: Vec<ServedModel>,
    cfg: FleetConfig,
    seq_ms: Vec<f64>,
    trace: Vec<Request>,
    faults: FleetFaults,
    degraded: usize,
}

/// The cluster that is the router's first choice for the most tenants
/// when everything is healthy and idle — the worst one to lose.
fn hottest_cluster(router: &Router, tenants: usize) -> usize {
    let all = [true; CLUSTERS];
    let mut primary_for = [0usize; CLUSTERS];
    for tenant in 0..tenants {
        let choice = router
            .choose(tenant as u64, &all, |_| 0)
            .expect("a healthy fleet routes every tenant");
        primary_for[choice.primary] += 1;
    }
    (0..CLUSTERS)
        .max_by_key(|&c| (primary_for[c], std::cmp::Reverse(c)))
        .expect("non-empty fleet")
}

pub struct FleetFailover;

impl Workload for FleetFailover {
    const NAME: &'static str = "fleet_failover";
    type Input = Input;
    type Output = FleetOutcome;

    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Input {
        let models = small_tenants(layers);
        let cfg = FleetConfig::new(CLUSTERS, GPUS);
        let nominal = nominal_ms(&models, GPUS);
        let seq_ms = tenants_sequential_ms(&models);
        let per_cluster = capacity_rps(
            &models,
            &ServeConfig::new(GPUS),
            Popularity::uniform(models.len()),
        );

        let started = Instant::now();
        let mut trace = poisson_trace(
            &TraceSpec {
                requests: scaled(REQUESTS, smoke),
                rate_rps: LOAD * CLUSTERS as f64 * per_cluster,
                deadline_factor: DEADLINE_FACTOR,
                popularity: Popularity::uniform(models.len()),
                burst: None,
                seed,
            },
            &nominal,
        );
        tighten_gold(&mut trace, &nominal, TIGHT_EVERY, TIGHT_FACTOR);
        // The burst sits mid-trace, so the span (last arrival) — and the
        // kill instant derived from it below — is unchanged by the splice.
        let kill_ms = KILL_AT * span_ms(&trace);
        insert_burst(&mut trace, kill_ms, BURST, &nominal, DEADLINE_FACTOR);
        layers.add("workload.gen_s", started.elapsed().as_secs_f64());

        let started = Instant::now();
        let span = span_ms(&trace);
        let router = Router::new(cfg.router, CLUSTERS).expect("valid fleet size");
        let hot = hottest_cluster(&router, models.len());
        let others: Vec<usize> = (0..CLUSTERS).filter(|&c| c != hot).collect();
        let faults = FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![
                ClusterFaultEvent {
                    at_ms: PARTITION_AT * span,
                    cluster: others[0],
                    kind: ClusterFaultKind::PartitionRouter {
                        heal_ms: PARTITION_FOR * span,
                    },
                },
                ClusterFaultEvent {
                    at_ms: DEGRADE_AT * span,
                    cluster: others[1],
                    kind: ClusterFaultKind::ClusterDegrade {
                        factor: DEGRADE_FACTOR,
                    },
                },
                ClusterFaultEvent {
                    at_ms: KILL_AT * span,
                    cluster: hot,
                    kind: ClusterFaultKind::ClusterKill,
                },
            ],
        };
        hios_sim::validate_cluster_events(&faults.cluster_events, CLUSTERS)
            .expect("valid cluster fault script");
        layers.add("sim.fault_compile_s", started.elapsed().as_secs_f64());
        Input {
            models,
            cfg,
            seq_ms,
            trace,
            faults,
            degraded: others[1],
        }
    }

    fn work(input: &Input) -> usize {
        input.trace.len()
    }

    fn run(input: &Input, _rep: usize) -> FleetOutcome {
        serve_fleet(&input.models, &input.trace, &input.faults, &input.cfg)
            .expect("well-formed fleet run")
    }

    fn digest(out: &FleetOutcome) -> u64 {
        out.report.history_digest
    }

    fn verify(
        input: &Input,
        out: &FleetOutcome,
        _smoke: bool,
        failures: &mut Vec<String>,
    ) -> usize {
        let terminals: Vec<Terminal> = out.records.iter().map(Terminal::of_fleet_record).collect();
        // One terminal record per request also means zero lost requests.
        let bad = check_terminals(&input.trace, &terminals, failures);
        let r = &out.report;
        if r.rerouted == 0 {
            failures.push("the kill re-routed nothing: the failover drain did not run".into());
        }
        if r.hedges_issued == 0 {
            failures.push("no hedged twin was issued".into());
        }
        if r.cluster_kills != 1 || r.partitions != 1 {
            failures.push(format!(
                "expected 1 kill and 1 partition, saw {} and {}",
                r.cluster_kills, r.partitions
            ));
        }
        bad
    }

    fn sim_stats(input: &Input, out: &FleetOutcome) -> SimStats {
        let terminals: Vec<Terminal> = out.records.iter().map(Terminal::of_fleet_record).collect();
        sim_stats(&terminals, out.report.horizon_ms, &input.seq_ms)
    }

    fn trace(input: &Input, rec: &mut Recorder) -> Traced<FleetOutcome> {
        let mut layers = Layers::new();
        let mut tally = Tally::default();
        let span = rec.enter("serve_fleet");
        let out = Self::run(input, 0);
        let wall_s = rec.exit(span);

        // Each cluster's share: the requests that terminated there,
        // replayed through `serve` alone under that cluster's own
        // GPU-level plan (the degrade, lowered the way the fleet does).
        let sched = SchedCosts::measure(&input.models, GPUS, &input.cfg.clusters[0].ladder);
        let degrade_ms = input
            .faults
            .cluster_events
            .iter()
            .find(|e| matches!(e.kind, ClusterFaultKind::ClusterDegrade { .. }))
            .map_or(0.0, |e| e.at_ms);
        let mut serve_wall_s = 0.0;
        let mut cluster_spans = Vec::with_capacity(CLUSTERS);
        let mut cache = (0u64, 0u64);
        for (ci, cluster) in out.clusters.iter().enumerate() {
            let mut sub: Vec<Request> = cluster.records.iter().map(|r| r.request).collect();
            sub.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id)));
            let plan = if ci == input.degraded {
                FaultPlan::new(
                    (0..GPUS)
                        .map(|gpu| FaultEvent {
                            at_ms: degrade_ms,
                            kind: FaultKind::GpuSlowdown {
                                gpu,
                                factor: DEGRADE_FACTOR,
                            },
                        })
                        .collect(),
                )
            } else {
                FaultPlan::none()
            };
            let t0 = Instant::now();
            let alone = serve(&input.models, &sub, &plan, &input.cfg.clusters[ci])
                .expect("well-formed cluster replay");
            let busy_s = t0.elapsed().as_secs_f64();
            serve_wall_s += busy_s;
            let child = rec.replayed(span, &format!("cluster{ci}.serve"), busy_s, 1);
            cluster_spans.push(child);
            replay_serve(
                rec,
                child,
                &ServeCall {
                    models: &input.models,
                    trace: &sub,
                    cfg: &input.cfg.clusters[ci],
                    outcome: &alone,
                    extra_sims: 0,
                    store_scratch: None,
                },
                &sched,
                &mut tally,
            );
            add_report_counts(&mut layers, &alone);
            cache.0 += alone.report.cache.0;
            cache.1 += alone.report.cache.1;
        }

        // The fleet layer's own functions, reported beside its self time
        // (they are part of it, not subtracted from it).
        let r = &out.report;
        let router = Router::new(input.cfg.router, CLUSTERS).expect("valid fleet size");
        let routable = [true; CLUSTERS];
        let stride = input.trace.len().div_ceil(MAX_SAMPLES).max(1);
        let sampled: Vec<&Request> = input.trace.iter().step_by(stride).collect();
        let choose_s = per_call_s(sampled.len(), |i| {
            black_box(router.choose(sampled[i].model as u64, &routable, |c| (c + i) % 3));
        });
        tally.add(
            "router.choose",
            choose_s * (input.trace.len() + r.rerouted) as f64,
            (input.trace.len() + r.rerouted) as u64,
        );
        let mut health = HealthView::new(input.cfg.health, CLUSTERS).expect("valid health knobs");
        let beat_s = per_call_s(MAX_SAMPLES, |i| {
            health.heartbeat(
                i % CLUSTERS,
                HealthSample {
                    queue_fill: (i % 7) as f64 / 32.0,
                    miss_rate: Some(0.0),
                    alive_frac: 1.0,
                },
            );
        });
        // One beat per live cluster per heartbeat period: four clusters
        // until the kill, three after it.
        let periods = r.horizon_ms / input.cfg.health.heartbeat_ms;
        let beats = (periods * (CLUSTERS as f64 - (1.0 - KILL_AT))) as u64;
        tally.add("health.heartbeat", beat_s * beats as f64, beats);

        tally.write(&mut layers);
        finish_report_ratios(&mut layers, cache, (0, 0), input.models.len());
        layers.set("serve.wall_s", serve_wall_s);
        layers.set(
            "serve.self_s",
            cluster_spans.iter().map(|&id| rec.self_s(id)).sum(),
        );
        layers.set("fleet.wall_s", wall_s);
        layers.set("fleet.self_s", rec.self_s(span));
        layers.set(
            "sim.simulate_scaled.share_of_wall",
            tally.busy_s("sim.simulate_scaled") / wall_s,
        );
        layers.set("fleet.rerouted", r.rerouted as f64);
        layers.set("fleet.hedges_issued", r.hedges_issued as f64);
        layers.set(
            "fleet.hedge_wasted_ratio",
            if r.hedges_issued > 0 {
                (r.hedge_wasted + r.hedge_cancelled) as f64 / r.hedges_issued as f64
            } else {
                0.0
            },
        );
        layers.set("fleet.failover_sheds", r.failover_sheds as f64);
        layers.set("fleet.backpressure_sheds", r.backpressure_sheds as f64);
        Traced {
            out,
            layers,
            wall_s,
        }
    }
}
