//! Golden serving histories.
//!
//! Ten small fixed scenarios, one per mechanism of the serving stack,
//! each pinned to the `history_digest` / `fleet_history_digest` (and the
//! ladder / cache / store counters) it produced when this file was
//! written.  The constants are hard-coded on purpose: a change to the
//! dispatch path that is meant to be invisible — a memo, a cached key,
//! a reused buffer — has to reproduce every one of them, and a change
//! that is meant to move a history has to say so by editing this file.
//! `upgrades` is left out: idle-time upgrade passes run off the request
//! path, so their count may change without moving a history.
//!
//! Every scenario also asserts that it took the path it is named after,
//! so a digest cannot stay equal by silently no longer exercising it.

use hios::core::bounds;
use hios::cost::{AnalyticCostModel, CalibrationConfig, Platform, platform_table};
use hios::graph::{LayeredDagConfig, OpId, generate_layered_dag};
use hios::serve::{
    ClassMix, FleetConfig, FleetFaults, OverloadConfig, PriorityClass, Request, Rung, ServeConfig,
    ServeOutcome, ServedModel, StoreConfig, WorkloadConfig, generate_trace_with_classes, serve,
    serve_drift, serve_fleet, trace_span_ms,
};
use hios::sim::{
    ClusterFaultEvent, ClusterFaultKind, DriftPlan, FaultEvent, FaultKind, FaultPlan, FaultScript,
    FlapSpec,
};

const GPUS: usize = 3;

fn model(seed: u64, ops: usize) -> ServedModel {
    let graph = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: 6,
        deps: ops * 2,
        seed,
    })
    .expect("feasible tenant model");
    let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
    ServedModel {
        name: format!("tenant{seed}"),
        graph,
        cost,
    }
}

fn tenants() -> Vec<ServedModel> {
    vec![model(41, 24), model(42, 36), model(43, 48)]
}

fn nominal_ms(models: &[ServedModel], gpus: usize) -> Vec<f64> {
    models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, gpus))
        .collect()
}

/// A classed Poisson trace (round-robin tenancy) arriving at `load`
/// times the rate at which the tenants' admission bounds would fill the
/// backend, with deadlines at `factor` times the bound.
fn trace(
    models: &[ServedModel],
    gpus: usize,
    requests: usize,
    load: f64,
    factor: f64,
) -> Vec<Request> {
    let nominal = nominal_ms(models, gpus);
    let mean_ms = nominal.iter().sum::<f64>() / nominal.len() as f64;
    generate_trace_with_classes(
        &WorkloadConfig {
            requests,
            arrival_rate_rps: load * 1000.0 / mean_ms,
            deadline_factor: factor,
            seed: 29,
        },
        &nominal,
        &ClassMix::default(),
    )
}

/// Everything of a single-cluster run that must not move: the history
/// digest plus the cache / rung / eviction / store counters.
fn pin(out: &ServeOutcome) -> String {
    let r = &out.report;
    format!(
        "{:#018x} cache={:?} rungs={:?} evict={} store=({},{},{},{})",
        r.history_digest,
        r.cache,
        r.rungs,
        r.cache_evictions,
        r.store.hits,
        r.store.misses,
        r.store.puts_full,
        r.store.puts_delta,
    )
}

#[test]
fn steady() {
    let models = tenants();
    let cfg = ServeConfig::new(GPUS);
    let tr = trace(&models, GPUS, 400, 0.15, 12.0);
    let out = serve(&models, &tr, &FaultPlan::none(), &cfg).unwrap();
    assert_eq!(out.report.completed, 400);
    assert!(out.report.cache.0 > 350, "cache {:?}", out.report.cache);
    assert_eq!(pin(&out), STEADY);
}

#[test]
fn mid_flight_fail_stop_is_repaired_in_place() {
    let models = vec![model(21, 120), model(42, 36)];
    let mut cfg = ServeConfig::new(GPUS);
    cfg.detection_ms = 0.1;
    cfg.gpu_repair_ms = 25.0;
    let tr = trace(&models, GPUS, 120, 0.07, 60.0);
    // Each fail-stop lands half a bound into a request of the 120-op
    // tenant (even trace positions), i.e. on running operators.
    let half_bound_ms = 0.5 * nominal_ms(&models, GPUS)[0];
    let faults = FaultPlan::new(
        [10usize, 30, 50, 70, 90]
            .iter()
            .enumerate()
            .map(|(k, &at)| FaultEvent {
                at_ms: tr[at].arrival_ms + half_bound_ms,
                kind: FaultKind::GpuFailStop {
                    gpu: (k + 2) % GPUS,
                },
            })
            .collect(),
    );
    let out = serve(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 120);
    assert!(out.report.repairs >= 1, "repairs {}", out.report.repairs);
    assert!(out.report.breaker_opens >= 3);
    assert_eq!(pin(&out), FAIL_STOP_REPAIR);
}

#[test]
fn op_hang_becomes_a_watchdog_retry() {
    let models = tenants();
    let cfg = ServeConfig::new(GPUS);
    let tr = trace(&models, GPUS, 150, 0.2, 40.0);
    let span = trace_span_ms(&tr);
    // Late operators of the smallest tenant: still pending whenever the
    // hang fires inside a request.
    let faults = FaultPlan::new(
        [(0.2, 23u32), (0.35, 22), (0.5, 21), (0.65, 23), (0.8, 20)]
            .iter()
            .map(|&(f, op)| FaultEvent {
                at_ms: f * span,
                kind: FaultKind::OpHang { op: OpId(op) },
            })
            .collect(),
    );
    let out = serve(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 150);
    assert!(
        out.report.attempts > out.report.admitted as u64,
        "a hang must force a retry: attempts {} admitted {}",
        out.report.attempts,
        out.report.admitted
    );
    assert_eq!(pin(&out), OP_HANG);
}

#[test]
fn flapping_gpu_with_link_degrade() {
    let models = tenants();
    let cfg = ServeConfig::new(GPUS);
    let tr = trace(&models, GPUS, 300, 0.18, 60.0);
    let span = trace_span_ms(&tr);
    let period = span / 8.0;
    let script = FaultScript {
        flaps: vec![FlapSpec {
            gpu: 2,
            first_fail_ms: 0.05 * span,
            down_ms: 0.15 * period,
            up_ms: 0.85 * period,
            cycles: 6,
        }],
        raw: vec![FaultEvent {
            at_ms: 0.4 * span,
            kind: FaultKind::LinkDegrade {
                from: 0,
                to: 1,
                factor: 3.0,
            },
        }],
        ..FaultScript::default()
    };
    let faults = script.compile(&models[0].graph, GPUS).unwrap();
    let out = serve(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 300);
    assert!(out.report.breaker_opens >= 2);
    assert!(out.report.cache.1 >= 6, "both alive sets must be planned");
    assert_eq!(pin(&out), FLAP_LINK_DEGRADE);
}

#[test]
fn burst_drift_alarms_recalibrates_and_purges() {
    let models = tenants();
    let mut cfg = ServeConfig::new(GPUS);
    cfg.calibration = Some(CalibrationConfig::default());
    let tr = trace(&models, GPUS, 300, 0.12, 30.0);
    let span = trace_span_ms(&tr);
    let drift = DriftPlan::bursts(1, 0.05 * span, span / 10.0, 0.5, 3.0, span);
    let out = serve_drift(&models, &tr, &FaultPlan::none(), &drift, &cfg).unwrap();
    assert_eq!(out.records.len(), 300);
    assert!(out.report.drift_alarms > 0);
    assert!(out.report.recalibrations > 0);
    assert!(out.report.cache_invalidations > 0);
    assert_eq!(pin(&out), BURST_DRIFT);
}

#[test]
fn overload_controller_browns_out() {
    let models = tenants();
    let mut cfg = ServeConfig::new(GPUS);
    cfg.overload = Some(OverloadConfig::default());
    let tr = trace(&models, GPUS, 400, 0.8, 60.0);
    let out = serve(&models, &tr, &FaultPlan::none(), &cfg).unwrap();
    assert_eq!(out.records.len(), 400);
    assert!(out.report.brownout.transitions > 0);
    assert!(out.report.shed_brownout > 0);
    assert_eq!(pin(&out), OVERLOAD);
}

#[test]
fn store_cold_then_restart_warm_below_cache_capacity() {
    let models: Vec<ServedModel> = (0..6).map(|s| model(60 + s, 30 + 4 * s as usize)).collect();
    let dir = std::env::temp_dir().join(format!("hios-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.log");
    let _ = std::fs::remove_file(&path);
    let mut cfg = ServeConfig::new(GPUS);
    cfg.ladder.cache_capacity = 3;
    cfg.store = Some(StoreConfig::at(&path));
    // Skewed tenancy over six tenants and three cache slots: hits,
    // evictions and store re-adoptions all occur.
    const POPULARITY: [usize; 16] = [0, 1, 0, 2, 0, 1, 3, 0, 4, 1, 0, 5, 2, 0, 1, 3];
    let nominal = nominal_ms(&models, GPUS);
    let mut tr = trace(&models, GPUS, 240, 0.12, 40.0);
    for (i, r) in tr.iter_mut().enumerate() {
        r.model = POPULARITY[i % POPULARITY.len()];
        r.deadline_ms = r.arrival_ms + 40.0 * nominal[r.model];
    }
    let cold = serve(&models, &tr, &FaultPlan::none(), &cfg).unwrap();
    let warm = serve(&models, &tr, &FaultPlan::none(), &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for phase in [&cold, &warm] {
        assert!(phase.report.cache.0 > 0 && phase.report.cache_evictions > 0);
        assert!(phase.report.rungs[Rung::Store.index()] > 0);
    }
    assert!(cold.report.store.puts_full > 0);
    assert_eq!(cold.report.store_recovery.records_loaded, 0);
    assert!(warm.report.store_recovery.records_loaded > 0);
    assert_eq!(pin(&cold), STORE_COLD);
    assert_eq!(pin(&warm), STORE_WARM);
}

#[test]
fn fleet_with_kill_partition_and_hedging() {
    let models = tenants();
    let mut tr = trace(&models, GPUS, 360, 0.45, 20.0);
    // Tight Gold deadlines are what the hedger acts on.
    let nominal = nominal_ms(&models, GPUS);
    for r in tr.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
        r.deadline_ms = r.arrival_ms + 3.5 * nominal[r.model];
    }
    let span = trace_span_ms(&tr);
    let cfg = FleetConfig::new(3, GPUS);
    let faults = FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: vec![
            ClusterFaultEvent {
                at_ms: 0.25 * span,
                cluster: 1,
                kind: ClusterFaultKind::PartitionRouter {
                    heal_ms: 0.15 * span,
                },
            },
            ClusterFaultEvent {
                at_ms: 0.45 * span,
                cluster: 2,
                kind: ClusterFaultKind::ClusterDegrade { factor: 3.0 },
            },
            ClusterFaultEvent {
                at_ms: 0.6 * span,
                cluster: 0,
                kind: ClusterFaultKind::ClusterKill,
            },
        ],
    };
    let out = serve_fleet(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 360);
    assert_eq!(out.report.cluster_kills, 1);
    assert_eq!(out.report.partitions, 1);
    assert!(out.report.hedges_issued > 0);
    assert!(out.report.rerouted > 0);
    let clusters: Vec<String> = out.clusters.iter().map(pin).collect();
    assert_eq!(
        format!(
            "{:#018x} {}",
            out.report.history_digest,
            clusters.join(" | ")
        ),
        FLEET
    );
}

#[test]
fn linear_ramp_drift() {
    let models = tenants();
    let mut cfg = ServeConfig::new(GPUS);
    cfg.calibration = Some(CalibrationConfig::default());
    let tr = trace(&models, GPUS, 300, 0.12, 30.0);
    let span = trace_span_ms(&tr);
    // 64 steps: the factor changes every few dispatches.
    let drift = DriftPlan::ramp(2, 0.1 * span, 0.9 * span, 1.0, 4.0, 64);
    let out = serve_drift(&models, &tr, &FaultPlan::none(), &drift, &cfg).unwrap();
    assert_eq!(out.records.len(), 300);
    assert!(out.report.recalibrations > 0);
    assert_eq!(pin(&out), RAMP_DRIFT);
}

#[test]
fn calibrated_drift_under_a_flapping_gpu_and_a_hang() {
    // Calibration composed with faults: GPU 1 drifts in bursts while GPU 2
    // flaps, so one plan teaches the calibrator under two serving masks,
    // and late operators of the smallest tenant hang, so some attempts
    // end in a watchdog retry that must teach it nothing.  Detection is
    // fast enough that a fail edge finds operators still running, so
    // repaired (stitched) attempts occur too, and teach nothing either.
    let models = tenants();
    let mut cfg = ServeConfig::new(GPUS);
    cfg.calibration = Some(CalibrationConfig::default());
    cfg.detection_ms = 0.1;
    let tr = trace(&models, GPUS, 3000, 0.15, 40.0);
    let span = trace_span_ms(&tr);
    let period = span / 24.0;
    let script = FaultScript {
        flaps: vec![FlapSpec {
            gpu: 2,
            first_fail_ms: 0.05 * span,
            down_ms: 0.1 * period,
            up_ms: 0.9 * period,
            cycles: 20,
        }],
        raw: [(0.3, 23u32), (0.45, 22), (0.6, 21), (0.75, 23), (0.9, 20)]
            .iter()
            .map(|&(f, op)| FaultEvent {
                at_ms: f * span,
                kind: FaultKind::OpHang { op: OpId(op) },
            })
            .collect(),
        ..FaultScript::default()
    };
    let faults = script.compile(&models[0].graph, GPUS).unwrap();
    let drift = DriftPlan::bursts(1, 0.05 * span, span / 12.0, 0.3, 2.5, span);
    let out = serve_drift(&models, &tr, &faults, &drift, &cfg).unwrap();
    let r = &out.report;
    assert_eq!(out.records.len(), 3000);
    assert!(r.drift_alarms >= 2, "drift alarms {}", r.drift_alarms);
    assert!(r.recalibrations > 0 && r.cache_invalidations > 0);
    assert!(r.breaker_opens >= 2, "breaker opens {}", r.breaker_opens);
    assert!(r.repairs > 0, "a flap edge must land mid-flight");
    assert!(
        r.attempts > r.admitted as u64,
        "a hang must force a retry: attempts {} admitted {}",
        r.attempts,
        r.admitted
    );
    assert_eq!(
        format!(
            "{} alarms={} recalibrations={} invalidations={} repairs={}",
            pin(&out),
            r.drift_alarms,
            r.recalibrations,
            r.cache_invalidations,
            r.repairs
        ),
        CALIBRATED_CHAOS
    );
}

#[test]
fn heterogeneous_platform_with_gpu0_breaker_open() {
    let platform = Platform::mixed_a40_v100s();
    let models: Vec<ServedModel> = [(51u64, 30usize), (52, 44)]
        .iter()
        .map(|&(seed, ops)| {
            let mut t = model(seed, ops);
            t.cost = platform_table(&platform, &t.graph).unwrap();
            t
        })
        .collect();
    let mut cfg = ServeConfig::new(4);
    cfg.gpu_repair_ms = 1.0e9; // GPU 0 stays behind its open breaker
    let tr = trace(&models, 4, 200, 0.12, 40.0);
    let span = trace_span_ms(&tr);
    let faults = FaultPlan::single(0.2 * span, FaultKind::GpuFailStop { gpu: 0 });
    let out = serve(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 200);
    assert!(out.report.breaker_opens >= 1);
    assert!(out.report.cache.1 >= 4, "both alive sets must be planned");
    assert_eq!(pin(&out), HETERO);
}

const STEADY: &str =
    "0x7f641be463247cef cache=(397, 3) rungs=[397, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";
const FAIL_STOP_REPAIR: &str =
    "0x73d82aff4cd9d6ae cache=(77, 12) rungs=[77, 0, 2, 2, 8] evict=0 store=(0,0,0,0)";
const OP_HANG: &str =
    "0x3a03c189a76bea2c cache=(127, 3) rungs=[127, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";
const FLAP_LINK_DEGRADE: &str =
    "0xea1fd922b1498b8b cache=(294, 6) rungs=[294, 0, 0, 1, 5] evict=0 store=(0,0,0,0)";
const BURST_DRIFT: &str =
    "0xd64f1e2b59d0cf5d cache=(291, 9) rungs=[291, 0, 0, 0, 9] evict=0 store=(0,0,0,0)";
const OVERLOAD: &str =
    "0xc93c78fc632b5d51 cache=(151, 3) rungs=[151, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";
const STORE_COLD: &str =
    "0xf9546eebad9b0118 cache=(118, 122) rungs=[118, 116, 0, 0, 6] evict=119 store=(116,6,12,0)";
const STORE_WARM: &str =
    "0x478bd296ba67f2fe cache=(118, 122) rungs=[118, 122, 0, 0, 0] evict=119 store=(122,0,0,0)";
const FLEET: &str = "0x952a28e9060cc9d4 0x7ac59f6be69436bb cache=(87, 3) rungs=[87, 0, 0, 0, 3] evict=0 store=(0,0,0,0) | 0x379a7dbaf4f14352 cache=(147, 3) rungs=[147, 0, 0, 0, 3] evict=0 store=(0,0,0,0) | 0xbcc1a38baa010757 cache=(66, 4) rungs=[66, 0, 0, 0, 4] evict=0 store=(0,0,0,0)";
const RAMP_DRIFT: &str =
    "0xb97a3c0592c33837 cache=(289, 10) rungs=[289, 0, 0, 1, 9] evict=0 store=(0,0,0,0)";
const HETERO: &str =
    "0xccd1e656322d5ab6 cache=(196, 4) rungs=[196, 0, 0, 0, 4] evict=0 store=(0,0,0,0)";
const CALIBRATED_CHAOS: &str = "0x34afcd3493d496aa cache=(2965, 19) rungs=[2965, 0, 0, 2, 17] evict=0 store=(0,0,0,0) alarms=100 recalibrations=11 invalidations=16 repairs=9";

// ---- fleet pump tie-breaks ----------------------------------------------
//
// The scenarios above leave the order of equal-instant fleet events to
// chance (continuous arrival times never collide with a heartbeat).  The
// three below put arrivals *exactly* on a heartbeat, on a partition heal
// and on a cluster kill, so the pump's tie-breaks — cluster step before
// fleet event, arrival before fault / heal / heartbeat, trace position
// among equal arrivals — are part of the pinned history.

const FLEET_CLUSTERS: usize = 4;

/// The fleet report counters a routing change would move.
fn pin_fleet(out: &hios::serve::FleetOutcome) -> String {
    let r = &out.report;
    format!(
        "{:#018x} rerouted={} hedges=({},{},{},{}) sheds=(failover {}, dead {}, partitioned {}, backpressure {}, unroutable {})",
        r.history_digest,
        r.rerouted,
        r.hedges_issued,
        r.hedge_wins_secondary,
        r.hedge_cancelled,
        r.hedge_wasted,
        r.failover_sheds,
        r.dead_cluster_sheds,
        r.partitioned_sheds,
        r.backpressure_sheds,
        r.no_routable_sheds,
    )
}

/// Instants of the tie-break scenario, all exact `f64`s the pump itself
/// computes (`k × heartbeat_ms` by repeated addition, the heal as
/// `partition instant + heal_ms`).
struct TieInstants {
    heartbeat_ms: f64,
    partition_ms: f64,
    heal_after_ms: f64,
    kill_ms: f64,
    pair_ms: f64,
}

impl TieInstants {
    fn heal_ms(&self) -> f64 {
        self.partition_ms + self.heal_after_ms
    }
}

/// Moves the not-yet-moved request of `tenant` arriving nearest to
/// `at_ms` onto exactly `at_ms`, keeping its relative deadline.
fn snap(tr: &mut [Request], moved: &mut Vec<u64>, tenant: usize, at_ms: f64) {
    let r = tr
        .iter_mut()
        .filter(|r| r.model == tenant && !moved.contains(&r.id))
        .min_by(|a, b| {
            (a.arrival_ms - at_ms)
                .abs()
                .total_cmp(&(b.arrival_ms - at_ms).abs())
        })
        .expect("every tenant has requests");
    r.deadline_ms += at_ms - r.arrival_ms;
    r.arrival_ms = at_ms;
    moved.push(r.id);
}

/// Four small-queue clusters near saturation, hedging on, a partition
/// and a kill; one arrival per tenant on each of the heartbeat, heal and
/// kill instants, a burst on the heartbeat, and a two-tenant pair on an
/// instant of its own.
fn tie_break_scenario(
    policy: hios::serve::RouterPolicy,
) -> (
    Vec<ServedModel>,
    Vec<Request>,
    FleetFaults,
    FleetConfig,
    TieInstants,
) {
    let models = tenants();
    let mut tr = trace(&models, GPUS, 480, 1.0, 20.0);
    let nominal = nominal_ms(&models, GPUS);
    for r in tr.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
        r.deadline_ms = r.arrival_ms + 3.5 * nominal[r.model];
    }
    let span = trace_span_ms(&tr);
    let mut cfg = FleetConfig::new(FLEET_CLUSTERS, GPUS);
    cfg.router.policy = policy;
    cfg.hedge = policy == hios::serve::RouterPolicy::Failover;
    // Small queues and an unsmoothed health view: one heartbeat's sample
    // decides backpressure, so *when* the burst is counted shows.
    cfg.health.alpha = 1.0;
    cfg.health.backpressure_fill = 0.5;
    // A period that is exact in binary, so `k` additions land on `k × 0.25`.
    cfg.health.heartbeat_ms = 0.25;
    for c in &mut cfg.clusters {
        c.queue_capacity = 4;
    }
    // The k-th heartbeat fires at the period added k times.
    let beats = (0.2 * span / cfg.health.heartbeat_ms).round() as usize;
    let at = TieInstants {
        heartbeat_ms: (0..beats).fold(0.0, |t, _| t + cfg.health.heartbeat_ms),
        partition_ms: 0.3 * span,
        heal_after_ms: 0.1 * span,
        kill_ms: 0.6 * span,
        pair_ms: 0.5 * span,
    };
    let router = hios::serve::Router::new(cfg.router, FLEET_CLUSTERS).unwrap();
    let killed = router.ranked(0)[0];
    let partitioned = (0..3)
        .map(|tenant| router.ranked(tenant)[0])
        .find(|&c| c != killed)
        .expect("three tenants do not all hash to one cluster");
    let mut moved = Vec::new();
    for tenant in 0..3 {
        snap(&mut tr, &mut moved, tenant, at.heal_ms());
        snap(&mut tr, &mut moved, tenant, at.kill_ms);
        // Four per tenant on the heartbeat: a burst the sample either
        // sees queued or does not.
        for _ in 0..4 {
            snap(&mut tr, &mut moved, tenant, at.heartbeat_ms);
        }
    }
    // Two more for the doomed cluster's own tenant, so the drain at the
    // kill instant has same-instant arrivals to re-route.
    snap(&mut tr, &mut moved, 0, at.kill_ms);
    snap(&mut tr, &mut moved, 0, at.kill_ms);
    snap(&mut tr, &mut moved, 0, at.pair_ms);
    snap(&mut tr, &mut moved, 1, at.pair_ms);
    let faults = FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: vec![
            ClusterFaultEvent {
                at_ms: at.partition_ms,
                cluster: partitioned,
                kind: ClusterFaultKind::PartitionRouter {
                    heal_ms: at.heal_after_ms,
                },
            },
            ClusterFaultEvent {
                at_ms: at.kill_ms,
                cluster: killed,
                kind: ClusterFaultKind::ClusterKill,
            },
        ],
    };
    (models, tr, faults, cfg, at)
}

/// A permutation of `tr` that keeps equal-instant arrivals in their
/// relative order (the pump breaks those ties by trace position): a
/// stable sort by a hash of the arrival instant.
fn shuffled(tr: &[Request]) -> Vec<Request> {
    let mut out = tr.to_vec();
    out.sort_by_key(|r| {
        r.arrival_ms
            .to_bits()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    });
    out
}

#[test]
fn fleet_arrivals_on_heartbeat_heal_and_kill_instants() {
    use hios::serve::{FleetDisposition, RouterPolicy};
    let (models, tr, faults, cfg, at) = tie_break_scenario(RouterPolicy::Failover);
    let (partitioned, killed) = (
        faults.cluster_events[0].cluster,
        faults.cluster_events[1].cluster,
    );
    let out = serve_fleet(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 480);
    assert_eq!(out.report.cluster_kills, 1);
    assert_eq!(out.report.partitions, 1);
    assert!(out.report.hedges_issued > 0);
    assert!(out.report.backpressure_sheds > 0);
    for instant in [at.heartbeat_ms, at.heal_ms(), at.kill_ms, at.pair_ms] {
        let n = tr.iter().filter(|r| r.arrival_ms == instant).count();
        assert!(n >= 2, "{n} arrivals at {instant}");
    }
    // An arrival on the kill instant is routed before the kill fires: it
    // enters the dying cluster and is drained off it at the same instant.
    assert!(
        out.records
            .iter()
            .any(|r| r.request.arrival_ms == at.kill_ms
                && matches!(r.disposition, FleetDisposition::Rerouted { from, at_ms, .. }
                if from == killed && at_ms == at.kill_ms)),
        "no kill-instant arrival was rerouted off cluster {killed}"
    );
    // An arrival on the heal instant is routed before the heal: the
    // partitioned cluster is still out of its reach.
    for r in out
        .records
        .iter()
        .filter(|r| r.request.arrival_ms == at.heal_ms())
    {
        let on = match r.disposition.terminal() {
            FleetDisposition::Completed { cluster, .. } => Some(*cluster),
            FleetDisposition::Shed { cluster, .. } => *cluster,
            _ => None,
        };
        assert_ne!(on, Some(partitioned), "request {}", r.request.id);
    }
    assert_eq!(pin_fleet(&out), FLEET_TIES);
}

#[test]
fn fleet_shuffled_trace_serves_like_its_sorted_self() {
    use hios::serve::RouterPolicy;
    let (models, tr, faults, cfg, _) = tie_break_scenario(RouterPolicy::Failover);
    let shuffled = shuffled(&tr);
    assert_ne!(shuffled, tr);
    let out = serve_fleet(&models, &shuffled, &faults, &cfg).unwrap();
    assert_eq!(pin_fleet(&out), FLEET_TIES);
}

#[test]
fn fleet_static_hash_under_a_kill() {
    use hios::serve::RouterPolicy;
    let (models, tr, faults, cfg, _) = tie_break_scenario(RouterPolicy::StaticHash);
    let out = serve_fleet(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(out.records.len(), 480);
    assert_eq!(out.report.cluster_kills, 1);
    assert_eq!((out.report.rerouted, out.report.hedges_issued), (0, 0));
    assert!(out.report.dead_cluster_sheds > 0);
    assert!(out.report.partitioned_sheds > 0);
    assert_eq!(pin_fleet(&out), FLEET_STATIC_HASH);
}

const FLEET_TIES: &str = "0x65405821be3e02e4 rerouted=2 hedges=(90,21,37,0) sheds=(failover 0, dead 0, partitioned 0, backpressure 16, unroutable 0)";
const FLEET_STATIC_HASH: &str = "0xa4d4ceebb4f2b6ca rerouted=0 hedges=(0,0,0,0) sheds=(failover 0, dead 69, partitioned 16, backpressure 0, unroutable 0)";

// ---- what the clusters keep ------------------------------------------------
//
// The fleet goldens above pin each cluster's records only where the
// `FLEET` string does; the tie-break scenario pins none.  The one below
// pins every cluster's record stream of that scenario (hedges,
// re-routes, backpressure and a kill), and a trace whose ids are neither
// unique nor in trace order, through both entries: equal ids keep the
// order their outcomes were produced in within a cluster's records, and
// trace order among a fleet's.

#[test]
fn cluster_records_of_the_tie_break_scenario_and_a_duplicate_id_trace() {
    use hios::serve::{Disposition, FleetDisposition, RouterPolicy};
    let (models, tr, faults, cfg, _) = tie_break_scenario(RouterPolicy::Failover);
    let out = serve_fleet(&models, &tr, &faults, &cfg).unwrap();
    assert_eq!(pin_fleet(&out), FLEET_TIES);
    let clusters: Vec<String> = out.clusters.iter().map(pin).collect();
    assert_eq!(clusters.join(" | "), FLEET_TIES_CLUSTERS);

    // A tight Gold (hedged by the fleet) and, on its arrival instant just
    // behind it in the trace, a Silver of the same tenant under the same
    // id whose deadline is already gone: it is shed at once, so it ends
    // before the Gold does.  Two other ids swap places.
    let mut tr = trace(&models, GPUS, 240, 0.2, 20.0);
    let nominal = nominal_ms(&models, GPUS);
    for r in tr.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
        r.deadline_ms = r.arrival_ms + 3.5 * nominal[r.model];
    }
    // The Gold that finds the server idle: the longest gap behind it.
    let g = (1..tr.len() - 1)
        .filter(|&i| tr[i].class == PriorityClass::Gold)
        .max_by(|&i, &j| {
            let gap = |k: usize| tr[k].arrival_ms - tr[k - 1].arrival_ms;
            gap(i).total_cmp(&gap(j))
        })
        .expect("a Gold request");
    tr[g + 1] = Request {
        id: tr[g].id,
        model: tr[g].model,
        arrival_ms: tr[g].arrival_ms,
        deadline_ms: tr[g].arrival_ms,
        class: PriorityClass::Silver,
    };
    let (a, b) = (10, 200);
    let (ida, idb) = (tr[a].id, tr[b].id);
    tr[a].id = idb;
    tr[b].id = ida;
    let dup = tr[g].id;

    let one = serve(&models, &tr, &FaultPlan::none(), &ServeConfig::new(GPUS)).unwrap();
    let same: Vec<&Disposition> = one
        .records
        .iter()
        .filter(|r| r.request.id == dup)
        .map(|r| &r.disposition)
        .collect();
    assert!(
        matches!(
            same[..],
            [Disposition::Shed { .. }, Disposition::Completed { .. }]
        ),
        "{same:?}"
    );

    let fleet = serve_fleet(
        &models,
        &tr,
        &FleetFaults::none(),
        &FleetConfig::new(3, GPUS),
    )
    .unwrap();
    assert_eq!(fleet.records.len(), tr.len());
    let same: Vec<&hios::serve::FleetRecord> = fleet
        .records
        .iter()
        .filter(|r| r.request.id == dup)
        .collect();
    assert!(
        matches!(
            (
                &same[0].request.class,
                &same[0].disposition,
                &same[1].disposition
            ),
            (
                PriorityClass::Gold,
                FleetDisposition::Completed { hedged: true, .. },
                FleetDisposition::Shed { .. }
            )
        ),
        "{same:?}"
    );
    let clusters: Vec<String> = fleet.clusters.iter().map(pin).collect();
    assert_eq!(
        format!(
            "{} / {} / {}",
            pin(&one),
            pin_fleet(&fleet),
            clusters.join(" | ")
        ),
        DUPLICATE_IDS
    );
}

const FLEET_TIES_CLUSTERS: &str = "0x8c742f8fa2295139 cache=(75, 2) rungs=[75, 0, 0, 0, 2] evict=0 store=(0,0,0,0) | 0x069d669a0f70a9d6 cache=(131, 1) rungs=[131, 0, 0, 0, 1] evict=0 store=(0,0,0,0) | 0x36d593e26989b3b5 cache=(119, 3) rungs=[119, 0, 0, 0, 3] evict=0 store=(0,0,0,0) | 0x930930e2415fb0c1 cache=(120, 3) rungs=[120, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";
const DUPLICATE_IDS: &str = "0x96b0056ac18a2e1a cache=(224, 3) rungs=[224, 0, 0, 0, 3] evict=0 store=(0,0,0,0) / 0x32ab01a21110122a rerouted=0 hedges=(47,0,44,0) sheds=(failover 0, dead 0, partitioned 0, backpressure 0, unroutable 0) / 0x77802cb589c5ae15 cache=(94, 2) rungs=[94, 0, 0, 0, 2] evict=0 store=(0,0,0,0) | 0xcc13c4a65b4b77f7 cache=(79, 1) rungs=[79, 0, 0, 0, 1] evict=0 store=(0,0,0,0) | 0xe2b369094e21dbea cache=(103, 3) rungs=[103, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";

// ---- outcomes that carry a deadline or an error -----------------------------
//
// No scenario above ends a request in a retry shed or a failover shed.
// The two below do: a hang storm that exhausts one request's retries
// and the retry budget, and a cluster kill that drains requests whose
// deadlines no surviving cluster can meet.

/// A sparse trace under a storm of hangs, with the overload controller
/// (and so the retry budget) on and Gold deadlines at 3x the bound.
/// The storm is twenty bursts of an op-20 hang every 50 µs for 10 ms,
/// 5.5 ms apart: every burst holds the attempt in flight until its
/// last hang, and the watchdog plus any backoff lands the retry in the
/// next burst.
fn hang_storm() -> ServeOutcome {
    let models = tenants();
    let mut cfg = ServeConfig::new(GPUS);
    cfg.overload = Some(OverloadConfig::default());
    let mut tr = trace(&models, GPUS, 300, 0.01, 5000.0);
    let nominal = nominal_ms(&models, GPUS);
    for r in tr.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
        r.deadline_ms = r.arrival_ms + 3.0 * nominal[r.model];
    }
    let span = trace_span_ms(&tr);
    let (burst_ms, quiet_ms, every_ms) = (10.0, 5.5, 0.05);
    let faults = FaultPlan::new(
        (0..20)
            .flat_map(|k| {
                let start = 0.3 * span + f64::from(k) * (burst_ms + quiet_ms);
                (0..200).map(move |j| FaultEvent {
                    at_ms: start + f64::from(j) * every_ms,
                    kind: FaultKind::OpHang { op: OpId(20) },
                })
            })
            .collect(),
    );
    serve(&models, &tr, &faults, &cfg).unwrap()
}

/// Three clusters, one killed halfway through; just before the kill,
/// six requests of the killed cluster's tenant arrive at one instant,
/// every second one with a deadline 1.2 bounds out.  The drain finds
/// the loose ones still queued and re-routes them; a tight one no
/// cluster can finish in time is a failover shed.
fn kill_draining_tight_deadlines() -> hios::serve::FleetOutcome {
    let models = tenants();
    let mut tr = trace(&models, GPUS, 360, 0.45, 20.0);
    let nominal = nominal_ms(&models, GPUS);
    let span = trace_span_ms(&tr);
    let cfg = FleetConfig::new(3, GPUS);
    let killed = hios::serve::Router::new(cfg.router, 3).unwrap().ranked(0)[0];
    let kill_ms = 0.5 * span;
    let at_ms = kill_ms - 0.5 * nominal[0];
    let mut moved = Vec::new();
    for k in 0..6 {
        snap(&mut tr, &mut moved, 0, at_ms);
        if k % 2 == 1 {
            let id = moved[k];
            let r = tr.iter_mut().find(|r| r.id == id).unwrap();
            r.deadline_ms = at_ms + 1.2 * nominal[0];
        }
    }
    let faults = FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: vec![ClusterFaultEvent {
            at_ms: kill_ms,
            cluster: killed,
            kind: ClusterFaultKind::ClusterKill,
        }],
    };
    serve_fleet(&models, &tr, &faults, &cfg).unwrap()
}

#[test]
fn a_hang_storm_and_a_kill_that_drains_tight_deadlines() {
    use hios::serve::{Disposition, FailoverReason, FleetDisposition, FleetShedReason, ShedReason};
    let storm = hang_storm();
    let sheds = |pick: fn(&ShedReason) -> bool| {
        storm
            .records
            .iter()
            .filter(|r| matches!(&r.disposition, Disposition::Shed { reason, .. } if pick(reason)))
            .count()
    };
    let counts = [
        sheds(|r| matches!(r, ShedReason::DeadlineUnmeetable { .. })),
        sheds(|r| matches!(r, ShedReason::RetriesExhausted { .. })),
        sheds(|r| matches!(r, ShedReason::RetryBudgetExhausted { .. })),
    ];
    assert!(counts.iter().all(|&n| n >= 1), "{counts:?}");

    let fleet = kill_draining_tight_deadlines();
    let ends = |pick: fn(&FleetDisposition) -> bool| {
        fleet
            .records
            .iter()
            .filter(|r| pick(r.disposition.terminal()))
            .count()
    };
    let counts = [
        ends(|d| {
            matches!(
                d,
                FleetDisposition::Shed {
                    reason: FleetShedReason::Cluster(_),
                    ..
                }
            )
        }),
        ends(|d| {
            matches!(
                d,
                FleetDisposition::FailoverShed {
                    reason: FailoverReason::DeadlineInfeasible { .. },
                    ..
                }
            )
        }),
    ];
    assert!(counts.iter().all(|&n| n >= 1), "{counts:?}");
    assert!(fleet.report.rerouted >= 1);
    let clusters: Vec<String> = fleet.clusters.iter().map(pin).collect();
    let got = format!(
        "{} / {} / {}",
        pin(&storm),
        pin_fleet(&fleet),
        clusters.join(" | ")
    );
    assert_eq!(got, STORM_AND_DRAIN);
}

const STORM_AND_DRAIN: &str = "0xede61fb334ec8fcb cache=(291, 3) rungs=[291, 0, 2, 0, 1] evict=0 store=(0,0,0,0) / 0x61a806a9c1f46449 rerouted=2 hedges=(0,0,0,0) sheds=(failover 1, dead 0, partitioned 0, backpressure 0, unroutable 0) / 0xe2b75896e2c71e9b cache=(54, 1) rungs=[54, 0, 0, 0, 1] evict=0 store=(0,0,0,0) | 0x6f1fe6ee0de2defe cache=(137, 3) rungs=[137, 0, 0, 0, 3] evict=0 store=(0,0,0,0) | 0x433dce0194dcc155 cache=(160, 3) rungs=[160, 0, 0, 0, 3] evict=0 store=(0,0,0,0)";
