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
    "0x2289560be14df02e cache=(196, 4) rungs=[196, 0, 0, 0, 4] evict=0 store=(0,0,0,0)";
