//! End-to-end restart warm-start (ISSUE 7 tentpole wiring): a serving
//! process is "killed" (dropped) and restarted on the same plan log.
//! The restarted server must warm-start from the store — first dispatch
//! per model served from disk at store-hit cost instead of re-running
//! an LP — and a corrupted log must degrade to cold starts, never to a
//! wrong plan or a failed run.

use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::server::serve_drift;
use hios_serve::{
    Policy, PriorityClass, Request, Rung, ServeConfig, ServedModel, StoreConfig, serve,
};
use hios_sim::{DriftPlan, FaultPlan};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hios-serve-restart-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    fs::create_dir_all(&p).expect("create scratch dir");
    p.join("plans.log")
}

/// Removes the directory [`scratch`] made for `log`; a test calls it once
/// it has passed.
fn tidy(log: &Path) {
    fs::remove_dir_all(log.parent().unwrap()).expect("remove scratch dir");
}

fn model(seed: u64, ops: usize) -> ServedModel {
    let graph = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: 6,
        deps: ops * 2,
        seed,
    })
    .unwrap();
    let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
    ServedModel {
        name: format!("dag{seed}"),
        graph,
        cost,
    }
}

fn trace(models: usize, requests: usize) -> Vec<Request> {
    (0..requests)
        .map(|i| Request {
            id: i as u64,
            model: i % models,
            arrival_ms: 3.0 * i as f64,
            deadline_ms: 3.0 * i as f64 + 500.0,
            class: PriorityClass::Gold,
        })
        .collect()
}

fn first_latency(out: &hios_serve::ServeOutcome) -> f64 {
    match &out.records[0].disposition {
        hios_serve::Disposition::Completed { latency_ms, .. } => *latency_ms,
        other => panic!("first request must complete, got {other:?}"),
    }
}

#[test]
fn restart_warm_starts_from_the_plan_log() {
    // Models big enough that a store hit (0.25 ms modeled) undercuts
    // even the greedy rung (0.004 ms/op), so the cold/warm comparison
    // is strict whatever rung the cold run could afford.
    let models = vec![model(1, 100), model(2, 120)];
    let path = scratch();
    let mut cfg = ServeConfig::new(3);
    cfg.store = Some(StoreConfig::at(&path));
    let tr = trace(models.len(), 24);

    // Cold process: empty log, every plan computed.
    let cold = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert_eq!(cold.report.completed, 24);
    assert_eq!(cold.report.rungs[Rung::Store.index()], 0);
    assert!(cold.report.store.puts_full >= 2, "plans must persist");

    // An empty store must not perturb serving: a store-less run is
    // bit-identical (misses are free on the virtual clock).
    let mut no_store = ServeConfig::new(3);
    no_store.policy = Policy::Anytime;
    let plain = serve(&models, &tr, &FaultPlan::new(vec![]), &no_store).unwrap();
    assert_eq!(plain.report.history_digest, cold.report.history_digest);

    // Kill + restart: fresh process state, same log.
    let warm = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert_eq!(warm.report.completed, 24);
    assert!(
        warm.report.rungs[Rung::Store.index()] >= 2,
        "each model's first dispatch must warm-start, rungs {:?}",
        warm.report.rungs
    );
    assert_eq!(warm.report.store.quarantines, 0);
    assert!(
        first_latency(&warm) < first_latency(&cold),
        "warm first-request latency {} must beat cold {}",
        first_latency(&warm),
        first_latency(&cold)
    );
    tidy(&path);
}

#[test]
fn corrupted_log_degrades_to_cold_start_not_to_wrong_plans() {
    let models = vec![model(3, 36)];
    let path = scratch();
    let mut cfg = ServeConfig::new(3);
    cfg.store = Some(StoreConfig::at(&path));
    let tr = trace(1, 12);

    let cold = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert!(cold.report.store.puts_full >= 1);

    // Flip a bit inside the first record's payload: the whole suffix is
    // quarantined on open and the store restarts effectively empty.
    let mut bytes = fs::read(&path).unwrap();
    bytes[40] ^= 0x04;
    fs::write(&path, &bytes).unwrap();

    let hurt = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert_eq!(
        hurt.report.completed, 12,
        "corruption must not fail serving"
    );
    assert_eq!(
        hurt.report.rungs[Rung::Store.index()],
        0,
        "no stored plan survived; none may be served"
    );
    // With no usable warm start, the run is the cold run, bit for bit.
    assert_eq!(hurt.report.history_digest, cold.report.history_digest);
    // The log self-repaired: a further restart is warm again.
    let healed = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert!(healed.report.rungs[Rung::Store.index()] >= 1);
    tidy(&path);
}

#[test]
fn recalibration_bumps_the_epoch_and_restart_stays_safe() {
    // Sustained drift forces recalibrations (epoch bumps); plans stored
    // under stale epochs must purge rather than warm-start the restart
    // into old prices, while epoch-0 plans stay available.
    let models = vec![model(3, 36)];
    let path = scratch();
    let mut cfg = ServeConfig::new(3);
    cfg.store = Some(StoreConfig::at(&path));
    cfg.calibration = Some(hios_cost::CalibrationConfig::default());
    let tr: Vec<Request> = (0..60)
        .map(|i| Request {
            id: i as u64,
            model: 0,
            arrival_ms: 5.0 * i as f64,
            deadline_ms: 5.0 * i as f64 + 400.0,
            class: PriorityClass::Gold,
        })
        .collect();
    let drift = DriftPlan::ramp(2, 2.0, 10.0, 1.0, 4.0, 4);
    let first = serve_drift(&models, &tr, &FaultPlan::new(vec![]), &drift, &cfg).unwrap();
    assert!(first.report.recalibrations > 0, "drift must recalibrate");
    assert!(
        first.report.store.invalidated > 0 || first.report.recalibrations == 1,
        "stale-epoch plans should purge once a second epoch exists"
    );

    // Restart (epoch resets to 0): the run must complete and only
    // digest-verified plans may serve.
    let second = serve_drift(&models, &tr, &FaultPlan::new(vec![]), &drift, &cfg).unwrap();
    assert_eq!(second.records.len(), 60);
    assert_eq!(second.report.store.quarantines, 0);
    assert!(second.report.rungs[Rung::Store.index()] >= 1);
    tidy(&path);
}

#[test]
fn bounded_cache_evictions_surface_in_the_report() {
    // Eight distinct models through a 2-entry cache: evictions must be
    // counted in the report, and the store keeps evicted plans warm.
    let models: Vec<ServedModel> = (0..8).map(|s| model(10 + s, 24)).collect();
    let path = scratch();
    let mut cfg = ServeConfig::new(2);
    cfg.ladder.cache_capacity = 2;
    cfg.store = Some(StoreConfig::at(&path));
    let tr = trace(models.len(), 32);
    let out = serve(&models, &tr, &FaultPlan::new(vec![]), &cfg).unwrap();
    assert_eq!(out.report.completed, 32);
    assert!(
        out.report.cache_evictions > 0,
        "8 models through 2 slots must evict"
    );
    assert!(
        out.report.rungs[Rung::Store.index()] > 0,
        "evicted plans must re-serve from the store, rungs {:?}",
        out.report.rungs
    );
    tidy(&path);
}
