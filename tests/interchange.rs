//! JSON interchange across the toolchain: graph, profile (cost table) and
//! schedule files — the contract between the paper's Python scheduler and
//! its C++ engine (§VI-A), kept here between crates.

use hios::core::{Algorithm, SchedulerOptions, evaluate, run_scheduler};
use hios::cost::{AnalyticCostModel, CostTable};
use hios::graph::json::{from_json, to_json};
use hios::models::{ModelConfig, inception_v3};

#[test]
fn full_artifact_round_trip() {
    let g = inception_v3(&ModelConfig::with_input(299));
    let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
    let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(2)).unwrap();

    // Graph round trip.
    let g2 = from_json(&to_json(&g)).expect("graph json");
    assert_eq!(g2.num_ops(), g.num_ops());
    assert_eq!(g2.num_edges(), g.num_edges());
    for v in g.op_ids() {
        assert_eq!(g2.node(v).name, g.node(v).name);
        assert_eq!(g2.node(v).output_shape, g.node(v).output_shape);
    }

    // Profile round trip: every field of the table survives.
    let cost2 = CostTable::from_json(&cost.to_json()).expect("profile json");
    assert_eq!(cost2, cost);

    // Schedule round trip, and the reloaded artifacts evaluate to the
    // same latency as the originals.
    let sched2 = hios::core::Schedule::from_json(&out.schedule.to_json()).expect("schedule json");
    let replay = evaluate(&g2, &cost2, &sched2).expect("feasible after reload");
    assert!((replay.latency - out.latency_ms).abs() < 1e-9);
}

#[test]
fn schedule_json_is_human_readable() {
    let g = inception_v3(&ModelConfig::with_input(299));
    let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
    let out = run_scheduler(Algorithm::HiosMr, &g, &cost, &SchedulerOptions::new(2)).unwrap();
    let json = out.schedule.to_json();
    assert!(json.contains("\"gpus\""));
    assert!(json.contains("\"stages\""));
    assert!(json.contains("\"ops\""));
}
