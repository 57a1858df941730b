//! Every persisted or pinned identity, pinned to exact bits.
//!
//! Graph and platform fingerprints key the plan cache and the durable
//! plan log, `content_digest` is what the store verifies a plan against
//! before serving it, and the history digests pin the goldens and the
//! benchmark's outputs.  A run always agrees with itself, so a change to
//! what one of these hashes would otherwise pass every other test while
//! plan logs written by an older build silently stop hitting.  The
//! literals below were captured once and must never be edited to make a
//! change pass: a new byte stream is a new data format.
//!
//! The crate-private identities are pinned beside their code: the plan
//! log's frame checksum in `hios-store/src/log.rs` and the retry jitter's
//! `unit_hash` in `hios-serve/src/retry.rs`.

use hios::core::{Algorithm, SchedulerOptions, graph_fingerprint, run_scheduler};
use hios::cost::{AnalyticCostModel, Calibrator, CostTable, Platform, platform_table};
use hios::graph::{Graph, LayeredDagConfig, OpId, generate_layered_dag};
use hios::models::{ModelConfig, inception_v3};
use hios::serve::{
    Disposition, FleetConfig, FleetFaults, PriorityClass, Request, RequestRecord, Router,
    RouterConfig, ServeError, ServedModel, ShedReason, WorkloadConfig, generate_trace,
    history_digest, serve_fleet,
};
use hios::sim::{ClusterFaultEvent, ClusterFaultKind};

fn dag(seed: u64) -> Graph {
    generate_layered_dag(&LayeredDagConfig {
        ops: 40,
        layers: 6,
        deps: 80,
        seed,
    })
    .expect("feasible layered DAG")
}

fn a40(g: &Graph) -> CostTable {
    AnalyticCostModel::a40_nvlink().build_table(g)
}

fn hex(x: u64) -> String {
    format!("{x:#018x}")
}

#[test]
fn graph_fingerprints() {
    assert_eq!(
        hex(graph_fingerprint(&inception_v3(&ModelConfig::default()))),
        "0x49d238ff054f1f4c"
    );
    assert_eq!(hex(graph_fingerprint(&dag(7))), "0xfdb60030763c66c4");
}

#[test]
fn platform_fingerprints() {
    let g = dag(7);
    assert_eq!(hex(a40(&g).platform_fingerprint()), "0xff409d8c71be253e");
    let mixed = platform_table(&Platform::mixed_a40_v100s(), &g).unwrap();
    assert_eq!(hex(mixed.platform_fingerprint()), "0x9cdce8dbc3916d48");
}

#[test]
fn calibrator_fingerprints() {
    let mut cal = Calibrator::new(3, 40);
    assert_eq!(hex(cal.fingerprint()), "0x4f552f9b5fe0636e");
    cal.observe(1, OpId(5), 2.5, 1.0).unwrap();
    assert_eq!(hex(cal.fingerprint()), "0x1b05181170b23e4e");
}

#[test]
fn hios_lp_content_digest() {
    let g = dag(7);
    let out = run_scheduler(Algorithm::HiosLp, &g, &a40(&g), &SchedulerOptions::new(2)).unwrap();
    assert_eq!(hex(out.schedule.content_digest()), "0x6b60f06bbbfd841f");
}

#[test]
fn history_digest_of_fixed_records() {
    let request = |id: u64| Request {
        id,
        model: (id % 3) as usize,
        arrival_ms: id as f64 * 1.25,
        deadline_ms: id as f64 * 1.25 + 40.0,
        class: PriorityClass::Silver,
    };
    let completed = |id: u64, met_deadline: bool| RequestRecord {
        request: request(id),
        disposition: Disposition::Completed {
            finish_ms: id as f64 * 1.25 + 7.5,
            latency_ms: 7.5,
            attempts: 1 + (id % 2) as u32,
            met_deadline,
            repairs: (id % 3) as u32,
        },
    };
    let shed = |id: u64, reason: ShedReason| RequestRecord {
        request: request(id),
        disposition: Disposition::Shed {
            at_ms: id as f64 * 1.25 + 0.5,
            reason,
        },
    };
    let records = vec![
        completed(0, true),
        shed(1, ShedReason::QueueFull { capacity: 8 }),
        shed(
            2,
            ShedReason::DeadlineUnmeetable {
                bound_finish_ms: 51.0,
            },
        ),
        completed(3, false),
        shed(
            4,
            ShedReason::RetriesExhausted {
                attempts: 3,
                last_error: Box::new(ServeError::GpuFault { gpu: 1 }),
            },
        ),
        shed(5, ShedReason::Brownout { level: 2 }),
        shed(
            6,
            ShedReason::RetryBudgetExhausted {
                attempts: 2,
                last_error: Box::new(ServeError::NoCapacity),
            },
        ),
        completed(7, true),
    ];
    assert_eq!(hex(history_digest(&records)), "0x64506941946d24d6");
    assert_eq!(hex(history_digest(&[])), "0xcbf29ce484222325");
}

#[test]
fn small_fleet_history_digest() {
    let models: Vec<ServedModel> = (1..=3)
        .map(|seed| {
            let graph = dag(seed);
            let cost = a40(&graph);
            ServedModel {
                name: format!("tenant{seed}"),
                graph,
                cost,
            }
        })
        .collect();
    let nominal = vec![1.0; models.len()];
    let trace = generate_trace(
        &WorkloadConfig {
            requests: 60,
            arrival_rate_rps: 400.0,
            deadline_factor: 20.0,
            seed: 5,
        },
        &nominal,
    );
    let faults = FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: vec![ClusterFaultEvent {
            at_ms: 50.0,
            cluster: 0,
            kind: ClusterFaultKind::ClusterKill,
        }],
    };
    let out = serve_fleet(&models, &trace, &faults, &FleetConfig::new(3, 2)).unwrap();
    assert_eq!(out.records.len(), 60);
    assert_eq!(out.report.cluster_kills, 1);
    assert_eq!(hex(out.report.history_digest), "0x683519438ae38298");
}

#[test]
fn rendezvous_rankings() {
    let router = Router::new(RouterConfig::default(), 5).unwrap();
    let ranked: Vec<Vec<usize>> = (0..4).map(|tenant| router.ranked(tenant)).collect();
    assert_eq!(
        ranked,
        vec![
            vec![4, 0, 2, 3, 1],
            vec![3, 2, 4, 0, 1],
            vec![1, 3, 2, 4, 0],
            vec![2, 4, 3, 1, 0],
        ]
    );
}
