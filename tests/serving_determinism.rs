//! Replay of the serving loop: a fault-laden multi-tenant overload run,
//! served twice, must produce bit-identical per-request records (and
//! hence history digest) — its history is a pure function of
//! `(models, trace, faults, config)`.

use hios::core::bounds;
use hios::cost::AnalyticCostModel;
use hios::graph::{LayeredDagConfig, generate_layered_dag};
use hios::serve::{Policy, ServeConfig, ServedModel, WorkloadConfig, generate_trace, serve};
use hios::sim::{FaultEvent, FaultKind, FaultPlan};

#[test]
fn serving_history_replays_bit_for_bit() {
    let m = 3usize;
    let models: Vec<ServedModel> = [(31u64, 36usize), (32, 48)]
        .iter()
        .map(|&(seed, ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: 6,
                deps: 2 * ops,
                seed,
            })
            .unwrap();
            let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
            ServedModel {
                name: format!("tenant{seed}"),
                graph,
                cost,
            }
        })
        .collect();
    let nominal: Vec<f64> = models
        .iter()
        .map(|t| bounds::combined_bound(&t.graph, &t.cost, m))
        .collect();
    // Overloaded arrivals with mid-stream faults: the run exercises
    // admission sheds, every ladder rung, a breaker trip, in-place
    // repair, and recovery — the paths where nondeterminism would hide.
    let trace = generate_trace(
        &WorkloadConfig {
            requests: 120,
            arrival_rate_rps: 2000.0,
            deadline_factor: 600.0,
            seed: 23,
        },
        &nominal,
    );
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at_ms: 12.0,
            kind: FaultKind::LinkDegrade {
                from: 0,
                to: 1,
                factor: 4.0,
            },
        },
        FaultEvent {
            at_ms: 15.0,
            kind: FaultKind::GpuFailStop { gpu: m - 1 },
        },
    ]);
    let cfg = ServeConfig::new(m);

    let run = || serve(&models, &trace, &plan, &cfg).unwrap();
    let out1 = run();
    let out2 = run();

    // The scenario actually took the interesting paths …
    assert!(out1.report.breaker_opens >= 1, "fault must trip a breaker");
    assert!(out1.report.completed >= 1);
    assert_eq!(cfg.policy, Policy::Anytime);
    // … and both runs tell the identical story, bit for bit.
    assert_eq!(out1.records, out2.records);
    assert_eq!(out1.report, out2.report);
    assert_eq!(out1.report.history_digest, out2.report.history_digest);
}
