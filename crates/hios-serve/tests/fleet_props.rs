//! Fleet routing/failover property tests (ISSUE 10 satellite).
//!
//! Random traces, fleet shapes, and cluster-fault scripts; the
//! invariants:
//!
//! 1. **Conservation**: every generated request ends in exactly one
//!    typed terminal disposition — none lost, none duplicated.
//! 2. **No double completion**: across every cluster's own record
//!    stream, a request id completes at most once — a hedged twin that
//!    loses is cancelled before it can record.
//! 3. **Replay**: re-running the same inputs reproduces the outcome
//!    stream digest bit-for-bit.
//!
//! `fleet_of_one_equals_serve` pins the layering itself: one cluster
//! behind a static-hash router with no hedging is exactly [`serve`].
//! `a_shuffled_trace_serves_like_its_sorted_self` pins the arrival
//! cursor: requests are routed by arrival instant, not trace position.
//!
//! A separate (non-property) test pins the digest across rayon thread
//! counts: the vendored rayon reads `RAYON_NUM_THREADS` per parallel
//! region, so one process can serve under 1 and 4 threads and compare.

use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::fleet::{FleetConfig, FleetFaults, serve_fleet};
use hios_serve::generate_trace_with_classes;
use hios_serve::router::RouterPolicy;
use hios_serve::{
    ClassMix, Disposition, PriorityClass, Request, ServeConfig, ServedModel, WorkloadConfig,
};
use hios_serve::{serve, trace_span_ms};
use hios_sim::{ClusterFaultEvent, ClusterFaultKind, FaultKind, FaultPlan};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// SplitMix64: derives fleet shape and fault script from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }
}

fn models() -> Vec<ServedModel> {
    [(5u64, 12), (6, 16)]
        .into_iter()
        .map(|(seed, ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: 4,
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
        })
        .collect()
}

fn trace(models: &[ServedModel], n: usize, rate: f64, seed: u64) -> Vec<Request> {
    let nominal: Vec<f64> = models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, 2))
        .collect();
    generate_trace_with_classes(
        &WorkloadConfig {
            requests: n,
            arrival_rate_rps: rate,
            deadline_factor: 5.0,
            seed,
        },
        &nominal,
        &ClassMix::default(),
    )
}

/// A random fleet + fault script derived from `seed`.
fn scenario(seed: u64, n: usize) -> (Vec<ServedModel>, Vec<Request>, FleetConfig, FleetFaults) {
    let mut mix = Mix(seed);
    let models = models();
    let clusters = 2 + mix.below(3) as usize; // 2..=4
    let rate = 40.0 + mix.below(80) as f64;
    let trace = trace(&models, n, rate, mix.next());
    let span = trace.last().map_or(100.0, |r| r.arrival_ms).max(1.0);

    let mut cfg = FleetConfig::new(clusters, 2);
    if mix.below(2) == 0 {
        cfg.router.policy = RouterPolicy::StaticHash;
        cfg.hedge = false;
    }
    cfg.router.seed = mix.next();

    let mut events = Vec::new();
    // Kill at most clusters−1, so validation always passes.
    let kills = mix.below(clusters as u64);
    let mut killable: Vec<usize> = (0..clusters).collect();
    for _ in 0..kills {
        let c = killable.remove(mix.below(killable.len() as u64) as usize);
        events.push(ClusterFaultEvent {
            at_ms: span * (0.2 + 0.6 * (mix.below(1000) as f64 / 1000.0)),
            cluster: c,
            kind: ClusterFaultKind::ClusterKill,
        });
    }
    if mix.below(2) == 0 {
        events.push(ClusterFaultEvent {
            at_ms: span * 0.3,
            cluster: mix.below(clusters as u64) as usize,
            kind: ClusterFaultKind::PartitionRouter {
                heal_ms: 1.0 + span * 0.2,
            },
        });
    }
    if mix.below(3) == 0 {
        events.push(ClusterFaultEvent {
            at_ms: span * 0.4,
            cluster: mix.below(clusters as u64) as usize,
            kind: ClusterFaultKind::ClusterDegrade {
                factor: 2.0 + mix.below(6) as f64,
            },
        });
    }
    let faults = FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: events,
    };
    (models, trace, cfg, faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_ends_in_exactly_one_terminal_disposition(
        (seed, n) in (0u64..u64::MAX, 30usize..150)
    ) {
        let (models, trace, cfg, faults) = scenario(seed, n);
        let out = serve_fleet(&models, &trace, &faults, &cfg).unwrap();

        // Conservation: one record per request, never lost, never
        // duplicated.
        prop_assert_eq!(out.records.len(), trace.len());
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.request.id).collect();
        ids.sort_unstable();
        let trace_ids: BTreeSet<u64> = trace.iter().map(|r| r.id).collect();
        prop_assert_eq!(trace_ids.len(), trace.len());
        for (got, want) in ids.iter().zip(trace_ids.iter()) {
            prop_assert_eq!(got, want);
        }

        // No double completion: across all clusters' record streams an
        // id completes at most once (a losing hedged twin is cancelled,
        // not recorded), and every cluster record belongs to the trace.
        let mut completed = BTreeSet::new();
        for cluster in &out.clusters {
            for rec in &cluster.records {
                prop_assert!(trace_ids.contains(&rec.request.id));
                if matches!(rec.disposition, Disposition::Completed { .. }) {
                    prop_assert!(completed.insert(rec.request.id));
                }
            }
        }

        // The fleet-level view agrees with the cluster-level streams.
        let fleet_completed: BTreeSet<u64> = out
            .records
            .iter()
            .filter(|r| r.disposition.completed())
            .map(|r| r.request.id)
            .collect();
        prop_assert_eq!(fleet_completed, completed);
    }

    #[test]
    fn replay_is_bit_identical((seed, n) in (0u64..u64::MAX, 30usize..100)) {
        let (models, trace, cfg, faults) = scenario(seed, n);
        let a = serve_fleet(&models, &trace, &faults, &cfg).unwrap();
        let b = serve_fleet(&models, &trace, &faults, &cfg).unwrap();
        prop_assert_eq!(a.report.history_digest, b.report.history_digest);
        prop_assert_eq!(a.report, b.report);
    }
}

#[test]
fn fleet_digest_is_identical_at_one_and_four_rayon_threads() {
    // (This test owns RAYON_NUM_THREADS; the property tests above never
    // touch it.)
    let run = |seed: u64| {
        let (models, trace, cfg, faults) = scenario(seed, 250);
        serve_fleet(&models, &trace, &faults, &cfg)
            .unwrap()
            .report
            .history_digest
    };
    for seed in [3u64, 1117] {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let d1 = run(seed);
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let d4 = run(seed);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(d1, d4, "seed {seed}: digest differs across thread counts");
    }
}

#[test]
fn a_shuffled_trace_serves_like_its_sorted_self() {
    let models = models();
    let nominal = bounds::combined_bound(&models[0].graph, &models[0].cost, 2);
    for seed in 1..=6u64 {
        let mut sorted = trace(&models, 200, 900.0, seed);
        // Tight Golds, so hedged twins are in play.
        for r in sorted.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
            r.deadline_ms = r.arrival_ms + 3.0 * nominal;
        }
        let span = trace_span_ms(&sorted);
        let faults = FleetFaults {
            per_cluster: Vec::new(),
            cluster_events: vec![
                ClusterFaultEvent {
                    at_ms: 0.3 * span,
                    cluster: 1,
                    kind: ClusterFaultKind::PartitionRouter {
                        heal_ms: 0.2 * span,
                    },
                },
                ClusterFaultEvent {
                    at_ms: 0.6 * span,
                    cluster: 0,
                    kind: ClusterFaultKind::ClusterKill,
                },
            ],
        };
        let cfg = FleetConfig::new(3, 2);
        // Distinct Poisson instants: any permutation is the same workload.
        let mut mix = Mix(seed);
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, mix.below(i as u64 + 1) as usize);
        }
        assert_ne!(shuffled, sorted);
        let a = serve_fleet(&models, &sorted, &faults, &cfg).unwrap();
        let b = serve_fleet(&models, &shuffled, &faults, &cfg).unwrap();
        assert!(a.report.hedges_issued > 0 && a.report.cluster_kills == 1);
        assert_eq!(a.report, b.report, "seed {seed}");
        assert_eq!(a.records, b.records, "seed {seed}");
    }
}

#[test]
fn fleet_of_one_equals_serve() {
    let models = models();
    let mut cfg = FleetConfig::new(1, 2);
    cfg.router.policy = RouterPolicy::StaticHash;
    cfg.hedge = false;
    // Light, near-capacity, and overloaded arrival rates.
    for rate in [40.0, 1_500.0, 20_000.0] {
        for seed in 1..=4u64 {
            let trace = trace(&models, 120, rate, seed);
            let fail = FaultPlan::single(
                0.5 * trace_span_ms(&trace),
                FaultKind::GpuFailStop { gpu: 1 },
            );
            for plan in [FaultPlan::none(), fail] {
                let faults = FleetFaults {
                    per_cluster: vec![plan.clone()],
                    cluster_events: Vec::new(),
                };
                let fleet = serve_fleet(&models, &trace, &faults, &cfg).unwrap();
                let alone = serve(&models, &trace, &plan, &ServeConfig::new(2)).unwrap();
                assert_eq!(
                    fleet.clusters[0].report,
                    alone.report,
                    "rate {rate}, seed {seed}, faulted {}",
                    !plan.events.is_empty()
                );
            }
        }
    }
}
