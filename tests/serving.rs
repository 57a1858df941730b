//! Property-based coverage of the serving loop (`hios-serve`): on
//! arbitrary multi-tenant workloads under arbitrary seeded fault plans,
//! `serve` must always terminate, record exactly one typed disposition
//! per request in the trace, keep its aggregate report consistent with
//! those records, replay bit-identically from the same inputs, and
//! serve requests by arrival instant rather than by trace position.

use hios::core::bounds;
use hios::cost::{RandomCostConfig, random_cost_table};
use hios::graph::{LayeredDagConfig, generate_layered_dag};
use hios::serve::{
    Disposition, Policy, Request, ServeConfig, ServedModel, WorkloadConfig, generate_trace, serve,
};
use hios::sim::FaultPlan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: tenant shapes, a workload shape, a fault budget and a
/// scheduling policy — every seed independent so shrinking isolates the
/// failing dimension.  (Grouped into sub-tuples: seeds / workload shape /
/// fault-and-policy.)
#[allow(clippy::type_complexity)]
fn served_workload()
-> impl Strategy<Value = ((u64, u64, u64, u64), (usize, f64, f64, usize), (usize, u8))> {
    (
        (
            0u64..200, // DAG seed
            0u64..200, // cost seed
            0u64..200, // workload seed
            0u64..200, // fault seed
        ),
        (
            12usize..40,     // ops of the small tenant (large gets 1.5x)
            50.0..4000.0f64, // arrival rate, rps
            1.5..50.0f64,    // deadline factor
            10usize..60,     // requests
        ),
        (
            0usize..5, // fault count
            0u8..3,    // policy index
        ),
    )
}

fn tenants(dag_seed: u64, cost_seed: u64, ops: usize, m: usize) -> Vec<ServedModel> {
    [ops, ops + ops / 2]
        .iter()
        .enumerate()
        .map(|(i, &ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: 4,
                deps: 2 * ops,
                seed: dag_seed + i as u64,
            })
            .expect("feasible tenant DAG");
            let cost = random_cost_table(&graph, &RandomCostConfig::paper_default(cost_seed));
            // Sanity: the admission bound must be computable on arrival.
            assert!(bounds::combined_bound(&graph, &cost, m).is_finite());
            ServedModel {
                name: format!("tenant{i}"),
                graph,
                cost,
            }
        })
        .collect()
}

/// A seeded permutation of `trace` (whose ids are its positions) in
/// which requests sharing an arrival instant keep their relative order.
fn permuted(trace: &[Request], seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = trace.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    // Put each group of equal instants back in trace order, within the
    // positions the shuffle gave the group.
    for a in 0..out.len() {
        for b in a + 1..out.len() {
            if out[a].arrival_ms == out[b].arrival_ms && out[a].id > out[b].id {
                out.swap(a, b);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn serving_always_terminates_with_typed_outcomes(
        ((dag_seed, cost_seed, wl_seed, fault_seed),
         (ops, rate, factor, requests),
         (faults, policy)) in served_workload()
    ) {
        let m = 3usize;
        let models = tenants(dag_seed, cost_seed, ops, m);
        let nominal: Vec<f64> = models
            .iter()
            .map(|t| bounds::combined_bound(&t.graph, &t.cost, m))
            .collect();
        let mut trace = generate_trace(
            &WorkloadConfig {
                requests,
                arrival_rate_rps: rate,
                deadline_factor: factor,
                seed: wl_seed,
            },
            &nominal,
        );
        // A third of the cases carry duplicated arrival instants: every
        // third request arrives together with its predecessor.
        if wl_seed % 3 == 0 {
            for i in (2..trace.len()).step_by(3) {
                trace[i].arrival_ms = trace[i - 1].arrival_ms;
            }
        }
        // Faults land anywhere across the arrival span (plus slack so
        // some hit the drain phase); op hangs target the larger tenant.
        let horizon = trace.last().unwrap().arrival_ms + 50.0;
        let plan = FaultPlan::random(fault_seed, &models[1].graph, m, horizon, faults);
        prop_assert!(plan.validate(&models[1].graph, m).is_ok());

        let mut cfg = ServeConfig::new(m);
        cfg.policy = [Policy::Anytime, Policy::FixedFullLp, Policy::GreedyOnly]
            [usize::from(policy)];

        // 1. The loop terminates with a typed outcome per request.
        let out = serve(&models, &trace, &plan, &cfg).unwrap();
        prop_assert_eq!(out.records.len(), trace.len());
        for (rec, req) in out.records.iter().zip(&trace) {
            prop_assert_eq!(rec.request.id, req.id);
            match &rec.disposition {
                Disposition::Completed { finish_ms, latency_ms, attempts, .. } => {
                    prop_assert!(finish_ms.is_finite() && *finish_ms >= req.arrival_ms);
                    prop_assert!(latency_ms.is_finite() && *latency_ms >= 0.0);
                    prop_assert!(*attempts >= 1);
                }
                Disposition::Shed { at_ms, .. } => {
                    prop_assert!(at_ms.is_finite() && *at_ms >= req.arrival_ms);
                }
            }
        }

        // 2. The report is consistent with the records.
        let r = &out.report;
        prop_assert_eq!(r.total, trace.len());
        prop_assert_eq!(
            r.completed + r.shed_queue + r.shed_deadline + r.shed_retries,
            r.total
        );
        prop_assert!(r.on_time <= r.completed);
        prop_assert!(r.horizon_ms.is_finite() && r.horizon_ms >= 0.0);
        prop_assert!(r.attempts >= r.completed as u64);

        // 3. Replay is bit-identical: same inputs, same history.
        let replay = serve(&models, &trace, &plan, &cfg).unwrap();
        prop_assert_eq!(replay.report.history_digest, r.history_digest);
        prop_assert_eq!(replay.records, out.records);

        // 4. Requests are served by arrival instant, trace position only
        // breaking ties: a shuffled trace serves to the same report.
        let shuffled = permuted(&trace, wl_seed ^ (fault_seed << 32));
        let reordered = serve(&models, &shuffled, &plan, &cfg).unwrap();
        prop_assert_eq!(&reordered.report, r);
        prop_assert_eq!(reordered.records, out.records);
    }
}
