//! End-to-end overload hardening (ISSUE 8 tentpole acceptance): under
//! sustained overload the brownout controller must protect Gold
//! traffic — shedding Bronze (then Silver) deliberately instead of
//! letting every class collapse together — with a bounded number of
//! level transitions; and at nominal load the attached controller must
//! be invisible: bit-identical serving history with overload hardening
//! on or off.  Correlated-failure injection (a domain kill after a
//! flapping GPU) must leave every request terminated, escalate the
//! flapping GPU's quarantine, and replay bit-identically.

use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::{
    ClassMix, OverloadConfig, PriorityClass, Request, ServeConfig, ServeOutcome, ServedModel,
    WorkloadConfig, generate_trace_with_classes, serve,
};
use hios_sim::{DomainKill, FaultEvent, FaultKind, FaultPlan, FaultScript, FlapSpec, host_domains};

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

fn class_trace(models: &[ServedModel], requests: usize, rate: f64, factor: f64) -> Vec<Request> {
    let nominal: Vec<f64> = models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, GPUS))
        .collect();
    generate_trace_with_classes(
        &WorkloadConfig {
            requests,
            arrival_rate_rps: rate,
            deadline_factor: factor,
            seed: 17,
        },
        &nominal,
        &ClassMix::default(),
    )
}

fn run(models: &[ServedModel], reqs: &[Request], faults: &FaultPlan, harden: bool) -> ServeOutcome {
    let mut cfg = ServeConfig::new(GPUS);
    if harden {
        cfg.overload = Some(OverloadConfig::default());
    }
    serve(models, reqs, faults, &cfg).expect("well-formed serving setup")
}

#[test]
fn controller_at_nominal_load_is_digest_identical() {
    let models = vec![model(41, 36), model(42, 48)];
    let reqs = class_trace(&models, 80, 150.0, 12.0);
    let base = run(&models, &reqs, &FaultPlan::new(vec![]), false);
    let hardened = run(&models, &reqs, &FaultPlan::new(vec![]), true);
    assert_eq!(hardened.report.brownout.transitions, 0, "1x load escalated");
    assert_eq!(hardened.report.shed_brownout, 0);
    assert_eq!(hardened.report.shed_retry_budget, 0);
    assert_eq!(
        base.report.history_digest, hardened.report.history_digest,
        "an idle controller must not perturb the serving history"
    );
    assert_eq!(base.report.class_stats, hardened.report.class_stats);
}

#[test]
fn brownout_protects_gold_under_sustained_overload() {
    let models = vec![model(41, 36), model(42, 48)];
    // Arrivals far beyond capacity: an unhardened server queue-sheds
    // blindly and misses deadlines across every class.
    let reqs = class_trace(&models, 200, 4000.0, 60.0);
    let stat = run(&models, &reqs, &FaultPlan::new(vec![]), false);
    let brn = run(&models, &reqs, &FaultPlan::new(vec![]), true);
    assert_eq!(brn.records.len(), reqs.len());

    let gold = PriorityClass::Gold.index();
    assert!(brn.report.shed_brownout > 0, "overload never browned out");
    assert!(
        brn.report.brownout.max_level >= 2,
        "never reached ShedBronze"
    );
    assert!(
        brn.report.class_stats[gold].on_time >= stat.report.class_stats[gold].on_time,
        "brownout gold on-time {} < static {}",
        brn.report.class_stats[gold].on_time,
        stat.report.class_stats[gold].on_time,
    );
    // Hysteresis + dwell bound the transition rate: far fewer
    // transitions than outcome events.
    assert!(
        brn.report.brownout.transitions <= 32,
        "controller oscillated: {} transitions",
        brn.report.brownout.transitions
    );
    // The timeline telemetry is consistent with the transition count.
    assert_eq!(
        brn.report.brownout.timeline.len() as u64,
        brn.report.brownout.transitions + 1
    );

    // Deterministic replay, brownout and all.
    let again = run(&models, &reqs, &FaultPlan::new(vec![]), true);
    assert_eq!(brn.report.history_digest, again.report.history_digest);
    assert_eq!(brn.report.brownout, again.report.brownout);
}

#[test]
fn domain_kill_after_flapping_terminates_everything() {
    let models = vec![model(41, 36), model(42, 48)];
    // GPU 2 flaps four times (up interval longer than the breaker
    // reset, so each cycle closes the breaker and the re-trip lands
    // inside the flap window), then the two-GPU host dies outright.
    let script = FaultScript {
        domains: host_domains(GPUS, 2),
        kills: vec![DomainKill {
            at_ms: 160.0,
            domain: 0,
        }],
        flaps: vec![FlapSpec {
            gpu: 2,
            first_fail_ms: 10.0,
            down_ms: 6.0,
            up_ms: 30.0,
            cycles: 4,
        }],
        ..FaultScript::default()
    };
    let faults = script
        .compile(&models[0].graph, GPUS)
        .expect("valid fault script");
    let reqs = class_trace(&models, 120, 500.0, 60.0);
    let out = run(&models, &reqs, &faults, true);
    assert_eq!(out.records.len(), reqs.len(), "a request vanished");
    assert!(
        out.report.flap_escalations >= 1,
        "flapping GPU never escalated its quarantine"
    );
    assert!(out.report.breaker_opens >= 3, "kill must trip the host");
    let again = run(&models, &reqs, &faults, true);
    assert_eq!(out.report.history_digest, again.report.history_digest);
}

#[test]
fn exhausted_retry_budget_is_a_typed_shed() {
    let models = vec![model(6, 30)];
    let mut cfg = ServeConfig::new(2);
    cfg.overload = Some(OverloadConfig::default());
    // Two admissions in one budget window buy the floor's one retry and
    // no more (the fraction's share of two rounds down to zero).
    let trace: Vec<Request> = (0..2)
        .map(|id| Request {
            id,
            model: 0,
            arrival_ms: 0.0,
            deadline_ms: 1.0e6,
            class: PriorityClass::Gold,
        })
        .collect();
    // Hang the sink operator twice: the watchdog converts each hang into
    // a retry; the first is granted, the second denied by the
    // server-global guard.
    let hang = |at_ms| FaultEvent {
        at_ms,
        kind: FaultKind::OpHang {
            op: hios_graph::OpId(29),
        },
    };
    let faults = FaultPlan::new(vec![hang(0.2), hang(6.0)]);
    let out = serve(&models, &trace, &faults, &cfg).expect("well-formed serving setup");
    assert_eq!(out.report.completed, 1);
    assert_eq!(out.report.shed_retry_budget, 1);
    assert_eq!(out.report.retry_budget_denied, 1);
}
