//! `fleet`: fleet serving with failure-aware routing, cluster failover,
//! and hedged dispatch (`hios-serve::fleet`).
//!
//! Four independent clusters — each its own `hios-sim` platform,
//! breakers, and store-less serve loop — sit behind a router doing
//! per-tenant rendezvous hashing with power-of-two-choices on queue
//! depth, driven by heartbeat-EWMA health.  The sweep crosses router
//! policy × cluster-fault shape on one shared class-mixed trace:
//!
//! * `failover` — health-filtered routing, kill-time queue drain with
//!   deadline-checked re-routing, hedged dispatch for tight-slack Gold;
//! * `static` — the ablation: pure consistent hashing, health-blind, no
//!   failover, no hedging.
//!
//! Fault shapes: `none`, `cluster-kill` (the cluster that is primary
//! for the most tenants dies at half the arrival span), `partition`
//! (the router loses that cluster for 15% of the span), and `degrade`
//! (all its GPUs slow 4× mid-run).  The arrival rate is calibrated: a
//! saturating probe measures one cluster's sustained service rate and
//! the fleet runs at 55% of four clusters' aggregate, so losing one of
//! four leaves survivors under nominal capacity — failover has real
//! headroom, and the ablation's losses are the router's fault alone.
//! Every eighth Gold request carries a tight deadline (under the hedge
//! slack threshold), so hedged dispatch runs against real traffic.
//!
//! Headline criteria:
//!
//! * `gold_goodput_kept` — under the mid-run kill, failover keeps Gold
//!   goodput ≥ 0.95× the fault-free failover run;
//! * `static_strictly_worse` — the static-hash ablation completes
//!   strictly fewer requests on time in every kill cell and loses every
//!   post-kill request routed to the dead cluster;
//! * `zero_lost` — every cell accounts for every request with exactly
//!   one typed disposition;
//! * `deterministic` — the fault-free fleet run is digest-identical
//!   across repetitions and rayon thread counts.
//!
//! `--validate` turns all four headline criteria into hard assertions.

use crate::study::{
    Headlines, Row, Study, class_col, class_trace, col, layered_tenants, nominal_bounds,
    probe_capacity_rps,
};
use crate::{RunCfg, Table};
use hios_serve::fleet::{FleetConfig, FleetFaults, FleetOutcome, serve_fleet};
use hios_serve::{
    FleetDisposition, FleetReport, FleetShedReason, PriorityClass, Request, Router, RouterConfig,
    RouterPolicy, ServedModel, WorkloadConfig, trace_span_ms,
};
use hios_sim::{ClusterFaultEvent, ClusterFaultKind};
use rayon::prelude::*;

/// Clusters in the fleet.
const CLUSTERS: usize = 4;

/// GPUs per cluster.
const GPUS_PER_CLUSTER: usize = 3;

/// Deadline slack factor over the nominal bound.
const DEADLINE_FACTOR: f64 = 25.0;

/// Every eighth Gold request gets this tight deadline factor instead —
/// under the default hedge threshold (4× the admission bound), so the
/// deadline-critical slice of Gold traffic exercises hedged dispatch.
const TIGHT_FACTOR: f64 = 3.6;

/// Fleet load as a fraction of the four clusters' aggregate calibrated
/// service rate: 55%, so queues are real (kill-time drains have work
/// to re-route) while three survivors still absorb a dead cluster's
/// tenants below saturation.
const LOAD_FRACTION: f64 = 0.55;

/// The cluster-fault shapes (`--smoke` runs only the first two).
const SHAPES: [&str; 4] = ["none", "cluster-kill", "partition", "degrade"];

/// One cell of the sweep.
#[derive(Clone, Copy)]
struct CellCfg {
    /// Fault shape name.
    shape: &'static str,
    /// Whether the router fails over (vs the static-hash ablation).
    failover: bool,
}

/// One cell's outcome.
struct CellOut {
    cfg: CellCfg,
    report: FleetReport,
    /// Requests in the trace minus records produced (must be 0).
    lost: i64,
    /// For the static kill cell: whether every post-kill request routed
    /// to the dead cluster was lost to it (the ablation's signature).
    static_lost_all_on_dead: Option<bool>,
}

/// Six tenant models, as `(seed, ops)`: enough to spread over four
/// clusters.
const TENANTS: [(u64, usize); 6] = [(61, 24), (62, 30), (63, 20), (64, 36), (65, 26), (66, 32)];

/// The fleet arrival rate: [`LOAD_FRACTION`] of four clusters' aggregate
/// probed service rate.
fn fleet_rate_rps(models: &[ServedModel]) -> f64 {
    LOAD_FRACTION * CLUSTERS as f64 * probe_capacity_rps(models, GPUS_PER_CLUSTER, 150, 29)
}

/// Requests in the burst landing exactly at the kill instant.
const BURST: usize = 48;

/// The shared trace: class-mixed Poisson arrivals at the calibrated
/// rate, with two deterministic edits.  Every eighth Gold request's
/// deadline is tightened to [`TIGHT_FACTOR`]× its bound so hedged
/// dispatch has deadline-critical traffic to protect.  And a
/// [`BURST`]-request Bronze burst lands at exactly half the span — the
/// kill instant.  Arrivals beat same-timestamp fault events (insertion
/// order breaks event-queue ties), so the burst is admitted, the kill
/// catches it queued, and the drain's re-route path runs against real
/// backlog instead of whatever the queue happens to hold.
fn build_trace(models: &[ServedModel], requests: usize, rate: f64) -> Vec<Request> {
    let nominal = nominal_bounds(models, GPUS_PER_CLUSTER);
    let mut trace = class_trace(
        models,
        GPUS_PER_CLUSTER,
        &WorkloadConfig {
            requests,
            arrival_rate_rps: rate,
            deadline_factor: DEADLINE_FACTOR,
            seed: 31,
        },
    );
    for r in &mut trace {
        if r.class == PriorityClass::Gold && r.id % 8 == 0 {
            r.deadline_ms = r.arrival_ms + TIGHT_FACTOR * nominal[r.model];
        }
    }
    // The burst sits mid-trace, so the span (last arrival) is unchanged
    // and `0.5 * span` here is bit-identical to the kill time computed
    // in `faults_for`.
    let burst_at = 0.5 * trace_span_ms(&trace);
    let at = trace.partition_point(|r| r.arrival_ms <= burst_at);
    let burst = (0..BURST).map(|i| {
        let model = i % models.len();
        Request {
            id: requests as u64 + i as u64,
            model,
            arrival_ms: burst_at,
            deadline_ms: burst_at + DEADLINE_FACTOR * nominal[model],
            class: PriorityClass::Bronze,
        }
    });
    trace.splice(at..at, burst);
    trace
}

/// The cluster that is the rendezvous primary for the most tenants —
/// the worst single cluster to lose.
fn hottest_cluster(models: &[ServedModel]) -> usize {
    let router = Router::new(RouterConfig::default(), CLUSTERS).expect("valid fleet size");
    let mut tenants_on = [0usize; CLUSTERS];
    for tenant in 0..models.len() {
        tenants_on[router.static_target(tenant as u64)] += 1;
    }
    (0..CLUSTERS)
        .max_by_key(|&c| (tenants_on[c], std::cmp::Reverse(c)))
        .expect("non-empty fleet")
}

/// The cluster-fault script of a shape, anchored to the arrival span.
fn faults_for(shape: &'static str, span_ms: f64, hot: usize) -> FleetFaults {
    let events = match shape {
        "none" => vec![],
        "cluster-kill" => vec![ClusterFaultEvent {
            at_ms: 0.5 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::ClusterKill,
        }],
        "partition" => vec![ClusterFaultEvent {
            at_ms: 0.35 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::PartitionRouter {
                heal_ms: 0.15 * span_ms,
            },
        }],
        "degrade" => vec![ClusterFaultEvent {
            at_ms: 0.4 * span_ms,
            cluster: hot,
            kind: ClusterFaultKind::ClusterDegrade { factor: 4.0 },
        }],
        other => panic!("unknown fault shape {other}"),
    };
    FleetFaults {
        per_cluster: Vec::new(),
        cluster_events: events,
    }
}

fn fleet_config(failover: bool) -> FleetConfig {
    let mut cfg = FleetConfig::new(CLUSTERS, GPUS_PER_CLUSTER);
    if !failover {
        cfg.router.policy = RouterPolicy::StaticHash;
        cfg.hedge = false;
    }
    cfg
}

fn run_fleet(
    models: &[ServedModel],
    trace: &[Request],
    shape: &'static str,
    failover: bool,
    hot: usize,
) -> FleetOutcome {
    let faults = faults_for(shape, trace_span_ms(trace), hot);
    serve_fleet(models, trace, &faults, &fleet_config(failover)).expect("well-formed fleet setup")
}

fn run_cell(models: &[ServedModel], trace: &[Request], c: CellCfg, hot: usize) -> CellOut {
    let out = run_fleet(models, trace, c.shape, c.failover, hot);
    let lost = trace.len() as i64 - out.records.len() as i64;
    // The ablation's signature: every post-kill request whose static
    // hash lands on the dead cluster dies with it.
    let static_lost_all_on_dead = (!c.failover && c.shape == "cluster-kill").then(|| {
        let router = Router::new(RouterConfig::default(), CLUSTERS).expect("valid fleet size");
        let kill_ms = 0.5 * trace_span_ms(trace);
        out.records
            .iter()
            .filter(|r| {
                r.request.arrival_ms >= kill_ms
                    && router.static_target(r.request.model as u64) == hot
            })
            .all(|r| {
                matches!(
                    r.disposition.terminal(),
                    FleetDisposition::Shed {
                        reason: FleetShedReason::DeadCluster { .. },
                        ..
                    }
                )
            })
    });
    CellOut {
        cfg: c,
        report: out.report,
        lost,
        static_lost_all_on_dead,
    }
}

impl CellOut {
    fn row(&self) -> Row {
        let (c, r) = (&self.cfg, &self.report);
        let [gold, silver, bronze] = &r.class_stats;
        vec![
            col("fault", c.shape),
            col("policy", if c.failover { "failover" } else { "static" }),
            col("total", r.total).json_only(),
            col("completed", r.completed).json_only(),
            col("on_time", r.on_time),
            col("shed", r.shed),
            col("lost", self.lost).json_only(),
            col("miss_rate", r.miss_rate).json_only(),
            col("goodput_rps", r.goodput_rps).json_only(),
            class_col("gold", gold).csv_as("gold_ontime"),
            class_col("silver", silver).json_only(),
            class_col("bronze", bronze).json_only(),
            col("rerouted", r.rerouted),
            col("failover_sheds", r.failover_sheds).csv_as("fo_sheds"),
            col("dead_cluster_sheds", r.dead_cluster_sheds).csv_as("dead_sheds"),
            col("partitioned_sheds", r.partitioned_sheds).json_only(),
            col("backpressure_sheds", r.backpressure_sheds).json_only(),
            col("hedges_issued", r.hedges_issued).csv_as("hedges"),
            col("hedge_wins_secondary", r.hedge_wins_secondary).csv_as("hedge_wins"),
            col("hedge_cancelled", r.hedge_cancelled).json_only(),
            col("cluster_kills", r.cluster_kills).json_only(),
            col("partitions", r.partitions).json_only(),
            col("history_digest", format!("{:016x}", r.history_digest)).json_only(),
            col("gold_p99_ms", gold.p99_ms).dp(3).csv_only(),
        ]
    }
}

/// Folds the acceptance headlines over the grid.
fn verdict(outs: &[CellOut]) -> Headlines {
    let find = |shape: &str, failover: bool| {
        outs.iter()
            .find(|o| o.cfg.shape == shape && o.cfg.failover == failover)
    };
    let baseline = find("none", true).expect("fault-free failover cell");
    let killed = find("cluster-kill", true).expect("kill failover cell");
    // Failover Gold goodput under the kill ÷ fault-free Gold goodput.
    let gold = PriorityClass::Gold.index();
    let base_gold = baseline.report.class_stats[gold].goodput_rps;
    let gold_goodput_ratio = if base_gold > 0.0 {
        killed.report.class_stats[gold].goodput_rps / base_gold
    } else {
        0.0
    };

    // Static strictly worse in every kill cell, and it lost every
    // post-kill request routed to the dead cluster.
    let mut static_strictly_worse = true;
    for o in outs.iter().filter(|o| !o.cfg.failover) {
        let Some(fo) = find(o.cfg.shape, true) else {
            continue;
        };
        if o.cfg.shape == "cluster-kill" {
            static_strictly_worse &= o.report.on_time < fo.report.on_time;
            static_strictly_worse &= o.report.dead_cluster_sheds > 0;
            static_strictly_worse &= fo.report.dead_cluster_sheds == 0;
            static_strictly_worse &= o.static_lost_all_on_dead == Some(true);
        }
    }

    let mut h = Headlines::default();
    h.metric("gold_goodput_ratio", gold_goodput_ratio);
    h.criterion(
        "gold_goodput_kept",
        gold_goodput_ratio >= 0.95,
        format_args!(
            "failover must keep Gold goodput >= 0.95x the no-fault run, got {gold_goodput_ratio:.4}"
        ),
    );
    h.criterion(
        "static_strictly_worse",
        static_strictly_worse,
        "the static-hash ablation must be strictly worse in every kill cell",
    );
    h.criterion(
        "zero_lost",
        outs.iter().all(|o| o.lost == 0),
        "every request must end in exactly one record",
    );
    h
}

/// The `fleet` experiment.
pub fn fleet(cfg: &RunCfg) -> Table {
    let models = layered_tenants(&TENANTS);
    let rate = fleet_rate_rps(&models);
    let hot = hottest_cluster(&models);
    let requests = if cfg.smoke { 2_000 } else { 100_000 };
    let shapes = if cfg.smoke { &SHAPES[..2] } else { &SHAPES[..] };
    let trace = build_trace(&models, requests, rate);

    let mut cells: Vec<CellCfg> = Vec::new();
    for &shape in shapes {
        for failover in [true, false] {
            cells.push(CellCfg { shape, failover });
        }
    }
    let outs: Vec<CellOut> = cells
        .into_par_iter()
        .map(|c| run_cell(&models, &trace, c, hot))
        .collect();
    let mut headline = verdict(&outs);

    // Determinism: the fault-free failover run must be digest-identical
    // across repetitions and rayon thread counts.  (Sequential on
    // purpose: RAYON_NUM_THREADS is process-global.)
    let base_digest = outs
        .iter()
        .find(|o| o.cfg.shape == "none" && o.cfg.failover)
        .expect("fault-free failover cell")
        .report
        .history_digest;
    let rerun = |threads: Option<&str>| {
        if let Some(n) = threads {
            std::env::set_var("RAYON_NUM_THREADS", n);
        }
        let out = run_fleet(&models, &trace, "none", true, hot);
        std::env::remove_var("RAYON_NUM_THREADS");
        out.report.history_digest
    };
    let deterministic = [None, Some("1"), Some("4")]
        .into_iter()
        .all(|threads| rerun(threads) == base_digest);

    headline.criterion(
        "deterministic",
        deterministic,
        "fault-free fleet run must be digest-identical across reps and thread counts",
    );

    Study::new(
        "fleet",
        "Fleet serving: failure-aware routing + failover + hedging vs static hashing",
    )
    .meta("clusters", CLUSTERS)
    .meta("gpus_per_cluster", GPUS_PER_CLUSTER)
    .meta("smoke", cfg.smoke)
    .meta("requests", requests)
    .meta("rate_rps", rate)
    .meta("load_fraction", LOAD_FRACTION)
    .meta("deadline_factor", DEADLINE_FACTOR)
    .meta("killed_cluster", hot)
    .finish(outs.iter().map(CellOut::row), headline, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_cell_headlines_hold_at_small_scale() {
        let models = layered_tenants(&TENANTS);
        let rate = fleet_rate_rps(&models);
        let hot = hottest_cluster(&models);
        let trace = build_trace(&models, 1_200, rate);
        let outs: Vec<CellOut> = [
            ("none", true),
            ("none", false),
            ("cluster-kill", true),
            ("cluster-kill", false),
        ]
        .iter()
        .map(|&(shape, failover)| run_cell(&models, &trace, CellCfg { shape, failover }, hot))
        .collect();
        verdict(&outs).assert_hold();
    }

    #[test]
    fn every_fault_shape_builds_a_valid_script() {
        for shape in SHAPES {
            let f = faults_for(shape, 500.0, 1);
            hios_sim::validate_cluster_events(&f.cluster_events, CLUSTERS).unwrap();
        }
    }
}
