//! Helpers shared by the serving workloads: capacity calibration, the
//! simulated-time statistics, and the per-record output checks.

use crate::gen::{Popularity, TraceSpec, poisson_trace};
use crate::harness::percentile;
use hios_core::{Algorithm, SchedulerOptions, bounds, run_scheduler};
use hios_cost::CostTable;
use hios_graph::Graph;
use hios_serve::{
    Disposition, FleetDisposition, FleetRecord, PriorityClass, Request, RequestRecord, ServeConfig,
    ServedModel, serve,
};
use hios_sim::{FaultPlan, SimConfig, simulate};

/// How one request ended, reduced to what the metrics and checks need.
#[derive(Clone, Copy)]
pub struct Terminal {
    pub request: Request,
    /// Completion instant and latency from the scheduled arrival, when
    /// the request ran to completion.
    pub completed: Option<(f64, f64)>,
    /// The program's own verdict that it finished by its deadline.
    pub on_time: bool,
}

impl Terminal {
    /// The terminal of every record of a `serve` call.
    pub fn of_records(records: &[RequestRecord]) -> Vec<Terminal> {
        records.iter().map(Terminal::of_record).collect()
    }

    pub fn of_record(r: &RequestRecord) -> Terminal {
        match r.disposition {
            Disposition::Completed {
                finish_ms,
                latency_ms,
                met_deadline,
                ..
            } => Terminal {
                request: r.request,
                completed: Some((finish_ms, latency_ms)),
                on_time: met_deadline,
            },
            Disposition::Shed { .. } => Terminal {
                request: r.request,
                completed: None,
                on_time: false,
            },
        }
    }

    pub fn of_fleet_record(r: &FleetRecord) -> Terminal {
        match *r.disposition.terminal() {
            FleetDisposition::Completed {
                finish_ms,
                latency_ms,
                met_deadline,
                ..
            } => Terminal {
                request: r.request,
                completed: Some((finish_ms, latency_ms)),
                on_time: met_deadline,
            },
            _ => Terminal {
                request: r.request,
                completed: None,
                on_time: false,
            },
        }
    }
}

/// Simulated-time (virtual-clock) end-to-end statistics of one run.
/// Bit-exact for a seed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimStats {
    /// On-time completions ÷ requests sent (a shed or failed request
    /// misses).
    pub ok_frac: f64,
    /// Same, over the Gold class.
    pub gold_ok_frac: f64,
    /// Median virtual latency of completions, from the scheduled arrival.
    pub p50_ms: f64,
    /// 99th percentile of the same sample.
    pub p99_ms: f64,
    /// On-time completions per virtual second.
    pub goodput_rps: f64,
    /// Geometric mean over completions of the tenant's simulated
    /// Sequential latency ÷ the request's latency.
    pub speedup_vs_seq: f64,
    /// Completions behind the percentiles.
    pub samples: usize,
}

pub fn sim_stats(terminals: &[Terminal], horizon_ms: f64, seq_ms: &[f64]) -> SimStats {
    let total = terminals.len().max(1) as f64;
    let on_time = terminals.iter().filter(|t| t.on_time).count() as f64;
    let gold: Vec<&Terminal> = terminals
        .iter()
        .filter(|t| t.request.class == PriorityClass::Gold)
        .collect();
    let gold_on_time = gold.iter().filter(|t| t.on_time).count() as f64;
    let mut latencies = Vec::with_capacity(terminals.len());
    let mut log_speedup = 0.0f64;
    for t in terminals {
        if let Some((_, latency_ms)) = t.completed {
            latencies.push(latency_ms);
            log_speedup += (seq_ms[t.request.model] / latency_ms).ln();
        }
    }
    latencies.sort_by(f64::total_cmp);
    let samples = latencies.len();
    SimStats {
        ok_frac: on_time / total,
        gold_ok_frac: gold_on_time / gold.len().max(1) as f64,
        p50_ms: if samples > 0 {
            percentile(&latencies, 0.50)
        } else {
            0.0
        },
        p99_ms: if samples > 0 {
            percentile(&latencies, 0.99)
        } else {
            0.0
        },
        goodput_rps: if horizon_ms > 0.0 {
            on_time / (horizon_ms / 1000.0)
        } else {
            0.0
        },
        speedup_vs_seq: if samples > 0 {
            (log_speedup / samples as f64).exp()
        } else {
            0.0
        },
        samples,
    }
}

/// Output checks on the terminal records of one run: exactly one record
/// per request sent, and every on-time verdict backed by a finish instant
/// at or before the deadline (and every late verdict by one after it).
/// Returns the number of requests whose record is missing or wrong.
pub fn check_terminals(
    trace: &[Request],
    terminals: &[Terminal],
    failures: &mut Vec<String>,
) -> usize {
    let mut bad = 0usize;
    if terminals.len() != trace.len() {
        failures.push(format!(
            "{} terminal records for {} requests sent",
            terminals.len(),
            trace.len()
        ));
        bad += terminals.len().abs_diff(trace.len());
    }
    let mut sent: Vec<u64> = trace.iter().map(|r| r.id).collect();
    let mut seen: Vec<u64> = terminals.iter().map(|t| t.request.id).collect();
    sent.sort_unstable();
    seen.sort_unstable();
    if sent != seen {
        failures.push("terminal record ids differ from the ids sent".into());
        bad = bad.max(1);
    }
    let mut wrong_verdicts = 0usize;
    for t in terminals {
        if let Some((finish_ms, latency_ms)) = t.completed {
            let in_time = finish_ms <= t.request.deadline_ms;
            let latency_ok = (finish_ms - t.request.arrival_ms - latency_ms).abs() <= 1e-9;
            if in_time != t.on_time || !latency_ok {
                wrong_verdicts += 1;
            }
        } else if t.on_time {
            wrong_verdicts += 1;
        }
    }
    if wrong_verdicts > 0 {
        failures.push(format!(
            "{wrong_verdicts} records whose on-time verdict or latency contradicts their instants"
        ));
    }
    bad + wrong_verdicts
}

/// Provable lower-bound latency of each tenant on `m` GPUs — the
/// "nominal" latency deadlines are multiples of.
pub fn nominal_ms(models: &[ServedModel], m: usize) -> Vec<f64> {
    models
        .iter()
        .map(|model| bounds::combined_bound(&model.graph, &model.cost, m))
        .collect()
}

/// Simulated latency of the Sequential (one GPU, one operator at a
/// time) schedule of `graph`: the baseline `sim_speedup_vs_seq` divides by.
pub fn sequential_ms(graph: &Graph, cost: &CostTable) -> f64 {
    let mut opts = SchedulerOptions::new(1);
    opts.validate = false;
    let out =
        run_scheduler(Algorithm::Sequential, graph, cost, &opts).expect("sequential schedule");
    simulate(graph, cost, &out.schedule, &SimConfig::analytical())
        .expect("sequential schedule simulates")
        .makespan
}

/// [`sequential_ms`] of every tenant.
pub fn tenants_sequential_ms(models: &[ServedModel]) -> Vec<f64> {
    models
        .iter()
        .map(|model| sequential_ms(&model.graph, &model.cost))
        .collect()
}

/// Sustained service rate of one cluster under `cfg`, requests per
/// virtual second: a saturating probe (arrivals far faster than service,
/// no deadlines to miss, a queue that holds the whole probe) drawn from
/// the workload's own tenant popularity.
pub fn capacity_rps(models: &[ServedModel], cfg: &ServeConfig, popularity: Popularity) -> f64 {
    const PROBE: usize = 600;
    let trace = poisson_trace(
        &TraceSpec {
            requests: PROBE,
            rate_rps: 1.0e6,
            deadline_factor: 1.0e9,
            popularity,
            burst: None,
            seed: 29,
        },
        &nominal_ms(models, cfg.num_gpus),
    );
    let mut probe_cfg = cfg.clone();
    probe_cfg.queue_capacity = PROBE;
    probe_cfg.store = None;
    let out = serve(models, &trace, &FaultPlan::none(), &probe_cfg).expect("well-formed probe");
    assert_eq!(out.report.completed, PROBE, "the probe serves everything");
    1000.0 * out.report.completed as f64 / out.report.horizon_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, class: PriorityClass) -> Request {
        Request {
            id,
            model: 0,
            arrival_ms: 10.0,
            deadline_ms: 20.0,
            class,
        }
    }

    fn done(id: u64, class: PriorityClass, finish_ms: f64) -> Terminal {
        Terminal {
            request: request(id, class),
            completed: Some((finish_ms, finish_ms - 10.0)),
            on_time: finish_ms <= 20.0,
        }
    }

    fn shed(id: u64, class: PriorityClass) -> Terminal {
        Terminal {
            request: request(id, class),
            completed: None,
            on_time: false,
        }
    }

    #[test]
    fn a_shed_request_misses_and_percentiles_cover_completions_only() {
        use PriorityClass::*;
        let terminals = [
            done(0, Gold, 12.0),
            done(1, Gold, 25.0),
            shed(2, Bronze),
            done(3, Silver, 14.0),
        ];
        let s = sim_stats(&terminals, 2_000.0, &[8.0]);
        assert_eq!(s.ok_frac, 0.5);
        assert_eq!(s.gold_ok_frac, 0.5);
        assert_eq!(s.samples, 3);
        assert_eq!((s.p50_ms, s.p99_ms), (4.0, 15.0));
        assert_eq!(s.goodput_rps, 1.0);
        let geomean = ((8.0f64 / 2.0) * (8.0 / 15.0) * (8.0 / 4.0)).powf(1.0 / 3.0);
        assert!((s.speedup_vs_seq - geomean).abs() < 1e-12);
    }

    #[test]
    fn checks_catch_lost_duplicated_and_mislabelled_records() {
        use PriorityClass::*;
        let trace: Vec<Request> = (0..3).map(|id| request(id, Gold)).collect();
        let good = [done(0, Gold, 12.0), shed(1, Gold), done(2, Gold, 30.0)];
        let mut failures = Vec::new();
        assert_eq!(check_terminals(&trace, &good, &mut failures), 0);
        assert!(failures.is_empty());

        let twice = [good[0], good[0], good[2]];
        let mut late_but_on_time = good;
        late_but_on_time[2].on_time = true;
        for (what, bad) in [
            ("a lost request", &good[..2]),
            ("a double completion", &twice[..]),
            ("a late request called on time", &late_but_on_time[..]),
        ] {
            let mut failures = Vec::new();
            assert!(check_terminals(&trace, bad, &mut failures) > 0, "{what}");
            assert!(!failures.is_empty(), "{what}");
        }
    }
}
