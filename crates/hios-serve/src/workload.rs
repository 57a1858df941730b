//! Seeded multi-tenant arrival traces.
//!
//! Open-loop Poisson arrivals (exponential interarrival times via
//! inverse-CDF sampling of the seeded [`rand::rngs::StdRng`]) across a
//! set of tenant models, with per-request deadlines proportional to
//! each model's nominal fault-free latency.  The trace is a plain
//! `Vec<Request>` computed up front, so a workload is a pure function
//! of its config — the foundation of the serve loop's bit-identical
//! replay guarantee.
//!
//! SLO priority classes: [`generate_trace_with_classes`] draws each
//! request's [`PriorityClass`] from a seeded categorical distribution and
//! widens its deadline by a per-class multiplier (Gold keeps the tight
//! SLO, Bronze is best-effort).  [`generate_trace`] stays class-free (all
//! Gold), so pre-existing workloads are byte-for-byte unchanged.

use crate::request::{PriorityClass, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one open-loop arrival trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of requests in the trace.
    pub requests: usize,
    /// Mean arrival rate, requests per second.
    pub arrival_rate_rps: f64,
    /// Deadline = arrival + `deadline_factor` × the model's nominal
    /// latency.
    pub deadline_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Fraction of Gold arrivals.
const GOLD: f64 = 0.2;
/// Fraction of Silver arrivals.
const SILVER: f64 = 0.3;
/// Fraction of Bronze arrivals: the rest, so the three sum to 1.
const BRONZE: f64 = 1.0 - (GOLD + SILVER);
/// Per-class multiplier applied on top of
/// [`WorkloadConfig::deadline_factor`], indexed by
/// [`PriorityClass::index`]: Gold keeps the base SLO, Silver gets 1.5×,
/// Bronze 2.5× slack.
const DEADLINE_MULT: [f64; 3] = [1.0, 1.5, 2.5];

const _: () = {
    assert!(GOLD >= 0.0 && SILVER >= 0.0 && BRONZE >= 0.0);
    let mut i = 0;
    while i < DEADLINE_MULT.len() {
        assert!(DEADLINE_MULT[i] > 0.0 && DEADLINE_MULT[i].is_finite());
        i += 1;
    }
};

/// Switch of the SLO classes: [`generate_trace_with_classes`] draws
/// 20% Gold / 30% Silver / 50% Bronze.  The mix and the deadline
/// multipliers are this module's constants, checked at compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassMix {}

/// Draws a class from the categorical distribution via one uniform
/// sample.
fn draw(u: f64) -> PriorityClass {
    if u < GOLD {
        PriorityClass::Gold
    } else if u < GOLD + SILVER {
        PriorityClass::Silver
    } else {
        PriorityClass::Bronze
    }
}

/// Span of a trace: the last arrival instant, ms (`0` for an empty
/// trace — a zero-request workload has zero span, not a panic).
pub fn trace_span_ms(trace: &[Request]) -> f64 {
    trace.last().map_or(0.0, |r| r.arrival_ms)
}

/// Generates the arrival trace for models whose fault-free nominal
/// latencies are `nominal_ms` (one entry per tenant model; requests
/// round-robin across tenants and interleave by arrival order).
///
/// Every request is Gold with the base deadline — identical shape to
/// the pre-class workloads.  Use [`generate_trace_with_classes`] for a
/// mixed-SLO trace.
pub fn generate_trace(cfg: &WorkloadConfig, nominal_ms: &[f64]) -> Vec<Request> {
    generate_trace_inner(cfg, nominal_ms, false)
}

/// Like [`generate_trace`], with each request's [`PriorityClass`] drawn
/// from the class mix and its deadline widened by the class multiplier.
/// The class draw consumes its own sample from the same seeded stream,
/// so the trace stays a pure function of (config, nominals).
pub fn generate_trace_with_classes(
    cfg: &WorkloadConfig,
    nominal_ms: &[f64],
    _mix: &ClassMix,
) -> Vec<Request> {
    generate_trace_inner(cfg, nominal_ms, true)
}

fn generate_trace_inner(cfg: &WorkloadConfig, nominal_ms: &[f64], classes: bool) -> Vec<Request> {
    assert!(!nominal_ms.is_empty(), "at least one tenant model");
    assert!(
        cfg.arrival_rate_rps > 0.0 && cfg.arrival_rate_rps.is_finite(),
        "arrival rate must be positive"
    );
    assert!(
        cfg.deadline_factor > 0.0 && cfg.deadline_factor.is_finite(),
        "deadline factor must be positive"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mean_gap_ms = 1000.0 / cfg.arrival_rate_rps;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let u: f64 = rng.random_range(0.0..1.0);
        t += -mean_gap_ms * (1.0 - u).ln();
        let model = i % nominal_ms.len();
        let (class, mult) = if classes {
            let c = draw(rng.random_range(0.0..1.0));
            (c, DEADLINE_MULT[c.index()])
        } else {
            (PriorityClass::Gold, 1.0)
        };
        out.push(Request {
            id: i as u64,
            model,
            arrival_ms: t,
            deadline_ms: t + mult * cfg.deadline_factor * nominal_ms[model],
            class,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seeded_and_ordered() {
        let cfg = WorkloadConfig {
            requests: 50,
            arrival_rate_rps: 100.0,
            deadline_factor: 3.0,
            seed: 9,
        };
        let a = generate_trace(&cfg, &[20.0, 35.0]);
        let b = generate_trace(&cfg, &[20.0, 35.0]);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a.iter().all(|r| r.deadline_ms > r.arrival_ms));
        // Round-robin tenancy; class-free traces are all Gold.
        assert!(a.iter().enumerate().all(|(i, r)| r.model == i % 2));
        assert!(a.iter().all(|r| r.class == PriorityClass::Gold));
        // Deadlines reflect each tenant's nominal latency.
        assert!((a[0].deadline_ms - a[0].arrival_ms - 60.0).abs() < 1e-9);
        assert!((a[1].deadline_ms - a[1].arrival_ms - 105.0).abs() < 1e-9);
    }

    #[test]
    fn mean_interarrival_tracks_the_rate() {
        let cfg = WorkloadConfig {
            requests: 4000,
            arrival_rate_rps: 200.0,
            deadline_factor: 2.0,
            seed: 3,
        };
        let trace = generate_trace(&cfg, &[10.0]);
        let mean_gap = trace_span_ms(&trace) / (cfg.requests as f64);
        // Expected 5 ms gap; allow generous sampling noise.
        assert!((4.0..6.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn empty_trace_has_zero_span() {
        // Regression: `trace.last().unwrap()` used to panic here.
        let cfg = WorkloadConfig {
            requests: 0,
            arrival_rate_rps: 100.0,
            deadline_factor: 2.0,
            seed: 1,
        };
        let trace = generate_trace(&cfg, &[10.0]);
        assert!(trace.is_empty());
        assert_eq!(trace_span_ms(&trace), 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            generate_trace(
                &WorkloadConfig {
                    requests: 10,
                    arrival_rate_rps: 50.0,
                    deadline_factor: 2.0,
                    seed,
                },
                &[15.0],
            )
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn class_mix_tracks_fractions_and_widens_deadlines() {
        let cfg = WorkloadConfig {
            requests: 3000,
            arrival_rate_rps: 100.0,
            deadline_factor: 2.0,
            seed: 17,
        };
        let a = generate_trace_with_classes(&cfg, &[10.0], &ClassMix::default());
        let b = generate_trace_with_classes(&cfg, &[10.0], &ClassMix::default());
        assert_eq!(a, b);
        let mut counts = [0usize; 3];
        for r in &a {
            counts[r.class.index()] += 1;
            let mult = DEADLINE_MULT[r.class.index()];
            assert!(
                (r.deadline_ms - r.arrival_ms - mult * 2.0 * 10.0).abs() < 1e-9,
                "class {} deadline",
                r.class
            );
        }
        let frac = |c: usize| counts[c] as f64 / cfg.requests as f64;
        assert!((frac(0) - 0.2).abs() < 0.05, "gold {}", frac(0));
        assert!((frac(1) - 0.3).abs() < 0.05, "silver {}", frac(1));
        assert!((frac(2) - 0.5).abs() < 0.05, "bronze {}", frac(2));
    }
}
