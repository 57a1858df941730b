//! Time-varying cost drift: gradual, unannounced deviation of execution
//! speed from the profiled cost model.
//!
//! [`crate::fault::FaultPlan`] models *step* disruptions — a GPU dies or jumps
//! to a fixed slowdown at a known instant.  Production drift is the
//! other failure mode: contention from co-tenants, clock throttling and
//! thermal effects bend operator latencies *gradually*, with no discrete
//! event to detect.  A [`DriftPlan`] is a set of per-GPU piecewise-
//! constant factor traces sampled at dispatch time; the serving layer
//! multiplies them into the execution [`crate::Scaling`] so the
//! "hardware" silently diverges from the profile the schedulers plan on.
//!
//! Three canonical shapes are provided — linear ramps, seeded random
//! walks and periodic contention bursts — all materialized to explicit
//! segments at construction, so sampling is deterministic, allocation-
//! free and independent of call order or thread count.  A GPU with no
//! trace (or any time before a trace's first segment) runs at factor
//! exactly `1.0`, and multiplying a finite duration by `1.0` is a
//! bitwise identity — which is what keeps drift-free serving runs
//! bit-identical to runs with no drift plan at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Widest factor range a trace may use; validation rejects anything
/// outside.  Drift models *gradual* mis-estimation — a GPU running 100×
/// slow is a fault, and belongs in a [`crate::FaultPlan`].
pub const DRIFT_FACTOR_RANGE: (f64, f64) = (0.1, 100.0);

/// One GPU's piecewise-constant drift trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftTrace {
    /// Physical GPU the trace applies to.
    pub gpu: usize,
    /// `(start_ms, factor)` segments sorted by start time; each factor
    /// applies from its start until the next segment's start (the last
    /// one forever).  Before the first segment the GPU is nominal.
    pub segments: Vec<(f64, f64)>,
}

impl DriftTrace {
    /// Factor at absolute time `t_ms` (exactly `1.0` before the first
    /// segment).
    pub fn factor_at(&self, t_ms: f64) -> f64 {
        // partition_point: first segment strictly after t; the one before
        // it governs.
        let idx = self.segments.partition_point(|&(start, _)| start <= t_ms);
        if idx == 0 {
            1.0
        } else {
            self.segments[idx - 1].1
        }
    }
}

/// Typed rejection of a malformed drift plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DriftPlanError {
    /// A trace names a GPU outside the platform.
    UnknownGpu {
        /// The named GPU.
        gpu: usize,
        /// Platform size.
        num_gpus: usize,
    },
    /// A segment start time is non-finite or negative.
    BadTime(f64),
    /// A factor is non-finite or outside [`DRIFT_FACTOR_RANGE`].
    BadFactor(f64),
    /// A trace's segments are not sorted by start time.
    Unsorted {
        /// GPU whose trace is out of order.
        gpu: usize,
    },
}

impl fmt::Display for DriftPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriftPlanError::UnknownGpu { gpu, num_gpus } => {
                write!(
                    f,
                    "drift trace targets gpu {gpu} on a {num_gpus}-GPU platform"
                )
            }
            DriftPlanError::BadTime(t) => write!(f, "bad drift segment time {t} ms"),
            DriftPlanError::BadFactor(x) => write!(
                f,
                "drift factor {x} outside [{}, {}]",
                DRIFT_FACTOR_RANGE.0, DRIFT_FACTOR_RANGE.1
            ),
            DriftPlanError::Unsorted { gpu } => {
                write!(f, "drift trace for gpu {gpu} is not sorted by start time")
            }
        }
    }
}

impl std::error::Error for DriftPlanError {}

/// A set of per-GPU drift traces.  GPUs may carry several traces; their
/// factors multiply (an overheating GPU can also host a noisy co-tenant).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftPlan {
    /// The traces, in construction order.
    pub traces: Vec<DriftTrace>,
}

impl DriftPlan {
    /// The inert plan: every GPU at factor exactly `1.0` forever.
    pub fn none() -> Self {
        DriftPlan { traces: Vec::new() }
    }

    /// True when no trace can ever deflect a factor from `1.0`.
    pub fn is_none(&self) -> bool {
        self.traces.is_empty()
    }

    /// Combined drift factor of `gpu` at absolute time `t_ms`: the
    /// product over all of the GPU's traces, exactly `1.0` when none
    /// apply.
    pub fn factor_at(&self, gpu: usize, t_ms: f64) -> f64 {
        let mut f = 1.0;
        for trace in &self.traces {
            if trace.gpu == gpu {
                f *= trace.factor_at(t_ms);
            }
        }
        f
    }

    /// Adds an explicit trace (builder style).
    pub fn with_trace(mut self, trace: DriftTrace) -> Self {
        self.traces.push(trace);
        self
    }

    /// Linear ramp on `gpu`: nominal until `t0_ms`, then the factor
    /// ramps from `from` to `to` over `[t0_ms, t1_ms]` in `steps`
    /// piecewise-constant segments, holding `to` afterwards.
    pub fn ramp(gpu: usize, t0_ms: f64, t1_ms: f64, from: f64, to: f64, steps: usize) -> Self {
        let steps = steps.max(1);
        let mut segments = Vec::with_capacity(steps + 1);
        for k in 0..steps {
            let frac = k as f64 / steps as f64;
            segments.push((t0_ms + frac * (t1_ms - t0_ms), from + frac * (to - from)));
        }
        segments.push((t1_ms, to));
        DriftPlan::none().with_trace(DriftTrace { gpu, segments })
    }

    /// Seeded multiplicative random walk on `gpu`: every `step_ms` the
    /// factor multiplies by a uniform draw from `[1/(1+sigma), 1+sigma+bias]`
    /// (so `bias > 0` drifts the GPU slower over time), clamped to
    /// `[1/max_factor, max_factor]`, over `[0, horizon_ms]`.
    /// Deterministic in `seed`.
    pub fn random_walk(
        gpu: usize,
        seed: u64,
        horizon_ms: f64,
        step_ms: f64,
        sigma: f64,
        bias: f64,
        max_factor: f64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd21f7);
        let mut segments = Vec::new();
        let mut factor = 1.0f64;
        let mut t = step_ms.max(1e-9);
        while t <= horizon_ms {
            let step = rng.random_range((1.0 / (1.0 + sigma))..(1.0 + sigma + bias));
            factor = (factor * step).clamp(1.0 / max_factor, max_factor);
            segments.push((t, factor));
            t += step_ms.max(1e-9);
        }
        DriftPlan::none().with_trace(DriftTrace { gpu, segments })
    }

    /// Periodic contention bursts on `gpu`: from `t0_ms`, the factor sits
    /// at `factor` for `duty`-fraction of every `period_ms`, nominal in
    /// between, until `horizon_ms`.  Models a bursty co-tenant stealing
    /// SMs on a schedule.
    pub fn bursts(
        gpu: usize,
        t0_ms: f64,
        period_ms: f64,
        duty: f64,
        factor: f64,
        horizon_ms: f64,
    ) -> Self {
        let mut segments = Vec::new();
        let mut t = t0_ms;
        while t < horizon_ms {
            segments.push((t, factor));
            segments.push((t + period_ms * duty.clamp(0.0, 1.0), 1.0));
            t += period_ms;
        }
        DriftPlan::none().with_trace(DriftTrace { gpu, segments })
    }

    /// Merges another plan's traces into this one (factors multiply on
    /// shared GPUs).
    pub fn merged(mut self, other: DriftPlan) -> Self {
        self.traces.extend(other.traces);
        self
    }

    /// Validates every trace against an `num_gpus`-GPU platform: known
    /// GPUs, finite non-negative sorted start times, finite factors
    /// inside [`DRIFT_FACTOR_RANGE`].
    pub fn validate(&self, num_gpus: usize) -> Result<(), DriftPlanError> {
        for trace in &self.traces {
            if trace.gpu >= num_gpus {
                return Err(DriftPlanError::UnknownGpu {
                    gpu: trace.gpu,
                    num_gpus,
                });
            }
            let mut prev = f64::NEG_INFINITY;
            for &(start, factor) in &trace.segments {
                if !(start.is_finite() && start >= 0.0) {
                    return Err(DriftPlanError::BadTime(start));
                }
                if !(factor.is_finite()
                    && factor >= DRIFT_FACTOR_RANGE.0
                    && factor <= DRIFT_FACTOR_RANGE.1)
                {
                    return Err(DriftPlanError::BadFactor(factor));
                }
                if start < prev {
                    return Err(DriftPlanError::Unsorted { gpu: trace.gpu });
                }
                prev = start;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_is_exactly_nominal() {
        let p = DriftPlan::none();
        assert!(p.is_none());
        assert_eq!(p.factor_at(0, 0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(p.factor_at(7, 1e9).to_bits(), 1.0f64.to_bits());
        assert!(p.validate(1).is_ok());
    }

    #[test]
    fn ramp_interpolates_and_holds() {
        let p = DriftPlan::ramp(1, 10.0, 20.0, 1.0, 3.0, 10);
        assert!(p.validate(2).is_ok());
        assert_eq!(p.factor_at(1, 0.0), 1.0, "nominal before the ramp");
        assert_eq!(p.factor_at(0, 15.0), 1.0, "other GPUs unaffected");
        let mid = p.factor_at(1, 15.0);
        assert!(mid > 1.5 && mid < 2.5, "mid-ramp factor {mid}");
        assert_eq!(p.factor_at(1, 20.0), 3.0);
        assert_eq!(p.factor_at(1, 1e6), 3.0, "holds after the ramp");
        // Monotone along the ramp.
        let mut last = 0.0;
        for k in 0..=20 {
            let f = p.factor_at(1, 10.0 + k as f64 * 0.5);
            assert!(f >= last);
            last = f;
        }
    }

    #[test]
    fn random_walk_is_seeded_and_bounded() {
        let a = DriftPlan::random_walk(0, 42, 100.0, 1.0, 0.1, 0.05, 8.0);
        let b = DriftPlan::random_walk(0, 42, 100.0, 1.0, 0.1, 0.05, 8.0);
        let c = DriftPlan::random_walk(0, 43, 100.0, 1.0, 0.1, 0.05, 8.0);
        assert_eq!(a, b, "same seed, same walk");
        assert_ne!(a, c, "different seed, different walk");
        assert!(a.validate(1).is_ok());
        for k in 0..200 {
            let f = a.factor_at(0, k as f64 * 0.5);
            assert!((1.0 / 8.0..=8.0).contains(&f), "factor {f} escaped clamp");
        }
        // A positive bias drifts the GPU slower over the horizon.
        let biased = DriftPlan::random_walk(0, 7, 500.0, 1.0, 0.05, 0.1, 16.0);
        assert!(biased.factor_at(0, 500.0) > 1.5);
    }

    #[test]
    fn bursts_alternate_and_recover() {
        let p = DriftPlan::bursts(2, 5.0, 10.0, 0.5, 4.0, 50.0);
        assert!(p.validate(3).is_ok());
        assert_eq!(p.factor_at(2, 0.0), 1.0);
        assert_eq!(p.factor_at(2, 6.0), 4.0, "inside the first burst");
        assert_eq!(p.factor_at(2, 11.0), 1.0, "between bursts");
        assert_eq!(p.factor_at(2, 16.0), 4.0, "second burst");
        assert_eq!(p.factor_at(2, 99.0), 1.0, "nominal past the horizon");
    }

    #[test]
    fn merged_plans_multiply_on_shared_gpus() {
        let ramp = DriftPlan::ramp(0, 0.0, 10.0, 1.0, 2.0, 5);
        let burst = DriftPlan::bursts(0, 0.0, 20.0, 0.5, 3.0, 100.0);
        let p = ramp.clone().merged(burst.clone());
        for t in [0.0, 5.0, 9.0, 12.0, 25.0, 99.0] {
            let expect = ramp.factor_at(0, t) * burst.factor_at(0, t);
            assert_eq!(p.factor_at(0, t), expect, "at t={t}");
        }
        // Inside the first burst the merged factor carries both effects.
        let f = p.factor_at(0, 5.0);
        assert!(
            (f - 1.4 * 3.0).abs() < 1e-12,
            "mid-ramp in-burst factor {f}"
        );
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let p = DriftPlan::ramp(3, 0.0, 10.0, 1.0, 2.0, 4);
        assert_eq!(
            p.validate(2),
            Err(DriftPlanError::UnknownGpu {
                gpu: 3,
                num_gpus: 2
            })
        );
        let bad_factor = DriftPlan::none().with_trace(DriftTrace {
            gpu: 0,
            segments: vec![(0.0, f64::NAN)],
        });
        assert!(matches!(
            bad_factor.validate(1),
            Err(DriftPlanError::BadFactor(_))
        ));
        let too_big = DriftPlan::none().with_trace(DriftTrace {
            gpu: 0,
            segments: vec![(0.0, 1000.0)],
        });
        assert!(matches!(
            too_big.validate(1),
            Err(DriftPlanError::BadFactor(_))
        ));
        let bad_time = DriftPlan::none().with_trace(DriftTrace {
            gpu: 0,
            segments: vec![(-5.0, 2.0)],
        });
        assert!(matches!(
            bad_time.validate(1),
            Err(DriftPlanError::BadTime(_))
        ));
        let unsorted = DriftPlan::none().with_trace(DriftTrace {
            gpu: 0,
            segments: vec![(10.0, 2.0), (5.0, 3.0)],
        });
        assert_eq!(
            unsorted.validate(1),
            Err(DriftPlanError::Unsorted { gpu: 0 })
        );
    }

    #[test]
    fn serde_round_trip() {
        let p = DriftPlan::ramp(1, 5.0, 15.0, 1.0, 4.0, 8);
        let s = serde_json::to_string(&p).unwrap();
        let back: DriftPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }
}
