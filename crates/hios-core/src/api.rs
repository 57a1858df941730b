//! One entry point for the six scheduling configurations evaluated in the
//! paper (§V-B): Sequential, IOS, HIOS-LP, HIOS-MR and the two inter-GPU
//! ablations.

use crate::eval::{EvalError, EvalWorkspace, evaluate_with};
use crate::ios::{IosConfig, run_dp};
use crate::lp::{HiosLpConfig, schedule_hios_lp_with};
use crate::mr::{HiosMrConfig, schedule_hios_mr_with};
use crate::schedule::{Schedule, ScheduleError};
use crate::seq::schedule_sequential;
use hios_cost::CostTable;
use hios_graph::Graph;
use std::fmt;
use std::time::Instant;

/// The scheduling algorithms compared throughout the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// One operator at a time on a single GPU.
    Sequential,
    /// IOS (Ding et al.): single-GPU DP with pruning.
    Ios,
    /// LP-based inter-GPU scheduling only ("inter-GPU w/ LP").
    InterGpuLp,
    /// Full HIOS-LP (Alg. 1 + Alg. 2).
    HiosLp,
    /// MR-based inter-GPU scheduling only ("inter-GPU w/ MR").
    InterGpuMr,
    /// Full HIOS-MR (Alg. 3 + Alg. 2).
    HiosMr,
}

impl Algorithm {
    /// All six configurations, in the paper's legend order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Sequential,
        Algorithm::Ios,
        Algorithm::HiosMr,
        Algorithm::InterGpuMr,
        Algorithm::HiosLp,
        Algorithm::InterGpuLp,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sequential => "sequential",
            Algorithm::Ios => "IOS",
            Algorithm::InterGpuLp => "inter-GPU w/ LP",
            Algorithm::HiosLp => "HIOS-LP",
            Algorithm::InterGpuMr => "inter-GPU w/ MR",
            Algorithm::HiosMr => "HIOS-MR",
        }
    }
}

/// Deterministic *modeled* scheduling-time estimate for running `algo`
/// on an `n_ops`-operator graph over `m` GPUs with sliding window `w`,
/// in milliseconds.
///
/// Wall-clock time cannot feed a deterministic serving loop (it varies
/// with the machine and thread count), so the `hios-serve` anytime ladder
/// charges this analytic model instead.  The constants are calibrated
/// against the `sched-scaling` experiment's shape: candidate-trial counts
/// grow with `n·m` for the inter-GPU phases, the Alg. 2 window phase adds
/// `n·w`, and the IOS DP dominates everything (paper Fig. 14).
pub fn modeled_sched_cost_ms(algo: Algorithm, n_ops: usize, m: usize, w: usize) -> f64 {
    let n = n_ops as f64;
    let m = m.max(1) as f64;
    let w = w.max(1) as f64;
    let lnn = n.max(2.0).ln();
    let intra = 0.01 * n * w * lnn;
    match algo {
        Algorithm::Sequential => 0.0005 * n,
        Algorithm::Ios => 0.2 * n * lnn,
        Algorithm::InterGpuLp => 0.02 * n * m * lnn,
        Algorithm::HiosLp => 0.02 * n * m * lnn + intra,
        Algorithm::InterGpuMr => 0.03 * n * m * lnn,
        Algorithm::HiosMr => 0.03 * n * m * lnn + intra,
    }
}

/// Scheduling-time budget (modeled, deterministic — see
/// [`modeled_sched_cost_ms`]).
///
/// `None` means unbounded.  The serving ladder charges each rung's
/// modeled cost against it and degrades from full HIOS-LP to
/// inter-GPU-only to greedy when a rung does not fit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedBudget {
    /// Modeled scheduling-time budget, ms.
    pub limit_ms: Option<f64>,
}

impl SchedBudget {
    /// Unbounded.
    pub fn unlimited() -> Self {
        SchedBudget::default()
    }

    /// Bounded at `ms` modeled milliseconds.
    pub fn limited(ms: f64) -> Self {
        SchedBudget { limit_ms: Some(ms) }
    }

    /// Whether `cost_ms` fits the budget.
    pub fn admits(&self, cost_ms: f64) -> bool {
        match self.limit_ms {
            Some(limit) => cost_ms <= limit,
            None => true,
        }
    }
}

/// Options shared by all schedulers.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerOptions {
    /// GPU budget `M` (ignored by the single-GPU baselines).
    pub num_gpus: usize,
    /// Maximum sliding-window size `w` for Alg. 2.
    pub window: usize,
    /// Run [`Schedule::validate_full`] on the produced schedule before
    /// returning it (debug gate; on by default in debug builds).  A
    /// failure is a scheduler bug, surfaced as
    /// [`SchedulerError::Invalid`].
    pub validate: bool,
}

impl SchedulerOptions {
    /// Defaults for an `m`-GPU platform.
    pub fn new(m: usize) -> Self {
        SchedulerOptions {
            num_gpus: m,
            window: 4,
            validate: cfg!(debug_assertions),
        }
    }
}

/// Why a scheduling run could not produce a usable outcome.
///
/// The serving layer consumes these as values; nothing in
/// [`run_scheduler`] panics on infeasible input any more.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerError {
    /// Options that cannot produce a schedule (zero GPUs, zero window).
    BadOptions(String),
    /// The cost table does not cover the graph.
    CostMismatch {
        /// Entries in the table.
        table_ops: usize,
        /// Operators in the graph.
        graph_ops: usize,
    },
    /// The scheduler produced a structurally invalid schedule (a
    /// scheduler bug, caught by [`Schedule::validate_full`] when
    /// [`SchedulerOptions::validate`] is set).
    Invalid {
        /// Which algorithm produced it.
        algorithm: Algorithm,
        /// The structural violation.
        error: ScheduleError,
    },
    /// The produced schedule failed latency evaluation.
    Infeasible {
        /// Which algorithm produced it.
        algorithm: Algorithm,
        /// The evaluation failure.
        error: EvalError,
    },
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::BadOptions(why) => write!(f, "bad scheduler options: {why}"),
            SchedulerError::CostMismatch {
                table_ops,
                graph_ops,
            } => write!(
                f,
                "cost table covers {table_ops} ops, graph has {graph_ops}"
            ),
            SchedulerError::Invalid { algorithm, error } => write!(
                f,
                "{} produced a structurally invalid schedule: {error}",
                algorithm.name()
            ),
            SchedulerError::Infeasible { algorithm, error } => write!(
                f,
                "{} produced an unevaluable schedule: {error}",
                algorithm.name()
            ),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// What a scheduling run produced.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The schedule.
    pub schedule: Schedule,
    /// Stage-synchronous latency of the schedule, ms.
    pub latency_ms: f64,
    /// Wall-clock time the scheduler itself took, seconds.
    pub scheduling_secs: f64,
    /// Groups of parallel operators the scheduler profiled (Fig. 14):
    /// `(count, total ms of one measurement of each)`.  IOS's are its
    /// priced stage candidates, HIOS's the merged stages its Alg. 2
    /// candidates priced (a commit's re-query is not one).
    pub profiling: (u64, f64),
}

/// Runs `algo` on `(g, cost)` and returns the schedule, its latency and
/// the scheduling cost counters used by the Fig. 14 experiment.
///
/// Infeasible inputs and scheduler bugs surface as typed
/// [`SchedulerError`]s instead of aborting the process, so long-running
/// callers (the `hios-serve` request loop) can degrade or shed.
pub fn run_scheduler(
    algo: Algorithm,
    g: &Graph,
    cost: &CostTable,
    opts: &SchedulerOptions,
) -> Result<ScheduleOutcome, SchedulerError> {
    run_scheduler_with(&mut EvalWorkspace::new(), algo, g, cost, opts)
}

/// [`run_scheduler`] through a caller-provided [`EvalWorkspace`]: loops
/// that schedule many instances (the bench harness, the serving ladder's
/// repair path) reuse one arena for Alg. 2 and for the final evaluation
/// of the baseline algorithms instead of allocating a fresh workspace
/// per call.  The outcome is bit-identical to [`run_scheduler`].
pub fn run_scheduler_with(
    ws: &mut EvalWorkspace,
    algo: Algorithm,
    g: &Graph,
    cost: &CostTable,
    opts: &SchedulerOptions,
) -> Result<ScheduleOutcome, SchedulerError> {
    if opts.num_gpus == 0 {
        return Err(SchedulerError::BadOptions("num_gpus must be >= 1".into()));
    }
    if opts.window == 0 {
        return Err(SchedulerError::BadOptions("window must be >= 1".into()));
    }
    if cost.num_ops() != g.num_ops() {
        return Err(SchedulerError::CostMismatch {
            table_ops: cost.num_ops(),
            graph_ops: g.num_ops(),
        });
    }
    if !cost.topology.covers(opts.num_gpus) {
        return Err(SchedulerError::BadOptions(format!(
            "cost table topology covers {} GPUs, options ask for {}",
            cost.topology.num_gpus(),
            opts.num_gpus
        )));
    }
    ws.probes = (0, 0.0); // a count the caller left is not this run's
    let started = Instant::now();
    // HIOS outcomes already carry the evaluated latency of their final
    // schedule; reuse it instead of re-evaluating (the baselines return
    // a bare schedule and are evaluated below).
    let (schedule, latency) = match algo {
        Algorithm::Sequential => (schedule_sequential(g, cost), None),
        Algorithm::Ios => {
            let (schedule, _, probes) = run_dp(g, cost, IosConfig::default());
            ws.probes = probes;
            (schedule, None)
        }
        Algorithm::InterGpuLp | Algorithm::HiosLp => {
            let out = schedule_hios_lp_with(
                ws,
                g,
                cost,
                HiosLpConfig {
                    num_gpus: opts.num_gpus,
                    window: opts.window,
                    intra: algo == Algorithm::HiosLp,
                },
            );
            (out.schedule, Some(out.latency))
        }
        Algorithm::InterGpuMr | Algorithm::HiosMr => {
            let out = schedule_hios_mr_with(
                ws,
                g,
                cost,
                HiosMrConfig {
                    num_gpus: opts.num_gpus,
                    window: opts.window,
                    intra: algo == Algorithm::HiosMr,
                },
            );
            (out.schedule, Some(out.latency))
        }
    };
    let scheduling_secs = started.elapsed().as_secs_f64();
    let profiling = std::mem::take(&mut ws.probes);
    if opts.validate {
        if let Err(error) = schedule.validate_full(g, None) {
            return Err(SchedulerError::Invalid {
                algorithm: algo,
                error,
            });
        }
    }
    let latency_ms = match latency {
        Some(l) => l,
        None => {
            evaluate_with(ws, g, cost, &schedule)
                .map_err(|error| SchedulerError::Infeasible {
                    algorithm: algo,
                    error,
                })?
                .latency
        }
    };
    Ok(ScheduleOutcome {
        algorithm: algo,
        schedule,
        latency_ms,
        scheduling_secs,
        profiling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    #[test]
    fn all_algorithms_produce_valid_schedules() {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 60,
            layers: 6,
            deps: 120,
            seed: 21,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(21));
        let opts = SchedulerOptions::new(4);
        for algo in Algorithm::ALL {
            let out = run_scheduler(algo, &g, &cost, &opts).unwrap();
            assert!(out.schedule.validate(&g).is_ok(), "{algo:?}");
            assert!(out.latency_ms > 0.0);
            if matches!(algo, Algorithm::Sequential | Algorithm::Ios) {
                assert!(out.schedule.num_gpus_used() <= 1, "{algo:?}");
            }
        }
    }

    #[test]
    fn profiling_counts_the_groups_each_scheduler_probes() {
        // Pinned counts: the same in debug and release builds, whose
        // window pass differs only in its debug checks.  A commit's
        // re-query of the winning merge is not a probe.
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 60,
            layers: 6,
            deps: 120,
            seed: 21,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(21));
        let opts = SchedulerOptions::new(2);
        let mut ws = EvalWorkspace::new();
        let probes = |ws: &mut EvalWorkspace, algo| {
            run_scheduler_with(ws, algo, &g, &cost, &opts)
                .unwrap()
                .profiling
                .0
        };
        for (algo, count) in [
            (Algorithm::Sequential, 0),
            (Algorithm::Ios, 6_376_489),
            (Algorithm::InterGpuLp, 0),
            (Algorithm::HiosLp, 63),
            (Algorithm::InterGpuMr, 0),
            (Algorithm::HiosMr, 59),
        ] {
            assert_eq!(probes(&mut ws, algo), count, "{algo:?}");
        }
        // One run's count does not carry into the next run's.
        assert_eq!(probes(&mut ws, Algorithm::HiosLp), 63);
    }

    #[test]
    fn bad_inputs_surface_as_typed_errors() {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 20,
            layers: 4,
            deps: 40,
            seed: 5,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(5));

        let zero_gpus = SchedulerOptions::new(0);
        assert!(matches!(
            run_scheduler(Algorithm::HiosLp, &g, &cost, &zero_gpus),
            Err(SchedulerError::BadOptions(_))
        ));

        let mut zero_window = SchedulerOptions::new(2);
        zero_window.window = 0;
        assert!(matches!(
            run_scheduler(Algorithm::HiosLp, &g, &cost, &zero_window),
            Err(SchedulerError::BadOptions(_))
        ));

        let mut short = cost.clone();
        short.device.exec_ms[0].pop();
        short.device.util[0].pop();
        short.transfer_ms[0].pop();
        assert!(matches!(
            run_scheduler(Algorithm::HiosLp, &g, &short, &SchedulerOptions::new(2)),
            Err(SchedulerError::CostMismatch {
                table_ops: 19,
                graph_ops: 20
            })
        ));

        // A heterogeneous table only covers its declared GPU count.
        let hetero = hios_cost::Platform::mixed_a40_v100s();
        let hcost = hios_cost::platform_table(&hetero, &g).unwrap();
        assert!(matches!(
            run_scheduler(Algorithm::HiosLp, &g, &hcost, &SchedulerOptions::new(8)),
            Err(SchedulerError::BadOptions(_))
        ));
        assert!(run_scheduler(Algorithm::HiosLp, &g, &hcost, &SchedulerOptions::new(4)).is_ok());
    }

    #[test]
    fn modeled_cost_is_monotone() {
        for algo in Algorithm::ALL {
            assert!(
                modeled_sched_cost_ms(algo, 100, 2, 4) <= modeled_sched_cost_ms(algo, 200, 2, 4)
            );
            assert!(
                modeled_sched_cost_ms(algo, 100, 2, 4) <= modeled_sched_cost_ms(algo, 100, 4, 4)
                    || matches!(algo, Algorithm::Sequential | Algorithm::Ios)
            );
        }
        // The ladder's ordering: full LP above inter-only above nothing.
        assert!(
            modeled_sched_cost_ms(Algorithm::HiosLp, 100, 4, 4)
                > modeled_sched_cost_ms(Algorithm::InterGpuLp, 100, 4, 4)
        );
    }

    #[test]
    fn paper_ordering_holds_on_random_instances() {
        // Averaged over seeds, the paper's §V ordering must emerge:
        // HIOS-LP < HIOS-MR < IOS < sequential, and each full variant at
        // least as good as its inter-GPU-only ablation.
        let mut sums = std::collections::HashMap::new();
        let seeds = 6;
        for seed in 0..seeds {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 80,
                layers: 8,
                deps: 160,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let opts = SchedulerOptions::new(4);
            for algo in Algorithm::ALL {
                let out = run_scheduler(algo, &g, &cost, &opts).unwrap();
                *sums.entry(algo).or_insert(0.0) += out.latency_ms;
            }
        }
        let avg = |a: Algorithm| sums[&a] / seeds as f64;
        assert!(avg(Algorithm::HiosLp) < avg(Algorithm::HiosMr));
        assert!(avg(Algorithm::HiosMr) < avg(Algorithm::Sequential));
        assert!(avg(Algorithm::Ios) < avg(Algorithm::Sequential));
        assert!(avg(Algorithm::HiosLp) <= avg(Algorithm::InterGpuLp) + 1e-9);
        assert!(avg(Algorithm::HiosMr) <= avg(Algorithm::InterGpuMr) + 1e-9);
        assert!(avg(Algorithm::HiosLp) < avg(Algorithm::Ios));
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Algorithm::HiosLp.name(), "HIOS-LP");
        assert_eq!(Algorithm::InterGpuMr.name(), "inter-GPU w/ MR");
        assert_eq!(Algorithm::ALL.len(), 6);
    }
}
