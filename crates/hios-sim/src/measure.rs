//! Repeated-measurement emulation.
//!
//! "By default, each data point in experiments denotes the average of
//! measurements on 36 runs" (paper §VI-A).  Real runs jitter — clock
//! frequency, driver scheduling, link arbitration — so this module runs
//! the discrete-event simulation `runs` times with multiplicative noise
//! on operator and transfer durations and reports mean ± std, giving the
//! virtual testbed the same statistical texture as the paper's plots.

use crate::engine::{SimConfig, SimError, simulate};
use crate::fault::FaultPlan;
use crate::recover::{RecoverError, run_with_repair};
use hios_core::Schedule;
use hios_core::repair::RepairConfig;
use hios_cost::CostTable;
use hios_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Applies one multiplicative jitter factor per operator (drawn once,
/// shared by every device class) and one per transfer (shared by every
/// link class): the jitter models the *kernel* running long, which it
/// does wherever it is placed.  One draw per operator also keeps the RNG
/// stream — and therefore every homogeneous measurement — identical to
/// the flat-table era.
fn jitter_table(noisy: &mut CostTable, rng: &mut StdRng) {
    let n = noisy.num_ops();
    for i in 0..n {
        let f = 1.0 + rng.random_range(0.0..JITTER);
        for row in &mut noisy.device.exec_ms {
            row[i] *= f;
        }
    }
    for i in 0..n {
        let f = 1.0 + rng.random_range(0.0..JITTER);
        for row in &mut noisy.transfer_ms {
            row[i] *= f;
        }
    }
}

/// Multiplicative jitter amplitude: each duration is scaled by a uniform
/// factor in `[1, 1 + JITTER)` per run (executions only get slower than
/// the profiled best case).
const JITTER: f64 = 0.03;

const _: () = assert!(JITTER > 0.0 && JITTER.is_finite());

/// Repetition count and seed of a measurement; the noise amplitude is
/// this module's constant.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Number of simulated runs (paper default 36).
    pub runs: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig { runs: 36, seed: 0 }
    }
}

/// A repeated-measurement result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Mean makespan, ms.
    pub mean_ms: f64,
    /// Sample standard deviation, ms.
    pub std_ms: f64,
    /// Fastest observed run, ms.
    pub min_ms: f64,
    /// Slowest observed run, ms.
    pub max_ms: f64,
}

impl Measurement {
    /// Mean, sample standard deviation, min and max of `samples`.
    fn of(samples: &[f64]) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
        } else {
            0.0
        };
        Measurement {
            mean_ms: mean,
            std_ms: var.sqrt(),
            min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max_ms: samples.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Calls `run` on `cfg.runs` jittered copies of `cost`, drawn in turn
/// from one stream seeded with `cfg.seed`.
fn jittered_runs<E>(
    cost: &CostTable,
    cfg: &MeasureConfig,
    mut run: impl FnMut(&CostTable) -> Result<(), E>,
) -> Result<(), E> {
    assert!(cfg.runs >= 1, "need at least one run");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.runs {
        let mut noisy = cost.clone();
        jitter_table(&mut noisy, &mut rng);
        run(&noisy)?;
    }
    Ok(())
}

/// Measures `sched` by `cfg.runs` jittered simulations.
pub fn measure(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    sim_cfg: &SimConfig,
    cfg: &MeasureConfig,
) -> Result<Measurement, SimError> {
    let mut samples = Vec::with_capacity(cfg.runs as usize);
    jittered_runs(cost, cfg, |noisy| {
        samples.push(simulate(g, noisy, sched, sim_cfg)?.makespan);
        Ok(())
    })?;
    Ok(Measurement::of(&samples))
}

/// Repeated measurements of a *faulted* run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryMeasurement {
    /// Makespan statistics over the runs that completed (all fields are
    /// `NaN`/degenerate when `completed_runs` is zero).
    pub stats: Measurement,
    /// Runs in which every operator finished despite the faults.
    pub completed_runs: u32,
    /// Total runs performed.
    pub runs: u32,
    /// Mean number of cut-and-reschedule repairs per run.
    pub mean_repairs: f64,
}

impl RecoveryMeasurement {
    /// Fraction of runs that completed, in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        f64::from(self.completed_runs) / f64::from(self.runs)
    }
}

/// Measures `sched` under `plan` by `cfg.runs` jittered recovery runs,
/// each driving the full detect → repair → resume loop.
pub fn measure_recovery(
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
    plan: &FaultPlan,
    repair: &RepairConfig,
    cfg: &MeasureConfig,
) -> Result<RecoveryMeasurement, RecoverError> {
    let mut samples = Vec::with_capacity(cfg.runs as usize);
    let mut repairs_total = 0usize;
    jittered_runs(cost, cfg, |noisy| {
        let r = run_with_repair(g, noisy, sched, plan, repair)?;
        repairs_total += r.repairs;
        if r.completed {
            samples.push(r.makespan);
        }
        Ok(())
    })?;
    Ok(RecoveryMeasurement {
        stats: Measurement::of(&samples),
        completed_runs: samples.len() as u32,
        runs: cfg.runs,
        mean_repairs: repairs_total as f64 / f64::from(cfg.runs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{LayeredDagConfig, generate_layered_dag};

    fn setup() -> (Graph, CostTable, Schedule) {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 40,
            layers: 5,
            deps: 80,
            seed: 3,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(3));
        let s = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(2))
            .unwrap()
            .schedule;
        (g, cost, s)
    }

    #[test]
    fn jitter_only_slows_things_down() {
        let (g, cost, s) = setup();
        let base = simulate(&g, &cost, &s, &SimConfig::analytical())
            .unwrap()
            .makespan;
        let m = measure(
            &g,
            &cost,
            &s,
            &SimConfig::analytical(),
            &MeasureConfig::default(),
        )
        .unwrap();
        assert!(m.min_ms >= base - 1e-9, "{} vs base {base}", m.min_ms);
        assert!(m.mean_ms > base);
        assert!(m.std_ms > 0.0);
        assert!(m.max_ms >= m.mean_ms && m.mean_ms >= m.min_ms);
        // 3% per-op jitter cannot inflate the makespan by more than ~3%
        // plus scheduling slack.
        assert!(m.max_ms < base * 1.1);
    }

    #[test]
    fn a_measurement_is_pinned() {
        // Every jittered run's makespan lands in the mean's bits.
        let (g, cost, s) = setup();
        let cfg = MeasureConfig { runs: 8, seed: 11 };
        let m = measure(&g, &cost, &s, &SimConfig::analytical(), &cfg).unwrap();
        assert_eq!(m.mean_ms, f64::from_bits(0x4041_c4dc_a46e_271f));
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, cost, s) = setup();
        let cfg = MeasureConfig { runs: 10, seed: 42 };
        let a = measure(&g, &cost, &s, &SimConfig::analytical(), &cfg).unwrap();
        let b = measure(&g, &cost, &s, &SimConfig::analytical(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_measurements_complete_and_cost_more() {
        let (g, cost, s) = setup();
        let base = simulate(&g, &cost, &s, &SimConfig::analytical())
            .unwrap()
            .makespan;
        let plan = FaultPlan::single(base * 0.5, FaultKind::GpuFailStop { gpu: 1 });
        let cfg = MeasureConfig { runs: 8, seed: 7 };
        let m = measure_recovery(&g, &cost, &s, &plan, &RepairConfig::default(), &cfg).unwrap();
        assert_eq!(m.completed_runs, m.runs);
        assert_eq!(m.completion_rate(), 1.0);
        assert!(m.mean_repairs >= 1.0);
        assert!(m.stats.mean_ms > base, "{} vs {base}", m.stats.mean_ms);
        // Deterministic per seed.
        let m2 = measure_recovery(&g, &cost, &s, &plan, &RepairConfig::default(), &cfg).unwrap();
        assert_eq!(m, m2);
    }
}
