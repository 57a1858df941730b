//! Experiment harness for the HIOS reproduction.
//!
//! One module per paper figure under [`experiments`]; the `hios-bench`
//! binary drives them and writes CSV + a markdown summary under
//! `results/`.  Shared plumbing (tables, statistics, the random-DAG
//! sweep runner) lives in this crate root; the studies that also write a
//! `BENCH_*.json` declare themselves through [`study`].

#![warn(missing_docs)]

pub mod experiments;
pub mod study;
pub mod table;

pub use table::Table;

use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
use hios_cost::{RandomCostConfig, random_cost_table};
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use rayon::prelude::*;
use std::collections::HashMap;

/// Global run configuration.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Random instances per data point (paper: 30).
    pub seeds: u64,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: std::path::PathBuf,
    /// CI smoke mode: experiments that honour it shrink their grid and
    /// repetition counts to seconds of runtime.
    pub smoke: bool,
    /// Debug gate: structurally validate every schedule the experiments
    /// produce (see [`hios_core::Schedule::validate_full`]).
    pub validate: bool,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            seeds: 30,
            out_dir: "results".into(),
            smoke: false,
            validate: false,
        }
    }
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// One data point of the simulation study: per-algorithm latency
/// statistics over `seeds` random instances of the given workload
/// (paper §V-A methodology).
#[allow(clippy::too_many_arguments)]
pub fn random_sweep_point(
    ops: usize,
    layers: usize,
    deps: usize,
    p: f64,
    gpus: usize,
    seeds: u64,
    algorithms: &[Algorithm],
) -> HashMap<Algorithm, (f64, f64)> {
    let per_seed: Vec<HashMap<Algorithm, f64>> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers,
                deps,
                seed,
            })
            .expect("feasible workload config");
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed).with_p(p));
            let opts = SchedulerOptions::new(gpus);
            algorithms
                .iter()
                .map(|&a| (a, run_scheduler(a, &g, &cost, &opts).unwrap().latency_ms))
                .collect()
        })
        .collect();
    algorithms
        .iter()
        .map(|&a| {
            let xs: Vec<f64> = per_seed.iter().map(|m| m[&a]).collect();
            (a, mean_std(&xs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn sweep_point_orders_algorithms_correctly() {
        let stats = random_sweep_point(
            60,
            6,
            120,
            0.8,
            4,
            4,
            &[Algorithm::Sequential, Algorithm::HiosLp],
        );
        let seq = stats[&Algorithm::Sequential].0;
        let lp = stats[&Algorithm::HiosLp].0;
        assert!(lp < seq, "HIOS-LP {lp} must beat sequential {seq}");
        assert!(
            stats[&Algorithm::Sequential].1 > 0.0,
            "variance across seeds"
        );
    }
}
