//! Fig. 14: time cost of scheduling optimization (§VI-F).
//!
//! The paper's scheduling time "includes the time used to measure the
//! execution time of each single operator and each group of parallel
//! operators, the communication time of each possible data transfer
//! between GPUs, ... and the running time of a scheduling algorithm."
//! We charge accordingly:
//!
//! * base profiling: every operator and every edge measured
//!   `PROFILE_REPS` times on the virtual testbed (identical for all
//!   algorithms, grows with input size);
//! * group profiling: every group probe a scheduler makes
//!   (`ScheduleOutcome::profiling`) costs `PROFILE_REPS` measurements of
//!   that group, even when the same group was probed before — this is
//!   what blows IOS up;
//! * algorithm time: wall-clock of our Rust implementation.

use super::testbed::{build_model, input_sizes};
use crate::{RunCfg, Table};
use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
use hios_cost::AnalyticCostModel;
use rayon::prelude::*;

/// Measurement repetitions per profiled configuration (the paper averages
/// 36 runs per data point; profiling sweeps commonly use a handful).
pub(crate) const PROFILE_REPS: f64 = 36.0;

/// Scheduling cost (minutes) of one algorithm on one model instance.
pub(crate) fn scheduling_cost_minutes(algo: Algorithm, model: &str, size: u32) -> f64 {
    let g = build_model(model, size);
    let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
    let out = run_scheduler(algo, &g, &cost, &SchedulerOptions::new(2)).unwrap();
    // Base profiling: each operator alone + each edge transfer.
    let base_ms: f64 =
        cost.total_exec() + g.edges().map(|(u, _v)| cost.transfer(u, 0, 1)).sum::<f64>();
    // Group profiling: the groups the scheduler probed.
    let (_queries, group_ms) = out.profiling;
    let total_ms = PROFILE_REPS * (base_ms + group_ms) + out.scheduling_secs * 1e3;
    total_ms / 60_000.0
}

/// Fig. 14: scheduling time (minutes) vs input size for IOS, HIOS-LP and
/// HIOS-MR on both CNN benchmarks.
pub(crate) fn fig14(_cfg: &RunCfg) -> Table {
    let algos = [Algorithm::Ios, Algorithm::HiosLp, Algorithm::HiosMr];
    let mut columns = vec!["model".to_string(), "input_size".to_string()];
    columns.extend(algos.iter().map(|a| a.name().to_string()));
    let mut t = Table::new(
        "fig14_scheduling_cost",
        "Fig. 14: time cost of scheduling optimization (minutes)",
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for model in ["inception_v3", "nasnet"] {
        let rows: Vec<Vec<String>> = input_sizes(model)
            .into_par_iter()
            .map(|size| {
                let mut row = vec![model.to_string(), size.to_string()];
                for &a in &algos {
                    row.push(format!("{:.2}", scheduling_cost_minutes(a, model, size)));
                }
                row
            })
            .collect();
        for row in rows {
            t.push(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ios_profiling_dominates_hios() {
        // IOS's DP probes far more operator groups than HIOS-LP's window
        // pass, so its scheduling cost must be higher (Fig. 14 shape).
        let ios = scheduling_cost_minutes(Algorithm::Ios, "inception_v3", 512);
        let lp = scheduling_cost_minutes(Algorithm::HiosLp, "inception_v3", 512);
        assert!(
            ios > lp,
            "IOS ({ios:.2} min) must cost more than HIOS-LP ({lp:.2} min)"
        );
    }

    #[test]
    fn cost_grows_with_input_size() {
        let small = scheduling_cost_minutes(Algorithm::HiosLp, "inception_v3", 299);
        let big = scheduling_cost_minutes(Algorithm::HiosLp, "inception_v3", 1024);
        assert!(big > small);
    }
}
