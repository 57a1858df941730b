//! Extension experiments beyond the paper's figures: ablations of the
//! design choices DESIGN.md calls out, and the paper's stated future work
//! (NCCL-style transfer/launch overlap, §VI-E).

use super::testbed::build_model;
use crate::table::f3;
use crate::{RunCfg, Table};
use hios_core::ios::{IosConfig, schedule_ios};
use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_core::{
    Algorithm, EvalWorkspace, SchedulerOptions, evaluate, run_scheduler, run_scheduler_with,
};
use hios_cost::{AnalyticCostModel, Platform, RandomCostConfig, random_cost_table};
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_sim::{Semantics, SimConfig, simulate};

/// Ablation: HIOS-LP latency vs maximum window size `w` (Alg. 2's only
/// parameter) on both CNNs and a random workload.
pub(crate) fn ext_window(cfg: &RunCfg) -> Table {
    let mut t = Table::new(
        "ext_window_size",
        "Ablation: HIOS-LP latency (ms) vs sliding-window size w",
        &["workload", "w=1", "w=2", "w=3", "w=4", "w=6", "w=8"],
    );
    let windows = [1usize, 2, 3, 4, 6, 8];
    // CNN workloads on the dual-A40 testbed.
    for model in ["inception_v3", "nasnet"] {
        let g = build_model(model, if model == "nasnet" { 331 } else { 299 });
        let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
        let mut row = vec![model.to_string()];
        for &w in &windows {
            let out = schedule_hios_lp(
                &g,
                &cost,
                HiosLpConfig {
                    num_gpus: 2,
                    window: w,
                    intra: w >= 2,
                },
            );
            row.push(f3(out.latency));
        }
        t.push(row);
    }
    // Random workload averaged over seeds.
    let seeds = cfg.seeds.min(8);
    let mut sums = vec![0.0f64; windows.len()];
    for seed in 0..seeds {
        let g = generate_layered_dag(&LayeredDagConfig::paper_default(seed)).unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
        for (i, &w) in windows.iter().enumerate() {
            let out = schedule_hios_lp(
                &g,
                &cost,
                HiosLpConfig {
                    num_gpus: 4,
                    window: w,
                    intra: w >= 2,
                },
            );
            sums[i] += out.latency;
        }
    }
    let mut row = vec!["random(200,14,400)".to_string()];
    for s in sums {
        row.push(f3(s / seeds as f64));
    }
    t.push(row);
    t
}

/// Ablation: IOS schedule quality vs pruning strength (stage budget and
/// per-state candidate cap) on Inception-v3.
pub(crate) fn ext_ios_pruning(_cfg: &RunCfg) -> Table {
    let g = build_model("inception_v3", 299);
    let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
    let mut t = Table::new(
        "ext_ios_pruning",
        "Ablation: IOS latency (ms) and wall time vs pruning strength (Inception-v3 @ 299)",
        &[
            "max_stage_ops",
            "max_candidates",
            "latency_ms",
            "schedule_secs",
        ],
    );
    for (stage_ops, candidates) in [(2usize, 8usize), (4, 16), (4, 64), (8, 64), (8, 256)] {
        let cfgx = IosConfig {
            max_stage_ops: stage_ops,
            max_candidates: candidates,
            ..IosConfig::default()
        };
        let started = std::time::Instant::now();
        let s = schedule_ios(&g, &cost, cfgx);
        let secs = started.elapsed().as_secs_f64();
        let latency = evaluate(&g, &cost, &s).expect("valid").latency;
        t.push(vec![
            stage_ops.to_string(),
            candidates.to_string(),
            f3(latency),
            format!("{secs:.3}"),
        ]);
    }
    t
}

/// Extension: overhead decomposition on the virtual testbed — the gap
/// between the analytical stage-sync model and reality, and how much an
/// NCCL-style overlap (hiding the consumer-kernel launch behind the
/// transfer, the paper's §VI-E improvement idea) would recover.
pub(crate) fn ext_semantics(_cfg: &RunCfg) -> Table {
    let mut t = Table::new(
        "ext_semantics",
        "Extension: HIOS-LP latency (ms) under increasingly realistic execution models",
        &[
            "model",
            "stage_sync_model",
            "relaxed",
            "relaxed+serialized_links",
            "relaxed+serialized+mpi_gap",
            "nccl_style_overlap",
        ],
    );
    for model in ["inception_v3", "nasnet"] {
        let g = build_model(model, 512);
        let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
        let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(2)).unwrap();
        let run = |semantics, serialization, gap: f64| {
            let cfg = SimConfig {
                semantics,
                link_serialization: serialization,
                cross_gpu_launch_gap_ms: gap,
            };
            simulate(&g, &cost, &out.schedule, &cfg)
                .expect("feasible")
                .makespan
        };
        let gap = cost.launch_overhead_ms;
        t.push(vec![
            model.to_string(),
            f3(out.latency_ms),
            f3(run(Semantics::Relaxed, false, 0.0)),
            f3(run(Semantics::Relaxed, true, 0.0)),
            f3(run(Semantics::Relaxed, true, gap)),
            // NCCL-style overlap: the consumer launch hides behind the
            // transfer again (gap back to zero) -- the future-work claim.
            f3(run(Semantics::Relaxed, true, 0.0)),
        ]);
    }
    t
}

/// Extension: the wider IOS model zoo (SqueezeNet 1.1 and a randomly
/// wired network join the paper's two benchmarks) on the dual-A40
/// testbed — breadth check that the algorithm ordering is not an
/// artefact of two architectures.
pub(crate) fn ext_model_zoo(_cfg: &RunCfg) -> Table {
    use hios_models::{ModelConfig, RandWireConfig, randwire, squeezenet};
    let mut columns = vec!["model".to_string(), "ops".to_string()];
    columns.extend(Algorithm::ALL.iter().map(|a| a.name().to_string()));
    let mut t = Table::new(
        "ext_model_zoo",
        "Extension: measured latency (ms) across the wider IOS model zoo, 2 virtual A40",
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let models: Vec<(&str, hios_graph::Graph)> = vec![
        ("inception_v3@299", build_model("inception_v3", 299)),
        ("nasnet@331", build_model("nasnet", 331)),
        ("squeezenet@512", squeezenet(&ModelConfig::with_input(512))),
        (
            "randwire@512",
            randwire(&ModelConfig::with_input(512), &RandWireConfig::default()),
        ),
    ];
    let mut ws = EvalWorkspace::new();
    for (name, g) in models {
        let cost = AnalyticCostModel::a40_nvlink().build_table(&g);
        let mut row = vec![name.to_string(), g.num_ops().to_string()];
        for a in Algorithm::ALL {
            let out = run_scheduler_with(&mut ws, a, &g, &cost, &SchedulerOptions::new(2)).unwrap();
            let sim =
                simulate(&g, &cost, &out.schedule, &SimConfig::realistic(&cost)).expect("feasible");
            row.push(f3(sim.makespan));
        }
        t.push(row);
    }
    t
}

/// Extension: CNN latency vs GPU count on an NVSwitch server (the Fig. 7
/// sweep transplanted from random DAGs onto the real benchmarks).
pub(crate) fn ext_gpus_cnn(_cfg: &RunCfg) -> Table {
    let mut t = Table::new(
        "ext_gpus_cnn",
        "Extension: measured latency (ms) vs GPU count, NVSwitch server",
        &["model", "1", "2", "4", "8"],
    );
    for model in ["inception_v3", "nasnet"] {
        let g = build_model(model, 512);
        let mut row = vec![model.to_string()];
        for gpus in [1usize, 2, 4, 8] {
            let platform = Platform::nvswitch_server(gpus);
            let cost = AnalyticCostModel::for_platform(&platform).build_table(&g);
            let out =
                run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(gpus)).unwrap();
            let sim =
                simulate(&g, &cost, &out.schedule, &SimConfig::realistic(&cost)).expect("feasible");
            row.push(f3(sim.makespan));
        }
        t.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunCfg {
        RunCfg {
            seeds: 2,
            ..Default::default()
        }
    }

    #[test]
    fn window_size_one_disables_grouping_and_larger_never_hurts() {
        let t = ext_window(&quick());
        for row in &t.rows {
            let w1: f64 = row[1].parse().unwrap();
            let w4: f64 = row[4].parse().unwrap();
            let w8: f64 = row[6].parse().unwrap();
            assert!(
                w4 <= w1 + 1e-9,
                "{}: w=4 ({w4}) worse than w=1 ({w1})",
                row[0]
            );
            assert!(w8 <= w1 + 1e-9);
        }
    }

    #[test]
    fn weaker_ios_pruning_never_improves_latency_worse_than_stronger() {
        let t = ext_ios_pruning(&quick());
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(
            last <= first + 1e-9,
            "wider search ({last}) must be at least as good as narrow ({first})"
        );
    }

    #[test]
    fn realism_layers_add_monotone_overhead() {
        let t = ext_semantics(&quick());
        for row in &t.rows {
            let relaxed: f64 = row[2].parse().unwrap();
            let serial: f64 = row[3].parse().unwrap();
            let gap: f64 = row[4].parse().unwrap();
            let nccl: f64 = row[5].parse().unwrap();
            assert!(serial >= relaxed - 1e-9);
            assert!(gap >= serial - 1e-9);
            assert!(nccl <= gap + 1e-9, "overlap must recover the gap cost");
        }
    }

    #[test]
    fn model_zoo_orderings_hold() {
        let t = ext_model_zoo(&quick());
        assert_eq!(t.rows.len(), 4);
        // Every model: the best multi-GPU HIOS variant never loses to
        // sequential.
        for row in &t.rows {
            let seq: f64 = row[2].parse().unwrap();
            let lp: f64 = row[6].parse().unwrap();
            assert!(lp <= seq * 1.05, "{}: LP {lp} vs sequential {seq}", row[0]);
        }
    }

    #[test]
    fn cnn_latency_improves_with_more_gpus_then_saturates() {
        let t = ext_gpus_cnn(&quick());
        for row in &t.rows {
            let one: f64 = row[1].parse().unwrap();
            let four: f64 = row[3].parse().unwrap();
            assert!(
                four < one,
                "{}: 4 GPUs ({four}) must beat 1 ({one})",
                row[0]
            );
        }
    }
}
