//! `hetero`: scheduling on a heterogeneous platform (ISSUE 4).
//!
//! The mixed serving box ([`Platform::mixed_a40_v100s`]) has two A40s on
//! an NVLink bridge, two V100Ss on a second bridge, and PCIe Gen3 between
//! the pairs.  Each cell schedules a CNN two ways:
//!
//! * **hetero-aware**: the scheduler sees the true per-device/per-link
//!   cost table, so Alg. 1's "try every GPU" loop prices the V100Ss and
//!   the PCIe cross-links at their real cost;
//! * **homogeneous assumption**: the scheduler believes all four GPUs are
//!   NVLink-bridged A40s (the pre-refactor world view); the resulting
//!   schedule is then priced on the true platform.
//!
//! Headline criterion: `hetero_lp_beats_homogeneous` (the acceptance bar
//! is `true` on every cell).

use super::testbed::build_model;
use crate::study::{Headlines, Row, Study, col};
use crate::{RunCfg, Table};
use hios_core::{Algorithm, SchedulerOptions, evaluate, run_scheduler};
use hios_cost::{AnalyticCostModel, Platform, platform_table};
use rayon::prelude::*;

/// GPU count of the mixed box (fixed by the platform preset).
const GPUS: usize = 4;

/// The `(model, input size)` grid (`--smoke` runs only the first cell).
const GRID: [(&str, u32); 4] = [
    ("inception_v3", 299),
    ("inception_v3", 512),
    ("nasnet", 331),
    ("nasnet", 512),
];

/// One grid cell's inputs.
#[derive(Clone, Copy)]
struct CellCfg {
    model: &'static str,
    size: u32,
}

/// One grid cell's outcome (all latencies priced on the true platform).
struct CellOut {
    cfg: CellCfg,
    hetero_lp_ms: f64,
    hetero_mr_ms: f64,
    sequential_ms: f64,
    homog_lp_ms: f64,
}

impl CellOut {
    /// How much the homogeneous assumption costs relative to hetero-aware
    /// HIOS-LP (> 1 means the hetero-aware schedule wins).
    fn speedup(&self) -> f64 {
        self.homog_lp_ms / self.hetero_lp_ms
    }

    fn row(&self) -> Row {
        vec![
            col("model", self.cfg.model),
            col("input_size", self.cfg.size),
            col("hetero_lp_ms", self.hetero_lp_ms)
                .dp(3)
                .csv_as("hetero_lp"),
            col("hetero_mr_ms", self.hetero_mr_ms)
                .dp(3)
                .csv_as("hetero_mr"),
            col("sequential_ms", self.sequential_ms)
                .dp(3)
                .csv_as("sequential"),
            col("homog_lp_ms", self.homog_lp_ms)
                .dp(3)
                .csv_as("homog_assumption_lp"),
            col("speedup", self.speedup()).dp(3),
        ]
    }
}

/// Runs one cell: schedule on the truth and on the homogeneous lie, then
/// price everything on the truth.
fn run_cell(cfg: CellCfg, validate: bool) -> CellOut {
    let g = build_model(cfg.model, cfg.size);
    let platform = Platform::mixed_a40_v100s();
    let truth = platform_table(&platform, &g).expect("preset platform is valid");
    let opts = SchedulerOptions::new(GPUS);

    let hetero_lp = run_scheduler(Algorithm::HiosLp, &g, &truth, &opts).unwrap();
    let hetero_mr = run_scheduler(Algorithm::HiosMr, &g, &truth, &opts).unwrap();
    let sequential = run_scheduler(Algorithm::Sequential, &g, &truth, &opts).unwrap();
    if validate {
        for out in [&hetero_lp, &hetero_mr, &sequential] {
            out.schedule
                .validate_on_platform(&g, &truth)
                .expect("scheduler output fits the platform");
        }
    }

    // The homogeneous assumption: every GPU is an NVLink-bridged A40.
    // Schedule under the lie, then replay the placement on the truth.
    let assumed = AnalyticCostModel::a40_nvlink().build_table(&g);
    let homog = run_scheduler(Algorithm::HiosLp, &g, &assumed, &opts).unwrap();
    homog
        .schedule
        .validate_on_platform(&g, &truth)
        .expect("mixed box is fully connected");
    let homog_ms = evaluate(&g, &truth, &homog.schedule)
        .expect("feasible placement")
        .latency;

    CellOut {
        cfg,
        hetero_lp_ms: hetero_lp.latency_ms,
        hetero_mr_ms: hetero_mr.latency_ms,
        sequential_ms: sequential.latency_ms,
        homog_lp_ms: homog_ms,
    }
}

/// `hetero`: HIOS-LP / HIOS-MR / sequential on the mixed A40+V100S box
/// versus the homogeneous-assumption schedule, both priced on the true
/// platform.
pub(crate) fn hetero(cfg: &RunCfg) -> Table {
    let grid = if cfg.smoke { &GRID[..1] } else { &GRID[..] };
    let outs: Vec<CellOut> = grid
        .par_iter()
        .map(|&(model, size)| run_cell(CellCfg { model, size }, cfg.validate))
        .collect();

    let all_win = outs.iter().all(|o| o.hetero_lp_ms < o.homog_lp_ms);
    let worst = outs
        .iter()
        .map(CellOut::speedup)
        .fold(f64::INFINITY, f64::min);
    let mean = outs.iter().map(CellOut::speedup).sum::<f64>() / outs.len() as f64;
    let mut headline = Headlines::default();
    headline.criterion(
        "hetero_lp_beats_homogeneous",
        all_win,
        "hetero-aware HIOS-LP must beat the homogeneous assumption on every cell",
    );
    headline
        .metric("worst_speedup", worst)
        .metric("mean_speedup", mean);
    Study::new(
        "hetero",
        "Heterogeneous mixed A40+V100S box: hetero-aware scheduling vs the homogeneous assumption (ms, priced on the true platform)",
    )
    .meta("platform", "mixed_a40_v100s")
    .meta("gpus", GPUS)
    .meta("smoke", cfg.smoke)
    .finish(outs.iter().map(CellOut::row), headline, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_aware_lp_beats_the_homogeneous_assumption() {
        let o = run_cell(
            CellCfg {
                model: "inception_v3",
                size: 299,
            },
            true,
        );
        assert!(
            o.hetero_lp_ms < o.homog_lp_ms,
            "hetero-aware LP ({:.3} ms) must beat the homogeneous assumption ({:.3} ms)",
            o.hetero_lp_ms,
            o.homog_lp_ms
        );
    }

    #[test]
    fn hetero_aware_lp_beats_sequential_on_the_mixed_box() {
        let o = run_cell(
            CellCfg {
                model: "nasnet",
                size: 331,
            },
            true,
        );
        assert!(
            o.hetero_lp_ms <= o.sequential_ms * 1.05,
            "LP {:.3} vs sequential {:.3}",
            o.hetero_lp_ms,
            o.sequential_ms
        );
    }

    #[test]
    fn smoke_run_emits_table_and_headline() {
        let out_dir = std::env::temp_dir().join("hios_bench_hetero_smoke");
        let _ = std::fs::remove_dir_all(&out_dir);
        let cfg = RunCfg {
            smoke: true,
            out_dir,
            ..Default::default()
        };
        let t = hetero(&cfg);
        assert_eq!(t.rows.len(), 1);
        let json = std::fs::read_to_string(cfg.out_dir.join("BENCH_hetero.json"))
            .expect("smoke artifact lands under out_dir");
        assert!(json.contains("\"hetero_lp_beats_homogeneous\": true"));
        std::fs::remove_dir_all(&cfg.out_dir).unwrap();
    }
}
