//! Differential property tests: the optimized evaluation engine must be
//! *bit-identical* to the pre-optimization reference implementations in
//! `hios_core::reference` — same latencies (compared via `to_bits`), same
//! schedules, same errors — on random layered DAGs, random placements,
//! random stage groupings and random window merges.

use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_core::mr::{HiosMrConfig, schedule_hios_mr};
use hios_core::reference;
use hios_core::schedule::{GpuSchedule, Schedule, Stage};
use hios_core::window::parallelize;
use hios_core::{EvalError, EvalWorkspace, evaluate};
use hios_cost::{
    CalibratedTable, Calibrator, CostTable, DeviceCosts, RandomCostConfig, Topology,
    random_cost_table,
};
use hios_graph::{Graph, LayeredDagConfig, OpId, generate_layered_dag};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random instance: layered DAG + paper-default random cost table.
fn instance(ops: usize, layers: usize, seed: u64) -> (Graph, CostTable) {
    let g = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers,
        deps: ops * 2,
        seed,
    })
    .expect("valid layered DAG config");
    let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
    (g, cost)
}

/// A random schedule with grouped stages: operators land on random GPUs
/// (in priority order per GPU, so the schedule is valid), then random
/// runs of consecutive stages are merged — which may produce dependent
/// operators in a stage or cross-GPU circular waits.  Both evaluators
/// must agree on those errors too.
fn random_grouped_schedule(g: &Graph, cost: &CostTable, gpus: usize, rng: &mut StdRng) -> Schedule {
    let order = hios_core::priority::priority_order(g, cost);
    let mut gpu_orders: Vec<Vec<OpId>> = vec![Vec::new(); gpus];
    for &v in &order {
        gpu_orders[rng.random_range(0..gpus)].push(v);
    }
    let mut sched = Schedule::from_gpu_orders(gpu_orders);
    for gpu in &mut sched.gpus {
        let mut grouped: Vec<Stage> = Vec::new();
        for stage in gpu.stages.drain(..) {
            let merge = !grouped.is_empty()
                && grouped.last().map_or(0, |s: &Stage| s.ops.len()) < 3
                && rng.random_range(0..3usize) == 0;
            if merge {
                grouped
                    .last_mut()
                    .expect("non-empty checked")
                    .ops
                    .extend(stage.ops);
            } else {
                grouped.push(stage);
            }
        }
        *gpu = GpuSchedule { stages: grouped };
    }
    sched
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// evaluate() through the workspace engine == reference evaluate,
    /// including Structure/StageCycle errors, on random grouped schedules.
    #[test]
    fn evaluate_matches_reference((ops, layers, gpus, seed) in
        (12usize..48, 2usize..6, 1usize..5, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let sched = random_grouped_schedule(&g, &cost, gpus, &mut rng);
        let fast = evaluate(&g, &cost, &sched);
        let slow = reference::evaluate(&g, &cost, &sched);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(bits(f.latency), bits(s.latency));
                prop_assert_eq!(f.stage_times, s.stage_times);
                let fb: Vec<(u64, u64)> = f.op_start.iter().zip(&f.op_finish)
                    .map(|(a, b)| (bits(*a), bits(*b))).collect();
                let sb: Vec<(u64, u64)> = s.op_start.iter().zip(&s.op_finish)
                    .map(|(a, b)| (bits(*a), bits(*b))).collect();
                prop_assert_eq!(fb, sb);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged: fast {:?} vs reference {:?}",
                a.map(|r| r.latency), b.map(|r| r.latency)),
        }
    }

    /// Incremental merged_latency == full reference evaluation of the
    /// materialized merge (modulo Structure errors, which the window pass
    /// filters out before calling merged_latency).
    #[test]
    fn merged_latency_matches_materialized((ops, layers, gpus, seed) in
        (12usize..48, 2usize..6, 1usize..4, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        // Singleton-stage base schedule (always feasible by construction).
        let order = hios_core::priority::priority_order(&g, &cost);
        let mut gpu_orders: Vec<Vec<OpId>> = vec![Vec::new(); gpus];
        for &v in &order {
            gpu_orders[rng.random_range(0..gpus)].push(v);
        }
        let base = Schedule::from_gpu_orders(gpu_orders);
        let mut ws = EvalWorkspace::new();
        ws.prepare(&g, &cost, &base).expect("base is valid");
        ws.relax().expect("base singleton schedule has no stage cycle");
        // Try every merge window of width 2..=4 on every GPU.
        for gpu in 0..gpus {
            let n_stages = base.gpus[gpu].stages.len();
            for first in 0..n_stages {
                for last in first + 1..n_stages.min(first + 4) {
                    let incremental = ws.merged_latency(&cost, &base, gpu, first, last);
                    let materialized = reference::merge_stages(&base, gpu, first, last);
                    match reference::evaluate(&g, &cost, &materialized) {
                        Ok(r) => {
                            let l = incremental.expect("reference says feasible");
                            prop_assert_eq!(bits(l), bits(r.latency));
                        }
                        Err(EvalError::StageCycle) => {
                            prop_assert_eq!(incremental, Err(EvalError::StageCycle));
                        }
                        Err(EvalError::Structure(_)) => {
                            // Dependent ops in the merged stage: the window
                            // pass's structural pre-check rejects these
                            // before pricing; merged_latency's answer is
                            // unspecified here.
                        }
                    }
                }
            }
        }
    }

    /// The incremental window pass == the reference clone-and-reevaluate
    /// pass: same final schedule, same latency bits.
    #[test]
    fn parallelize_matches_reference((ops, layers, gpus, window, seed) in
        (12usize..40, 2usize..5, 1usize..4, 2usize..6, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let input = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(gpus)).schedule;
        let (fast_sched, fast_lat) = parallelize(&g, &cost, input.clone(), window);
        let (ref_sched, ref_lat) = reference::parallelize(&g, &cost, input, window);
        prop_assert_eq!(fast_sched, ref_sched);
        prop_assert_eq!(bits(fast_lat), bits(ref_lat));
    }
}

proptest! {
    // Scheduler-level equivalence runs the full pipelines; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental candidate trials == reference HIOS-LP.
    #[test]
    fn hios_lp_matches_reference((ops, layers, gpus, intra, seed) in
        (16usize..64, 3usize..7, 1usize..5, 0u8..2, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let cfg = HiosLpConfig {
            num_gpus: gpus,
            window: 4,
            intra: intra == 1,
        };
        let fast = schedule_hios_lp(&g, &cost, cfg);
        let slow = reference::schedule_hios_lp(&g, &cost, cfg);
        prop_assert_eq!(fast.schedule, slow.schedule);
        prop_assert_eq!(bits(fast.latency), bits(slow.latency));
        prop_assert_eq!(fast.gpu_of, slow.gpu_of);
        prop_assert_eq!(fast.paths, slow.paths);
    }

    /// Hoisted-replay row fill == reference HIOS-MR.
    #[test]
    fn hios_mr_matches_reference((ops, layers, gpus, intra, seed) in
        (16usize..64, 3usize..7, 1usize..5, 0u8..2, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let cfg = HiosMrConfig {
            num_gpus: gpus,
            window: 4,
            intra: intra == 1,
        };
        let fast = schedule_hios_mr(&g, &cost, cfg);
        let slow = reference::schedule_hios_mr(&g, &cost, cfg);
        prop_assert_eq!(fast.schedule, slow.schedule);
        prop_assert_eq!(bits(fast.latency), bits(slow.latency));
        prop_assert_eq!(fast.gpu_of, slow.gpu_of);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A random sequence of committed merges: `merged_latency` must price
    /// each candidate exactly as a reference evaluation of the
    /// materialized merge, and after every `commit_merge` the
    /// incrementally-maintained workspace must agree bit-for-bit with a
    /// from-scratch `relax()` of the merged schedule.
    #[test]
    fn merge_sequence_matches_full_relax((ops, layers, gpus, steps, seed) in
        (16usize..64, 3usize..7, 1usize..4, 4usize..16, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, layers, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let order = hios_core::priority::priority_order(&g, &cost);
        let mut gpu_orders: Vec<Vec<OpId>> = vec![Vec::new(); gpus];
        for &v in &order {
            gpu_orders[rng.random_range(0..gpus)].push(v);
        }
        let mut current = Schedule::from_gpu_orders(gpu_orders);
        let mut ws = EvalWorkspace::new();
        ws.prepare(&g, &cost, &current).expect("base is valid");
        ws.relax().expect("singleton base has no stage cycle");
        for _ in 0..steps {
            let gpu = rng.random_range(0..gpus);
            let n_stages = current.gpus[gpu].stages.len();
            if n_stages < 2 {
                continue;
            }
            let first = rng.random_range(0..n_stages - 1);
            let last = (first + 1 + rng.random_range(0..3usize)).min(n_stages - 1);
            let merged = reference::merge_stages(&current, gpu, first, last);
            match reference::evaluate(&g, &cost, &merged) {
                Ok(r) => {
                    let l = ws
                        .merged_latency(&cost, &current, gpu, first, last)
                        .expect("reference says feasible");
                    prop_assert_eq!(bits(l), bits(r.latency));
                    current = merged;
                    let committed = ws.commit_merge(&cost, &current, gpu, first, last);
                    prop_assert_eq!(bits(committed), bits(r.latency));
                    let mut fresh = EvalWorkspace::new();
                    fresh
                        .prepare(&g, &cost, &current)
                        .expect("merged schedule is valid");
                    let full = fresh.relax().expect("reference says feasible");
                    prop_assert_eq!(bits(full), bits(committed));
                }
                Err(EvalError::StageCycle) => {
                    prop_assert_eq!(
                        ws.merged_latency(&cost, &current, gpu, first, last),
                        Err(EvalError::StageCycle)
                    );
                }
                Err(EvalError::Structure(_)) => {
                    // Dependent operators inside the merged stage: the
                    // window pass's structural pre-check rejects these
                    // before pricing, so the candidate is never committed.
                }
            }
        }
    }
}

proptest! {
    // Benchmark-scale legs: few cases, full 1000-op DAGs.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Workspace evaluation stays bit-identical to the reference at
    /// benchmark scale, grouped stages and error cases included.
    #[test]
    fn large_dag_evaluate_matches_reference((ops, gpus, seed) in
        (600usize..=1000, 2usize..5, 0u64..1_000_000))
    {
        let (g, cost) = instance(ops, ops / 8, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a12e);
        let sched = random_grouped_schedule(&g, &cost, gpus, &mut rng);
        let fast = evaluate(&g, &cost, &sched);
        let slow = reference::evaluate(&g, &cost, &sched);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(bits(f.latency), bits(s.latency));
                prop_assert_eq!(f.stage_times, s.stage_times);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged: fast {:?} vs reference {:?}",
                a.map(|r| r.latency), b.map(|r| r.latency)),
        }
    }

    /// Both full scheduler pipelines stay bit-identical to the reference
    /// on 1000-op, 160-layer DAGs (the largest benchmark point).
    #[test]
    fn large_dag_schedulers_match_reference(seed in 0u64..1_000_000) {
        let (g, cost) = instance(1000, 160, seed);
        for m in [2usize, 4] {
            let lp_cfg = HiosLpConfig { num_gpus: m, window: 4, intra: true };
            let fast = schedule_hios_lp(&g, &cost, lp_cfg);
            let slow = reference::schedule_hios_lp(&g, &cost, lp_cfg);
            prop_assert_eq!(bits(fast.latency), bits(slow.latency));
            prop_assert_eq!(fast.schedule, slow.schedule);
            let mr_cfg = HiosMrConfig { num_gpus: m, window: 4, intra: true };
            let fast = schedule_hios_mr(&g, &cost, mr_cfg);
            let slow = reference::schedule_hios_mr(&g, &cost, mr_cfg);
            prop_assert_eq!(bits(fast.latency), bits(slow.latency));
            prop_assert_eq!(fast.schedule, slow.schedule);
        }
    }
}

/// A genuinely heterogeneous 4-GPU expansion of a flat table: device
/// class `c` runs `1 + c/4` slower, link class `l` transfers `1 + l/8`
/// slower.
fn hetero_table(flat: &CostTable) -> CostTable {
    let m = 4usize;
    let scale = |row: &[f64], f: f64| row.iter().map(|x| x * f).collect::<Vec<f64>>();
    let device = DeviceCosts {
        exec_ms: (0..m)
            .map(|c| scale(&flat.device.exec_ms[0], 1.0 + c as f64 / 4.0))
            .collect(),
        util: vec![flat.device.util[0].clone(); m],
    };
    let transfer_ms = (0..m * m)
        .map(|l| scale(&flat.transfer_ms[0], 1.0 + l as f64 / 8.0))
        .collect();
    CostTable::heterogeneous(
        format!("{} (hetero)", flat.source),
        device,
        transfer_ms,
        Topology::hetero((0..m).collect(), (0..m * m).collect()),
        flat.concurrency,
        flat.launch_overhead_ms,
    )
}

/// The calibrated overlay of a fixed drifted-observation stream: GPU 1
/// drifts ~2.5x with a deterministic per-operator wobble, GPU 3 drifts
/// mildly, GPUs 0 and 2 stay nominal.
fn calibrated_table(g: &Graph, cost: &CostTable) -> CostTable {
    let mut cal = Calibrator::new(4, g.num_ops());
    for round in 0..4u32 {
        for v in g.op_ids() {
            let wobble = 1.0 + f64::from((v.index() as u32 ^ round) % 7) / 100.0;
            let predicted = cost.exec(v);
            let _ = cal
                .observe(1, v, predicted * 2.5 * wobble, predicted)
                .unwrap();
            let _ = cal.observe(3, v, predicted * 1.3, predicted).unwrap();
            let _ = cal.observe(0, v, predicted, predicted).unwrap();
        }
    }
    let mut t = CalibratedTable::new(cost.clone(), 4);
    assert!(t.refresh(&cal), "the drift must move planning prices");
    t.table().clone()
}

/// Both schedulers equal the reference on one 600-operator instance,
/// at M = 2 and 4, with and without the intra-GPU pass, on the flat
/// table, a heterogeneous one and a calibrated overlay.
#[test]
fn schedulers_match_reference_on_flat_heterogeneous_and_calibrated_tables() {
    let g = generate_layered_dag(&LayeredDagConfig {
        ops: 600,
        layers: 60,
        deps: 1200,
        seed: 3,
    })
    .unwrap();
    let flat = random_cost_table(&g, &RandomCostConfig::paper_default(3));
    let tables = [
        ("flat", flat.clone()),
        ("hetero", hetero_table(&flat)),
        ("calibrated", calibrated_table(&g, &flat)),
    ];
    for (name, cost) in &tables {
        for m in [2usize, 4] {
            for intra in [false, true] {
                let lp_cfg = HiosLpConfig {
                    num_gpus: m,
                    window: 4,
                    intra,
                };
                let fast = schedule_hios_lp(&g, cost, lp_cfg);
                let slow = reference::schedule_hios_lp(&g, cost, lp_cfg);
                assert_eq!(
                    fast.schedule, slow.schedule,
                    "LP {name} m={m} intra={intra}"
                );
                assert_eq!(
                    bits(fast.latency),
                    bits(slow.latency),
                    "LP {name} m={m} intra={intra}"
                );
                let mr_cfg = HiosMrConfig {
                    num_gpus: m,
                    window: 4,
                    intra,
                };
                let fast = schedule_hios_mr(&g, cost, mr_cfg);
                let slow = reference::schedule_hios_mr(&g, cost, mr_cfg);
                assert_eq!(
                    fast.schedule, slow.schedule,
                    "MR {name} m={m} intra={intra}"
                );
                assert_eq!(
                    bits(fast.latency),
                    bits(slow.latency),
                    "MR {name} m={m} intra={intra}"
                );
            }
        }
    }
}
