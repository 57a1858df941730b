//! Thread-count invariance of the parallel candidate search: HIOS-LP and
//! HIOS-MR must produce bit-identical outputs with the rayon pool at 1
//! thread and at 4 threads.
//!
//! Runs in its own test binary because it configures the pool and the MR
//! fan-out threshold through environment variables; a single #[test]
//! keeps the env mutations race-free.

use hios_core::eval::EvalWorkspace;
use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_core::mr::{HiosMrConfig, schedule_hios_mr};
use hios_core::repair::{RepairConfig, RepairPolicy, repair_schedule};
use hios_cost::{
    CalibratedTable, Calibrator, CostTable, DeviceCosts, RandomCostConfig, Topology,
    random_cost_table,
};
use hios_graph::{LayeredDagConfig, generate_layered_dag};

/// A genuinely heterogeneous 4-GPU expansion of a flat table: device
/// class `c` runs `1 + c/4` slower, link class `l` transfers `1 + l/8`
/// slower. Exercises the per-class code paths under the parallel search.
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

#[test]
fn lp_and_mr_outputs_are_thread_count_invariant() {
    // Force the MR fan-out on this small instance (read once per process,
    // so it must be set before the first scheduler call) …
    std::env::set_var("HIOS_MR_PAR_THRESHOLD", "1");
    // … and size the instance past the LP fan-out floor of 512 operators.
    let g = generate_layered_dag(&LayeredDagConfig {
        ops: 600,
        layers: 60,
        deps: 1200,
        seed: 3,
    })
    .unwrap();
    let cost = random_cost_table(&g, &RandomCostConfig::paper_default(3));

    // Repair input: the first 60 ops complete (predecessor-closed), one
    // of four GPUs dead; the surviving subgraph of 540 ops is past the LP
    // fan-out floor, so Reschedule repairs hit the parallel path too.
    let mut completed = vec![false; g.num_ops()];
    for &v in hios_graph::topo::topo_order(&g).iter().take(60) {
        completed[v.index()] = true;
    }
    let alive = [true, false, true, true];

    // Heterogeneous leg: the per-class pricing must be just as
    // thread-count invariant as the flat path.
    let hcost = hetero_table(&cost);

    // Calibration leg: replay a fixed drifted-observation stream into a
    // fresh calibrator and schedule on the materialized overlay. The
    // replay, the overlay bits and the schedules on top must all be
    // thread-count invariant.
    let calibrate = || {
        let mut cal = Calibrator::new(4, g.num_ops());
        for round in 0..4u32 {
            for v in g.op_ids() {
                // GPU 1 drifts ~2.5x with a deterministic per-op wobble;
                // GPU 3 drifts mildly; 0 and 2 stay nominal.
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
        t.refresh(&cal);
        (cal.fingerprint(), t)
    };

    let run = || {
        let mut ws = EvalWorkspace::new();
        let (rep, _) = repair_schedule(
            &mut ws,
            &g,
            &cost,
            &completed,
            &alive,
            &RepairConfig::new(RepairPolicy::Reschedule),
        )
        .unwrap();
        let (cal_fp, ctable) = calibrate();
        (
            schedule_hios_lp(&g, &cost, HiosLpConfig::new(4)),
            schedule_hios_mr(&g, &cost, HiosMrConfig::new(4)),
            rep,
            schedule_hios_lp(&g, &hcost, HiosLpConfig::new(4)),
            schedule_hios_mr(&g, &hcost, HiosMrConfig::new(4)),
            cal_fp,
            ctable.table().platform_fingerprint(),
            schedule_hios_lp(&g, ctable.table(), HiosLpConfig::new(4)),
            schedule_hios_mr(&g, ctable.table(), HiosMrConfig::new(4)),
        )
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (lp1, mr1, rep1, hlp1, hmr1, cfp1, pfp1, clp1, cmr1) = run();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let (lp4, mr4, rep4, hlp4, hmr4, cfp4, pfp4, clp4, cmr4) = run();
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(lp1.schedule, lp4.schedule);
    assert_eq!(lp1.latency.to_bits(), lp4.latency.to_bits());
    assert_eq!(lp1.gpu_of, lp4.gpu_of);
    assert_eq!(lp1.paths, lp4.paths);

    assert_eq!(mr1.schedule, mr4.schedule);
    assert_eq!(mr1.latency.to_bits(), mr4.latency.to_bits());
    assert_eq!(mr1.gpu_of, mr4.gpu_of);

    assert_eq!(rep1.schedule, rep4.schedule);
    assert_eq!(rep1.latency.to_bits(), rep4.latency.to_bits());
    assert_eq!(rep1.gpu_map, rep4.gpu_map);

    assert_eq!(hlp1.schedule, hlp4.schedule);
    assert_eq!(hlp1.latency.to_bits(), hlp4.latency.to_bits());
    assert_eq!(hlp1.gpu_of, hlp4.gpu_of);

    assert_eq!(hmr1.schedule, hmr4.schedule);
    assert_eq!(hmr1.latency.to_bits(), hmr4.latency.to_bits());
    assert_eq!(hmr1.gpu_of, hmr4.gpu_of);

    assert_eq!(cfp1, cfp4, "calibration replay must be bit-identical");
    assert_eq!(pfp1, pfp4, "calibrated overlay bits must be identical");
    assert_eq!(clp1.schedule, clp4.schedule);
    assert_eq!(clp1.latency.to_bits(), clp4.latency.to_bits());
    assert_eq!(clp1.gpu_of, clp4.gpu_of);
    assert_eq!(cmr1.schedule, cmr4.schedule);
    assert_eq!(cmr1.latency.to_bits(), cmr4.latency.to_bits());
    assert_eq!(cmr1.gpu_of, cmr4.gpu_of);
}
