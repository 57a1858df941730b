//! Differential test of the calibration overlay's zero-drift guarantee:
//! a scheduler planning through an idle [`CalibratedTable`] must be
//! **bit-identical** — same schedule, same latency bits — to the same
//! scheduler planning on the raw profile, for all six algorithm
//! configurations.  This is the acceptance gate for threading the
//! calibrated planning table through the serving loop: enabling
//! calibration on a drift-free deployment changes nothing.

use hios_core::{Algorithm, SchedulerOptions, run_scheduler};
use hios_cost::{CalibratedTable, Calibrator, CostTable, RandomCostConfig, random_cost_table};
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};

fn instance(seed: u64) -> (Graph, CostTable) {
    let g = generate_layered_dag(&LayeredDagConfig {
        ops: 60,
        layers: 6,
        deps: 120,
        seed,
    })
    .expect("valid layered DAG config");
    let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
    (g, cost)
}

#[test]
fn zero_drift_calibration_is_bit_identical_for_all_six_algorithms() {
    for seed in [11u64, 29] {
        let (g, base) = instance(seed);
        let m = 3;

        // A calibrator that has seen plenty of traffic — all of it
        // exactly matching the profile's predictions.
        let mut cal = Calibrator::new(m, g.num_ops());
        for round in 0..5 {
            for gpu in 0..m {
                for v in g.op_ids() {
                    let t = base.exec_on(gpu, v) * (1.0 + round as f64);
                    let alarm = cal.observe(gpu, v, t, t).expect("valid observation");
                    assert!(alarm.is_none(), "nominal traffic must never alarm");
                }
            }
        }
        assert!(cal.is_identity());
        let mut calibrated = CalibratedTable::new(base.clone(), m);
        assert!(!calibrated.refresh(&cal));

        for algo in Algorithm::ALL {
            let opts = SchedulerOptions::new(m);
            let plain = run_scheduler(algo, &g, &base, &opts).expect("baseline run");
            let overlay =
                run_scheduler(algo, &g, calibrated.table(), &opts).expect("calibrated run");
            assert_eq!(
                plain.schedule,
                overlay.schedule,
                "{} schedule diverged under idle calibration (seed {seed})",
                algo.name()
            );
            assert_eq!(
                plain.latency_ms.to_bits(),
                overlay.latency_ms.to_bits(),
                "{} latency bits diverged under idle calibration (seed {seed})",
                algo.name()
            );
        }
    }
}

#[test]
fn drifted_calibration_changes_plans_but_stays_valid() {
    let (g, base) = instance(7);
    let m = 3;
    let mut cal = Calibrator::new(m, g.num_ops());
    // GPU 2 sustains a 4x slowdown across every operator.
    for _ in 0..6 {
        for v in g.op_ids() {
            let predicted = base.exec_on(2, v);
            let _ = cal.observe(2, v, predicted * 4.0, predicted).unwrap();
        }
    }
    assert!(!cal.is_identity());
    let mut calibrated = CalibratedTable::new(base.clone(), m);
    assert!(calibrated.refresh(&cal));
    let planning = calibrated.table();
    planning.validate(&g).expect("overlay must validate");

    for algo in Algorithm::ALL {
        let opts = SchedulerOptions::new(m);
        let out = run_scheduler(algo, &g, planning, &opts).expect("calibrated run");
        out.schedule
            .validate_full(&g, None)
            .expect("schedules on the overlay stay structurally valid");
        assert!(out.latency_ms.is_finite() && out.latency_ms > 0.0);
    }

    // The multi-GPU schedulers now see GPU 2 as 4x more expensive: the
    // calibrated HIOS-LP plan must place strictly less work there than
    // the uncalibrated plan does.
    let opts = SchedulerOptions::new(m);
    let plain = run_scheduler(Algorithm::HiosLp, &g, &base, &opts).unwrap();
    let adapted = run_scheduler(Algorithm::HiosLp, &g, planning, &opts).unwrap();
    let ops_on = |s: &hios_core::Schedule, gpu: usize| -> usize {
        s.gpus[gpu].stages.iter().map(|st| st.ops.len()).sum()
    };
    assert!(
        ops_on(&adapted.schedule, 2) < ops_on(&plain.schedule, 2),
        "calibrated plan keeps {} ops on the 4x-slow GPU, uncalibrated {}",
        ops_on(&adapted.schedule, 2),
        ops_on(&plain.schedule, 2)
    );
}
