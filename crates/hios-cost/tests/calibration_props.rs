//! Property tests of the calibration subsystem: no observation stream —
//! however hostile — may ever produce a planning table that fails
//! [`CostTable::validate`], and bad inputs must be rejected without
//! mutating calibrator state.

use hios_cost::uncertainty::{MAX_FACTOR, MIN_FACTOR};
use hios_cost::{CalibratedTable, Calibrator, CostTable, RandomCostConfig, random_cost_table};
use hios_graph::{Graph, LayeredDagConfig, OpId, generate_layered_dag};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(ops: usize, seed: u64) -> (Graph, CostTable) {
    let g = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: 3,
        deps: ops,
        seed,
    })
    .expect("valid layered DAG config");
    let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
    (g, cost)
}

/// One hostile observation: mostly plausible ratios, salted with huge
/// outliers, zeros, negatives, NaNs and infinities.
fn hostile_duration(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -rng.random_range(0.0..10.0f64),
        5 => rng.random_range(1e12..1e18),
        6 => rng.random_range(1e-18..1e-12),
        _ => rng.random_range(0.01..50.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary observation streams (including NaN-adjacent garbage)
    /// never produce a `CalibratedTable` whose planning table fails
    /// `CostTable::validate`, on the full platform or on any alive
    /// subset, and never panic.
    #[test]
    fn hostile_streams_keep_planning_tables_valid((ops, gpus, n_obs, seed) in
        (4usize..24, 1usize..5, 1usize..300, 0u64..1_000_000))
    {
        let (g, base) = instance(ops, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca11b);
        let mut cal = Calibrator::new(gpus, g.num_ops());
        let mut table = CalibratedTable::new(base, gpus);
        for _ in 0..n_obs {
            let gpu = rng.random_range(0..gpus);
            let op = OpId(rng.random_range(0..g.num_ops()) as u32);
            let observed = hostile_duration(&mut rng);
            let predicted = hostile_duration(&mut rng);
            // Bad pairs are rejected; good pairs are folded in. Either
            // way the overlay must stay validate-clean.
            let _ = cal.observe(gpu, op, observed, predicted);
            if rng.random_range(0..8u32) == 0 {
                table.refresh(&cal);
                prop_assert!(table.table().validate(&g).is_ok(),
                    "planning table failed validation: {:?}",
                    table.table().validate(&g));
            }
        }
        table.refresh(&cal);
        prop_assert!(table.table().validate(&g).is_ok());
        // Alive-subset restriction (the serving repair path) stays valid.
        if gpus > 1 {
            let sub: Vec<usize> = (1..gpus).collect();
            prop_assert!(table.table().restrict_gpus(&sub).validate(&g).is_ok());
        }
        // Corrections are always inside the clamp.
        for gpu in 0..gpus {
            for i in 0..g.num_ops() {
                let c = cal.correction(gpu, OpId(i as u32));
                prop_assert!(c.is_finite() && (MIN_FACTOR..=MAX_FACTOR).contains(&c),
                    "correction {c} escaped clamp at gpu {gpu} op {i}");
            }
        }
    }

    /// Streams of exactly-nominal observations keep the calibrator an
    /// identity: the planning table stays the base table, bit for bit.
    #[test]
    fn nominal_streams_are_bitwise_identity((ops, gpus, n_obs, seed) in
        (4usize..24, 1usize..5, 1usize..200, 0u64..1_000_000))
    {
        let (g, base) = instance(ops, seed);
        let base_fp = base.platform_fingerprint();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1de277);
        let mut cal = Calibrator::new(gpus, g.num_ops());
        let mut table = CalibratedTable::new(base, gpus);
        for _ in 0..n_obs {
            let gpu = rng.random_range(0..gpus);
            let op = OpId(rng.random_range(0..g.num_ops()) as u32);
            let dur = rng.random_range(0.01..100.0f64);
            let alarm = cal.observe(gpu, op, dur, dur).unwrap();
            prop_assert!(alarm.is_none());
        }
        prop_assert!(cal.is_identity());
        prop_assert!(!table.refresh(&cal));
        prop_assert!(table.is_identity());
        prop_assert_eq!(table.table().platform_fingerprint(), base_fp);
        prop_assert!(table.table().validate(&g).is_ok());
    }
}
