//! Replay of the full detect → repair → resume loop: recovery from the
//! same fault plan, run twice, must be bit-identical — the Reschedule
//! repairs run HIOS-LP on a 700-operator instance, so this replays its
//! candidate trials end to end.

use hios::core::repair::RepairConfig;
use hios::core::{Algorithm, SchedulerOptions, run_scheduler};
use hios::cost::{RandomCostConfig, random_cost_table};
use hios::graph::{LayeredDagConfig, generate_layered_dag};
use hios::sim::{FaultEvent, SimConfig};
use hios::sim::{FaultKind, FaultPlan, run_with_repair, simulate};

#[test]
fn recovery_replays_bit_for_bit() {
    let g = generate_layered_dag(&LayeredDagConfig {
        ops: 700,
        layers: 70,
        deps: 1400,
        seed: 9,
    })
    .unwrap();
    let cost = random_cost_table(&g, &RandomCostConfig::paper_default(9));
    let m = 4usize;
    let out = run_scheduler(Algorithm::HiosLp, &g, &cost, &SchedulerOptions::new(m)).unwrap();
    let base = simulate(&g, &cost, &out.schedule, &SimConfig::analytical())
        .unwrap()
        .makespan;
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at_ms: base * 0.3,
            kind: FaultKind::GpuFailStop { gpu: 1 },
        },
        FaultEvent {
            at_ms: base * 0.6,
            kind: FaultKind::LinkDegrade {
                from: 0,
                to: 2,
                factor: 4.0,
            },
        },
    ]);
    let repair = RepairConfig::default();

    let run = || run_with_repair(&g, &cost, &out.schedule, &plan, &repair).unwrap();
    let r1 = run();
    let r2 = run();

    assert!(r1.completed && r1.repairs >= 2);
    assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.repairs, r2.repairs);
    assert_eq!(r1.final_alive, r2.final_alive);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r1.op_finish), bits(&r2.op_finish));
}
