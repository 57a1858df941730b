//! Pins every output bit of `simulate_scaled`.
//!
//! Each case is one (configuration, scaling) pair, run over seeded
//! layered DAGs, a uniform random table and the mixed A40 + V100S table,
//! and HIOS-LP and HIOS-MR plans at M = 2–4.  The bits of `makespan`,
//! `op_start`, `op_finish`, every `TransferRecord` and `gpu_busy` fold
//! into one FNV-1a value per case, so a change to the engine that moves
//! any simulated instant — a tie broken the other way, an addition done
//! in another order, a stalled delivery dropped — fails here and names
//! the semantics and the scaling it moved under.

use hios_core::{Algorithm, Schedule, SchedulerOptions, run_scheduler};
use hios_cost::{CostTable, Platform, RandomCostConfig, platform_table, random_cost_table};
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};
use hios_sim::{Scaling, Semantics, SimConfig, SimResult, simulate_scaled};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_result(h: &mut u64, r: &SimResult) {
    fold(h, r.makespan.to_bits());
    for (&s, &f) in r.op_start.iter().zip(&r.op_finish) {
        fold(h, s.to_bits());
        fold(h, f.to_bits());
    }
    fold(h, r.transfers.len() as u64);
    for t in &r.transfers {
        fold(h, u64::from(t.from.0));
        fold(h, u64::from(t.to.0));
        fold(h, t.from_gpu as u64);
        fold(h, t.to_gpu as u64);
        fold(h, t.start.to_bits());
        fold(h, t.finish.to_bits());
    }
    for &b in &r.gpu_busy {
        fold(h, b.to_bits());
    }
}

/// The four configurations: both presets, relaxed release without link
/// serialization, and stage-synchronous release with serialization and
/// a launch gap.
fn configs(cost: &CostTable) -> [(&'static str, SimConfig); 4] {
    let mut relaxed_free = SimConfig::realistic(cost);
    relaxed_free.semantics = Semantics::Relaxed;
    relaxed_free.link_serialization = false;
    let mut sync_serial = SimConfig::analytical();
    sync_serial.link_serialization = true;
    sync_serial.cross_gpu_launch_gap_ms = 0.02;
    [
        ("analytical", SimConfig::analytical()),
        ("realistic", SimConfig::realistic(cost)),
        ("relaxed_unserialized", relaxed_free),
        ("sync_serialized_gap", sync_serial),
    ]
}

/// The four scalings on an `m`-GPU plan: nominal, the last GPU slowed,
/// link 1 -> 0 degraded, and link 0 -> 1 stalled.
fn scalings(m: usize) -> [(&'static str, Scaling); 4] {
    let mut slowed = Scaling::identity(m);
    slowed.gpu[m - 1] = 1.75;
    let mut degraded = Scaling::identity(m);
    degraded.link[m] = 3.0;
    let mut stalled = Scaling::identity(m);
    stalled.link[1] = f64::INFINITY;
    [
        ("identity", Scaling::identity(m)),
        ("slowed_gpu", slowed),
        ("degraded_link", degraded),
        ("stalled_link", stalled),
    ]
}

/// Every (graph, table, plan) the cases run over.
fn instances() -> Vec<(Graph, CostTable, Schedule)> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops: 36,
            layers: 6,
            deps: 70,
            seed,
        })
        .unwrap();
        let tables = [
            random_cost_table(&g, &RandomCostConfig::paper_default(seed)),
            platform_table(&Platform::mixed_a40_v100s(), &g).unwrap(),
        ];
        for cost in tables {
            for alg in [Algorithm::HiosLp, Algorithm::HiosMr] {
                for m in 2..=4 {
                    let sched = run_scheduler(alg, &g, &cost, &SchedulerOptions::new(m))
                        .unwrap()
                        .schedule;
                    out.push((g.clone(), cost.clone(), sched));
                }
            }
        }
    }
    out
}

#[test]
fn simulate_scaled_output_bits_are_pinned() {
    #[rustfmt::skip]
    let want: [(&str, u64); 16] = [
        ("analytical/identity", 0xe65aebbb60e4f7df),
        ("analytical/slowed_gpu", 0x8e1eede95352af5e),
        ("analytical/degraded_link", 0x3869d344b9c1b150),
        ("analytical/stalled_link", 0x7758faecb9127af4),
        ("realistic/identity", 0xec2f080a1515de7b),
        ("realistic/slowed_gpu", 0xf37ee4382b16a565),
        ("realistic/degraded_link", 0xe300666fbe4766a5),
        ("realistic/stalled_link", 0x064f662758800b9f),
        ("relaxed_unserialized/identity", 0xba9ad04bf19a8c8a),
        ("relaxed_unserialized/slowed_gpu", 0xf8264e842a0d7552),
        ("relaxed_unserialized/degraded_link", 0xdcdcfb74814fe10f),
        ("relaxed_unserialized/stalled_link", 0xb1aa89cc2d9b44fa),
        ("sync_serialized_gap/identity", 0xc51d38add8d35f16),
        ("sync_serialized_gap/slowed_gpu", 0x158d12fad8b926df),
        ("sync_serialized_gap/degraded_link", 0x4b5a67a9439412d9),
        ("sync_serialized_gap/stalled_link", 0x56283ebc3e1b696b),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    let instances = instances();
    for ci in 0..4 {
        for si in 0..4 {
            let mut h = FNV_OFFSET;
            let mut name = String::new();
            for (g, cost, sched) in &instances {
                let (cname, cfg) = &configs(cost)[ci];
                let (sname, scaling) = &scalings(sched.num_gpus())[si];
                name = format!("{cname}/{sname}");
                match simulate_scaled(g, cost, sched, cfg, scaling) {
                    Ok(r) => fold_result(&mut h, &r),
                    Err(e) => panic!("{name}: {e}"),
                }
            }
            got.push((name, h));
        }
    }
    let listing: String = got
        .iter()
        .map(|(name, h)| format!("        (\"{name}\", {h:#018x}),\n"))
        .collect();
    for ((name, h), (want_name, want_h)) in got.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(h, want_h, "{name} moved; every case now reads:\n{listing}");
    }
}
