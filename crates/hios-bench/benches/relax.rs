//! Criterion: the SoA relaxation kernel — time per full stage-graph
//! relax at 100/500/1000 operators (the innermost unit of work behind
//! every scheduler in the crate).

use criterion::{Criterion, criterion_group, criterion_main};
use hios_core::eval::EvalWorkspace;
use hios_core::lp::{HiosLpConfig, schedule_hios_lp};
use hios_cost::{RandomCostConfig, random_cost_table};
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use std::hint::black_box;

fn bench_relax(c: &mut Criterion) {
    let mut group = c.benchmark_group("relax");
    for (ops, layers) in [(100usize, 16usize), (500, 80), (1000, 160)] {
        let g = generate_layered_dag(&LayeredDagConfig {
            ops,
            layers,
            deps: ops * 2,
            seed: 7,
        })
        .unwrap();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(7));
        let sched = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2)).schedule;
        let mut ws = EvalWorkspace::new();
        ws.prepare(&g, &cost, &sched).unwrap();
        group.bench_function(format!("{ops}ops"), |b| {
            b.iter(|| black_box(ws.relax().unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_relax);
criterion_main!(benches);
