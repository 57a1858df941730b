//! `sched_offline`: the paper's own use — a fixed list of scheduling
//! jobs timed through `run_scheduler` only.
//!
//! §V-A random layered DAGs (200 operators / 14 layers / 400
//! dependencies × 30 seeds, and 100…400 operators step 50 × 10 seeds,
//! random costs, M = 4), the 1000-operator / 160-layer instance at
//! M ∈ {2, 4}, and Inception-v3 / NASNet-A at the five paper input sizes
//! (M = 2), each under HIOS-LP, HIOS-MR and the two inter-GPU-only
//! ablations; the list is looped three times per repetition.  Sequential
//! is computed in set-up as the baseline; IOS (seconds per large
//! instance) stays out of the timed list.  This is the scheduler at
//! paper scale, raw — the layer `serve_steady` bypasses.  After timing,
//! every plan is validated, simulated once for its `sim_*` numbers, and
//! on small instances compared bit-for-bit with `hios_core::reference`.

use super::{Traced, Workload};
use crate::harness::percentile;
use crate::layers::Layers;
use crate::replay::Tally;
use crate::serving::{SimStats, sequential_ms};
use crate::span::Recorder;
use hios_core::lp::HiosLpConfig;
use hios_core::mr::HiosMrConfig;
use hios_core::{Algorithm, Schedule, SchedulerOptions, reference, run_scheduler};
use hios_cost::{AnalyticCostModel, CostTable, RandomCostConfig, random_cost_table};
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};
use hios_models::{ModelConfig, inception_v3, nasnet_a};
use hios_sim::{SimConfig, simulate};
use std::time::Instant;

/// The four multi-GPU configurations of §V-B, in job order.
const ALGOS: [Algorithm; 4] = [
    Algorithm::HiosLp,
    Algorithm::HiosMr,
    Algorithm::InterGpuLp,
    Algorithm::InterGpuMr,
];
const LOOPS: usize = 3;
/// Instances this small are also checked against the verbatim reference
/// schedulers.
const REFERENCE_MAX_OPS: usize = 120;
const INCEPTION_SIZES: [u32; 5] = [299, 448, 512, 768, 1024];
const NASNET_SIZES: [u32; 5] = [331, 448, 512, 768, 1024];

pub struct Instance {
    name: String,
    graph: Graph,
    cost: CostTable,
    gpus: usize,
    /// Simulated latency of the Sequential schedule, ms.
    seq_ms: f64,
}

pub struct Input {
    instances: Vec<Instance>,
    smoke: bool,
}

/// One loop's plans in job order (instance-major, [`ALGOS`]-minor) and
/// a digest over every loop's latencies.
pub struct Output {
    plans: Vec<(Schedule, f64)>,
    digest: u64,
}

fn opts(gpus: usize) -> SchedulerOptions {
    let mut o = SchedulerOptions::new(gpus);
    // Validation runs after timing, on every plan.
    o.validate = false;
    o
}

fn random_instance(
    ops: usize,
    layers_n: usize,
    seed: u64,
    gpus: usize,
    layers: &mut Layers,
) -> (String, Graph, CostTable, usize) {
    let started = Instant::now();
    let graph = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: layers_n,
        deps: 2 * ops,
        seed,
    })
    .expect("feasible §V-A configuration");
    layers.add("graph.build_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let cost = random_cost_table(&graph, &RandomCostConfig::paper_default(seed));
    layers.add("cost.build_table_s", started.elapsed().as_secs_f64());
    (
        format!("dag{ops}x{layers_n}s{seed}m{gpus}"),
        graph,
        cost,
        gpus,
    )
}

fn model_instance(name: &str, size: u32, layers: &mut Layers) -> (String, Graph, CostTable, usize) {
    let started = Instant::now();
    let cfg = ModelConfig::with_input(size);
    let graph = if name == "inception_v3" {
        inception_v3(&cfg)
    } else {
        nasnet_a(&cfg)
    };
    layers.add("graph.build_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
    layers.add("cost.build_table_s", started.elapsed().as_secs_f64());
    (format!("{name}@{size}m2"), graph, cost, 2)
}

fn eat(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

pub struct SchedOffline;

impl SchedOffline {
    /// The timed part: every job, [`LOOPS`] times, `around` wrapping each
    /// `run_scheduler` call (a no-op untraced, a span traced).
    fn jobs(input: &Input, mut around: impl FnMut(Algorithm, &mut dyn FnMut())) -> Output {
        let loops = if input.smoke { 1 } else { LOOPS };
        let mut plans = Vec::with_capacity(input.instances.len() * ALGOS.len());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for lap in 0..loops {
            for inst in &input.instances {
                let o = opts(inst.gpus);
                for algo in ALGOS {
                    let mut outcome = None;
                    around(algo, &mut || {
                        outcome = Some(
                            run_scheduler(algo, &inst.graph, &inst.cost, &o)
                                .expect("paper-scale instances schedule"),
                        );
                    });
                    let outcome = outcome.expect("the wrapper runs the job");
                    eat(&mut digest, outcome.latency_ms.to_bits());
                    eat(&mut digest, outcome.schedule.content_digest());
                    if lap == 0 {
                        plans.push((outcome.schedule, outcome.latency_ms));
                    }
                }
            }
        }
        Output { plans, digest }
    }

    /// Simulated latency of every plan (NaN for a plan that fails
    /// validation or simulation), in job order.
    fn simulated(input: &Input, out: &Output) -> Vec<f64> {
        let mut sims = Vec::with_capacity(out.plans.len());
        for (j, (plan, _)) in out.plans.iter().enumerate() {
            let inst = &input.instances[j / ALGOS.len()];
            let ok = plan.validate_full(&inst.graph, None).is_ok();
            let sim = simulate(&inst.graph, &inst.cost, plan, &SimConfig::analytical());
            sims.push(match sim {
                Ok(r) if ok && r.makespan.is_finite() => r.makespan,
                _ => f64::NAN,
            });
        }
        sims
    }
}

impl Workload for SchedOffline {
    const NAME: &'static str = "sched_offline";
    type Input = Input;
    type Output = Output;

    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Input {
        let base = 1_000 * seed;
        let mut raw = Vec::new();
        let (default_seeds, sweep_seeds) = if smoke { (2, 1) } else { (30, 10) };
        for s in 0..default_seeds {
            raw.push(random_instance(200, 14, base + s, 4, layers));
        }
        for ops in (100..=400).step_by(50) {
            for s in 0..sweep_seeds {
                raw.push(random_instance(ops, 14, base + 100 + s, 4, layers));
            }
        }
        if !smoke {
            for gpus in [2, 4] {
                raw.push(random_instance(1000, 160, base + 200, gpus, layers));
            }
        }
        let sizes = if smoke { 1 } else { INCEPTION_SIZES.len() };
        for &size in &INCEPTION_SIZES[..sizes] {
            raw.push(model_instance("inception_v3", size, layers));
        }
        for &size in &NASNET_SIZES[..sizes] {
            raw.push(model_instance("nasnet_a", size, layers));
        }
        let instances = raw
            .into_iter()
            .map(|(name, graph, cost, gpus)| {
                let seq_ms = sequential_ms(&graph, &cost);
                Instance {
                    name,
                    graph,
                    cost,
                    gpus,
                    seq_ms,
                }
            })
            .collect();
        Input { instances, smoke }
    }

    fn work(input: &Input) -> usize {
        input.instances.len() * ALGOS.len() * if input.smoke { 1 } else { LOOPS }
    }

    fn run(input: &Input, _rep: usize) -> Output {
        Self::jobs(input, |_, job| job())
    }

    fn digest(out: &Output) -> u64 {
        out.digest
    }

    fn verify(input: &Input, out: &Output, _smoke: bool, failures: &mut Vec<String>) -> usize {
        let sims = Self::simulated(input, out);
        let invalid = sims.iter().filter(|s| s.is_nan()).count();
        if invalid > 0 {
            failures.push(format!(
                "{invalid} plans fail validate_full or do not simulate"
            ));
        }
        // Differential check against the verbatim reference schedulers,
        // bit for bit, on the instances small enough to afford it.
        let mut mismatched = 0usize;
        for (i, inst) in input.instances.iter().enumerate() {
            if inst.graph.num_ops() > REFERENCE_MAX_OPS {
                continue;
            }
            let lp =
                reference::schedule_hios_lp(&inst.graph, &inst.cost, HiosLpConfig::new(inst.gpus));
            let mr =
                reference::schedule_hios_mr(&inst.graph, &inst.cost, HiosMrConfig::new(inst.gpus));
            let ours_lp = out.plans[i * ALGOS.len()].1;
            let ours_mr = out.plans[i * ALGOS.len() + 1].1;
            if lp.latency.to_bits() != ours_lp.to_bits()
                || mr.latency.to_bits() != ours_mr.to_bits()
            {
                failures.push(format!(
                    "{}: HIOS-LP/MR latency differs from hios_core::reference",
                    inst.name
                ));
                mismatched += 1;
            }
        }
        invalid + mismatched
    }

    /// `ok_frac`: plans that are valid and no slower than Sequential ÷
    /// plans; `gold_ok_frac`: the same over the HIOS-LP plans (the
    /// paper's headline algorithm); `sim_p50_ms` / `sim_p99_ms`: over the
    /// plans' simulated latencies; `sim_goodput_rps`: plans per second of
    /// simulated latency; `sim_speedup_vs_seq`: geometric mean of
    /// Sequential ÷ plan simulated latency.
    fn sim_stats(input: &Input, out: &Output) -> SimStats {
        let sims = Self::simulated(input, out);
        let (mut ok, mut lp_ok, mut lp_total) = (0usize, 0usize, 0usize);
        let mut log_speedup = 0.0;
        let mut total_ms = 0.0;
        let mut finite = Vec::with_capacity(sims.len());
        for (j, &sim_ms) in sims.iter().enumerate() {
            let seq_ms = input.instances[j / ALGOS.len()].seq_ms;
            let good = sim_ms <= seq_ms;
            ok += usize::from(good);
            if j % ALGOS.len() == 0 {
                lp_total += 1;
                lp_ok += usize::from(good);
            }
            if sim_ms.is_finite() {
                finite.push(sim_ms);
                total_ms += sim_ms;
                log_speedup += (seq_ms / sim_ms).ln();
            }
        }
        finite.sort_by(f64::total_cmp);
        let n = finite.len().max(1) as f64;
        SimStats {
            ok_frac: ok as f64 / sims.len().max(1) as f64,
            gold_ok_frac: lp_ok as f64 / lp_total.max(1) as f64,
            p50_ms: if finite.is_empty() {
                0.0
            } else {
                percentile(&finite, 0.50)
            },
            p99_ms: if finite.is_empty() {
                0.0
            } else {
                percentile(&finite, 0.99)
            },
            goodput_rps: if total_ms > 0.0 {
                finite.len() as f64 / (total_ms / 1000.0)
            } else {
                0.0
            },
            speedup_vs_seq: (log_speedup / n).exp(),
            samples: finite.len(),
        }
    }

    fn trace(input: &Input, rec: &mut Recorder) -> Traced<Output> {
        let mut layers = Layers::new();
        let mut tally = Tally::default();
        let key = |algo: Algorithm| match algo {
            Algorithm::HiosLp => "core.sched.lp",
            Algorithm::HiosMr => "core.sched.mr",
            Algorithm::InterGpuLp => "core.sched.inter_lp",
            Algorithm::InterGpuMr => "core.sched.inter_mr",
            Algorithm::Sequential => "core.sched.seq",
            Algorithm::Ios => "core.sched.ios",
        };
        // Real spans: every job is its own call into the scheduler layer.
        let root = rec.enter("job_list");
        let out = Self::jobs(input, |algo, job| {
            let (_, busy_s) = rec.time(key(algo), job);
            tally.add(key(algo), busy_s, 1);
        });
        let wall_s = rec.exit(root);

        // Outside the timed list: the Sequential baseline, the IOS
        // baseline on one CNN and one 100-operator DAG, and the checks.
        for inst in &input.instances {
            let (_, busy_s) = rec.time("core.sched.seq", || {
                run_scheduler(Algorithm::Sequential, &inst.graph, &inst.cost, &opts(1))
                    .expect("sequential baseline")
            });
            tally.add("core.sched.seq", busy_s, 1);
        }
        let small_dag = input.instances.iter().find(|i| i.graph.num_ops() == 100);
        let cnn = input
            .instances
            .iter()
            .find(|i| i.name.starts_with("inception_v3"));
        for inst in small_dag.into_iter().chain(cnn) {
            let (_, busy_s) = rec.time("core.sched.ios", || {
                run_scheduler(Algorithm::Ios, &inst.graph, &inst.cost, &opts(1))
                    .expect("IOS baseline")
            });
            tally.add("core.sched.ios", busy_s, 1);
        }
        let check = rec.enter("checks");
        for (j, (plan, _)) in out.plans.iter().enumerate() {
            let inst = &input.instances[j / ALGOS.len()];
            let (_, busy_s) = rec.time("core.validate", || {
                plan.validate_full(&inst.graph, None)
                    .expect("plans validate")
            });
            tally.add("core.validate", busy_s, 1);
            let (_, busy_s) = rec.time("sim.simulate_scaled", || {
                simulate(&inst.graph, &inst.cost, plan, &SimConfig::analytical())
                    .expect("plans simulate")
            });
            tally.add("sim.simulate_scaled", busy_s, 1);
        }
        rec.exit(check);
        tally.write(&mut layers);
        layers.set(
            "sim.simulate_scaled.share_of_wall",
            tally.busy_s("sim.simulate_scaled") / wall_s,
        );
        Traced {
            out,
            layers,
            wall_s,
        }
    }
}
