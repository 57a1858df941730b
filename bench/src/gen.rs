//! The benchmark's own input generators.
//!
//! Workload definitions must not drift with `hios-serve::workload`
//! (which deals tenants round-robin, so an LRU smaller than the tenant
//! count gets exactly zero hits), so the benchmark owns its arrival
//! process, tenant popularity, class mix and trace edits, down to the
//! random-number generator.  Everything here is a pure function of its
//! arguments: the same seed gives the same trace on every machine.

use crate::layers::Layers;
use hios_cost::AnalyticCostModel;
use hios_graph::{Graph, LayeredDagConfig, generate_layered_dag};
use hios_serve::{PriorityClass, Request, ServedModel};
use std::time::Instant;

/// splitmix64 stream: tiny, seedable, and good enough for arrival gaps
/// and categorical draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Tenant popularity as a cumulative distribution over tenant indices.
pub struct Popularity {
    cdf: Vec<f64>,
}

impl Popularity {
    /// Zipf with exponent `s` over `n` tenants (rank = tenant index);
    /// `s = 0` is uniform.
    pub fn zipf(n: usize, s: f64) -> Self {
        assert!(n > 0, "at least one tenant");
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        cdf[n - 1] = 1.0;
        Popularity { cdf }
    }

    pub fn uniform(n: usize) -> Self {
        Popularity::zipf(n, 0.0)
    }

    /// The tenant whose cumulative interval contains `u ∈ [0, 1)`.
    pub fn draw(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of tenant `i`.
    #[cfg(test)]
    pub fn mass(&self, i: usize) -> f64 {
        self.cdf[i] - if i == 0 { 0.0 } else { self.cdf[i - 1] }
    }
}

/// Gold / Silver / Bronze arrival shares.
pub const CLASS_SHARE: [f64; 3] = [0.2, 0.3, 0.5];

/// Deadline multiplier of each class on top of the base factor.
pub const CLASS_DEADLINE_MULT: [f64; 3] = [1.0, 1.5, 2.5];

/// A window of the arrival schedule during which the rate is multiplied.
#[derive(Clone, Copy)]
pub struct RateBurst {
    pub from_ms: f64,
    pub to_ms: f64,
    pub mult: f64,
}

/// Shape of one open-loop arrival trace.
pub struct TraceSpec {
    pub requests: usize,
    pub rate_rps: f64,
    /// Deadline = arrival + class multiplier × this × the tenant's
    /// nominal latency.
    pub deadline_factor: f64,
    pub popularity: Popularity,
    pub burst: Option<RateBurst>,
    pub seed: u64,
}

/// Poisson arrivals (exponential gaps by inverse CDF), tenants drawn
/// from `spec.popularity`, classes from [`CLASS_SHARE`].  Ids are the
/// positions `0..requests`.
pub fn poisson_trace(spec: &TraceSpec, nominal_ms: &[f64]) -> Vec<Request> {
    assert!(spec.rate_rps > 0.0 && spec.rate_rps.is_finite());
    let mut rng = Rng::new(spec.seed);
    let mean_gap_ms = 1000.0 / spec.rate_rps;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests {
        let mult = match spec.burst {
            Some(b) if t >= b.from_ms && t < b.to_ms => b.mult,
            _ => 1.0,
        };
        t += -(mean_gap_ms / mult) * (1.0 - rng.unit()).ln();
        let model = spec.popularity.draw(rng.unit());
        let u = rng.unit();
        let class = if u < CLASS_SHARE[0] {
            PriorityClass::Gold
        } else if u < CLASS_SHARE[0] + CLASS_SHARE[1] {
            PriorityClass::Silver
        } else {
            PriorityClass::Bronze
        };
        out.push(Request {
            id: id as u64,
            model,
            arrival_ms: t,
            deadline_ms: t + CLASS_DEADLINE_MULT[class.index()]
                * spec.deadline_factor
                * nominal_ms[model],
            class,
        });
    }
    out
}

/// Tightens every `every`-th Gold request's deadline to `factor` × its
/// tenant's nominal latency (deadline-critical traffic for hedging).
/// Returns how many were tightened.
pub fn tighten_gold(trace: &mut [Request], nominal_ms: &[f64], every: usize, factor: f64) -> usize {
    let mut tightened = 0usize;
    let golds = trace.iter_mut().filter(|r| r.class == PriorityClass::Gold);
    for r in golds.step_by(every) {
        r.deadline_ms = r.arrival_ms + factor * nominal_ms[r.model];
        tightened += 1;
    }
    tightened
}

/// Splices `count` Bronze requests that all arrive at exactly `at_ms`
/// (ids continue after the trace's), tenants round-robin.  Arrivals beat
/// same-instant fault events in the event queues, so a burst placed at a
/// kill instant is admitted first and the kill finds it queued.
pub fn insert_burst(
    trace: &mut Vec<Request>,
    at_ms: f64,
    count: usize,
    nominal_ms: &[f64],
    deadline_factor: f64,
) {
    let first_id = trace.len() as u64;
    let at = trace.partition_point(|r| r.arrival_ms <= at_ms);
    let burst = (0..count).map(|i| {
        let model = i % nominal_ms.len();
        Request {
            id: first_id + i as u64,
            model,
            arrival_ms: at_ms,
            deadline_ms: at_ms
                + CLASS_DEADLINE_MULT[PriorityClass::Bronze.index()]
                    * deadline_factor
                    * nominal_ms[model],
            class: PriorityClass::Bronze,
        }
    });
    trace.splice(at..at, burst);
}

/// Last arrival instant of a trace, ms.
pub fn span_ms(trace: &[Request]) -> f64 {
    trace.last().map_or(0.0, |r| r.arrival_ms)
}

/// Wraps `graph` as a tenant priced by the A40 + NVLink analytic model,
/// charging the table build to `cost.build_table_s`.
pub fn tenant(name: String, graph: Graph, layers: &mut Layers) -> ServedModel {
    let started = Instant::now();
    let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
    layers.add("cost.build_table_s", started.elapsed().as_secs_f64());
    ServedModel { name, graph, cost }
}

/// A random layered DAG (paper §V-A generator) with `2 × ops`
/// dependencies, charging the build to `graph.build_s`.
pub fn layered_graph(seed: u64, ops: usize, layers_n: usize, layers: &mut Layers) -> Graph {
    let started = Instant::now();
    let graph = generate_layered_dag(&LayeredDagConfig {
        ops,
        layers: layers_n,
        deps: ops * 2,
        seed,
    })
    .expect("feasible layered-DAG configuration");
    layers.add("graph.build_s", started.elapsed().as_secs_f64());
    graph
}

/// The six small tenants shared by `serve_steady`, `serve_chaos` and
/// `fleet_failover`: 20–48-operator layered DAGs.  Model seeds are part
/// of the workload definition and do not change with `--seed`; the seed
/// moves the traffic, not the models, so simulated-time metrics stay
/// comparable across seeds.
pub fn small_tenants(layers: &mut Layers) -> Vec<ServedModel> {
    [
        (61u64, 20usize),
        (62, 26),
        (63, 32),
        (64, 36),
        (65, 42),
        (66, 48),
    ]
    .iter()
    .map(|&(seed, ops)| {
        let graph = layered_graph(seed, ops, 6, layers);
        tenant(format!("layered{ops}"), graph, layers)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64, popularity: Popularity) -> TraceSpec {
        TraceSpec {
            requests: 20_000,
            rate_rps: 500.0,
            deadline_factor: 10.0,
            popularity,
            burst: None,
            seed,
        }
    }

    #[test]
    fn same_seed_same_trace_and_seeds_differ() {
        let nominal = [1.0, 2.0, 3.0];
        let a = poisson_trace(&spec(7, Popularity::uniform(3)), &nominal);
        let b = poisson_trace(&spec(7, Popularity::uniform(3)), &nominal);
        let c = poisson_trace(&spec(8, Popularity::uniform(3)), &nominal);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        // Mean gap tracks the rate: 2 ms at 500 rps.
        let gap = span_ms(&a) / a.len() as f64;
        assert!((1.9..2.1).contains(&gap), "mean gap {gap}");
    }

    #[test]
    fn class_shares_and_deadlines_follow_the_mix() {
        let nominal = [2.0];
        let t = poisson_trace(&spec(3, Popularity::uniform(1)), &nominal);
        let mut counts = [0usize; 3];
        for r in &t {
            counts[r.class.index()] += 1;
            let want = CLASS_DEADLINE_MULT[r.class.index()] * 10.0 * 2.0;
            assert!((r.deadline_ms - r.arrival_ms - want).abs() < 1e-9);
        }
        for c in 0..3 {
            let share = counts[c] as f64 / t.len() as f64;
            assert!((share - CLASS_SHARE[c]).abs() < 0.02, "class {c}: {share}");
        }
    }

    #[test]
    fn zipf_mass_is_skewed_and_sampled_faithfully() {
        let pop = Popularity::zipf(48, 1.0);
        let h48: f64 = (1..=48).map(|k| 1.0 / k as f64).sum();
        assert!((pop.mass(0) - 1.0 / h48).abs() < 1e-12);
        assert!((pop.mass(47) - 1.0 / (48.0 * h48)).abs() < 1e-12);
        let total: f64 = (0..48).map(|i| pop.mass(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let t = poisson_trace(&spec(5, Popularity::zipf(48, 1.0)), &[1.0; 48]);
        let top = t.iter().filter(|r| r.model == 0).count() as f64 / t.len() as f64;
        assert!((top - pop.mass(0)).abs() < 0.02, "top tenant share {top}");
        let head: usize = t.iter().filter(|r| r.model < 12).count();
        assert!(
            head as f64 / t.len() as f64 > 0.6,
            "head of the Zipf is hot"
        );
        assert_eq!(Popularity::uniform(4).draw(0.999_999), 3);
        assert_eq!(Popularity::uniform(4).draw(0.0), 0);
    }

    #[test]
    fn rate_burst_packs_arrivals_into_its_window() {
        let mut s = spec(11, Popularity::uniform(1));
        let plain = poisson_trace(&s, &[1.0]);
        s.burst = Some(RateBurst {
            from_ms: 10_000.0,
            to_ms: 12_000.0,
            mult: 2.0,
        });
        let burst = poisson_trace(&s, &[1.0]);
        let inside = |t: &[Request]| {
            t.iter()
                .filter(|r| (10_000.0..12_000.0).contains(&r.arrival_ms))
                .count() as f64
        };
        let ratio = inside(&burst) / inside(&plain);
        assert!((1.8..2.2).contains(&ratio), "burst density ratio {ratio}");
    }

    #[test]
    fn burst_lands_at_the_kill_instant_before_later_arrivals() {
        let nominal = [1.0, 1.0];
        let mut t = poisson_trace(&spec(2, Popularity::uniform(2)), &nominal);
        let n = t.len();
        let kill_ms = 0.7 * span_ms(&t);
        insert_burst(&mut t, kill_ms, 48, &nominal, 10.0);
        assert_eq!(t.len(), n + 48);
        let burst: Vec<&Request> = t.iter().filter(|r| r.id >= n as u64).collect();
        assert_eq!(burst.len(), 48);
        assert!(burst.iter().all(|r| r.arrival_ms == kill_ms));
        assert!(burst.iter().all(|r| r.class == PriorityClass::Bronze));
        assert!(t.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        // The span (last arrival) is unchanged, so the kill instant the
        // fault script derives from it is bit-identical to `kill_ms`.
        assert_eq!(0.7 * span_ms(&t), kill_ms);
    }

    #[test]
    fn tight_gold_edit_hits_every_eighth_gold_only() {
        let nominal = [2.0];
        let mut t = poisson_trace(&spec(9, Popularity::uniform(1)), &nominal);
        let before = t.clone();
        let golds = t.iter().filter(|r| r.class == PriorityClass::Gold).count();
        let tightened = tighten_gold(&mut t, &nominal, 8, 3.6);
        assert_eq!(tightened, golds.div_ceil(8));
        let mut changed = 0;
        for (a, b) in before.iter().zip(&t) {
            if a != b {
                changed += 1;
                assert_eq!(b.class, PriorityClass::Gold);
                assert!((b.deadline_ms - b.arrival_ms - 3.6 * 2.0).abs() < 1e-9);
            }
        }
        assert_eq!(changed, tightened);
    }
}
