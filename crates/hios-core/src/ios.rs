//! The IOS baseline: single-GPU inter-operator scheduling by dynamic
//! programming with pruning (Ding et al., MLSys'21; paper §V-B).
//!
//! IOS partitions the graph into a sequence of stages on ONE GPU, choosing
//! each stage to minimize total latency `Σ t(S)`.  The DP state is the set
//! of operators still to schedule; stage candidates are the non-empty
//! subsets of the state's *sources* (operators whose predecessors are all
//! done), which are independent by construction.  This is exponential in
//! the worst case — exactly the scalability weakness the HIOS paper
//! exploits — so IOS-style pruning bounds the stage width and the frontier
//! considered, and a state cap degrades gracefully to a greedy completion.
//!
//! Fidelity note (DESIGN.md §2): the original IOS also explores stages
//! whose streams hold operator *chains*; like the HIOS paper we use the
//! concurrent-independent-operators flavour that matches the stage model
//! of §III-A.

use crate::bitset::OpSet;
use crate::priority::priorities;
use crate::schedule::{GpuSchedule, Schedule, Stage};
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};
use std::collections::HashMap;

/// Pruning knobs of the IOS dynamic program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IosConfig {
    /// Maximum operators per stage (the CUDA-stream budget `L`).
    pub max_stage_ops: usize,
    /// Maximum stage candidates evaluated per state, in prioritized DFS
    /// order (singletons and greedy extensions first).
    pub max_candidates: usize,
    /// Memoization cap; beyond it remaining subproblems are completed
    /// greedily (full-frontier stages) instead of exhaustively.
    pub max_states: usize,
}

impl Default for IosConfig {
    fn default() -> Self {
        IosConfig {
            max_stage_ops: 8,
            max_candidates: 64,
            max_states: 120_000,
        }
    }
}

/// At each state, only the `MAX_FRONTIER` highest-priority sources are
/// combined into stage candidates (IOS's schedule pruning).
const MAX_FRONTIER: usize = 8;

struct Dp<'a> {
    g: &'a Graph,
    cost: &'a CostTable,
    cfg: IosConfig,
    prio: Vec<f64>,
    /// remaining-set -> (best latency, first stage of the best schedule)
    memo: HashMap<OpSet, (f64, Vec<OpId>)>,
    /// number of predecessors *inside* the current remaining set, managed
    /// incrementally around recursion (dense `u32`, indexed by op id).
    live_preds: Vec<u32>,
    capped: bool,
    /// Stage candidates of two or more operators priced, and their summed
    /// `t(S)`, ms: the groups IOS profiles (Fig. 14).
    probes: (u64, f64),
}

impl Dp<'_> {
    /// `t(S)` of a stage candidate, a probe when it groups operators.
    fn price(&mut self, stage: &[OpId]) -> f64 {
        let t = self.cost.concurrent_on(0, stage);
        if stage.len() > 1 {
            self.probes.0 += 1;
            self.probes.1 += t;
        }
        t
    }

    fn sources(&self, remaining: &OpSet) -> Vec<OpId> {
        let mut src: Vec<OpId> = remaining
            .iter()
            .filter(|&v| self.live_preds[v.index()] == 0)
            .collect();
        src.sort_unstable_by(|&a, &b| {
            self.prio[b.index()]
                .total_cmp(&self.prio[a.index()])
                .then(a.cmp(&b))
        });
        src.truncate(MAX_FRONTIER);
        src
    }

    /// Latency of scheduling `remaining`; memoized.
    fn solve(&mut self, remaining: &OpSet) -> f64 {
        if remaining.is_empty() {
            return 0.0;
        }
        if let Some(&(lat, _)) = self.memo.get(remaining) {
            return lat;
        }
        let sources = self.sources(remaining);
        debug_assert!(!sources.is_empty(), "acyclic graph always has sources");

        if self.memo.len() >= self.cfg.max_states {
            // Greedy completion: one maximal stage, no exploration.
            self.capped = true;
            let stage: Vec<OpId> = sources
                .iter()
                .copied()
                .take(self.cfg.max_stage_ops)
                .collect();
            let t = self.price(&stage);
            let rest = self.advance(remaining, &stage);
            let lat = t + self.solve(&rest);
            self.retreat(&stage);
            self.memo.insert(remaining.clone(), (lat, stage));
            return lat;
        }

        let mut best = f64::INFINITY;
        let mut best_stage = Vec::new();
        let mut combo = Vec::with_capacity(self.cfg.max_stage_ops);
        let mut budget = self.cfg.max_candidates.max(1);
        self.enumerate(
            remaining,
            &sources,
            0,
            &mut combo,
            &mut budget,
            &mut best,
            &mut best_stage,
        );
        debug_assert!(!best_stage.is_empty());
        self.memo.insert(remaining.clone(), (best, best_stage));
        best
    }

    /// Recursively enumerates non-empty subsets of `sources` (sizes up to
    /// `max_stage_ops`), evaluating each as the next stage.  The DFS order
    /// visits `{s1}, {s1,s2}, {s1,s2,s3}, ...` first, so greedy wide
    /// stages survive the `max_candidates` budget.
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &mut self,
        remaining: &OpSet,
        sources: &[OpId],
        from: usize,
        combo: &mut Vec<OpId>,
        budget: &mut usize,
        best: &mut f64,
        best_stage: &mut Vec<OpId>,
    ) {
        if !combo.is_empty() {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let t = self.price(combo);
            // Lower-bound prune: this stage alone already loses.
            if t < *best {
                let rest = self.advance(remaining, combo);
                let lat = t + self.solve(&rest);
                self.retreat(combo);
                if lat < *best {
                    *best = lat;
                    best_stage.clone_from(combo);
                }
            }
        }
        if combo.len() >= self.cfg.max_stage_ops {
            return;
        }
        for i in from..sources.len() {
            if *budget == 0 && !combo.is_empty() {
                return;
            }
            combo.push(sources[i]);
            self.enumerate(remaining, sources, i + 1, combo, budget, best, best_stage);
            combo.pop();
        }
    }

    /// Removes `stage` from `remaining`, updating live predecessor counts.
    fn advance(&mut self, remaining: &OpSet, stage: &[OpId]) -> OpSet {
        let mut rest = remaining.clone();
        for &v in stage {
            rest.remove(v);
            for &w in self.g.succs(v) {
                self.live_preds[w.index()] -= 1;
            }
        }
        rest
    }

    /// Undoes [`Dp::advance`]'s predecessor-count updates.
    fn retreat(&mut self, stage: &[OpId]) {
        for &v in stage {
            for &w in self.g.succs(v) {
                self.live_preds[w.index()] += 1;
            }
        }
    }
}

/// Splits the graph at *separator* operators — vertices comparable (by
/// reachability) to every other vertex, e.g. the block-joining concats of
/// Inception.  No stage can span a separator, so the DP decomposes into an
/// independent subproblem per segment: the decomposition is lossless and
/// is what keeps IOS tractable on real CNNs (IOS's own implementation
/// partitions networks into blocks the same way).
fn segments(g: &Graph) -> Vec<Vec<OpId>> {
    let n = g.num_ops();
    // Reachability counts by per-node BFS: O(|V|·(|V|+|E|)).
    let count_from = |v: OpId, forward: bool| -> usize {
        let mut seen = vec![false; n];
        let mut stack = vec![v];
        seen[v.index()] = true;
        let mut count = 0usize;
        while let Some(x) = stack.pop() {
            let next = if forward { g.succs(x) } else { g.preds(x) };
            for &w in next {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count
    };
    let order = hios_graph::topo::topo_order(g);
    let mut segs: Vec<Vec<OpId>> = Vec::new();
    let mut cur: Vec<OpId> = Vec::new();
    for &v in &order {
        let is_sep = count_from(v, true) + count_from(v, false) == n - 1;
        if is_sep {
            if !cur.is_empty() {
                segs.push(std::mem::take(&mut cur));
            }
            segs.push(vec![v]);
        } else {
            cur.push(v);
        }
    }
    if !cur.is_empty() {
        segs.push(cur);
    }
    segs
}

/// The dynamic program's schedule, whether it fell back to greedy
/// completion, and its group probes.
pub(crate) fn run_dp(g: &Graph, cost: &CostTable, cfg: IosConfig) -> (Schedule, bool, (u64, f64)) {
    if g.is_empty() {
        return (Schedule::empty(1), false, (0, 0.0));
    }
    let mut dp = Dp {
        g,
        cost,
        cfg,
        prio: priorities(g, cost),
        memo: HashMap::new(),
        live_preds: g.op_ids().map(|v| g.preds(v).len() as u32).collect(),
        capped: false,
        probes: (0, 0.0),
    };
    let mut stages = Vec::new();
    for seg in segments(g) {
        if seg.len() == 1 {
            stages.push(Stage::solo(seg[0]));
        } else {
            let mut set = OpSet::empty(g.num_ops());
            for &v in &seg {
                set.insert(v);
            }
            dp.memo.clear(); // states of other segments never recur
            dp.solve(&set);
            let mut cur = set;
            while !cur.is_empty() {
                let (_, stage) = dp
                    .memo
                    .get(&cur)
                    .expect("every reachable state was solved")
                    .clone();
                for &v in &stage {
                    cur.remove(v);
                }
                stages.push(Stage::group(stage));
            }
        }
        // Mark the segment as globally done for the next segment's
        // source computation.
        for &v in &seg {
            for &w in g.succs(v) {
                dp.live_preds[w.index()] -= 1;
            }
        }
    }
    (
        Schedule {
            gpus: vec![GpuSchedule { stages }],
        },
        dp.capped,
        dp.probes,
    )
}

/// Runs the IOS dynamic program and reconstructs the best single-GPU
/// staged schedule.
pub fn schedule_ios(g: &Graph, cost: &CostTable, cfg: IosConfig) -> Schedule {
    run_dp(g, cost, cfg).0
}

/// True when [`schedule_ios`] with this configuration falls back to
/// greedy completion at least once (state-cap diagnostics).
#[cfg(test)]
fn ios_was_capped(g: &Graph, cost: &CostTable, cfg: IosConfig) -> bool {
    run_dp(g, cost, cfg).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::fixtures::{fig4, fig4_cost, fig4_cost_small_ops};
    use crate::seq::schedule_sequential;
    use hios_graph::GraphBuilder;

    #[test]
    fn saturating_ops_degenerate_to_sequential() {
        // util = 1 everywhere: any grouping is slower, IOS == sequential.
        let (g, _) = fig4();
        let cost = fig4_cost();
        let s = schedule_ios(&g, &cost, IosConfig::default());
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.max_stage_width(), 1);
        let r = evaluate(&g, &cost, &s).unwrap();
        assert!((r.latency - cost.total_exec()).abs() < 1e-9);
    }

    #[test]
    fn small_ops_get_grouped() {
        let (g, _) = fig4();
        let cost = fig4_cost_small_ops();
        let s = schedule_ios(&g, &cost, IosConfig::default());
        assert!(s.validate(&g).is_ok());
        assert!(s.max_stage_width() >= 2, "IOS must exploit low utilization");
        let ios_lat = evaluate(&g, &cost, &s).unwrap().latency;
        let seq_lat = evaluate(&g, &cost, &schedule_sequential(&g, &cost))
            .unwrap()
            .latency;
        assert!(
            ios_lat < seq_lat,
            "IOS {ios_lat} must beat sequential {seq_lat}"
        );
    }

    #[test]
    fn ios_is_optimal_on_a_tiny_instance() {
        // Two independent pairs: a->b, c->d, all small. The optimum groups
        // {a,c} then {b,d}: latency 2 instead of sequential 4.
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let _b2 = b.add_synthetic("b", &[a]);
        let c = b.add_synthetic("c", &[]);
        let _d = b.add_synthetic("d", &[c]);
        let g = b.build();
        let cost = hios_cost::CostTable::homogeneous(
            "tiny",
            vec![1.0; 4],
            vec![0.4; 4],
            vec![0.1; 4],
            hios_cost::ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.0,
        );
        let s = schedule_ios(&g, &cost, IosConfig::default());
        let r = evaluate(&g, &cost, &s).unwrap();
        assert!((r.latency - 2.0).abs() < 1e-9, "got {}", r.latency);
        assert_eq!(s.gpus[0].stages.len(), 2);
    }

    #[test]
    fn stage_width_respects_stream_budget() {
        // 6 independent small ops with a budget of 2 streams.
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_synthetic(format!("n{i}"), &[]);
        }
        let g = b.build();
        let cost = hios_cost::CostTable::homogeneous(
            "wide",
            vec![1.0; 6],
            vec![0.1; 6],
            vec![0.1; 6],
            Default::default(),
            0.0,
        );
        let cfg = IosConfig {
            max_stage_ops: 2,
            ..Default::default()
        };
        let s = schedule_ios(&g, &cost, cfg);
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.max_stage_width(), 2);
        assert_eq!(s.gpus[0].stages.len(), 3);
    }

    #[test]
    fn state_cap_triggers_greedy_completion() {
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 40,
            layers: 4,
            deps: 80,
            seed: 1,
        })
        .unwrap();
        let cost = hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(1));
        let cfg = IosConfig {
            max_states: 10,
            ..Default::default()
        };
        assert!(ios_was_capped(&g, &cost, cfg));
        let s = schedule_ios(&g, &cost, cfg);
        assert!(
            s.validate(&g).is_ok(),
            "capped run still yields a valid schedule"
        );
    }

    #[test]
    fn empty_graph_empty_schedule() {
        let g = GraphBuilder::new().build();
        let cost = hios_cost::CostTable::homogeneous(
            "empty",
            vec![],
            vec![],
            vec![],
            Default::default(),
            0.0,
        );
        let s = schedule_ios(&g, &cost, IosConfig::default());
        assert_eq!(s.num_ops(), 0);
    }

    #[test]
    fn group_candidates_are_counted_as_probes() {
        let (g, _) = fig4();
        let cost = fig4_cost_small_ops();
        let (_, _, (queries, measured)) = run_dp(&g, &cost, IosConfig::default());
        assert!(queries > 0, "IOS must have probed t(S)");
        assert!(measured > 0.0);
    }
}
