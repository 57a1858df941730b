//! Latency semantics: the stage-synchronous evaluator (paper §III-A).
//!
//! It comes in two layers:
//!
//! * the original entry point [`evaluate`], whose signature and result
//!   are unchanged; and
//! * the reusable engine underneath, [`EvalWorkspace`] (an arena holding
//!   the CSR stage graph, cached stage durations and all relaxation
//!   scratch, reused across evaluations so the inner loops are
//!   allocation-free).
//!
//! [`EvalWorkspace::merged_latency`] additionally answers the sliding
//! window pass's question — "what would the latency be if stages
//! `first..=last` were merged?" — *incrementally*, re-relaxing only the
//! stages downstream of the merge instead of cloning and re-evaluating
//! the whole schedule, and [`EvalWorkspace::commit_merge`] re-links the
//! stage graph of an accepted merge over its cached stage durations and
//! relaxes it.  All fast paths are differential-tested to be
//! bit-identical to [`crate::reference`].  The list scheduler of Alg. 1
//! and Alg. 3 lives in [`crate::list`].

use crate::schedule::{Schedule, ScheduleError};
use hios_cost::CostTable;
use hios_graph::{Graph, OpId};

/// Relative margin applied to structural lower bounds before they may
/// short-circuit a cutoff comparison.  A bound of the form `exact
/// finish + suffix of k additions` can overshoot the true
/// forward-accumulated value by at most ~`k * f64::EPSILON` relative
/// (k bounded by the stage
/// count), so 1e-9 keeps every short-circuit conservative by several
/// orders of magnitude.
const CUTOFF_GUARD: f64 = 1e-9;

/// Errors raised while evaluating a schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The schedule failed structural validation.
    Structure(ScheduleError),
    /// The stage graph has a circular wait (an *implicit* cross-GPU
    /// dependency loop, the condition Alg. 2 line 10 must reject).
    StageCycle,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Structure(e) => write!(f, "invalid schedule: {e}"),
            EvalError::StageCycle => write!(f, "circular wait between stages"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ScheduleError> for EvalError {
    fn from(e: ScheduleError) -> Self {
        EvalError::Structure(e)
    }
}

/// Result of evaluating a schedule under stage-synchronous semantics.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// End-to-end inference latency, ms (max stage finish time).
    pub latency: f64,
    /// `(start, finish)` of every stage, outer index = GPU, inner = stage.
    pub stage_times: Vec<Vec<(f64, f64)>>,
    /// Start time of every operator (= its stage's start), ms.
    pub op_start: Vec<f64>,
    /// Finish time of every operator (its stage start plus its solo time,
    /// capped by the stage finish), ms.
    pub op_finish: Vec<f64>,
}

/// Reusable arena for stage-synchronous evaluation.
///
/// [`EvalWorkspace::prepare`] compiles a schedule into a flat stage graph
/// (stages numbered contiguously per GPU, successor and predecessor
/// adjacency in CSR form, stage durations queried once and cached);
/// [`EvalWorkspace::relax`] then runs the Kahn relaxation in those
/// buffers.  Re-preparing with another schedule reuses every allocation,
/// so evaluating many schedules of similar size is allocation-free after
/// the first call.
///
/// The arena also keeps the baseline stage times of the last [`relax`],
/// which is what lets [`merged_latency`] re-relax only the part of the
/// graph a candidate stage merge can affect.
///
/// [`relax`]: EvalWorkspace::relax
/// [`merged_latency`]: EvalWorkspace::merged_latency
#[derive(Clone, Debug, Default)]
pub struct EvalWorkspace {
    n_stages: usize,
    /// Flat id of each GPU's stage 0; a GPU's stages are contiguous.
    gpu_base: Vec<usize>,
    /// Cached `t(S)` per stage (one `concurrent` query per stage; a
    /// commit queries only the merged stage and keeps the rest).
    stage_dur: Vec<f64>,
    stage_of_op: Vec<usize>,
    gpu_of_op: Vec<u32>,
    // CSR stage graph in structure-of-arrays form (targets and weights in
    // parallel vectors; duplicate edges kept, relaxation takes the max).
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    succ_w: Vec<f64>,
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
    pred_w: Vec<f64>,
    indeg: Vec<u32>,
    // Baseline relaxation results (valid after `relax`).
    start: Vec<f64>,
    finish: Vec<f64>,
    /// Topological position of every stage in the last `relax` pop order.
    topo_pos: Vec<u32>,
    /// The inverse permutation: stage at each topological position.
    topo_order: Vec<u32>,
    /// Structural longest suffix path per stage (max over downstream
    /// chains of `edge weight + stage duration`), built lazily by
    /// `merged_latency_bounded`, invalidated by `relax`.
    tail: Vec<f64>,
    tail_dirty: bool,
    /// Tight chains into the critical stage (the first stage attaining
    /// the baseline latency): stamp array built lazily by
    /// `merged_latency_bounded` with one reverse sweep per `relax` along
    /// predecessor edges whose arrival equals the successor's start.  A
    /// merge whose absorbed range holds no stamped stage cannot lower the
    /// critical stage's finish, so the candidate is bounded below by the
    /// baseline latency before any re-relaxation.
    crit_chain: Vec<u32>,
    crit_stamp: u32,
    crit_finish: f64,
    crit_dirty: bool,
    // Scratch: full relaxation.
    indeg_w: Vec<u32>,
    worklist: Vec<usize>,
    cursor: Vec<usize>,
    // Scratch: incremental merge evaluation (reset by every link).
    mark: Vec<u32>,
    mark_gen: u32,
    affected: Vec<usize>,
    c_finish: Vec<f64>,
    merge_ops: Vec<OpId>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
}

impl EvalWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `sched` into the workspace's stage-graph arena.
    ///
    /// The schedule is structurally checked first (the only failure mode
    /// of this call), then every stage's duration is queried once and
    /// cached, and the stage graph is built over those durations.  An
    /// accepted merge is committed by [`EvalWorkspace::commit_merge`]
    /// instead, which keeps the cached durations and re-links.
    pub fn prepare(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        sched: &Schedule,
    ) -> Result<(), EvalError> {
        sched.validate(g)?;
        self.stage_dur.clear();
        for (gi, gpu) in sched.gpus.iter().enumerate() {
            for stage in &gpu.stages {
                self.stage_dur.push(cost.concurrent_on(gi, &stage.ops));
            }
        }
        self.link(g, cost, sched);
        Ok(())
    }

    /// Builds the stage graph of `sched` over the cached `stage_dur`:
    /// flat stage ids and per-op placement maps, both CSR adjacencies
    /// (same-GPU chain edges, then cross-GPU data edges with their
    /// transfer weights), and a reset of the per-candidate scratch.
    fn link(&mut self, g: &Graph, cost: &CostTable, sched: &Schedule) {
        let n_ops = g.num_ops();

        // Flat stage ids and per-op placement maps.
        self.gpu_base.clear();
        let mut n_stages = 0usize;
        for gpu in &sched.gpus {
            self.gpu_base.push(n_stages);
            n_stages += gpu.stages.len();
        }
        debug_assert_eq!(self.stage_dur.len(), n_stages);
        self.n_stages = n_stages;
        self.stage_of_op.clear();
        self.stage_of_op.resize(n_ops, usize::MAX);
        self.gpu_of_op.clear();
        self.gpu_of_op.resize(n_ops, 0);
        for (gi, gpu) in sched.gpus.iter().enumerate() {
            for (si, stage) in gpu.stages.iter().enumerate() {
                let sid = self.gpu_base[gi] + si;
                for &v in &stage.ops {
                    debug_assert_eq!(self.stage_of_op[v.index()], usize::MAX);
                    self.stage_of_op[v.index()] = sid;
                    self.gpu_of_op[v.index()] = gi as u32;
                }
            }
        }
        debug_assert!(
            self.stage_of_op.iter().all(|&s| s != usize::MAX),
            "schedule must cover every operator"
        );

        // Degree counting: same-GPU chain edges + cross-GPU data edges.
        self.indeg.clear();
        self.indeg.resize(n_stages, 0);
        self.cursor.clear();
        self.cursor.resize(n_stages, 0);
        let out_deg = &mut self.cursor; // reused as out-degree counter
        for (gi, gpu) in sched.gpus.iter().enumerate() {
            let base = self.gpu_base[gi];
            for si in 1..gpu.stages.len() {
                out_deg[base + si - 1] += 1;
                self.indeg[base + si] += 1;
            }
        }
        for (u, v) in g.edges() {
            if self.gpu_of_op[u.index()] != self.gpu_of_op[v.index()] {
                out_deg[self.stage_of_op[u.index()]] += 1;
                self.indeg[self.stage_of_op[v.index()]] += 1;
            }
        }

        // CSR offsets from the degree counts.
        self.succ_off.clear();
        self.succ_off.reserve(n_stages + 1);
        self.pred_off.clear();
        self.pred_off.reserve(n_stages + 1);
        let (mut sa, mut pa) = (0usize, 0usize);
        for s in 0..n_stages {
            self.succ_off.push(sa as u32);
            self.pred_off.push(pa as u32);
            sa += self.cursor[s];
            pa += self.indeg[s] as usize;
        }
        self.succ_off.push(sa as u32);
        self.pred_off.push(pa as u32);
        self.succ_idx.clear();
        self.succ_idx.resize(sa, 0);
        self.succ_w.clear();
        self.succ_w.resize(sa, 0.0);
        self.pred_idx.clear();
        self.pred_idx.resize(pa, 0);
        self.pred_w.clear();
        self.pred_w.resize(pa, 0.0);

        // Fill successors, then predecessors (cursor reset in between).
        for s in 0..n_stages {
            self.cursor[s] = self.succ_off[s] as usize;
        }
        for (gi, gpu) in sched.gpus.iter().enumerate() {
            let base = self.gpu_base[gi];
            for si in 1..gpu.stages.len() {
                let s = base + si - 1;
                self.succ_idx[self.cursor[s]] = (base + si) as u32;
                self.succ_w[self.cursor[s]] = 0.0;
                self.cursor[s] += 1;
            }
        }
        for (u, v) in g.edges() {
            if self.gpu_of_op[u.index()] != self.gpu_of_op[v.index()] {
                let su = self.stage_of_op[u.index()];
                let sv = self.stage_of_op[v.index()];
                let w = cost.transfer(
                    u,
                    self.gpu_of_op[u.index()] as usize,
                    self.gpu_of_op[v.index()] as usize,
                );
                self.succ_idx[self.cursor[su]] = sv as u32;
                self.succ_w[self.cursor[su]] = w;
                self.cursor[su] += 1;
            }
        }
        for s in 0..n_stages {
            self.cursor[s] = self.pred_off[s] as usize;
        }
        for s in 0..n_stages {
            for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                let t = self.succ_idx[e] as usize;
                self.pred_idx[self.cursor[t]] = s as u32;
                self.pred_w[self.cursor[t]] = self.succ_w[e];
                self.cursor[t] += 1;
            }
        }

        // Invalidate per-candidate scratch from any previous graph.
        self.mark.clear();
        self.mark.resize(n_stages, 0);
        self.mark_gen = 0;
        self.c_finish.clear();
        self.c_finish.resize(n_stages, 0.0);
    }

    /// Runs the full Kahn relaxation over the prepared stage graph and
    /// returns the latency; the per-stage baseline times stay in the
    /// workspace for [`EvalWorkspace::merged_latency`].
    pub fn relax(&mut self) -> Result<f64, EvalError> {
        let n_stages = self.n_stages;
        self.start.clear();
        self.start.resize(n_stages, 0.0);
        self.finish.clear();
        self.finish.resize(n_stages, 0.0);
        self.topo_pos.clear();
        self.topo_pos.resize(n_stages, 0);
        self.topo_order.clear();
        self.topo_order.resize(n_stages, 0);
        self.tail_dirty = true;
        self.crit_dirty = true;
        self.indeg_w.clear();
        self.indeg_w.extend_from_slice(&self.indeg);
        self.worklist.clear();
        // The initial ready frontier, in ascending stage order.
        for (s, &indeg) in self.indeg_w.iter().enumerate() {
            if indeg == 0 {
                self.worklist.push(s);
            }
        }
        let mut done = 0usize;
        while let Some(s) = self.worklist.pop() {
            // The pop order is topological (a stage is popped only once
            // every predecessor has been), which is what lets
            // `merged_latency` re-relax changed stages in one pass.
            self.topo_pos[s] = done as u32;
            self.topo_order[done] = s as u32;
            done += 1;
            let f = self.start[s] + self.stage_dur[s];
            self.finish[s] = f;
            for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                let t = self.succ_idx[e] as usize;
                let w = self.succ_w[e];
                if self.start[t] < f + w {
                    self.start[t] = f + w;
                }
                self.indeg_w[t] -= 1;
                if self.indeg_w[t] == 0 {
                    self.worklist.push(t);
                }
            }
        }
        if done != n_stages {
            return Err(EvalError::StageCycle);
        }
        Ok(self.finish.iter().copied().fold(0.0f64, f64::max))
    }

    /// Latency of `sched` with stages `first..=last` on `gpu` merged into
    /// one concurrent stage — computed incrementally against the baseline
    /// of the last [`EvalWorkspace::relax`], without materializing the
    /// merged schedule.
    ///
    /// Only the merged stage and its transitive successors are
    /// re-relaxed; every other stage keeps its baseline times (merging
    /// can only move *downstream* stages, all edge weights being
    /// non-negative).  A circular wait introduced by the merge surfaces
    /// as [`EvalError::StageCycle`], exactly as a full evaluation of the
    /// merged schedule would report.
    ///
    /// The caller is responsible for structural validity of the merge
    /// (no dependent operators inside `first..=last` — the window pass
    /// checks this cheaply before calling); `sched` must be the schedule
    /// last prepared and relaxed in this workspace.
    pub fn merged_latency(
        &mut self,
        cost: &CostTable,
        sched: &Schedule,
        gpu: usize,
        first: usize,
        last: usize,
    ) -> Result<f64, EvalError> {
        self.merged_latency_bounded(cost, sched, gpu, first, last, f64::INFINITY)
    }

    /// [`EvalWorkspace::merged_latency`] with an early-out `cutoff`: the
    /// returned latency is exact whenever it is below `cutoff`, while any
    /// candidate provably at or above `cutoff` may short-circuit and
    /// report a conservative lower bound of its true latency (itself
    /// `>= cutoff`).  Callers that only *compare* the result against
    /// `cutoff` — like the window pass, which accepts a merge only when
    /// it is strictly better than the best latency seen — therefore make
    /// bit-identical decisions at a fraction of the cost: most rejected
    /// candidates are dismissed because they absorb no stage of a tight
    /// chain into the critical stage, and most of the rest by the merged
    /// stage's structural suffix bound, without re-relaxing anything
    /// downstream.
    ///
    /// The proof obligation for every short-circuit is `true latency >=
    /// cutoff` (or a circular wait).  The tight-chain exit returns the
    /// baseline latency, which the merged schedule provably reaches
    /// exactly.  The suffix bound is `(exact finish of the merged stage) +
    /// (structural longest suffix path from it)`; the sum is a lower
    /// bound of the true latency up to floating-point rounding of the
    /// suffix accumulation, which a relative guard of `1e-9` — orders of
    /// magnitude above the worst-case accumulated rounding of the longest
    /// representable chains — makes conservative.
    pub(crate) fn merged_latency_bounded(
        &mut self,
        cost: &CostTable,
        sched: &Schedule,
        gpu: usize,
        first: usize,
        last: usize,
        cutoff: f64,
    ) -> Result<f64, EvalError> {
        debug_assert!(first < last && self.gpu_base[gpu] + last < self.n_stages);
        let a = self.gpu_base[gpu] + first;
        let b = self.gpu_base[gpu] + last;

        // Structural suffix bounds, rebuilt once per relax (reverse
        // topological sweep): `tail[s]` is the heaviest chain of
        // `edge weight + stage duration` strictly below `s`.  Stage
        // durations and the downstream structure are untouched by any
        // merge candidate (a suffix path re-entering the absorbed range
        // would be a cycle), so `finish + tail` bounds the candidate's
        // true latency from below wherever `finish` is exact.
        if self.tail_dirty {
            self.tail.clear();
            self.tail.resize(self.n_stages, 0.0);
            for pos in (0..self.n_stages).rev() {
                let s = self.topo_order[pos] as usize;
                let mut t_max = 0.0f64;
                for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                    let t = self.succ_idx[e] as usize;
                    let via = self.succ_w[e] + self.stage_dur[t] + self.tail[t];
                    if via > t_max {
                        t_max = via;
                    }
                }
                self.tail[s] = t_max;
            }
            self.tail_dirty = false;
        }

        // Tight chains into the critical stage, rebuilt once per relax
        // (reverse sweep from the first stage attaining the baseline
        // latency L).  An edge `p -> s` is *tight* when its arrival is
        // bitwise `start[s]`; every stage with a positive start has one,
        // as the relaxation sets each start to one predecessor's exact
        // arrival.  Claim: when the absorbed range holds no stamped
        // stage, every stamped stage finishes no earlier in the merged
        // schedule, so the critical stage still finishes at L.  A merge
        // changes only the absorbed stages and their descendants, and
        // keeps every edge between two unabsorbed stages.  Induct in
        // topological order over the stamped stages: one whose start is
        // 0 trivially starts no earlier; any other has a tight stamped
        // predecessor `p` outside the range, whose merged finish is
        // `>= finish[p]` by induction, so, IEEE `+` and `max` being
        // monotone, its merged start is `>= finish[p] + w = start[s]` and
        // its finish `>= start[s] + dur[s]`.  L then bounds the candidate
        // from below *exactly* (no rounding guard needed), and a merge
        // that closes a cycle reports `Err` instead, which also rejects
        // it.  Most rejected candidates exit here: only a merge that
        // absorbs a stamped stage can lower the latency, and a GPU's
        // chain of stages is rarely tight throughout.
        if self.crit_dirty {
            let mut crit = 0usize;
            for s in 1..self.n_stages {
                if self.finish[s] > self.finish[crit] {
                    crit = s;
                }
            }
            self.crit_finish = self.finish[crit];
            if self.crit_chain.len() != self.n_stages || self.crit_stamp == u32::MAX {
                self.crit_chain.clear();
                self.crit_chain.resize(self.n_stages, 0);
                self.crit_stamp = 0;
            }
            self.crit_stamp += 1;
            let stamp = self.crit_stamp;
            self.crit_chain[crit] = stamp;
            self.worklist.clear();
            self.worklist.push(crit);
            while let Some(s) = self.worklist.pop() {
                let start = self.start[s].to_bits();
                let mut has_tight = self.start[s] == 0.0;
                for e in self.pred_off[s] as usize..self.pred_off[s + 1] as usize {
                    let p = self.pred_idx[e] as usize;
                    let tight = (self.finish[p] + self.pred_w[e]).to_bits() == start;
                    has_tight |= tight;
                    if tight && self.crit_chain[p] != stamp {
                        self.crit_chain[p] = stamp;
                        self.worklist.push(p);
                    }
                }
                debug_assert!(
                    has_tight,
                    "a positive start is a predecessor's exact arrival"
                );
            }
            self.crit_dirty = false;
        }
        if self.crit_finish >= cutoff {
            let stamp = self.crit_stamp;
            if !(a..=b).any(|s| self.crit_chain[s] == stamp) {
                return Ok(self.crit_finish);
            }
        }

        if self.closes_cycle(a, b) {
            return Err(EvalError::StageCycle);
        }
        let gen = self.next_gen();
        for s in a..=b {
            self.mark[s] = gen;
        }

        // The merged stage: fresh concurrent query over the union of the
        // absorbed stages' operators (in drain order, matching what a
        // materialized merge would ask), started at the max over external
        // predecessor arrivals; no external predecessor descends from the
        // range (that would be a cycle), so its baseline finish is final.
        let merged_finish = self.merged_stage_finish(cost, sched, gpu, first, last, a, b);

        // Pre-wave cutoff: the merged stage's finish is exact, so its
        // heaviest structural suffix bounds the candidate latency from
        // below before anything downstream is recomputed.
        if let Some(bound) = self.range_suffix_bound(a, b, merged_finish, cutoff) {
            return Ok(bound);
        }

        // Changed-only re-relaxation: external successors of the range
        // always recompute (their arrival now comes from the merged
        // stage); from there, a recomputed stage forwards the wave only
        // when its finish actually moved (bitwise).  Processing strictly
        // in baseline topological order (min-heap on `topo_pos`, valid
        // because merging adds no edges among non-absorbed stages)
        // guarantees every marked predecessor is already final when read.
        self.affected.clear();
        self.heap.clear();
        for s in a..=b {
            for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                let t = self.succ_idx[e] as usize;
                if t >= a && t <= b {
                    continue; // internal chain/data edge, absorbed
                }
                if self.mark[t] != gen {
                    self.mark[t] = gen;
                    self.heap
                        .push(std::cmp::Reverse((self.topo_pos[t], t as u32)));
                }
            }
        }
        while let Some(std::cmp::Reverse((_, t))) = self.heap.pop() {
            let t = t as usize;
            let mut st = 0.0f64;
            for e in self.pred_off[t] as usize..self.pred_off[t + 1] as usize {
                let p = self.pred_idx[e] as usize;
                let w = self.pred_w[e];
                let arrival = if p >= a && p <= b {
                    merged_finish + w
                } else if self.mark[p] == gen {
                    self.c_finish[p] + w
                } else {
                    self.finish[p] + w
                };
                if arrival > st {
                    st = arrival;
                }
            }
            let f = st + self.stage_dur[t];
            self.c_finish[t] = f;
            self.affected.push(t);
            if f.to_bits() != self.finish[t].to_bits() {
                for e in self.succ_off[t] as usize..self.succ_off[t + 1] as usize {
                    let u = self.succ_idx[e] as usize;
                    debug_assert!(!(u >= a && u <= b), "the cycle test rejects these");
                    if self.mark[u] != gen {
                        self.mark[u] = gen;
                        self.heap
                            .push(std::cmp::Reverse((self.topo_pos[u], u as u32)));
                    }
                }
            }
        }
        Ok(self.candidate_latency(merged_finish, gen))
    }

    /// The merged stage's heaviest structural suffix: `Some(bound)` when
    /// `merged_finish` plus the best chain through any external successor
    /// of the absorbed range `a..=b` provably reaches `cutoff` (the
    /// candidate is rejected without a wave), `None` otherwise.
    fn range_suffix_bound(
        &self,
        a: usize,
        b: usize,
        merged_finish: f64,
        cutoff: f64,
    ) -> Option<f64> {
        let mut suffix = 0.0f64;
        for s in a..=b {
            for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                let t = self.succ_idx[e] as usize;
                if t >= a && t <= b {
                    continue;
                }
                let via = self.succ_w[e] + self.stage_dur[t] + self.tail[t];
                if via > suffix {
                    suffix = via;
                }
            }
        }
        let bound = merged_finish + suffix;
        (bound * (1.0 - CUTOFF_GUARD) >= cutoff).then_some(bound)
    }

    /// Operator union, duration query and finish of the merged stage (the
    /// `concurrent_on` call keeps the profiling-meter side effect of a
    /// materialized merge).
    #[allow(clippy::too_many_arguments)]
    fn merged_stage_finish(
        &mut self,
        cost: &CostTable,
        sched: &Schedule,
        gpu: usize,
        first: usize,
        last: usize,
        a: usize,
        b: usize,
    ) -> f64 {
        self.merge_ops.clear();
        for si in first..=last {
            self.merge_ops
                .extend_from_slice(&sched.gpus[gpu].stages[si].ops);
        }
        let merged_dur = cost.concurrent_on(gpu, &self.merge_ops);
        let mut merged_start = 0.0f64;
        for s in a..=b {
            for e in self.pred_off[s] as usize..self.pred_off[s + 1] as usize {
                let p = self.pred_idx[e] as usize;
                if p >= a && p <= b {
                    continue;
                }
                let arrival = self.finish[p] + self.pred_w[e];
                if arrival > merged_start {
                    merged_start = arrival;
                }
            }
        }
        merged_start + merged_dur
    }

    /// Candidate latency: the max of the merged stage's finish, every
    /// unmarked baseline finish and the recomputed finishes over
    /// `affected`.
    fn candidate_latency(&self, merged_finish: f64, gen: u32) -> f64 {
        let mut latency = merged_finish.max(0.0);
        for s in 0..self.n_stages {
            if self.mark[s] != gen && self.finish[s] > latency {
                latency = self.finish[s];
            }
        }
        for &t in &self.affected {
            if self.c_finish[t] > latency {
                latency = self.c_finish[t];
            }
        }
        latency
    }

    /// Whether merging the absorbed range `a..=b` closes a circular wait
    /// (Alg. 2 line 10).  It does exactly when some external predecessor
    /// of the range is reachable from the range.  Every stage reachable
    /// from range member `s` sits after `topo_pos[s]` in the baseline
    /// order, so only external predecessors after the range's first
    /// position are suspects, and a path from the range to a suspect
    /// visits only positions up to that suspect's.  The forward search
    /// from the range is therefore bounded by the latest suspect's
    /// position, and most candidates have no suspect at all.
    fn closes_cycle(&mut self, a: usize, b: usize) -> bool {
        let in_range = |s: usize| s >= a && s <= b;
        let (range_min_pos, limit) = self.suspect_limit(a, b);
        if limit == range_min_pos {
            return false;
        }
        let gen = self.next_gen();
        self.worklist.clear();
        self.worklist.extend(a..=b);
        while let Some(s) = self.worklist.pop() {
            for e in self.succ_off[s] as usize..self.succ_off[s + 1] as usize {
                let t = self.succ_idx[e] as usize;
                if in_range(t) {
                    if in_range(s) {
                        continue; // internal chain/data edge, absorbed
                    }
                    return true;
                }
                if self.topo_pos[t] <= limit && self.mark[t] != gen {
                    self.mark[t] = gen;
                    self.worklist.push(t);
                }
            }
        }
        false
    }

    /// The absorbed range's first baseline position, and the latest
    /// position of an external predecessor of the range — the first
    /// position again when no external predecessor sits after it (no
    /// suspect: the merge is acyclic).
    fn suspect_limit(&self, a: usize, b: usize) -> (u32, u32) {
        let mut range_min_pos = u32::MAX;
        for s in a..=b {
            range_min_pos = range_min_pos.min(self.topo_pos[s]);
        }
        let mut limit = range_min_pos;
        for s in a..=b {
            for e in self.pred_off[s] as usize..self.pred_off[s + 1] as usize {
                let p = self.pred_idx[e] as usize;
                if p < a || p > b {
                    limit = limit.max(self.topo_pos[p]);
                }
            }
        }
        (range_min_pos, limit)
    }

    /// A fresh `mark` generation (the stamps reset on the unlikely wrap).
    fn next_gen(&mut self) -> u32 {
        if self.mark_gen == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.mark_gen = 0;
        }
        self.mark_gen += 1;
        self.mark_gen
    }

    /// Commits an accepted merge of old stages `first..=last` on `gpu`:
    /// the merged stage's duration is the one fresh `concurrent` query,
    /// the absorbed stages' cached durations are dropped, every other
    /// stage keeps its own, and the stage graph is re-linked from `sched`
    /// by [`EvalWorkspace::prepare`]'s builder and relaxed — no
    /// re-validation and no other duration query.
    ///
    /// `sched` must already hold the materialized merge (the combined
    /// stage sits at `first`).  The result is bit-identical to a full
    /// [`EvalWorkspace::prepare`] + [`EvalWorkspace::relax`] on the
    /// merged schedule: the graph is built by the same code from the same
    /// durations.
    ///
    /// Returns the relaxed latency of the merged schedule.
    ///
    /// # Panics
    /// Panics when the merged graph has a stage cycle — the caller must
    /// only commit merges already vetted by
    /// [`EvalWorkspace::merged_latency`].
    pub fn commit_merge(
        &mut self,
        g: &Graph,
        cost: &CostTable,
        sched: &Schedule,
        gpu: usize,
        first: usize,
        last: usize,
    ) -> f64 {
        debug_assert!(first < last);
        let a = self.gpu_base[gpu] + first;
        let b = self.gpu_base[gpu] + last;
        self.stage_dur[a] = cost.concurrent_on(gpu, &sched.gpus[gpu].stages[first].ops);
        self.stage_dur.drain(a + 1..=b);
        self.link(g, cost, sched);
        self.relax()
            .expect("committed merge was vetted acyclic by merged_latency")
    }
}

/// Evaluates `sched` under the paper's stage-synchronous semantics:
///
/// * stages on one GPU run sequentially in order and take `t(S)`;
/// * all operators of a stage start at the stage start (the upper-bound
///   assumption of §III-A);
/// * a dependency `(u, v)` with `u ∈ S_{i,j}`, `v ∈ S_{i',j'}` on different
///   GPUs forces `start(S_{i',j'}) ≥ finish(S_{i,j}) + t(u, v)`.
///
/// Detects circular waits between stages (returns
/// [`EvalError::StageCycle`]), which is how Alg. 2 rejects groupings that
/// create implicit dependency loops.
pub fn evaluate(g: &Graph, cost: &CostTable, sched: &Schedule) -> Result<EvalResult, EvalError> {
    evaluate_with(&mut EvalWorkspace::new(), g, cost, sched)
}

/// [`evaluate`] through a caller-provided [`EvalWorkspace`], reusing its
/// buffers across calls (the returned [`EvalResult`] still allocates its
/// own output vectors).
pub fn evaluate_with(
    ws: &mut EvalWorkspace,
    g: &Graph,
    cost: &CostTable,
    sched: &Schedule,
) -> Result<EvalResult, EvalError> {
    ws.prepare(g, cost, sched)?;
    let latency = ws.relax()?;
    let mut op_start = vec![0.0f64; g.num_ops()];
    let mut op_finish = vec![0.0f64; g.num_ops()];
    for v in g.op_ids() {
        let sid = ws.stage_of_op[v.index()];
        op_start[v.index()] = ws.start[sid];
        op_finish[v.index()] = (ws.start[sid] + cost.exec_on(ws.gpu_of_op[v.index()] as usize, v))
            .min(ws.finish[sid])
            .max(ws.start[sid]);
    }
    let mut stage_times = Vec::with_capacity(sched.num_gpus());
    for (gi, gpu) in sched.gpus.iter().enumerate() {
        let base = ws.gpu_base[gi];
        stage_times.push(
            (0..gpu.stages.len())
                .map(|si| (ws.start[base + si], ws.finish[base + si]))
                .collect(),
        );
    }
    Ok(EvalResult {
        latency,
        stage_times,
        op_start,
        op_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::tied_cost;
    use crate::schedule::{GpuSchedule, Stage};
    use hios_cost::{ConcurrencyParams, CostTable};
    use hios_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_cost(n: usize, exec: f64, util: f64, transfer: f64) -> CostTable {
        CostTable::homogeneous(
            "test",
            vec![exec; n],
            vec![util; n],
            vec![transfer; n],
            ConcurrencyParams {
                contention_alpha: 0.15,
                stream_overhead_ms: 0.0,
            },
            0.0,
        )
    }

    /// Fig. 3's shape: a->d, a->e, b->f, c->f with two GPUs:
    /// GPU1 = {a},{d,e}; GPU2 = {b,c},{f}.
    fn fig3() -> (Graph, Schedule) {
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let bb = b.add_synthetic("b", &[]);
        let c = b.add_synthetic("c", &[]);
        let _d = b.add_synthetic("d", &[a]);
        let _e = b.add_synthetic("e", &[a]);
        let _f = b.add_synthetic("f", &[bb, c]);
        let g = b.build();
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::solo(OpId(0)), Stage::group(vec![OpId(3), OpId(4)])],
                },
                GpuSchedule {
                    stages: vec![Stage::group(vec![OpId(1), OpId(2)]), Stage::solo(OpId(5))],
                },
            ],
        };
        (g, s)
    }

    #[test]
    fn independent_gpus_run_in_parallel() {
        let (g, s) = fig3();
        // Small utilization: stages take max member time.
        let cost = uniform_cost(6, 1.0, 0.3, 0.5);
        let r = evaluate(&g, &cost, &s).unwrap();
        // GPU1: a (0-1), {d,e} (1-2). GPU2: {b,c} (0-1), f (1-2).
        assert!((r.latency - 2.0).abs() < 1e-9);
        assert_eq!(r.stage_times[0][1], (1.0, 2.0));
        assert_eq!(r.stage_times[1][1], (1.0, 2.0));
    }

    #[test]
    fn cross_gpu_edge_adds_transfer() {
        // a on GPU0 feeds b on GPU1.
        let mut builder = GraphBuilder::new();
        let a = builder.add_synthetic("a", &[]);
        let _b = builder.add_synthetic("b", &[a]);
        let g = builder.build();
        let cost = uniform_cost(2, 1.0, 1.0, 0.7);
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::solo(OpId(0))],
                },
                GpuSchedule {
                    stages: vec![Stage::solo(OpId(1))],
                },
            ],
        };
        let r = evaluate(&g, &cost, &s).unwrap();
        assert!(
            (r.latency - 2.7).abs() < 1e-9,
            "1 + 0.7 + 1 = {}",
            r.latency
        );
        // Same-GPU placement avoids the transfer.
        let s2 = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![Stage::solo(OpId(0)), Stage::solo(OpId(1))],
            }],
        };
        let r2 = evaluate(&g, &cost, &s2).unwrap();
        assert!((r2.latency - 2.0).abs() < 1e-9);
    }

    #[test]
    fn circular_wait_is_detected() {
        // GPU0: [a][d], GPU1: [c][b] with edges a->b (cross), c->d (cross):
        // stage(b) after stage(c) on GPU1, needs stage(a); stage(d) after
        // stage(a) on GPU0, needs stage(c). No cycle -- make one:
        // GPU0: [a][d], GPU1: [b][c] with b->? ... simplest true cycle:
        // edges a->b and c->d with GPU0 order [a after d? ] ...
        // Use: GPU0 stages [d, a], invalid only via data order? d has no
        // deps on a. GPU0: [d][a], GPU1: [b][c]: a->b means stage(a)=1 ->
        // stage(b)=0 cross edge; c->d means stage(c)=1 -> stage(d)=0.
        // Cycle: b waits a, a after d (chain), d waits c, c after b (chain).
        let mut builder = GraphBuilder::new();
        let a = builder.add_synthetic("a", &[]);
        let _b = builder.add_synthetic("b", &[a]);
        let c = builder.add_synthetic("c", &[]);
        let _d = builder.add_synthetic("d", &[c]);
        let g = builder.build();
        let cost = uniform_cost(4, 1.0, 1.0, 0.1);
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![Stage::solo(OpId(3)), Stage::solo(OpId(0))],
                },
                GpuSchedule {
                    stages: vec![Stage::solo(OpId(1)), Stage::solo(OpId(2))],
                },
            ],
        };
        assert!(matches!(
            evaluate(&g, &cost, &s),
            Err(EvalError::StageCycle)
        ));
    }

    #[test]
    fn sequential_latency_is_sum() {
        let (g, _) = fig3();
        let cost = uniform_cost(6, 1.5, 1.0, 0.5);
        let order: Vec<OpId> = hios_graph::topo::topo_order(&g);
        let s = Schedule::from_gpu_orders(vec![order]);
        let r = evaluate(&g, &cost, &s).unwrap();
        assert!((r.latency - 9.0).abs() < 1e-9);
    }

    #[test]
    fn op_times_sit_inside_stage() {
        let (g, s) = fig3();
        let cost = uniform_cost(6, 1.0, 0.3, 0.5);
        let r = evaluate(&g, &cost, &s).unwrap();
        for v in g.op_ids() {
            assert!(r.op_start[v.index()] <= r.op_finish[v.index()]);
            assert!(r.op_finish[v.index()] <= r.latency + 1e-12);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_evaluation() {
        // One workspace across differently-shaped schedules: results must
        // equal fresh single-shot evaluations bit for bit.
        let (g, grouped) = fig3();
        let cost = uniform_cost(6, 1.0, 0.3, 0.5);
        let order: Vec<OpId> = hios_graph::topo::topo_order(&g);
        let sequential = Schedule::from_gpu_orders(vec![order]);
        let mut ws = EvalWorkspace::new();
        for sched in [&grouped, &sequential, &grouped] {
            let reused = evaluate_with(&mut ws, &g, &cost, sched).unwrap();
            let fresh = evaluate(&g, &cost, sched).unwrap();
            assert_eq!(reused.latency.to_bits(), fresh.latency.to_bits());
            assert_eq!(reused.stage_times, fresh.stage_times);
        }
    }

    #[test]
    fn merged_latency_matches_materialized_merge() {
        let (g, _) = fig3();
        let cost = uniform_cost(6, 1.0, 0.3, 0.5);
        // GPU0 runs a, d, e as singletons; d and e are independent.
        let s = Schedule {
            gpus: vec![
                GpuSchedule {
                    stages: vec![
                        Stage::solo(OpId(0)),
                        Stage::solo(OpId(3)),
                        Stage::solo(OpId(4)),
                    ],
                },
                GpuSchedule {
                    stages: vec![Stage::group(vec![OpId(1), OpId(2)]), Stage::solo(OpId(5))],
                },
            ],
        };
        let mut ws = EvalWorkspace::new();
        ws.prepare(&g, &cost, &s).unwrap();
        ws.relax().unwrap();
        let incremental = ws.merged_latency(&cost, &s, 0, 1, 2).unwrap();
        let materialized = crate::reference::merge_stages(&s, 0, 1, 2);
        let full = evaluate(&g, &cost, &materialized).unwrap().latency;
        assert_eq!(incremental.to_bits(), full.to_bits());
    }

    #[test]
    fn merged_latency_detects_cycles() {
        // Same construction as window.rs's grouping_respects_cross_gpu_loops:
        // merging {a, d} on GPU0 creates a circular wait through GPU1.
        let mut bld = GraphBuilder::new();
        let a = bld.add_synthetic("a", &[]);
        let _b = bld.add_synthetic("b", &[a]);
        let c = bld.add_synthetic("c", &[]);
        let _d = bld.add_synthetic("d", &[c]);
        let g = bld.build();
        let cost = uniform_cost(4, 1.0, 0.1, 0.1);
        let s = Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(3)], vec![OpId(1), OpId(2)]]);
        let mut ws = EvalWorkspace::new();
        ws.prepare(&g, &cost, &s).unwrap();
        ws.relax().unwrap();
        assert_eq!(
            ws.merged_latency(&cost, &s, 0, 0, 1),
            Err(EvalError::StageCycle)
        );
    }

    /// `merged_latency_bounded`'s contract on every window of `sched`
    /// that the window pass could ask about (mutually independent
    /// operators), at the baseline latency, at `below` and at `+∞`: a
    /// result below the cutoff is the exact latency of the materialized
    /// merge, bit for bit; a result at or above it stands for an exact
    /// latency at or above the cutoff, or a circular wait.  Returns how
    /// many windows were checked (0 when the schedule itself has a
    /// circular wait).
    fn check_bounded_contract(g: &Graph, cost: &CostTable, sched: &Schedule, below: f64) -> usize {
        let mut ws = EvalWorkspace::new();
        ws.prepare(g, cost, sched).unwrap();
        let Ok(baseline) = ws.relax() else {
            return 0;
        };
        let mut windows = 0;
        for (gpu, stages) in sched.gpus.iter().enumerate() {
            let n = stages.stages.len();
            for first in 0..n {
                for last in first + 1..n.min(first + 4) {
                    let merged = crate::reference::merge_stages(sched, gpu, first, last);
                    let exact = match crate::reference::evaluate(g, cost, &merged) {
                        Err(EvalError::Structure(_)) => continue,
                        r => r.map(|r| r.latency),
                    };
                    windows += 1;
                    for cutoff in [baseline, below, f64::INFINITY] {
                        let at = format!("gpu {gpu} stages {first}..={last} cutoff {cutoff}");
                        match ws.merged_latency_bounded(cost, sched, gpu, first, last, cutoff) {
                            Ok(l) if l < cutoff => {
                                assert_eq!(
                                    exact.clone().map(f64::to_bits),
                                    Ok(l.to_bits()),
                                    "{at}"
                                );
                            }
                            Ok(_) => match &exact {
                                Ok(e) => assert!(*e >= cutoff, "{at}: exact {e} is below"),
                                Err(e) => assert_eq!(*e, EvalError::StageCycle, "{at}"),
                            },
                            Err(e) => assert_eq!(exact, Err(e), "{at}"),
                        }
                    }
                }
            }
        }
        windows
    }

    /// A random schedule: operators on random GPUs in priority order, and
    /// random runs of mutually independent consecutive operators grouped
    /// into one stage (which may still close a cross-GPU circular wait).
    fn random_grouped_schedule(
        g: &Graph,
        cost: &CostTable,
        gpus: usize,
        rng: &mut StdRng,
    ) -> Schedule {
        let mut stages: Vec<Vec<Stage>> = vec![Vec::new(); gpus];
        for v in crate::priority::priority_order(g, cost) {
            let gpu = &mut stages[rng.random_range(0..gpus)];
            match gpu.last_mut() {
                Some(s)
                    if s.ops.len() < 3
                        && rng.random_range(0..3usize) == 0
                        && s.ops.iter().all(|&u| !g.has_edge(u, v)) =>
                {
                    s.ops.push(v);
                }
                _ => gpu.push(Stage::solo(v)),
            }
        }
        Schedule {
            gpus: stages
                .into_iter()
                .map(|stages| GpuSchedule { stages })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn merged_latency_bounded_keeps_its_contract(
            ((ops, layers, gpus), seed, ties, frac) in
                ((8usize..40, 2usize..6, 1usize..4), 0u64..1_000_000, 0usize..2, 0.5f64..1.0))
        {
            let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
                ops,
                layers,
                deps: ops * 2,
                seed,
            })
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let cost = if ties == 1 {
                tied_cost(ops, &mut rng)
            } else {
                hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(seed))
            };
            let sched = random_grouped_schedule(&g, &cost, gpus, &mut rng);
            let baseline = evaluate(&g, &cost, &sched).map_or(0.0, |r| r.latency);
            check_bounded_contract(&g, &cost, &sched, baseline * frac);
        }
    }

    #[test]
    fn merged_latency_bounded_keeps_its_contract_on_tied_arrivals() {
        // GPU0: [a][b][c][d], GPU1: [x][y]; x -> c and a -> y cross
        // GPU0's chain.  c's start ties b's finish over a zero-weight
        // chain edge with x's arrival (1 + 1 = 2): two tight
        // predecessors at one instant.
        let mut bld = GraphBuilder::new();
        let a = bld.add_synthetic("a", &[]);
        let b = bld.add_synthetic("b", &[]);
        let x = bld.add_synthetic("x", &[]);
        let c = bld.add_synthetic("c", &[x]);
        let y = bld.add_synthetic("y", &[a]);
        let d = bld.add_synthetic("d", &[y]);
        let g = bld.build();
        let cost = uniform_cost(6, 1.0, 0.3, 1.0);
        let sched = Schedule::from_gpu_orders(vec![vec![a, b, c, d], vec![x, y]]);
        let r = evaluate(&g, &cost, &sched).unwrap();
        assert_eq!(r.stage_times[0][2].0, r.stage_times[0][1].1);
        assert_eq!(r.stage_times[0][2].0, r.stage_times[1][0].1 + 1.0);
        for below in [0.0, r.latency - 1.0, r.latency - 0.5] {
            assert_eq!(check_bounded_contract(&g, &cost, &sched, below), 7);
        }
    }
}
