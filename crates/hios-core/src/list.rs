//! The priority-ordered insertion list scheduler used inside Alg. 1 and
//! Alg. 3.
//!
//! One loop places operators: `ListState::replay_incremental`, which
//! re-derives a committed list schedule extended with newly placed
//! operators.  HIOS-LP runs its candidate trials through it, and
//! `ListState::from_scratch` is the same replay over an empty schedule.
//! Each GPU's gap scan walks its busy runs.  Every fast path is
//! differential-tested to be bit-identical to [`crate::reference`].

use crate::dense::{DenseContext, NO_GPU};
use hios_graph::OpId;

/// Result of list-scheduling a (possibly partial) operator placement.
#[derive(Clone, Debug)]
pub struct ListScheduleResult {
    /// Makespan over the scheduled operators, ms.
    pub latency: f64,
    /// Start time per operator (`f64::NAN` for unscheduled ones).
    pub start: Vec<f64>,
    /// Finish time per operator (`f64::NAN` for unscheduled ones).
    pub finish: Vec<f64>,
    /// Execution order realized on each GPU.
    pub gpu_order: Vec<Vec<OpId>>,
}

/// State of an insertion-based list schedule.
///
/// HIOS-LP's candidate search runs `M` list schedules per path that share
/// everything up to the first path operator; keeping the state as a value
/// lets each trial replay the committed schedule into a state whose
/// buffers it reuses, and the scheduler swap states instead of copying
/// them.  The result is bit-identical to running each trial from scratch.
///
/// Each GPU's busy intervals are kept twice: as the time-sorted list of
/// the operators that hold them (an interval is its operator's `(start,
/// finish)`), the list the gap scan is defined on, and as its *busy runs*
/// (see [`Run`]), the view [`ListState::place_op`] walks.  Every write to
/// an operator list updates or rebuilds that GPU's runs; debug builds
/// assert after every placement, materialization and adoption that they
/// equal a rebuild.
#[derive(Debug)]
pub(crate) struct ListState {
    start: Vec<f64>,
    finish: Vec<f64>,
    /// The ready time each operator was last placed or reused at (`NaN`
    /// while unscheduled): the lower end of its reuse window in
    /// [`ListState::replay_incremental`], and the ready time an untouched
    /// operator is re-placed at.
    ready: Vec<f64>,
    /// The operators on each GPU, sorted by their intervals `(start[v],
    /// finish[v])`.
    busy_op: Vec<Vec<u32>>,
    /// The busy runs of each GPU's intervals, in interval order.
    busy_run: Vec<Vec<Run>>,
    /// Per GPU, whether the current replay re-placed an operator on it
    /// (see [`ListState::replay_incremental`]).
    dirty: Vec<bool>,
    latency: f64,
}

/// A maximal stretch of one GPU's busy intervals in which every interval
/// starts no later than the largest finish before it in the stretch: the
/// gaps inside a run have width zero or less.  Run finishes rise strictly,
/// and each run starts after the one before it finishes.
#[derive(Clone, Copy, Debug)]
struct Run {
    /// Start of the run's first interval.
    start: f64,
    /// Largest finish over the run's intervals.
    finish: f64,
    /// Index of the run's first interval in its GPU's `busy_op`.
    first: usize,
}

/// Adds interval `i` = `(bs, bf)` to `runs`, which cover the intervals
/// before `i` of the same list.
fn extend_runs(runs: &mut Vec<Run>, i: usize, (bs, bf): (f64, f64)) {
    match runs.last_mut() {
        Some(r) if bs <= r.finish => r.finish = r.finish.max(bf),
        _ => runs.push(Run {
            start: bs,
            finish: bf,
            first: i,
        }),
    }
}

/// The intervals of the operators `ops`, in list order.
fn times<'a>(
    ops: &'a [u32],
    start: &'a [f64],
    finish: &'a [f64],
) -> impl Iterator<Item = (f64, f64)> + 'a {
    ops.iter().map(|&v| (start[v as usize], finish[v as usize]))
}

/// Rebuilds `runs` from one GPU's intervals.
fn rebuild_runs(runs: &mut Vec<Run>, intervals: impl Iterator<Item = (f64, f64)>) {
    runs.clear();
    for (i, iv) in intervals.enumerate() {
        extend_runs(runs, i, iv);
    }
}

/// The run scan of [`ListState::place_op`]: the index of the run whose
/// first interval hosts an operator of length `dur` ready at `ready`
/// (`runs.len()` to append) and its start.
///
/// The scan starts at the first run finishing after `ready`, searched
/// backward from the last run.  Run finishes rise strictly, so the runs
/// from that one on all finish after `ready` and the ones before it by
/// `ready`: it is the run `partition_point` finds, and debug builds
/// check that it is.  (`ready` is a `max` from `0.0`, never `NaN`.)  A
/// trial's operators are mostly ready near their GPU's last run, so the
/// backward walk is short.
fn earliest_run(runs: &[Run], ready: f64, dur: f64) -> (usize, f64) {
    let mut s = ready;
    let mut k0 = runs.len();
    while k0 > 0 && runs[k0 - 1].finish > ready {
        k0 -= 1;
    }
    debug_assert_eq!(
        k0,
        runs.partition_point(|r| r.finish <= ready),
        "the backward run search differs from a binary search"
    );
    for (k, r) in runs.iter().enumerate().skip(k0) {
        if s + dur <= r.start + 1e-12 {
            return (k, s);
        }
        s = s.max(r.finish);
    }
    (runs.len(), s)
}

/// Patches `runs` to a rebuild's after interval `(s, f)` was inserted at
/// index `pos`, just before run `k`'s first interval (or appended, `k =
/// runs.len()`): it joins run `k - 1` when it starts by that run's
/// finish, absorbs the runs it now reaches, and every later run's first
/// interval moves up one.
fn insert_before_run(runs: &mut Vec<Run>, k: usize, pos: usize, (s, f): (f64, f64)) {
    let (lo, mut run) = match k.checked_sub(1) {
        Some(p) if s <= runs[p].finish => (
            p,
            Run {
                finish: runs[p].finish.max(f),
                ..runs[p]
            },
        ),
        _ => (
            k,
            Run {
                start: s,
                finish: f,
                first: pos,
            },
        ),
    };
    let mut hi = k;
    while let Some(next) = runs.get(hi).filter(|r| r.start <= run.finish) {
        run.finish = run.finish.max(next.finish);
        hi += 1;
    }
    if lo == hi {
        runs.insert(lo, run);
    } else {
        runs[lo] = run;
        runs.drain(lo + 1..hi);
    }
    for r in &mut runs[lo + 1..] {
        r.first += 1;
    }
}

/// Whether `runs` equal, bit for bit, a rebuild from `intervals` (the
/// debug invariant of [`ListState`]).
fn runs_agree(intervals: impl Iterator<Item = (f64, f64)>, runs: &[Run]) -> bool {
    let mut fresh = Vec::new();
    rebuild_runs(&mut fresh, intervals);
    let bits = |r: &Run| (r.start.to_bits(), r.finish.to_bits(), r.first);
    fresh.len() == runs.len() && fresh.iter().zip(runs).all(|(a, b)| bits(a) == bits(b))
}

/// Whether an operator of length `dur` may take the run scan on a GPU
/// whose runs end at `last` (`NEG_INFINITY` when idle), ready at `ready`.
///
/// With `T = max(last, ready)` this holds only if `dur - 1e-12 > eps·(T +
/// dur)` exactly (`eps` = `f64::EPSILON`), which is what the proof in
/// [`ListState::place_op`] needs.  The test itself rounds, so it asks for
/// twice that.  `2·eps` is a power of two and scales `fl(T + dur)`
/// exactly (no underflow: a passing `dur` exceeds `1e-12`).  With `u =
/// eps/2`, `fl(T + dur)` is at least `(T + dur)(1 - u)` and `fl(dur -
/// 1e-12)` at most `(dur - 1e-12)(1 + u)`.  So a pass gives `dur -
/// 1e-12 > 2·eps·(T + dur)·(1 - u)/(1 + u)`, which is more than
/// `eps·(T + dur)`.  With the factor 1 the rounding could admit a
/// borderline operator.  An infinite time, or a `NaN` or infinite
/// duration, fails the test.
#[inline]
fn run_scan_is_exact(last: f64, ready: f64, dur: f64) -> bool {
    dur - 1e-12 > 2.0 * f64::EPSILON * (last.max(ready) + dur)
}

impl ListState {
    /// Creates an empty state for `num_ops` operators on `num_gpus` GPUs.
    pub(crate) fn new(num_ops: usize, num_gpus: usize) -> Self {
        ListState {
            start: vec![f64::NAN; num_ops],
            finish: vec![f64::NAN; num_ops],
            ready: vec![f64::NAN; num_ops],
            busy_op: vec![Vec::new(); num_gpus],
            busy_run: vec![Vec::new(); num_gpus],
            dirty: vec![false; num_gpus],
            latency: 0.0,
        }
    }

    /// The list schedule of the operators of `order` (a topological
    /// order) that `gpu_of` places, from scratch: a replay of all of them
    /// over an empty schedule.  `None` marks an operator still in the
    /// unscheduled subgraph `G'`, which imposes no constraints.  This is
    /// the priority-ordered list scheduling with sequential execution per
    /// GPU of Alg. 1 lines 10-13 and the temporal core of Alg. 3.
    ///
    /// Each operator starts at the *earliest available* time on its GPU
    /// once all its *scheduled* predecessors have delivered data:
    /// `start(v) = earliest idle interval of g(v) that fits t(v) and
    /// starts no sooner than max_u finish(u) + [g(u) ≠ g(v)]·t(u, v)`.
    ///
    /// "Earliest available start time" (Alg. 1 line 12) is
    /// insertion-based: a lower-priority operator may fill a gap left
    /// while a higher-priority operator waits for a cross-GPU transfer.
    /// The realized per-GPU order (by start time) is still compatible with
    /// every same-GPU dependency.
    pub(crate) fn from_scratch(ctx: &DenseContext, order: &[OpId], gpu_of: &[Option<u32>]) -> Self {
        let n = ctx.num_ops();
        let place: Vec<u32> = gpu_of.iter().map(|g| g.unwrap_or(NO_GPU)).collect();
        let order: Vec<u32> = order.iter().map(|v| v.0).collect();
        let mut pos = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        let empty = ListState::new(n, ctx.num_gpus());
        let mut state = ListState::new(n, ctx.num_gpus());
        let complete = state.replay_incremental(
            ctx,
            &empty,
            &order,
            &pos,
            &place,
            0.0,
            &mut vec![0; n],
            1,
            f64::INFINITY,
        );
        debug_assert!(complete, "an unbounded replay runs to the end");
        state
    }

    /// Makespan over the operators scheduled so far.
    pub(crate) fn latency(&self) -> f64 {
        self.latency
    }

    /// Finish time of `v` (`NaN` while unscheduled).
    pub(crate) fn op_finish(&self, v: u32) -> f64 {
        self.finish[v as usize]
    }

    /// Re-derives the list schedule of `base` extended with this round's
    /// newly placed operators, copying instead of recomputing wherever
    /// the from-scratch fold provably produces `base`'s exact values.
    ///
    /// `base` must be a complete, order-tracking list schedule of every
    /// operator with `place[v] != NO_GPU` *except* the new ones (those
    /// are `NaN` in `base.finish`), under the same placements.  `ops` is
    /// the priority-order suffix starting at the first new operator and
    /// `pos` the position of every operator in that priority order.
    ///
    /// The from-scratch fold would process `ops` in order; an operator's
    /// `(start, finish)` there depends only on (a) its predecessors'
    /// finish times and (b) its GPU's busy intervals at its turn.  So an
    /// operator may keep `base`'s values when no predecessor's finish
    /// changed (tracked by stamping successors of every operator whose
    /// recomputed finish differs bitwise from `base`'s) and its GPU's
    /// interval set still matches `base`'s (a GPU is *dirty* once any
    /// operator on it was newly placed or re-placed; every later
    /// operator on a dirty GPU is re-placed; `dirty` holds one flag per
    /// GPU, cleared when the replay starts).  On first placement a GPU's
    /// intervals are materialized from `base` filtered to operators
    /// ordered earlier — exactly the fold's interval set at that turn.  By
    /// induction every operator ends with the fold's exact bits, whether
    /// copied or recomputed.
    ///
    /// `ready[v]` is the ready time `v` was last placed or reused at, so
    /// in every complete state it is the fold of `v`'s predecessors'
    /// finishes there: a placed or reused operator records the fold, and
    /// a copied one is untouched, its predecessors' finishes and GPUs
    /// being `base`'s.  An untouched operator re-placed on a dirty GPU
    /// therefore takes `base.ready[v]` instead of re-folding its
    /// predecessors; debug builds re-fold and compare.
    ///
    /// A *touched* operator (a predecessor's finish changed) on a clean
    /// GPU may still keep `base`'s slot: its *reuse window*.  The gap scan
    /// (`reference::earliest_gap`, which `place_op` equals) holds `s_i(r)
    /// = max(r, bf_0, .., bf_{i-1})` at interval `i`, and its fit test
    /// `s + dur <= bs_i + 1e-12` is monotone in `s` (IEEE `+` and `max`
    /// are).  Let the scan from `r0` stop at index `k` with start `s0`.
    /// For any `r` in `[r0, s0]`, every interval before `k` still fails
    /// the test (`s_i(r) >= s_i(r0)`), and `s_k(r) = s0` exactly: either
    /// `s0 = r0 = r`, or `s0` is the largest `bf` before `k` and `r <=
    /// s0`.  So on one interval set the scan returns the same index and
    /// the same bits for every ready time in `[r0, s0]`.  A clean GPU's
    /// interval set at the operator's turn is `base`'s, the set `base`
    /// placed or last reused it on from `r0 = base.ready[v]`; so when the
    /// new ready time `r` falls in `[base.ready[v], base.start[v]]` the
    /// operator keeps `base`'s start and finish, its GPU stays clean and
    /// no successor is touched.  A reused operator records `r`: the scan
    /// from `r` stops at the same `k` with the same `s0`, so `[r, s0]`
    /// is again a window on the same interval set, narrower than `[r0,
    /// s0]` when `r > r0`.  Debug builds re-place every reused operator
    /// by the reference scan and assert the same bits and insertion
    /// index.
    ///
    /// `touch`/`gen` are the caller's stamp buffer (entries `== gen`
    /// mean "a predecessor changed"); `lat0` is the makespan over the
    /// operators ordered before `ops[0]` (unchanged by construction).
    /// Over an empty `base` every operator is new, so the replay is the
    /// from-scratch fold itself ([`ListState::from_scratch`]).
    /// The call aborts and returns `false` as soon as the running
    /// makespan *exceeds* `bound`.
    /// Returns `true` when the state is a complete schedule of all
    /// placed operators (clean GPUs adopt `base`'s interval lists
    /// verbatim).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_incremental(
        &mut self,
        ctx: &DenseContext,
        base: &ListState,
        ops: &[u32],
        pos: &[usize],
        place: &[u32],
        lat0: f64,
        touch: &mut [u32],
        gen: u32,
        bound: f64,
    ) -> bool {
        let num_gpus = base.busy_op.len();
        self.start.clone_from(&base.start);
        self.finish.clone_from(&base.finish);
        self.ready.clone_from(&base.ready);
        self.busy_op.resize(num_gpus, Vec::new());
        self.busy_run.resize(num_gpus, Vec::new());
        for g in 0..num_gpus {
            self.busy_op[g].clear();
            self.busy_run[g].clear();
        }
        self.dirty.clear();
        self.dirty.resize(num_gpus, false);
        self.latency = lat0;

        for &v in ops {
            let vi = v as usize;
            let gv = place[vi];
            if gv == NO_GPU {
                continue;
            }
            let gvu = gv as usize;
            let is_new = base.finish[vi].is_nan();
            let clean = !self.dirty[gvu];
            if !is_new && touch[vi] != gen && clean {
                // No predecessor changed and the GPU's interval set is
                // still `base`'s: the fold would reproduce `base`'s
                // values, which `self` already holds.
                self.latency = self.latency.max(self.finish[vi]);
                continue;
            }
            let ready = if is_new || touch[vi] == gen {
                ready_time(ctx, place, &self.finish, v)
            } else {
                // Untouched on a dirty GPU: every predecessor keeps
                // `base`'s GPU and finish, so the fold repeats the ready
                // time `base` recorded.
                debug_assert_eq!(
                    ready_time(ctx, place, &self.finish, v).to_bits(),
                    base.ready[vi].to_bits(),
                    "an untouched operator's ready time differs from a re-fold"
                );
                base.ready[vi]
            };
            let dur = ctx.exec(gvu, v);
            if !is_new && clean && base.ready[vi] <= ready && ready <= base.start[vi] {
                // Inside the reuse window: the scan over `base`'s
                // interval set repeats `base`'s slot.
                debug_assert!(
                    reuse_is_exact(base, pos, v, gvu, ready, dur),
                    "a reused slot differs from the reference scan"
                );
                self.ready[vi] = ready;
                self.latency = self.latency.max(self.finish[vi]);
                continue;
            }
            if clean {
                // First divergence on this GPU: materialize the fold's
                // interval set at this turn — `base`'s operators on the
                // GPU that are ordered before `v` (time-sorted order is
                // preserved by filtering) — and rebuild its runs.
                let sop = &mut self.busy_op[gvu];
                let runs = &mut self.busy_run[gvu];
                for &op in &base.busy_op[gvu] {
                    if pos[op as usize] < pos[vi] {
                        let iv = (base.start[op as usize], base.finish[op as usize]);
                        extend_runs(runs, sop.len(), iv);
                        sop.push(op);
                    }
                }
                debug_assert!(
                    runs_agree(times(sop, &self.start, &self.finish), runs),
                    "busy runs differ from a rebuild of the intervals"
                );
                self.dirty[gvu] = true;
            }
            self.place_op(v, gvu, ready, dur);
            if self.finish[vi].to_bits() != base.finish[vi].to_bits() {
                for &w in ctx.succs(v) {
                    touch[w as usize] = gen;
                }
            }
            if self.latency > bound {
                return false;
            }
        }
        // Clean GPUs never diverged: their interval lists and runs are
        // `base`'s.
        for g in 0..num_gpus {
            if !self.dirty[g] {
                self.busy_op[g].clone_from(&base.busy_op[g]);
                self.busy_run[g].clone_from(&base.busy_run[g]);
                debug_assert!(
                    runs_agree(
                        times(&self.busy_op[g], &self.start, &self.finish),
                        &self.busy_run[g]
                    ),
                    "busy runs differ from a rebuild of the intervals"
                );
            }
        }
        true
    }

    /// Inserts `v` into the earliest gap on `gv` of length >= `dur`
    /// starting no sooner than `ready`: the insertion index and bits of
    /// `reference::earliest_gap` over the GPU's intervals, found by
    /// walking its busy runs instead.
    ///
    /// **Why the run scan is exact.**  Times are never negative (`ready`
    /// is a `max` from `0.0`, and durations are `>= 0`), so every
    /// interval has `0 <= bs <= bf`.  The reference holds `s = max(ready,
    /// bf_0, .., bf_{i-1})` at interval `i` and stops at the first `i`
    /// with `fl(s + dur) <= fl(bs_i + 1e-12)`.  Take any interval (all
    /// have `bs <= T = max(last run finish, ready)`) that the reference
    /// reaches with `s >= bs`.  Rounding is monotone and within `u =
    /// eps/2` relative, so `fl(s + dur) >= fl(bs + dur) >=
    /// fl(bs + 1e-12) + (dur - 1e-12 - eps·(bs + dur))`.  That exceeds
    /// `fl(bs + 1e-12)` once `dur - 1e-12` exceeds `eps·(T + dur)`, which
    /// [`run_scan_is_exact`] guarantees, and then the interval cannot
    /// host the operator.  That covers (a) every interval of a run with
    /// `finish <= ready`, where `s >= ready >= bf >= bs`, and (b) every
    /// interval of a run but its first, where `s` is at least the run's
    /// running max finish, which is `>= bs` by the definition of a run.
    /// So only first intervals can host the operator.  There the
    /// reference's `s` is `max(ready, max bf before)`, which is
    /// `max(ready, finish of the run before)` as run finishes rise.  The
    /// run scan starts at `s = ready` from the first run with `finish >
    /// ready` (see [`earliest_run`]; the runs it skips have `finish <= ready`)
    /// and folds `s = max(s, finish)` over each run it passes: the same
    /// `max` over the same values, so it tests the same `s`, bit for bit.
    /// Past the last run both append with that `s`.  An operator the
    /// guard turns away (a duration at or near `1e-12`, a `NaN` or
    /// infinite duration, or an infinite time) takes the reference scan
    /// itself, and the GPU's runs are rebuilt.
    ///
    /// After an insert before run `k` the runs are patched to what a
    /// rebuild gives: the new interval joins run `k - 1` when it starts by
    /// that run's finish, the runs it now reaches (`start <= finish`) are
    /// absorbed, and every later run's `first` moves up one.
    #[inline]
    fn place_op(&mut self, v: u32, gv: usize, ready: f64, dur: f64) {
        self.ready[v as usize] = ready;
        let ops = &mut self.busy_op[gv];
        let runs = &mut self.busy_run[gv];
        let last = runs.last().map_or(f64::NEG_INFINITY, |r| r.finish);
        let scan = run_scan_is_exact(last, ready, dur);
        let (pos, s) = if scan {
            // Append fast path: every run finishes by `ready`.
            let (k, s) = if last <= ready {
                (runs.len(), ready)
            } else {
                earliest_run(runs, ready, dur)
            };
            let pos = runs.get(k).map_or(ops.len(), |r| r.first);
            insert_before_run(runs, k, pos, (s, s + dur));
            (pos, s)
        } else {
            crate::reference::earliest_gap(times(ops, &self.start, &self.finish), ready, dur)
        };
        let f = s + dur;
        ops.insert(pos, v);
        self.start[v as usize] = s;
        self.finish[v as usize] = f;
        if !scan {
            rebuild_runs(runs, times(ops, &self.start, &self.finish));
        }
        debug_assert!(
            runs_agree(times(ops, &self.start, &self.finish), runs),
            "busy runs differ from a rebuild of the intervals"
        );
        self.latency = self.latency.max(f);
    }

    /// Consumes the state into a [`ListScheduleResult`].
    pub(crate) fn into_result(self) -> ListScheduleResult {
        ListScheduleResult {
            latency: self.latency,
            start: self.start,
            finish: self.finish,
            gpu_order: self
                .busy_op
                .into_iter()
                .map(|ops| ops.into_iter().map(OpId).collect())
                .collect(),
        }
    }
}

/// Whether the reference scan over `base`'s interval set on `gv` at
/// `v`'s turn (its operators ordered before `v`) places `v`, ready at
/// `ready`, at `base`'s exact start, finish and insertion index — the
/// debug check of every reuse in [`ListState::replay_incremental`].
fn reuse_is_exact(
    base: &ListState,
    pos: &[usize],
    v: u32,
    gv: usize,
    ready: f64,
    dur: f64,
) -> bool {
    let vi = v as usize;
    let earlier = |op: &&u32| pos[**op as usize] < pos[vi];
    let busy = base.busy_op[gv].iter();
    let intervals = busy
        .clone()
        .filter(earlier)
        .map(|&op| (base.start[op as usize], base.finish[op as usize]));
    let (at, s) = crate::reference::earliest_gap(intervals, ready, dur);
    let base_at = busy.take_while(|&&op| op != v).filter(earlier).count();
    s.to_bits() == base.start[vi].to_bits()
        && (s + dur).to_bits() == base.finish[vi].to_bits()
        && at == base_at
}

/// The ready time of `v` on its GPU `place[v]`: the latest arrival from
/// its placed predecessors, whose finishes `finish` holds (`0.0` when it
/// has none).
fn ready_time(ctx: &DenseContext, place: &[u32], finish: &[f64], v: u32) -> f64 {
    let gv = place[v as usize] as usize;
    let mut ready = 0.0f64;
    for &u in ctx.preds(v) {
        let gu = place[u as usize];
        if gu == NO_GPU {
            continue;
        }
        let fu = finish[u as usize];
        debug_assert!(!fu.is_nan(), "order must be topological");
        let arrival = if gu as usize == gv {
            fu
        } else {
            fu + ctx.transfer(u, gu as usize, gv)
        };
        ready = ready.max(arrival);
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, SchedulerOptions, run_scheduler};
    use crate::fixtures::{fig4, fig4_cost, list_schedule, tied_cost};
    use crate::lp::HiosLpConfig;
    use hios_cost::{ConcurrencyParams, CostTable, RandomCostConfig, random_cost_table};
    use hios_graph::{Graph, GraphBuilder, LayeredDagConfig, generate_layered_dag};
    use proptest::prelude::Strategy;
    use proptest::test_runner::TestRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ListState {
        /// A one-GPU state for `num_ops` operators whose GPU is already
        /// busy over `busy`, each interval held by a placeholder operator
        /// numbered from `num_ops` on.  Its runs are built from the
        /// intervals, so no test holds a state where they disagree.
        fn busy_over(num_ops: usize, busy: &[(f64, f64)]) -> Self {
            let mut st = ListState::new(num_ops + busy.len(), 1);
            for (i, &(bs, bf)) in busy.iter().enumerate() {
                st.start[num_ops + i] = bs;
                st.finish[num_ops + i] = bf;
                st.busy_op[0].push((num_ops + i) as u32);
            }
            rebuild_runs(&mut st.busy_run[0], busy.iter().copied());
            st
        }

        /// GPU `g`'s busy intervals, in list order.
        fn intervals(&self, g: usize) -> Vec<(f64, f64)> {
            times(&self.busy_op[g], &self.start, &self.finish).collect()
        }
    }

    /// Where `place_op` puts an operator of length `dur` ready at `ready`
    /// on a GPU already busy over `busy`: its insertion index, start and
    /// finish.
    fn place_on(busy: &[(f64, f64)], ready: f64, dur: f64) -> (usize, f64, f64) {
        let mut st = ListState::busy_over(1, busy);
        st.place_op(0, 0, ready, dur);
        let at = st.busy_op[0].iter().position(|&op| op == 0).unwrap();
        (at, st.start[0], st.finish[0])
    }

    #[test]
    fn the_gap_scan_repeats_its_slot_across_the_reuse_window() {
        // Busy lists at >= 1e4 ms with adjacent intervals, ready times
        // tied to interval ends and starts, durations at and below the
        // 1e-12 fit slack: every ready time in `[r0, s0]` must get the
        // slot `r0` got, from `place_op` and from the reference scan.
        let mut rng = StdRng::seed_from_u64(37);
        let mut wide = 0;
        for case in 0..4000 {
            // Dyadic steps tie exactly; decimal ones round.
            let q = if case % 2 == 0 { 0.25 } else { 0.1 };
            let mut t = 1e4 + q * rng.random_range(0..40u32) as f64;
            let mut busy = Vec::new();
            for _ in 0..rng.random_range(0..8usize) {
                if rng.random_range(0..3u32) > 0 {
                    t += q * rng.random_range(1..12u32) as f64;
                }
                let len = match rng.random_range(0..6u32) {
                    0 => 1e-13,
                    _ => q * rng.random_range(1..12u32) as f64,
                };
                busy.push((t, t + len));
                t += len;
            }
            let dur = match rng.random_range(0..5u32) {
                0 => 0.0,
                1 => 1e-12,
                2 => 5e-13,
                _ => q * rng.random_range(1..10u32) as f64,
            };
            let r0 = match (rng.random_range(0..4u32), busy.as_slice()) {
                (0, [_, ..]) => busy[rng.random_range(0..busy.len())].1,
                (1, [_, ..]) => busy[rng.random_range(0..busy.len())].0 - dur,
                _ => 1e4 + q * rng.random_range(0..200u32) as f64,
            };
            let (k0, s0) = crate::reference::earliest_gap(busy.iter().copied(), r0, dur);
            let at_r0 = place_on(&busy, r0, dur);
            assert_eq!(
                (at_r0.0, at_r0.1.to_bits(), at_r0.2.to_bits()),
                (k0, s0.to_bits(), (s0 + dur).to_bits()),
                "case {case}: place_op differs from the reference scan at r0"
            );
            wide += usize::from(s0 > r0);
            let interior = r0 + (s0 - r0) * rng.random_range(0.0..1.0f64);
            for r1 in [r0, r0.next_up(), interior.clamp(r0, s0), s0] {
                if r1 > s0 {
                    continue;
                }
                let (k1, s1) = crate::reference::earliest_gap(busy.iter().copied(), r1, dur);
                assert_eq!(
                    (k1, s1.to_bits()),
                    (k0, s0.to_bits()),
                    "case {case}: r1 {r1}"
                );
                let at_r1 = place_on(&busy, r1, dur);
                assert_eq!(
                    (at_r1.0, at_r1.1.to_bits(), at_r1.2.to_bits()),
                    (at_r0.0, at_r0.1.to_bits(), at_r0.2.to_bits()),
                    "case {case}: r1 {r1}"
                );
            }
        }
        assert!(wide > 400, "only {wide} windows wider than one point");
    }

    #[test]
    fn place_op_equals_the_reference_scan_on_every_placement() {
        // Sequences of placements on one GPU at >= 1e4 and >= 1e6 ms, so
        // every busy list, with its zero-length intervals and the fuzzy
        // overlaps (within the rounded 1e-12 fit slack) of near-zero
        // operators, is `place_op`'s own.  Ready times tie to interval starts and finishes, and
        // durations sit at and around the 1e-12 fit slack and the run
        // scan's threshold.  Each placement must equal the reference scan
        // over the same list in insertion index and bits, and the runs a
        // rebuild from the intervals.
        let mut rng = StdRng::seed_from_u64(40);
        let (mut scanned, mut fell_back, mut overlaps) = (0, 0, 0);
        for case in 0..600 {
            let origin = if case % 2 == 0 { 1e4 } else { 1e6 };
            // Dyadic steps tie exactly; decimal ones round.
            let q = if case % 4 < 2 { 0.25 } else { 0.1 };
            let n = 40;
            let mut st = ListState::new(n, 1);
            for v in 0..n as u32 {
                let last = st.busy_run[0]
                    .last()
                    .map_or(f64::NEG_INFINITY, |r| r.finish);
                let busy = st.intervals(0);
                let pick = |rng: &mut StdRng| busy[rng.random_range(0..busy.len())];
                let ready = match rng.random_range(0..6u32) {
                    0 if !busy.is_empty() => pick(&mut rng).0,
                    1 if !busy.is_empty() => pick(&mut rng).0.next_up(),
                    2 | 3 if !busy.is_empty() => pick(&mut rng).1,
                    _ => origin + q * rng.random_range(0..160u32) as f64,
                };
                // The smallest duration the run scan takes here, give or
                // take the rounding of this expression.
                let t = last.max(ready);
                let threshold = (1e-12 + 2.0 * f64::EPSILON * t) / (1.0 - 2.0 * f64::EPSILON);
                let ulps = rng.random_range(0..4u32);
                let dur = match rng.random_range(0..9u32) {
                    0 => 0.0,
                    1 => 5e-13,
                    2 => 1e-12,
                    3 => 1e-12f64.next_up(),
                    4 => (0..ulps).fold(threshold, |d, _| d.next_up()),
                    5 => (0..ulps).fold(threshold, |d, _| d.next_down()),
                    _ => q * rng.random_range(1..12u32) as f64,
                };
                if run_scan_is_exact(last, ready, dur) {
                    // Appends take the run scan's fast path.
                    scanned += usize::from(last > ready);
                } else {
                    fell_back += 1;
                }
                let (at, s) = crate::reference::earliest_gap(busy.iter().copied(), ready, dur);
                st.place_op(v, 0, ready, dur);
                let vi = v as usize;
                let got = st.busy_op[0].iter().position(|&op| op == v).unwrap();
                assert_eq!(
                    (got, st.start[vi].to_bits(), st.finish[vi].to_bits()),
                    (at, s.to_bits(), (s + dur).to_bits()),
                    "case {case} op {v}: ready {ready:e} dur {dur:e} on {busy:?}"
                );
                let iv = &st.intervals(0);
                assert!(
                    runs_agree(iv.iter().copied(), &st.busy_run[0]),
                    "case {case} op {v}"
                );
                overlaps += usize::from(iv.get(at + 1).is_some_and(|&(bs, _)| iv[at].1 > bs));
            }
        }
        assert!(
            scanned > 5_000,
            "the run scan walked runs for only {scanned} placements"
        );
        assert!(
            fell_back > 5_000,
            "the fallback took only {fell_back} placements"
        );
        assert!(
            overlaps > 500,
            "only {overlaps} fuzzy overlaps were created"
        );
    }

    /// Every start and finish, each GPU's order and the makespan of a
    /// list schedule, as bits.
    type ScheduleBits = (Vec<u64>, Vec<u64>, Vec<Vec<u32>>, u64);

    fn to_bits(
        start: &[f64],
        finish: &[f64],
        gpu_order: Vec<Vec<u32>>,
        latency: f64,
    ) -> ScheduleBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (bits(start), bits(finish), gpu_order, latency.to_bits())
    }

    fn schedule_bits(r: &ListScheduleResult) -> ScheduleBits {
        let order = r.gpu_order.iter().map(|o| o.iter().map(|v| v.0).collect());
        to_bits(&r.start, &r.finish, order.collect(), r.latency)
    }

    /// [`schedule_bits`] of a state.
    fn state_bits(st: &ListState) -> ScheduleBits {
        to_bits(&st.start, &st.finish, st.busy_op.clone(), st.latency)
    }

    /// `place` as [`list_schedule`]'s `gpu_of`.
    fn gpu_of(place: &[u32]) -> Vec<Option<u32>> {
        place.iter().map(|&g| (g != NO_GPU).then_some(g)).collect()
    }

    /// Replays rounds the way HIOS-LP's trials do: each operator joins in
    /// a random round, each round tries its batch on every GPU in turn
    /// over the committed state, and the lowest-latency trial (ties to the
    /// lower GPU) is committed, the states rotating through three
    /// buffers.  Every trial must equal `reference::list_schedule` of the
    /// same placements in every start and finish, each GPU's order and
    /// the makespan, bit for bit.
    /// Returns how many operators kept `base`'s slot at another ready time
    /// on a GPU the trial left clean (the reuse window fired).
    fn check_replays(
        g: &Graph,
        cost: &CostTable,
        gpus: usize,
        rounds: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = g.num_ops();
        let ctx = DenseContext::build(g, cost, gpus);
        let order = crate::priority::priority_order(g, cost);
        let order_u32: Vec<u32> = order.iter().map(|v| v.0).collect();
        let mut pos = vec![0usize; n];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let round_of: Vec<usize> = (0..n).map(|_| rng.random_range(0..rounds)).collect();
        let mut place = vec![NO_GPU; n];
        let mut base = ListState::new(n, gpus);
        let mut best = ListState::new(n, gpus);
        let mut trial = ListState::new(n, gpus);
        let mut touch = vec![0u32; n];
        let mut gen = 0;
        let mut kept = 0;
        for round in 0..rounds {
            let batch: Vec<usize> = (0..n).filter(|&v| round_of[v] == round).collect();
            let Some(cut) = batch.iter().map(|&v| pos[v]).min() else {
                continue;
            };
            let lat0 = order_u32[..cut]
                .iter()
                .fold(0.0f64, |l, &v| l.max(base.op_finish(v)));
            let mut best_latency = f64::INFINITY;
            let mut best_gpu = 0;
            for gi in 0..gpus as u32 {
                for &v in &batch {
                    place[v] = gi;
                }
                gen += 1;
                let done = trial.replay_incremental(
                    &ctx,
                    &base,
                    &order_u32[cut..],
                    &pos,
                    &place,
                    lat0,
                    &mut touch,
                    gen,
                    f64::INFINITY,
                );
                assert!(done);
                let want = crate::reference::list_schedule(g, cost, &order, &gpu_of(&place), gpus);
                assert_eq!(
                    state_bits(&trial),
                    schedule_bits(&want),
                    "round {round} gpu {gi}"
                );
                for v in (0..n).filter(|&v| place[v] != NO_GPU && !base.finish[v].is_nan()) {
                    let bits = |st: &ListState| (st.ready[v].to_bits(), st.start[v].to_bits());
                    let (t, b) = (bits(&trial), bits(&base));
                    kept +=
                        usize::from(!trial.dirty[place[v] as usize] && t.0 != b.0 && t.1 == b.1);
                }
                if trial.latency() < best_latency {
                    best_latency = trial.latency();
                    best_gpu = gi;
                    std::mem::swap(&mut best, &mut trial);
                }
            }
            for &v in &batch {
                place[v] = best_gpu;
            }
            std::mem::swap(&mut base, &mut best);
        }
        kept
    }

    #[test]
    fn replay_incremental_matches_a_from_scratch_schedule() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut kept = 0;
        for case in 0..64 {
            let ops = rng.random_range(8..60usize);
            let seed = rng.random_range(0..1_000_000u64);
            let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
                ops,
                layers: rng.random_range(2..8usize),
                deps: ops * 2,
                seed,
            })
            .unwrap();
            let cost = if case % 2 == 0 {
                tied_cost(ops, &mut rng)
            } else {
                hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(seed))
            };
            let (gpus, rounds) = (rng.random_range(1..5usize), rng.random_range(2..8usize));
            kept += check_replays(&g, &cost, gpus, rounds, &mut rng);
        }
        assert!(kept > 0, "the reuse window never fired");
    }

    #[test]
    fn a_fallen_ready_time_declines_the_reuse_and_takes_an_earlier_gap() {
        // GPU0 runs x0, then x; y (after x) and z share GPU1; w (after
        // x0) and v (after z) share GPU2.  Adding p to GPU0 between x0
        // and x delays x and so y, which frees GPU1's head for z: v's
        // ready time falls from 10 to 3, below the window `[10, 10]` it
        // was placed from, and an earlier gap on its still-clean GPU —
        // ahead of w's [4, 7) — now takes it.
        let mut bld = GraphBuilder::new();
        let x0 = bld.add_synthetic("x0", &[]);
        let p = bld.add_synthetic("p", &[]);
        let x = bld.add_synthetic("x", &[]);
        let y = bld.add_synthetic("y", &[x]);
        let z = bld.add_synthetic("z", &[]);
        let w = bld.add_synthetic("w", &[x0]);
        let v = bld.add_synthetic("v", &[z]);
        let g = bld.build();
        let cost = CostTable::homogeneous(
            "fallen",
            vec![1.0, 3.0, 1.0, 5.0, 3.0, 3.0, 1.0],
            vec![1.0; 7],
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ConcurrencyParams::default(),
            0.0,
        );
        let order = [x0, p, x, y, z, w, v];
        let order_u32: Vec<u32> = order.iter().map(|v| v.0).collect();
        let pos: Vec<usize> = (0..7).collect();
        let mut place = vec![0, NO_GPU, 0, 1, 1, 2, 2];
        let ctx = DenseContext::build(&g, &cost, 3);
        let base = ListState::from_scratch(&ctx, &order, &gpu_of(&place));
        assert_eq!((base.ready[v.index()], base.start[v.index()]), (10.0, 10.0));

        place[p.index()] = 0;
        let mut trial = ListState::new(7, 3);
        let mut touch = vec![0u32; 7];
        let lat0 = base.op_finish(x0.0);
        assert!(trial.replay_incremental(
            &ctx,
            &base,
            &order_u32[1..],
            &pos,
            &place,
            lat0,
            &mut touch,
            1,
            f64::INFINITY
        ));
        assert_eq!(trial.finish[z.index()], 3.0, "v's ready time falls to 3");
        assert_eq!(
            (trial.start[v.index()], trial.finish[v.index()]),
            (3.0, 4.0)
        );
        assert_eq!(trial.busy_op[2], vec![v.0, w.0]);
        let scratch = list_schedule(&g, &cost, &order, &gpu_of(&place), 3);
        assert_eq!(state_bits(&trial), schedule_bits(&scratch));
    }

    #[test]
    fn more_than_64_gpus_match_the_reference() {
        // A replay must track dirty GPUs for any number of GPUs: a
        // 64-bit mask aliases GPU `g` with `g - 64` above 64, leaves one
        // of them unmaterialized and loses its operators.
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 400,
            layers: 2,
            deps: 800,
            seed: 3,
        })
        .unwrap();
        let cost = hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(3));
        let order = crate::priority::priority_order(&g, &cost);
        let mut rng = StdRng::seed_from_u64(65);
        for m in [65, 70] {
            for (algo, intra) in [(Algorithm::InterGpuLp, false), (Algorithm::HiosLp, true)] {
                let fast = run_scheduler(algo, &g, &cost, &SchedulerOptions::new(m)).unwrap();
                let cfg = HiosLpConfig {
                    intra,
                    ..HiosLpConfig::new(m)
                };
                let slow = crate::reference::schedule_hios_lp(&g, &cost, cfg);
                assert_eq!(fast.schedule, slow.schedule, "{algo:?} on {m} GPUs");
                assert_eq!(
                    fast.latency_ms.to_bits(),
                    slow.latency.to_bits(),
                    "{algo:?} on {m} GPUs"
                );
            }
            let gpu_of: Vec<Option<u32>> = (0..g.num_ops())
                .map(|_| (rng.random_range(0..8u32) > 0).then(|| rng.random_range(0..m as u32)))
                .collect();
            assert_eq!(
                schedule_bits(&list_schedule(&g, &cost, &order, &gpu_of, m)),
                schedule_bits(&crate::reference::list_schedule(
                    &g, &cost, &order, &gpu_of, m
                )),
                "list_schedule on {m} GPUs"
            );
        }
    }

    /// The gap search equals the reference linear scan on partial
    /// placements (`None` marks an unscheduled operator).  The 40 cases
    /// are drawn from the seeds they had as a property of the
    /// `eval_equivalence` suite, so they are the same instances.
    #[test]
    fn list_schedule_matches_reference() {
        let cases = (12usize..60, 2usize..6, 1usize..5, 0u64..1_000_000);
        for case in 0..40 {
            let mut draw =
                TestRng::for_case("eval_equivalence::list_schedule_matches_reference", case);
            let (ops, layers, gpus, seed) = cases.generate(&mut draw);
            let g = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers,
                deps: ops * 2,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x11157);
            let gpu_of: Vec<Option<u32>> = (0..g.num_ops())
                .map(|_| {
                    if rng.random_range(0..4usize) == 0 {
                        None
                    } else {
                        Some(rng.random_range(0..gpus) as u32)
                    }
                })
                .collect();
            let order = crate::priority::priority_order(&g, &cost);
            assert_eq!(
                schedule_bits(&list_schedule(&g, &cost, &order, &gpu_of, gpus)),
                schedule_bits(&crate::reference::list_schedule(
                    &g, &cost, &order, &gpu_of, gpus
                )),
                "case {case}: {ops} ops, {layers} layers, {gpus} GPUs, seed {seed}"
            );
        }
    }

    #[test]
    fn list_schedule_matches_fig4_narrative() {
        // With P1 = {v1,v2,v4,v6,v8} on GPU 0 and {v3,v5} on GPU 1 the
        // hand-computed makespan is 13 (see lp.rs); v7 unscheduled.
        let (g, _) = fig4();
        let cost = fig4_cost();
        let mut gpu_of = vec![None; 8];
        for i in [0usize, 1, 3, 5, 7] {
            gpu_of[i] = Some(0);
        }
        for i in [2usize, 4] {
            gpu_of[i] = Some(1);
        }
        let p = crate::priority::priorities(&g, &cost);
        let order = hios_graph::paths::priority_order(&g, &p);
        let r = list_schedule(&g, &cost, &order, &gpu_of, 2);
        assert!((r.latency - 13.0).abs() < 1e-9, "got {}", r.latency);
        assert!(r.start[6].is_nan(), "v7 is unscheduled");
        assert_eq!(r.gpu_order[1], vec![OpId(2), OpId(4)]);
    }

    #[test]
    fn list_schedule_serializes_on_one_gpu() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let gpu_of = vec![Some(0u32); 8];
        let p = crate::priority::priorities(&g, &cost);
        let order = hios_graph::paths::priority_order(&g, &p);
        let r = list_schedule(&g, &cost, &order, &gpu_of, 1);
        let total: f64 = cost.total_exec();
        assert!((r.latency - total).abs() < 1e-9);
        assert_eq!(r.gpu_order[0].len(), 8);
    }
}
