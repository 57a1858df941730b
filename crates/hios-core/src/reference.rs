//! Pre-optimization reference implementations of the evaluator and both
//! HIOS schedulers.
//!
//! These are the original (allocating, non-incremental, sequential) code
//! paths, kept verbatim so that:
//!
//! * the optimized evaluation engine ([`crate::eval::EvalWorkspace`], the
//!   binary-search list scheduler, the incremental window pass and the
//!   restructured MR table fill) can be differential-tested against them
//!   — `tests/eval_equivalence.rs` asserts *bit-identical* latencies and
//!   identical schedules on random instances; and
//! * the `sched-scaling` benchmark in `hios-bench` can report the
//!   speedup the engine delivers over this baseline.
//!
//! Nothing here is used by the production schedulers.

use crate::eval::{EvalError, EvalResult};
use crate::list::ListScheduleResult;
use crate::lp::{HiosLpConfig, LpOutcome, longest_valid_path};
use crate::mr::{HiosMrConfig, MrOutcome};
use crate::priority::priorities;
use crate::schedule::{Schedule, Stage};
use hios_cost::CostTable;
use hios_graph::paths::priority_order;
use hios_graph::{Graph, OpId};

/// Reference stage-synchronous evaluator: builds the stage graph from
/// scratch on every call (see [`crate::eval::evaluate`] for semantics).
pub fn evaluate(g: &Graph, cost: &CostTable, sched: &Schedule) -> Result<EvalResult, EvalError> {
    sched.validate(g)?;
    let place = sched.placements(g.num_ops());

    // Global stage ids, per GPU in order.
    let mut stage_id = Vec::with_capacity(sched.num_gpus());
    let mut stages: Vec<(usize, usize)> = Vec::new(); // (gpu, stage index)
    for (gi, gpu) in sched.gpus.iter().enumerate() {
        let mut ids = Vec::with_capacity(gpu.stages.len());
        for si in 0..gpu.stages.len() {
            ids.push(stages.len());
            stages.push((gi, si));
        }
        stage_id.push(ids);
    }
    let n_stages = stages.len();

    // Stage-graph edges: same-GPU chains (weight 0) and cross-GPU data
    // dependencies (weight t(u, v)). Duplicate edges between the same
    // stage pair are fine -- the relaxation takes the max anyway.
    let mut succ: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_stages];
    let mut indeg = vec![0usize; n_stages];
    for ids in &stage_id {
        for w in ids.windows(2) {
            succ[w[0]].push((w[1], 0.0));
            indeg[w[1]] += 1;
        }
    }
    for (u, v) in g.edges() {
        let pu = place[u.index()].expect("validated");
        let pv = place[v.index()].expect("validated");
        if pu.gpu != pv.gpu {
            let su = stage_id[pu.gpu][pu.stage];
            let sv = stage_id[pv.gpu][pv.stage];
            succ[su].push((sv, cost.transfer(u, pu.gpu, pv.gpu)));
            indeg[sv] += 1;
        }
    }

    // Kahn topological relaxation over the stage graph.
    let mut start = vec![0.0f64; n_stages];
    let mut finish = vec![0.0f64; n_stages];
    let mut ready: Vec<usize> = (0..n_stages).filter(|&s| indeg[s] == 0).collect();
    let mut done = 0usize;
    while let Some(s) = ready.pop() {
        done += 1;
        let (gi, si) = stages[s];
        let dur = cost.concurrent_on(gi, &sched.gpus[gi].stages[si].ops);
        finish[s] = start[s] + dur;
        for &(t, w) in &succ[s] {
            start[t] = start[t].max(finish[s] + w);
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    if done != n_stages {
        return Err(EvalError::StageCycle);
    }

    let latency = finish.iter().copied().fold(0.0f64, f64::max);
    let mut op_start = vec![0.0f64; g.num_ops()];
    let mut op_finish = vec![0.0f64; g.num_ops()];
    for v in g.op_ids() {
        let p = place[v.index()].expect("validated");
        let sid = stage_id[p.gpu][p.stage];
        op_start[v.index()] = start[sid];
        op_finish[v.index()] = (start[sid] + cost.exec_on(p.gpu, v))
            .min(finish[sid])
            .max(start[sid]);
    }
    let mut stage_times = Vec::with_capacity(sched.num_gpus());
    for ids in &stage_id {
        stage_times.push(ids.iter().map(|&s| (start[s], finish[s])).collect());
    }
    Ok(EvalResult {
        latency,
        stage_times,
        op_start,
        op_finish,
    })
}

/// Reference list scheduler: linear earliest-gap scan (see
/// [`crate::list`] for semantics).
pub fn list_schedule(
    g: &Graph,
    cost: &CostTable,
    order: &[OpId],
    gpu_of: &[Option<u32>],
    num_gpus: usize,
) -> ListScheduleResult {
    let mut start = vec![f64::NAN; g.num_ops()];
    let mut finish = vec![f64::NAN; g.num_ops()];
    // Sorted busy intervals per GPU: (start, finish, op).
    let mut busy: Vec<Vec<(f64, f64, OpId)>> = vec![Vec::new(); num_gpus];
    let mut latency = 0.0f64;
    for &v in order {
        let Some(gv) = gpu_of[v.index()] else {
            continue;
        };
        let gv = gv as usize;
        let mut ready = 0.0f64;
        for &u in g.preds(v) {
            let Some(gu) = gpu_of[u.index()] else {
                continue;
            };
            let fu = finish[u.index()];
            if fu.is_nan() {
                debug_assert!(false, "list_schedule order must be topological");
                continue;
            }
            let arrival = if gu as usize == gv {
                fu
            } else {
                fu + cost.transfer(u, gu as usize, gv)
            };
            ready = ready.max(arrival);
        }
        // Find the earliest gap on gv of length >= t(v) starting >= ready.
        let dur = cost.exec_on(gv, v);
        let intervals = &mut busy[gv];
        let (pos, s) = earliest_gap(intervals.iter().map(|&(bs, bf, _)| (bs, bf)), ready, dur);
        let f = s + dur;
        intervals.insert(pos, (s, f, v));
        start[v.index()] = s;
        finish[v.index()] = f;
        latency = latency.max(f);
    }
    let gpu_order: Vec<Vec<OpId>> = busy
        .into_iter()
        .map(|iv| iv.into_iter().map(|(_, _, v)| v).collect())
        .collect();
    ListScheduleResult {
        latency,
        start,
        finish,
        gpu_order,
    }
}

/// The reference gap scan: where an operator of length `dur`, ready at
/// `ready`, goes among the time-sorted busy `intervals` — the insertion
/// index and start of the earliest gap that fits it, or after the last
/// interval.
pub(crate) fn earliest_gap(
    intervals: impl IntoIterator<Item = (f64, f64)>,
    ready: f64,
    dur: f64,
) -> (usize, f64) {
    let mut s = ready;
    let mut len = 0;
    for (i, (bs, bf)) in intervals.into_iter().enumerate() {
        if s + dur <= bs + 1e-12 {
            return (i, s);
        }
        s = s.max(bf);
        len = i + 1;
    }
    (len, s)
}

/// Returns a copy of `sched` with stages `first..=last` on `gpu` merged
/// into a single concurrent stage (the reference window pass clones the
/// whole schedule per candidate; the optimized pass evaluates the merge
/// incrementally without materializing it).
pub fn merge_stages(sched: &Schedule, gpu: usize, first: usize, last: usize) -> Schedule {
    let mut out = sched.clone();
    let stages = &mut out.gpus[gpu].stages;
    let mut merged = Vec::new();
    for stage in stages.drain(first..=last) {
        merged.extend(stage.ops);
    }
    stages.insert(first, Stage::group(merged));
    out
}

/// Reference sliding-window pass (Alg. 2): clones the schedule and runs
/// a full evaluation for every candidate window.
///
/// # Panics
/// Panics when the input schedule is infeasible for `g`.
pub fn parallelize(g: &Graph, cost: &CostTable, sched: Schedule, window: usize) -> (Schedule, f64) {
    let mut current = sched;
    let mut latency = evaluate(g, cost, &current)
        .expect("parallelize() requires a feasible input schedule")
        .latency;
    if window < 2 || g.is_empty() {
        return (current, latency);
    }

    let order = crate::priority::priority_order(g, cost);
    for &v in &order {
        let place = current.placements(g.num_ops());
        let p = place[v.index()].expect("schedule covers every operator");
        if current.gpus[p.gpu].stages[p.stage].ops.len() > 1 {
            continue;
        }

        let mut best: Option<(Schedule, f64)> = None;
        let num_stages = current.gpus[p.gpu].stages.len();
        let mut covered = 1usize;
        let mut end = p.stage;
        while end + 1 < num_stages {
            end += 1;
            covered += current.gpus[p.gpu].stages[end].ops.len();
            if covered > window {
                break;
            }
            let candidate = merge_stages(&current, p.gpu, p.stage, end);
            if let Ok(r) = evaluate(g, cost, &candidate) {
                if r.latency < latency && best.as_ref().is_none_or(|(_, l)| r.latency < *l) {
                    best = Some((candidate, r.latency));
                }
            }
        }
        if let Some((sched, l)) = best {
            current = sched;
            latency = l;
        }
    }
    (current, latency)
}

/// Reference HIOS-LP (Alg. 1): every per-GPU path trial re-runs a full
/// list schedule from scratch, sequentially.
///
/// # Panics
/// Panics when `cfg.num_gpus == 0` or the cost table does not match `g`.
pub fn schedule_hios_lp(g: &Graph, cost: &CostTable, cfg: HiosLpConfig) -> LpOutcome {
    assert!(cfg.num_gpus >= 1, "need at least one GPU");
    assert_eq!(cost.num_ops(), g.num_ops(), "cost table mismatch");
    let n = g.num_ops();
    if n == 0 {
        return LpOutcome {
            schedule: Schedule::empty(cfg.num_gpus),
            latency: 0.0,
            gpu_of: Vec::new(),
            paths: Vec::new(),
        };
    }

    let prio = priorities(g, cost);
    let order = priority_order(g, &prio);
    let reverse_topo: Vec<OpId> = order.iter().rev().copied().collect();

    let mut scheduled = vec![false; n];
    let mut gpu_of: Vec<Option<u32>> = vec![None; n];
    let mut remaining = n;
    let mut paths = Vec::new();

    while remaining > 0 {
        let path = longest_valid_path(g, cost, &reverse_topo, &scheduled);
        debug_assert!(!path.is_empty());
        for &v in &path {
            scheduled[v.index()] = true;
        }
        remaining -= path.len();

        let mut best_latency = f64::INFINITY;
        let mut best_gpu = 0u32;
        for i in 0..cfg.num_gpus as u32 {
            for &v in &path {
                gpu_of[v.index()] = Some(i);
            }
            let r = list_schedule(g, cost, &order, &gpu_of, cfg.num_gpus);
            if r.latency < best_latency {
                best_latency = r.latency;
                best_gpu = i;
            }
        }
        for &v in &path {
            gpu_of[v.index()] = Some(best_gpu);
        }
        paths.push(path);
    }

    let final_run = list_schedule(g, cost, &order, &gpu_of, cfg.num_gpus);
    let schedule = Schedule::from_gpu_orders(final_run.gpu_order);
    let latency = evaluate(g, cost, &schedule)
        .expect("inter-GPU schedule is feasible by construction")
        .latency;
    let gpu_of: Vec<u32> = gpu_of.into_iter().map(|o| o.expect("all mapped")).collect();

    if cfg.intra {
        let (schedule, latency) = parallelize(g, cost, schedule, cfg.window);
        LpOutcome {
            schedule,
            latency,
            gpu_of,
            paths,
        }
    } else {
        LpOutcome {
            schedule,
            latency,
            gpu_of,
            paths,
        }
    }
}

/// Reference HIOS-MR (Alg. 3): O(i) schedule replay inside the innermost
/// `(j, k)` cell loop, sequentially.
///
/// # Panics
/// Panics when `cfg.num_gpus == 0` or the cost table does not match `g`.
pub fn schedule_hios_mr(g: &Graph, cost: &CostTable, cfg: HiosMrConfig) -> MrOutcome {
    assert!(cfg.num_gpus >= 1, "need at least one GPU");
    assert_eq!(cost.num_ops(), g.num_ops(), "cost table mismatch");
    let n = g.num_ops();
    let m = cfg.num_gpus;
    if n == 0 {
        return MrOutcome {
            schedule: Schedule::empty(m),
            latency: 0.0,
            gpu_of: Vec::new(),
        };
    }

    let order = crate::priority::priority_order(g, cost);
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }

    let mut t = vec![vec![f64::INFINITY; m]; n];
    let mut gprev = vec![vec![0usize; m]; n];
    t[0][0] = cost.exec_on(0, order[0]);

    let mut fin = vec![0.0f64; n];
    let mut gpu = vec![0usize; n];

    for i in 1..n {
        let vi = order[i];
        for j in 0..m.min(i + 1) {
            for k in 0..m.min(i) {
                if !t[i - 1][k].is_finite() {
                    continue;
                }
                let mut cur = k;
                for l in (0..i).rev() {
                    fin[l] = t[l][cur];
                    gpu[l] = cur;
                    cur = gprev[l][cur];
                }
                let mut ready = 0.0f64;
                for l in 0..i {
                    if gpu[l] == j {
                        ready = ready.max(fin[l]);
                    }
                }
                for &u in g.preds(vi) {
                    let l = pos[u.index()];
                    debug_assert!(l < i, "priority order is topological");
                    let arrival = if gpu[l] == j {
                        fin[l]
                    } else {
                        fin[l] + cost.transfer(u, gpu[l], j)
                    };
                    ready = ready.max(arrival);
                }
                let finish = ready + cost.exec_on(j, vi);
                if finish < t[i][j] {
                    t[i][j] = finish;
                    gprev[i][j] = k;
                }
            }
        }
    }

    let last = n - 1;
    let mut best_j = 0usize;
    for j in 1..m {
        if t[last][j] < t[last][best_j] {
            best_j = j;
        }
    }
    let mut gpu_of = vec![0u32; n];
    let mut cur = best_j;
    for i in (0..n).rev() {
        gpu_of[order[i].index()] = cur as u32;
        cur = gprev[i][cur];
    }

    let mut gpu_orders: Vec<Vec<OpId>> = vec![Vec::new(); m];
    for &v in &order {
        gpu_orders[gpu_of[v.index()] as usize].push(v);
    }
    let schedule = Schedule::from_gpu_orders(gpu_orders);
    let latency = evaluate(g, cost, &schedule)
        .expect("MR schedule is feasible by construction")
        .latency;

    if cfg.intra {
        let (schedule, latency) = parallelize(g, cost, schedule, cfg.window);
        MrOutcome {
            schedule,
            latency,
            gpu_of,
        }
    } else {
        MrOutcome {
            schedule,
            latency,
            gpu_of,
        }
    }
}
