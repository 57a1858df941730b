//! The HIOS hierarchical inter-operator schedulers (paper §IV).
//!
//! Given a computation graph (`hios-graph`) and a cost snapshot
//! (`hios-cost`), the schedulers here produce a [`Schedule`]: for each of
//! `M` homogeneous GPUs, an ordered list of *stages*, each a set of
//! independent operators launched concurrently on that GPU (paper §III-A).
//!
//! Algorithms:
//!
//! * [`seq`] — sequential baseline (one GPU, one operator at a time);
//! * [`ios`] — the IOS single-GPU dynamic program with pruning
//!   (Ding et al., MLSys'21), the paper's main baseline;
//! * [`lp`] — HIOS-LP inter-GPU phase: iterative longest-valid-path
//!   extraction and greedy GPU mapping (Alg. 1);
//! * [`window`] — intra-GPU sliding-window parallelization shared by
//!   HIOS-LP and HIOS-MR (Alg. 2, `parallelize()`);
//! * [`mr`] — HIOS-MR: mapping-record dynamic program (Alg. 3);
//! * [`api`] — one enum to run any of the six evaluated configurations.
//!
//! The latency semantics live in [`eval`]: the stage-synchronous
//! upper-bound model of §III-A (operators of a stage start together; a
//! cross-GPU dependency delays the consumer *stage* by the transfer time)
//! plus the priority-ordered list scheduler used inside Alg. 1 and Alg. 3.
//! Both run on a reusable, allocation-free evaluation engine
//! ([`eval::EvalWorkspace`], [`eval::ListState`]) whose fast paths are
//! differential-tested against the pre-optimization implementations kept
//! in [`reference`].
//!
//! With the `rayon` feature (on by default) the candidate trials of
//! Alg. 1 and Alg. 3 fan out to a thread pool on large instances;
//! results are bit-identical at any thread count.  The evaluation core is
//! data-oriented — dense `u32` indices over flat structure-of-arrays
//! buffers ([`dense::DenseContext`], the CSR stage graph inside
//! [`eval::EvalWorkspace`]) — written as plain fixed-stride loops the
//! compiler can autovectorize.

#![warn(missing_docs)]

pub mod api;
pub mod bitset;
pub mod bounds;
pub mod cache;
pub mod dense;
pub mod eval;
pub mod exact;
pub mod ios;
pub mod lp;
pub mod mr;
mod par;
pub mod priority;
pub mod reference;
pub mod repair;
pub mod schedule;
pub mod seq;
pub mod window;

pub use api::{
    Algorithm, SchedBudget, ScheduleOutcome, SchedulerError, SchedulerOptions,
    modeled_sched_cost_ms, run_scheduler, run_scheduler_with,
};
pub use cache::{ScheduleCache, ScheduleCacheKey, graph_fingerprint};
pub use dense::{DenseContext, NO_GPU};
pub use eval::{
    EvalError, EvalResult, EvalWorkspace, ListState, evaluate, evaluate_with, list_schedule,
};
pub use repair::{
    RepairConfig, RepairError, RepairOutcome, RepairPolicy, SubgraphMap, alive_slots,
    extract_unfinished, greedy_schedule, project_cost, repair_schedule,
};
pub use schedule::{
    GpuSchedule, SCHEDULE_FORMAT_VERSION, Schedule, ScheduleCodecError, ScheduleError, Stage,
};

#[cfg(test)]
pub(crate) mod fixtures;
