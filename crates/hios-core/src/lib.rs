//! The HIOS hierarchical inter-operator schedulers (paper §IV).
//!
//! Given a computation graph (`hios-graph`) and a cost snapshot
//! (`hios-cost`), the schedulers here produce a [`Schedule`]: for each of
//! `M` homogeneous GPUs, an ordered list of *stages*, each a set of
//! independent operators launched concurrently on that GPU (paper §III-A).
//!
//! Algorithms:
//!
//! * [`Algorithm::Sequential`] — sequential baseline (one GPU, one
//!   operator at a time);
//! * [`ios`] — the IOS single-GPU dynamic program with pruning
//!   (Ding et al., MLSys'21), the paper's main baseline;
//! * [`lp`] — HIOS-LP inter-GPU phase: iterative longest-valid-path
//!   extraction and greedy GPU mapping (Alg. 1);
//! * [`window`] — intra-GPU sliding-window parallelization shared by
//!   HIOS-LP and HIOS-MR (Alg. 2, `parallelize()`);
//! * [`mr`] — HIOS-MR: mapping-record dynamic program (Alg. 3);
//! * [`run_scheduler`] — one [`Algorithm`] enum to run any of the six
//!   evaluated configurations.
//!
//! The latency semantics live in [`eval`]: the stage-synchronous
//! upper-bound model of §III-A (operators of a stage start together; a
//! cross-GPU dependency delays the consumer *stage* by the transfer time).
//! The priority-ordered list scheduler used inside Alg. 1 and Alg. 3
//! lives in [`list`].  Both run on reusable, allocation-free state
//! ([`eval::EvalWorkspace`] and the list scheduler's state) whose fast
//! paths are differential-tested against the pre-optimization
//! implementations kept in [`reference`](mod@reference).
//!
//! The candidate trials of Alg. 1 and Alg. 3 run sequentially, each a
//! plain argmin with the paper's lowest-GPU-index tie-break.  The
//! evaluation core is data-oriented — dense `u32` indices over flat structure-of-arrays
//! buffers (the dense scheduling context, the CSR stage graph inside
//! [`eval::EvalWorkspace`]) — written as plain fixed-stride loops the
//! compiler can autovectorize.

#![warn(missing_docs, unreachable_pub)]

mod api;
mod bitset;
pub mod bounds;
mod cache;
mod dense;
pub mod eval;
pub mod exact;
pub mod ios;
pub mod list;
pub mod lp;
pub mod mr;
pub mod priority;
pub mod reference;
pub mod repair;
pub mod schedule;
mod seq;
pub mod window;

pub use api::{
    Algorithm, SchedBudget, ScheduleOutcome, SchedulerError, SchedulerOptions,
    modeled_sched_cost_ms, run_scheduler, run_scheduler_with,
};
pub use cache::{ScheduleCacheKey, graph_fingerprint};
pub use eval::{EvalError, EvalResult, EvalWorkspace, evaluate, evaluate_with};
pub use repair::{
    RepairConfig, RepairError, RepairOutcome, RepairPolicy, SubgraphMap, alive_slots,
    extract_unfinished, greedy_schedule, project_cost, repair_schedule,
};
pub use schedule::{GpuSchedule, Schedule, ScheduleCodecError, ScheduleError, Stage};

#[cfg(test)]
mod fixtures;
