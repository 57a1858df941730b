//! The five workloads.  Names are fixed: a later performance claim
//! names `<workload>/<metric>`.

pub mod fleet_failover;
pub mod plan_churn;
pub mod sched_offline;
pub mod serve_chaos;
pub mod serve_steady;

use crate::layers::Layers;
use crate::serving::SimStats;
use crate::span::Recorder;

/// What a traced repetition hands back.
pub struct Traced<T> {
    pub out: T,
    /// Per-layer counts and times of the traced repetition.
    pub layers: Layers,
    /// Wall clock of the traced repetition's timed part, seconds —
    /// compared with the fastest untraced repetition for the overhead.
    pub wall_s: f64,
}

pub trait Workload {
    const NAME: &'static str;
    /// Everything a repetition consumes, made from the seed alone.
    type Input;
    /// Everything a repetition produces.
    type Output;

    /// Builds the input.  Runs several times per invocation; must write
    /// only the set-up layer metrics (`graph.build_s`, …) into `layers`.
    fn setup(seed: u64, smoke: bool, layers: &mut Layers) -> Self::Input;

    /// Requests (or plans) one repetition handles: the numerator of
    /// `req_per_s`, and `attempted` in the result line.
    fn work(input: &Self::Input) -> usize;

    /// One timed repetition on fresh state.
    fn run(input: &Self::Input, rep: usize) -> Self::Output;

    /// Digest of the outcome stream; equal across repetitions.
    fn digest(out: &Self::Output) -> u64;

    /// Output checks and shape guards.  Pushes one line per failure and
    /// returns how many requests (plans) had a wrong or missing output.
    fn verify(
        input: &Self::Input,
        out: &Self::Output,
        smoke: bool,
        failures: &mut Vec<String>,
    ) -> usize;

    /// The simulated-time end-to-end metrics of one repetition.
    fn sim_stats(input: &Self::Input, out: &Self::Output) -> SimStats;

    /// One more repetition with spans around each call into a layer,
    /// plus the outside-in replay beneath single-call layers.
    fn trace(input: &Self::Input, rec: &mut Recorder) -> Traced<Self::Output>;
}
