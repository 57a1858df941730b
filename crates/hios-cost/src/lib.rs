//! Cost substrate for the HIOS scheduler reproduction.
//!
//! The scheduling problem (paper §III-B) is *given* three cost functions:
//! `t(v)` — execution time of an operator alone on one GPU, `t(S)` — total
//! time of a set of independent operators running concurrently on one GPU,
//! and `t(u, v)` — data-transfer time between operators on different GPUs.
//! The paper obtains them by profiling cuDNN kernels on real A40 GPUs; this
//! crate substitutes three interchangeable sources:
//!
//! * [`AnalyticCostModel`] — a roofline + SM-occupancy model over
//!   published GPU specs ([`GpuSpec`]) and interconnects ([`LinkSpec`],
//!   [`Platform`]), used for the "real system" experiments (paper §VI) on
//!   virtual dual-A40 hardware;
//! * [`random_cost_table`] — the randomized costs of the simulation study
//!   (§V-A);
//! * [`CostTable`] — the materialized per-graph cost snapshot all
//!   schedulers consume, also usable as a profiled-table model loaded from
//!   JSON (mirroring IOS's profile-then-schedule workflow).
//!
//! The concurrency model that turns per-operator SM utilizations into
//! `t(S)` — reproducing the paper's Fig. 1 contention/under-utilization
//! crossover — lives in [`ConcurrencyParams`].

#![warn(missing_docs, unreachable_pub)]

mod analytic;
mod gpu;
mod interconnect;
mod random;
mod table;
mod topology;
pub mod uncertainty;

pub use analytic::{AnalyticCostModel, platform_table};
pub use gpu::GpuSpec;
pub use interconnect::{LinkSpec, Platform, PlatformError};
pub use random::{RandomCostConfig, random_cost_table};
pub use table::{ConcurrencyParams, CostTable, DeviceCosts};
pub use topology::{NO_LINK, Topology};
pub use uncertainty::{
    CalibratedTable, CalibrationConfig, Calibrator, DriftAlarm, DriftDirection, ObservationError,
};
