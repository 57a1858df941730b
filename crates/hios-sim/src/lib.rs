//! Discrete-event execution simulator for HIOS schedules.
//!
//! The paper measures "actual inference latency" on a dual-A40 NVLink
//! server driven by a cuDNN/CUDA-aware-MPI engine (§VI).  Without GPUs we
//! substitute this crate: a discrete-event simulation of `M` GPUs
//! executing a [`hios_core::Schedule`] against a [`hios_cost::CostTable`],
//! modelling the effects the paper calls out:
//!
//! * **stage semantics** — either the paper's analytical stage-synchronous
//!   model (§III-A) or the *relaxed* behaviour of the real engine, where
//!   "if a part of these operators has ready input data, they may execute
//!   earlier in a practical system";
//! * **link serialization** — concurrent tensor transfers over the same
//!   directed NVLink share the bridge and queue up;
//! * **kernel-launch overhead** and the **cross-GPU launch gap** of the
//!   CUDA-aware-MPI implementation ("the succeeding CUDA kernel needs to
//!   be launched after inter-GPU data transfer completion", §VI-E) — the
//!   effect that makes HIOS-LP slightly lose to IOS on NASNet at small
//!   inputs in Fig. 13b.
//!
//! [`engine::simulate`] returns per-operator and per-transfer timelines;
//! [`gantt`] renders them as ASCII charts or CSV.

#![warn(missing_docs)]

pub mod clock;
pub mod drift;
pub mod engine;
pub mod fault;
pub mod gantt;
pub mod measure;
pub mod recover;
pub mod trace;

pub use clock::{EventQueue, VirtualClock};
pub use drift::{DRIFT_FACTOR_RANGE, DriftPlan, DriftPlanError, DriftTrace};
pub use engine::{
    REROUTE_FACTOR, Scaling, Semantics, SimConfig, SimError, SimResult, TransferRecord, simulate,
    simulate_scaled,
};
pub use fault::{
    ClusterFaultEvent, ClusterFaultKind, DomainKill, FailureDomain, FaultEvent, FaultKind,
    FaultPlan, FaultPlanError, FaultScript, FaultSignal, FlapSpec, host_domains,
    validate_cluster_events,
};
pub use measure::{MeasureConfig, Measurement, RecoveryMeasurement, measure, measure_recovery};
pub use recover::{
    RecoverError, RecoveryConfig, RecoveryResult, RepairAction, SimEvent, run_with_repair,
};
