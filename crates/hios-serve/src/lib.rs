//! Deadline-aware multi-tenant serving on top of the HIOS schedulers.
//!
//! The paper schedules one DAG for one latency number; a real inference
//! service schedules the *same* DAGs thousands of times under load,
//! deadlines, and hardware faults.  This crate closes that gap with a
//! deterministic serving loop over the `hios-sim` virtual cluster:
//!
//! * `workload` — seeded Poisson arrival traces across tenant models;
//! * `request` — typed requests, sheds, and failures (nothing panics,
//!   nothing hangs silently);
//! * [`server`] — the virtual-clock event loop: bounded admission queue
//!   with provable-bound load shedding, dispatch, fault handling,
//!   in-place repair, and recovery;
//! * `ladder` — the budget-bounded anytime scheduling ladder
//!   (cache → durable plan store → full HIOS-LP → inter-GPU LP →
//!   greedy) with idle-time upgrades and crash-safe warm starts;
//! * [`breaker`] — per-GPU circuit breakers (closed → open → half-open,
//!   exponential probe backoff) with flap detection that escalates
//!   quarantine for GPUs cycling fail/heal;
//! * `brownout` — the hysteresis overload controller: SLO priority
//!   classes degrade in stages (cap the ladder → shed Bronze → Gold
//!   only) instead of collapsing together;
//! * `retry` — exponential backoff with deterministic jitter, plus a
//!   server-global retry budget against retry storms;
//! * [`report`] — latency percentiles, miss/shed rates, per-class
//!   goodput, brownout timeline, and a history digest for bit-identity
//!   checks;
//! * [`fleet`] — N independent cluster serve loops behind a
//!   failure-aware router: per-tenant rendezvous hashing with
//!   power-of-two-choices ([`router`]), heartbeat-EWMA health tracking
//!   (`health`), cluster-kill failover with typed re-route / shed
//!   dispositions, hedged dispatch for deadline-critical Gold requests,
//!   and router-level backpressure.
//!
//! Everything runs on [`hios_sim::VirtualClock`]; scheduling time is
//! modeled, never measured.  A serving run is a pure function of its
//! inputs: replaying `(models, trace, faults, config)` reproduces every
//! latency bit-for-bit on any machine at any thread count.

#![warn(missing_docs, unreachable_pub)]

pub mod breaker;
mod brownout;
pub mod fleet;
mod health;
mod ladder;
mod lru;
pub mod report;
mod request;
mod retry;
pub mod router;
pub mod server;
mod workload;

pub use breaker::{BreakerBank, BreakerState, CircuitBreaker};
pub use brownout::{BrownoutTelemetry, OverloadConfig};
pub use fleet::{
    FailoverReason, FleetConfig, FleetDisposition, FleetFaults, FleetOutcome, FleetRecord,
    FleetReport, FleetShedReason, serve_fleet,
};
pub use health::{ClusterHealth, HealthConfig, HealthSample, HealthView};
pub use ladder::{AnytimeLadder, LadderConfig, LadderDecision, Policy, Rung};
pub use report::{ClassStats, ServeReport, history_digest, summarize};
pub use request::{Disposition, PriorityClass, Request, RequestRecord, ServeError, ShedReason};
pub use router::{Choice, Router, RouterConfig, RouterPolicy};
pub use server::{ServeConfig, ServeOutcome, ServedModel, StoreConfig, serve, serve_drift};
pub use workload::{
    ClassMix, WorkloadConfig, generate_trace, generate_trace_with_classes, trace_span_ms,
};
