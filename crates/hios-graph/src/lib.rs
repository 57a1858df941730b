//! Computation-graph substrate for the HIOS scheduler reproduction.
//!
//! A deep-learning model is a directed acyclic graph `G = (V, E)` where each
//! vertex is an operator (convolution, pooling, concat, ...) and each edge is
//! a tensor dependency (paper §III-A).  This crate provides:
//!
//! * typed operators with FLOP/byte accounting ([`OpKind`], [`TensorShape`]),
//! * a validated DAG with O(1) predecessor/successor access ([`Graph`]),
//! * topological orders and weighted longest-path machinery used by the
//!   priority indicators of HIOS-LP/HIOS-MR ([`topo`], [`paths`]),
//! * the random layered-DAG generator of the paper's simulation study
//!   (§V-A) ([`generate_layered_dag`]),
//! * DOT and JSON export ([`dot`], [`json`]),
//! * the one hasher behind every persisted fingerprint, digest and
//!   checksum of the stack ([`hash`]).
//!
//! The scheduling algorithms themselves live in `hios-core`; execution-time
//! cost models live in `hios-cost`.

#![warn(missing_docs, unreachable_pub)]

pub mod dot;
mod generate;
mod graph;
pub mod hash;
mod id;
pub mod json;
mod op;
pub mod paths;
mod shape;
pub mod topo;

pub use generate::{GenerateError, LayeredDagConfig, generate_layered_dag};
pub use graph::{Graph, GraphBuilder, GraphError, Node};
pub use id::OpId;
pub use op::{Activation, OpKind, PoolKind};
pub use shape::TensorShape;
