//! Parallel CPU execution engine for HIOS schedules.
//!
//! The paper's engine executes schedules with cuDNN kernels on real GPUs,
//! one MPI process per GPU, CUDA-aware MPI moving tensors over NVLink
//! (§VI-A).  This crate is the CPU analogue used to prove *functional
//! correctness* of schedules end to end:
//!
//! * [`tensor`] — dense f32 NCHW tensors;
//! * [`kernels`] — reference implementations of every [`hios_graph::OpKind`]
//!   (convolution parallelized with rayon, the guides' data-parallelism
//!   library);
//! * [`weights`] — deterministic random parameter initialization;
//! * [`mod@reference`] — single-threaded topological execution (ground truth);
//! * [`engine`] — one OS thread per virtual GPU executing its stage
//!   sequence, `std::sync::mpsc` channels standing in for NVLink transfers.
//!
//! Because both paths run the same kernels in the same per-element
//! accumulation order, a correct schedule reproduces the reference output
//! **bitwise** — the engine's integration tests assert exactly that.

#![warn(missing_docs)]

pub mod engine;
pub mod im2col;
pub mod kernels;
pub mod profiler;
pub mod reference;
pub mod tensor;
pub mod weights;

pub use engine::{EngineError, ExecutionReport, execute_schedule};
pub use reference::execute_reference;
pub use tensor::Tensor;
pub use weights::ModelWeights;
