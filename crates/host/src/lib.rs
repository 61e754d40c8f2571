//! Host-side runtime for the DP-HLS reproduction (paper §4 step 6):
//! batching work across the device's `NK` channels with host threads
//! ([`scheduler`]), streaming them through a bounded-memory pipeline
//! ([`streaming`], [`session`]), and aligning arbitrarily long reads on a
//! fixed-size device kernel with GACT-style tiling ([`tiling`]).
//!
//! # Entry points
//!
//! Eight run/spawn doors onto two engines. A single device, a fault-free
//! run and exact precision are degenerate *values* of the full doors'
//! arguments ([`FleetConfig::single`], [`ResilienceConfig::disabled`],
//! `None` for the [`FaultPlan`], an [`ExactEngine`]), not separate
//! functions. The engines themselves are two front ends onto one private
//! work-stealing pool (`pool.rs`: the deques, the idle rule, retry
//! re-deal, device-loss migration) running one private per-pair body
//! (`slot.rs`): the batch engine pre-fills the pool and starts it closed,
//! the streaming engine deals into it while its source is live — a batch
//! is a stream whose source has already ended.
//!
//! | Door | Role |
//! |------|------|
//! | [`run_batched`] | exact, abort-on-first-failure batch run |
//! | [`run_batched_engine`] | the full batch door: any [`PairEngine`], fleet, resilience, fault plan |
//! | [`run_batched_adaptive`] | [`run_batched_engine`] on a [`PrecisionEngine`] |
//! | [`run_streamed`] | exact, abort-on-first-failure stream into a sink |
//! | [`run_streamed_engine`] | the full stream door |
//! | [`run_streamed_adaptive`] | [`run_streamed_engine`] on a [`PrecisionEngine`] |
//! | [`StreamSession::spawn_engine`] | the one long-lived session constructor |
//! | [`StreamSession::spawn_adaptive`] | `spawn_engine` on a [`PrecisionEngine`] |
//!
//! # Example
//!
//! ```
//! use dphls_host::tiling::{tiled_global_affine, TilingConfig};
//! use dphls_kernels::AffineParams;
//! use dphls_seq::gen::ReadSimulator;
//!
//! // A 1,000-base read aligned on a 128-wide device kernel.
//! let mut sim = ReadSimulator::new(1);
//! let (reference, read) = sim.read_pair(1000, 0.1);
//! let params = AffineParams::<i32>::dna();
//! let cfg = TilingConfig { tile: 128, overlap: 32 };
//! let out = tiled_global_affine(read.as_slice(), reference.as_slice(), &params, cfg, 32)?;
//! assert_eq!(out.alignment.ref_span(), reference.len());
//! # Ok::<(), dphls_host::tiling::TilingError>(())
//! ```

// The host runtime is the outermost user-facing API; undocumented items are
// a build error, and CI keeps `cargo doc` warning-free.
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod engine;
pub mod faults;
pub mod fleet;
mod pool;
pub mod resilience;
pub mod scheduler;
pub mod session;
mod slot;
pub mod streaming;
pub mod tiling;

pub use engine::{
    AdaptiveEngine, ExactEngine, PairEngine, PairResult, PrecisionEngine, PrecisionScratch,
};
pub use faults::{injected_kernel_error, injected_panic_message, FaultKind, FaultPlan, Injection};
pub use fleet::FleetConfig;
pub use resilience::{panic_message, FailurePolicy, FaultCause, PairFault, ResilienceConfig};
pub use scheduler::{
    run_batched, run_batched_adaptive, run_batched_engine, BatchConfig, BatchError, BatchReport,
    ScheduleReport,
};
pub use session::{SessionClosed, StreamSession};
pub use streaming::{
    run_streamed, run_streamed_adaptive, run_streamed_engine, OrderedWriter, ReorderOverflow,
    StreamConfig, StreamError, StreamReport,
};
pub use tiling::{
    score_path_affine, tiled_global_affine, TiledAlignment, TilingConfig, TilingError,
};
