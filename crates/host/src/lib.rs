//! Host-side runtime for the DP-HLS reproduction (paper §4 step 6):
//! batching work across the device's `NK` channels with host threads
//! ([`scheduler`]), streaming them through a bounded-memory pipeline
//! ([`streaming`], [`session`]), and aligning arbitrarily long reads on a
//! fixed-size device kernel with GACT-style tiling ([`tiling`]).
//!
//! # Entry points
//!
//! Three full doors, [`run_batched_engine`], [`run_streamed_engine`] and
//! [`StreamSession::spawn_engine`], each generic over one [`PairEngine`].
//! A single device, a fault-free run and exact precision are degenerate
//! *values* of their arguments ([`FleetConfig::single`],
//! [`ResilienceConfig::disabled`], `None` for the [`FaultPlan`],
//! [`LanePrecision::Exact`](dphls_core::LanePrecision)), not separate
//! functions. Two engines implement [`PairEngine`]: [`ExactEngine`] for any
//! lane kernel, and [`PrecisionEngine`] for a kernel with an `i8` companion
//! at a run-time precision value (its `Exact` value runs what
//! [`ExactEngine`] runs). Every door runs one private work-stealing pool
//! (`pool.rs`: the deques, the idle rule, retry re-deal, device-loss
//! migration) over one private per-pair body (`slot.rs`): the batch door
//! pre-fills the pool and starts it closed, the streaming door deals into
//! it while its source is live — a batch is a stream whose source has
//! already ended. Both batch doors return one [`BatchReport`]. The stream
//! door emits through one [`OrderedWindow`] (`window.rs`), the ordered edge
//! the mapper's stream (`dphls_mapper::map_streamed`) shares.
//!
//! | Door | Role |
//! |------|------|
//! | [`run_batched_engine`] | the full batch door: any [`PairEngine`], fleet, resilience, fault plan |
//! | [`run_streamed_engine`] | the full stream door |
//! | [`StreamSession::spawn_engine`] | the one long-lived session constructor |
//! | [`run_batched`] | [`run_batched_engine`] on an [`ExactEngine`], abort on first failure: the batch twin of [`run_streamed`] |
//! | [`run_streamed`] | [`run_streamed_engine`] on an [`ExactEngine`], abort on first failure, into a sink |
//! | [`run_batched_adaptive`] | [`run_batched_engine`] on a [`PrecisionEngine`] |
//! | [`run_streamed_adaptive`] | [`run_streamed_engine`] on a [`PrecisionEngine`] |
//! | [`StreamSession::spawn_adaptive`] | `spawn_engine` on a [`PrecisionEngine`] |
//!
//! The last five are one-line forwards. [`run_streamed`] and the three
//! `*_adaptive` doors stay only because the standalone benchmark package
//! (`benchmark/src`) names them; [`run_batched`] stays as
//! [`run_streamed`]'s batch twin. Once that package moves onto the full
//! doors, the `*_adaptive` doors are pure deletions (ROADMAP item 12).
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
pub mod window;

pub use engine::{ExactEngine, PairEngine, PairResult, PrecisionEngine};
pub use faults::{injected_kernel_error, injected_panic_message, FaultKind, FaultPlan, Injection};
pub use fleet::FleetConfig;
pub use resilience::{panic_message, FailurePolicy, FaultCause, PairFault, ResilienceConfig};
pub use scheduler::{
    run_batched, run_batched_adaptive, run_batched_engine, BatchConfig, BatchError, BatchReport,
};
pub use session::{SessionClosed, StreamSession};
pub use streaming::{
    run_streamed, run_streamed_adaptive, run_streamed_engine, OrderedWriter, ReorderOverflow,
    StreamConfig, StreamError, StreamReport,
};
pub use tiling::{
    score_path_affine, tiled_global_affine, TiledAlignment, TilingConfig, TilingError,
};
pub use window::{OrderedWindow, Refused};
