//! The DP-HLS **front-end**: everything a user touches to define a new 2-D DP
//! kernel, mirroring §4 of the paper.
//!
//! A kernel in DP-HLS is specified by six customization points (paper §4,
//! steps 1–6); this crate encodes them as the [`KernelSpec`] trait:
//!
//! 1. **Data types and parameters** — the symbol type (`char_t`), the score
//!    type [`Score`] (`type_t`), the number of scoring layers
//!    ([`kernel::KernelMeta::n_layers`], `N_LAYERS`), and an arbitrary
//!    `Params` struct (`ScoringParams`);
//! 2. **Row/column initialization** — [`KernelSpec::init_row`] /
//!    [`KernelSpec::init_col`] (`init_row_scr` / `init_col_scr`);
//! 3. **PE function** — [`KernelSpec::pe`] (`PE_func`): the recurrence for a
//!    single cell, given the `diag`/`up`/`left` neighbors and the local query
//!    and reference symbols;
//! 4. **Traceback strategy** — a start rule + FSM transition
//!    ([`KernelSpec::tb_step`], [`traceback::TracebackSpec`]);
//! 5. **Parallelism** — `(NPE, NB, NK)` in [`config::KernelConfig`]
//!    (consumed by the `dphls-systolic` back-end);
//! 6. **Host-side program** — `dphls-host`.
//!
//! The crate also contains the **reference engine** ([`mod@reference`]): a plain
//! full-matrix DP evaluator used both as the functional golden model for the
//! systolic back-end (the paper's C-simulation step) and as the basis of the
//! CPU baselines, and the **instrumentation** ([`instrument`]) that extracts
//! operator counts from a kernel's PE function for the FPGA resource model.

// Every public item of the front-end is API surface for kernel authors;
// undocumented items are a build error, and CI keeps `cargo doc` warning-free.
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
// Held by the compiler, not by review. `deny` rather than `forbid`, so the
// one intrinsics module ROADMAP item 2(i) foresees can opt in where it shows.
#![deny(unsafe_code)]

pub mod alignment;
pub mod config;
pub mod instrument;
pub mod kernel;
pub mod lanes;
pub mod reference;
pub mod score;
pub mod traceback;

pub use alignment::{Alignment, AlnOp};
pub use config::{Banding, KernelConfig};
pub use instrument::{CountingScore, OpCounts};
pub use kernel::{KernelId, KernelMeta, KernelSpec, LayerVec, Objective, SeqPair, MAX_LAYERS};
pub use lanes::{
    AdaptiveKernel, DifferenceForm, DifferenceRunner, I8Lanes, LaneKernel, LanePrecision,
    I8_LANES_NARROW, I8_LANES_WIDE, I8_PARAM_LIMIT, LANE_WIDTH,
};
pub use reference::{run_reference, run_reference_full, DpOutput};
pub use score::{Score, I8_GUARD_MAX, I8_GUARD_MIN};
pub use traceback::{BestCellRule, TbMove, TbPtr, TbState, TracebackSpec, WalkKind};
