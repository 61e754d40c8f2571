//! The DP-HLS **back-end**: a cycle-level model of the hardware template the
//! HLS flow generates (paper §5) — a linear systolic array of `NPE`
//! processing elements with wavefront pipelining, partitioned score buffers,
//! a preserved-row buffer between chunks, banked+coalesced traceback memory,
//! per-PE best tracking with a reduction tree, and `NB`-block / `NK`-channel
//! parallelism behind per-channel arbiters.
//!
//! Two things come out of a run:
//!
//! 1. the **functional result** — bit-identical to the reference engine
//!    (`dphls_core::run_reference`), which stands in for the paper's
//!    C-simulation and co-simulation checks, and
//! 2. the **cycle count** — per-phase accounting of the schedule the paper
//!    describes (sequential load → init → fill → reduce → traceback →
//!    writeback in DP-HLS; load/init overlapped in the RTL baselines),
//!    which is what throughput figures are derived from.
//!
//! # Example
//!
//! ```
//! use dphls_systolic::run_systolic_ok;
//! use dphls_core::{run_reference, Banding, KernelConfig};
//! use dphls_kernels::{LocalLinear, LinearParams};
//! use dphls_seq::DnaSeq;
//!
//! let q: DnaSeq = "CCCGATTACACCC".parse()?;
//! let r: DnaSeq = "TTGATTACATT".parse()?;
//! let params = LinearParams::<i16>::dna();
//! let config = KernelConfig::new(4, 1, 1).with_max_lengths(16, 16);
//! let hw = run_systolic_ok::<LocalLinear>(&params, q.as_slice(), r.as_slice(), &config);
//! let sw = run_reference::<LocalLinear>(&params, q.as_slice(), r.as_slice(), Banding::None);
//! assert_eq!(hw.output, sw); // the back-end is functionally exact
//! # Ok::<(), dphls_seq::ParseSeqError>(())
//! ```

// The back-end is the contract the host and bench layers program against;
// undocumented items are a build error, and CI keeps `cargo doc` warning-free.
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
// Held by the compiler, not by review. `deny` rather than `forbid`, so the
// one intrinsics module ROADMAP item 2(i) foresees can opt in where it shows.
#![deny(unsafe_code)]

pub mod adaptive;
pub mod block;
pub mod cycles;
pub mod device;
pub mod group;
mod tbmem;
pub mod xdrop;

// The difference-form gate's rows, shared with the integration test that
// holds them to the reference engine; the engine's own test asserts which
// path each row takes.
#[cfg(test)]
#[path = "../tests/common/gate_rows.rs"]
mod gate_rows;

pub use adaptive::{
    run_adaptive, run_adaptive_group_with_scratch, run_adaptive_with_scratch, AdaptiveScratch,
};
pub use block::{
    run_systolic, run_systolic_ok, run_systolic_scalar_with_scratch, run_systolic_with_scratch,
    BlockStats, SystolicError, SystolicRun, SystolicScratch,
};
pub use cycles::{
    alignment_cycles, arbitrated_cycles, effective_cycles_per_alignment, fleet_cycles,
    throughput_aps, transfer_bytes, CycleBreakdown, CycleModelParams, KernelCycleInfo,
    TransferModel,
};
pub use device::{Device, DeviceReport};
pub use group::{
    group_cells_max, run_exact_group_with_scratch, run_group_with_scratch, ExactScratch,
    GroupScratch, PairRef,
};
pub use xdrop::{run_xdrop, XDropConfig, XDropRun};
