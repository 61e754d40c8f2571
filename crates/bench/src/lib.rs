//! The DP-HLS experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6–§7) against the reproduction's models.
//!
//! * [`harness`] — erased per-kernel runners built from the kernel registry;
//! * [`experiments`] — one module per table/figure (Table 2, Figs 3–6,
//!   §7.5, the tiling study, the ablations, and the §7.6 productivity
//!   proxy).
//!
//! Run everything with `cargo run -p dphls-bench --bin all_experiments`, or
//! a single experiment with e.g. `cargo run -p dphls-bench --bin table2`.

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{collect_cases, default_workload, profile_of, KernelCase, RunSummary};
