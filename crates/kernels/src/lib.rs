//! The 15 bioinformatics 2-D DP kernels of the paper's Table 1, expressed
//! through the DP-HLS front-end ([`dphls_core::KernelSpec`]).
//!
//! | # | Kernel | Type |
//! |---|--------|------|
//! | 1 | Global Linear (Needleman-Wunsch) | [`GlobalLinear`] |
//! | 2 | Global Affine (Gotoh) | [`GlobalAffine`] |
//! | 3 | Local Linear (Smith-Waterman) | [`LocalLinear`] |
//! | 4 | Local Affine (Smith-Waterman-Gotoh) | [`LocalAffine`] |
//! | 5 | Global Two-piece Affine | [`GlobalTwoPiece`] |
//! | 6 | Overlap | [`Overlap`] |
//! | 7 | Semi-global | [`SemiGlobal`] |
//! | 8 | Profile Alignment | [`ProfileAlign`] |
//! | 9 | Dynamic Time Warping | [`Dtw`] |
//! | 10 | Viterbi (PairHMM) | [`Viterbi`] |
//! | 11 | Banded Global Linear | [`BandedGlobalLinear`] |
//! | 12 | Banded Local Affine | [`BandedLocalAffine`] |
//! | 13 | Banded Global Two-piece Affine | [`BandedGlobalTwoPiece`] |
//! | 14 | Semi-global DTW (sDTW) | [`Sdtw`] |
//! | 15 | Protein Local Linear (BLOSUM62) | [`ProteinLocal`] |
//!
//! Each kernel is generic over its score type, so the same recurrence runs
//! with production types (`i16`, `ApFixed`, …) and with the instrumented
//! [`dphls_core::CountingScore`] used by the resource model. The
//! [`registry`] module enumerates all 15 with default parameters, paper
//! configurations, and representative workloads.
//!
//! # Example
//!
//! ```
//! use dphls_core::{run_reference, Banding};
//! use dphls_kernels::{GlobalLinear, LinearParams};
//! use dphls_seq::DnaSeq;
//!
//! let q: DnaSeq = "ACGTACGT".parse()?;
//! let r: DnaSeq = "ACGAACGT".parse()?;
//! let params = LinearParams::<i16>::dna();
//! let out = run_reference::<GlobalLinear>(&params, q.as_slice(), r.as_slice(), Banding::None);
//! assert!(out.best_score > 0);
//! println!("{}", out.alignment.unwrap().cigar());
//! # Ok::<(), dphls_seq::ParseSeqError>(())
//! ```

// DP scoring matrices are naturally index-addressed; the range-loop lint
// fights the domain idiom here.
#![allow(clippy::needless_range_loop)]
// Held by the compiler, not by review. `deny` rather than `forbid`, so the
// one module that calls into run-time-detected `#[target_feature]` code
// (`isa`, ROADMAP item 2(i)) can opt in where it shows.
#![deny(unsafe_code)]

pub mod affine;
pub mod dispatch;
pub mod dtw;
mod isa;
#[cfg(test)]
mod lane_check;
pub mod linear;
pub mod params;
pub mod profile;
pub mod protein;
pub mod registry;
pub mod two_piece;
pub mod viterbi;

pub use affine::{BandedLocalAffine, GlobalAffine, LocalAffine};
pub use dispatch::{default_banding, dispatch_dna, DnaKernelRunner, DISPATCHABLE_KERNELS};
pub use dtw::{Dtw, DtwScore, Sdtw};
pub use linear::{BandedGlobalLinear, GlobalLinear, LocalLinear, Overlap, SemiGlobal};
pub use params::{
    AffineParams, LinearParams, NoParams, ProfileParams, ProteinParams, ToCounting, TwoPieceParams,
    ViterbiParams, BLOSUM62,
};
pub use profile::ProfileAlign;
pub use protein::ProteinLocal;
pub use registry::{
    visit_all, visit_kernel, CaseInfo, KernelVisitor, PaperTable2, WorkloadSpec, ALL_KERNEL_IDS,
};
pub use two_piece::{BandedGlobalTwoPiece, GlobalTwoPiece};
pub use viterbi::{Viterbi, ViterbiScore};
