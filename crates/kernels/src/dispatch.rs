//! Runtime kernel dispatch by name for the DNA/`i16` kernel family.
//!
//! The back-end is monomorphized per kernel ([`KernelSpec`] is not
//! object-safe by design, mirroring HLS elaboration), so a front end that
//! receives the kernel name at runtime — the `dphls-serve` wire protocol,
//! a CLI flag — cannot simply look a kernel "object" up in a table.
//! Instead, this module maps a stable snake_case name to a statically
//! typed instantiation and hands it to a caller-supplied
//! [`DnaKernelRunner`], the same visitor discipline as
//! [`crate::registry`] but keyed by name instead of Table 1 id, and
//! restricted to the kernels that share one symbol/score shape
//! (`Sym = `[`Base`]`, Score = i16`) so a single generic continuation can
//! serve every dispatchable kernel.
//!
//! Precision is not a second table: [`dispatch_dna`] is the one name →
//! type map, and whether the resolved kernel has an `i8` companion is which
//! runner method it calls (`run_adaptive` for the linear and affine
//! kernels, `run` for the two-piece ones). A runner that builds an
//! adaptive engine does so in `run_adaptive`; the exact fallback for the
//! two-piece kernels is its `run`.
//!
//! The non-DNA kernels (#8–#10, #14, #15) have per-kernel symbol types
//! (profile columns, complex samples, amino acids) and are deliberately
//! not dispatchable here; a front end for them would need a per-alphabet
//! wire encoding first.

use crate::affine::{BandedLocalAffine, GlobalAffine, LocalAffine};
use crate::linear::{BandedGlobalLinear, GlobalLinear, LocalLinear, Overlap, SemiGlobal};
use crate::params::{AffineParams, LinearParams, TwoPieceParams};
use crate::registry::DEFAULT_BAND;
use crate::two_piece::{BandedGlobalTwoPiece, GlobalTwoPiece};
use dphls_core::{AdaptiveKernel, KernelSpec, LaneKernel};
use dphls_seq::Base;

/// Stable wire/CLI names of every dispatchable kernel, in Table 1 order.
///
/// Each name resolves through [`dispatch_dna`]; the banded entries carry a
/// default band half-width via [`default_banding`].
pub const DISPATCHABLE_KERNELS: [&str; 10] = [
    "global_linear",
    "global_affine",
    "local_linear",
    "local_affine",
    "global_two_piece",
    "overlap",
    "semi_global",
    "banded_global_linear",
    "banded_local_affine",
    "banded_global_two_piece",
];

/// A generic continuation for [`dispatch_dna`]: a method is instantiated
/// with the statically-typed kernel the requested name resolves to, plus
/// that kernel's default DNA parameters.
///
/// The bound pins the shared shape of the dispatchable family
/// (`Sym = `[`Base`]`, Score = i16`), so implementations can move symbol
/// buffers and score values across a non-generic boundary (a wire
/// protocol, a type-erased session) without per-kernel plumbing.
///
/// The linear and affine kernels (8 of the 10 names) reach
/// [`run_adaptive`](Self::run_adaptive), with the stronger
/// [`AdaptiveKernel`] bound a saturating-`i8` fast path needs; the two
/// two-piece kernels, which have no `i8` narrowing, reach
/// [`run`](Self::run). A runner that does not care about precision
/// implements `run` alone: `run_adaptive` forwards to it by default.
pub trait DnaKernelRunner: Sized {
    /// Value returned through [`dispatch_dna`].
    type Out;

    /// Called with the resolved kernel type and its default parameters.
    ///
    /// The `'static` bound (trivially satisfied by every kernel type)
    /// lets implementations move the instantiation into long-lived
    /// machinery — a spawned engine session, a boxed closure.
    fn run<K>(self, params: K::Params) -> Self::Out
    where
        K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static;

    /// Called instead of [`run`](Self::run) when the resolved kernel has an
    /// `i8` companion ([`AdaptiveKernel`]).
    fn run_adaptive<K>(self, params: K::Params) -> Self::Out
    where
        K: AdaptiveKernel + KernelSpec<Sym = Base> + 'static,
    {
        self.run::<K>(params)
    }
}

/// Resolves `name` (an entry of [`DISPATCHABLE_KERNELS`]) and runs the
/// continuation with the matching kernel type and its default DNA
/// parameters — through [`DnaKernelRunner::run_adaptive`] for the linear
/// and affine kernels, [`DnaKernelRunner::run`] for the two-piece ones.
/// Returns `None` for unknown names — the caller owns the error surface
/// (e.g. an `unknown kernel` wire frame).
pub fn dispatch_dna<R: DnaKernelRunner>(name: &str, runner: R) -> Option<R::Out> {
    let linear = LinearParams::<i16>::dna;
    let affine = AffineParams::<i16>::dna;
    let two_piece = TwoPieceParams::<i16>::dna;
    Some(match name {
        "global_linear" => runner.run_adaptive::<GlobalLinear<i16>>(linear()),
        "global_affine" => runner.run_adaptive::<GlobalAffine<i16>>(affine()),
        "local_linear" => runner.run_adaptive::<LocalLinear<i16>>(linear()),
        "local_affine" => runner.run_adaptive::<LocalAffine<i16>>(affine()),
        "global_two_piece" => runner.run::<GlobalTwoPiece<i16>>(two_piece()),
        "overlap" => runner.run_adaptive::<Overlap<i16>>(linear()),
        "semi_global" => runner.run_adaptive::<SemiGlobal<i16>>(linear()),
        "banded_global_linear" => runner.run_adaptive::<BandedGlobalLinear<i16>>(linear()),
        "banded_local_affine" => runner.run_adaptive::<BandedLocalAffine<i16>>(affine()),
        "banded_global_two_piece" => runner.run::<BandedGlobalTwoPiece<i16>>(two_piece()),
        _ => return None,
    })
}

/// Default band half-width a front end should configure for `name`:
/// [`DEFAULT_BAND`] for the banded kernels (#11–#13), `None` for the
/// full-matrix ones. Unknown names return `None` — pair with
/// [`dispatch_dna`] for existence checks.
pub fn default_banding(name: &str) -> Option<usize> {
    match name {
        "banded_global_linear" | "banded_local_affine" | "banded_global_two_piece" => {
            Some(DEFAULT_BAND)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::{run_reference, Banding, KernelMeta};

    /// A runner that just reports the resolved kernel's metadata.
    struct MetaOf;
    impl DnaKernelRunner for MetaOf {
        type Out = KernelMeta;
        fn run<K>(self, _params: K::Params) -> KernelMeta
        where
            K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
        {
            K::meta()
        }
    }

    /// A runner that scores one pair through the reference engine, proving
    /// the dispatched parameters are usable without per-kernel plumbing.
    struct ScoreOne {
        q: Vec<Base>,
        r: Vec<Base>,
        banding: Banding,
    }
    impl DnaKernelRunner for ScoreOne {
        type Out = i16;
        fn run<K>(self, params: K::Params) -> i16
        where
            K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
        {
            run_reference::<K>(&params, &self.q, &self.r, self.banding).best_score
        }
    }

    #[test]
    fn every_listed_name_dispatches() {
        let mut ids = Vec::new();
        for name in DISPATCHABLE_KERNELS {
            let meta = dispatch_dna(name, MetaOf).unwrap_or_else(|| panic!("{name} dispatches"));
            ids.push(meta.id.0);
        }
        // Table 1 ids of the DNA/i16 family, in DISPATCHABLE_KERNELS order.
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7, 11, 12, 13]);
    }

    #[test]
    fn unknown_names_return_none() {
        for name in ["", "GLOBAL_LINEAR", "global-linear", "dtw", "protein_local"] {
            assert!(dispatch_dna(name, MetaOf).is_none(), "{name:?}");
        }
    }

    #[test]
    fn banding_defaults_cover_exactly_the_banded_family() {
        for name in DISPATCHABLE_KERNELS {
            let expect = name.starts_with("banded_");
            assert_eq!(default_banding(name).is_some(), expect, "{name}");
        }
        assert_eq!(default_banding("no_such_kernel"), None);
    }

    #[test]
    fn adaptive_family_is_the_linear_and_affine_kernels() {
        /// Reports which of the runner's two methods the name reached.
        struct Reached;
        impl DnaKernelRunner for Reached {
            type Out = bool;
            fn run<K>(self, _params: K::Params) -> bool
            where
                K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
            {
                false
            }
            fn run_adaptive<K>(self, _params: K::Params) -> bool
            where
                K: AdaptiveKernel + KernelSpec<Sym = Base> + 'static,
            {
                true
            }
        }
        let adaptive: Vec<_> = DISPATCHABLE_KERNELS
            .into_iter()
            .filter(|name| dispatch_dna(name, Reached).expect("listed names dispatch"))
            .collect();
        let expect: Vec<_> = DISPATCHABLE_KERNELS
            .into_iter()
            .filter(|name| !name.contains("two_piece"))
            .collect();
        assert_eq!(adaptive.len(), 8);
        assert_eq!(adaptive, expect);
        assert!(dispatch_dna("no_such_kernel", Reached).is_none());
    }

    #[test]
    fn adaptive_dispatch_narrows_default_dna_params() {
        /// Checks the dispatched kernel's default DNA parameters fit the
        /// `i8` envelope, and that the low-precision twin shares the hi
        /// kernel's Table 1 identity; `None` for a kernel without one.
        struct NarrowCheck;
        impl DnaKernelRunner for NarrowCheck {
            type Out = Option<bool>;
            fn run<K>(self, _params: K::Params) -> Option<bool>
            where
                K: LaneKernel + KernelSpec<Sym = Base, Score = i16> + 'static,
            {
                None
            }
            fn run_adaptive<K>(self, params: K::Params) -> Option<bool>
            where
                K: AdaptiveKernel + KernelSpec<Sym = Base> + 'static,
            {
                assert_eq!(K::Lo::meta().id, K::meta().id);
                assert_eq!(K::Lo::meta().objective, K::meta().objective);
                Some(K::lo_params(&params).is_some())
            }
        }
        for name in DISPATCHABLE_KERNELS {
            if let Some(narrowed) = dispatch_dna(name, NarrowCheck).flatten() {
                assert!(narrowed, "{name}: dna() params escape the i8 envelope");
            }
        }
    }

    #[test]
    fn dispatched_params_score_a_pair() {
        let mut sim = dphls_seq::gen::ReadSimulator::new(7);
        let (r, q) = sim.read_pair(48, 0.1);
        for name in DISPATCHABLE_KERNELS {
            let banding = match default_banding(name) {
                Some(half_width) => Banding::Fixed { half_width },
                None => Banding::None,
            };
            let score = dispatch_dna(
                name,
                ScoreOne {
                    q: q.clone().into_vec(),
                    r: r.clone().into_vec(),
                    banding,
                },
            )
            .unwrap_or_else(|| panic!("{name} dispatches"));
            // Near-identical 48-mers must align positively everywhere.
            assert!(score > 0, "{name} scored {score}");
        }
    }
}
