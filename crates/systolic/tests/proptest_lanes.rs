//! Property-based verification of the multi-lane wavefront engine: for
//! every kernel family with a vectorized lane port — the linear NW/SW group
//! (chunked `pe_lanes_primary`), the affine group and the two-piece group
//! (whole-wavefront `pe_wavefront` over three and five layer planes) — the
//! laned engine must be **bit-identical** to the forced scalar engine across
//! random sequences, band widths (including the degenerate `half_width` 0/1
//! bands), NPE shapes, and scoring-parameter scale factors. Identity covers
//! scores, best cells, the full traceback path, and the structural
//! statistics the cycle model consumes. (Kernels on the default ports are
//! held to the reference engine, through the same lane loop, by
//! `differential.rs`.)
//!
//! The suite doubles as the **cross-precision differential** check: for
//! every [`AdaptiveKernel`] the saturating-`i8` adaptive driver — at both
//! the 16- and 32-lane widths — must be bit-identical to the exact `i16`
//! engine, whether a given pair stays on the fast path or escalates. The
//! inputs deliberately include pairs on both sides of the guard.

use dphls_core::{
    run_reference_full, AdaptiveKernel, Banding, I8Lanes, KernelConfig, KernelSpec, LaneKernel,
    Score, I8_PARAM_LIMIT,
};
use dphls_kernels::{
    AffineParams, BandedGlobalLinear, BandedGlobalTwoPiece, BandedLocalAffine, GlobalAffine,
    GlobalLinear, GlobalTwoPiece, LinearParams, LocalAffine, LocalLinear, Overlap, SemiGlobal,
    TwoPieceParams,
};
use dphls_seq::Base;
use dphls_systolic::{
    run_adaptive_with_scratch, run_systolic_scalar_with_scratch, run_systolic_with_scratch,
    AdaptiveScratch, SystolicScratch,
};
use proptest::prelude::*;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
    proptest::collection::vec((0u8..4).prop_map(Base::from_code), 1..max_len)
}

/// Runs one pair through both engines and asserts full-output identity.
fn assert_lanes_match_scalar<K: LaneKernel>(
    params: &K::Params,
    q: &[K::Sym],
    r: &[K::Sym],
    npe: usize,
    banding: Banding,
    ctx: &str,
) {
    let max = q.len().max(r.len());
    let cfg = KernelConfig {
        banding,
        ..KernelConfig::new(npe.min(q.len()), 1, 1).with_max_lengths(max, max)
    };
    let mut s1 = SystolicScratch::new();
    let mut s2 = SystolicScratch::new();
    let scalar = run_systolic_scalar_with_scratch::<K>(params, q, r, &cfg, &mut s1).unwrap();
    let laned = run_systolic_with_scratch::<K>(params, q, r, &cfg, &mut s2).unwrap();
    // Scores, best cell, and the complete traceback walk...
    assert_eq!(laned.output, scalar.output, "output diverged ({ctx})");
    // ...and the alignment explicitly (so a future DpOutput field can't
    // silently drop the path from the comparison).
    assert_eq!(
        laned.output.alignment, scalar.output.alignment,
        "traceback path diverged ({ctx})"
    );
    // Structural stats feed the cycle model; they must not drift either.
    assert_eq!(laned.stats, scalar.stats, "stats diverged ({ctx})");
}

/// Runs one pair through the exact `i16` engine and the adaptive `i8`
/// driver at both lane widths, asserting full bit-identity — scores, best
/// cell, traceback path, and stats (the escalation counter aside, every
/// stat is geometry-driven and must not depend on the precision taken).
fn assert_adaptive_matches_exact<K: AdaptiveKernel>(
    params: &K::Params,
    q: &[K::Sym],
    r: &[K::Sym],
    npe: usize,
    banding: Banding,
    ctx: &str,
) {
    let max = q.len().max(r.len());
    let cfg = KernelConfig {
        banding,
        ..KernelConfig::new(npe.min(q.len()), 1, 1).with_max_lengths(max, max)
    };
    let mut hs = SystolicScratch::new();
    let exact = run_systolic_with_scratch::<K>(params, q, r, &cfg, &mut hs).unwrap();
    let lo = K::lo_params(params);
    assert!(lo.is_some(), "params escape the i8 envelope ({ctx})");
    for lanes in [I8Lanes::X16, I8Lanes::X32] {
        let mut scratch = AdaptiveScratch::new();
        let got =
            run_adaptive_with_scratch::<K>(params, lo.as_ref(), lanes, q, r, &cfg, &mut scratch)
                .unwrap();
        assert_eq!(
            got.output, exact.output,
            "adaptive output diverged ({ctx}, {lanes:?})"
        );
        assert_eq!(
            got.output.alignment, exact.output.alignment,
            "adaptive traceback diverged ({ctx}, {lanes:?})"
        );
        let mut stats = got.stats;
        assert!(stats.escalations <= 1, "({ctx}, {lanes:?})");
        stats.escalations = 0;
        assert_eq!(
            stats, exact.stats,
            "adaptive stats diverged ({ctx}, {lanes:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NW family (global linear), random bands incl. degenerate 0/1 widths,
    /// random parameter scale factors.
    #[test]
    fn laned_matches_scalar_global_linear(
        q in dna(56),
        r in dna(56),
        npe in 1usize..17,
        hw in (0usize..25).prop_map(|v| (v < 24).then_some(v)),
        scale in 1i16..5,
    ) {
        let p = LinearParams::<i16> {
            match_score: 2 * scale,
            mismatch: -3 * scale,
            gap: -2 * scale,
        };
        let banding = match hw {
            Some(half_width) => Banding::Fixed { half_width },
            None => Banding::None,
        };
        assert_lanes_match_scalar::<GlobalLinear>(
            &p, &q, &r, npe, banding, &format!("NW npe={npe} hw={hw:?} scale={scale}"),
        );
    }

    /// SW family (local linear): AllCells tracking exercises the per-lane
    /// offer path and END-pointer ties of the clamp-zero recurrence.
    #[test]
    fn laned_matches_scalar_local_linear(
        q in dna(48),
        r in dna(48),
        npe in 1usize..13,
        hw in (0usize..17).prop_map(|v| (v < 16).then_some(v)),
        scale in 1i16..4,
    ) {
        let p = LinearParams::<i16> {
            match_score: 2 * scale,
            mismatch: -scale,
            gap: -scale,
        };
        let banding = match hw {
            Some(half_width) => Banding::Fixed { half_width },
            None => Banding::None,
        };
        assert_lanes_match_scalar::<LocalLinear<i16>>(
            &p, &q, &r, npe, banding, &format!("SW npe={npe} hw={hw:?} scale={scale}"),
        );
    }

    /// Semi-global (LastRow rule) rides the linear lane kernel but takes
    /// the specialized last-row offer path.
    #[test]
    fn laned_matches_scalar_semi_global(
        q in dna(40),
        r in dna(48),
        npe in 1usize..9,
    ) {
        let p = LinearParams::<i16>::dna();
        assert_lanes_match_scalar::<SemiGlobal<i16>>(
            &p, &q, &r, npe, Banding::None, &format!("semi-global npe={npe}"),
        );
    }

    /// Affine family (three layers, gap-open flags in the pointer bits).
    #[test]
    fn laned_matches_scalar_affine(
        q in dna(48),
        r in dna(48),
        npe in 1usize..13,
        hw in (0usize..17).prop_map(|v| (v < 16).then_some(v)),
        scale in 1i16..4,
        local in (0u8..2).prop_map(|b| b == 1),
    ) {
        let p = AffineParams::<i16> {
            match_score: 2 * scale,
            mismatch: -4 * scale,
            gap_open: -4 * scale,
            gap_extend: -scale,
        };
        let banding = match hw {
            Some(half_width) => Banding::Fixed { half_width },
            None => Banding::None,
        };
        let ctx = format!("affine npe={npe} hw={hw:?} scale={scale} local={local}");
        if local {
            assert_lanes_match_scalar::<LocalAffine<i16>>(&p, &q, &r, npe, banding, &ctx);
        } else {
            assert_lanes_match_scalar::<GlobalAffine<i16>>(&p, &q, &r, npe, banding, &ctx);
        }
    }

    /// Two-piece family (five layers, a 3-bit source index and four open
    /// flags in the pointer): full-matrix #5 and banded #13, down to the
    /// degenerate bands where every lane is PE 0 or the `j = 1` cell.
    #[test]
    fn laned_matches_scalar_two_piece(
        q in dna(36),
        r in dna(36),
        npe in 1usize..9,
        hw in (0usize..13).prop_map(|v| (v < 12).then_some(v)),
    ) {
        let p = TwoPieceParams::<i16>::dna();
        let ctx = format!("two-piece npe={npe} hw={hw:?}");
        match hw {
            Some(half_width) => assert_lanes_match_scalar::<BandedGlobalTwoPiece<i16>>(
                &p, &q, &r, npe, Banding::Fixed { half_width }, &ctx,
            ),
            None => assert_lanes_match_scalar::<GlobalTwoPiece<i16>>(
                &p, &q, &r, npe, Banding::None, &ctx,
            ),
        }
    }

    /// Cross-precision differential, linear family: every linear adaptive
    /// kernel at both i8 lane widths vs the exact i16 engine. Sequence
    /// lengths up to 56 with gap penalties up to -8/base put plenty of
    /// pairs on both sides of the escalation guard.
    #[test]
    fn adaptive_matches_exact_linear_family(
        q in dna(56),
        r in dna(56),
        npe in 1usize..17,
        hw in (0usize..25).prop_map(|v| (v < 24).then_some(v)),
        scale in 1i16..5,
        kernel in 0usize..4,
    ) {
        let p = LinearParams::<i16> {
            match_score: 2 * scale,
            mismatch: -3 * scale,
            gap: -2 * scale,
        };
        let banding = match hw {
            Some(half_width) => Banding::Fixed { half_width },
            None => Banding::None,
        };
        let ctx = format!("linear[{kernel}] npe={npe} hw={hw:?} scale={scale}");
        match kernel {
            0 => assert_adaptive_matches_exact::<GlobalLinear>(&p, &q, &r, npe, banding, &ctx),
            1 => assert_adaptive_matches_exact::<LocalLinear<i16>>(&p, &q, &r, npe, banding, &ctx),
            2 => assert_adaptive_matches_exact::<Overlap<i16>>(&p, &q, &r, npe, banding, &ctx),
            _ => assert_adaptive_matches_exact::<SemiGlobal<i16>>(&p, &q, &r, npe, banding, &ctx),
        }
    }

    /// Cross-precision differential, affine family (three interacting
    /// layers, all scanned by the guard).
    #[test]
    fn adaptive_matches_exact_affine_family(
        q in dna(48),
        r in dna(48),
        npe in 1usize..13,
        hw in (0usize..17).prop_map(|v| (v < 16).then_some(v)),
        scale in 1i16..4,
        local in (0u8..2).prop_map(|b| b == 1),
    ) {
        let p = AffineParams::<i16> {
            match_score: 2 * scale,
            mismatch: -4 * scale,
            gap_open: -4 * scale,
            gap_extend: -scale,
        };
        let banding = match hw {
            Some(half_width) => Banding::Fixed { half_width },
            None => Banding::None,
        };
        let ctx = format!("affine npe={npe} hw={hw:?} scale={scale} local={local}");
        if local {
            assert_adaptive_matches_exact::<LocalAffine<i16>>(&p, &q, &r, npe, banding, &ctx);
        } else {
            assert_adaptive_matches_exact::<GlobalAffine<i16>>(&p, &q, &r, npe, banding, &ctx);
        }
    }

    /// Cross-precision differential, dedicated banded kernels (#11, #12):
    /// the band geometry must survive narrowing untouched.
    #[test]
    fn adaptive_matches_exact_banded_family(
        q in dna(48),
        r in dna(48),
        npe in 1usize..13,
        hw in 0usize..13,
        affine in (0u8..2).prop_map(|b| b == 1),
    ) {
        let banding = Banding::Fixed { half_width: hw };
        let ctx = format!("banded npe={npe} hw={hw} affine={affine}");
        if affine {
            let p = AffineParams::<i16>::dna();
            assert_adaptive_matches_exact::<BandedLocalAffine<i16>>(&p, &q, &r, npe, banding, &ctx);
        } else {
            let p = LinearParams::<i16>::dna();
            assert_adaptive_matches_exact::<BandedGlobalLinear<i16>>(&p, &q, &r, npe, banding, &ctx);
        }
    }
}

#[test]
fn degenerate_bands_and_lane_boundaries_deterministic() {
    // half_width 0 (diagonal only, empty off-parity wavefronts), 1 (the
    // narrowest contiguous band), and lengths straddling LANE_WIDTH
    // multiples exercise every peel/tail combination of the chunk loop.
    let p = LinearParams::<i16>::dna();
    let base: Vec<Base> = "ACGTACGTACGTACGTACGTACGTACGTACGTACGT"
        .parse::<dphls_seq::DnaSeq>()
        .unwrap()
        .into_vec();
    for &len in &[2usize, 7, 8, 9, 15, 16, 17, 25, 33, 36] {
        let q = &base[..len];
        let r = &base[..len.max(2) - 1];
        for hw in [0usize, 1, 2, 7, 8] {
            for npe in [1usize, 3, 8, 16] {
                let cfg = KernelConfig::new(npe.min(len), 1, 1)
                    .with_max_lengths(64, 64)
                    .with_banding(hw);
                let mut s1 = SystolicScratch::new();
                let mut s2 = SystolicScratch::new();
                let scalar =
                    run_systolic_scalar_with_scratch::<GlobalLinear>(&p, q, r, &cfg, &mut s1)
                        .unwrap();
                let laned =
                    run_systolic_with_scratch::<GlobalLinear>(&p, q, r, &cfg, &mut s2).unwrap();
                assert_eq!(laned.output, scalar.output, "len={len} hw={hw} npe={npe}");
                assert_eq!(laned.stats, scalar.stats, "len={len} hw={hw} npe={npe}");
            }
        }
    }
}

/// Partial-lane tail regression: when a wavefront chunk is shorter than
/// the lane width (`m = LANES.min(n - off)` in `block.rs`), the unused
/// trailing lanes must never offer tracker candidates or traceback
/// pointers. Band half-widths are chosen so the chunk lengths `2*hw + 1`
/// straddle every lane width in play — 8 (exact engine), 16 and 32 (the
/// `i8` fast path) — and the kernels use all-cells tracking, where one
/// spurious offer from a garbage lane would flip the best cell or the
/// walk. Exercised against both the forced-scalar engine and the adaptive
/// driver at both `i8` widths.
#[test]
fn partial_lane_tails_never_leak_candidates() {
    let mut sim = dphls_seq::gen::ReadSimulator::new(0x7A11);
    let (r, q) = sim.read_pair(72, 0.15);
    let (q, r) = (q.into_vec(), r.into_vec());
    // 2*hw + 1 = 7, 9, 15, 17, 31, 33: one below and one above each width.
    for &hw in &[3usize, 4, 7, 8, 15, 16] {
        let banding = Banding::Fixed { half_width: hw };
        for &npe in &[1usize, 8, 16, 32] {
            let ctx = format!("tail hw={hw} npe={npe}");
            let p = LinearParams::<i16>::dna();
            assert_lanes_match_scalar::<LocalLinear<i16>>(&p, &q, &r, npe, banding, &ctx);
            assert_adaptive_matches_exact::<LocalLinear<i16>>(&p, &q, &r, npe, banding, &ctx);
            let pa = AffineParams::<i16>::dna();
            assert_lanes_match_scalar::<BandedLocalAffine<i16>>(&pa, &q, &r, npe, banding, &ctx);
            assert_adaptive_matches_exact::<BandedLocalAffine<i16>>(
                &pa, &q, &r, npe, banding, &ctx,
            );
        }
    }
}

#[test]
fn laned_engine_shares_scratch_with_scalar_runs() {
    // One arena alternating between the two modes: neither may leak state
    // into the other (the arena re-initialization contract).
    let p = AffineParams::<i16>::dna();
    let q: Vec<Base> = [Base::A, Base::C, Base::G, Base::T].repeat(6);
    let r: Vec<Base> = [Base::T, Base::C, Base::G, Base::A].repeat(5);
    let cfg = KernelConfig::new(8, 1, 1)
        .with_max_lengths(32, 32)
        .with_banding(5);
    let mut shared = SystolicScratch::new();
    let mut fresh = SystolicScratch::new();
    for round in 0..4 {
        let want =
            run_systolic_scalar_with_scratch::<GlobalAffine<i16>>(&p, &q, &r, &cfg, &mut fresh)
                .unwrap();
        let scalar =
            run_systolic_scalar_with_scratch::<GlobalAffine<i16>>(&p, &q, &r, &cfg, &mut shared)
                .unwrap();
        let laned =
            run_systolic_with_scratch::<GlobalAffine<i16>>(&p, &q, &r, &cfg, &mut shared).unwrap();
        assert_eq!(scalar.output, want.output, "round {round}");
        assert_eq!(laned.output, want.output, "round {round}");
    }
}

/// One affine kernel's `i8` and `i16` matrices over `pairs` under
/// `banding`: where no computed cell of the narrow matrix has its H, I or D
/// value inside the guard band, the two must agree cell for cell (all three
/// layers) and pointer for pointer. Returns how many runs were clean.
fn clean_narrow_affine_equals_wide<Lo, Hi>(
    lo: &AffineParams<i8>,
    pairs: &[(Vec<Base>, Vec<Base>)],
    banding: Banding,
) -> usize
where
    Lo: KernelSpec<Sym = Base, Score = i8, Params = AffineParams<i8>>,
    Hi: KernelSpec<Sym = Base, Score = i16, Params = AffineParams<i16>>,
{
    let hi = AffineParams::<i16> {
        match_score: lo.match_score.into(),
        mismatch: lo.mismatch.into(),
        gap_open: lo.gap_open.into(),
        gap_extend: lo.gap_extend.into(),
    };
    let mut clean = 0;
    for (q, r) in pairs {
        let (_, narrow) = run_reference_full::<Lo>(lo, q, r, banding);
        let (_, wide) = run_reference_full::<Hi>(&hi, q, r, banding);
        let cells = (1..=q.len())
            .flat_map(|i| (1..=r.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| banding.contains(i, j));
        let dirty = |(i, j): (usize, usize)| {
            narrow
                .cell(i, j)
                .as_slice()
                .iter()
                .any(|s| s.needs_escalation())
        };
        if cells.clone().any(dirty) {
            continue;
        }
        clean += 1;
        for (i, j) in cells {
            let widened: Vec<i16> = narrow
                .cell(i, j)
                .as_slice()
                .iter()
                .map(|&s| s.into())
                .collect();
            assert_eq!(
                (widened.as_slice(), narrow.tb(i, j)),
                (wide.cell(i, j).as_slice(), wide.tb(i, j)),
                "cell ({i}, {j}) of {q:?} x {r:?} under {lo:?} {banding:?}"
            );
        }
    }
    clean
}

/// ROADMAP 7(c), affine half: the guard argument for `AffineParams<i8>`,
/// closed by enumeration as `proptest_grouped` closes it for the linear
/// family. For every 4th value of each of match, mismatch, gap-open and
/// gap-extend across `±I8_PARAM_LIMIT` (both ends included, signs the
/// kernels were never meant for too; every 8th in debug builds), on a fixed
/// adversarial set of small pairs, global and local, unbanded and under the
/// two narrowest bands: a narrow run with no computed cell's H, I or D in
/// the guard band equals the `i16` run.
#[test]
fn a_clean_narrow_affine_run_is_exact_for_every_admissible_parameter_set() {
    let dna = |s: &str| -> Vec<Base> { s.parse::<dphls_seq::DnaSeq>().unwrap().into_vec() };
    // All matches (the upper rail), all mismatches (the lower one), gaps on
    // either side, a repeat that offers ties, and a lone cell.
    let pairs: Vec<(Vec<Base>, Vec<Base>)> = [
        ("AAAAAA", "AAAAAA"),
        ("AAAAAA", "CCCCC"),
        ("ACGTAC", "ACTAC"),
        ("ACAC", "ACACAC"),
        ("GATTACA", "GCATGCT"),
        ("A", "C"),
    ]
    .iter()
    .map(|(q, r)| (dna(q), dna(r)))
    .collect();
    let limit = i8::try_from(I8_PARAM_LIMIT).unwrap();
    let step = if cfg!(debug_assertions) { 8 } else { 4 };
    let values = || (-limit..=limit).step_by(step);
    let bandings = [
        Banding::None,
        Banding::Fixed { half_width: 0 },
        Banding::Fixed { half_width: 1 },
    ];
    let (mut clean, mut total) = (0usize, 0usize);
    for match_score in values() {
        for mismatch in values() {
            for gap_open in values() {
                for gap_extend in values() {
                    let lo = AffineParams::<i8> {
                        match_score,
                        mismatch,
                        gap_open,
                        gap_extend,
                    };
                    for banding in bandings {
                        clean += clean_narrow_affine_equals_wide::<GlobalAffine<i8>, GlobalAffine>(
                            &lo, &pairs, banding,
                        );
                        clean += clean_narrow_affine_equals_wide::<LocalAffine<i8>, LocalAffine>(
                            &lo, &pairs, banding,
                        );
                        total += 2 * pairs.len();
                    }
                }
            }
        }
    }
    // The enumeration must land on both sides of the guard to mean anything.
    assert!(
        clean > total / 20 && clean < total,
        "{clean} clean of {total}"
    );
}
