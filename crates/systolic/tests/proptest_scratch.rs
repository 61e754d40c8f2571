//! Property-based verification of the scratch-reuse hot path: a single
//! [`SystolicScratch`] recycled across random kernels, geometries, band
//! widths, and shrinking-then-growing sequence sizes must be bit-identical
//! to a fresh [`run_systolic`] on every alignment.

use dphls_core::{Banding, KernelConfig};
use dphls_kernels::{
    AffineParams, GlobalAffine, GlobalLinear, GlobalTwoPiece, LinearParams, LocalLinear, NoParams,
    Sdtw, TwoPieceParams,
};
use dphls_seq::Base;
use dphls_systolic::{
    run_systolic, run_systolic_scalar_with_scratch, run_systolic_with_scratch, SystolicScratch,
};
use proptest::prelude::*;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
    proptest::collection::vec((0u8..4).prop_map(Base::from_code), 1..max_len)
}

fn signal(max_len: usize) -> impl Strategy<Value = Vec<i16>> {
    proptest::collection::vec(0i16..1024, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn scratch_reuse_matches_fresh_linear(
        pairs in proptest::collection::vec((dna(40), dna(40)), 1..6),
        npe in 1usize..9,
    ) {
        let p = LinearParams::<i16>::dna();
        let mut scratch = SystolicScratch::new();
        for (q, r) in &pairs {
            let max = q.len().max(r.len());
            let cfg = KernelConfig::new(npe.min(q.len()), 1, 1).with_max_lengths(max, max);
            let fresh = run_systolic::<GlobalLinear>(&p, q, r, &cfg).unwrap();
            let reused =
                run_systolic_with_scratch::<GlobalLinear>(&p, q, r, &cfg, &mut scratch).unwrap();
            prop_assert_eq!(reused.output, fresh.output);
            prop_assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_banded_affine(
        pairs in proptest::collection::vec((dna(36), dna(36)), 1..5),
        npe in 1usize..8,
        hw_band in 0usize..20,
    ) {
        let p = AffineParams::<i16>::dna();
        let mut scratch = SystolicScratch::new();
        for (q, r) in &pairs {
            let max = q.len().max(r.len());
            let cfg = KernelConfig {
                banding: Banding::Fixed { half_width: hw_band },
                ..KernelConfig::new(npe.min(q.len()), 1, 1).with_max_lengths(max, max)
            };
            let fresh = run_systolic::<GlobalAffine<i16>>(&p, q, r, &cfg).unwrap();
            let reused = run_systolic_with_scratch::<GlobalAffine<i16>>(
                &p, q, r, &cfg, &mut scratch,
            ).unwrap();
            prop_assert_eq!(reused.output, fresh.output);
            prop_assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn scratch_survives_kernel_and_objective_switches(
        q in dna(32),
        r in dna(32),
        sq in signal(24),
        sr in signal(32),
        npe in 1usize..6,
    ) {
        // Same arena, alternating a maximize kernel (local linear) with a
        // minimize kernel (sDTW): tracker objectives and layer counts must
        // fully re-initialize between runs.
        let lp = LinearParams::<i16>::dna();
        let mut scratch_i16 = SystolicScratch::new();
        let max = q.len().max(r.len());
        let cfg = KernelConfig::new(npe.min(q.len()), 1, 1).with_max_lengths(max, max);
        let smax = sq.len().max(sr.len());
        let scfg = KernelConfig::new(npe.min(sq.len()), 1, 1).with_max_lengths(smax, smax);
        let mut scratch_i32 = SystolicScratch::new();
        for _ in 0..3 {
            let fresh = run_systolic::<LocalLinear<i16>>(&lp, &q, &r, &cfg).unwrap();
            let reused = run_systolic_with_scratch::<LocalLinear<i16>>(
                &lp, &q, &r, &cfg, &mut scratch_i16,
            ).unwrap();
            prop_assert_eq!(reused.output, fresh.output);

            let fresh = run_systolic::<Sdtw<i32>>(&NoParams, &sq, &sr, &scfg).unwrap();
            let reused = run_systolic_with_scratch::<Sdtw<i32>>(
                &NoParams, &sq, &sr, &scfg, &mut scratch_i32,
            ).unwrap();
            prop_assert_eq!(reused.output, fresh.output);
        }
    }

    #[test]
    fn scratch_survives_storage_shape_switches(
        q in dna(40),
        r in dna(40),
        npe in 1usize..9,
        hw in 1usize..12,
    ) {
        // One `i16` arena under a worker that alternates a single-layer, a
        // three-layer and a five-layer kernel — all three share the lane
        // mode's planes, whose plane count and stride change from one run
        // to the next — with the scalar mode (layer-vector cells), over
        // shrinking and growing prefixes of the pair: the shared trackers,
        // traceback memory and reversed reference and both buffer sets must
        // come back pristine every time.
        let lp = LinearParams::<i16>::dna();
        let ap = AffineParams::<i16>::dna();
        let tp = TwoPieceParams::<i16>::dna();
        let mut scratch = SystolicScratch::new();
        let (ql, rl) = (q.len(), r.len());
        for (ql, rl) in [(ql, rl), (ql.div_ceil(3), rl.div_ceil(2)), (ql, 1), (1, rl), (ql, rl)] {
            let (q, r) = (&q[..ql], &r[..rl]);
            let max = ql.max(rl);
            let full = KernelConfig::new(npe.min(ql), 1, 1).with_max_lengths(max, max);
            let banded = KernelConfig::new(npe.min(rl), 1, 1)
                .with_max_lengths(max, max)
                .with_banding(hw);

            let fresh = run_systolic::<GlobalLinear>(&lp, q, r, &full).unwrap();
            let one_plane = run_systolic_with_scratch::<GlobalLinear>(
                &lp, q, r, &full, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&one_plane, &fresh);

            let fresh = run_systolic::<GlobalAffine<i16>>(&ap, r, q, &banded).unwrap();
            let three_planes = run_systolic_with_scratch::<GlobalAffine<i16>>(
                &ap, r, q, &banded, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&three_planes, &fresh);

            let fresh = run_systolic::<GlobalTwoPiece<i16>>(&tp, q, r, &full).unwrap();
            let five_planes = run_systolic_with_scratch::<GlobalTwoPiece<i16>>(
                &tp, q, r, &full, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&five_planes, &fresh);

            let fresh = run_systolic::<LocalLinear<i16>>(&lp, r, q, &banded).unwrap();
            let scalar = run_systolic_scalar_with_scratch::<LocalLinear<i16>>(
                &lp, r, q, &banded, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&scalar, &fresh);
        }
    }
}

#[test]
fn scratch_shrinks_then_grows() {
    // Deterministic shrink-grow-shrink ladder: the arena must resize both
    // directions without leaking state between sizes.
    let p = LinearParams::<i16>::dna();
    let mut scratch = SystolicScratch::new();
    let base: Vec<Base> = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"
        .parse::<dphls_seq::DnaSeq>()
        .unwrap()
        .into_vec();
    for &len in &[44usize, 7, 31, 2, 44, 13] {
        let q = &base[..len];
        let r = &base[..len.div_ceil(2) + 1];
        for npe in [1usize, 3, 8] {
            let cfg = KernelConfig::new(npe.min(len), 1, 1).with_max_lengths(64, 64);
            let fresh = run_systolic::<GlobalLinear>(&p, q, r, &cfg).unwrap();
            let reused =
                run_systolic_with_scratch::<GlobalLinear>(&p, q, r, &cfg, &mut scratch).unwrap();
            assert_eq!(reused.output, fresh.output, "len={len} npe={npe}");
            assert_eq!(reused.stats, fresh.stats, "len={len} npe={npe}");
        }
    }
}

#[test]
fn scratch_rejects_bad_inputs_without_poisoning() {
    // An error run must leave the scratch usable for the next alignment.
    let p = LinearParams::<i16>::dna();
    let mut scratch = SystolicScratch::new();
    let q: Vec<Base> = vec![Base::A; 8];
    let cfg = KernelConfig::new(2, 1, 1).with_max_lengths(8, 8);
    assert!(run_systolic_with_scratch::<GlobalLinear>(&p, &q, &[], &cfg, &mut scratch).is_err());
    let long = vec![Base::C; 99];
    assert!(run_systolic_with_scratch::<GlobalLinear>(&p, &long, &q, &cfg, &mut scratch).is_err());
    let ok = run_systolic_with_scratch::<GlobalLinear>(&p, &q, &q, &cfg, &mut scratch).unwrap();
    let fresh = run_systolic::<GlobalLinear>(&p, &q, &q, &cfg).unwrap();
    assert_eq!(ok.output, fresh.output);
}
