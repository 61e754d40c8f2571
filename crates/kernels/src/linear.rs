//! Linear-gap-penalty kernels: Global Linear / Needleman-Wunsch (#1),
//! Local Linear / Smith-Waterman (#3), Overlap (#6), Semi-global (#7), and
//! Banded Global Linear (#11).
//!
//! These five kernels share one PE recurrence (paper Fig 1, top-left) and
//! differ only in initialization, traceback strategy, and banding — exactly
//! the "Modifications in DP-HLS" column of Table 1.

use crate::params::LinearParams;
use dphls_core::score::argmax;
use dphls_core::{
    AdaptiveKernel, KernelId, KernelMeta, KernelSpec, LaneKernel, LayerVec, Objective, Score,
    TbMove, TbPtr, TbState, TracebackSpec,
};
use dphls_seq::Base;
use std::marker::PhantomData;

/// Shared PE recurrence for the linear family: one layer, three candidates.
/// `clamp_zero` adds the Smith-Waterman `max(…, 0)` with an `END` pointer
/// (paper Listing 6).
fn linear_pe<S: Score>(
    p: &LinearParams<S>,
    q: Base,
    r: Base,
    diag: &LayerVec<S>,
    up: &LayerVec<S>,
    left: &LayerVec<S>,
    clamp_zero: bool,
) -> (LayerVec<S>, TbPtr) {
    let sub = p.substitution(q == r);
    let mat = diag.primary().add(sub);
    let del = up.primary().add(p.gap);
    let ins = left.primary().add(p.gap);
    let (best, ptr) = if clamp_zero {
        argmax([
            (S::zero(), TbPtr::END),
            (mat, TbPtr::DIAG),
            (del, TbPtr::UP),
            (ins, TbPtr::LEFT),
        ])
    } else {
        argmax([(mat, TbPtr::DIAG), (del, TbPtr::UP), (ins, TbPtr::LEFT)])
    };
    (LayerVec::splat(1, best), ptr)
}

/// The linear family's lane select core: `W` cells in structure-of-arrays
/// form, stated once for both lane ports. Bit-identical to [`linear_pe`] —
/// the candidate order and strict-improvement tie-breaks replicate [`argmax`]
/// exactly — but laid out as one branch-free pass over `[S; W]` arrays so the
/// saturating adds and compare/selects vectorize (the `i16` kernels at
/// `W = 8` compile to `vpaddsw`/`vpcmpgtw`/blend chains; the `i8` fast path
/// instantiates `W = 16`/`32` over the byte-wide equivalents). `sub` is each
/// lane's substitution score; how the lanes' symbols are laid out — down an
/// anti-diagonal, or one cell of `W` different pairs — is the calling port's
/// business.
#[inline(always)]
fn linear_select<S: Score, const W: usize>(
    p: &LinearParams<S>,
    sub: &[S; W],
    d: &[S; W],
    u: &[S; W],
    l: &[S; W],
    clamp_zero: bool,
) -> ([S; W], [u8; W]) {
    // Fixed-trip-count arithmetic and selection: same reduction as
    // argmax([(0, END)?, (mat, DIAG), (del, UP), (ins, LEFT)]) — later
    // candidates win only if strictly greater — expressed as branchless
    // compare/select chains over whole arrays.
    let zero = S::zero();
    let mut best = [zero; W];
    let mut dir = [0u8; W];
    for t in 0..W {
        let mat = d[t].add(sub[t]);
        let del = u[t].add(p.gap);
        let ins = l[t].add(p.gap);
        let (mut b, mut dr) = if clamp_zero {
            let (b, won) = zero.max_with(mat);
            (b, if won { TbPtr::DIAG.0 } else { TbPtr::END.0 })
        } else {
            (mat, TbPtr::DIAG.0)
        };
        let (m, won) = b.max_with(del);
        b = m;
        dr = if won { TbPtr::UP.0 } else { dr };
        let (m, won) = b.max_with(ins);
        b = m;
        dr = if won { TbPtr::LEFT.0 } else { dr };
        best[t] = b;
        dir[t] = dr;
    }
    (best, dir)
}

/// Chunked port of [`linear_select`] for the wavefront engine's single-layer
/// structure-of-arrays storage: `n ≤ W` lanes down one anti-diagonal, the
/// reference in memory order (lane `t` reads `r_rev[n − 1 − t]`). The
/// neighbor and output streams are plain score slices, so the gathers and
/// scatters are contiguous `copy_from_slice` vector moves into arrays padded
/// to `W` (the dead tail lanes compute garbage — saturating ops, no side
/// effects — that is never written back or consulted), and the saturation
/// guard is fused in — one branchless OR-reduction over the real lanes of
/// `best` while it is still in registers (free for exact score types, whose
/// `needs_escalation` is constant `false`).
#[allow(clippy::too_many_arguments)]
fn linear_pe_lanes_primary<S: Score, const W: usize>(
    p: &LinearParams<S>,
    q: &[Base],
    r_rev: &[Base],
    diag: &[S],
    up: &[S],
    left: &[S],
    out: &mut [S],
    ptrs: &mut [TbPtr],
    clamp_zero: bool,
) -> bool {
    let n = q.len();
    debug_assert!((1..=W).contains(&n));
    // One up-front narrowing per slice so the loop below carries no
    // per-element bounds checks.
    let (q, r_rev) = (&q[..n], &r_rev[..n]);
    let mut sub = [S::zero(); W];
    for t in 0..n {
        sub[t] = p.substitution(q[t] == r_rev[n - 1 - t]);
    }
    let (mut d, mut u, mut l) = ([S::zero(); W], [S::zero(); W], [S::zero(); W]);
    d[..n].copy_from_slice(&diag[..n]);
    u[..n].copy_from_slice(&up[..n]);
    l[..n].copy_from_slice(&left[..n]);
    let (best, dir) = linear_select(p, &sub, &d, &u, &l, clamp_zero);
    let mut escalate = false;
    for t in 0..n {
        escalate |= best[t].needs_escalation();
    }
    out[..n].copy_from_slice(&best[..n]);
    for t in 0..n {
        ptrs[t] = TbPtr(dir[t]);
    }
    escalate
}

/// Full-width forward port of [`linear_select`] for the grouped engine: `W`
/// independent cells, one per pair of a group, symbols read forward. Every
/// loop has the constant trip count `W`, so the whole cell — compare, three
/// saturating adds, the select chain — is straight-line vector code with no
/// remainder and no copy.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn linear_pe_group<S: Score, const W: usize>(
    p: &LinearParams<S>,
    q: &[Base; W],
    r: &[Base; W],
    diag: &[S; W],
    up: &[S; W],
    left: &[S; W],
    out: &mut [S; W],
    ptrs: &mut [TbPtr; W],
    clamp_zero: bool,
) {
    // The two scores in locals: selected through `p`, the compare becomes an
    // index into the parameter struct — a scalar load per lane.
    let (matched, mismatched) = (p.match_score, p.mismatch);
    let mut sub = [S::zero(); W];
    for t in 0..W {
        sub[t] = if q[t] == r[t] { matched } else { mismatched };
    }
    let (best, dir) = linear_select(p, &sub, diag, up, left, clamp_zero);
    *out = best;
    for t in 0..W {
        ptrs[t] = TbPtr(dir[t]);
    }
}

/// Shared single-state traceback FSM (paper Listing 7).
fn linear_tb(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
    let mv = match ptr.direction() {
        TbPtr::DIAG => TbMove::Diag,
        TbPtr::UP => TbMove::Up,
        TbPtr::LEFT => TbMove::Left,
        _ => TbMove::Stop,
    };
    (state, mv)
}

/// Boundary scores that accumulate the gap penalty (`j × gap`), paper
/// Listing 4.
fn gap_ramp<S: Score>(gap: S, k: usize) -> LayerVec<S> {
    LayerVec::splat(1, S::from_f64(gap.to_f64() * k as f64))
}

/// Zero boundary (local / overlap / semi-global free ends).
fn zero_init<S: Score>() -> LayerVec<S> {
    LayerVec::splat(1, S::zero())
}

macro_rules! linear_kernel {
    (
        $(#[$doc:meta])*
        $name:ident, id: $id:expr, kname: $kname:expr,
        clamp: $clamp:expr, tb: $tbspec:expr,
        init_row: $init_row:expr, init_col: $init_col:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name<S = i16>(PhantomData<S>);

        impl<S: Score> KernelSpec for $name<S> {
            type Sym = Base;
            type Score = S;
            type Params = LinearParams<S>;

            fn meta() -> KernelMeta {
                KernelMeta {
                    id: KernelId($id),
                    name: $kname,
                    n_layers: 1,
                    tb_bits: 2,
                    objective: Objective::Maximize,
                    traceback: $tbspec,
                }
            }

            #[inline]
            fn init_row(params: &Self::Params, j: usize) -> LayerVec<S> {
                let f: fn(&LinearParams<S>, usize) -> LayerVec<S> = $init_row;
                f(params, j)
            }

            #[inline]
            fn init_col(params: &Self::Params, i: usize) -> LayerVec<S> {
                let f: fn(&LinearParams<S>, usize) -> LayerVec<S> = $init_col;
                f(params, i)
            }

            #[inline]
            fn pe(
                params: &Self::Params,
                q: Base,
                r: Base,
                diag: &LayerVec<S>,
                up: &LayerVec<S>,
                left: &LayerVec<S>,
            ) -> (LayerVec<S>, TbPtr) {
                linear_pe(params, q, r, diag, up, left, $clamp)
            }

            #[inline]
            fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
                linear_tb(state, ptr)
            }
        }

        impl<S: Score, const W: usize> LaneKernel<W> for $name<S> {
            #[inline]
            fn pe_lanes_primary(
                params: &Self::Params,
                q: &[Base],
                r_rev: &[Base],
                diag: &[S],
                up: &[S],
                left: &[S],
                out: &mut [S],
                ptrs: &mut [TbPtr],
            ) -> bool {
                linear_pe_lanes_primary::<S, W>(
                    params, q, r_rev, diag, up, left, out, ptrs, $clamp,
                )
            }

            #[inline(always)]
            fn pe_group(
                params: &Self::Params,
                q: &[Base; W],
                r: &[Base; W],
                diag: &[S; W],
                up: &[S; W],
                left: &[S; W],
                out: &mut [S; W],
                ptrs: &mut [TbPtr; W],
            ) {
                linear_pe_group::<S, W>(params, q, r, diag, up, left, out, ptrs, $clamp)
            }
        }

        impl AdaptiveKernel for $name<i16> {
            type Lo = $name<i8>;

            fn lo_params(params: &LinearParams<i16>) -> Option<LinearParams<i8>> {
                params.narrow_i8()
            }
        }
    };
}

linear_kernel!(
    /// Kernel #1 — Global Linear alignment (Needleman-Wunsch), the paper's
    /// baseline kernel: gap-ramp initialization, global traceback.
    GlobalLinear, id: 1, kname: "Global Linear (Needleman-Wunsch)",
    clamp: false, tb: TracebackSpec::global(),
    init_row: |p, j| gap_ramp(p.gap, j),
    init_col: |p, i| gap_ramp(p.gap, i)
);

linear_kernel!(
    /// Kernel #3 — Local Linear alignment (Smith-Waterman): zero
    /// initialization, scores clamped at zero, traceback from the global
    /// maximum to the first zero-score cell.
    LocalLinear, id: 3, kname: "Local Linear (Smith-Waterman)",
    clamp: true, tb: TracebackSpec::local(),
    init_row: |_, _| zero_init(),
    init_col: |_, _| zero_init()
);

linear_kernel!(
    /// Kernel #6 — Overlap alignment (suffix–prefix matching for genome
    /// assembly): free initialization, best cell in the last row or column,
    /// traceback to the top row or leftmost column.
    Overlap, id: 6, kname: "Overlap Alignment",
    clamp: false, tb: TracebackSpec::overlap(),
    init_row: |_, _| zero_init(),
    init_col: |_, _| zero_init()
);

linear_kernel!(
    /// Kernel #7 — Semi-global alignment (short-read mapping): the query
    /// aligns end-to-end against a reference substring; free reference ends,
    /// gap-ramped query start.
    SemiGlobal, id: 7, kname: "Semi-global Alignment",
    clamp: false, tb: TracebackSpec::semi_global(),
    init_row: |_, _| zero_init(),
    init_col: |p, i| gap_ramp(p.gap, i)
);

linear_kernel!(
    /// Kernel #11 — Banded Global Linear alignment: identical recurrence to
    /// #1; the fixed band is applied by the engines from
    /// [`dphls_core::KernelConfig::banding`] (paper §4 step 6's `BANDING` /
    /// `BANDWIDTH` macros).
    BandedGlobalLinear, id: 11, kname: "Banded Global Linear",
    clamp: false, tb: TracebackSpec::global(),
    init_row: |p, j| gap_ramp(p.gap, j),
    init_col: |p, i| gap_ramp(p.gap, i)
);

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::LANE_WIDTH;
    use dphls_core::{run_reference, run_reference_full, Banding, BestCellRule};
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn nw_identical_sequences_score_full_match() {
        let p = LinearParams::<i16>::unit();
        let s = dna("ACGTACGT");
        let out = run_reference::<GlobalLinear>(&p, s.as_slice(), s.as_slice(), Banding::None);
        assert_eq!(out.best_score, 8);
        assert_eq!(out.best_cell, (8, 8));
        let aln = out.alignment.unwrap();
        assert_eq!(aln.cigar(), "8M");
        assert!(aln.is_consistent());
    }

    #[test]
    fn nw_fig1_example() {
        // The paper's Fig 1 walkthrough: ACTG vs ACTC with +1/-1/-1
        // fills H(4,4) = 2 (3 matches, 1 mismatch at the end... the figure
        // shows bottom-right = 2).
        let p = LinearParams::<i16>::unit();
        let out = run_reference::<GlobalLinear>(
            &p,
            dna("ACTG").as_slice(),
            dna("ACTC").as_slice(),
            Banding::None,
        );
        assert_eq!(out.best_score, 2);
    }

    #[test]
    fn nw_known_matrix_values() {
        let p = LinearParams::<i16>::unit();
        let (_, m) = run_reference_full::<GlobalLinear>(
            &p,
            dna("ACTG").as_slice(),
            dna("ACTC").as_slice(),
            Banding::None,
        );
        // Boundary ramp
        assert_eq!(m.score(0, 0), 0);
        assert_eq!(m.score(0, 4), -4);
        assert_eq!(m.score(4, 0), -4);
        // First row of fills from Fig 1: 1, 0, -1, -2
        assert_eq!(m.score(1, 1), 1);
        assert_eq!(m.score(1, 2), 0);
        assert_eq!(m.score(2, 2), 2);
        assert_eq!(m.score(3, 3), 3);
        assert_eq!(m.score(4, 4), 2);
    }

    #[test]
    fn nw_is_symmetric_in_score() {
        let p = LinearParams::<i16>::dna();
        let a = dna("ACGTTGCA");
        let b = dna("AGGTTGA");
        let s1 = run_reference::<GlobalLinear>(&p, a.as_slice(), b.as_slice(), Banding::None);
        let s2 = run_reference::<GlobalLinear>(&p, b.as_slice(), a.as_slice(), Banding::None);
        assert_eq!(s1.best_score, s2.best_score);
    }

    #[test]
    fn sw_score_is_non_negative_and_finds_motif() {
        let p = LinearParams::<i16>::dna();
        // Common motif "GATTACA" embedded in junk on both sides.
        let a = dna("CCCCGATTACACCCC");
        let b = dna("TTTTTGATTACATTTTT");
        let out = run_reference::<LocalLinear>(&p, a.as_slice(), b.as_slice(), Banding::None);
        assert_eq!(out.best_score, 14); // 7 matches x 2
        let aln = out.alignment.unwrap();
        assert_eq!(aln.cigar(), "7M");
        assert_eq!(aln.identity(a.as_slice(), b.as_slice()), Some(1.0));
    }

    #[test]
    fn sw_unrelated_sequences_score_zero_floor() {
        let p = LinearParams::<i16>::dna();
        let out = run_reference::<LocalLinear>(
            &p,
            dna("AAAA").as_slice(),
            dna("CCCC").as_slice(),
            Banding::None,
        );
        assert_eq!(out.best_score, 0);
    }

    #[test]
    fn overlap_finds_suffix_prefix() {
        let p = LinearParams::<i16>::dna();
        // suffix of a = prefix of b = "ACGTACGT"
        let a = dna("TTTTACGTACGT");
        let b = dna("ACGTACGTGGGG");
        let out = run_reference::<Overlap>(&p, a.as_slice(), b.as_slice(), Banding::None);
        assert_eq!(out.best_score, 16); // 8 matches x 2
        let aln = out.alignment.unwrap();
        // Path must start on a boundary (free start) and end on last row/col.
        let (si, sj) = aln.start();
        assert!(si == 0 || sj == 0);
        let (ei, ej) = aln.end();
        assert!(ei == a.len() || ej == b.len());
    }

    #[test]
    fn semi_global_aligns_query_end_to_end() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGTAC");
        let r = dna("TTTTTACGTACTTTTT");
        let out = run_reference::<SemiGlobal>(&p, q.as_slice(), r.as_slice(), Banding::None);
        assert_eq!(out.best_score, 12); // 6 matches
        let aln = out.alignment.unwrap();
        assert_eq!(aln.query_span(), q.len()); // end-to-end in the query
        assert_eq!(aln.start().0, 0);
        assert_eq!(aln.end().0, q.len());
    }

    #[test]
    fn banded_equals_unbanded_when_band_covers_matrix() {
        let p = LinearParams::<i16>::dna();
        let a = dna("ACGTTGCATG");
        let b = dna("ACGATGCTTG");
        let full = run_reference::<GlobalLinear>(&p, a.as_slice(), b.as_slice(), Banding::None);
        let banded = run_reference::<BandedGlobalLinear>(
            &p,
            a.as_slice(),
            b.as_slice(),
            Banding::Fixed { half_width: 10 },
        );
        assert_eq!(full.best_score, banded.best_score);
        assert_eq!(full.alignment, banded.alignment);
    }

    #[test]
    fn narrow_band_computes_fewer_cells() {
        let p = LinearParams::<i16>::dna();
        let a = dna("ACGTTGCATGACGTTGCATG");
        let b = dna("ACGTTGCATGACGTTGCATG");
        let full =
            run_reference::<BandedGlobalLinear>(&p, a.as_slice(), b.as_slice(), Banding::None);
        let banded = run_reference::<BandedGlobalLinear>(
            &p,
            a.as_slice(),
            b.as_slice(),
            Banding::Fixed { half_width: 2 },
        );
        assert!(banded.cells_computed < full.cells_computed);
        // Identical sequences stay on the diagonal: same score.
        assert_eq!(banded.best_score, full.best_score);
    }

    #[test]
    fn gap_ramp_matches_listing4() {
        let p = LinearParams::<i16>::dna();
        let v = GlobalLinear::<i16>::init_row(&p, 5);
        assert_eq!(v.primary(), -10); // 5 * gap(-2)
        assert_eq!(GlobalLinear::<i16>::init_col(&p, 0).primary(), 0);
    }

    #[test]
    fn metas_are_distinct_and_correct() {
        assert_eq!(GlobalLinear::<i16>::meta().id, KernelId(1));
        assert_eq!(LocalLinear::<i16>::meta().id, KernelId(3));
        assert_eq!(Overlap::<i16>::meta().id, KernelId(6));
        assert_eq!(SemiGlobal::<i16>::meta().id, KernelId(7));
        assert_eq!(BandedGlobalLinear::<i16>::meta().id, KernelId(11));
        assert_eq!(
            LocalLinear::<i16>::meta().traceback.best,
            BestCellRule::AllCells
        );
        assert_eq!(
            SemiGlobal::<i16>::meta().traceback.best,
            BestCellRule::LastRow
        );
        for m in [GlobalLinear::<i16>::meta(), LocalLinear::<i16>::meta()] {
            assert_eq!(m.n_layers, 1);
            assert_eq!(m.tb_bits, 2);
        }
    }

    #[test]
    fn pe_lanes_matches_scalar_pe_lane_by_lane() {
        // Direct unit check of the vectorized flat port against the scalar
        // recurrence, including the local (clamp-zero) variant's END ties
        // and a partial chunk whose padded tail must stay unwritten.
        let p = LinearParams::<i16>::dna();
        let q: Vec<Base> = dna("ACGTACGT").into_vec();
        let r_rev: Vec<Base> = dna("TGCATGCA").into_vec();
        let diag = [0i16, 2, -4, 6, 0, -2, 4, 1];
        let up = [1i16, -1, 3, 3, 0, 5, -6, 2];
        let left = [-2i16, 4, 4, -3, 0, 1, 2, 2];
        for clamp in [false, true] {
            for n in [q.len(), 5] {
                let mut out = [i16::MIN; LANE_WIDTH];
                let mut ptrs = [TbPtr::END; LANE_WIDTH];
                let escalate = linear_pe_lanes_primary::<i16, LANE_WIDTH>(
                    &p,
                    &q[..n],
                    &r_rev[..n],
                    &diag[..n],
                    &up[..n],
                    &left[..n],
                    &mut out[..n],
                    &mut ptrs[..n],
                    clamp,
                );
                assert!(!escalate, "exact scores never escalate");
                for t in 0..n {
                    let (want, wptr) = linear_pe(
                        &p,
                        q[t],
                        r_rev[n - 1 - t],
                        &LayerVec::splat(1, diag[t]),
                        &LayerVec::splat(1, up[t]),
                        &LayerVec::splat(1, left[t]),
                        clamp,
                    );
                    assert_eq!(out[t], want.primary(), "lane {t} clamp={clamp} n={n}");
                    assert_eq!(ptrs[t], wptr, "lane {t} clamp={clamp} n={n}");
                }
                assert!(out[n..].iter().all(|&s| s == i16::MIN), "tail written");
            }
        }
    }

    #[test]
    fn pe_group_matches_scalar_pe_lane_by_lane() {
        // The forward full-width port: every lane an unrelated cell (its own
        // symbols, its own neighbours), END ties of the local variant
        // included, at the exact width and at a narrow one.
        fn check<S: Score, const W: usize>(p: &LinearParams<S>, clamp: bool) {
            let base = |t: usize, shift: usize| Base::from_code(((t * 7 + shift) % 4) as u8);
            let score = |t: usize, k: i32| S::from_i32((t as i32 * k) % 11 - 5);
            let q: [Base; W] = std::array::from_fn(|t| base(t, 0));
            let r: [Base; W] = std::array::from_fn(|t| base(t / 2, 1));
            let diag: [S; W] = std::array::from_fn(|t| score(t, 3));
            let up: [S; W] = std::array::from_fn(|t| score(t, 5));
            let left: [S; W] = std::array::from_fn(|t| score(t, 7));
            let (mut out, mut ptrs) = ([S::zero(); W], [TbPtr::END; W]);
            linear_pe_group(p, &q, &r, &diag, &up, &left, &mut out, &mut ptrs, clamp);
            for t in 0..W {
                let cell = |s: S| LayerVec::splat(1, s);
                let neighbours = (&cell(diag[t]), &cell(up[t]), &cell(left[t]));
                let (want, wptr) = linear_pe(
                    p,
                    q[t],
                    r[t],
                    neighbours.0,
                    neighbours.1,
                    neighbours.2,
                    clamp,
                );
                assert_eq!(out[t], want.primary(), "lane {t} clamp={clamp} W={W}");
                assert_eq!(ptrs[t], wptr, "lane {t} clamp={clamp} W={W}");
            }
        }
        for clamp in [false, true] {
            check::<i16, LANE_WIDTH>(&LinearParams::dna(), clamp);
            check::<i8, 32>(&LinearParams::unit(), clamp);
        }
    }

    #[test]
    fn deletion_appears_in_global_cigar() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGTACGT");
        let r = dna("ACGTTACGT"); // one extra T in the reference
        let out = run_reference::<GlobalLinear>(&p, q.as_slice(), r.as_slice(), Banding::None);
        let aln = out.alignment.unwrap();
        assert_eq!(aln.query_span(), 8);
        assert_eq!(aln.ref_span(), 9);
        assert!(aln.cigar().contains('D'), "cigar {}", aln.cigar());
    }
}
