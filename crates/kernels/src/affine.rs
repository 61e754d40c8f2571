//! Affine-gap-penalty kernels (Gotoh): Global Affine (#2), Local Affine
//! (#4), and Banded Local Affine (#12, no traceback — the BSW comparand).
//!
//! Three scoring layers per cell (`N_LAYERS = 3`): `H` (layer 0), `I`
//! (layer 1, vertical gaps consuming the query) and `D` (layer 2, horizontal
//! gaps consuming the reference). The 4-bit traceback pointer packs the H
//! direction (2 bits) plus "gap opened here" flags for I and D — exactly why
//! the paper quotes `ap_uint<4>` for kernel #2 (§4 step 5).

use crate::isa::{self, Isa};
use crate::params::AffineParams;
use dphls_core::score::argmax;
use dphls_core::{
    AdaptiveKernel, BestCellRule, KernelId, KernelMeta, KernelSpec, LaneKernel, LayerVec,
    Objective, Score, TbMove, TbPtr, TbState, TracebackSpec,
};
use dphls_seq::Base;
use std::marker::PhantomData;

/// Pointer flag bit: the I (vertical) layer took the gap-open transition.
const FLAG_I_OPEN: u8 = 0b01;
/// Pointer flag bit: the D (horizontal) layer took the gap-open transition.
const FLAG_D_OPEN: u8 = 0b10;

/// Traceback FSM states (paper Listing 3 left).
const MM: TbState = TbState(0);
const INS: TbState = TbState(1);
const DEL: TbState = TbState(2);

fn affine_pe<S: Score>(
    p: &AffineParams<S>,
    q: Base,
    r: Base,
    diag: &LayerVec<S>,
    up: &LayerVec<S>,
    left: &LayerVec<S>,
    clamp_zero: bool,
) -> (LayerVec<S>, TbPtr) {
    // I(i,j) = max(H(i-1,j) + open, I(i-1,j) + extend)
    let i_open = up.get(0).add(p.gap_open);
    let i_ext = up.get(1).add(p.gap_extend);
    let (i_val, i_opened) = i_ext.max_with(i_open);
    // D(i,j) = max(H(i,j-1) + open, D(i,j-1) + extend)
    let d_open = left.get(0).add(p.gap_open);
    let d_ext = left.get(2).add(p.gap_extend);
    let (d_val, d_opened) = d_ext.max_with(d_open);
    // H(i,j) = max(diag + s, I, D) [, 0 for local]
    let sub = if q == r { p.match_score } else { p.mismatch };
    let mat = diag.get(0).add(sub);
    let (h, dir) = if clamp_zero {
        argmax([
            (S::zero(), TbPtr::END),
            (mat, TbPtr::DIAG),
            (i_val, TbPtr::UP),
            (d_val, TbPtr::LEFT),
        ])
    } else {
        argmax([(mat, TbPtr::DIAG), (i_val, TbPtr::UP), (d_val, TbPtr::LEFT)])
    };
    let flags = (i_opened as u8 * FLAG_I_OPEN) | (d_opened as u8 * FLAG_D_OPEN);
    (
        LayerVec::from_slice(&[h, i_val, d_val]),
        TbPtr::with_flags(dir, flags),
    )
}

/// The affine family's plane body: one wavefront's lanes over the layer
/// planes (H/I/D each its own slice, the pointers written straight into the
/// traceback row), run by `isa::over_blocks` as one loop over the whole
/// 32-lane blocks and one fixed block over the last 32 lanes, which overlaps
/// the last whole block. Scoring a lane twice is exact: its outputs depend
/// only on its inputs, never on the output planes. Bit-identical to
/// [`affine_pe`] — same [`Score::max_with`] "rhs wins only if strictly
/// greater" semantics for the gap-open decisions and the same [`argmax`]
/// candidate order for the H layer — expressed as branchless compare/select
/// chains so the autovectorizer can widen the loop. It is widened three
/// times: `isa::affine_planes` holds the baseline build (SSE2 on x86-64: 8
/// `i16` lanes a vector) and `#[target_feature]` monomorphs at AVX2 (16)
/// and AVX-512BW (32), and the port runs the widest the CPU has. Returns the
/// fused saturation-guard flag over all three output layers (constant
/// `false` for exact score types).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn affine_planes<S: Score, const CLAMP_ZERO: bool>(
    p: &AffineParams<S>,
    q: &[Base],
    r: &[Base],
    h_diag: &[S],
    h_up: &[S],
    i_up: &[S],
    h_left: &[S],
    d_left: &[S],
    h_out: &mut [S],
    i_out: &mut [S],
    d_out: &mut [S],
    ptrs: &mut [TbPtr],
) -> bool {
    isa::over_blocks(
        ptrs.len(),
        #[inline(always)]
        |l| {
            affine_lanes::<S, CLAMP_ZERO>(
                p,
                l.of(q),
                l.of(r),
                l.of(h_diag),
                l.of(h_up),
                l.of(i_up),
                l.of(h_left),
                l.of(d_left),
                l.of_mut(h_out),
                l.of_mut(i_out),
                l.of_mut(d_out),
                l.of_mut(ptrs),
            )
        },
    )
}

/// One run of [`affine_planes`]: an exact loop over `ptrs.len()` lanes.
///
/// Every plane is its own slice parameter on purpose: the compiler knows
/// the seven inputs and four outputs cannot overlap only while each is a
/// top-level `&` / `&mut` argument. Indexed out of the port's slice-of-slices
/// (or out of a tuple) the same body vectorizes behind ~25 run-time overlap
/// checks per call and falls back to scalar code below 16 lanes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn affine_lanes<S: Score, const CLAMP_ZERO: bool>(
    p: &AffineParams<S>,
    q: &[Base],
    r: &[Base],
    h_diag: &[S],
    h_up: &[S],
    i_up: &[S],
    h_left: &[S],
    d_left: &[S],
    h_out: &mut [S],
    i_out: &mut [S],
    d_out: &mut [S],
    ptrs: &mut [TbPtr],
) -> bool {
    // One up-front narrowing per stream so the loop below carries no
    // per-element bounds checks, and the parameters in locals so the
    // substitution score is a select between two registers, not a load.
    let n = ptrs.len();
    let (q, r, h_diag) = (&q[..n], &r[..n], &h_diag[..n]);
    let (h_up, i_up, h_left, d_left) = (&h_up[..n], &i_up[..n], &h_left[..n], &d_left[..n]);
    let (h_out, i_out, d_out) = (&mut h_out[..n], &mut i_out[..n], &mut d_out[..n]);
    let AffineParams {
        match_score,
        mismatch,
        gap_open,
        gap_extend,
    } = *p;
    let zero = S::zero();
    let mut escalate = false;
    for t in 0..n {
        // I(i,j) = max(H(i-1,j) + open, I(i-1,j) + extend)
        let i_open = h_up[t].add(gap_open);
        let i_ext = i_up[t].add(gap_extend);
        let (i_val, i_opened) = i_ext.max_with(i_open);
        // D(i,j) = max(H(i,j-1) + open, D(i,j-1) + extend)
        let d_open = h_left[t].add(gap_open);
        let d_ext = d_left[t].add(gap_extend);
        let (d_val, d_opened) = d_ext.max_with(d_open);
        // H = argmax([(0, END)?, (mat, DIAG), (I, UP), (D, LEFT)]).
        let sub = if q[t] == r[t] { match_score } else { mismatch };
        let mat = h_diag[t].add(sub);
        let (mut h, mut dir) = if CLAMP_ZERO {
            let (b, won) = zero.max_with(mat);
            (b, if won { TbPtr::DIAG.0 } else { TbPtr::END.0 })
        } else {
            (mat, TbPtr::DIAG.0)
        };
        let (b, won) = h.max_with(i_val);
        h = b;
        dir = if won { TbPtr::UP.0 } else { dir };
        let (b, won) = h.max_with(d_val);
        h = b;
        dir = if won { TbPtr::LEFT.0 } else { dir };
        h_out[t] = h;
        i_out[t] = i_val;
        d_out[t] = d_val;
        let i_flag = if i_opened { FLAG_I_OPEN << 2 } else { 0 };
        let d_flag = if d_opened { FLAG_D_OPEN << 2 } else { 0 };
        ptrs[t] = TbPtr(dir | i_flag | d_flag);
        escalate |= h.needs_escalation() | i_val.needs_escalation() | d_val.needs_escalation();
    }
    escalate
}

/// The three-state affine traceback FSM: in `INS`/`DEL` the walk follows the
/// gap layer until the cell whose pointer says the gap was opened from `H`.
fn affine_tb(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
    let i_opened = ptr.flags() & FLAG_I_OPEN != 0;
    let d_opened = ptr.flags() & FLAG_D_OPEN != 0;
    match state {
        s if s == INS => (if i_opened { MM } else { INS }, TbMove::Up),
        s if s == DEL => (if d_opened { MM } else { DEL }, TbMove::Left),
        _ => match ptr.direction() {
            TbPtr::DIAG => (MM, TbMove::Diag),
            TbPtr::UP => (if i_opened { MM } else { INS }, TbMove::Up),
            TbPtr::LEFT => (if d_opened { MM } else { DEL }, TbMove::Left),
            _ => (MM, TbMove::Stop),
        },
    }
}

/// Gotoh global boundary: `H(0,j) = D(0,j) = open + (j−1)·extend`, vertical
/// layer unreachable (and symmetrically for the first column).
fn affine_ramp<S: Score>(p: &AffineParams<S>, k: usize, vertical: bool) -> LayerVec<S> {
    if k == 0 {
        return LayerVec::from_slice(&[S::zero(), S::neg_inf(), S::neg_inf()]);
    }
    let cost = S::from_f64(p.gap_open.to_f64() + (k - 1) as f64 * p.gap_extend.to_f64());
    if vertical {
        LayerVec::from_slice(&[cost, cost, S::neg_inf()])
    } else {
        LayerVec::from_slice(&[cost, S::neg_inf(), cost])
    }
}

fn zero_affine_init<S: Score>() -> LayerVec<S> {
    LayerVec::from_slice(&[S::zero(), S::neg_inf(), S::neg_inf()])
}

macro_rules! affine_kernel {
    (
        $(#[$doc:meta])*
        $name:ident, id: $id:expr, kname: $kname:expr,
        clamp: $clamp:expr, tb: $tbspec:expr, tb_bits: $tb_bits:expr,
        init_row: $init_row:expr, init_col: $init_col:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name<S = i16>(PhantomData<S>);

        impl<S: Score> KernelSpec for $name<S> {
            type Sym = Base;
            type Score = S;
            type Params = AffineParams<S>;

            fn meta() -> KernelMeta {
                KernelMeta {
                    id: KernelId($id),
                    name: $kname,
                    n_layers: 3,
                    tb_bits: $tb_bits,
                    objective: Objective::Maximize,
                    traceback: $tbspec,
                }
            }

            #[inline]
            fn init_row(params: &Self::Params, j: usize) -> LayerVec<S> {
                let f: fn(&AffineParams<S>, usize) -> LayerVec<S> = $init_row;
                f(params, j)
            }

            #[inline]
            fn init_col(params: &Self::Params, i: usize) -> LayerVec<S> {
                let f: fn(&AffineParams<S>, usize) -> LayerVec<S> = $init_col;
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
                affine_pe(params, q, r, diag, up, left, $clamp)
            }

            #[inline]
            fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
                affine_tb(state, ptr)
            }
        }

        impl<S: Score, const W: usize> LaneKernel<W> for $name<S> {
            #[inline]
            fn pe_wavefront(
                params: &Self::Params,
                q: &[Base],
                r: &[Base],
                diag: &[&[S]],
                up: &[&[S]],
                left: &[&[S]],
                out: &mut [&mut [S]],
                ptrs: &mut [TbPtr],
            ) -> bool {
                let [h_out, i_out, d_out] = out else {
                    panic!("affine kernels score three layers");
                };
                isa::affine_planes::<S, $clamp>(
                    Isa::detected(),
                    params,
                    q,
                    r,
                    diag[0],
                    up[0],
                    up[1],
                    left[0],
                    left[2],
                    h_out,
                    i_out,
                    d_out,
                    ptrs,
                )
            }
        }

        impl AdaptiveKernel for $name<i16> {
            type Lo = $name<i8>;

            fn lo_params(params: &AffineParams<i16>) -> Option<AffineParams<i8>> {
                params.narrow_i8()
            }
        }
    };
}

affine_kernel!(
    /// Kernel #2 — Global Affine alignment (Gotoh), the GACT comparand of
    /// Figs 4–5 and the kernel the long-read tiling driver runs.
    GlobalAffine, id: 2, kname: "Global Affine (Gotoh)",
    clamp: false, tb: TracebackSpec::global(), tb_bits: 4,
    init_row: |p, j| affine_ramp(p, j, false),
    init_col: |p, i| affine_ramp(p, i, true)
);

affine_kernel!(
    /// Kernel #4 — Local Affine alignment (Smith-Waterman-Gotoh).
    LocalAffine, id: 4, kname: "Local Affine (Smith-Waterman-Gotoh)",
    clamp: true, tb: TracebackSpec::local(), tb_bits: 4,
    init_row: |_, _| zero_affine_init(),
    init_col: |_, _| zero_affine_init()
);

affine_kernel!(
    /// Kernel #12 — Banded Local Affine alignment, score-only (the paper
    /// disables traceback to match the BSW accelerator \[12\]); the band comes
    /// from [`dphls_core::KernelConfig::banding`].
    BandedLocalAffine, id: 12, kname: "Banded Local Affine",
    clamp: true, tb: TracebackSpec::score_only(BestCellRule::AllCells), tb_bits: 0,
    init_row: |_, _| zero_affine_init(),
    init_col: |_, _| zero_affine_init()
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane_check::{check_lone_guard_lane, check_plane_port, LANE_COUNTS};
    use crate::linear::{GlobalLinear, LocalLinear};
    use crate::params::LinearParams;
    use dphls_core::{run_reference, run_reference_full, Banding};
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn p16() -> AffineParams<i16> {
        AffineParams::dna()
    }

    #[test]
    fn identical_sequences_all_match() {
        let s = dna("ACGTACGTACGT");
        let out = run_reference::<GlobalAffine>(&p16(), s.as_slice(), s.as_slice(), Banding::None);
        assert_eq!(out.best_score, 24);
        assert_eq!(out.alignment.unwrap().cigar(), "12M");
    }

    #[test]
    fn long_gap_cheaper_than_linear_equivalent() {
        // One 6-base deletion: affine cost = open + 5*extend = -10,
        // vs linear with gap=-2 per base = -12.
        let q = dna("ACGTACGTACGT");
        let r = dna("ACGTACGTACGTGGGGGG");
        let affine =
            run_reference::<GlobalAffine>(&p16(), q.as_slice(), r.as_slice(), Banding::None);
        let linear = run_reference::<GlobalLinear>(
            &LinearParams::<i16> {
                match_score: 2,
                mismatch: -3,
                gap: -2,
            },
            q.as_slice(),
            r.as_slice(),
            Banding::None,
        );
        assert_eq!(affine.best_score, 24 - 10);
        assert!(affine.best_score > linear.best_score);
        // And the gap is one contiguous run in the cigar.
        let aln = affine.alignment.unwrap();
        assert_eq!(aln.cigar(), "12M6D");
    }

    #[test]
    fn gap_runs_are_contiguous() {
        let q = dna("AAAACCCCGGGG");
        let r = dna("AAAAGGGG");
        let out = run_reference::<GlobalAffine>(&p16(), q.as_slice(), r.as_slice(), Banding::None);
        let aln = out.alignment.unwrap();
        // Affine prefers one 4-long insertion over scattered gaps.
        assert_eq!(aln.cigar(), "4M4I4M");
        assert!(aln.is_consistent());
    }

    #[test]
    fn affine_boundary_values() {
        let (_, m) = run_reference_full::<GlobalAffine>(
            &p16(),
            dna("ACGT").as_slice(),
            dna("ACGT").as_slice(),
            Banding::None,
        );
        assert_eq!(m.score(0, 0), 0);
        assert_eq!(m.score(0, 1), -5); // open
        assert_eq!(m.score(0, 3), -7); // open + 2*extend
        assert_eq!(m.score(3, 0), -7);
    }

    #[test]
    fn local_affine_is_non_negative_and_at_least_local_linear_with_affine_gaps() {
        let q = dna("CCCCGATTACAGGGG");
        let r = dna("TTGATTACATT");
        let out = run_reference::<LocalAffine>(&p16(), q.as_slice(), r.as_slice(), Banding::None);
        assert_eq!(out.best_score, 14); // GATTACA = 7 matches x 2
        assert!(out.best_score >= 0);
        let aln = out.alignment.unwrap();
        assert_eq!(aln.cigar(), "7M");
    }

    #[test]
    fn local_affine_zero_for_disjoint_alphabets() {
        let out = run_reference::<LocalAffine>(
            &p16(),
            dna("AAAAA").as_slice(),
            dna("CCCCC").as_slice(),
            Banding::None,
        );
        assert_eq!(out.best_score, 0);
    }

    #[test]
    fn local_affine_matches_local_linear_when_gaps_equal() {
        // With open == extend, affine degenerates to linear.
        let pa = AffineParams::<i16> {
            match_score: 2,
            mismatch: -3,
            gap_open: -2,
            gap_extend: -2,
        };
        let pl = LinearParams::<i16> {
            match_score: 2,
            mismatch: -3,
            gap: -2,
        };
        let q = dna("ACGGTTACGT");
        let r = dna("AGGTTACGGT");
        let a = run_reference::<LocalAffine>(&pa, q.as_slice(), r.as_slice(), Banding::None);
        let l = run_reference::<LocalLinear>(&pl, q.as_slice(), r.as_slice(), Banding::None);
        assert_eq!(a.best_score, l.best_score);
    }

    #[test]
    fn banded_local_affine_reports_score_without_alignment() {
        let q = dna("ACGTACGTAC");
        let r = dna("ACGTTCGTAC");
        let out = run_reference::<BandedLocalAffine>(
            &p16(),
            q.as_slice(),
            r.as_slice(),
            Banding::Fixed { half_width: 4 },
        );
        assert!(out.alignment.is_none());
        assert!(out.best_score > 0);
        // Wide band reproduces the unbanded local affine score.
        let unbanded =
            run_reference::<LocalAffine>(&p16(), q.as_slice(), r.as_slice(), Banding::None);
        let wide = run_reference::<BandedLocalAffine>(
            &p16(),
            q.as_slice(),
            r.as_slice(),
            Banding::Fixed { half_width: 10 },
        );
        assert_eq!(wide.best_score, unbanded.best_score);
    }

    #[test]
    fn metas() {
        assert_eq!(GlobalAffine::<i16>::meta().id, KernelId(2));
        assert_eq!(GlobalAffine::<i16>::meta().n_layers, 3);
        assert_eq!(GlobalAffine::<i16>::meta().tb_bits, 4);
        assert_eq!(LocalAffine::<i16>::meta().id, KernelId(4));
        assert_eq!(BandedLocalAffine::<i16>::meta().id, KernelId(12));
        assert!(!BandedLocalAffine::<i16>::meta().traceback.has_walk());
        assert_eq!(BandedLocalAffine::<i16>::meta().tb_bits, 0);
    }

    #[test]
    fn pe_lanes_matches_scalar_pe_lane_by_lane() {
        // The `LayerVec` door has no override of its own any more: its
        // default transposes into planes and runs the plane body, so H/I/D
        // values, direction bits and gap-open flags must still match the
        // scalar PE, clamp off (global) and on (local).
        let p = p16();
        let q: Vec<Base> = dna("ACGTACGT").into_vec();
        let r_rev: Vec<Base> = dna("CAGTTCGA").into_vec();
        let n = q.len();
        let mk = |h: &[i16]| -> Vec<LayerVec<i16>> {
            h.iter()
                .enumerate()
                .map(|(t, &v)| {
                    LayerVec::from_slice(&[v, v - (t as i16 % 3), v - 2 + (t as i16 % 2)])
                })
                .collect()
        };
        let diag = mk(&[0, 2, -4, 6, 0, -2, 4, 1]);
        let up = mk(&[1, -1, 3, 3, 0, 5, -6, 2]);
        let left = mk(&[-2, 4, 4, -3, 0, 1, 2, 2]);
        for clamp in [false, true] {
            let mut out = vec![LayerVec::splat(3, 0i16); n];
            let mut ptrs = vec![TbPtr::END; n];
            let port = if clamp {
                <LocalAffine as LaneKernel>::pe_lanes
            } else {
                <GlobalAffine as LaneKernel>::pe_lanes
            };
            port(&p, &q, &r_rev, &diag, &up, &left, &mut out, &mut ptrs);
            for t in 0..n {
                let (want, wptr) = affine_pe(
                    &p,
                    q[t],
                    r_rev[n - 1 - t],
                    &diag[t],
                    &up[t],
                    &left[t],
                    clamp,
                );
                assert_eq!(out[t], want, "lane {t} clamp={clamp}");
                assert_eq!(ptrs[t], wptr, "lane {t} clamp={clamp}");
            }
        }
    }

    #[test]
    fn plane_port_matches_scalar_pe_at_every_width_and_precision() {
        // Exact scores never raise the guard; the i8 rails and sentinels do,
        // and the fused flag must equal the per-lane scan exactly.
        let hot16 = (-300, 600);
        assert_eq!(
            check_plane_port::<GlobalAffine>(&p16(), hot16, "global i16"),
            0
        );
        assert_eq!(
            check_plane_port::<LocalAffine>(&p16(), hot16, "local i16"),
            0
        );
        let p8 = p16().narrow_i8().expect("DNA parameters fit i8");
        let hot8 = (-60, 188);
        for flagged in [
            check_plane_port::<GlobalAffine<i8>>(&p8, hot8, "global i8"),
            check_plane_port::<BandedLocalAffine<i8>>(&p8, hot8, "banded local i8"),
        ] {
            // At least every all-worst case: the gap layers stay sentinels.
            assert!(flagged >= LANE_COUNTS.len(), "{flagged} cases flagged");
        }
        check_lone_guard_lane::<GlobalAffine<i8>>(&p8, "global i8");
        check_lone_guard_lane::<BandedLocalAffine<i8>>(&p8, "banded local i8");
    }

    #[test]
    fn fsm_transitions() {
        // In MM, a DIAG pointer stays in MM.
        assert_eq!(affine_tb(MM, TbPtr::DIAG), (MM, TbMove::Diag));
        // Entering a non-opened vertical gap goes to INS and stays there...
        let ptr_ext = TbPtr::with_flags(TbPtr::UP, 0);
        assert_eq!(affine_tb(MM, ptr_ext), (INS, TbMove::Up));
        assert_eq!(affine_tb(INS, ptr_ext), (INS, TbMove::Up));
        // ...until an opened pointer returns to MM.
        let ptr_open = TbPtr::with_flags(TbPtr::UP, FLAG_I_OPEN);
        assert_eq!(affine_tb(INS, ptr_open), (MM, TbMove::Up));
        // Horizontal mirror.
        let ptr_d_open = TbPtr::with_flags(TbPtr::LEFT, FLAG_D_OPEN);
        assert_eq!(affine_tb(MM, ptr_d_open), (MM, TbMove::Left));
        assert_eq!(affine_tb(DEL, TbPtr::LEFT), (DEL, TbMove::Left));
        // END stops.
        assert_eq!(affine_tb(MM, TbPtr::END).1, TbMove::Stop);
    }
}
