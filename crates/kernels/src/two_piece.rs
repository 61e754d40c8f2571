//! Two-piece affine gap kernels (minimap2-style): Global Two-piece Affine
//! (#5) and Banded Global Two-piece Affine (#13).
//!
//! Five scoring layers per cell (`N_LAYERS = 5`): `H`, plus two affine gap
//! pairs `(I₁, D₁)` and `(I₂, D₂)` with different open/extend slopes; the
//! effective gap cost is the better of the two pieces, approximating a
//! concave gap function (paper §2.2.2b). The traceback pointer needs 7 bits
//! (3-bit source + 4 open flags), matching the "at least 7 bits per pointer"
//! the paper quotes for BRAM sizing of kernels #5/#13 (§7.1).

use crate::isa::{self, Isa};
use crate::params::TwoPieceParams;
use dphls_core::score::argmax;
use dphls_core::{
    KernelId, KernelMeta, KernelSpec, LaneKernel, LayerVec, Objective, Score, TbMove, TbPtr,
    TbState, TracebackSpec,
};
use dphls_seq::Base;
use std::marker::PhantomData;

// Layer indices.
const H: usize = 0;
const I1: usize = 1;
const D1: usize = 2;
const I2: usize = 3;
const D2: usize = 4;

// Pointer encoding: bits 0..=2 = source of H (0 diag, 1 I1, 2 D1, 3 I2,
// 4 D2); bits 3..=6 = open flags for I1, D1, I2, D2.
const SRC_MASK: u8 = 0b111;
const OPEN_I1: u8 = 1 << 3;
const OPEN_D1: u8 = 1 << 4;
const OPEN_I2: u8 = 1 << 5;
const OPEN_D2: u8 = 1 << 6;

// FSM states (paper Listing 3 right: MM, INS, DEL, LONG_INS, LONG_DEL).
const MM: TbState = TbState(0);
const INS1: TbState = TbState(1);
const DEL1: TbState = TbState(2);
const INS2: TbState = TbState(3);
const DEL2: TbState = TbState(4);

fn pe_impl<S: Score>(
    p: &TwoPieceParams<S>,
    q: Base,
    r: Base,
    diag: &LayerVec<S>,
    up: &LayerVec<S>,
    left: &LayerVec<S>,
) -> (LayerVec<S>, TbPtr) {
    let gap_layer = |h_src: S, gap_src: S, open: S, ext: S| -> (S, bool) {
        let from_open = h_src.add(open);
        let from_ext = gap_src.add(ext);
        from_ext.max_with(from_open)
    };
    let (i1, i1_open) = gap_layer(up.get(H), up.get(I1), p.gap_open1, p.gap_extend1);
    let (d1, d1_open) = gap_layer(left.get(H), left.get(D1), p.gap_open1, p.gap_extend1);
    let (i2, i2_open) = gap_layer(up.get(H), up.get(I2), p.gap_open2, p.gap_extend2);
    let (d2, d2_open) = gap_layer(left.get(H), left.get(D2), p.gap_open2, p.gap_extend2);
    let sub = if q == r { p.match_score } else { p.mismatch };
    let mat = diag.get(H).add(sub);
    let (h, src) = argmax([(mat, 0u8), (i1, 1), (d1, 2), (i2, 3), (d2, 4)]);
    let flags = (i1_open as u8 * OPEN_I1)
        | (d1_open as u8 * OPEN_D1)
        | (i2_open as u8 * OPEN_I2)
        | (d2_open as u8 * OPEN_D2);
    (
        LayerVec::from_slice(&[h, i1, d1, i2, d2]),
        TbPtr(src | flags),
    )
}

/// The two-piece family's plane body: one wavefront's lanes over the five
/// layer planes, pointers written straight into the traceback row, run by
/// `isa::over_blocks` as one loop over the whole 32-lane blocks and one
/// fixed block over the last 32 lanes, which overlaps the last whole block
/// (exact: a lane's outputs depend only on its inputs, never on the output
/// planes). Bit-identical to [`pe_impl`] — each gap layer keeps its
/// extension unless opening is strictly better, and the source index is
/// built with [`argmax`]'s order (diag, I₁, D₁, I₂, D₂; a later candidate
/// wins only if strictly greater) as a compare/select chain the
/// autovectorizer can widen. Returns the fused saturation-guard flag over
/// all five output layers (constant `false` for exact score types).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn two_piece_planes<S: Score>(
    p: &TwoPieceParams<S>,
    q: &[Base],
    r: &[Base],
    h_diag: &[S],
    h_up: &[S],
    i1_up: &[S],
    i2_up: &[S],
    h_left: &[S],
    d1_left: &[S],
    d2_left: &[S],
    h_out: &mut [S],
    i1_out: &mut [S],
    d1_out: &mut [S],
    i2_out: &mut [S],
    d2_out: &mut [S],
    ptrs: &mut [TbPtr],
) -> bool {
    isa::over_blocks::<{ isa::BLOCK }>(
        ptrs.len(),
        #[inline(always)]
        |l| {
            two_piece_lanes(
                p,
                l.of(q),
                l.of(r),
                l.of(h_diag),
                l.of(h_up),
                l.of(i1_up),
                l.of(i2_up),
                l.of(h_left),
                l.of(d1_left),
                l.of(d2_left),
                l.of_mut(h_out),
                l.of_mut(i1_out),
                l.of_mut(d1_out),
                l.of_mut(i2_out),
                l.of_mut(d2_out),
                l.of_mut(ptrs),
            )
        },
    )
}

/// One run of [`two_piece_planes`]: an exact loop over `ptrs.len()` lanes.
///
/// Every plane is its own slice parameter so the compiler knows none of the
/// nine inputs and six outputs overlap (see `affine_lanes`), and the port
/// runs it through `isa::two_piece_planes` at the CPU's widest vector width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn two_piece_lanes<S: Score>(
    p: &TwoPieceParams<S>,
    q: &[Base],
    r: &[Base],
    h_diag: &[S],
    h_up: &[S],
    i1_up: &[S],
    i2_up: &[S],
    h_left: &[S],
    d1_left: &[S],
    d2_left: &[S],
    h_out: &mut [S],
    i1_out: &mut [S],
    d1_out: &mut [S],
    i2_out: &mut [S],
    d2_out: &mut [S],
    ptrs: &mut [TbPtr],
) -> bool {
    // One up-front narrowing per stream so the loop below carries no
    // per-element bounds checks, and the parameters in locals so the
    // substitution score is a select between two registers, not a load.
    let n = ptrs.len();
    let (q, r, h_diag) = (&q[..n], &r[..n], &h_diag[..n]);
    let (h_up, i1_up, i2_up) = (&h_up[..n], &i1_up[..n], &i2_up[..n]);
    let (h_left, d1_left, d2_left) = (&h_left[..n], &d1_left[..n], &d2_left[..n]);
    let (h_out, i1_out, d1_out) = (&mut h_out[..n], &mut i1_out[..n], &mut d1_out[..n]);
    let (i2_out, d2_out) = (&mut i2_out[..n], &mut d2_out[..n]);
    let TwoPieceParams {
        match_score,
        mismatch,
        gap_open1,
        gap_extend1,
        gap_open2,
        gap_extend2,
    } = *p;
    let mut escalate = false;
    for t in 0..n {
        let (i1, i1_open) = (i1_up[t].add(gap_extend1)).max_with(h_up[t].add(gap_open1));
        let (d1, d1_open) = (d1_left[t].add(gap_extend1)).max_with(h_left[t].add(gap_open1));
        let (i2, i2_open) = (i2_up[t].add(gap_extend2)).max_with(h_up[t].add(gap_open2));
        let (d2, d2_open) = (d2_left[t].add(gap_extend2)).max_with(h_left[t].add(gap_open2));
        let sub = if q[t] == r[t] { match_score } else { mismatch };
        let (mut h, mut ptr) = (h_diag[t].add(sub), 0u8);
        for (gap, src) in [(i1, 1u8), (d1, 2), (i2, 3), (d2, 4)] {
            let (best, won) = h.max_with(gap);
            h = best;
            ptr = if won { src } else { ptr };
        }
        for (open, flag) in [
            (i1_open, OPEN_I1),
            (d1_open, OPEN_D1),
            (i2_open, OPEN_I2),
            (d2_open, OPEN_D2),
        ] {
            ptr |= if open { flag } else { 0 };
        }
        h_out[t] = h;
        i1_out[t] = i1;
        d1_out[t] = d1;
        i2_out[t] = i2;
        d2_out[t] = d2;
        ptrs[t] = TbPtr(ptr);
        escalate |= [h, i1, d1, i2, d2]
            .iter()
            .fold(false, |any, s| any | s.needs_escalation());
    }
    escalate
}

fn tb_impl(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
    let gap_move = |open_flag: u8, cont: TbState, mv: TbMove| -> (TbState, TbMove) {
        if ptr.0 & open_flag != 0 {
            (MM, mv)
        } else {
            (cont, mv)
        }
    };
    match state {
        s if s == INS1 => gap_move(OPEN_I1, INS1, TbMove::Up),
        s if s == DEL1 => gap_move(OPEN_D1, DEL1, TbMove::Left),
        s if s == INS2 => gap_move(OPEN_I2, INS2, TbMove::Up),
        s if s == DEL2 => gap_move(OPEN_D2, DEL2, TbMove::Left),
        _ => match ptr.0 & SRC_MASK {
            0 => (MM, TbMove::Diag),
            1 => gap_move(OPEN_I1, INS1, TbMove::Up),
            2 => gap_move(OPEN_D1, DEL1, TbMove::Left),
            3 => gap_move(OPEN_I2, INS2, TbMove::Up),
            4 => gap_move(OPEN_D2, DEL2, TbMove::Left),
            _ => (MM, TbMove::Stop),
        },
    }
}

/// Boundary: a leading gap of length `k` pays the better of the two affine
/// pieces; the matching gap layers carry their own piece's cost.
fn two_piece_ramp<S: Score>(p: &TwoPieceParams<S>, k: usize, vertical: bool) -> LayerVec<S> {
    if k == 0 {
        return LayerVec::from_slice(&[
            S::zero(),
            S::neg_inf(),
            S::neg_inf(),
            S::neg_inf(),
            S::neg_inf(),
        ]);
    }
    let km1 = (k - 1) as f64;
    let c1 = S::from_f64(p.gap_open1.to_f64() + km1 * p.gap_extend1.to_f64());
    let c2 = S::from_f64(p.gap_open2.to_f64() + km1 * p.gap_extend2.to_f64());
    let (h, _) = c1.max_with(c2);
    let ni = S::neg_inf();
    if vertical {
        LayerVec::from_slice(&[h, c1, ni, c2, ni])
    } else {
        LayerVec::from_slice(&[h, ni, c1, ni, c2])
    }
}

macro_rules! two_piece_kernel {
    ($(#[$doc:meta])* $name:ident, id: $id:expr, kname: $kname:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name<S = i32>(PhantomData<S>);

        impl<S: Score> KernelSpec for $name<S> {
            type Sym = Base;
            type Score = S;
            type Params = TwoPieceParams<S>;

            fn meta() -> KernelMeta {
                KernelMeta {
                    id: KernelId($id),
                    name: $kname,
                    n_layers: 5,
                    tb_bits: 7,
                    objective: Objective::Maximize,
                    traceback: TracebackSpec::global(),
                }
            }

            #[inline]
            fn init_row(params: &Self::Params, j: usize) -> LayerVec<S> {
                two_piece_ramp(params, j, false)
            }

            #[inline]
            fn init_col(params: &Self::Params, i: usize) -> LayerVec<S> {
                two_piece_ramp(params, i, true)
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
                pe_impl(params, q, r, diag, up, left)
            }

            #[inline]
            fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
                tb_impl(state, ptr)
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
                let [h_out, i1_out, d1_out, i2_out, d2_out] = out else {
                    panic!("two-piece kernels score five layers");
                };
                isa::two_piece_planes(
                    Isa::detected(),
                    params,
                    q,
                    r,
                    diag[H],
                    up[H],
                    up[I1],
                    up[I2],
                    left[H],
                    left[D1],
                    left[D2],
                    h_out,
                    i1_out,
                    d1_out,
                    i2_out,
                    d2_out,
                    ptrs,
                )
            }
        }
    };
}

two_piece_kernel!(
    /// Kernel #5 — Global Two-piece Affine alignment (minimap2's long-read
    /// gap model).
    GlobalTwoPiece, id: 5, kname: "Global Two-piece Affine"
);

two_piece_kernel!(
    /// Kernel #13 — Banded Global Two-piece Affine alignment; the band comes
    /// from [`dphls_core::KernelConfig::banding`].
    BandedGlobalTwoPiece, id: 13, kname: "Banded Global Two-piece Affine"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::GlobalAffine;
    use crate::lane_check::{check_lone_guard_lane, check_plane_port, LANE_COUNTS};
    use crate::params::AffineParams;
    use dphls_core::{run_reference, Banding};
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn p() -> TwoPieceParams<i32> {
        TwoPieceParams::dna()
    }

    #[test]
    fn identical_sequences() {
        let s = dna("ACGTACGTAC");
        let out = run_reference::<GlobalTwoPiece>(&p(), s.as_slice(), s.as_slice(), Banding::None);
        assert_eq!(out.best_score, 20);
        assert_eq!(out.alignment.unwrap().cigar(), "10M");
    }

    #[test]
    fn short_gap_uses_piece_one() {
        // 2-base gap: piece1 = -4 -2 = -6, piece2 = -24 -1 = -25.
        let q = dna("ACGTACGT");
        let r = dna("ACGTGGACGT");
        let out = run_reference::<GlobalTwoPiece>(&p(), q.as_slice(), r.as_slice(), Banding::None);
        assert_eq!(out.best_score, 16 - 6);
        assert_eq!(out.alignment.unwrap().cigar(), "4M2D4M");
    }

    #[test]
    fn long_gap_switches_to_piece_two() {
        // 40-base gap: piece1 = -4 - 39*2 = -82; piece2 = -24 - 39 = -63.
        let q = dna("ACGTACGT");
        let mut r_str = String::from("ACGT");
        r_str.push_str(&"G".repeat(40));
        r_str.push_str("ACGT");
        let r = dna(&r_str);
        let out = run_reference::<GlobalTwoPiece>(&p(), q.as_slice(), r.as_slice(), Banding::None);
        assert_eq!(out.best_score, 16 - 63);
        let aln = out.alignment.unwrap();
        assert_eq!(aln.cigar(), "4M40D4M");
        assert!(aln.is_consistent());
    }

    #[test]
    fn two_piece_never_worse_than_single_affine_piece_one() {
        // With the same piece-1 parameters, adding the second piece can only
        // help (gap cost = max of the two pieces).
        let pa = AffineParams::<i32> {
            match_score: 2,
            mismatch: -4,
            gap_open: -4,
            gap_extend: -2,
        };
        for (qs, rs) in [
            ("ACGTACGTACGT", "ACGTACGT"),
            ("ACGT", "ACGTGGGGGGGGGGGGGGGGACGT"),
            ("ACCGTTACGGTA", "ATCGTTAGGGTA"),
        ] {
            let q = dna(qs);
            let r = dna(rs);
            let two =
                run_reference::<GlobalTwoPiece>(&p(), q.as_slice(), r.as_slice(), Banding::None);
            let one =
                run_reference::<GlobalAffine<i32>>(&pa, q.as_slice(), r.as_slice(), Banding::None);
            assert!(
                two.best_score >= one.best_score,
                "{qs} vs {rs}: {} < {}",
                two.best_score,
                one.best_score
            );
        }
    }

    #[test]
    fn boundary_ramp_takes_better_piece() {
        let pp = p();
        // k=2: piece1 = -6, piece2 = -25 -> H = -6
        assert_eq!(GlobalTwoPiece::<i32>::init_row(&pp, 2).get(H), -6);
        // k=30: piece1 = -4-58 = -62, piece2 = -24-29 = -53 -> H = -53
        assert_eq!(GlobalTwoPiece::<i32>::init_row(&pp, 30).get(H), -53);
        assert_eq!(GlobalTwoPiece::<i32>::init_row(&pp, 0).get(H), 0);
    }

    #[test]
    fn plane_port_matches_scalar_pe_at_every_width_and_precision() {
        // Five planes, source index, four open flags and the fused guard
        // against `pe_impl`, at the default i32, at i16, and at i8 where the
        // rails and sentinels must raise the flag exactly when a lane does.
        assert_eq!(
            check_plane_port::<GlobalTwoPiece>(&p(), (-3000, 6000), "i32"),
            0
        );
        let p16 = TwoPieceParams::<i16>::dna();
        assert_eq!(
            check_plane_port::<BandedGlobalTwoPiece<i16>>(&p16, (-300, 600), "i16"),
            0
        );
        let p8 = TwoPieceParams::<i8>::dna();
        let flagged = check_plane_port::<GlobalTwoPiece<i8>>(&p8, (-60, 188), "i8");
        assert!(flagged >= LANE_COUNTS.len(), "{flagged} cases flagged");
        check_lone_guard_lane::<GlobalTwoPiece<i8>>(&p8, "i8");
    }

    #[test]
    fn fsm_long_gap_states() {
        // Entering a long (piece-2) insertion from MM stays in INS2 until an
        // open flag appears.
        let ptr_ext = TbPtr(3); // src = I2, no open flags
        assert_eq!(tb_impl(MM, ptr_ext), (INS2, TbMove::Up));
        assert_eq!(tb_impl(INS2, ptr_ext), (INS2, TbMove::Up));
        let ptr_open = TbPtr(3 | OPEN_I2);
        assert_eq!(tb_impl(INS2, ptr_open), (MM, TbMove::Up));
        // Piece-2 deletion mirror.
        assert_eq!(tb_impl(DEL2, TbPtr(0)), (DEL2, TbMove::Left));
        assert_eq!(tb_impl(DEL2, TbPtr(OPEN_D2)), (MM, TbMove::Left));
        // Diag keeps MM.
        assert_eq!(tb_impl(MM, TbPtr(0)), (MM, TbMove::Diag));
    }

    #[test]
    fn metas() {
        assert_eq!(GlobalTwoPiece::<i32>::meta().id, KernelId(5));
        assert_eq!(GlobalTwoPiece::<i32>::meta().n_layers, 5);
        assert_eq!(GlobalTwoPiece::<i32>::meta().tb_bits, 7);
        assert_eq!(BandedGlobalTwoPiece::<i32>::meta().id, KernelId(13));
    }
}
