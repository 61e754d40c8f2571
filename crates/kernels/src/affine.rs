//! Affine-gap-penalty kernels (Gotoh): Global Affine (#2), Local Affine
//! (#4), and Banded Local Affine (#12, no traceback — the BSW comparand).
//!
//! Three scoring layers per cell (`N_LAYERS = 3`): `H` (layer 0), `I`
//! (layer 1, vertical gaps consuming the query) and `D` (layer 2, horizontal
//! gaps consuming the reference). The 4-bit traceback pointer packs the H
//! direction (2 bits) plus "gap opened here" flags for I and D — exactly why
//! the paper quotes `ap_uint<4>` for kernel #2 (§4 step 5).
//!
//! # The difference form of Global Affine
//!
//! Where it provably gives the same answer, Global Affine runs as
//! `GlobalAffineDiff`: the Gotoh recurrence on differences of neighbouring
//! cells (Suzuki & Kasahara, BMC Bioinformatics 2018; minimap2's `ksw2`),
//! four `i8` layers a cell instead of three `i16` ones, so a 512-bit vector
//! scores 64 lanes instead of 32 and a slot is 4 bytes instead of 6:
//!
//! ```text
//! u = H(i,j) − H(i−1,j)   v = H(i,j) − H(i,j−1)   a = I(i,j) − H(i,j)   b = D(i,j) − H(i,j)
//! ```
//!
//! **Equality.** Every term a cell compares is the `i16` run's term less one
//! offset, `Z = H(i−1,j−1)`: `H(i−1,j) = Z + v↑`, `H(i,j−1) = Z + u←`,
//! `I(i−1,j) = Z + v↑ + a↑` and `D(i,j−1) = Z + u← + b←`, so
//!
//! ```text
//! A = I(i,j) − H(i−1,j) = max(a↑ + extend, open)      (open wins only if strictly greater)
//! B = D(i,j) − H(i,j−1) = max(b← + extend, open)
//! H(i,j) − Z = argmax(s, v↑ + A, u← + B)              (DIAG, UP, LEFT; ties to the first)
//! u = (H − Z) − v↑   v = (H − Z) − u←   a = A − u   b = B − v
//! ```
//!
//! Each max sees the `i16` run's two terms shifted by the same `Z`, in the
//! same order under the same tie rule, so while neither run saturates the
//! direction bits and gap-open flags are the same bytes and the walk is the
//! same path. Nothing reads the diagonal neighbour. The boundary rows are
//! the ramps' steps (`open`, then `extend`), and `I(0,j)` / `D(i,0) = −∞`
//! is `a` / `b` = `i8::MIN`, whose sum with `extend` saturates at `i8::MIN`,
//! strictly below every admitted `open`. `H(q,r)` itself is never stored:
//! the engine reports `H(q,0) + Σ v` over row `q`, which the preserved row
//! holds once the last strip ends ([`DifferenceForm::bottom_right`]).
//!
//! **The `i8` envelope.** Let `o ≤ e ≤ 0` be open and extend, `smax` the
//! larger substitution score and `Δ = max(smax − o, 0)`. Then
//!
//! * `u, v ∈ [o, Δ]`. Below: `H ≥ I ≥ H↑ + o`. Above, by `H`'s source:
//!   diagonal gives `u = s − v↑ ≤ smax − o` (as `v ≥ o`); vertical gives
//!   `u ≤ e`; horizontal is a gap run from some column `j − k` that row
//!   `i − 1` can also take (on row 0 because `o ≤ e`), so
//!   `u(i,j) ≤ u(i,j−k)`, down to column 0 where `u ∈ {o, e}`;
//! * `A, B ∈ [o, e]` and `a, b ∈ [o − Δ, 0]`;
//! * the sums a lane forms: `a↑ + e ≥ o − Δ + e` and `v↑ + A ∈ [2o, Δ + e]`.
//!
//! So no `i8` operation saturates on a real value when `2o ≥ −128`,
//! `Δ ≤ 127` and `o + e − Δ > −128`; DNA's `+2 / −3 / −5 / −1` gives
//! `Δ = 7`.
//!
//! **The reference bound.** The comparand is the kernel's own run at its
//! score type `S`, which equals the true recurrence only while it neither
//! saturates nor lets its `−∞` sentinel (`S::neg_inf()`, −16384 at `i16`)
//! win a comparison. The all-gap path bounds every `H` below by
//! `2o + (q + r)·e`, and every candidate is at most one step (`o + e` or a
//! substitution) below an `H`; no path scores above `min(q, r)·max(smax, 0)`.
//! When that floor is above `S::neg_inf()` and that ceiling below
//! `S::pos_inf()`, both runs compute the true recurrence. At `i16` with the
//! DNA parameters that admits every pair with `q + r` up to 16 367, so
//! 1500-bp and 4 kb pairs. The gate (`difference_params`) checks envelope
//! and bound per pair; the engine adds its own conditions (unbanded,
//! unguarded, best cell bottom-right) before it asks.

use crate::isa::{self, Isa};
use crate::params::AffineParams;
use dphls_core::score::argmax;
use dphls_core::{
    AdaptiveKernel, BestCellRule, DifferenceForm, DifferenceRunner, KernelId, KernelMeta,
    KernelSpec, LaneKernel, LayerVec, Objective, Score, TbMove, TbPtr, TbState, TracebackSpec,
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
    isa::over_blocks::<{ isa::BLOCK }>(
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

/// Lanes in one whole block of the difference body: 64 `i8` lanes, one
/// 512-bit vector of the widest ISA level.
pub(crate) const DIFF_BLOCK: usize = 64;

// Layer indices of the difference form.
const U: usize = 0;
const V: usize = 1;
const A: usize = 2;
const B: usize = 3;

/// `a` on row 0 and `b` on column 0, where `I` / `D` are −∞: the sum with
/// any admitted `extend` saturates here, strictly below every `open`.
const NO_GAP: i8 = i8::MIN;

/// Global Affine (#2) in difference form — see the module note: four `i8`
/// layers `[u, v, a, b]`, the kernel's own pointers and walk, run by the
/// engine only where [`difference_params`] proved it equal to
/// [`GlobalAffine`]. Its plane port has no guard: it returns `false`, as it
/// never runs guarded.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GlobalAffineDiff;

/// The `i8` parameters of `p`'s difference form when it provably equals
/// [`GlobalAffine<S>`] on a `q × r` pair — `p` inside the `i8` envelope and
/// `GlobalAffine<S>` neither saturating nor reaching its sentinel there
/// (the module note derives both) — else `None`.
fn difference_params<S: Score>(
    p: &AffineParams<S>,
    q: usize,
    r: usize,
) -> Option<AffineParams<i8>> {
    let int = |s: S| {
        let v = s.to_f64();
        (v.fract() == 0.0 && v.abs() <= 128.0).then_some(v as i64)
    };
    let (m, x) = (int(p.match_score)?, int(p.mismatch)?);
    let (o, e) = (int(p.gap_open)?, int(p.gap_extend)?);
    let (smin, smax) = (m.min(x), m.max(x));
    let delta = (smax - o).max(0);
    let envelope = o <= e && e <= 0 && 2 * o >= -128 && smin >= -128 && delta <= 127;
    let envelope = envelope && o + e - delta > -128;
    let (q, r) = (i64::try_from(q).ok()?, i64::try_from(r).ok()?);
    let floor = 2 * o + q.checked_add(r)?.checked_mul(e)? + (o + e).min(smin);
    let ceiling = q.min(r).checked_mul(smax.max(0))?;
    let exact = floor as f64 > S::neg_inf().to_f64() && (ceiling as f64) < S::pos_inf().to_f64();
    let narrow = |v: i64| v as i8;
    (envelope && exact).then(|| AffineParams {
        match_score: narrow(m),
        mismatch: narrow(x),
        gap_open: narrow(o),
        gap_extend: narrow(e),
    })
}

/// The difference form's boundary: the steps of the Gotoh ramp (`open`,
/// then `extend`) down column 0 (`u`) or along row 0 (`v`), and `NO_GAP`
/// for the gap layer that is −∞ there. Layers no cell reads are 0.
#[inline]
fn difference_ramp(p: &AffineParams<i8>, k: usize, vertical: bool) -> LayerVec<i8> {
    let step = match k {
        0 => 0,
        1 => p.gap_open,
        _ => p.gap_extend,
    };
    let mut cell = LayerVec::splat(4, 0);
    if vertical {
        cell.set(U, step);
        cell.set(B, NO_GAP);
    } else {
        cell.set(V, step);
        cell.set(A, NO_GAP);
    }
    cell
}

/// The difference form's per-cell recurrence (the module note's four
/// lines): the oracle its plane body is held to, and the engine's scalar
/// `j = 1` cell once a wavefront — inlined there, as the generic `i16`
/// recurrence is.
#[inline]
fn difference_pe(
    p: &AffineParams<i8>,
    q: Base,
    r: Base,
    up: &LayerVec<i8>,
    left: &LayerVec<i8>,
) -> (LayerVec<i8>, TbPtr) {
    let (v_up, u_left) = (up.get(V), left.get(U));
    // A = I − H↑ and B = D − H←: extend unless opening is strictly better.
    let (ia, i_opened) = up.get(A).add(p.gap_extend).max_with(p.gap_open);
    let (db, d_opened) = left.get(B).add(p.gap_extend).max_with(p.gap_open);
    // H − H↖ = argmax(s, v↑ + A, u← + B).
    let sub = if q == r { p.match_score } else { p.mismatch };
    let (h, dir) = argmax([
        (sub, TbPtr::DIAG),
        (v_up.add(ia), TbPtr::UP),
        (u_left.add(db), TbPtr::LEFT),
    ]);
    let (u, v) = (h.sub(v_up), h.sub(u_left));
    let flags = (i_opened as u8 * FLAG_I_OPEN) | (d_opened as u8 * FLAG_D_OPEN);
    (
        LayerVec::from_slice(&[u, v, ia.sub(u), db.sub(v)]),
        TbPtr::with_flags(dir, flags),
    )
}

/// The difference form's plane body: [`difference_pe`] over one
/// wavefront's lanes, in [`DIFF_BLOCK`]-lane blocks through
/// `isa::over_blocks` and widened by `isa::difference_planes` like
/// [`affine_planes`]. It reads two layers of the upper neighbour (`v`, `a`)
/// and two of the left (`u`, `b`), and none of the diagonal. Returns
/// `false`: the difference form runs only where it was proven exact, never
/// guarded.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn difference_planes(
    p: &AffineParams<i8>,
    q: &[Base],
    r: &[Base],
    v_up: &[i8],
    a_up: &[i8],
    u_left: &[i8],
    b_left: &[i8],
    u_out: &mut [i8],
    v_out: &mut [i8],
    a_out: &mut [i8],
    b_out: &mut [i8],
    ptrs: &mut [TbPtr],
) -> bool {
    isa::over_blocks::<DIFF_BLOCK>(
        ptrs.len(),
        #[inline(always)]
        |l| {
            difference_lanes(
                p,
                l.of(q),
                l.of(r),
                l.of(v_up),
                l.of(a_up),
                l.of(u_left),
                l.of(b_left),
                l.of_mut(u_out),
                l.of_mut(v_out),
                l.of_mut(a_out),
                l.of_mut(b_out),
                l.of_mut(ptrs),
            );
            false
        },
    )
}

/// One run of [`difference_planes`]: an exact loop over `ptrs.len()` lanes,
/// every plane its own slice parameter for the reason [`affine_lanes`]
/// gives.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn difference_lanes(
    p: &AffineParams<i8>,
    q: &[Base],
    r: &[Base],
    v_up: &[i8],
    a_up: &[i8],
    u_left: &[i8],
    b_left: &[i8],
    u_out: &mut [i8],
    v_out: &mut [i8],
    a_out: &mut [i8],
    b_out: &mut [i8],
    ptrs: &mut [TbPtr],
) {
    let n = ptrs.len();
    let (q, r, v_up, a_up) = (&q[..n], &r[..n], &v_up[..n], &a_up[..n]);
    let (u_left, b_left) = (&u_left[..n], &b_left[..n]);
    let (u_out, v_out) = (&mut u_out[..n], &mut v_out[..n]);
    let (a_out, b_out) = (&mut a_out[..n], &mut b_out[..n]);
    let AffineParams {
        match_score,
        mismatch,
        gap_open,
        gap_extend,
    } = *p;
    for t in 0..n {
        let (ia, i_opened) = a_up[t].add(gap_extend).max_with(gap_open);
        let (db, d_opened) = b_left[t].add(gap_extend).max_with(gap_open);
        let mut h = if q[t] == r[t] { match_score } else { mismatch };
        let mut dir = TbPtr::DIAG.0;
        let (b, won) = h.max_with(v_up[t].add(ia));
        h = b;
        dir = if won { TbPtr::UP.0 } else { dir };
        let (b, won) = h.max_with(u_left[t].add(db));
        h = b;
        dir = if won { TbPtr::LEFT.0 } else { dir };
        let (u, v) = (h.sub(v_up[t]), h.sub(u_left[t]));
        u_out[t] = u;
        v_out[t] = v;
        a_out[t] = ia.sub(u);
        b_out[t] = db.sub(v);
        let i_flag = if i_opened { FLAG_I_OPEN << 2 } else { 0 };
        let d_flag = if d_opened { FLAG_D_OPEN << 2 } else { 0 };
        ptrs[t] = TbPtr(dir | i_flag | d_flag);
    }
}

impl KernelSpec for GlobalAffineDiff {
    type Sym = Base;
    type Score = i8;
    type Params = AffineParams<i8>;

    fn meta() -> KernelMeta {
        KernelMeta {
            n_layers: 4,
            ..GlobalAffine::<i16>::meta()
        }
    }

    #[inline]
    fn init_row(params: &AffineParams<i8>, j: usize) -> LayerVec<i8> {
        difference_ramp(params, j, false)
    }

    #[inline]
    fn init_col(params: &AffineParams<i8>, i: usize) -> LayerVec<i8> {
        difference_ramp(params, i, true)
    }

    #[inline]
    fn pe(
        params: &AffineParams<i8>,
        q: Base,
        r: Base,
        _diag: &LayerVec<i8>,
        up: &LayerVec<i8>,
        left: &LayerVec<i8>,
    ) -> (LayerVec<i8>, TbPtr) {
        difference_pe(params, q, r, up, left)
    }

    #[inline]
    fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
        affine_tb(state, ptr)
    }
}

impl<const W: usize> LaneKernel<W> for GlobalAffineDiff {
    #[inline]
    fn pe_wavefront(
        params: &AffineParams<i8>,
        q: &[Base],
        r: &[Base],
        _diag: &[&[i8]],
        up: &[&[i8]],
        left: &[&[i8]],
        out: &mut [&mut [i8]],
        ptrs: &mut [TbPtr],
    ) -> bool {
        let [u_out, v_out, a_out, b_out] = out else {
            panic!("the difference form scores four layers");
        };
        isa::difference_planes(
            Isa::detected(),
            params,
            q,
            r,
            up[V],
            up[A],
            left[U],
            left[B],
            u_out,
            v_out,
            a_out,
            b_out,
            ptrs,
        )
    }
}

impl DifferenceForm for GlobalAffineDiff {
    /// `H(q, 0) = open + (q − 1)·extend`, then one `v` a column.
    fn bottom_right(params: &AffineParams<i8>, q_len: usize, last_row: &[&[i8]]) -> i32 {
        let (o, e) = (i32::from(params.gap_open), i32::from(params.gap_extend));
        let h0 = o + (q_len as i32 - 1) * e;
        last_row[V][1..].iter().fold(h0, |h, &v| h + i32::from(v))
    }
}

macro_rules! affine_kernel {
    (
        $(#[$doc:meta])*
        $name:ident, id: $id:expr, kname: $kname:expr,
        clamp: $clamp:expr, tb: $tbspec:expr, tb_bits: $tb_bits:expr,
        init_row: $init_row:expr, init_col: $init_col:expr,
        difference: $difference:expr
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

            #[inline]
            fn difference_form<R: DifferenceRunner<Self>>(
                params: &AffineParams<S>,
                q_len: usize,
                r_len: usize,
                runner: R,
            ) -> Option<R::Out> {
                let form: fn(&AffineParams<S>, usize, usize) -> Option<AffineParams<i8>> =
                    $difference;
                form(params, q_len, r_len).map(|p| runner.run::<GlobalAffineDiff>(p))
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
    init_col: |p, i| affine_ramp(p, i, true),
    difference: difference_params
);

affine_kernel!(
    /// Kernel #4 — Local Affine alignment (Smith-Waterman-Gotoh).
    LocalAffine, id: 4, kname: "Local Affine (Smith-Waterman-Gotoh)",
    clamp: true, tb: TracebackSpec::local(), tb_bits: 4,
    init_row: |_, _| zero_affine_init(),
    init_col: |_, _| zero_affine_init(),
    difference: |_, _, _| None
);

affine_kernel!(
    /// Kernel #12 — Banded Local Affine alignment, score-only (the paper
    /// disables traceback to match the BSW accelerator \[12\]); the band comes
    /// from [`dphls_core::KernelConfig::banding`].
    BandedLocalAffine, id: 12, kname: "Banded Local Affine",
    clamp: true, tb: TracebackSpec::score_only(BestCellRule::AllCells), tb_bits: 0,
    init_row: |_, _| zero_affine_init(),
    init_col: |_, _| zero_affine_init(),
    difference: |_, _, _| None
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane_check::{
        check_lone_guard_lane, check_plane_port, check_unguarded_port, LANE_COUNTS,
    };
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
    fn difference_port_matches_its_scalar_pe_across_its_block_edges() {
        // The 64-lane blocks: the lane counts every plane port is held at,
        // and one short of / exactly / one past two whole blocks (127 ends
        // on a last block overlapping 63 lanes, 129 on one overlapping 63
        // after two whole blocks).
        let counts: Vec<usize> = LANE_COUNTS.into_iter().chain([127, 128, 129]).collect();
        let p8 = AffineParams::<i8>::dna();
        check_unguarded_port::<GlobalAffineDiff>(&p8, (-128, 256), &counts, "difference");
        let steep = AffineParams::<i8> {
            match_score: 116,
            mismatch: -128,
            gap_open: -62,
            gap_extend: 0,
        };
        check_unguarded_port::<GlobalAffineDiff>(&steep, (-128, 256), &counts, "steep");
    }

    /// Every interior cell of a `q × r` Global Affine matrix in difference
    /// form against the `i16` matrix: `[u, v, a, b]` against the
    /// differences of `H`, `I` and `D`, and the pointer byte for byte.
    fn difference_matrix_matches(p: &AffineParams<i16>, q: &[Base], r: &[Base], ctx: &str) {
        let p8 = difference_params(p, q.len(), r.len()).expect("inside the gate");
        let (_, m) = run_reference_full::<GlobalAffine>(p, q, r, Banding::None);
        let (_, d) = run_reference_full::<GlobalAffineDiff>(&p8, q, r, Banding::None);
        for i in 1..=q.len() {
            for j in 1..=r.len() {
                let (c, h) = (m.cell(i, j), m.score(i, j));
                let want = [
                    h - m.score(i - 1, j),
                    h - m.score(i, j - 1),
                    c.get(1) - h,
                    c.get(2) - h,
                ]
                .map(|x| i8::try_from(x).expect("inside the envelope"));
                assert_eq!(d.cell(i, j).as_slice(), want, "{ctx}: cell ({i}, {j})");
                assert_eq!(d.tb(i, j), m.tb(i, j), "{ctx}: pointer ({i}, {j})");
            }
        }
        let row: Vec<i8> = (0..=r.len()).map(|j| d.cell(q.len(), j).get(V)).collect();
        let corner = GlobalAffineDiff::bottom_right(&p8, q.len(), &[&[], &row]);
        assert_eq!(
            corner,
            i32::from(m.score(q.len(), r.len())),
            "{ctx}: H(q, r)"
        );
    }

    #[test]
    fn the_difference_form_is_the_i16_matrix_cell_by_cell() {
        let mut sim = dphls_seq::gen::ReadSimulator::new(0xD1FF);
        let schemes = [
            ("DNA", p16()),
            (
                "open == extend",
                AffineParams {
                    gap_open: -2,
                    gap_extend: -2,
                    ..p16()
                },
            ),
            (
                "extend 0",
                AffineParams {
                    gap_extend: 0,
                    ..p16()
                },
            ),
            (
                "open −62",
                AffineParams {
                    gap_open: -62,
                    ..p16()
                },
            ),
            (
                "match 116",
                AffineParams {
                    match_score: 116,
                    ..p16()
                },
            ),
            (
                "mismatch −128",
                AffineParams {
                    mismatch: -128,
                    ..p16()
                },
            ),
        ];
        for (name, p) in schemes {
            for (len, error) in [(1, 0.0), (17, 0.0), (40, 0.1), (63, 0.3), (70, 1.0)] {
                let (r, q) = sim.read_pair(len, error);
                let ctx = format!("{name}, {len} bp at {error}");
                difference_matrix_matches(&p, q.as_slice(), r.as_slice(), &ctx);
            }
        }
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
