//! Multi-lane (SIMD-style) PE evaluation: the [`LaneKernel`] trait.
//!
//! The systolic back-end's wavefront inner loop is data-parallel across the
//! active PE lanes — the cells of one anti-diagonal have no dependencies on
//! each other, only on the two previous wavefronts. [`KernelSpec::pe`]
//! scores one cell per call, which forces the engine through a function
//! call, three [`LayerVec`] copies, and branchy `argmax` selection per cell.
//! The lane ports score many cells of one wavefront per call over
//! structure-of-arrays storage, so kernels can write their recurrence as
//! straight-line saturating adds and compare/select chains that LLVM turns
//! into vector instructions (`vpaddsw`/`vpmaxsw`-class code for the `i16`
//! alignment kernels) with no `portable_simd` / nightly dependency.
//!
//! There are four ports, and the engines call exactly three of them:
//!
//! * [`LaneKernel::pe_wavefront`] scores the **whole interior lane range of
//!   a wavefront in one call** over per-layer planes — the paper's "each
//!   scoring layer is its own partitioned array" (§5.1). The wavefront engine
//!   calls it for every multi-layer kernel; the affine and two-piece families
//!   in `dphls-kernels` override it with one loop over the planes' whole
//!   32-lane blocks and one fixed block over the last 32 lanes, which
//!   overlaps them (a lane's outputs depend only on its inputs, so scoring
//!   it twice is exact); every other kernel takes the default per-lane
//!   [`KernelSpec::pe`] loop.
//! * [`LaneKernel::pe_lanes_primary`] scores up to `LANES` lanes per call
//!   over flat score slices, padded to the full width inside the kernel. The
//!   wavefront engine calls it, in chunks over plane 0, for every
//!   single-layer kernel; the linear family overrides it. It stays chunked
//!   because a band-clipped short-read wavefront is ~19 cells: the padded
//!   fixed-width body has no remainder loop, and on that workload an
//!   exact-`n` body measured 6–16 % slower end to end.
//! * [`LaneKernel::pe_group`] scores `LANES` **independent** cells: lane `t`
//!   belongs to pair `t` of a group, not to row `t` of an anti-diagonal. The
//!   grouped (inter-sequence) engine calls it, once per cell of a band row,
//!   for single-layer kernels; every stream is a full-width array read
//!   forward, so there is no reversed reference, no partial chunk and no
//!   copy. The linear family overrides it with the same select core its
//!   `pe_lanes_primary` wraps — the recurrence is stated once.
//! * [`LaneKernel::pe_lanes`] is the wavefront chunk over [`LayerVec`]s.
//!   Nothing in the engines calls it any more; it is kept as the
//!   array-of-structures door measurement code times, and its default body
//!   transposes into planes and defers to [`LaneKernel::pe_wavefront`], so it
//!   still runs the kernel's live recurrence.
//!
//! Beside the ports sits one hook, [`LaneKernel::difference_form`]: a
//! kernel whose recurrence can be restated on bounded `i8` differences of
//! neighbouring cells ([`DifferenceForm`]) hands that form to the engine
//! for the pairs on which it proves it equal. Global Affine is the one
//! kernel that does; the default has none.
//!
//! Every default bottoms out in [`KernelSpec::pe`] (both chunked ports
//! default to `pe_wavefront`, which like `pe_group` defaults to a per-lane
//! `pe` loop), so each kernel gets correct lane ports for free and the
//! back-end can require `K: LaneKernel` unconditionally. Overrides must stay
//! **bit-identical** to the scalar path — same saturating [`Score`] ops, same
//! candidate order and strict-improvement tie-breaks as
//! [`crate::score::argmax`] — which the lane-vs-scalar and grouped property
//! suites enforce across scores *and* traceback pointers.

use crate::kernel::{KernelSpec, LayerVec, MAX_LAYERS};
use crate::score::Score;
use crate::traceback::TbPtr;

/// Number of wavefront lanes one [`LaneKernel::pe_lanes`] call scores at the
/// default (exact, `i16`) precision.
///
/// Eight lanes of `i16` scores fill a 128-bit vector register — wide enough
/// to saturate SSE2/NEON and to give AVX2 two chunks of useful work, narrow
/// enough that the band-clipped wavefronts of short-read workloads (band
/// half-width 8–32) still fill whole chunks.
pub const LANE_WIDTH: usize = 8;

/// The narrow `i8` fast-path lane width: 16 × `i8` fills the same 128-bit
/// register [`LANE_WIDTH`] fills with `i16`, halving the `pe_lanes` calls
/// per wavefront.
pub const I8_LANES_NARROW: usize = 16;

/// The wide `i8` fast-path lane width: 32 × `i8` fills a 256-bit (AVX2)
/// register, quartering the `pe_lanes` calls per wavefront.
pub const I8_LANES_WIDE: usize = 32;

/// Largest per-candidate score step (match/mismatch/gap parameter magnitude)
/// the `i8` fast path admits.
///
/// The escalation guard band ([`crate::score::I8_GUARD_MIN`]) is sound only
/// when one selection candidate moves a score by at most this much: a
/// candidate derived from the narrow `neg_inf` sentinel (−64) then lands at
/// `−64 + 32 = −32` or below, inside the band, so a clean (non-escalated)
/// run provably never selected one. Parameter sets exceeding this magnitude
/// are rejected by the `narrow_i8` conversions and run the exact path.
pub const I8_PARAM_LIMIT: i16 = 32;

/// Runtime choice of `i8` fast-path lane width — the value the host layers
/// thread through to pick the monomorphized engine instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum I8Lanes {
    /// 16 lanes (one 128-bit register of `i8`).
    #[default]
    X16,
    /// 32 lanes (one 256-bit register of `i8`).
    X32,
}

impl I8Lanes {
    /// The lane count this variant selects.
    pub fn width(self) -> usize {
        match self {
            I8Lanes::X16 => I8_LANES_NARROW,
            I8Lanes::X32 => I8_LANES_WIDE,
        }
    }
}

/// Runtime precision selection for the host engines: score every pair at the
/// kernel's native precision, or try the saturating-`i8` fast path first and
/// escalate dirty pairs. Results are bit-identical either way; only the
/// wall-clock changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LanePrecision {
    /// The exact path: [`LANE_WIDTH`] lanes at the kernel's score type.
    #[default]
    Exact,
    /// The adaptive path: saturating `i8` at the given width, with exact
    /// re-runs for pairs that trip the escalation guard.
    Adaptive(I8Lanes),
}

/// A kernel that can score a contiguous run of wavefront lanes per call.
///
/// `LANES` is the chunk width of one `pe_lanes` / `pe_lanes_primary` call. It
/// defaults to [`LANE_WIDTH`], so `K: LaneKernel` (and every existing bound
/// in the engines) keeps meaning the 8-lane exact path; the adaptive `i8`
/// path instantiates the same kernels at [`I8_LANES_NARROW`] /
/// [`I8_LANES_WIDE`]. [`LaneKernel::pe_wavefront`] has no width: it scores
/// however many lanes it is handed.
///
/// # Lane geometry
///
/// Lane `t` of a call scores DP cell `(i₀ + t, j₀ − t)` — consecutive lanes
/// walk *down* the anti-diagonal, so query symbols advance forward while
/// reference symbols advance backward. Every port is passed:
///
/// * `q`: `n` query symbols, lane `t` reads `q[t]`;
/// * `n` reference symbols — see each port for their order;
/// * `diag`/`up`/`left`: the three neighbor streams, lane `t` reads index `t`;
/// * `out`/`ptrs`: the output streams, lane `t` writes index `t`.
///
/// All streams have the same length `n ≥ 1` (`n ≤ LANES` for the two chunked
/// ports). The engine guarantees every lane is in-band and in-matrix and
/// that the neighbor values are already populated — the same contract as
/// [`KernelSpec::pe`], widened. [`LaneKernel::pe_group`] alone has no such
/// geometry: its lanes are cells of `LANES` different alignments.
pub trait LaneKernel<const LANES: usize = { LANE_WIDTH }>: KernelSpec {
    /// Scores `ptrs.len()` consecutive lanes of one wavefront — as many as
    /// the wavefront has — over **layer planes**.
    ///
    /// `diag`, `up`, `left` and `out` each hold one slice per scoring layer
    /// ([`KernelMeta::n_layers`](crate::KernelMeta) of them, layer 0 first),
    /// every slice `n` scores long; `r` is a forward slice of the **reversed**
    /// reference, so lane `t` reads `r[t]` beside `q[t]`. `ptrs` is the
    /// wavefront's row of the traceback memory itself, written in place.
    ///
    /// Returns `true` when any layer of any lane's output is inside the
    /// escalation guard band ([`Score::needs_escalation`]); exact score
    /// types return `false` and the check compiles away.
    ///
    /// The default implementation is the scalar fallback: one
    /// [`KernelSpec::pe`] call per lane. Overrides must produce bit-identical
    /// scores, traceback pointers and guard flag.
    ///
    /// The eight parameters mirror the hardware port list (three neighbor
    /// streams, two symbol streams, two result streams) — grouping them
    /// into a struct would only add a copy to the hot path.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn pe_wavefront(
        params: &Self::Params,
        q: &[Self::Sym],
        r: &[Self::Sym],
        diag: &[&[Self::Score]],
        up: &[&[Self::Score]],
        left: &[&[Self::Score]],
        out: &mut [&mut [Self::Score]],
        ptrs: &mut [TbPtr],
    ) -> bool {
        let cell = |planes: &[&[Self::Score]], t: usize| {
            let mut v = LayerVec::splat(planes.len(), planes[0][t]);
            for (layer, plane) in planes.iter().enumerate().skip(1) {
                v.set(layer, plane[t]);
            }
            v
        };
        let mut escalate = false;
        for (t, ptr) in ptrs.iter_mut().enumerate() {
            let (o, p) = Self::pe(
                params,
                q[t],
                r[t],
                &cell(diag, t),
                &cell(up, t),
                &cell(left, t),
            );
            for (plane, &score) in out.iter_mut().zip(o.as_slice()) {
                plane[t] = score;
                escalate |= score.needs_escalation();
            }
            *ptr = p;
        }
        escalate
    }

    /// Scores `q.len() ≤ LANES` consecutive lanes over [`LayerVec`]s, with
    /// the reference symbols **in memory order** (`r_rev` is a plain subslice
    /// of the reference; lane `t` reads `r_rev[n − 1 − t]`).
    ///
    /// The engine does not call this port; it is the array-of-structures
    /// door that measurement code outside the workspace times. The default
    /// implementation transposes the chunk into `[[Score; LANES]; MAX_LAYERS]`
    /// planes, calls [`Self::pe_wavefront`] and transposes back, so it runs
    /// whatever recurrence the kernel's plane port runs.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn pe_lanes(
        params: &Self::Params,
        q: &[Self::Sym],
        r_rev: &[Self::Sym],
        diag: &[LayerVec<Self::Score>],
        up: &[LayerVec<Self::Score>],
        left: &[LayerVec<Self::Score>],
        out: &mut [LayerVec<Self::Score>],
        ptrs: &mut [TbPtr],
    ) {
        let n = q.len();
        debug_assert!(
            (1..=LANES).contains(&n),
            "lane call must score 1..=LANES cells"
        );
        debug_assert!(
            r_rev.len() == n
                && diag.len() == n
                && up.len() == n
                && left.len() == n
                && out.len() == n
                && ptrs.len() == n,
            "lane slices must agree on the lane count"
        );
        let layers = Self::meta().n_layers;
        let planes = [[Self::Score::zero(); LANES]; MAX_LAYERS];
        let (mut d, mut u, mut l, mut o) = (planes, planes, planes, planes);
        let mut r = [r_rev[0]; LANES];
        for t in 0..n {
            r[t] = r_rev[n - 1 - t];
            for layer in 0..layers {
                d[layer][t] = diag[t].get(layer);
                u[layer][t] = up[t].get(layer);
                l[layer][t] = left[t].get(layer);
            }
        }
        let [dv, uv, lv] = [&d, &u, &l].map(|planes| planes.each_ref().map(|p| &p[..n]));
        Self::pe_wavefront(
            params,
            q,
            &r[..n],
            &dv[..layers],
            &uv[..layers],
            &lv[..layers],
            &mut o.each_mut().map(|p| &mut p[..n])[..layers],
            ptrs,
        );
        for (t, cell) in out.iter_mut().enumerate() {
            *cell = LayerVec::splat(layers, o[0][t]);
            for (layer, plane) in o.iter().enumerate().take(layers).skip(1) {
                cell.set(layer, plane[t]);
            }
        }
    }

    /// Scores `q.len() ≤ LANES` consecutive lanes with **flat single-layer
    /// ports**: the neighbor and output streams are plain `&[Score]` slices —
    /// in the engine, runs of plane 0 — and the reference symbols are in
    /// memory order as for [`Self::pe_lanes`]. The engine calls this, in
    /// `LANES`-wide chunks, for kernels whose
    /// [`KernelMeta::n_layers`](crate::KernelMeta) is 1: an override can pad
    /// every chunk to the full width and run a fixed-trip-count body with no
    /// remainder loop, which is what wins on band-clipped short-read
    /// wavefronts.
    ///
    /// Returns `true` when any **real** lane's output value is inside the
    /// escalation guard band ([`Score::needs_escalation`]) — the saturation
    /// check is fused into the lane body where the scores are still in
    /// registers. Exact score types return `false` unconditionally and the
    /// whole check compiles away; padded dead lanes are never consulted (they
    /// compute garbage that must not trip the guard).
    ///
    /// The default implementation reverses the chunk's reference symbols and
    /// defers to [`Self::pe_wavefront`] — flat single-layer streams *are*
    /// one-plane streams. Multi-layer kernels must not be called through
    /// this port.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn pe_lanes_primary(
        params: &Self::Params,
        q: &[Self::Sym],
        r_rev: &[Self::Sym],
        diag: &[Self::Score],
        up: &[Self::Score],
        left: &[Self::Score],
        out: &mut [Self::Score],
        ptrs: &mut [TbPtr],
    ) -> bool {
        debug_assert_eq!(
            Self::meta().n_layers,
            1,
            "pe_lanes_primary is only defined for single-layer kernels"
        );
        let n = q.len();
        debug_assert!(
            (1..=LANES).contains(&n),
            "lane call must score 1..=LANES cells"
        );
        let mut r = [r_rev[0]; LANES];
        for (t, sym) in r_rev.iter().rev().enumerate() {
            r[t] = *sym;
        }
        Self::pe_wavefront(
            params,
            q,
            &r[..n],
            &[diag],
            &[up],
            &[left],
            &mut [out],
            ptrs,
        )
    }

    /// Scores `LANES` **independent** cells of a single-layer kernel: lane
    /// `t` is a cell of its own alignment — the grouped engine puts pair `t`
    /// of a group in lane `t` — so nothing relates one lane's position to
    /// another's and every stream is a full-width array read **forward**
    /// (`q[t]` beside `r[t]`, no reversed reference, no partial chunk).
    ///
    /// There is no guard flag to return: the lanes are different pairs, each
    /// with a guard of its own, and which lanes are real at a cell only the
    /// caller knows — it reads [`Score::needs_escalation`] off `out` itself,
    /// after the row, where that is off the recurrence's critical path.
    ///
    /// The default implementation is the scalar fallback, one
    /// [`KernelSpec::pe`] call per lane; the linear family overrides it with
    /// the select core its [`Self::pe_lanes_primary`] wraps. Multi-layer
    /// kernels must not be called through this port.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn pe_group(
        params: &Self::Params,
        q: &[Self::Sym; LANES],
        r: &[Self::Sym; LANES],
        diag: &[Self::Score; LANES],
        up: &[Self::Score; LANES],
        left: &[Self::Score; LANES],
        out: &mut [Self::Score; LANES],
        ptrs: &mut [TbPtr; LANES],
    ) {
        debug_assert_eq!(
            Self::meta().n_layers,
            1,
            "pe_group is only defined for single-layer kernels"
        );
        let cell = |score| LayerVec::splat(1, score);
        for t in 0..LANES {
            let (o, p) = Self::pe(
                params,
                q[t],
                r[t],
                &cell(diag[t]),
                &cell(up[t]),
                &cell(left[t]),
            );
            out[t] = o.primary();
            ptrs[t] = p;
        }
    }

    /// The one hook onto a kernel's **difference form**: the same
    /// recurrence restated on bounded `i8` differences of neighbouring
    /// cells ([`DifferenceForm`]), which scores a wavefront at twice the
    /// lanes a vector of `i16` scores. A kernel that has one hands it,
    /// with its parameters, to `runner` — but only for a `q_len × r_len`
    /// pair on which it has proven the difference form's scores,
    /// pointers and best cell equal to its own run; otherwise it returns
    /// `None` and the engine runs the kernel itself.
    ///
    /// The engine asks only for runs this proof can cover: unbanded (no
    /// cell outside the band), unguarded, and under
    /// [`BestCellRule::BottomRight`](crate::BestCellRule), so the best
    /// score is one cell's. The default has no difference form.
    #[inline]
    fn difference_form<R: DifferenceRunner<Self>>(
        _params: &Self::Params,
        _q_len: usize,
        _r_len: usize,
        _runner: R,
    ) -> Option<R::Out>
    where
        Self: Sized,
    {
        None
    }
}

/// A kernel's recurrence restated on `i8` differences of neighbouring
/// cells, so that no stored value grows with the matrix: what
/// [`LaneKernel::difference_form`] hands the engine. It runs through the
/// engine's one wavefront loop like any kernel — its pointers, best cell
/// and structural counts are the kernel's own — and it names the one number
/// the differences do not hold: the best score, the bottom-right cell's
/// score in the kernel it restates.
pub trait DifferenceForm: LaneKernel + KernelSpec<Score = i8> {
    /// The bottom-right cell's score of the kernel this form restates, for
    /// a `q_len`-row query, from row `q_len` of this form's layers:
    /// `last_row[layer][j]` for columns `j = 0..=r`, column 0 the
    /// boundary value [`KernelSpec::init_col`] gave it.
    fn bottom_right(params: &Self::Params, q_len: usize, last_row: &[&[i8]]) -> i32;
}

/// The continuation [`LaneKernel::difference_form`] hands a kernel's
/// difference form to — the engine's side of the hook, a visitor in the
/// manner of `dphls_kernels::DnaKernelRunner`: it is instantiated with the
/// statically typed form and its parameters, and runs them.
pub trait DifferenceRunner<K: KernelSpec> {
    /// What a run returns.
    type Out;

    /// Runs the pair through the difference form `D` of kernel `K`.
    fn run<D: DifferenceForm<Sym = K::Sym>>(self, params: D::Params) -> Self::Out;
}

/// An exact-`i16` kernel with a saturating-`i8` companion — the dispatch
/// seam of the adaptive-precision path, placed at the kernel boundary (the
/// wavefront loop itself stays precision-oblivious).
///
/// `Lo` is the same recurrence instantiated at `Score = i8` and both fast
/// lane widths. The escalation contract: the adaptive engine scores a pair
/// with `Lo`, scanning every computed wavefront for
/// [`Score::needs_escalation`]
/// values; a clean run is **bit-identical** to the exact engine (scores,
/// traceback, best cell, stats), a dirty run is discarded and the pair
/// re-run with `Self` at `i16`. The cross-precision property suite enforces
/// this over the full kernel family.
pub trait AdaptiveKernel: LaneKernel + KernelSpec<Score = i16> {
    /// The `i8` companion kernel: same symbols, same recurrence, narrow
    /// scores, instantiable at both fast lane widths.
    type Lo: LaneKernel<{ I8_LANES_NARROW }>
        + LaneKernel<{ I8_LANES_WIDE }>
        + KernelSpec<Sym = Self::Sym, Score = i8>;

    /// Value-exact narrowing of the scoring parameters, or `None` when any
    /// magnitude exceeds [`I8_PARAM_LIMIT`] (the fast path would be unsound;
    /// the adaptive engine then escalates every pair).
    fn lo_params(params: &Self::Params) -> Option<<Self::Lo as KernelSpec>::Params>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelId, KernelMeta, Objective};
    use crate::score::{argmax, Score};
    use crate::traceback::TracebackSpec;

    /// A toy one-layer kernel relying entirely on the scalar fallback.
    struct Fallback;

    impl KernelSpec for Fallback {
        type Sym = i16;
        type Score = i32;
        type Params = ();

        fn meta() -> KernelMeta {
            KernelMeta {
                id: KernelId(1),
                name: "fallback",
                n_layers: 1,
                tb_bits: 2,
                objective: Objective::Maximize,
                traceback: TracebackSpec::global(),
            }
        }

        fn init_row(_: &(), j: usize) -> LayerVec<i32> {
            LayerVec::splat(1, -(j as i32))
        }

        fn init_col(_: &(), i: usize) -> LayerVec<i32> {
            LayerVec::splat(1, -(i as i32))
        }

        fn pe(
            _: &(),
            q: i16,
            r: i16,
            diag: &LayerVec<i32>,
            up: &LayerVec<i32>,
            left: &LayerVec<i32>,
        ) -> (LayerVec<i32>, TbPtr) {
            let sub = if q == r { 1 } else { -1 };
            let (best, ptr) = argmax([
                (diag.primary().add(sub), TbPtr::DIAG),
                (up.primary().add(-1), TbPtr::UP),
                (left.primary().add(-1), TbPtr::LEFT),
            ]);
            (LayerVec::splat(1, best), ptr)
        }
    }

    impl LaneKernel for Fallback {}
    impl LaneKernel<16> for Fallback {}

    #[test]
    fn fallback_matches_per_cell_pe() {
        let q = [1i16, 2, 3, 4];
        let r_rev = [4i16, 3, 2, 1]; // lane t reads r_rev[n-1-t] = t+1
        let mk = |vals: [i32; 4]| vals.map(|v| LayerVec::splat(1, v));
        let diag = mk([0, 1, 2, 3]);
        let up = mk([5, 4, 3, 2]);
        let left = mk([1, 1, 1, 1]);
        let mut out = [LayerVec::splat(1, 0i32); 4];
        let mut ptrs = [TbPtr::END; 4];
        <Fallback as LaneKernel>::pe_lanes(&(), &q, &r_rev, &diag, &up, &left, &mut out, &mut ptrs);
        // The flat port's default takes the same chunk as bare scores.
        let flat = |cells: &[LayerVec<i32>; 4]| cells.map(|c| c.primary());
        let (mut flat_out, mut flat_ptrs) = ([0i32; 4], [TbPtr::END; 4]);
        let escalate = <Fallback as LaneKernel>::pe_lanes_primary(
            &(),
            &q,
            &r_rev,
            &flat(&diag),
            &flat(&up),
            &flat(&left),
            &mut flat_out,
            &mut flat_ptrs,
        );
        assert!(!escalate, "exact scores never escalate");
        for t in 0..4 {
            let (want, wptr) = Fallback::pe(&(), q[t], r_rev[3 - t], &diag[t], &up[t], &left[t]);
            assert_eq!(out[t], want, "lane {t}");
            assert_eq!(ptrs[t], wptr, "lane {t}");
            assert_eq!(
                (flat_out[t], flat_ptrs[t]),
                (want.primary(), wptr),
                "lane {t}"
            );
        }
    }

    #[test]
    fn group_port_fallback_scores_independent_cells() {
        // Lane t is a cell of its own: symbols and neighbours unrelated to
        // the other lanes', read forward.
        let q = [1i16, 2, 3, 4, 5, 6, 7, 8];
        let r = [1i16, 9, 3, 9, 5, 9, 7, 9];
        let diag = [0i32, 1, 2, 3, 4, 5, 6, 7];
        let up = [5i32, 4, 3, 2, 1, 0, -1, -2];
        let left = [1i32; 8];
        let (mut out, mut ptrs) = ([0i32; 8], [TbPtr::END; 8]);
        <Fallback as LaneKernel>::pe_group(&(), &q, &r, &diag, &up, &left, &mut out, &mut ptrs);
        for t in 0..8 {
            let cell = |v| LayerVec::splat(1, v);
            let (want, wptr) = Fallback::pe(
                &(),
                q[t],
                r[t],
                &cell(diag[t]),
                &cell(up[t]),
                &cell(left[t]),
            );
            assert_eq!((out[t], ptrs[t]), (want.primary(), wptr), "lane {t}");
        }
    }

    #[test]
    fn lane_width_fits_a_vector_register() {
        assert_eq!(LANE_WIDTH * 16, 128); // 8 × i16 = one 128-bit register
        assert_eq!(I8_LANES_NARROW * 8, 128); // 16 × i8 = the same register
        assert_eq!(I8_LANES_WIDE * 8, 256); // 32 × i8 = one AVX2 register
        assert_eq!(I8Lanes::X16.width(), I8_LANES_NARROW);
        assert_eq!(I8Lanes::X32.width(), I8_LANES_WIDE);
        assert_eq!(LanePrecision::default(), LanePrecision::Exact);
    }

    /// The scalar fallback is width-generic: the same kernel type scores
    /// wider chunks when bound at a wider `LANES`.
    #[test]
    fn fallback_scores_wide_chunks() {
        let q: Vec<i16> = (0..12).collect();
        let r_rev: Vec<i16> = (0..12).rev().collect();
        let mk = |n: usize| vec![LayerVec::splat(1, 0i32); n];
        let (diag, up, left) = (mk(12), mk(12), mk(12));
        let mut out = mk(12);
        let mut ptrs = vec![TbPtr::END; 12];
        <Fallback as LaneKernel<16>>::pe_lanes(
            &(),
            &q,
            &r_rev,
            &diag,
            &up,
            &left,
            &mut out,
            &mut ptrs,
        );
        for t in 0..12 {
            let (want, wptr) = Fallback::pe(&(), q[t], r_rev[11 - t], &diag[t], &up[t], &left[t]);
            assert_eq!(out[t], want, "lane {t}");
            assert_eq!(ptrs[t], wptr, "lane {t}");
        }
    }
}
