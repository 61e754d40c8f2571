//! Banded X-drop seed extension — the pruned production path behind the
//! mapping pipeline (`dphls-mapper`).
//!
//! [`run_xdrop`] lifts the two adaptive-pruning ideas of
//! `dphls_baselines::heuristics` into the engine crate, combined and in
//! wavefront order (the systolic iteration scheme of the block engine,
//! where every cell of an anti-diagonal is independent):
//!
//! - **X-drop early termination** (BLAST / Darwin-WGA / LOGAN style): a
//!   cell is dropped when its score falls more than `x` below the best
//!   score seen so far, and the extension terminates when an entire
//!   wavefront is dropped (`best - wavefront_max > x`).
//! - **Adaptive band re-centering** (Suzuki–Kasahara style): only a
//!   `2 × half_width + 2` window of each wavefront is computed, centered
//!   on the previous wavefront's argmax, so the band follows the optimal
//!   path's diagonal drift instead of provisioning a fixed band wide
//!   enough for the worst case.
//!
//! # How a wavefront is computed
//!
//! The specification is a scalar loop — one closure call, three bounds-
//! checked reads and one X-test per cell, a fresh vector per wavefront —
//! which now lives in `tests/common` as the oracle. The engine computes the
//! same five [`XDropRun`] fields, bit for bit, a wavefront at a time:
//!
//! - **Planes.** Three buffers indexed by query position (slot `i` of the
//!   wavefront-`k` plane holds `H(i, k − i)`), one allocation per call,
//!   rotated. With the reference reversed once, the three ancestors, the two
//!   symbol streams and the output of lanes `a ..= b` are six equal-length
//!   forward slices, scored by one exact-length loop of saturating adds and
//!   maxes with no index arithmetic and no bounds checks. A lane whose
//!   three ancestors are all pruned is marked, not counted, and dropped.
//! - **Live-interval trimming.** Each plane remembers the interval outside
//!   which it is all [`NEG`] (its buffer's stale interval is cleared before
//!   reuse). A lane can have a live ancestor only inside
//!   `[min(live₁.lo, live₂.lo + 1), max(live₁.hi, live₂.hi) + 1]`, so only
//!   that interval ∩ the window ∩ the matrix interior is scored — about
//!   half of the 66-cell window at the mapper's defaults.
//! - **The keep test.** A cell above the running best is always kept, so
//!   the running best *is* the prefix max of the wavefront: when the
//!   wavefront's max does not beat `best` the threshold is one constant and
//!   the test one select per lane; otherwise it is one serial max-scan.
//!   The window's next center is the first index of the wavefront max,
//!   `best_cell` the same index when it beats `best`, and the run ends when
//!   the max is below `best − x`. The two boundary ramp cells are offered
//!   in index order around the lanes, uncounted.
//!
//! # Two widths
//!
//! The body is generic over the lane score type and runs first on
//! saturating `i16`, where the baseline vector unit holds eight lanes a
//! register. That run is exact while `|gap| ≤ 1024` (and `gap ≤ 0`), every
//! `|sub|` the run evaluates is `≤ 1024`, `x ≤ 2048` and
//! `best ≤ i16::MAX − 1024`, with the narrow sentinel at `i16::MIN / 4`:
//! kept values lie in `[−x, best]`, so a candidate from a live ancestor is
//! `≥ −x − 1024 = −3072`, one from a pruned ancestor `≤ −8192 + 1024`, and
//! `max` picks the operand `i32` would; the `!= NEG` liveness test agrees
//! because no kept value reaches the sentinel; and `best + 1024` is
//! representable, so nothing saturates upward. A ramp below `i16::MIN` is
//! below every threshold at either width. The guard is sticky and checked
//! where each quantity is born — `gap` and `x` once, each substitution
//! score as the closure returns it, `best` when it moves — and a trip
//! abandons the narrow run: the call starts over on `i32`, the same body,
//! and reports that run alone. At `+2` a match a read longer than ~15.8 kb
//! crosses the `best` limit and finishes on `i32`, identically.
//!
//! A call makes two allocations (the reversed reference and the planes) and
//! one more if it escalates; none per wavefront.
//!
//! # Semantic contract
//!
//! The X-drop path is deliberately **not** bit-identical to the full-band
//! engine. Its contract is relational:
//!
//! 1. **Lower bound.** `run_xdrop(...).score` never exceeds the full
//!    (unpruned, unbanded) extension score — the maximum cell value of the
//!    complete Needleman–Wunsch extension matrix with the same scoring
//!    function. Every computed cell value is ≤ its exact counterpart, by
//!    induction over wavefronts: pruned or out-of-band inputs enter the
//!    recurrence as [`NEG`], and `max`/saturating-add are monotone.
//! 2. **Equality off the pruned set.** The score is *equal* to the full
//!    extension score whenever no terminated (dropped or out-of-band) cell
//!    lies on an optimal extension path. In particular, with
//!    `half_width ≥ q.len() + r.len()` and an `x` too large to ever fire,
//!    the run is exact.
//!
//! These properties — plus band-widening monotonicity of the fixed-band
//! engine — are enforced by the relational property suite in
//! `crates/systolic/tests/relational.rs` rather than by bit-comparison
//! against the full-band engine. Against its own scalar specification the
//! path *is* bit-identical, whichever width finishes the call:
//! `crates/systolic/tests/proptest_xdrop.rs`.

use dphls_core::Score;

/// Sentinel for pruned / out-of-band cells, deep enough below zero that a
/// saturating add can never climb back over a real score.
pub const NEG: i32 = i32::MIN / 4;

/// Configuration of the X-drop extension path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XDropConfig {
    /// Band half-width: each wavefront computes at most
    /// `2 * half_width + 2` cells around the previous wavefront's argmax.
    pub half_width: usize,
    /// X-drop threshold: a cell is dropped when its score falls more than
    /// `x` below the best score seen so far (`x ≥ 0`).
    pub x: i32,
}

impl XDropConfig {
    /// A configuration that never prunes for sequences of the given
    /// lengths: the band covers every wavefront and the threshold cannot
    /// fire. `run_xdrop` with this config computes the exact extension
    /// score (contract property 2).
    pub fn exhaustive(query_len: usize, ref_len: usize) -> Self {
        Self {
            half_width: query_len + ref_len + 1,
            x: i32::MAX,
        }
    }
}

/// Outcome of one X-drop extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XDropRun {
    /// Best extension score seen (≥ 0: the empty extension scores zero).
    pub score: i32,
    /// Cell `(i, j)` attaining `score` (1-based matrix coordinates;
    /// `(0, 0)` when the empty extension wins).
    pub best_cell: (usize, usize),
    /// Interior matrix cells computed (boundary ramps excluded, matching
    /// the fixed-band engine's cell accounting).
    pub cells: u64,
    /// Wavefronts (anti-diagonals) processed.
    pub wavefronts: u64,
    /// Whether the X-drop test terminated the extension before the matrix
    /// was exhausted.
    pub terminated: bool,
}

/// The envelope inside which a narrow run equals the exact one (module
/// docs, "Two widths").
struct Guard {
    /// Bound on `|gap|` and on every `|sub|` the run evaluates.
    step: i32,
    /// Bound on `x`.
    x_limit: i32,
    /// `best` above this leaves no room for one more step below `MAX`.
    best_limit: i32,
}

/// One instantiation width of the wavefront body: the exact `i32`, or the
/// saturating `i16` whose run a [`Guard`] certifies. Arithmetic is
/// [`Score`]'s: saturating `add`, truncating `from_i32` (the narrow width
/// converts range-checked values only).
trait Lane: Score + Ord + Into<i32> + std::ops::Sub<Output = Self> {
    /// Pruned / out-of-band sentinel: what every plane slot outside its
    /// live interval holds.
    const NEG: Self;
    /// What the score pass writes where all three ancestors are
    /// [`Lane::NEG`]: below every threshold, so the keep pass prunes it
    /// like any other cell.
    const SKIP: Self;
    /// `None` for the exact width.
    const GUARD: Option<Guard>;
}

impl Lane for i32 {
    const NEG: Self = NEG;
    const SKIP: Self = i32::MIN;
    const GUARD: Option<Guard> = None;
}

impl Lane for i16 {
    const NEG: Self = i16::MIN / 4;
    const SKIP: Self = i16::MIN;
    const GUARD: Option<Guard> = Some(Guard {
        step: 1024,
        x_limit: 2048,
        best_limit: i16::MAX as i32 - 1024,
    });
}

/// A live interval `[lo, end)` with nothing in it, shaped so that `min` on
/// the low end and `max` on the high end ignore it.
const EMPTY: (usize, usize) = (usize::MAX, 0);

/// One wavefront's kept scores, indexed by query position (slot `i` holds
/// `H(i, k − i)`). Every slot outside `live` holds [`Lane::NEG`].
struct Plane<'a, T> {
    cells: &'a mut [T],
    live: (usize, usize),
}

/// The keep-test state of the wavefront being written.
struct Front<T> {
    /// Running best: the next cell is kept iff it is ≥ `run − x`.
    run: T,
    /// Largest kept value above [`Lane::NEG`] and the first index holding
    /// it — the next window's center.
    max: T,
    argmax: usize,
    kept: bool,
    live: (usize, usize),
}

impl<T: Lane> Front<T> {
    /// X-tests one boundary-ramp cell; returns what its plane slot holds.
    #[inline(always)]
    fn offer(&mut self, i: usize, v: T, x: T) -> T {
        if v < self.run - x {
            return T::NEG;
        }
        self.kept = true;
        if v > self.max {
            (self.max, self.argmax) = (v, i);
        }
        self.run = self.run.max(v);
        self.live = (self.live.0.min(i), i + 1);
        v
    }
}

/// The boundary gap ramp `gap · k` of wavefront `k`, at lane width.
#[inline(always)]
fn ramp<T: Lane>(gap: i32, k: usize) -> T {
    let wide = i64::from(gap)
        .saturating_mul(i64::try_from(k).unwrap_or(i64::MAX))
        .clamp(i64::from(NEG), i64::from(i32::MAX)) as i32;
    // The narrow width runs on `gap ≤ 0` only, and a ramp at or below its
    // `SKIP` is below every threshold either width can hold it to.
    T::from_i32(wide.max(T::SKIP.into()))
}

/// Lanes per [`score_block`] call: what keeps its `u16` counter — no wider
/// than a narrow lane, so that it does not set the vector width — from
/// wrapping whatever the band (an unbounded `half_width` puts a whole
/// anti-diagonal in one wavefront).
const BLOCK: usize = 1 << 15;

/// Scores up to [`BLOCK`] interior lanes of one wavefront into `out`;
/// every stream is an equal-length subslice starting at the same lane.
/// Returns the lanes' maximum, how many had no live ancestor, and whether
/// a substitution score left the guard's envelope.
///
/// Each stream is its own top-level slice argument and `gap` a local on
/// purpose: that is what lets the compiler prove the streams disjoint and
/// widen the loops without run-time overlap checks. The closure gets a
/// pass of its own (through `out`) so that neither its `i32` result nor
/// whatever loads it makes set the vector width of the recurrence, which
/// holds no type wider than a lane.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_block<T: Lane, S, F: Fn(&S, &S) -> i32>(
    diag: &[T],
    up: &[T],
    left: &[T],
    q: &[S],
    r_rev: &[S],
    out: &mut [T],
    sub: &F,
    gap: T,
) -> (T, u16, bool) {
    let n = out.len();
    assert!(n <= BLOCK);
    let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
    let (q, r_rev) = (&q[..n], &r_rev[..n]);
    let mut off_step = false;
    for t in 0..n {
        let s = sub(&q[t], &r_rev[t]);
        if let Some(Guard { step, .. }) = T::GUARD {
            off_step |= s.wrapping_add(step) as u32 > 2 * step as u32;
        }
        out[t] = T::from_i32(s);
    }
    let (mut max, mut dead) = (T::SKIP, 0u16);
    for t in 0..n {
        let unreachable = (diag[t] == T::NEG) & (up[t] == T::NEG) & (left[t] == T::NEG);
        let v = diag[t]
            .add(out[t])
            .max(up[t].add(gap))
            .max(left[t].add(gap));
        let v = if unreachable { T::SKIP } else { v };
        out[t] = v;
        max = max.max(v);
        dead += u16::from(unreachable);
    }
    (max, dead, off_step)
}

/// [`score_block`] over a lane range of any length: the maximum, how many
/// lanes **had** a live ancestor (the wavefront's `cells`), and the guard
/// flag.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_lanes<T: Lane, S, F: Fn(&S, &S) -> i32>(
    diag: &[T],
    up: &[T],
    left: &[T],
    q: &[S],
    r_rev: &[S],
    out: &mut [T],
    sub: &F,
    gap: T,
) -> (T, u64, bool) {
    let n = out.len();
    let (mut max, mut reached, mut off_step) = (T::SKIP, n as u64, false);
    for at in (0..n).step_by(BLOCK) {
        let end = n.min(at + BLOCK);
        let (block_max, dead, block_off) = score_block(
            &diag[at..end],
            &up[at..end],
            &left[at..end],
            &q[at..end],
            &r_rev[at..end],
            &mut out[at..end],
            sub,
            gap,
        );
        max = max.max(block_max);
        reached -= u64::from(dead);
        off_step |= block_off;
    }
    (max, reached, off_step)
}

/// The wavefront body, at lane width `T`. `None` when the width's guard
/// tripped and the call must start over on the exact width.
#[inline(always)]
fn extend<T: Lane, S, F: Fn(&S, &S) -> i32>(
    q: &[S],
    r_rev: &[S],
    sub: &F,
    gap: i32,
    cfg: &XDropConfig,
) -> Option<XDropRun> {
    if let Some(guard) = T::GUARD {
        if !(-guard.step..=0).contains(&gap) || cfg.x > guard.x_limit {
            return None;
        }
    }
    let (m, n) = (q.len(), r_rev.len());
    let w = cfg.half_width;
    let (x, gap_lane) = (T::from_i32(cfg.x), T::from_i32(gap));

    // Three planes in one allocation, rotated: wavefronts k-2, k-1 and the
    // one being written (in the buffer wavefront k-3 lived in).
    let mut store = vec![T::NEG; 3 * (m + 1)];
    let (first, rest) = store.split_at_mut(m + 1);
    let (second, third) = rest.split_at_mut(m + 1);
    second[0] = T::zero(); // wavefront 0 is the single origin cell H(0, 0) = 0
    let mut prev2 = Plane {
        cells: first,
        live: EMPTY,
    };
    let mut prev = Plane {
        cells: second,
        live: (0, 1),
    };
    let mut out = Plane {
        cells: third,
        live: EMPTY,
    };

    let mut best = T::zero();
    let mut best_cell = (0usize, 0usize);
    let mut center = 0usize; // argmax query index of the previous wavefront
    let mut cells = 0u64;
    let mut wavefronts = 0u64;
    let mut terminated = false;

    for k in 1..=(m + n) {
        // Band: the matrix-valid i-range of wavefront k intersected with
        // the window around the previous argmax. `center + w + 1` (not
        // `+ w`) because the argmax cell's two wavefront-(k+1) children
        // have query indices `center` and `center + 1`. Saturating, so a
        // "never prune" `half_width` of `usize::MAX` is just a wide band.
        let lo = k.saturating_sub(n).max(center.saturating_sub(w));
        let hi = k.min(m).min(center.saturating_add(w).saturating_add(1));
        if lo > hi {
            // The band slid off the valid range (can only happen hard
            // against a matrix corner): nothing left to extend.
            terminated = true;
            break;
        }
        wavefronts += 1;
        let (stale_lo, stale_end) = out.live;
        if stale_lo < stale_end {
            out.cells[stale_lo..stale_end].fill(T::NEG);
        }
        let mut front = Front {
            run: best,
            max: T::NEG,
            argmax: lo,
            kept: false,
            live: EMPTY,
        };

        // Boundary gap ramps, X-tested like any other cell but not counted
        // (the fixed-band engine's accounting is interior cells only).
        if lo == 0 {
            out.cells[0] = front.offer(0, ramp(gap, k), x);
        }
        // Interior lanes with an ancestor inside a live interval: `left`
        // and `up` are slots i and i-1 of wavefront k-1, `diag` slot i-1 of
        // wavefront k-2. The rest of the window stays `NEG`, uncounted.
        let a = lo
            .max(1)
            .max(prev.live.0.min(prev2.live.0.saturating_add(1)));
        let b = hi.min(k - 1).min(prev.live.1.max(prev2.live.1));
        if a <= b {
            let lanes = &mut out.cells[a..=b];
            let (max, reached, off_step) = score_lanes(
                &prev2.cells[a - 1..b],
                &prev.cells[a - 1..b],
                &prev.cells[a..=b],
                &q[a - 1..b],
                &r_rev[a + n - k..=b + n - k],
                lanes,
                sub,
                gap_lane,
            );
            if off_step {
                return None;
            }
            cells += reached;
            // A cell above the running best is always kept, so the running
            // best is the prefix max — and constant across a wavefront that
            // sets no new best.
            let threshold = front.run - x;
            if max < threshold {
                lanes.fill(T::NEG);
            } else {
                if max > front.run {
                    let mut run = front.run;
                    for v in lanes.iter_mut() {
                        run = run.max(*v);
                        if *v < run - x {
                            *v = T::NEG;
                        }
                    }
                    front.run = max;
                } else {
                    for v in lanes.iter_mut() {
                        if *v < threshold {
                            *v = T::NEG;
                        }
                    }
                }
                front.kept = true;
                if max > front.max {
                    let first = lanes.iter().position(|&v| v == max);
                    front.max = max;
                    front.argmax = a + first.expect("the wavefront max is kept");
                }
                let alive = |v: &T| *v != T::NEG;
                if let (Some(head), Some(tail)) =
                    (lanes.iter().position(alive), lanes.iter().rposition(alive))
                {
                    front.live = (front.live.0.min(a + head), a + tail + 1);
                }
            }
        }
        if hi == k {
            out.cells[k] = front.offer(k, ramp(gap, k), x);
        }

        if !front.kept {
            // best - wavefront_max > x for every cell: terminate.
            terminated = true;
            break;
        }
        center = front.argmax;
        if front.run > best {
            best = front.run;
            best_cell = (center, k - center);
            if T::GUARD.is_some_and(|guard| best.into() > guard.best_limit) {
                return None;
            }
        }
        out.live = front.live;
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut out);
    }

    Some(XDropRun {
        score: best.into(),
        best_cell,
        cells,
        wavefronts,
        terminated,
    })
}

/// Extends `q` against `r` from `(0, 0)` with banded X-drop DP in wavefront
/// order. `sub` scores a symbol comparison and `gap` (negative) is the
/// linear gap penalty; the engine is symbol-agnostic so the same path
/// serves base-space and signal-space extensions.
///
/// See the module docs for the semantic contract.
///
/// # Panics
///
/// Panics if either sequence is empty, `cfg.half_width` is zero, or
/// `cfg.x` is negative.
pub fn run_xdrop<S, F>(q: &[S], r: &[S], sub: F, gap: i32, cfg: &XDropConfig) -> XDropRun
where
    S: Copy,
    F: Fn(&S, &S) -> i32,
{
    assert!(
        !q.is_empty() && !r.is_empty(),
        "sequences must be non-empty"
    );
    assert!(cfg.half_width > 0, "band half-width must be non-zero");
    assert!(cfg.x >= 0, "x-drop threshold must be non-negative");
    // r[k - i - 1] walks backwards as i rises; reversed once, every
    // wavefront reads the reference as a forward slice like the query.
    let r_rev: Vec<S> = r.iter().rev().copied().collect();
    extend::<i16, S, F>(q, &r_rev, &sub, gap, cfg).unwrap_or_else(|| {
        extend::<i32, S, F>(q, &r_rev, &sub, gap, cfg).expect("the exact width has no guard")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny 2-symbol alphabet keeps the unit tests self-contained; the
    // DNA-facing integration lives in the relational suite and the mapper.
    fn score(a: &u8, b: &u8) -> i32 {
        if a == b {
            2
        } else {
            -3
        }
    }

    /// Exact full-matrix extension score: max over every cell of the NW
    /// extension matrix (including the zero at the origin).
    fn full_extension(q: &[u8], r: &[u8], gap: i32) -> i32 {
        let (m, n) = (q.len(), r.len());
        let mut prev: Vec<i32> = (0..=n as i32).map(|j| j * gap).collect();
        let mut best = 0;
        for i in 1..=m {
            let mut cur = vec![0i32; n + 1];
            cur[0] = i as i32 * gap;
            for j in 1..=n {
                cur[j] = (prev[j - 1] + score(&q[i - 1], &r[j - 1]))
                    .max(prev[j] + gap)
                    .max(cur[j - 1] + gap);
                best = best.max(cur[j]);
            }
            prev = cur;
        }
        best
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let s = [0u8, 1, 0, 1, 1, 0, 0, 1];
        let cfg = XDropConfig {
            half_width: 4,
            x: 20,
        };
        let run = run_xdrop(&s, &s, score, -2, &cfg);
        assert_eq!(run.score, 16); // 8 matches x 2
        assert_eq!(run.best_cell, (8, 8));
        assert!(!run.terminated);
    }

    #[test]
    fn unrelated_sequences_terminate_early() {
        let q = [0u8; 64];
        let r = [1u8; 64];
        let cfg = XDropConfig {
            half_width: 8,
            x: 10,
        };
        let run = run_xdrop(&q, &r, score, -2, &cfg);
        assert_eq!(run.score, 0); // empty extension wins
        assert!(run.terminated);
        assert!(run.wavefronts < 16, "wavefronts {}", run.wavefronts);
        assert!(run.cells < 200, "cells {}", run.cells);
    }

    #[test]
    fn exhaustive_config_is_exact() {
        let q = [0u8, 0, 1, 1, 0, 1, 0, 0, 1, 1];
        let r = [0u8, 1, 1, 1, 0, 0, 0, 1, 1, 0];
        let run = run_xdrop(
            &q,
            &r,
            score,
            -2,
            &XDropConfig::exhaustive(q.len(), r.len()),
        );
        assert_eq!(run.score, full_extension(&q, &r, -2));
        assert!(!run.terminated);
        assert_eq!(run.cells, (q.len() * r.len()) as u64);
    }

    #[test]
    fn unbounded_half_width_equals_exhaustive() {
        // `usize::MAX` is the natural "never prune" band; the window bound
        // `center + w + 1` used to overflow on it.
        let q: Vec<u8> = (0..40u32).map(|i| (i % 3 == 0) as u8).collect();
        let r: Vec<u8> = (0..60u32).map(|i| (i % 3 == 0) as u8).collect();
        let unbounded = XDropConfig {
            half_width: usize::MAX,
            x: i32::MAX,
        };
        let want = run_xdrop(&q, &r, score, -2, &XDropConfig::exhaustive(40, 60));
        assert_eq!(want.score, 80);
        assert_eq!(want.cells, 2400);
        assert_eq!(run_xdrop(&q, &r, score, -2, &unbounded), want);
    }

    #[test]
    fn score_is_lower_bound_of_full_extension() {
        let q = [0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0];
        let r = [1u8, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1];
        let exact = full_extension(&q, &r, -2);
        for w in [1usize, 2, 4, 8] {
            for x in [0i32, 5, 50] {
                let run = run_xdrop(&q, &r, score, -2, &XDropConfig { half_width: w, x });
                assert!(run.score <= exact, "w {w} x {x}: {} > {exact}", run.score);
                assert!(run.score >= 0);
            }
        }
    }

    #[test]
    fn band_re_centering_tracks_diagonal_drift() {
        // Query = reference with every 6th symbol deleted: the optimal path
        // drifts steadily off the main diagonal. A narrow adaptive band
        // must still follow it and recover a near-full score.
        let r: Vec<u8> = (0..120u32).map(|i| (i % 3 != 0) as u8).collect();
        let q: Vec<u8> = r
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 6 != 5)
            .map(|(_, &b)| b)
            .collect();
        let cfg = XDropConfig {
            half_width: 4,
            x: 60,
        };
        let run = run_xdrop(&q, &r, score, -2, &cfg);
        let exact = full_extension(&q, &r, -2);
        assert!(
            run.score >= exact - 6,
            "adaptive band lost the path: {} vs {exact}",
            run.score
        );
        // ... while computing a small fraction of the matrix.
        assert!(run.cells < (q.len() * r.len()) as u64 / 4);
    }

    /// A noisy copy of a pseudo-random 2-symbol sequence.
    fn noisy_pair(len: usize, seed: u32) -> (Vec<u8>, Vec<u8>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let q: Vec<u8> = (0..len).map(|_| (next() % 2) as u8).collect();
        let mut r = Vec::with_capacity(len + len / 8);
        for &b in &q {
            match next() % 12 {
                0 => r.push(1 - b),
                1 => r.extend([b, b]),
                2 => {}
                _ => r.push(b),
            }
        }
        (q, r)
    }

    fn at_width<T: Lane>(
        q: &[u8],
        r: &[u8],
        sub: impl Fn(&u8, &u8) -> i32,
        gap: i32,
        cfg: XDropConfig,
    ) -> Option<XDropRun> {
        let r_rev: Vec<u8> = r.iter().rev().copied().collect();
        extend::<T, u8, _>(q, &r_rev, &sub, gap, &cfg)
    }

    #[test]
    fn narrow_and_wide_instantiations_agree_on_eligible_inputs() {
        for seed in 1..24u32 {
            let (q, r) = noisy_pair(40 + 17 * seed as usize, seed);
            for (half_width, x) in [(1, 0), (4, 30), (32, 100), (usize::MAX, 2048)] {
                for (gap, scale) in [(-2, 1), (0, 1), (-1024, 300)] {
                    let cfg = XDropConfig { half_width, x };
                    let sub = |a: &u8, b: &u8| scale * score(a, b);
                    let narrow = at_width::<i16>(&q, &r, sub, gap, cfg);
                    let wide = at_width::<i32>(&q, &r, sub, gap, cfg);
                    assert!(wide.is_some(), "the exact width has no guard");
                    // `None` is the best-limit guard (scores × 300 cross the
                    // ceiling); everything else must be the exact answer.
                    if narrow.is_some() {
                        assert_eq!(narrow, wide, "seed {seed} gap {gap} {cfg:?}");
                    } else {
                        assert!(wide.unwrap().score > i32::from(i16::MAX) - 1024);
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_width_declines_exactly_outside_its_envelope() {
        let (q, r) = noisy_pair(300, 7);
        let cfg = |x| XDropConfig { half_width: 8, x };
        let narrow = |sub: &dyn Fn(&u8, &u8) -> i32, gap, x| {
            at_width::<i16>(&q, &r, sub, gap, cfg(x)).is_some()
        };
        assert!(narrow(&score, -2, 100));
        assert!(narrow(&score, -1024, 2048));
        assert!(narrow(&score, 0, 0));
        assert!(!narrow(&score, -1025, 100), "|gap| above the step");
        assert!(!narrow(&score, 1, 100), "positive gap");
        assert!(!narrow(&score, -2, 2049), "x above its limit");
        // One substitution score off the step, wherever it falls.
        let flat = |s: i32| {
            let sub = move |_: &u8, _: &u8| s;
            at_width::<i16>(&q[..6], &r[..6], sub, -2, cfg(100)).is_some()
        };
        assert!(flat(1024) && flat(-1024));
        assert!(!flat(1025) && !flat(-1025) && !flat(i32::MIN) && !flat(i32::MAX));
        // `best` may stand at the limit, not above it.
        let climbs_to = |s: i32| {
            let sub = move |_: &u8, _: &u8| s;
            at_width::<i16>(&q[..31], &q[..31], sub, -1024, cfg(2048)).map(|run| run.score)
        };
        assert_eq!(climbs_to(1023), Some(31 * 1023));
        assert_eq!(31 * 1023, i32::from(i16::MAX) - 1024 - 30);
        assert_eq!(climbs_to(1024), None);
    }

    #[test]
    fn ramp_clamps_at_both_widths() {
        assert_eq!(ramp::<i32>(-2, 20_000), -40_000);
        assert_eq!(ramp::<i16>(-2, 16_384), i16::MIN);
        assert_eq!(ramp::<i16>(-2, 20_000), i16::MIN, "saturates, not wraps");
        assert_eq!(ramp::<i16>(-2, 1_000), -2_000);
        assert_eq!(ramp::<i32>(-30_000, 100_000), NEG);
        assert_eq!(ramp::<i32>(i32::MIN, usize::MAX), NEG);
        assert_eq!(ramp::<i32>(7, usize::MAX), i32::MAX);
    }

    #[test]
    fn lane_counters_outlast_the_widest_anti_diagonal() {
        // 70 000 lanes in one wavefront (what `half_width = usize::MAX`
        // allows on a 70 kb pair): past `u16`, past one `BLOCK`, and a dead
        // stretch straddling a block edge.
        let n = 70_000;
        let neg = <i16 as Lane>::NEG;
        let mut up = vec![0i16; n];
        up[BLOCK - 10..BLOCK + 90].fill(neg);
        let dead = vec![neg; n];
        let syms = vec![0u8; n];
        let mut out = vec![0i16; n];
        let (max, reached, off_step) =
            score_lanes(&dead, &up, &dead, &syms, &syms, &mut out, &score, -2i16);
        assert_eq!((max, reached, off_step), (-2, n as u64 - 100, false));
        assert_eq!(out[BLOCK - 11], -2);
        assert_eq!(out[BLOCK - 10..BLOCK + 90], [<i16 as Lane>::SKIP; 100]);
        let (_, reached, _) =
            score_lanes(&dead, &dead, &dead, &syms, &syms, &mut out, &score, -2i16);
        assert_eq!(reached, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_half_width_panics() {
        run_xdrop(
            &[0u8],
            &[0u8],
            score,
            -1,
            &XDropConfig {
                half_width: 0,
                x: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_x_panics() {
        run_xdrop(
            &[0u8],
            &[0u8],
            score,
            -1,
            &XDropConfig {
                half_width: 1,
                x: -1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_query_panics() {
        run_xdrop(
            &[],
            &[0u8],
            score,
            -1,
            &XDropConfig {
                half_width: 1,
                x: 1,
            },
        );
    }
}
