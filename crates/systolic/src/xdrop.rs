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
//! against a golden model.

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

/// One wavefront's kept scores over a contiguous query-index range.
struct Wave {
    lo: usize,
    vals: Vec<i32>,
}

impl Wave {
    fn get(&self, i: usize) -> i32 {
        if i < self.lo {
            return NEG;
        }
        self.vals.get(i - self.lo).copied().unwrap_or(NEG)
    }
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
    let (m, n) = (q.len(), r.len());
    let (w, x) = (cfg.half_width, cfg.x as i64);

    // Wavefront 0 is the single origin cell H(0, 0) = 0.
    let mut prev2 = Wave {
        lo: 0,
        vals: vec![],
    }; // wavefront k-2
    let mut prev = Wave {
        lo: 0,
        vals: vec![0],
    }; // wavefront k-1
    let mut best = 0i32;
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
        let mut vals = vec![NEG; hi - lo + 1];
        let mut kept = false;
        let mut wf_best = NEG;
        let mut wf_argmax = lo;
        for i in lo..=hi {
            let j = k - i;
            let v = if i == 0 || j == 0 {
                // Boundary gap ramp, X-tested like any other cell but not
                // counted (the fixed-band engine's accounting is interior
                // cells only).
                (gap as i64)
                    .saturating_mul(k as i64)
                    .clamp(NEG as i64, i32::MAX as i64) as i32
            } else {
                let diag = prev2.get(i - 1);
                let up = prev.get(i - 1); // H(i-1, j)
                let left = prev.get(i); // H(i, j-1)
                if diag == NEG && up == NEG && left == NEG {
                    continue; // unreachable: every ancestor pruned
                }
                cells += 1;
                diag.saturating_add(sub(&q[i - 1], &r[j - 1]))
                    .max(up.saturating_add(gap))
                    .max(left.saturating_add(gap))
            };
            if (v as i64) >= best as i64 - x {
                vals[i - lo] = v;
                kept = true;
                if v > wf_best {
                    wf_best = v;
                    wf_argmax = i;
                }
                if v > best {
                    best = v;
                    best_cell = (i, j);
                }
            }
        }
        if !kept {
            // best - wavefront_max > x for every cell: terminate.
            terminated = true;
            break;
        }
        center = wf_argmax;
        prev2 = prev;
        prev = Wave { lo, vals };
    }

    XDropRun {
        score: best,
        best_cell,
        cells,
        wavefronts,
        terminated,
    }
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
