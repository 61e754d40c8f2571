//! The scalar specification of the X-drop extension: the one-cell-per-
//! closure-call `i32` loop that was `dphls_systolic::run_xdrop` until the
//! engine moved onto position-indexed planes, kept verbatim as the oracle
//! the differential suite (`proptest_xdrop.rs`) holds the engine to, field
//! by field.

use dphls_systolic::xdrop::NEG;
use dphls_systolic::{XDropConfig, XDropRun};

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
pub fn xdrop_oracle<S, F>(q: &[S], r: &[S], sub: F, gap: i32, cfg: &XDropConfig) -> XDropRun
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
