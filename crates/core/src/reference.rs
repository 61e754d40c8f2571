//! The reference DP engine: a plain full-matrix evaluation of a
//! [`KernelSpec`], used as the golden model for the systolic back-end
//! (the paper's C-simulation verification step) and as the core of the CPU
//! baselines.

use crate::alignment::{Alignment, AlnOp};
use crate::config::Banding;
use crate::kernel::{KernelSpec, LayerVec, Objective};
use crate::score::Score;
use crate::traceback::{BestCellRule, TbMove, TbPtr, WalkKind};

/// Result of evaluating a kernel on one sequence pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DpOutput<S> {
    /// Best score per the kernel's [`BestCellRule`] (layer 0).
    pub best_score: S,
    /// Cell `(i, j)` holding the best score (the traceback start).
    pub best_cell: (usize, usize),
    /// The traceback path, for kernels that perform one.
    pub alignment: Option<Alignment>,
    /// Number of interior cells actually computed (banding ablations).
    pub cells_computed: u64,
}

/// Deterministic best-cell tracker shared by the reference and systolic
/// engines so both resolve score ties identically: better score wins; equal
/// scores prefer the smaller `(i, j)` lexicographically.
#[derive(Debug, Clone)]
pub struct BestTracker<S> {
    objective: Objective,
    best: S,
    cell: (usize, usize),
    any: bool,
}

impl<S: Score> BestTracker<S> {
    /// Creates an empty tracker.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            best: objective.worst(),
            cell: (0, 0),
            any: false,
        }
    }

    /// Offers a candidate cell score.
    pub fn offer(&mut self, score: S, i: usize, j: usize) {
        let replace = !self.any
            || self.objective.better(score, self.best)
            || (score == self.best && (i, j) < self.cell);
        if replace {
            self.best = score;
            self.cell = (i, j);
            self.any = true;
        }
    }

    /// Merges another tracker (used by the systolic reduction stage).
    pub fn merge(&mut self, other: &BestTracker<S>) {
        if other.any {
            self.offer(other.best, other.cell.0, other.cell.1);
        }
    }

    /// Best (score, cell) seen so far, or the objective's worst if nothing
    /// was offered.
    pub fn best(&self) -> (S, (usize, usize)) {
        (self.best, self.cell)
    }

    /// Whether any cell was offered.
    pub fn is_populated(&self) -> bool {
        self.any
    }
}

/// A filled DP matrix exposed for tests and debugging.
#[derive(Debug, Clone)]
pub struct Matrix<S> {
    q: usize,
    r: usize,
    cells: Vec<LayerVec<S>>,
    tb: Vec<TbPtr>,
}

impl<S: Score> Matrix<S> {
    /// Score vector of cell `(i, j)` (`0..=Q`, `0..=R`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn cell(&self, i: usize, j: usize) -> &LayerVec<S> {
        assert!(i <= self.q && j <= self.r, "matrix index out of range");
        &self.cells[i * (self.r + 1) + j]
    }

    /// Primary-layer score of cell `(i, j)`.
    pub fn score(&self, i: usize, j: usize) -> S {
        self.cell(i, j).primary()
    }

    /// Stored traceback pointer of interior cell `(i, j)` (`1..=Q`, `1..=R`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are not interior.
    pub fn tb(&self, i: usize, j: usize) -> TbPtr {
        assert!(
            (1..=self.q).contains(&i) && (1..=self.r).contains(&j),
            "traceback pointers exist only for interior cells"
        );
        self.tb[(i - 1) * self.r + (j - 1)]
    }

    /// Query (row) count.
    pub fn query_len(&self) -> usize {
        self.q
    }

    /// Reference (column) count.
    pub fn ref_len(&self) -> usize {
        self.r
    }
}

/// Runs a kernel on one sequence pair with the reference engine.
///
/// `query` spans the matrix rows, `reference` the columns. Banding prunes
/// cells with `|i − j| > half_width`; pruned cells hold the objective's worst
/// value so the recurrence never selects them.
///
/// # Panics
///
/// Panics if either sequence is empty.
///
/// See `dphls-kernels` for concrete kernels; this is the generic driver
/// every engine and baseline shares.
pub fn run_reference<K: KernelSpec>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    banding: Banding,
) -> DpOutput<K::Score> {
    let (out, _) = run_reference_full::<K>(params, query, reference, banding);
    out
}

/// Like [`run_reference`] but also returns the filled matrix (tests).
pub fn run_reference_full<K: KernelSpec>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    banding: Banding,
) -> (DpOutput<K::Score>, Matrix<K::Score>) {
    assert!(
        !query.is_empty() && !reference.is_empty(),
        "sequences must be non-empty"
    );
    let meta = K::meta();
    let (q, r) = (query.len(), reference.len());
    let worst: LayerVec<K::Score> = LayerVec::splat(meta.n_layers, meta.objective.worst());
    let mut m = Matrix {
        q,
        r,
        cells: vec![worst; (q + 1) * (r + 1)],
        tb: vec![TbPtr::END; q * r],
    };

    // Boundary initialization (paper §4 step 2).
    for j in 0..=r {
        if banding.contains(0, j) {
            let v = K::init_row(params, j);
            debug_assert_eq!(v.len(), meta.n_layers, "init_row layer count mismatch");
            m.cells[j] = v;
        }
    }
    for i in 1..=q {
        if banding.contains(i, 0) {
            let v = K::init_col(params, i);
            debug_assert_eq!(v.len(), meta.n_layers, "init_col layer count mismatch");
            m.cells[i * (r + 1)] = v;
        }
    }

    // Matrix fill.
    let stride = r + 1;
    let mut cells_computed = 0u64;
    let mut tracker = BestTracker::new(meta.objective);
    for i in 1..=q {
        for j in 1..=r {
            if !banding.contains(i, j) {
                continue;
            }
            let diag = &m.cells[(i - 1) * stride + (j - 1)];
            let up = &m.cells[(i - 1) * stride + j];
            let left = &m.cells[i * stride + (j - 1)];
            let (out, ptr) = K::pe(params, query[i - 1], reference[j - 1], diag, up, left);
            debug_assert_eq!(out.len(), meta.n_layers, "pe layer count mismatch");
            cells_computed += 1;
            offer_if_eligible(&mut tracker, meta.traceback.best, out.primary(), i, j, q, r);
            m.cells[i * stride + j] = out;
            m.tb[(i - 1) * r + (j - 1)] = ptr;
        }
    }

    let (best_score, best_cell) = tracker.best();
    let alignment = meta
        .traceback
        .walk
        .map(|walk| walk_traceback::<K>(&|i, j| m.tb(i, j), best_cell, walk));
    (
        DpOutput {
            best_score,
            best_cell,
            alignment,
            cells_computed,
        },
        m,
    )
}

/// Offers `(score, i, j)` to the tracker if the cell is eligible under the
/// best-cell rule. Shared with the systolic engine's per-PE local trackers.
pub fn offer_if_eligible<S: Score>(
    tracker: &mut BestTracker<S>,
    rule: BestCellRule,
    score: S,
    i: usize,
    j: usize,
    q: usize,
    r: usize,
) {
    let eligible = match rule {
        BestCellRule::BottomRight => i == q && j == r,
        BestCellRule::AllCells => true,
        BestCellRule::LastRow => i == q,
        BestCellRule::LastRowOrCol => i == q || j == r,
    };
    if eligible {
        tracker.offer(score, i, j);
    }
}

/// Walks the traceback from `start` using stored pointers, applying the
/// kernel's FSM ([`KernelSpec::tb_step`]) and the walk kind's boundary/stop
/// rules (paper §2.2.3). Shared by the reference and systolic engines.
///
/// # Panics
///
/// Panics if the kernel FSM fails to make progress (a kernel bug).
pub fn walk_traceback<K: KernelSpec>(
    tb_at: &dyn Fn(usize, usize) -> TbPtr,
    start: (usize, usize),
    walk: WalkKind,
) -> Alignment {
    let mut state = K::tb_start_state();
    let (mut i, mut j) = start;
    let mut rev: Vec<AlnOp> = Vec::with_capacity(i + j);
    let max_steps = 2 * (i + j) + 4;
    let mut steps = 0usize;
    while i > 0 && j > 0 {
        steps += 1;
        assert!(steps <= max_steps, "traceback failed to make progress");
        let ptr = tb_at(i, j);
        let (next_state, mv) = K::tb_step(state, ptr);
        state = next_state;
        match mv {
            TbMove::Stop => break,
            TbMove::Diag => {
                rev.push(AlnOp::Diag);
                i -= 1;
                j -= 1;
            }
            TbMove::Up => {
                rev.push(AlnOp::Up);
                i -= 1;
            }
            TbMove::Left => {
                rev.push(AlnOp::Left);
                j -= 1;
            }
        }
    }
    // Boundary completion depends on the strategy (Fig 1's four variants).
    match walk {
        WalkKind::Global => {
            while i > 0 {
                rev.push(AlnOp::Up);
                i -= 1;
            }
            while j > 0 {
                rev.push(AlnOp::Left);
                j -= 1;
            }
        }
        WalkKind::SemiGlobal => {
            while i > 0 {
                rev.push(AlnOp::Up);
                i -= 1;
            }
        }
        WalkKind::Local | WalkKind::Overlap => {}
    }
    rev.reverse();
    Alignment::new(rev, (i, j), start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_prefers_better_then_smaller_cell() {
        let mut t = BestTracker::<i32>::new(Objective::Maximize);
        t.offer(5, 3, 3);
        t.offer(5, 2, 9); // tie, smaller i wins
        assert_eq!(t.best(), (5, (2, 9)));
        t.offer(5, 2, 4); // tie, smaller j wins
        assert_eq!(t.best(), (5, (2, 4)));
        t.offer(7, 9, 9); // better score wins regardless
        assert_eq!(t.best(), (7, (9, 9)));
        t.offer(6, 1, 1); // worse, ignored
        assert_eq!(t.best(), (7, (9, 9)));
    }

    #[test]
    fn tracker_minimize() {
        let mut t = BestTracker::<i32>::new(Objective::Minimize);
        t.offer(5, 1, 1);
        t.offer(3, 2, 2);
        t.offer(4, 3, 3);
        assert_eq!(t.best(), (3, (2, 2)));
    }

    #[test]
    fn tracker_merge_behaves_like_offers() {
        let mut a = BestTracker::<i32>::new(Objective::Maximize);
        a.offer(4, 5, 5);
        let mut b = BestTracker::<i32>::new(Objective::Maximize);
        b.offer(4, 2, 2);
        a.merge(&b);
        assert_eq!(a.best(), (4, (2, 2)));
        let empty = BestTracker::<i32>::new(Objective::Maximize);
        a.merge(&empty); // merging empty changes nothing
        assert_eq!(a.best(), (4, (2, 2)));
    }

    #[test]
    fn eligibility_rules() {
        let mk = || BestTracker::<i32>::new(Objective::Maximize);
        let mut t = mk();
        offer_if_eligible(&mut t, BestCellRule::BottomRight, 1, 3, 4, 4, 4);
        assert!(!t.is_populated());
        offer_if_eligible(&mut t, BestCellRule::BottomRight, 1, 4, 4, 4, 4);
        assert!(t.is_populated());

        let mut t = mk();
        offer_if_eligible(&mut t, BestCellRule::LastRow, 1, 3, 4, 4, 4);
        assert!(!t.is_populated());
        offer_if_eligible(&mut t, BestCellRule::LastRow, 1, 4, 1, 4, 4);
        assert!(t.is_populated());

        let mut t = mk();
        offer_if_eligible(&mut t, BestCellRule::LastRowOrCol, 1, 2, 4, 4, 4);
        assert!(t.is_populated());

        let mut t = mk();
        offer_if_eligible(&mut t, BestCellRule::AllCells, 1, 2, 2, 4, 4);
        assert!(t.is_populated());
    }
}
