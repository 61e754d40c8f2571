//! The wavefront loop's traceback memory.
//!
//! The hardware keeps the traceback matrix in `NPE` banks, one per PE, with
//! consecutive wavefronts at consecutive addresses, so every PE writes the
//! same address of its own bank each cycle (paper §5.2); the cycle model
//! charges that layout. The software loop keeps its order — wavefront after
//! wavefront, the lanes of one wavefront side by side — but stores only the
//! lanes that exist: wavefront `w` of strip `c` holds its live lanes
//! `lo..=hi` as one contiguous run, which [`TbMem::lanes_mut`] hands the lane
//! ports to fill in place. The memory therefore holds exactly one entry per
//! computed cell, whatever the strip height or the band, and needs no clear
//! between runs: a per-wavefront table says where each run starts, and a
//! cell outside every run reads as [`TbPtr::END`].
//!
//! ```text
//! cell (i, j), 1-based:   strip  c = (i − 1) / S
//!                         lane   k = (i − 1) % S
//!                         wave   w = (j − 1) + k
//!                         entry    = start(c, w) + k − lo(c, w)
//! ```

use dphls_core::TbPtr;

/// Where one wavefront's run of entries starts, and which lanes it holds.
#[derive(Debug, Clone, Copy)]
struct Front {
    /// Entry of lane `lo`.
    start: usize,
    lo: usize,
    /// Lanes in the run; 0 for a wavefront the loop never scored.
    n: usize,
}

impl Front {
    const EMPTY: Front = Front {
        start: 0,
        lo: 0,
        n: 0,
    };
}

/// Traceback pointers of one alignment, one entry per computed cell.
#[derive(Debug, Clone, Default)]
pub(crate) struct TbMem {
    /// Pointers in scoring order. Only the first `len` belong to this run;
    /// the vector keeps whatever a longer earlier run left past them.
    cells: Vec<TbPtr>,
    len: usize,
    /// One entry per wavefront of every strip, `wpc` a strip.
    fronts: Vec<Front>,
    wpc: usize,
    /// Per query row: the index in `fronts` of the row's wavefront at
    /// column 1, and the row's lane — so a walk step costs no division.
    rows: Vec<(usize, usize)>,
    /// Entry of lane 0 of the open wavefront (may wrap below zero: only
    /// lanes at or past its `lo` are ever addressed).
    at: usize,
}

impl TbMem {
    /// Readies the memory for `strips` strips of `strip` rows against a
    /// reference of `ref_len` symbols: no wavefront holds a pointer yet.
    /// Buffers keep their capacity, so a worker's memory stops allocating
    /// once it has seen its workload's largest geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub(crate) fn reset(&mut self, strip: usize, strips: usize, ref_len: usize) {
        assert!(
            strip > 0 && strips > 0 && ref_len > 0,
            "TbMem dimensions must be non-zero"
        );
        // Wavefronts a strip: the anti-diagonals of a `strip × R` matrix.
        let wpc = ref_len + strip - 1;
        (self.wpc, self.len) = (wpc, 0);
        self.fronts.clear();
        self.fronts.resize(strips * wpc, Front::EMPTY);
        self.rows.clear();
        self.rows
            .extend((0..strips).flat_map(|c| (0..strip).map(move |k| (c * wpc + k, k))));
    }

    /// Opens wavefront `w` of strip `c`, whose live lanes are `lo..=hi`:
    /// the loop calls it once before scoring them, and [`TbMem::write`] /
    /// [`TbMem::lanes_mut`] then address this wavefront's run.
    #[inline]
    pub(crate) fn open(&mut self, c: usize, w: usize, lo: usize, hi: usize) {
        let (start, n) = (self.len, hi + 1 - lo);
        self.len += n;
        if self.cells.len() < self.len {
            self.cells.resize(self.len, TbPtr::END);
        }
        self.fronts[c * self.wpc + w] = Front { start, lo, n };
        self.at = start.wrapping_sub(lo);
    }

    /// Stores lane `k`'s pointer in the open wavefront.
    #[inline]
    pub(crate) fn write(&mut self, k: usize, ptr: TbPtr) {
        self.cells[self.at.wrapping_add(k)] = ptr;
    }

    /// The open wavefront's entries of lanes `k0..k0 + n`, for a lane port
    /// to fill in place.
    #[inline]
    pub(crate) fn lanes_mut(&mut self, k0: usize, n: usize) -> &mut [TbPtr] {
        let from = self.at.wrapping_add(k0);
        &mut self.cells[from..from + n]
    }

    /// Entries the memory holds (its high water, not this run's count).
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.cells.len()
    }

    /// The pointer of matrix cell `(i, j)` (both 1-based);
    /// [`TbPtr::END`] for a cell the loop did not score.
    pub(crate) fn read_cell(&self, i: usize, j: usize) -> TbPtr {
        let (first, k) = self.rows[i - 1];
        debug_assert!(j >= 1 && j + k <= self.wpc, "cell ({i}, {j}) out of range");
        let front = self.fronts[first + j - 1];
        let lane = k.wrapping_sub(front.lo);
        if lane < front.n {
            self.cells[front.start + lane]
        } else {
            TbPtr::END
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens every wavefront of a `q × r` matrix in strips of `strip` rows
    /// the way the loop does — live lanes only, rows past `q` and cells off
    /// the band `|i − j| ≤ hw` skipped — and stores in each cell a pointer
    /// naming it, through `lanes_mut` or lane by lane through `write`.
    /// Returns the cells stored.
    fn fill(mem: &mut TbMem, (q, r): (usize, usize), strip: usize, hw: usize, runs: bool) -> usize {
        let strips = q.div_ceil(strip);
        mem.reset(strip, strips, r);
        let mut stored = 0;
        for c in 0..strips {
            for w in 0..r + strip - 1 {
                let live = |k: &usize| {
                    let (i, j) = (c * strip + k + 1, (w + 1).wrapping_sub(*k));
                    i <= q && (1..=r).contains(&j) && i.abs_diff(j) <= hw
                };
                let lanes: Vec<usize> = (0..strip).filter(live).collect();
                let (Some(&lo), Some(&hi)) = (lanes.first(), lanes.last()) else {
                    continue;
                };
                mem.open(c, w, lo, hi);
                let own = |k: usize| name(c * strip + k + 1, w + 1 - k);
                if runs {
                    let names: Vec<TbPtr> = (lo..=hi).map(own).collect();
                    mem.lanes_mut(lo, names.len()).copy_from_slice(&names);
                } else {
                    (lo..=hi).for_each(|k| mem.write(k, own(k)));
                }
                stored += hi + 1 - lo;
            }
        }
        stored
    }

    /// Cell `(i, j)`'s own pointer for matrices up to 15 × 11: unique, and
    /// never [`TbPtr::END`] (3).
    fn name(i: usize, j: usize) -> TbPtr {
        TbPtr(((i - 1) * 16 + j + 4) as u8)
    }

    /// Every stored cell reads back its own pointer and every other cell
    /// reads [`TbPtr::END`].
    fn check(mem: &TbMem, (q, r): (usize, usize), hw: usize, ctx: &str) {
        for i in 1..=q {
            for j in 1..=r {
                let want = match i.abs_diff(j) <= hw {
                    true => name(i, j),
                    false => TbPtr::END,
                };
                assert_eq!(mem.read_cell(i, j), want, "{ctx}: cell ({i}, {j})");
            }
        }
    }

    const BANDS: [usize; 4] = [0, 1, 3, usize::MAX];

    #[test]
    fn every_cell_has_its_own_entry_at_every_strip_height() {
        let dims = (11, 9);
        for hw in BANDS {
            for strip in 1..=dims.0 + 1 {
                let mut mem = TbMem::default();
                let stored = fill(&mut mem, dims, strip, hw, true);
                let ctx = format!("hw {hw} strip {strip}");
                check(&mem, dims, hw, &ctx);
                // One entry a stored cell: no triangle, no band waste.
                assert_eq!((mem.len, mem.entries()), (stored, stored), "{ctx}");
            }
        }
    }

    #[test]
    fn lanes_mut_matches_per_cell_writes() {
        for (dims, strip) in [((11, 9), 4), ((9, 11), 9), ((15, 11), 16), ((4, 1), 1)] {
            for hw in BANDS {
                let (mut runs, mut cells) = (TbMem::default(), TbMem::default());
                let stored = fill(&mut runs, dims, strip, hw, true);
                assert_eq!(fill(&mut cells, dims, strip, hw, false), stored);
                let ctx = format!("{dims:?} strip {strip} hw {hw}");
                check(&runs, dims, hw, &ctx);
                check(&cells, dims, hw, &ctx);
            }
        }
    }

    #[test]
    fn coalescing_consecutive_wavefronts_consecutive_addrs() {
        // The next wavefront's run starts right after the previous one's:
        // moving one column right along a row moves to the next run.
        let mut mem = TbMem::default();
        mem.reset(4, 1, 8);
        mem.open(0, 3, 0, 3); // cells (1, 4), (2, 3), (3, 2), (4, 1)
        mem.lanes_mut(0, 4).fill(TbPtr::DIAG);
        mem.open(0, 4, 1, 3); // cells (2, 4), (3, 3), (4, 2)
        mem.lanes_mut(1, 3).fill(TbPtr::UP);
        assert_eq!(mem.cells[..4], [TbPtr::DIAG; 4]);
        assert_eq!(mem.cells[4..7], [TbPtr::UP; 3]);
        assert_eq!(mem.len, 7);
        assert_eq!(mem.read_cell(3, 2), TbPtr::DIAG);
        assert_eq!(mem.read_cell(3, 3), TbPtr::UP);
        assert_eq!(
            mem.read_cell(1, 5),
            TbPtr::END,
            "lane 0 of wavefront 4 is not live"
        );
    }

    #[test]
    fn same_wavefront_same_address_across_banks() {
        // The cells of one anti-diagonal of a strip — one per PE, written in
        // the same cycle — are adjacent entries in lane order.
        let mut mem = TbMem::default();
        mem.reset(4, 1, 8);
        let lanes = [TbPtr::DIAG, TbPtr::UP, TbPtr::LEFT, TbPtr::DIAG];
        mem.open(0, 3, 0, 3); // cells (1, 4), (2, 3), (3, 2), (4, 1)
        mem.lanes_mut(0, 4).copy_from_slice(&lanes);
        assert_eq!(mem.cells[..4], lanes);
        for (k, &ptr) in lanes.iter().enumerate() {
            assert_eq!(mem.read_cell(k + 1, 4 - k), ptr, "lane {k}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mem = TbMem::default();
        mem.reset(4, 2, 8);
        // cell (6, 3): strip 1, lane 1, wavefront 2 + 1 = 3
        mem.open(1, 3, 1, 2);
        mem.write(1, TbPtr::DIAG);
        assert_eq!(mem.read_cell(6, 3), TbPtr::DIAG);
        // Unwritten cells read END.
        assert_eq!(mem.read_cell(1, 1), TbPtr::END);
        assert_eq!(mem.read_cell(5, 4), TbPtr::END);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lanes_mut_rejects_a_run_past_the_stored_cells() {
        let mut mem = TbMem::default();
        mem.reset(4, 1, 8);
        mem.open(0, 3, 0, 3);
        mem.lanes_mut(2, 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        TbMem::default().reset(0, 1, 1);
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        // A full 11 × 9 run leaves pointers everywhere; a later run on the
        // same memory must read END wherever it stored nothing, like a run
        // on a fresh memory.
        let mut mem = TbMem::default();
        fill(&mut mem, (11, 9), 4, usize::MAX, true);
        for (dims, strip, hw) in [
            ((11, 9), 4, 1),
            ((5, 9), 2, 0),
            ((11, 9), 12, 2),
            ((3, 4), 1, 9),
        ] {
            let stored = fill(&mut mem, dims, strip, hw, true);
            let mut fresh = TbMem::default();
            fill(&mut fresh, dims, strip, hw, false);
            let ctx = format!("{dims:?} strip {strip} hw {hw}");
            check(&mem, dims, hw, &ctx);
            check(&fresh, dims, hw, &ctx);
            assert_eq!(mem.len, stored, "{ctx}");
        }
        // The entries kept their capacity: the full run's 99 cells.
        assert_eq!(mem.entries(), 99);
    }
}
