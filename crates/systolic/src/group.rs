//! The grouped (inter-sequence) engine: up to `LANES` pairs of a
//! single-layer kernel scored at once, **lane `t` = pair `t`** — the
//! software form of the paper's NB axis (independent alignments on parallel
//! blocks under one kernel's control), and what the wavefront scheme of
//! `block.rs` cannot give short banded pairs, whose anti-diagonals are ~19
//! cells wide however many lanes a register holds.
//!
//! Every lane walks the same band geometry, so there is no wavefront at all:
//!
//! * the group's symbols are transposed once into position-major
//!   `[Sym; LANES]` stripes (O(length) a pair against O(length × band) cells);
//! * each lane's recurrence runs **row-major over its own band**: two row
//!   buffers of vector slots — band-relative (`2·hw + 3` slots, slot
//!   `j − i + hw + 1`, one `worst` sentinel on each flank) under a fixed band,
//!   plain columns (`r + 1` slots) without one — so `diag` / `up` are two
//!   slots of the previous row, `left` is the cell just scored, and one
//!   [`LaneKernel::pe_group`] call scores one cell of every pair with
//!   full-width vector ops, no ramp-up, no reversed reference, no padding
//!   copy and no per-wavefront bookkeeping;
//! * traceback pointers go to interleaved rows (`q_max × tb_width × LANES`
//!   bytes a group) and each pair's path is walked from them afterwards;
//! * ragged members are padded to the longest under per-lane validity: a
//!   padding cell (row past the lane's query, column past its reference)
//!   computes garbage that no real cell ever reads — a cell's three
//!   neighbours have smaller coordinates — and that neither the guard nor the
//!   best-cell trackers consult;
//! * the saturation guard is **per lane and sticky**: a tripped lane keeps
//!   being scored (its neighbours need the pass anyway) and comes back as
//!   `None`, for the caller to re-run alone on the exact engine — the
//!   `adaptive.rs` contract, unchanged. A lane trips iff any of its real
//!   in-band cells is inside the guard band, which is exactly when the
//!   guarded wavefront loop bails out, so the two engines escalate the same
//!   pairs;
//! * [`BlockStats`] are structural counts for the cycle model and come in
//!   closed form from the geometry (`BlockStats::from_geometry`), memoised
//!   per `(q, r)` within a group.
//!
//! Results are bit-identical, pair by pair, to [`crate::run_systolic`] and
//! [`dphls_core::run_reference`] (`tests/proptest_grouped.rs`), whatever the
//! neighbours in the group are.
//!
//! Two drivers run it, under one L2 budget ([`group_cells_max`]): the
//! adaptive one at guarded `i8 × 16` ([`crate::run_adaptive_group_with_scratch`])
//! and the exact one at the kernel's own score type, `LANE_WIDTH` lanes
//! ([`run_exact_group_with_scratch`]).
//!
//! Not here: multi-layer kernels (the affine and two-piece families would
//! group through `pe_wavefront`-style plane bodies; they stay on the
//! wavefront engine), and local (`AllCells`) best-cell tracking is
//! correct-first — one scalar offer per cell, as in the wavefront engine.

use crate::block::{
    run_systolic_with_scratch, validate_inputs, BlockStats, SymVec, SystolicError, SystolicRun,
    SystolicScratch,
};
use dphls_core::reference::{offer_if_eligible, walk_traceback, BestTracker};
use dphls_core::{
    Banding, BestCellRule, DpOutput, KernelConfig, LaneKernel, Score, TbPtr, LANE_WIDTH,
};

/// A borrowed `(query, reference)` pair, as the grouped doors take them.
pub type PairRef<'a, Sym> = (&'a [Sym], &'a [Sym]);

/// Fewest pairs worth a grouped pass. A pass costs what its longest member
/// costs across the whole register, whatever it holds, and on a banded short
/// pair that is about what the pair costs alone on the wavefront engine,
/// whose anti-diagonals fill the same register two-thirds at best: 120 bp,
/// unit scoring, band w20, every 20th pair a planted escalator, µs a pair on
/// one thread (`cargo bench -p dphls-bench --bench lanes`, group `grouped`,
/// 640 pairs, escalation re-runs included) — adaptive wavefront engine 12.6;
/// grouped `i8 × 16` at 1 / 2 / 4 / 8 / 16 pairs a pass 15.0 / 8.5 / 5.4 /
/// 3.5 / 2.7. One pair gains nothing (its escalations lose: the guarded
/// wavefront loop bails out where the guard trips, a lane is scored to the
/// end) and goes the way it always went; two already win by a third. The
/// exact engine has no escalations to lose and wins wider still: on the
/// served shape (256 bp, DNA scoring, band w32, NPE 32; same bench) the
/// wavefront engine takes 71 µs a pair, `i16 × 8` passes of eight 6.8.
///
/// Of an `i8 × 16` pass: the fill is 12–14 µs, transposing the symbols
/// ~0.1 µs a pair, and best cell + traceback walk + stats ~1.1 µs a pair.
const GROUP_MIN: usize = 2;

/// Most traceback bytes a grouped pass may hold ([`group_tb_bytes`]): a
/// quarter of the 2 MiB L2 of the host the benchmark is recorded on. The
/// pointer rows are written once and then walked pair by pair, a cache line
/// a step, so a group that leaves L2 pays memory latency on every traceback
/// step. 120-bp w20 pairs hold 79 KB at 16 lanes and 256-bp w32 pairs 133 KB
/// at 8; a long unbanded pair (1500 × 1500 × 16 = 36 MB) stays on the
/// wavefront engine, which suits it.
const GROUP_TB_BYTES: usize = 512 << 10;

/// Most DP cells (band area) a pair may have for a grouped pass of `lanes`
/// lanes to take it at all: one pointer byte a lane a cell, so the one L2
/// budget of every grouped pass divided by its lane count — 32 Ki cells at
/// `i8 × 16`, 64 Ki at `i16 × 8`. What a scheduler holding only a cost
/// estimate in cells checks before it collects a group.
pub const fn group_cells_max(lanes: usize) -> u64 {
    (GROUP_TB_BYTES / lanes) as u64
}

/// Whether `group` is worth one pass of `lanes` lanes: at least the
/// break-even (`GROUP_MIN`) and pointer rows that stay in L2
/// (`GROUP_TB_BYTES`).
pub(crate) fn worth_a_pass<Sym>(
    group: &[PairRef<'_, Sym>],
    banding: Banding,
    lanes: usize,
) -> bool {
    let q_max = group.iter().map(|(q, _)| q.len()).max().unwrap_or(0);
    let r_max = group.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    group.len() >= GROUP_MIN && group_tb_bytes(q_max, r_max, banding, lanes) <= GROUP_TB_BYTES
}

/// Reusable buffers of the grouped engine at one score type and lane count;
/// they grow to the largest group geometry of a workload and are then reused
/// allocation-free (the returned alignment paths aside).
#[derive(Debug, Clone)]
pub struct GroupScratch<S, const LANES: usize> {
    /// The two score rows, swapped per matrix row.
    rows: [Vec<[S; LANES]>; 2],
    /// Interleaved traceback rows.
    tb: Vec<[TbPtr; LANES]>,
    /// Transposed symbols: the query stripes, then the reference stripes.
    syms: SymVec,
}

impl<S, const LANES: usize> GroupScratch<S, LANES> {
    /// Creates empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self {
            rows: [Vec::new(), Vec::new()],
            tb: Vec::new(),
            syms: SymVec::default(),
        }
    }
}

impl<S, const LANES: usize> Default for GroupScratch<S, LANES> {
    fn default() -> Self {
        Self::new()
    }
}

/// How a group's rows are laid out: the padded matrix and, under a band that
/// actually clips it, the half-width the slots are relative to.
#[derive(Debug, Clone, Copy)]
struct Layout {
    r_max: usize,
    /// `None` when every cell of the padded matrix is in band.
    half_width: Option<usize>,
}

impl Layout {
    fn new(q_max: usize, r_max: usize, banding: Banding) -> Self {
        let half_width = match banding {
            Banding::Fixed { half_width } if half_width < q_max.max(r_max) => Some(half_width),
            _ => None,
        };
        Self { r_max, half_width }
    }

    /// Vector slots of one score row, boundary column and sentinels included.
    fn row_slots(&self) -> usize {
        self.half_width.map_or(self.r_max + 1, |hw| 2 * hw + 3)
    }

    /// Pointer vectors of one traceback row (slots `1..=tb_width`).
    fn tb_width(&self) -> usize {
        self.half_width.map_or(self.r_max, |hw| 2 * hw + 1)
    }

    /// How far the previous row's slots sit to the right of this row's: a
    /// band-relative row moves one column per row, a plain one does not.
    fn shift(&self) -> usize {
        usize::from(self.half_width.is_some())
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.half_width.is_none_or(|hw| i.abs_diff(j) <= hw)
    }

    /// First and last in-band column (`≥ 1`, `≤ r_max`) of row `i`, or
    /// `None` once the band has left the matrix — for good, as `i` grows.
    fn cols(&self, i: usize) -> Option<(usize, usize)> {
        let (lo, hi) = match self.half_width {
            Some(hw) => (i.saturating_sub(hw).max(1), (i + hw).min(self.r_max)),
            None => (1, self.r_max),
        };
        (lo <= hi).then_some((lo, hi))
    }

    /// Slot of in-band column `j` (or of column `j_lo − 1`) in row `i`.
    fn slot(&self, i: usize, j: usize) -> usize {
        self.half_width.map_or(j, |hw| j + hw + 1 - i)
    }
}

/// Traceback bytes a group of pairs up to `q_max × r_max` holds at `lanes`
/// lanes — what [`worth_a_pass`] compares against the cache budget.
fn group_tb_bytes(q_max: usize, r_max: usize, banding: Banding, lanes: usize) -> usize {
    let tb_width = Layout::new(q_max, r_max, banding).tb_width();
    q_max.saturating_mul(tb_width).saturating_mul(lanes)
}

/// Runs up to `LANES` pairs of the single-layer kernel `K` at once, pair `t`
/// in lane `t`. Slot `t` of the result is pair `t`'s:
///
/// * `Err` if that pair alone is invalid (empty, too long, bad
///   configuration) — it takes no lane and the others run without it;
/// * `Ok(None)` if its saturation guard tripped (narrow score types only):
///   the caller re-runs it at full precision;
/// * `Ok(Some(run))`, bit-identical to [`crate::run_systolic_with_scratch`]
///   on that pair — output, alignment path and [`BlockStats`].
///
/// A group holds `q_max × row width × LANES` traceback bytes; keeping that
/// cache-resident is the caller's business.
///
/// # Panics
///
/// Panics if `pairs` holds more than `LANES` pairs or `K` has more than one
/// scoring layer.
pub fn run_group_with_scratch<K: LaneKernel<LANES>, const LANES: usize>(
    params: &K::Params,
    pairs: &[PairRef<'_, K::Sym>],
    config: &KernelConfig,
    scratch: &mut GroupScratch<K::Score, LANES>,
) -> Vec<Result<Option<SystolicRun<K::Score>>, SystolicError>> {
    assert!(pairs.len() <= LANES, "a group holds at most LANES pairs");
    let meta = K::meta();
    assert_eq!(meta.n_layers, 1, "the grouped engine is single-layer");
    let mut results: Vec<_> = pairs
        .iter()
        .map(|(q, r)| validate_inputs(config, q.len(), r.len()).map(|()| None))
        .collect();

    // Lane t holds member `member[t]`; invalid members take no lane.
    let mut member = [0usize; LANES];
    let (mut q_len, mut r_len) = ([0usize; LANES], [0usize; LANES]);
    let mut g = 0;
    for (idx, (q, r)) in pairs.iter().enumerate() {
        if results[idx].is_ok() {
            (member[g], q_len[g], r_len[g]) = (idx, q.len(), r.len());
            g += 1;
        }
    }
    if g == 0 {
        return results;
    }
    let longest = |lens: &[usize; LANES]| lens[..g].iter().copied().max().unwrap_or(0);
    let (q_max, r_max) = (longest(&q_len), longest(&r_len));
    let q_min = q_len[..g].iter().copied().min().unwrap_or(0);
    let layout = Layout::new(q_max, r_max, config.banding);
    let (slots, tb_width, shift) = (layout.row_slots(), layout.tb_width(), layout.shift());

    // ---- Arena preparation: resize (capacity-preserving) + re-init. ----
    let GroupScratch {
        rows: [prev, cur],
        tb,
        syms,
    } = scratch;
    let worst: K::Score = meta.objective.worst();
    for row in [&mut *prev, &mut *cur] {
        row.clear();
        row.resize(slots, [worst; LANES]);
    }
    // Every pointer a walk can read is rewritten below, so what an earlier
    // group left behind need not be cleared.
    tb.resize(q_max * tb_width, [TbPtr::END; LANES]);

    // Symbols, position-major. Padding lanes and padded tails read the
    // first member's first symbol: any symbol does, nothing consults them.
    let pad = pairs[member[0]].0[0];
    let syms: &mut Vec<[K::Sym; LANES]> = syms.typed();
    syms.clear();
    syms.resize(q_max + r_max, [pad; LANES]);
    let (q_syms, r_syms) = syms.split_at_mut(q_max);
    for t in 0..g {
        let (q, r) = pairs[member[t]];
        for (stripe, &sym) in q_syms.iter_mut().zip(q) {
            stripe[t] = sym;
        }
        for (stripe, &sym) in r_syms.iter_mut().zip(r) {
            stripe[t] = sym;
        }
    }

    // Boundary values are the same for every lane: they depend on the row
    // or column alone. Row 0, in-band part only:
    for j in (0..=r_max).take_while(|&j| layout.contains(0, j)) {
        prev[layout.slot(0, j)] = [K::init_row(params, j).primary(); LANES];
    }

    let rule = meta.traceback.best;
    let mut trackers: [BestTracker<K::Score>; LANES] =
        std::array::from_fn(|_| BestTracker::new(meta.objective));
    let mut escalate = [false; LANES];

    for i in 1..=q_max {
        let Some((j_lo, j_hi)) = layout.cols(i) else {
            break;
        };
        let (s_lo, n) = (layout.slot(i, j_lo), j_hi - j_lo + 1);
        let diag = &prev[s_lo - 1 + shift..][..n];
        let up = &prev[s_lo + shift..][..n];
        let (head, outs) = cur.split_at_mut(s_lo);
        let outs = &mut outs[..n];
        let refs = &r_syms[j_lo - 1..][..n];
        let ptrs = &mut tb[(i - 1) * tb_width + s_lo - 1..][..n];
        let q_sym = &q_syms[i - 1];
        // The cell left of the row's first: column 0 while the band still
        // reaches it, out of band (worst) after.
        let mut left = if j_lo == 1 && layout.contains(i, 0) {
            [K::init_col(params, i).primary(); LANES]
        } else {
            [worst; LANES]
        };
        head[s_lo - 1] = left;

        // One cell of every pair per step; `left` carries the row's serial
        // dependency in registers, and the guard is read off it there, every
        // lane alike — padding cells included.
        let mut tripped = [false; LANES];
        let cells = diag.iter().zip(up).zip(refs).zip(outs.iter_mut());
        for ((((d, u), r_sym), out), ptr) in cells.zip(ptrs.iter_mut()) {
            let mut cell = left;
            K::pe_group(params, q_sym, r_sym, d, u, &left, &mut cell, ptr);
            (*out, left) = (cell, cell);
            for t in 0..LANES {
                tripped[t] |= cell[t].needs_escalation();
            }
        }
        // Which is exact for a lane that has the whole row. A row past the
        // lane's query does not count, and where the flag may come from the
        // columns past its reference, its own cells are looked at one by one
        // — padding seldom reaches the guard band, so this seldom runs.
        for t in 0..g {
            if tripped[t] && !escalate[t] && i <= q_len[t] {
                let own = (r_len[t] + 1).saturating_sub(j_lo).min(n);
                escalate[t] = own == n || outs[..own].iter().any(|c| c[t].needs_escalation());
            }
        }

        // Tracker offers, scalar per lane. Off a lane's last row only the
        // all-cells rule (every cell) and the row-or-column rule (the cell
        // in the lane's last column) have anything eligible.
        let any_row = matches!(rule, BestCellRule::AllCells | BestCellRule::LastRowOrCol);
        if any_row || i >= q_min {
            for t in 0..g {
                let (q, r) = (q_len[t], r_len[t]);
                let cols = if i > q {
                    continue;
                } else if i == q || rule == BestCellRule::AllCells {
                    j_lo..=j_hi.min(r)
                } else if any_row && (j_lo..=j_hi).contains(&r) {
                    r..=r
                } else {
                    continue;
                };
                for j in cols {
                    let score = outs[j - j_lo][t];
                    offer_if_eligible(&mut trackers[t], rule, score, i, j, q, r);
                }
            }
        }
        std::mem::swap(prev, cur);
    }

    // Per pair: best cell, traceback walk, stats.
    let tb = &tb[..];
    let mut memo: Vec<((usize, usize), BlockStats)> = Vec::new();
    for t in 0..g {
        if escalate[t] {
            continue;
        }
        let (best_score, best_cell) = trackers[t].best();
        let tb_at = |i: usize, j: usize| {
            if layout.contains(i, j) {
                tb[(i - 1) * tb_width + layout.slot(i, j) - 1][t]
            } else {
                TbPtr::END
            }
        };
        let walk = meta.traceback.walk;
        let alignment = walk.map(|walk| walk_traceback::<K>(&tb_at, best_cell, walk));
        let dims = (q_len[t], r_len[t]);
        let known = memo.iter().find(|(key, _)| *key == dims).map(|(_, s)| *s);
        let mut stats = known.unwrap_or_else(|| {
            let stats = BlockStats::from_geometry(dims.0, dims.1, config);
            memo.push((dims, stats));
            stats
        });
        stats.tb_steps = alignment.as_ref().map_or(0, |a| a.len() as u64);
        results[member[t]] = Ok(Some(SystolicRun {
            output: DpOutput {
                best_score,
                best_cell,
                alignment,
                cells_computed: stats.cells,
            },
            stats,
        }));
    }
    results
}

/// Reusable scratch of the exact engine: the wavefront arena a pair that
/// runs alone uses, and the grouped engine's buffers at [`LANE_WIDTH`]
/// lanes of the kernel's own score type. Like [`SystolicScratch`], both grow
/// to the workload's largest geometry and are then reused allocation-free;
/// the one a workload never takes stays empty.
#[derive(Debug, Clone)]
pub struct ExactScratch<S> {
    wavefront: SystolicScratch<S>,
    group: GroupScratch<S, LANE_WIDTH>,
}

impl<S> ExactScratch<S> {
    /// Creates empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self {
            wavefront: SystolicScratch::new(),
            group: GroupScratch::new(),
        }
    }

    /// The wavefront engine's arena, for a pair that runs alone
    /// ([`run_systolic_with_scratch`]).
    pub fn wavefront(&mut self) -> &mut SystolicScratch<S> {
        &mut self.wavefront
    }
}

impl<S> Default for ExactScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `pairs` at the kernel's own (exact) score type, **grouped**: runs of
/// up to [`LANE_WIDTH`] consecutive pairs share one pass of
/// [`run_group_with_scratch`] (pair `t` in lane `t`). An exact lane never
/// trips a guard, so every member of a pass comes back whole. One result per
/// pair is appended to `out`, in order, each **bit-identical** to
/// [`run_systolic_with_scratch`] on that pair alone — output, alignment path
/// and stats — whatever its neighbours are; an invalid pair fails alone.
///
/// A run goes pair by pair through the wavefront engine instead when it is
/// shorter than the break-even (`GROUP_MIN`), its pointer rows would leave
/// L2 (`GROUP_TB_BYTES`), or the kernel has more than one scoring layer.
/// Returns how many grouped passes ran.
pub fn run_exact_group_with_scratch<K: LaneKernel>(
    params: &K::Params,
    pairs: &[PairRef<'_, K::Sym>],
    config: &KernelConfig,
    scratch: &mut ExactScratch<K::Score>,
    out: &mut Vec<Result<SystolicRun<K::Score>, SystolicError>>,
) -> usize {
    let single_layer = K::meta().n_layers == 1;
    let mut passes = 0;
    for group in pairs.chunks(LANE_WIDTH) {
        if !(single_layer && worth_a_pass(group, config.banding, LANE_WIDTH)) {
            out.extend(group.iter().map(|(q, r)| {
                run_systolic_with_scratch::<K>(params, q, r, config, &mut scratch.wavefront)
            }));
            continue;
        }
        let runs =
            run_group_with_scratch::<K, LANE_WIDTH>(params, group, config, &mut scratch.group);
        passes += 1;
        out.extend(
            runs.into_iter()
                .map(|slot| slot.map(|run| run.expect("an exact lane never trips its guard"))),
        );
    }
    passes
}
