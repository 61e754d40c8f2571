//! The functional systolic block engine: one linear array of `NPE`
//! processing elements computing a DP matrix chunk-by-chunk, wavefront-by-
//! wavefront (paper §5.1, Fig 2C).
//!
//! The engine mirrors the generated hardware's dataflow exactly:
//!
//! * rows are divided into **chunks** of `NPE` consecutive rows, one per PE;
//! * within a chunk the **wavefront** (anti-diagonal) index `w` advances once
//!   per pipeline initiation; PE `k` computes cell `(base+k+1, w−k+1)`;
//! * PE `k` reads `left` from its own previous output, `up`/`diag` from PE
//!   `k−1`'s previous two outputs (the DP Memory Buffer), with PE 0 reading
//!   the **Preserved Row Score Buffer** written by the last PE of the
//!   previous chunk;
//! * traceback pointers stream into the banked [`TbMem`] at coalesced
//!   addresses;
//! * each PE tracks its local best among traceback-eligible cells; a
//!   reduction across PEs picks the block's best cell (paper §5.2).
//!
//! There is **one** wavefront loop. What varies is a value or a type
//! parameter of it: scalar or multi-lane scoring (`LaneMode`), guarded or
//! not (the adaptive `i8` path), the lane width, and how a cell is stored
//! (`CellShape`: layer vectors, or flat scores for single-layer kernels in
//! lane mode — chosen at compile time from the kernel's layer count).
//!
//! The result is bit-identical to [`dphls_core::run_reference`] (verified by
//! differential and property tests), while also producing the structural
//! statistics ([`BlockStats`]) the cycle model consumes.

use crate::tbmem::TbMem;
use dphls_core::reference::{offer_if_eligible, walk_traceback, BestTracker};
use dphls_core::{
    Banding, BestCellRule, DpOutput, KernelConfig, LaneKernel, LayerVec, Score, TbPtr, LANE_WIDTH,
};
use std::fmt;

/// How the engine scores the active lanes of each wavefront.
///
/// Both modes are bit-identical (enforced by the lane-vs-scalar property
/// suite); [`LaneMode::Scalar`] is kept as the measurable PR 1 comparand for
/// the `lanes` bench and the differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneMode {
    /// One [`dphls_core::KernelSpec::pe`] call per cell (the PR 1 hot path).
    Scalar,
    /// Interior lanes scored a lane-width at a time through the kernel's
    /// [`LaneKernel`] port; boundary lanes peeled scalar.
    Lanes,
}

/// Structural counts from one block-level alignment, consumed by the cycle
/// model ([`crate::cycles`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Row chunks processed (`⌈Q / NPE⌉`).
    pub chunks: u64,
    /// Wavefront iterations issued (banding skips whole wavefronts).
    pub wavefronts: u64,
    /// PE invocations (in-band cells computed).
    pub cells: u64,
    /// Traceback walk length in steps (0 for score-only kernels).
    pub tb_steps: u64,
    /// Reduction-tree levels for the best-cell search.
    pub reduction_levels: u64,
    /// Query length of this alignment.
    pub query_len: u64,
    /// Reference length of this alignment.
    pub ref_len: u64,
    /// Precision escalations this run performed: 0 on the exact path and on
    /// clean adaptive runs, 1 when the `i8` fast path tripped its guard and
    /// the pair was re-run at `i16` (set by the adaptive driver, summed into
    /// the host reports' escalation rate).
    pub escalations: u64,
}

impl BlockStats {
    /// Fraction of PE-cycles doing useful work: `cells / (wavefronts × NPE)`
    /// for the given array width. The shortfall from 1.0 is the wavefront
    /// ramp-up/down idling at the matrix edges — the §7.2 explanation for
    /// throughput saturating at high `NPE` (Fig 3A/D).
    pub fn pe_utilization(&self, npe: usize) -> f64 {
        if self.wavefronts == 0 || npe == 0 {
            return 0.0;
        }
        self.cells as f64 / (self.wavefronts as f64 * npe as f64)
    }
}

/// Result of running one alignment on the systolic block.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicRun<S> {
    /// Functional output (identical to the reference engine's).
    pub output: DpOutput<S>,
    /// Structural statistics for the cycle model.
    pub stats: BlockStats,
}

/// Errors from [`run_systolic`].
#[derive(Debug, Clone, PartialEq)]
pub enum SystolicError {
    /// The configuration failed validation.
    Config(dphls_core::config::ConfigError),
    /// A sequence exceeds the configured on-device buffer.
    SequenceTooLong {
        /// Which sequence: `"query"` or `"reference"`.
        which: &'static str,
        /// The offending length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// A sequence is empty.
    EmptySequence,
}

impl fmt::Display for SystolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystolicError::Config(e) => write!(f, "invalid kernel configuration: {e}"),
            SystolicError::SequenceTooLong { which, len, max } => {
                write!(
                    f,
                    "{which} length {len} exceeds the configured maximum {max}"
                )
            }
            SystolicError::EmptySequence => write!(f, "sequences must be non-empty"),
        }
    }
}

impl std::error::Error for SystolicError {}

impl From<dphls_core::config::ConfigError> for SystolicError {
    fn from(e: dphls_core::config::ConfigError) -> Self {
        SystolicError::Config(e)
    }
}

/// The five cell buffers one alignment works in — the Preserved Row Score
/// Buffer (`prev_row` / `next_row`) and the three wavefront snapshots of the
/// DP Memory Buffer — for one cell type `C` (see [`CellShape`]).
#[derive(Debug, Clone)]
struct CellBufs<C> {
    prev_row: Vec<C>,
    next_row: Vec<C>,
    wf_m1: Vec<C>,
    wf_m2: Vec<C>,
    cur: Vec<C>,
}

impl<C> CellBufs<C> {
    fn new() -> Self {
        Self {
            prev_row: Vec::new(),
            next_row: Vec::new(),
            wf_m1: Vec::new(),
            wf_m2: Vec::new(),
            cur: Vec::new(),
        }
    }

    /// Sizes the buffers for an `npe`-wide array over `r` columns and fills
    /// every slot with `worst`. `resize` keeps capacity, so this allocates
    /// only while the geometry is still growing, and whatever an earlier
    /// alignment (of any kernel) left behind is overwritten.
    fn prepare(&mut self, npe: usize, r: usize, worst: C)
    where
        C: Copy,
    {
        for buf in [&mut self.prev_row, &mut self.next_row] {
            buf.clear();
            buf.resize(r + 1, worst);
        }
        for buf in [&mut self.wf_m1, &mut self.wf_m2, &mut self.cur] {
            buf.clear();
            buf.resize(npe, worst);
        }
    }
}

/// Reusable scratch arena for the systolic engine's hot path.
///
/// One alignment needs five cell buffers (`CellBufs`), one
/// [`BestTracker`] per PE, and the banked [`TbMem`]. Allocating them per
/// alignment dominates short-read batch workloads, so the arena owns them
/// all and [`run_systolic_with_scratch`] reuses them across alignments:
/// buffers are resized (`resize`, which keeps capacity) and re-initialized,
/// never reallocated once they have grown to the workload's maximum
/// geometry. The arena holds one `CellBufs` per storage shape — layer
/// vectors and flat scores — so a worker that alternates kernels never
/// re-shapes a buffer; both go through the same `prepare` routine, and the
/// trackers and traceback memory are shared. Results are **bit-identical**
/// to a fresh [`run_systolic`] — every buffer is restored to its pristine
/// state before use (verified by the scratch-reuse property tests).
#[derive(Debug, Clone)]
pub struct SystolicScratch<S> {
    layered: CellBufs<LayerVec<S>>,
    flat: CellBufs<S>,
    trackers: Vec<BestTracker<S>>,
    tbmem: Option<TbMem>,
}

impl<S> SystolicScratch<S> {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            layered: CellBufs::new(),
            flat: CellBufs::new(),
            trackers: Vec::new(),
            tbmem: None,
        }
    }
}

impl<S> Default for SystolicScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// The active-PE window of one chunk: precomputed band/matrix geometry that
/// replaces the per-cell `banding.contains` test and the full `0..NPE` lane
/// scan with closed-form wavefront bounds (`ISSUE 1` hot-path work).
///
/// For chunk rows `i = base+1 ..= base+rows` against `R` columns under a
/// fixed band `|i − j| ≤ hw`, PE `k` computes cell `(base+k+1, w−k+1)` at
/// wavefront `w`, so the in-band, in-matrix lanes of wavefront `w` are
///
/// ```text
/// k ≥ w + 1 − R           (j ≤ R)
/// k ≤ w                   (j ≥ 1)
/// k ≤ rows − 1            (lane exists)
/// ⌈(w − base − hw)/2⌉ ≤ k ≤ ⌊(w − base + hw)/2⌋   (band)
/// ```
///
/// and the set of non-empty wavefronts is the interval `[w_start, w_end]`
/// (the band ∩ strip region is convex, so its image under `w = k + j − 1`
/// has no holes) — except for the degenerate `half_width = 0` band, where
/// only every other wavefront carries the single diagonal cell and the
/// in-between wavefronts are empty. Everything outside the interval is
/// skipped without scanning; empty wavefronts inside it only pay the
/// buffer-rotation step.
#[derive(Debug, Clone, Copy)]
struct ChunkWindow {
    base: usize,
    rows: usize,
    r: usize,
    /// `None` = unbanded.
    half_width: Option<usize>,
    /// First wavefront with any in-band cell.
    w_start: usize,
    /// Last wavefront with any in-band cell.
    w_end: usize,
}

impl ChunkWindow {
    /// Computes the window for one chunk, or `None` if the chunk (and,
    /// because `i` only grows, every later chunk) is entirely out of band.
    fn new(base: usize, rows: usize, r: usize, banding: Banding) -> Option<Self> {
        match banding {
            Banding::None => Some(Self {
                base,
                rows,
                r,
                half_width: None,
                w_start: 0,
                w_end: rows + r - 2,
            }),
            Banding::Fixed { half_width: hw } => {
                // Row i has in-band columns iff i − hw ≤ R.
                if base + 1 > r + hw {
                    return None;
                }
                // Last lane whose row still intersects the band.
                let k_last = (rows - 1).min(r + hw - base - 1);
                // First in-band cell of row base+1 is column max(1, i−hw).
                let w_start = (base + 1).saturating_sub(hw + 1);
                // Last in-band cell of row base+k_last+1.
                let w_end = k_last + (base + k_last + 1 + hw).min(r) - 1;
                Some(Self {
                    base,
                    rows: k_last + 1,
                    r,
                    half_width: Some(hw),
                    w_start,
                    w_end,
                })
            }
        }
    }

    /// Active lane bounds `[k_lo, k_hi]` of wavefront `w`, signed. The
    /// range may be empty (`k_lo > k_hi`, by exactly one — only for a
    /// `half_width = 0` band on off-parity wavefronts); every lane in a
    /// non-empty range is in-band and in-matrix, so the PE loop needs no
    /// per-cell membership test. Both bounds move down by at most one lane
    /// per wavefront, which is what lets the caller keep buffer hygiene by
    /// clearing just the two flanking lanes.
    #[inline]
    fn lanes(&self, w: usize) -> (isize, isize) {
        let w = w as isize;
        let r = self.r as isize;
        let mut lo = (w + 1 - r).max(0);
        let mut hi = w.min(self.rows as isize - 1);
        if let Some(hw) = self.half_width {
            let (base, hw) = (self.base as isize, hw as isize);
            // ceil((w - base - hw) / 2) and floor((w - base + hw) / 2).
            lo = lo.max((w - base - hw + 1).div_euclid(2));
            hi = hi.min((w - base + hw).div_euclid(2));
        }
        debug_assert!(
            lo >= 0 && lo <= hi + 1,
            "lane window out of bounds (w={w}, chunk base {})",
            self.base
        );
        (lo, hi)
    }
}

/// Runs one alignment through the systolic block.
///
/// Equivalent to [`run_systolic_with_scratch`] with a fresh
/// [`SystolicScratch`]; batch callers should hold a scratch per worker and
/// call the `_with_scratch` form to keep the hot path allocation-free.
///
/// # Errors
///
/// Returns [`SystolicError`] if the configuration is invalid, a sequence is
/// empty, or a sequence exceeds the configured maximum lengths.
pub fn run_systolic<K: LaneKernel>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
) -> Result<SystolicRun<K::Score>, SystolicError> {
    let mut scratch = SystolicScratch::new();
    run_systolic_with_scratch::<K>(params, query, reference, config, &mut scratch)
}

/// Runs one alignment through the systolic block, reusing `scratch` for
/// every internal buffer. Bit-identical to [`run_systolic`]; after the
/// first call on the largest geometry of a workload the hot path performs
/// **no heap allocation** (the returned alignment path is the only output
/// allocation).
///
/// The wavefront inner loop runs in **multi-lane mode**: interior lanes are
/// scored [`LANE_WIDTH`] at a time through [`LaneKernel::pe_lanes`]
/// ([`LaneKernel::pe_lanes_primary`] for single-layer kernels) with the
/// two boundary lanes (PE 0 reading the Preserved Row Score Buffer, and the
/// `j = 1` lane reading column inits) peeled scalar. Use
/// [`run_systolic_scalar_with_scratch`] to force the per-cell path.
///
/// # Errors
///
/// Returns [`SystolicError`] if the configuration is invalid, a sequence is
/// empty, or a sequence exceeds the configured maximum lengths.
pub fn run_systolic_with_scratch<K: LaneKernel>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut SystolicScratch<K::Score>,
) -> Result<SystolicRun<K::Score>, SystolicError> {
    run_block::<K, LANE_WIDTH>(
        params,
        query,
        reference,
        config,
        scratch,
        LaneMode::Lanes,
        false,
    )
    .map(|run| run.expect("unguarded systolic run always completes"))
}

/// Runs one alignment with the wavefront loop forced to one
/// [`dphls_core::KernelSpec::pe`] call per cell — the PR 1 scalar hot path,
/// kept as the measurable comparand for the multi-lane engine (the `lanes`
/// bench and the lane-vs-scalar property suite both diff against it).
///
/// # Errors
///
/// Returns [`SystolicError`] if the configuration is invalid, a sequence is
/// empty, or a sequence exceeds the configured maximum lengths.
pub fn run_systolic_scalar_with_scratch<K: LaneKernel>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut SystolicScratch<K::Score>,
) -> Result<SystolicRun<K::Score>, SystolicError> {
    run_block::<K, LANE_WIDTH>(
        params,
        query,
        reference,
        config,
        scratch,
        LaneMode::Scalar,
        false,
    )
    .map(|run| run.expect("unguarded systolic run always completes"))
}

/// Runs one alignment with saturation guarding: every computed wavefront is
/// scanned for scores inside the guard band
/// ([`dphls_core::Score::needs_escalation`]) and the run aborts with
/// `Ok(None)` the moment one appears — the adaptive driver's signal to
/// re-run the pair at full precision. `Ok(Some(run))` certifies that **no**
/// output-layer value of any in-band cell entered the guard band, which (for
/// parameters inside the [`dphls_core::I8_PARAM_LIMIT`] envelope) makes the
/// narrow run bit-identical to the exact one.
///
/// The lane count is a const generic so the narrow score type gets a wider
/// vector: `i8` packs [`dphls_core::I8_LANES_NARROW`] or
/// [`dphls_core::I8_LANES_WIDE`] lanes into the same register budget that
/// holds [`LANE_WIDTH`] `i16` lanes.
///
/// # Errors
///
/// Returns [`SystolicError`] if the configuration is invalid, a sequence is
/// empty, or a sequence exceeds the configured maximum lengths.
pub(crate) fn run_systolic_guarded_with_scratch<K: LaneKernel<LANES>, const LANES: usize>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut SystolicScratch<K::Score>,
) -> Result<Option<SystolicRun<K::Score>>, SystolicError> {
    run_block::<K, LANES>(
        params,
        query,
        reference,
        config,
        scratch,
        LaneMode::Lanes,
        true,
    )
}

/// How one wavefront cell is stored and how the lane port is called on it —
/// the one decision the wavefront loop is generic over. Both shapes walk the
/// same cells in the same order and are bit-identical (the lane-vs-scalar
/// and cross-precision property suites enforce it); they differ only in what
/// the buffers hold. The loop is monomorphised per shape, so none of these
/// calls survives as a branch.
trait CellShape<K: LaneKernel<LANES>, const LANES: usize> {
    /// What the Preserved Row Score Buffer and the DP Memory Buffer hold.
    type Cell: Copy;

    /// Stores a layer vector: a boundary value or a scalar
    /// [`KernelSpec::pe`](dphls_core::KernelSpec::pe) output.
    fn store(v: LayerVec<K::Score>) -> Self::Cell;

    /// The stored cell as the layer vector the scalar PE and the best-cell
    /// trackers read.
    fn load(cell: Self::Cell) -> LayerVec<K::Score>;

    /// Scores `q.len() ≤ LANES` consecutive interior lanes (the
    /// [`LaneKernel`] port contract). Under `guard`, returns `true` when a
    /// fresh output value is inside the escalation guard band
    /// ([`Score::needs_escalation`]; constant `false` for exact score types,
    /// where the check folds away). Without `guard` nobody reads the flag,
    /// and a shape whose check is a separate pass skips it.
    #[allow(clippy::too_many_arguments)]
    fn pe_lanes(
        params: &K::Params,
        q: &[K::Sym],
        r_rev: &[K::Sym],
        diag: &[Self::Cell],
        up: &[Self::Cell],
        left: &[Self::Cell],
        out: &mut [Self::Cell],
        ptrs: &mut [TbPtr],
        guard: bool,
    ) -> bool;
}

/// Cells are [`LayerVec`]s scored through [`LaneKernel::pe_lanes`]; the
/// guard scans every layer of the fresh outputs (affine H/I/D each feed
/// later candidates). Multi-layer kernels need this shape, and
/// [`LaneMode::Scalar`] always takes it.
struct Layered;

/// Cells are bare scores — structure-of-arrays buffers whose lane gathers
/// and scatters are contiguous vector copies — scored through
/// [`LaneKernel::pe_lanes_primary`], which fuses the guard flag into the
/// lane body. Single-layer kernels in lane mode take this shape.
struct Flat;

fn escalates<S: Score>(cell: &LayerVec<S>) -> bool {
    cell.as_slice().iter().any(|s| s.needs_escalation())
}

impl<K: LaneKernel<LANES>, const LANES: usize> CellShape<K, LANES> for Layered {
    type Cell = LayerVec<K::Score>;

    fn store(v: LayerVec<K::Score>) -> Self::Cell {
        v
    }

    fn load(cell: Self::Cell) -> LayerVec<K::Score> {
        cell
    }

    #[inline]
    fn pe_lanes(
        params: &K::Params,
        q: &[K::Sym],
        r_rev: &[K::Sym],
        diag: &[Self::Cell],
        up: &[Self::Cell],
        left: &[Self::Cell],
        out: &mut [Self::Cell],
        ptrs: &mut [TbPtr],
        guard: bool,
    ) -> bool {
        K::pe_lanes(params, q, r_rev, diag, up, left, out, ptrs);
        guard && out.iter().any(escalates)
    }
}

impl<K: LaneKernel<LANES>, const LANES: usize> CellShape<K, LANES> for Flat {
    type Cell = K::Score;

    fn store(v: LayerVec<K::Score>) -> Self::Cell {
        v.primary()
    }

    fn load(cell: Self::Cell) -> LayerVec<K::Score> {
        LayerVec::splat(1, cell)
    }

    #[inline]
    fn pe_lanes(
        params: &K::Params,
        q: &[K::Sym],
        r_rev: &[K::Sym],
        diag: &[Self::Cell],
        up: &[Self::Cell],
        left: &[Self::Cell],
        out: &mut [Self::Cell],
        ptrs: &mut [TbPtr],
        _guard: bool,
    ) -> bool {
        K::pe_lanes_primary(params, q, r_rev, diag, up, left, out, ptrs)
    }
}

/// Validates the inputs and runs the wavefront loop on the storage shape the
/// kernel and mode select: [`Flat`] for single-layer kernels in lane mode,
/// [`Layered`] otherwise. `K::meta()` is a constant, so each instantiation
/// keeps exactly one of the two calls.
fn run_block<K: LaneKernel<LANES>, const LANES: usize>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut SystolicScratch<K::Score>,
    mode: LaneMode,
    guard: bool,
) -> Result<Option<SystolicRun<K::Score>>, SystolicError> {
    validate_inputs(config, query.len(), reference.len())?;
    let SystolicScratch {
        layered,
        flat,
        trackers,
        tbmem,
    } = scratch;
    Ok(if mode == LaneMode::Lanes && K::meta().n_layers == 1 {
        wavefront_loop::<K, LANES, Flat>(
            params, query, reference, config, flat, trackers, tbmem, mode, guard,
        )
    } else {
        wavefront_loop::<K, LANES, Layered>(
            params, query, reference, config, layered, trackers, tbmem, mode, guard,
        )
    })
}

/// The wavefront loop: chunks of `NPE` rows, anti-diagonals within a chunk,
/// active lanes within an anti-diagonal. Returns `None` when `guard` is set
/// and a computed value entered the escalation guard band.
#[allow(clippy::too_many_arguments)]
fn wavefront_loop<K: LaneKernel<LANES>, const LANES: usize, Sh: CellShape<K, LANES>>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    bufs: &mut CellBufs<Sh::Cell>,
    trackers: &mut Vec<BestTracker<K::Score>>,
    tbmem: &mut Option<TbMem>,
    mode: LaneMode,
    guard: bool,
) -> Option<SystolicRun<K::Score>> {
    let meta = K::meta();
    let banding = config.banding;
    let (q, r) = (query.len(), reference.len());
    let npe = config.npe;
    let chunks = config.chunks_for(q);
    let rule = meta.traceback.best;
    let worst = Sh::store(LayerVec::splat(meta.n_layers, meta.objective.worst()));
    // Column-0 boundary value of row `i` (worst outside the band).
    let col_init = |i: usize| {
        if banding.contains(i, 0) {
            Sh::store(K::init_col(params, i))
        } else {
            worst
        }
    };

    // ---- Arena preparation: resize (capacity-preserving) + re-init. ----
    match tbmem {
        Some(mem) => mem.reset(npe, chunks, r),
        None => *tbmem = Some(TbMem::new(npe, chunks, r)),
    }
    let tbmem = tbmem.as_mut().expect("tbmem just initialized");
    trackers.clear();
    trackers.resize_with(npe, || BestTracker::new(meta.objective));
    bufs.prepare(npe, r, worst);
    let CellBufs {
        prev_row,
        next_row,
        wf_m1,
        wf_m2,
        cur,
    } = bufs;
    // Preserved Row Score Buffer: scores of the row above the current
    // chunk's first row, indexed by column 0..=R.
    for j in (0..=r).take_while(|&j| banding.contains(0, j)) {
        prev_row[j] = Sh::store(K::init_row(params, j));
    }

    let mut stats = BlockStats {
        chunks: chunks as u64,
        query_len: q as u64,
        ref_len: r as u64,
        reduction_levels: npe.next_power_of_two().trailing_zeros() as u64,
        ..BlockStats::default()
    };

    for c in 0..chunks {
        let base = c * npe;
        let rows = npe.min(q - base);
        let last_pe = rows - 1;
        let Some(window) = ChunkWindow::new(base, rows, r, banding) else {
            // The band has exited the matrix below this chunk; every later
            // chunk starts even deeper, so the block is done.
            break;
        };
        // Next chunk's preserved row: column 0 is the boundary value of the
        // chunk's last row.
        next_row.fill(worst);
        next_row[0] = col_init(base + last_pe + 1);
        wf_m1.fill(worst);
        wf_m2.fill(worst);

        // Dead wavefronts before w_start and after w_end are skipped
        // entirely; within the window the lane bounds are closed-form, so
        // the loop touches only in-band cells. An empty bound pair (only
        // possible for half_width = 0, off-parity wavefronts) skips the PE
        // loop but still rotates the buffers so wavefront parities stay
        // aligned.
        for w in window.w_start..=window.w_end {
            let (lo, hi) = window.lanes(w);
            if lo <= hi {
                let (k_lo, k_hi) = (lo as usize, hi as usize);
                // Per-wavefront escalation accumulator: scalar cells and
                // lane calls all OR into it. For exact score types every
                // contribution is the constant `false` and the accumulator
                // (and the guarded bail-out) fold away.
                let mut escalate = false;

                // One full scalar cell: neighbor fetch mirroring the
                // hardware buffers, PE call, tracker offer, traceback
                // write, preserved-row capture. Used for every lane in
                // scalar mode and for the peeled boundary lanes in lane
                // mode. (A macro, not a closure: a closure would hold all
                // its captured borrows across the lane-chunk calls below.)
                macro_rules! scalar_cell {
                    ($lane:expr) => {{
                        let k: usize = $lane;
                        let i = base + k + 1;
                        let j = w - k + 1;
                        let left = if j == 1 { col_init(i) } else { wf_m1[k] };
                        let up = if k == 0 { prev_row[j] } else { wf_m1[k - 1] };
                        let diag = if k == 0 {
                            prev_row[j - 1]
                        } else if j == 1 {
                            col_init(i - 1)
                        } else {
                            wf_m2[k - 1]
                        };
                        let (out, ptr) = K::pe(
                            params,
                            query[i - 1],
                            reference[j - 1],
                            &Sh::load(diag),
                            &Sh::load(up),
                            &Sh::load(left),
                        );
                        escalate |= guard && escalates(&out);
                        tbmem.write(k, c, w, ptr);
                        offer_if_eligible(&mut trackers[k], rule, out.primary(), i, j, q, r);
                        let out = Sh::store(out);
                        if k == last_pe {
                            next_row[j] = out;
                        }
                        cur[k] = out;
                    }};
                }

                match mode {
                    LaneMode::Scalar => {
                        for k in k_lo..=k_hi {
                            scalar_cell!(k);
                        }
                    }
                    LaneMode::Lanes => {
                        // Peel the two irregular lanes: PE 0 reads the
                        // Preserved Row Score Buffer, and lane k = w (the
                        // j = 1 cell) reads column boundary inits. Every
                        // interior lane k has j ≥ 2 and k ≥ 1, so its
                        // neighbors are plain strided reads of the two
                        // wavefront snapshots — exactly the shape the lane
                        // ports want.
                        let mut k_first = k_lo;
                        if k_lo == 0 {
                            scalar_cell!(0);
                            k_first = 1;
                        }
                        let mut k_last = k_hi;
                        if k_hi == w && k_hi >= k_first {
                            scalar_cell!(k_hi);
                            k_last = k_hi - 1;
                        }
                        let mut ptrs = [TbPtr::END; LANES];
                        let mut k = k_first;
                        while k <= k_last {
                            let n = LANES.min(k_last - k + 1);
                            // Lane t scores cell (base+k+t+1, w-k-t+1):
                            // query symbols advance, reference symbols
                            // retreat (`r_rev` stays a plain subslice).
                            escalate |= Sh::pe_lanes(
                                params,
                                &query[base + k..base + k + n],
                                &reference[w - k + 1 - n..w - k + 1],
                                &wf_m2[k - 1..k - 1 + n],
                                &wf_m1[k - 1..k - 1 + n],
                                &wf_m1[k..k + n],
                                &mut cur[k..k + n],
                                &mut ptrs[..n],
                                guard,
                            );
                            tbmem.write_lanes(k, c, w, &ptrs[..n]);
                            // Tracker offers. Only local (AllCells) kernels
                            // accept every lane; under the boundary rules
                            // at most the last-row lane (i = q ⇔
                            // k = q−1−base) and the last-column lane (j = r
                            // ⇔ k = w+1−r) can be eligible, so offering
                            // just those keeps the reduction input identical
                            // with O(1) work. (When the two coincide the
                            // double offer is idempotent.)
                            let chunk = k..k + n;
                            let offer = |lane: usize| {
                                let (i, j) = (base + lane + 1, w - lane + 1);
                                let score = Sh::load(cur[lane]).primary();
                                offer_if_eligible(&mut trackers[lane], rule, score, i, j, q, r);
                            };
                            if rule == BestCellRule::AllCells {
                                chunk.clone().for_each(offer);
                            } else {
                                let row_lane = (q - 1).wrapping_sub(base);
                                let col_lane = (w + 1).wrapping_sub(r);
                                let edges = [row_lane, col_lane].into_iter();
                                edges.filter(|l| chunk.contains(l)).for_each(offer);
                            }
                            if chunk.contains(&last_pe) {
                                next_row[w - last_pe + 1] = cur[last_pe];
                            }
                            k += n;
                        }
                    }
                }
                stats.cells += (k_hi - k_lo + 1) as u64;
                stats.wavefronts += 1;
                // Saturation guard: a narrow-precision run is only certified
                // bit-identical while every output-layer value stays outside
                // the guard band; bail out the instant one wavefront needs
                // escalation.
                if guard && escalate {
                    return None;
                }
            }
            // The lane bounds move down by at most one lane per wavefront,
            // so clearing one lane on each flank keeps every stale entry
            // the next two wavefronts can read at the worst value — exactly
            // what the full-lane scan produced. For an empty wavefront
            // (lo = hi + 1) the two flanks are lanes hi and lo themselves,
            // covering everything the next wavefronts can read.
            let (flank_lo, flank_hi) = (lo - 1, hi + 1);
            if flank_lo >= 0 {
                cur[flank_lo as usize] = worst;
            }
            if (flank_hi as usize) < npe {
                cur[flank_hi as usize] = worst;
            }
            std::mem::swap(wf_m2, wf_m1);
            std::mem::swap(wf_m1, cur);
        }
        std::mem::swap(prev_row, next_row);
    }

    // Reduction over per-PE local bests (paper §5.2).
    let mut global = BestTracker::new(meta.objective);
    for t in trackers.iter() {
        global.merge(t);
    }
    let (best_score, best_cell) = global.best();

    let alignment = meta
        .traceback
        .walk
        .map(|walk| walk_traceback::<K>(&|i, j| tbmem.read_cell(i, j), best_cell, walk));
    stats.tb_steps = alignment.as_ref().map_or(0, |a| a.len() as u64);

    Some(SystolicRun {
        output: DpOutput {
            best_score,
            best_cell,
            alignment,
            cells_computed: stats.cells,
        },
        stats,
    })
}

fn validate_inputs(
    config: &KernelConfig,
    query_len: usize,
    ref_len: usize,
) -> Result<(), SystolicError> {
    config.validate()?;
    if query_len == 0 || ref_len == 0 {
        return Err(SystolicError::EmptySequence);
    }
    for (which, len, max) in [
        ("query", query_len, config.max_query),
        ("reference", ref_len, config.max_ref),
    ] {
        if len > max {
            return Err(SystolicError::SequenceTooLong { which, len, max });
        }
    }
    Ok(())
}

/// Convenience wrapper asserting success (for tests and examples where the
/// configuration is known-valid).
///
/// # Panics
///
/// Panics if [`run_systolic`] returns an error.
pub fn run_systolic_ok<K: LaneKernel>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
) -> SystolicRun<K::Score> {
    run_systolic::<K>(params, query, reference, config).expect("systolic run failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::{run_reference, Banding};
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn cfg(npe: usize) -> KernelConfig {
        KernelConfig::new(npe, 1, 1).with_max_lengths(512, 512)
    }

    #[test]
    fn matches_reference_on_simple_pair() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGTACGTAC");
        let r = dna("ACGATCGTTC");
        let want = run_reference::<GlobalLinear>(&p, q.as_slice(), r.as_slice(), Banding::None);
        for npe in [1, 2, 3, 4, 8, 16] {
            let got = run_systolic_ok::<GlobalLinear>(&p, q.as_slice(), r.as_slice(), &cfg(npe));
            assert_eq!(got.output, want, "npe={npe}");
        }
    }

    #[test]
    fn stats_counts_match_geometry() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGTACGT"); // 8 rows
        let r = dna("ACGTAC"); // 6 cols
        let run = run_systolic_ok::<GlobalLinear>(&p, q.as_slice(), r.as_slice(), &cfg(4));
        assert_eq!(run.stats.chunks, 2);
        assert_eq!(run.stats.cells, 48); // full matrix
        assert_eq!(run.stats.wavefronts, 2 * (6 + 4 - 1));
        assert_eq!(run.stats.reduction_levels, 2); // log2(4)
        assert_eq!(run.stats.query_len, 8);
    }

    #[test]
    fn rejects_bad_inputs() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGT");
        let err = run_systolic::<GlobalLinear>(&p, q.as_slice(), &[], &cfg(2)).unwrap_err();
        assert_eq!(err, SystolicError::EmptySequence);

        let long = dna(&"A".repeat(600));
        let err =
            run_systolic::<GlobalLinear>(&p, long.as_slice(), q.as_slice(), &cfg(2)).unwrap_err();
        assert!(matches!(
            err,
            SystolicError::SequenceTooLong { which: "query", .. }
        ));
        assert!(err.to_string().contains("600"));

        let bad_cfg = KernelConfig::new(0, 1, 1);
        let err =
            run_systolic::<GlobalLinear>(&p, q.as_slice(), q.as_slice(), &bad_cfg).unwrap_err();
        assert!(matches!(err, SystolicError::Config(_)));
    }

    #[test]
    fn pe_utilization_degrades_with_npe() {
        // §7.2: wavefront parallelism diminishes near the matrix edges, so
        // wider arrays idle more.
        let p = LinearParams::<i16>::dna();
        let s = dna(&"ACGT".repeat(16)); // 64 long
        let mut last = 1.1f64;
        for npe in [2usize, 8, 32] {
            let run = run_systolic_ok::<GlobalLinear>(&p, s.as_slice(), s.as_slice(), &cfg(npe));
            let u = run.stats.pe_utilization(npe);
            assert!(u > 0.0 && u <= 1.0);
            assert!(u < last, "utilization {u} not decreasing at NPE={npe}");
            last = u;
        }
        // NPE=1 is perfectly utilized.
        let run = run_systolic_ok::<GlobalLinear>(&p, s.as_slice(), s.as_slice(), &cfg(1));
        assert!((run.stats.pe_utilization(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_bands_match_reference() {
        // half_width 0 activates only every other wavefront (the pure
        // diagonal), and half_width 1 is the narrowest contiguous band —
        // both must stay bit-identical to the reference engine.
        let p = LinearParams::<i16>::dna();
        let a = dna("ACGTACGTACGTACG"); // 15 long
        let b = dna("ACGAACGTTCGTAC"); // 14 long
        for hw in [0usize, 1, 2] {
            for npe in [1usize, 3, 4, 8] {
                let config = cfg(npe).with_banding(hw);
                let banding = Banding::Fixed { half_width: hw };
                let want = run_reference::<GlobalLinear>(&p, a.as_slice(), b.as_slice(), banding);
                let got = run_systolic_ok::<GlobalLinear>(&p, a.as_slice(), b.as_slice(), &config);
                assert_eq!(got.output, want, "hw={hw} npe={npe}");
                // Zero half-width computes exactly the diagonal.
                if hw == 0 {
                    assert_eq!(got.stats.cells, b.len() as u64, "hw=0 npe={npe}");
                    assert_eq!(got.stats.wavefronts, b.len() as u64, "hw=0 npe={npe}");
                }
            }
        }
    }

    #[test]
    fn chunk_window_matches_brute_force_geometry() {
        // The closed-form window against plain enumeration with
        // `Banding::contains`, over every small geometry.
        let bandings = std::iter::once(Banding::None)
            .chain((0..=4).map(|half_width| Banding::Fixed { half_width }));
        for banding in bandings {
            for (q, r, npe) in (1..=12usize)
                .flat_map(|q| (1..=12usize).flat_map(move |r| (1..=6usize).map(move |n| (q, r, n))))
            {
                // In-band lanes of wavefront `w` in the chunk at `base`.
                let lanes_at = |base: usize, w: usize| -> Vec<usize> {
                    (0..npe.min(q - base))
                        .filter(|&k| {
                            w >= k && w - k < r && banding.contains(base + k + 1, w - k + 1)
                        })
                        .collect()
                };
                let mut band_left = false;
                for base in (0..q).step_by(npe) {
                    let rows = npe.min(q - base);
                    let live: Vec<usize> = (0..rows + r - 1)
                        .filter(|&w| !lanes_at(base, w).is_empty())
                        .collect();
                    let ctx = format!("{banding:?} q={q} r={r} npe={npe} base={base}");
                    let Some(window) = ChunkWindow::new(base, rows, r, banding) else {
                        // `None` ends the block: no cell here or below.
                        assert!(live.is_empty(), "{ctx}: window missed cells");
                        band_left = true;
                        continue;
                    };
                    assert!(!band_left, "{ctx}: band re-entered after a None chunk");
                    assert_eq!(
                        (Some(&window.w_start), Some(&window.w_end)),
                        (live.first(), live.last()),
                        "{ctx}: wavefront interval not tight"
                    );
                    let mut prev: Option<(isize, isize)> = None;
                    let (first, last) = (window.w_start, window.w_end);
                    for w in first..=last {
                        let (lo, hi) = window.lanes(w);
                        let want: Vec<usize> = (lo..=hi).map(|k| k as usize).collect();
                        assert_eq!(lanes_at(base, w), want, "{ctx} w={w}: lane range");
                        // The flank-clear precondition: each bound moves
                        // down the array by at most one lane per wavefront.
                        if let Some((plo, phi)) = prev {
                            assert!((0..=1).contains(&(lo - plo)), "{ctx} w={w}: lo jumped");
                            assert!((0..=1).contains(&(hi - phi)), "{ctx} w={w}: hi jumped");
                        }
                        prev = Some((lo, hi));
                    }
                }
            }
        }
    }

    #[test]
    fn banding_reduces_wavefronts_and_cells() {
        let p = LinearParams::<i16>::dna();
        let s = dna(&"ACGT".repeat(16)); // 64 long
        let full = run_systolic_ok::<GlobalLinear>(&p, s.as_slice(), s.as_slice(), &cfg(8));
        let banded_cfg = cfg(8).with_banding(4);
        let banded = run_systolic_ok::<GlobalLinear>(&p, s.as_slice(), s.as_slice(), &banded_cfg);
        assert!(banded.stats.cells < full.stats.cells);
        assert!(banded.stats.wavefronts < full.stats.wavefronts);
        // Identical sequences: banded score equals full score.
        assert_eq!(banded.output.best_score, full.output.best_score);
    }

    #[test]
    fn npe_larger_than_query_is_rejected_by_validation() {
        let p = LinearParams::<i16>::dna();
        let q = dna("ACGT");
        let config = KernelConfig::new(8, 1, 1).with_max_lengths(4, 16);
        let err = run_systolic::<GlobalLinear>(&p, q.as_slice(), q.as_slice(), &config);
        assert!(matches!(err, Err(SystolicError::Config(_))));
    }
}
