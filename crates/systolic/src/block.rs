//! The functional systolic block engine: a linear array of processing
//! elements computing a DP matrix strip-by-strip, wavefront-by-wavefront
//! (paper §5.1, Fig 2C).
//!
//! The engine follows the generated hardware's dataflow:
//!
//! * rows are divided into **strips** of consecutive rows, one lane per row;
//! * within a strip the **wavefront** (anti-diagonal) index `w` advances once
//!   per pipeline initiation; lane `k` computes cell `(base+k+1, w−k+1)`;
//! * lane `k` reads `left` from its own previous output, `up`/`diag` from
//!   lane `k−1`'s previous two outputs (the DP Memory Buffer), with lane 0
//!   reading the **Preserved Row Score Buffer** written by the last lane of
//!   the previous strip;
//! * traceback pointers stream into the traceback memory (`TbMem`) one
//!   wavefront's lanes at a time;
//! * each lane tracks its local best among traceback-eligible cells; a
//!   reduction across lanes picks the block's best cell (paper §5.2).
//!
//! The hardware's strips are its chunks, `NPE` rows tall: NPE trades PEs
//! against LUTs, BRAM and fmax. The software loop pays none of those costs
//! but does pay a fixed cost per wavefront, so it picks its own strip height
//! from the pair's geometry (`strip_height`: the whole query up to
//! `STRIP_MAX` rows). NPE stays the cycle model's number: [`BlockStats`]
//! counts the chunks and wavefronts of `NPE`-row chunks, whatever strips the
//! loop ran, and the cells, which no strip height changes.
//!
//! There is **one** wavefront loop over **one** storage. What varies is a
//! value or a type parameter of it: guarded or not (the adaptive `i8`
//! path), the lane width, and the kernel. Each of the five buffers is
//! `n_layers` contiguous planes of bare scores (the paper's "each scoring
//! layer is its own partitioned array"), and each wavefront plane has one
//! extra **leading slot** — lane 0's port onto the Preserved Row Score
//! Buffer. Slot 0 of the two previous wavefronts is kept loaded with
//! `prev_row[j]` / `prev_row[j − 1]` for the column lane 0 is in, so lane 0
//! finds `up` and `diag` exactly where every other lane finds its upper
//! neighbour and the whole lane range is one run of equal-length plane
//! subslices. Only the `j = 1` lane, whose neighbours are column-0 boundary
//! values, is peeled scalar.
//!
//! Multi-layer kernels score that run in **one call per wavefront**
//! ([`LaneKernel::pe_wavefront`]) that reads the reference through a
//! per-alignment reversed copy, so query and reference are both forward
//! slices, and writes its pointers straight into the `TbMem` run.
//! The two overriding families cut that run into whole 32-lane blocks and
//! one overlapping last block inside the kernel (64-lane blocks for the
//! `i8` difference body below), so a long wavefront pays no vector
//! epilogue or scalar remainder either.
//! Single-layer kernels score it in `LANES`-wide padded chunks over plane 0
//! ([`LaneKernel::pe_lanes_primary`]): a band-clipped short-read wavefront
//! is ~19 cells, where the padded fixed-width body beats an exact-length
//! loop with a remainder (by 6–16 % end to end).
//! The choice is the kernel's layer count, a compile-time constant.
//!
//! The scalar door, [`run_systolic_scalar_with_scratch`], is the same loop
//! on `PerCell<K>`: `K` with every lane port left at its default, each of
//! which bottoms out in one [`KernelSpec::pe`] call a cell. It is the
//! comparand every lane body is measured and differentially tested against,
//! equal to the lane path by construction rather than by a second loop.
//!
//! The loop runs a kernel's **difference form** the same way it runs
//! `PerCell<K>`: as a kernel. Global Affine restates its recurrence on
//! bounded `i8` differences of neighbouring cells (`dphls_kernels`'
//! `affine.rs` derives it), four layers a cell and 64 lanes a 512-bit
//! vector. `run_block` asks for it through the one hook,
//! [`LaneKernel::difference_form`], on the runs whose answer it can give —
//! no cell outside the band, no guard, the best cell bottom-right — and the
//! kernel hands it over only where it proves the form equal on the pair.
//! Then the loop scores the form's `i8` planes (the arena keeps a second,
//! `i8` set; the traceback memory and the reversed reference are shared),
//! and the run keeps the form's pointers, walk and [`BlockStats`], which
//! are the kernel's. The one number the differences do not hold, the score
//! of cell `(q, r)`, is read off the last row, which the preserved row
//! holds once the last strip ends ([`DifferenceForm::bottom_right`]). The
//! scalar door never takes the form: `PerCell<K>` leaves the hook at its
//! default, so it stays the comparand.
//!
//! The result is bit-identical to [`dphls_core::run_reference`] (verified by
//! differential and property tests), while also producing the structural
//! statistics ([`BlockStats`]) the cycle model consumes.
//!
//! This is the engine of **one pair at a time**: lanes run along an
//! anti-diagonal, which suits long and wide matrices and fits short banded
//! ones badly (a w20 band offers ~19 cells to a 32-lane chunk). Short banded
//! pairs of single-layer kernels that arrive several at once go across the
//! lanes instead — the grouped engine, `group.rs` — and take from here only
//! `BlockStats::from_geometry`, the closed form of what this loop counts.

use crate::tbmem::TbMem;
use dphls_core::reference::{offer_if_eligible, walk_traceback, BestTracker};
use dphls_core::{
    Banding, BestCellRule, DifferenceForm, DifferenceRunner, DpOutput, KernelConfig, KernelMeta,
    KernelSpec, LaneKernel, LayerVec, Score, TbMove, TbPtr, TbState, LANE_WIDTH, MAX_LAYERS,
};
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::mem;

/// Structural counts from one block-level alignment, consumed by the cycle
/// model ([`crate::cycles`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Row chunks of the `NPE`-PE array (`⌈Q / NPE⌉`).
    pub chunks: u64,
    /// Wavefront iterations the array issues over those chunks (banding
    /// skips whole wavefronts).
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
    /// The counts of a `q × r` alignment under `config` that belong to the
    /// `NPE`-PE array rather than to any run: the chunks, the wavefronts
    /// that carry at least one in-band cell of an `NPE`-row chunk, the
    /// reduction depth and the two lengths — no cells, no traceback, no
    /// escalation. One [`ChunkWindow`] a chunk, so O(`⌈q / NPE⌉`). The
    /// wavefront loop reports these whatever strip height it ran.
    ///
    /// # Panics
    ///
    /// Panics if `config.npe` is zero (a configuration
    /// [`KernelConfig::validate`] rejects).
    fn model(q: usize, r: usize, config: &KernelConfig) -> Self {
        let (npe, banding) = (config.npe, config.banding);
        let mut stats = BlockStats {
            chunks: config.chunks_for(q) as u64,
            query_len: q as u64,
            ref_len: r as u64,
            reduction_levels: npe.next_power_of_two().trailing_zeros() as u64,
            ..BlockStats::default()
        };
        // A chunk's live wavefronts are the interval `w_start..=w_end` —
        // except under `half_width = 0`, where only every other one carries
        // the chunk's single diagonal cell: one wavefront per row.
        let windows = (0..q)
            .step_by(npe)
            .map_while(|base| ChunkWindow::new(base, npe.min(q - base), r, banding));
        for window in windows {
            stats.wavefronts += match window.half_width {
                Some(0) => window.rows,
                _ => window.w_end - window.w_start + 1,
            } as u64;
        }
        stats
    }

    /// The structural counts of a `q × r` alignment under `config`, in
    /// closed form from the chunk / band geometry: [`BlockStats::model`]'s
    /// and the in-band cells, with no traceback (`tb_steps` 0) and no
    /// escalation. The grouped engine never walks wavefronts, so this is
    /// where its per-pair stats come from. The wavefront loop still counts
    /// its cells as it goes: reporting them from here instead was tried and
    /// cost the lockstep latency probe 1.5 µs a pair (`lat_p50_ms` 0.0817 →
    /// 0.0832, worse on 8 of 9 alternating runs) — 120 `cells_in_row` calls
    /// on a core just woken for one pair — so the two are held together by
    /// tests instead (`chunk_window_matches_brute_force_geometry` and
    /// `every_strip_height_scores_like_the_reference_with_the_npe_models_stats`
    /// here, `every_small_geometry_equals_the_wavefront_engine` in
    /// `tests/proptest_grouped.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `config.npe` is zero.
    pub(crate) fn from_geometry(q: usize, r: usize, config: &KernelConfig) -> Self {
        BlockStats {
            cells: (1..=q)
                .map(|i| config.banding.cells_in_row(i, r) as u64)
                .sum(),
            ..Self::model(q, r, config)
        }
    }

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

/// The five score buffers one alignment works in — the Preserved Row Score
/// Buffer (`prev_row` / `next_row`) and the three wavefront snapshots of the
/// DP Memory Buffer — one storage for every kernel: each buffer is
/// `n_layers` contiguous planes of scores. A row plane is `R + 1` columns; a
/// wavefront plane is `S + 1` slots for a strip of `S` rows — slot 0 is lane
/// 0's port onto the Preserved Row Score Buffer and lane `k` lives in slot
/// `k + 1`, so lane `k` reads `left` from slot `k + 1` and `up` / `diag`
/// from slot `k` with no case for lane 0.
#[derive(Debug, Clone)]
struct Planes<S> {
    prev_row: Vec<S>,
    next_row: Vec<S>,
    wf_m1: Vec<S>,
    wf_m2: Vec<S>,
    cur: Vec<S>,
}

/// Cell `idx` of a planar buffer (plane `l` starts at `l · stride`).
#[inline]
fn gather<S: Score>(planes: &[S], stride: usize, layers: usize, idx: usize) -> LayerVec<S> {
    let mut cell = LayerVec::splat(layers, planes[idx]);
    for layer in 1..layers {
        cell.set(layer, planes[layer * stride + idx]);
    }
    cell
}

/// Stores `cell` as cell `idx` of a planar buffer.
#[inline]
fn scatter<S: Score>(planes: &mut [S], stride: usize, idx: usize, cell: &LayerVec<S>) {
    for (layer, &score) in cell.as_slice().iter().enumerate() {
        planes[layer * stride + idx] = score;
    }
}

/// Slots `from..from + n` of each plane of a planar buffer (which holds
/// nothing but its planes), as the per-layer slice list
/// [`LaneKernel::pe_wavefront`] takes; entries past the last plane are empty.
#[inline]
fn plane_runs<S>(planes: &[S], stride: usize, from: usize, n: usize) -> [&[S]; MAX_LAYERS] {
    let mut planes = planes.chunks(stride);
    std::array::from_fn(|_| {
        planes
            .next()
            .map_or(&[][..], |plane| &plane[from..from + n])
    })
}

/// A symbol buffer an arena keeps across runs. The arenas are typed by score
/// alone, so the vector is held type-erased (symbols are `'static`): refilled
/// in place run after run — it grows like every other buffer and then stops
/// allocating — and re-made only when a run's element type differs from the
/// last one's. Two users: the lane loop's reversed reference (lanes walk down
/// an anti-diagonal, so reference symbols retreat as query symbols advance,
/// and over the reversed copy both are forward slices) and the grouped
/// engine's transposed symbol stripes.
#[derive(Debug, Default)]
pub(crate) struct SymVec(Option<Box<dyn Any + Send + Sync>>);

impl SymVec {
    /// The held vector with whatever the last run left in it, or an empty
    /// one when that run's element type was not `T`.
    pub(crate) fn typed<T: Send + Sync + 'static>(&mut self) -> &mut Vec<T> {
        if !self.0.as_ref().is_some_and(|held| held.is::<Vec<T>>()) {
            self.0 = Some(Box::new(Vec::<T>::new()));
        }
        let held = self.0.as_mut().and_then(|held| held.downcast_mut());
        held.expect("the slot was just made to hold this element type")
    }
}

/// The buffer is rewritten before every read, so a cloned arena starts with
/// an empty one and grows its own.
impl Clone for SymVec {
    fn clone(&self) -> Self {
        Self(None)
    }
}

/// Reusable scratch arena for the systolic engine's hot path.
///
/// One alignment needs five score buffers (`Planes`), one
/// [`BestTracker`] per lane, the traceback memory (`TbMem`) and, for
/// multi-layer kernels, a reversed copy of the reference. Allocating them
/// per alignment dominates short-read batch workloads, so the arena owns
/// them all and [`run_systolic_with_scratch`] reuses them across
/// alignments: buffers are resized (`resize`, which keeps capacity) and
/// re-initialized, never reallocated once they have grown to the workload's
/// maximum geometry. Every kernel and both doors share the one set of
/// planes (their count and stride are set per run); a kernel's difference
/// form ([`LaneKernel::difference_form`]) scores in `i8` planes of its own
/// and shares the rest. Results are **bit-identical** to a fresh
/// [`run_systolic`] — every buffer is restored to its pristine state before
/// use (verified by the scratch-reuse property tests).
#[derive(Debug, Clone)]
pub struct SystolicScratch<S> {
    scores: Scores<S>,
    diff: Scores<i8>,
    r_rev: SymVec,
    tbmem: TbMem,
}

/// The part of an arena typed by the score: the planes and the trackers.
#[derive(Debug, Clone)]
struct Scores<S> {
    planes: Planes<S>,
    trackers: Vec<BestTracker<S>>,
}

impl<S> Scores<S> {
    fn new() -> Self {
        Self {
            planes: Planes {
                prev_row: Vec::new(),
                next_row: Vec::new(),
                wf_m1: Vec::new(),
                wf_m2: Vec::new(),
                cur: Vec::new(),
            },
            trackers: Vec::new(),
        }
    }
}

/// What one run of the wavefront loop works in: score buffers of the
/// kernel's score type, and the arena's score-free buffers.
struct Arena<'a, S> {
    scores: &'a mut Scores<S>,
    r_rev: &'a mut SymVec,
    tbmem: &'a mut TbMem,
}

impl<S> SystolicScratch<S> {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            scores: Scores::new(),
            diff: Scores::new(),
            r_rev: SymVec::default(),
            tbmem: TbMem::default(),
        }
    }

    /// The arena a run at the scratch's own score type works in.
    fn arena(&mut self) -> Arena<'_, S> {
        Arena {
            scores: &mut self.scores,
            r_rev: &mut self.r_rev,
            tbmem: &mut self.tbmem,
        }
    }
}

impl<S> Default for SystolicScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// The active-lane window of one chunk — a strip of the loop, or an
/// `NPE`-row chunk of the model: precomputed band/matrix geometry that
/// replaces the per-cell `banding.contains` test and the full lane scan
/// with closed-form wavefront bounds.
///
/// For chunk rows `i = base+1 ..= base+rows` against `R` columns under a
/// fixed band `|i − j| ≤ hw`, lane `k` computes cell `(base+k+1, w−k+1)` at
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
            Banding::Fixed { half_width } => {
                // No cell of the strip is further than `base + rows + r`
                // off the diagonal, so a wider band is the same band:
                // clamped there, none of the sums below can overflow, and
                // `lanes` may take it as an `isize`.
                let hw = half_width.min(base + rows + r);
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
/// The wavefront inner loop runs the kernel's lane ports over layer planes:
/// a multi-layer kernel scores each wavefront's lanes in one
/// [`LaneKernel::pe_wavefront`] call, a single-layer kernel in
/// [`LANE_WIDTH`]-wide [`LaneKernel::pe_lanes_primary`] chunks; lane 0 reads
/// the Preserved Row Score Buffer through the planes' leading slot like any
/// other lane reads its neighbour, and only the `j = 1` lane (column inits)
/// is peeled scalar. Use [`run_systolic_scalar_with_scratch`] to force the
/// per-cell path.
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
    run_block::<K, LANE_WIDTH>(params, query, reference, config, scratch, false)
        .map(|run| run.expect("unguarded systolic run always completes"))
}

/// Runs one alignment with every cell scored by one
/// [`dphls_core::KernelSpec::pe`] call: the same wavefront loop on
/// `PerCell<K>`, whose lane ports are the per-cell defaults. It is the
/// measurable comparand for the kernel's own lane bodies (the `lanes` bench
/// and the lane-vs-scalar property suite both diff against it).
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
    run_block::<PerCell<K>, LANE_WIDTH>(params, query, reference, config, scratch, false)
        .map(|run| run.expect("unguarded systolic run always completes"))
}

/// `K` with its lane ports left at their defaults, each of which bottoms out
/// in one [`KernelSpec::pe`] call a cell — what a custom kernel with an
/// empty `impl LaneKernel` runs. Never constructed: it only names a type.
struct PerCell<K>(PhantomData<K>);

impl<K: KernelSpec> KernelSpec for PerCell<K> {
    type Sym = K::Sym;
    type Score = K::Score;
    type Params = K::Params;

    fn meta() -> KernelMeta {
        K::meta()
    }

    fn init_row(params: &K::Params, j: usize) -> LayerVec<K::Score> {
        K::init_row(params, j)
    }

    fn init_col(params: &K::Params, i: usize) -> LayerVec<K::Score> {
        K::init_col(params, i)
    }

    fn pe(
        params: &K::Params,
        q: K::Sym,
        r: K::Sym,
        diag: &LayerVec<K::Score>,
        up: &LayerVec<K::Score>,
        left: &LayerVec<K::Score>,
    ) -> (LayerVec<K::Score>, TbPtr) {
        K::pe(params, q, r, diag, up, left)
    }

    fn tb_step(state: TbState, ptr: TbPtr) -> (TbState, TbMove) {
        K::tb_step(state, ptr)
    }

    fn tb_start_state() -> TbState {
        K::tb_start_state()
    }
}

impl<K: KernelSpec, const W: usize> LaneKernel<W> for PerCell<K> {}

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
    run_block::<K, LANES>(params, query, reference, config, scratch, true)
}

/// What every step of the wavefront loop works on besides the cell buffers:
/// the inputs, the strip in progress, and the sinks each scored cell feeds.
struct Cx<'a, K: KernelSpec> {
    params: &'a K::Params,
    query: &'a [K::Sym],
    reference: &'a [K::Sym],
    /// `reference` reversed, for [`LaneKernel::pe_wavefront`]; empty in any
    /// run that does not call that port.
    r_rev: &'a [K::Sym],
    banding: Banding,
    /// Rows a strip: lanes a wavefront buffer holds.
    strip: usize,
    rule: BestCellRule,
    /// Every layer at the objective's worst value: what an out-of-band or
    /// out-of-matrix neighbour reads as.
    worst: LayerVec<K::Score>,
    tbmem: &'a mut TbMem,
    trackers: &'a mut [BestTracker<K::Score>],
    /// The strip's first row minus one, and its last lane.
    base: usize,
    last_lane: usize,
    /// Set once any scored value is inside the escalation guard band
    /// ([`Score::needs_escalation`]); the peeled cell and lane calls all OR
    /// into it. For exact score types every contribution is the constant
    /// `false`, and the flag and the guarded bail-out fold away.
    escalate: bool,
}

impl<K: KernelSpec> Cx<'_, K> {
    /// Column-0 boundary value of row `i` (worst outside the band).
    fn col_init(&self, i: usize) -> LayerVec<K::Score> {
        if self.banding.contains(i, 0) {
            K::init_col(self.params, i)
        } else {
            self.worst
        }
    }
}

/// Loads lane 0's port: slot 0 of every plane of the wavefront buffer `wf`
/// takes column `j` of the preserved row — `worst` once `j` passes the last
/// column, where lane 0 is out of the matrix and nothing reads the slot.
///
/// Inlined by force: as a real call it takes the context's address, and
/// from then on every field the loop reads lives in memory, not in a
/// register (measured 5–8 % on 120-bp banded `i8` pairs).
#[inline(always)]
fn feed<K: KernelSpec>(cx: &Cx<'_, K>, wf: &mut [K::Score], prev_row: &[K::Score], j: usize) {
    let (row, slots) = (cx.reference.len() + 1, cx.strip + 1);
    for layer in 0..K::meta().n_layers {
        wf[layer * slots] = if j < row {
            prev_row[layer * row + j]
        } else {
            cx.worst.primary()
        };
    }
}

impl<S: Score> Planes<S> {
    /// Sizes the buffers for this run, every slot `worst`, and loads the
    /// in-band part of boundary row 0 into the Preserved Row Score Buffer.
    /// `resize` keeps capacity, so this allocates only while the geometry is
    /// still growing, and whatever an earlier alignment (of any kernel, with
    /// any plane count or stride) left behind is overwritten.
    fn prepare<K: KernelSpec<Score = S>>(&mut self, cx: &Cx<'_, K>) {
        let (layers, row) = (K::meta().n_layers, cx.reference.len() + 1);
        let (row_len, wf_len) = (layers * row, layers * (cx.strip + 1));
        let worst = cx.worst.primary();
        for buf in [&mut self.prev_row, &mut self.next_row] {
            buf.clear();
            buf.resize(row_len, worst);
        }
        for buf in [&mut self.wf_m1, &mut self.wf_m2, &mut self.cur] {
            buf.clear();
            buf.resize(wf_len, worst);
        }
        for j in (0..row).take_while(|&j| cx.banding.contains(0, j)) {
            scatter(&mut self.prev_row, row, j, &K::init_row(cx.params, j));
        }
    }

    /// Readies the strip-local buffers for a strip whose first live
    /// wavefront is `w_start`: the next preserved row (column 0 is the
    /// boundary value of the strip's last row) and the wavefront snapshots.
    fn begin_strip<K: KernelSpec<Score = S>>(&mut self, cx: &Cx<'_, K>, w_start: usize) {
        let worst = cx.worst.primary();
        self.next_row.fill(worst);
        let corner = cx.col_init(cx.base + cx.last_lane + 1);
        scatter(&mut self.next_row, cx.reference.len() + 1, 0, &corner);
        self.wf_m1.fill(worst);
        self.wf_m2.fill(worst);
        // Lane 0 of the first wavefront sits in column `w_start + 1`.
        feed(cx, &mut self.wf_m2, &self.prev_row, w_start);
        feed(cx, &mut self.wf_m1, &self.prev_row, w_start + 1);
    }

    /// Scores lanes `k_lo..=k_hi` of wavefront `w` — all in-band and
    /// in-matrix — into `cur`, the traceback memory (whose run for this
    /// wavefront is open), the trackers and, for the strip's last lane, the
    /// next preserved row.
    fn score<K, const LANES: usize>(
        &mut self,
        cx: &mut Cx<'_, K>,
        w: usize,
        k_lo: usize,
        k_hi: usize,
    ) where
        K: LaneKernel<LANES, Score = S>,
    {
        let layers = K::meta().n_layers;
        let (q_len, r_len) = (cx.query.len(), cx.reference.len());
        let (row, slots) = (r_len + 1, cx.strip + 1);
        let (wf_m1, wf_m2) = (&self.wf_m1[..], &self.wf_m2[..]);
        let (cur, next_row) = (&mut self.cur[..], &mut self.next_row[..]);

        // Peel the one irregular lane: k = w is the `j = 1` cell, whose
        // `left` (and, below lane 0, `diag`) is a column-0 boundary value
        // rather than a buffer entry. Its `up` is slot k like any lane's.
        // Every other lane has j ≥ 2, so its neighbours are plain reads of
        // the two snapshots: the interior is lanes `k_lo..k_end`.
        let mut k_end = k_hi + 1;
        if k_hi == w {
            k_end = k_hi;
            let i = cx.base + k_hi + 1;
            let diag = match k_hi {
                0 => gather(wf_m2, slots, layers, 0),
                _ => cx.col_init(i - 1),
            };
            let up = gather(wf_m1, slots, layers, k_hi);
            let (q, r) = (cx.query[i - 1], cx.reference[0]);
            let (out, ptr) = K::pe(cx.params, q, r, &diag, &up, &cx.col_init(i));
            cx.escalate |= out.as_slice().iter().any(|s| s.needs_escalation());
            cx.tbmem.write(k_hi, ptr);
            let tracker = &mut cx.trackers[k_hi];
            offer_if_eligible(tracker, cx.rule, out.primary(), i, 1, q_len, r_len);
            scatter(cur, slots, k_hi + 1, &out);
            if k_hi == cx.last_lane {
                scatter(next_row, row, 1, &out);
            }
        }
        if k_lo >= k_end {
            return;
        }

        // Lane t of the interior scores cell (base+k_lo+t+1, w−k_lo−t+1):
        // query symbols advance, reference symbols retreat. The pointers go
        // straight into the wavefront's run of the traceback memory.
        let n = k_end - k_lo;
        let q = &cx.query[cx.base + k_lo..cx.base + k_end];
        let ptrs = cx.tbmem.lanes_mut(k_lo, n);
        if layers == 1 {
            for off in (0..n).step_by(LANES) {
                let (k, m) = (k_lo + off, LANES.min(n - off));
                cx.escalate |= K::pe_lanes_primary(
                    cx.params,
                    &q[off..off + m],
                    &cx.reference[w + 1 - k - m..w + 1 - k],
                    &wf_m2[k..k + m],
                    &wf_m1[k..k + m],
                    &wf_m1[k + 1..k + 1 + m],
                    &mut cur[k + 1..k + 1 + m],
                    &mut ptrs[off..off + m],
                );
            }
        } else {
            // Column j = w−k_lo+1 is element r_len−j of the reversed
            // reference (j ≤ r_len, so the sum stays non-negative).
            let r0 = r_len - 1 + k_lo - w;
            let diag = plane_runs(wf_m2, slots, k_lo, n);
            let up = plane_runs(wf_m1, slots, k_lo, n);
            let left = plane_runs(wf_m1, slots, k_lo + 1, n);
            let mut planes = cur.chunks_mut(slots);
            let mut out: [&mut [K::Score]; MAX_LAYERS] = std::array::from_fn(|_| {
                let plane = planes.next();
                plane.map_or(Default::default(), |plane| &mut plane[k_lo + 1..k_end + 1])
            });
            cx.escalate |= K::pe_wavefront(
                cx.params,
                q,
                &cx.r_rev[r0..r0 + n],
                &diag[..layers],
                &up[..layers],
                &left[..layers],
                &mut out[..layers],
                ptrs,
            );
        }

        // Tracker offers. Only local (AllCells) kernels accept every lane;
        // under the boundary rules at most the last-row lane (i = q ⇔
        // k = q−1−base) and the last-column lane (j = r ⇔ k = w+1−r) can be
        // eligible, so offering just those keeps the reduction input
        // identical with O(1) work. (When the two coincide the double offer
        // is idempotent.)
        let lanes = k_lo..k_end;
        let offer = |lane: usize| {
            let (i, j) = (cx.base + lane + 1, w - lane + 1);
            let tracker = &mut cx.trackers[lane];
            offer_if_eligible(tracker, cx.rule, cur[lane + 1], i, j, q_len, r_len);
        };
        if cx.rule == BestCellRule::AllCells {
            lanes.clone().for_each(offer);
        } else {
            let row_lane = (q_len - 1).wrapping_sub(cx.base);
            let col_lane = (w + 1).wrapping_sub(r_len);
            let edges = [row_lane, col_lane].into_iter();
            edges.filter(|l| lanes.contains(l)).for_each(offer);
        }
        if lanes.contains(&cx.last_lane) {
            let (j, slot) = (w - cx.last_lane + 1, cx.last_lane + 1);
            for layer in 0..layers {
                next_row[layer * row + j] = cur[layer * slots + slot];
            }
        }
    }

    /// Closes wavefront `w`, whose lane bounds were `lo..=hi` (empty when
    /// `lo = hi + 1`), and rotates the snapshots. The bounds move down by
    /// at most one lane per wavefront, so clearing one lane on each flank
    /// keeps every stale entry the next two wavefronts can read at the
    /// worst value — exactly what a full-lane scan would produce. For an
    /// empty wavefront the two flanks are lanes `hi` and `lo` themselves,
    /// covering everything the next wavefronts can read.
    fn rotate<K: KernelSpec<Score = S>>(&mut self, cx: &Cx<'_, K>, w: usize, lo: isize, hi: isize) {
        let (slots, worst) = (cx.strip + 1, cx.worst.primary());
        // Flank lanes lo − 1 and hi + 1 are slots lo and hi + 2; slot 0 is
        // no lane and is never cleared.
        for layer in 0..K::meta().n_layers {
            let plane = &mut self.cur[layer * slots..];
            if lo >= 1 {
                plane[lo as usize] = worst;
            }
            if ((hi + 1) as usize) < cx.strip {
                plane[(hi + 2) as usize] = worst;
            }
        }
        // Lane 0 of the next wavefront sits in column `w + 2`.
        feed(cx, &mut self.cur, &self.prev_row, w + 2);
        mem::swap(&mut self.wf_m2, &mut self.wf_m1);
        mem::swap(&mut self.wf_m1, &mut self.cur);
    }

    /// The strip's captured last row becomes the next strip's preserved row.
    fn end_strip(&mut self) {
        mem::swap(&mut self.prev_row, &mut self.next_row);
    }
}

/// The most rows the wavefront loop computes as one strip.
///
/// Each wavefront pays a fixed cost — the lane port's call, the feed, the
/// flank clears, a traceback run opened — spread over the strip's lanes, so
/// taller strips are cheaper until the three wavefront snapshots and the
/// two preserved rows (`3 · 3 · (S + 1)` and `2 · 3 · (R + 1)` scores for
/// an affine kernel) outgrow the cache. In a sweep of 256, 512, 1024 and
/// 2048 on affine pairs of 1500–4000 bp, 2048 was fastest up to 2500 bp
/// (one strip, or two of 1250 rows), tied 1024 at 3000 bp and lost to it
/// at 4000 bp, where two 2000-row strips ran slower than four of 1000.
/// Global Affine's `i8` difference form holds 4 bytes a slot instead of 6,
/// so the sweep was re-run on it at 3000 and 4000 bp (six pairs, ten rounds
/// of the four heights rotated in one process, twice): no height won nine
/// rounds in ten at both lengths — 1024 beat 2048 in 7 and 8 of 10 at
/// 3000 bp and in 4 and 8 of 10 at 4000 bp — so the bound stayed.
const STRIP_MAX: usize = 2048;

/// The strip height the loop computes a `q`-row query in: the whole query
/// when it has at most [`STRIP_MAX`] rows, otherwise `⌈q / STRIP_MAX⌉`
/// strips of equal height (the last one up to a row shorter).
fn strip_height(q: usize) -> usize {
    q.div_ceil(q.div_ceil(STRIP_MAX))
}

/// Validates the inputs and runs the wavefront loop in strips of the
/// engine's own height — on the kernel's difference form where the kernel
/// proves it equal ([`LaneKernel::difference_form`]), else on the kernel.
/// The engine asks only for runs whose answer the form can give: no cell
/// outside the band, no guard, and the best cell bottom-right, the one
/// score the form's last row reconstructs.
fn run_block<K: LaneKernel<LANES>, const LANES: usize>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    scratch: &mut SystolicScratch<K::Score>,
    guard: bool,
) -> Result<Option<SystolicRun<K::Score>>, SystolicError> {
    validate_inputs(config, query.len(), reference.len())?;
    let strip = strip_height(query.len());
    let (q, r) = (query.len(), reference.len());
    // A band at least as wide as the matrix leaves no cell out.
    let unbanded = match config.banding {
        Banding::None => true,
        Banding::Fixed { half_width } => half_width >= q.max(r),
    };
    if unbanded && !guard && K::meta().traceback.best == BestCellRule::BottomRight {
        let runner = Difference {
            query,
            reference,
            config,
            scratch: &mut *scratch,
            strip,
        };
        if let Some(run) = K::difference_form(params, q, r, runner) {
            return Ok(Some(run));
        }
    }
    Ok(wavefront_loop::<K, LANES>(
        params,
        query,
        reference,
        config,
        scratch.arena(),
        guard,
        strip,
    ))
}

/// The engine's side of [`LaneKernel::difference_form`]: runs a kernel's
/// difference form through the one wavefront loop in the arena's `i8`
/// planes, keeps its pointers, walk and stats, and reports the score of the
/// bottom-right cell from the last row the preserved row holds.
struct Difference<'a, Sym, S> {
    query: &'a [Sym],
    reference: &'a [Sym],
    config: &'a KernelConfig,
    scratch: &'a mut SystolicScratch<S>,
    strip: usize,
}

impl<K: KernelSpec> DifferenceRunner<K> for Difference<'_, K::Sym, K::Score> {
    type Out = SystolicRun<K::Score>;

    fn run<D: DifferenceForm<Sym = K::Sym>>(self, params: D::Params) -> SystolicRun<K::Score> {
        #[cfg(test)]
        tests::DIFFERENCE_RUNS.with(|runs| runs.set(runs.get() + 1));
        let SystolicScratch {
            diff, r_rev, tbmem, ..
        } = self.scratch;
        let arena = Arena {
            scores: diff,
            r_rev,
            tbmem,
        };
        let (query, reference) = (self.query, self.reference);
        let run = wavefront_loop::<D, LANE_WIDTH>(
            &params,
            query,
            reference,
            self.config,
            arena,
            false,
            self.strip,
        );
        let SystolicRun { output, stats } = run.expect("unguarded runs complete");
        // After the last strip the preserved row holds row q.
        let row = reference.len() + 1;
        let last_row = plane_runs(&diff.planes.prev_row, row, 0, row);
        let layers = D::meta().n_layers;
        let best = D::bottom_right(&params, query.len(), &last_row[..layers]);
        SystolicRun {
            output: DpOutput {
                best_score: K::Score::from_i32(best),
                best_cell: output.best_cell,
                alignment: output.alignment,
                cells_computed: output.cells_computed,
            },
            stats,
        }
    }
}

/// The wavefront loop, on validated inputs: strips of `strip` rows,
/// anti-diagonals within a strip, active lanes within an anti-diagonal.
/// Returns `None` when `guard` is set and a computed value entered the
/// escalation guard band.
fn wavefront_loop<K: LaneKernel<LANES>, const LANES: usize>(
    params: &K::Params,
    query: &[K::Sym],
    reference: &[K::Sym],
    config: &KernelConfig,
    arena: Arena<'_, K::Score>,
    guard: bool,
    strip: usize,
) -> Option<SystolicRun<K::Score>> {
    let Arena {
        scores: Scores {
            planes: bufs,
            trackers,
        },
        r_rev,
        tbmem,
    } = arena;
    // Only the whole-wavefront port reads the reversed reference;
    // `K::meta()` is a constant, so single-layer kernels never pay for the
    // copy.
    let r_rev: &[K::Sym] = if K::meta().n_layers > 1 {
        let held = r_rev.typed();
        held.clear();
        held.extend(reference.iter().rev());
        held
    } else {
        &[]
    };
    let meta = K::meta();
    let banding = config.banding;
    let (q, r) = (query.len(), reference.len());
    let strips = q.div_ceil(strip);

    // ---- Arena preparation: resize (capacity-preserving) + re-init. ----
    tbmem.reset(strip, strips, r);
    trackers.clear();
    trackers.resize_with(strip, || BestTracker::new(meta.objective));
    let mut cx = Cx::<K> {
        params,
        query,
        reference,
        r_rev,
        banding,
        strip,
        rule: meta.traceback.best,
        worst: LayerVec::splat(meta.n_layers, meta.objective.worst()),
        tbmem,
        trackers,
        base: 0,
        last_lane: 0,
        escalate: false,
    };
    bufs.prepare(&cx);

    let mut cells = 0u64;
    for c in 0..strips {
        let base = c * strip;
        let rows = strip.min(q - base);
        let Some(window) = ChunkWindow::new(base, rows, r, banding) else {
            // The band has exited the matrix below this strip; every later
            // strip starts even deeper, so the block is done.
            break;
        };
        (cx.base, cx.last_lane) = (base, rows - 1);
        bufs.begin_strip(&cx, window.w_start);

        // Dead wavefronts before w_start and after w_end are skipped
        // entirely; within the window the lane bounds are closed-form, so
        // the loop touches only in-band cells. An empty bound pair (only
        // possible for half_width = 0, off-parity wavefronts) skips the
        // lanes but still rotates the buffers so wavefront parities stay
        // aligned.
        for w in window.w_start..=window.w_end {
            let (lo, hi) = window.lanes(w);
            if lo <= hi {
                cx.tbmem.open(c, w, lo as usize, hi as usize);
                bufs.score::<K, LANES>(&mut cx, w, lo as usize, hi as usize);
                cells += (hi - lo + 1) as u64;
                // Saturation guard: a narrow-precision run is only certified
                // bit-identical while every output-layer value stays outside
                // the guard band; bail out the instant one wavefront needs
                // escalation.
                if guard && cx.escalate {
                    return None;
                }
            }
            bufs.rotate(&cx, w, lo, hi);
        }
        bufs.end_strip();
    }

    // Reduction over per-lane local bests (paper §5.2).
    let mut global = BestTracker::new(meta.objective);
    for t in cx.trackers.iter() {
        global.merge(t);
    }
    let (best_score, best_cell) = global.best();

    let tbmem = &*cx.tbmem;
    let alignment = meta
        .traceback
        .walk
        .map(|walk| walk_traceback::<K>(&|i, j| tbmem.read_cell(i, j), best_cell, walk));
    // The cells are the loop's count, which no strip height changes; the
    // rest are the `NPE`-PE array's, whatever strips the loop ran.
    let stats = BlockStats {
        cells,
        tb_steps: alignment.as_ref().map_or(0, |a| a.len() as u64),
        ..BlockStats::model(q, r, config)
    };

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

pub(crate) fn validate_inputs(
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
    use dphls_kernels::{
        AffineParams, GlobalAffine, GlobalLinear, GlobalTwoPiece, LinearParams, LocalAffine,
        LocalLinear, TwoPieceParams,
    };
    use dphls_seq::DnaSeq;

    fn dna(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn cfg(npe: usize) -> KernelConfig {
        KernelConfig::new(npe, 1, 1).with_max_lengths(512, 512)
    }

    std::thread_local! {
        /// The probe: runs of a kernel's difference form on this thread.
        pub(super) static DIFFERENCE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn each_gate_row_runs_the_path_it_names() {
        // `tests/difference_gate.rs` holds every row to the reference
        // engine; here the probe says which path the exact door took.
        let mut scratch = SystolicScratch::new();
        for row in crate::gate_rows::rows() {
            let (q, r) = (&row.query[..], &row.reference[..]);
            let config = KernelConfig {
                banding: row.banding,
                ..KernelConfig::new(1, 1, 1).with_max_lengths(q.len(), r.len())
            };
            let before = DIFFERENCE_RUNS.with(|runs| runs.get());
            let got =
                run_systolic_with_scratch::<GlobalAffine>(&row.params, q, r, &config, &mut scratch);
            let ran = DIFFERENCE_RUNS.with(|runs| runs.get()) - before;
            let want = run_reference::<GlobalAffine>(&row.params, q, r, row.banding);
            assert_eq!(got.expect("valid row").output, want, "{}", row.what);
            assert_eq!(ran, usize::from(row.difference), "{}: path", row.what);
            // Never on the scalar door, which stays the i16 comparand.
            let scalar = run_systolic_scalar_with_scratch::<GlobalAffine>(
                &row.params,
                q,
                r,
                &config,
                &mut scratch,
            );
            assert_eq!(
                scalar.expect("valid row").output,
                want,
                "{} scalar",
                row.what
            );
            assert_eq!(
                DIFFERENCE_RUNS.with(|runs| runs.get()) - before,
                ran,
                "{}: scalar path",
                row.what
            );
        }
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
    fn multi_layer_edge_geometry_matches_reference() {
        // The PE 0 feed slot and the `j = 1` peel where the geometry leaves
        // them least room, for the kernels that score whole wavefronts over
        // three and five planes (global and all-cells tracking).
        let a = dna("ACGTTGCATGCCAGT");
        let b = dna("AGGTTGCTTGCAGTA");
        let shapes = [
            (9, 11, 1), // NPE = 1: every lane is PE 0, every chunk one row
            (9, 11, 9), // NPE = q: a single chunk
            (1, 11, 1), // q = 1
            (9, 1, 4),  // r = 1: every cell is a `j = 1` cell
            (1, 1, 1),
            (9, 11, 4),  // the last chunk is one row (9 = 2·4 + 1)
            (11, 9, 5),  // ...and taller than wide
            (15, 15, 8), // wavefronts on both sides of eight lanes
        ];
        let bandings = [
            Banding::None,
            Banding::Fixed { half_width: 0 },
            Banding::Fixed { half_width: 1 },
        ];
        for (q_len, r_len, npe) in shapes {
            let (q, r) = (&a.as_slice()[..q_len], &b.as_slice()[..r_len]);
            for banding in bandings {
                let config = KernelConfig {
                    banding,
                    ..cfg(npe)
                };
                let ctx = format!("q={q_len} r={r_len} npe={npe} {banding:?}");
                let pa = AffineParams::<i16>::dna();
                let want = run_reference::<GlobalAffine>(&pa, q, r, banding);
                let got = run_systolic_ok::<GlobalAffine>(&pa, q, r, &config);
                assert_eq!(got.output, want, "global affine {ctx}");
                let want = run_reference::<LocalAffine>(&pa, q, r, banding);
                let got = run_systolic_ok::<LocalAffine>(&pa, q, r, &config);
                assert_eq!(got.output, want, "local affine {ctx}");
                let pt = TwoPieceParams::<i16>::dna();
                let want = run_reference::<GlobalTwoPiece<i16>>(&pt, q, r, banding);
                let got = run_systolic_ok::<GlobalTwoPiece<i16>>(&pt, q, r, &config);
                assert_eq!(got.output, want, "two-piece {ctx}");
            }
        }
    }

    #[test]
    fn chunk_window_matches_brute_force_geometry() {
        // The closed-form window — and the closed-form stats the grouped
        // engine reports — against plain enumeration with
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
                let (mut wavefronts, mut cells) = (0u64, 0u64);
                for base in (0..q).step_by(npe) {
                    let rows = npe.min(q - base);
                    let live: Vec<usize> = (0..rows + r - 1)
                        .filter(|&w| !lanes_at(base, w).is_empty())
                        .collect();
                    wavefronts += live.len() as u64;
                    cells += live
                        .iter()
                        .map(|&w| lanes_at(base, w).len() as u64)
                        .sum::<u64>();
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
                // The loop scores exactly the live wavefronts (a non-empty
                // lane range, checked above), so these are its counts too.
                let config = KernelConfig {
                    banding,
                    ..KernelConfig::new(npe, 1, 1)
                };
                let stats = BlockStats::from_geometry(q, r, &config);
                assert_eq!(
                    (stats.wavefronts, stats.cells, stats.chunks),
                    (wavefronts, cells, q.div_ceil(npe) as u64),
                    "{banding:?} q={q} r={r} npe={npe}: closed-form stats"
                );
            }
        }
    }

    #[test]
    fn a_band_at_least_as_wide_as_the_matrix_is_no_band_on_every_engine() {
        // ROADMAP 7(e): `r + hw` and `i + hw` used to overflow on a band near
        // `usize::MAX` — a panic in debug builds and, in release builds, a
        // run that lost the whole matrix (best score −16384).
        use crate::group::{run_group_with_scratch, GroupScratch};
        use dphls_core::{AdaptiveKernel, I8_LANES_NARROW, LANE_WIDTH};
        type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
        let p = LinearParams::<i16>::unit();
        let lo = GlobalLinear::lo_params(&p).expect("unit parameters fit i8");
        let (q, r) = (dna("ACGTACGTACGTAC"), dna("ACGATCGTTCGTACG"));
        let (q, r) = (q.as_slice(), r.as_slice());
        let want = run_systolic_ok::<GlobalLinear>(&p, q, r, &cfg(4));
        let reference = run_reference::<GlobalLinear>(&p, q, r, Banding::None);
        assert_eq!(want.output, reference);
        for half_width in [usize::MAX, usize::MAX - 1, 1 << 40, 16, 15] {
            let config = cfg(4).with_banding(half_width);
            let ctx = format!("half-width {half_width}");
            let banded = run_reference::<GlobalLinear>(&p, q, r, config.banding);
            assert_eq!(banded, reference, "reference, {ctx}");
            let stats = BlockStats::from_geometry(q.len(), r.len(), &config);
            assert_eq!(stats.tb_steps, 0, "{ctx}");
            let traced = BlockStats {
                tb_steps: want.stats.tb_steps,
                ..stats
            };
            assert_eq!(traced, want.stats, "closed-form stats, {ctx}");
            let got = run_systolic_ok::<GlobalLinear>(&p, q, r, &config);
            assert_eq!(got, want, "wavefront engine, {ctx}");
            let mut exact = GroupScratch::new();
            let got = run_group_with_scratch::<GlobalLinear, LANE_WIDTH>(
                &p,
                &[(q, r)],
                &config,
                &mut exact,
            );
            assert_eq!(got[0], Ok(Some(want.clone())), "i16 × 8, {ctx}");
            let mut narrow = GroupScratch::new();
            let got =
                run_group_with_scratch::<Lo, I8_LANES_NARROW>(&lo, &[(q, r)], &config, &mut narrow);
            let got = got[0].clone().unwrap().expect("a clean narrow lane");
            let out = &got.output;
            assert_eq!(i16::from(out.best_score), want.output.best_score, "{ctx}");
            assert_eq!(out.best_cell, want.output.best_cell, "i8 × 16, {ctx}");
            assert_eq!(out.alignment, want.output.alignment, "i8 × 16, {ctx}");
            assert_eq!(got.stats, want.stats, "i8 × 16, {ctx}");
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

    /// Runs `K` and `PerCell<K>` on `q × r` under every banding of
    /// `bandings`, at every strip height `1..=q + 1`, on one arena: each output
    /// must equal the reference engine's and each `BlockStats` the `NPE`
    /// model's (`from_geometry`, plus the walk's length).
    fn sweep_strips<K: LaneKernel>(
        p: &K::Params,
        (q, r): (&[K::Sym], &[K::Sym]),
        npe: usize,
        scratch: &mut SystolicScratch<K::Score>,
        kernel: &str,
    ) {
        let bandings = [
            Banding::None,
            Banding::Fixed { half_width: 0 },
            Banding::Fixed { half_width: 1 },
            Banding::Fixed { half_width: 3 },
        ];
        for banding in bandings {
            let config = KernelConfig {
                banding,
                ..cfg(npe)
            };
            let want = run_reference::<K>(p, q, r, banding);
            let model = BlockStats {
                tb_steps: want.alignment.as_ref().map_or(0, |a| a.len() as u64),
                ..BlockStats::from_geometry(q.len(), r.len(), &config)
            };
            for strip in 1..=q.len() + 1 {
                let runs = [
                    (
                        "lanes",
                        wavefront_loop::<K, LANE_WIDTH>(
                            p,
                            q,
                            r,
                            &config,
                            scratch.arena(),
                            false,
                            strip,
                        ),
                    ),
                    (
                        "per-cell",
                        wavefront_loop::<PerCell<K>, LANE_WIDTH>(
                            p,
                            q,
                            r,
                            &config,
                            scratch.arena(),
                            false,
                            strip,
                        ),
                    ),
                ];
                for (door, run) in runs {
                    let ctx = format!(
                        "{kernel} {}×{} npe {npe} {banding:?} strip {strip} {door}",
                        q.len(),
                        r.len()
                    );
                    let run = run.expect("unguarded runs complete");
                    assert_eq!(run.output, want, "{ctx}");
                    assert_eq!(run.stats, model, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn every_strip_height_scores_like_the_reference_with_the_npe_models_stats() {
        // The public doors run one strip for any query this short, so this
        // is where the multi-strip paths run on small inputs: the preserved
        // row between strips, the last strip shorter than the others, a
        // strip taller than the query, and strips of one row. One arena
        // serves every kernel, strip height and door, growing and shrinking.
        let a = dna("ACGTTGCATGCCAGTAC");
        let b = dna("AGGTTGCTTGCAGTACG");
        let pl = LinearParams::<i16>::dna();
        let pa = AffineParams::<i16>::dna();
        let pt = TwoPieceParams::<i16>::dna();
        let mut scratch = SystolicScratch::new();
        for (q_len, r_len, npe) in [(13, 11, 4), (9, 14, 3), (1, 5, 1), (6, 1, 6)] {
            let pair = (&a.as_slice()[..q_len], &b.as_slice()[..r_len]);
            sweep_strips::<GlobalLinear>(&pl, pair, npe, &mut scratch, "global linear");
            sweep_strips::<LocalLinear>(&pl, pair, npe, &mut scratch, "local linear");
            sweep_strips::<GlobalAffine>(&pa, pair, npe, &mut scratch, "global affine");
            sweep_strips::<LocalAffine>(&pa, pair, npe, &mut scratch, "local affine");
            let two_piece = "two-piece";
            sweep_strips::<GlobalTwoPiece<i16>>(&pt, pair, npe, &mut scratch, two_piece);
        }
    }

    #[test]
    fn the_guarded_narrow_path_runs_the_same_strips() {
        // The adaptive `i8` path calls the same loop: at every strip height
        // a clean narrow run certifies the exact run's output and stats, and
        // a pair that saturates `i8` trips the guard at every height.
        use dphls_core::{AdaptiveKernel, I8_LANES_NARROW};
        type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
        let p = LinearParams::<i16>::unit();
        let lo = GlobalLinear::lo_params(&p).expect("unit parameters fit i8");
        let clean = (dna("ACGTTGCATGCCAGT"), dna("AGGTTGCTTGCAGTA"));
        let hot = (dna(&"A".repeat(40)), dna(&"C".repeat(40)));
        let mut narrow = SystolicScratch::new();
        for ((q, r), saturates) in [(&clean, false), (&hot, true)] {
            let (q, r) = (q.as_slice(), r.as_slice());
            for banding in [Banding::None, Banding::Fixed { half_width: 2 }] {
                let config = KernelConfig {
                    banding,
                    ..cfg(4).with_max_lengths(64, 64)
                };
                let exact = run_systolic_ok::<GlobalLinear>(&p, q, r, &config);
                for strip in 1..=q.len() + 1 {
                    let ctx = format!("{banding:?} strip {strip}");
                    let got = wavefront_loop::<Lo, I8_LANES_NARROW>(
                        &lo,
                        q,
                        r,
                        &config,
                        narrow.arena(),
                        true,
                        strip,
                    );
                    let Some(got) = got else {
                        assert!(saturates, "{ctx}: a clean pair escalated");
                        continue;
                    };
                    assert!(!saturates, "{ctx}: a saturating pair completed");
                    let out = &got.output;
                    assert_eq!(i16::from(out.best_score), exact.output.best_score, "{ctx}");
                    assert_eq!(out.best_cell, exact.output.best_cell, "{ctx}");
                    assert_eq!(out.alignment, exact.output.alignment, "{ctx}");
                    assert_eq!(got.stats, exact.stats, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn a_query_shorter_than_npe_sizes_the_arena_by_its_rows() {
        // The strip is the query's height, not NPE's: a 32 × 32 pair under
        // NPE 2048 used to reset 2048 trackers and a traceback memory of
        // 2048 · (32 + 2047) entries, O(NPE · (R + NPE)) a pair.
        let (q, r) = (dna(&"ACGTTGCA".repeat(4)), dna(&"AGGTTGCT".repeat(4)));
        let (q, r) = (q.as_slice(), r.as_slice());
        let config = KernelConfig::new(2048, 1, 1).with_max_lengths(2048, 2048);
        let p = AffineParams::<i16>::dna();
        let mut scratch = SystolicScratch::new();
        let run = run_systolic_with_scratch::<GlobalAffine>(&p, q, r, &config, &mut scratch);
        let run = run.expect("a valid run");
        assert_eq!(
            run.output,
            run_reference::<GlobalAffine>(&p, q, r, Banding::None)
        );
        assert_eq!(
            run.stats.reduction_levels, 11,
            "the model is still NPE 2048's"
        );
        let (q, r) = (q.len(), r.len());
        assert!(
            scratch.tbmem.entries() <= q * (r + q - 1),
            "traceback memory"
        );
        assert!(scratch.scores.trackers.len() <= q, "trackers");
    }

    #[test]
    fn strips_are_the_whole_query_up_to_the_bound_then_equal() {
        assert_eq!(strip_height(1), 1);
        assert_eq!(strip_height(1500), 1500);
        assert_eq!(strip_height(STRIP_MAX), STRIP_MAX);
        // One row past the bound splits into two equal strips.
        assert_eq!(strip_height(STRIP_MAX + 1), STRIP_MAX / 2 + 1);
        for q in [STRIP_MAX + 1, 3 * STRIP_MAX - 1, 3 * STRIP_MAX, 100_000] {
            let strip = strip_height(q);
            let strips = q.div_ceil(strip);
            assert!(strip <= STRIP_MAX, "q {q}");
            assert_eq!(strips, q.div_ceil(STRIP_MAX), "q {q}: fewest strips");
            assert!(
                strips * strip - q < strips,
                "q {q}: the last strip is short"
            );
        }
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
