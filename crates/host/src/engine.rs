//! The per-pair execution seam between the host schedulers and the systolic
//! back-end: a [`PairEngine`] turns `(query, reference)` into a
//! [`SystolicRun`], owning whatever scratch state that takes. The batch and
//! streaming engines are generic over it, so **runtime precision dispatch**
//! costs the host layers zero API churn:
//!
//! * [`ExactEngine`] — the original path, one exact run per pair at the
//!   kernel's native score width;
//! * [`AdaptiveEngine`] — the saturating-`i8` fast path with exact `i16`
//!   escalation ([`dphls_systolic::run_adaptive_with_scratch`]), narrowing
//!   the parameters once at construction.
//!
//! Both produce bit-identical outputs (the adaptive escalation contract —
//! see `crates/systolic/src/adaptive.rs`); the only report-visible
//! difference is the escalation counter.
//!
//! Both also score several pairs in one pass ([`PairEngine::group_width`] /
//! [`PairEngine::run_group`]) when the kernel has a single scoring layer, on
//! the inter-sequence engine (`crates/systolic/src/group.rs`): the adaptive
//! one at guarded `i8 × 16`, the exact one at the kernel's own score type
//! and [`LANE_WIDTH`] lanes. Every pair's result equals its
//! [`PairEngine::run_pair`]. The pool hands them groups on instrumented runs
//! too (see `pool.rs`).

use dphls_core::{
    AdaptiveKernel, I8Lanes, KernelConfig, KernelSpec, LaneKernel, LanePrecision, LANE_WIDTH,
};
use dphls_systolic::{
    adaptive, group_cells_max, run_adaptive_group_with_scratch, run_adaptive_with_scratch,
    run_exact_group_with_scratch, run_systolic_with_scratch, AdaptiveScratch, ExactScratch,
    PairRef, SystolicError, SystolicRun,
};

/// One pair's outcome, as [`PairEngine::run_pair`] returns it.
pub type PairResult<S> = Result<SystolicRun<S>, SystolicError>;

/// One pair in, one run out: the strategy object the host schedulers thread
/// through their worker loops. Implementations must be cheap to share
/// (`Sync`) — one instance serves every worker thread — and hand each worker
/// its own scratch via [`new_scratch`](Self::new_scratch).
pub trait PairEngine<K: KernelSpec>: Sync {
    /// Per-worker scratch state, created once per worker thread and reused
    /// across all its pairs (and rebuilt after a caught panic, which may
    /// have left it inconsistent).
    type Scratch;

    /// Creates one worker's scratch arena.
    fn new_scratch(&self) -> Self::Scratch;

    /// Runs one alignment.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError`] if the configuration is invalid, a
    /// sequence is empty, or a sequence exceeds the configured maximums.
    fn run_pair(
        &self,
        q: &[K::Sym],
        r: &[K::Sym],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
    ) -> Result<SystolicRun<K::Score>, SystolicError>;

    /// Most pairs one [`run_group`](Self::run_group) call can score in a
    /// single pass — what a scheduler may usefully hand it at once. 1 (the
    /// default) means the engine gains nothing from company.
    fn group_width(&self) -> usize {
        1
    }

    /// Largest cost estimate (DP cells) of a pair still worth handing to
    /// [`run_group`](Self::run_group) in company: above it the engine would
    /// run the pair alone anyway, so a scheduler leaves it where a peer can
    /// steal it. No bound by default.
    fn group_cost_max(&self) -> u64 {
        u64::MAX
    }

    /// Runs `pairs` and appends one result per pair to `out`, in order, each
    /// equal to what [`run_pair`](Self::run_pair) returns for that pair
    /// alone — a failing pair fails alone. Returns how many grouped passes
    /// it took (0 when every pair went its own way, as in the default).
    fn run_group(
        &self,
        pairs: &[PairRef<'_, K::Sym>],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
        out: &mut Vec<PairResult<K::Score>>,
    ) -> usize {
        out.extend(
            pairs
                .iter()
                .map(|(q, r)| self.run_pair(q, r, config, scratch)),
        );
        0
    }
}

/// The exact path: every pair runs once at the kernel's native score width,
/// alone through [`run_systolic_with_scratch`] or, for a single-layer
/// kernel, with up to [`LANE_WIDTH`] others in one grouped pass
/// ([`run_exact_group_with_scratch`]). [`BlockStats::escalations`] is
/// always 0 here.
///
/// [`BlockStats::escalations`]: dphls_systolic::BlockStats::escalations
pub struct ExactEngine<K: KernelSpec> {
    params: K::Params,
}

impl<K: KernelSpec> ExactEngine<K> {
    /// Wraps the kernel parameters.
    pub fn new(params: K::Params) -> Self {
        Self { params }
    }
}

impl<K: LaneKernel> PairEngine<K> for ExactEngine<K> {
    type Scratch = ExactScratch<K::Score>;

    fn new_scratch(&self) -> Self::Scratch {
        ExactScratch::new()
    }

    fn run_pair(
        &self,
        q: &[K::Sym],
        r: &[K::Sym],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
    ) -> Result<SystolicRun<K::Score>, SystolicError> {
        run_systolic_with_scratch::<K>(&self.params, q, r, config, scratch.wavefront())
    }

    /// [`LANE_WIDTH`] pairs, one pass, for a kernel the inter-sequence
    /// engine takes (a single scoring layer); one otherwise.
    fn group_width(&self) -> usize {
        if K::meta().n_layers == 1 {
            LANE_WIDTH
        } else {
            1
        }
    }

    /// Where a pass's pointer rows would leave L2.
    fn group_cost_max(&self) -> u64 {
        group_cells_max(LANE_WIDTH)
    }

    fn run_group(
        &self,
        pairs: &[PairRef<'_, K::Sym>],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
        out: &mut Vec<PairResult<K::Score>>,
    ) -> usize {
        run_exact_group_with_scratch::<K>(&self.params, pairs, config, scratch, out)
    }
}

/// The adaptive path: saturating `i8` first, exact `i16` re-run when the
/// guard trips. Parameters are narrowed **once** at construction; if they
/// exceed the `i8` envelope ([`dphls_core::I8_PARAM_LIMIT`]) every pair
/// runs exact and counts as escalated.
pub struct AdaptiveEngine<K: AdaptiveKernel> {
    params: K::Params,
    lo_params: Option<<K::Lo as KernelSpec>::Params>,
    lanes: I8Lanes,
}

impl<K: AdaptiveKernel> AdaptiveEngine<K> {
    /// Wraps the kernel parameters, narrowing them for the `i8` fast path.
    pub fn new(params: K::Params, lanes: I8Lanes) -> Self {
        let lo_params = K::lo_params(&params);
        Self {
            params,
            lo_params,
            lanes,
        }
    }

    /// Whether the fast path is live (parameters fit the `i8` envelope).
    pub fn narrow_path_enabled(&self) -> bool {
        self.lo_params.is_some()
    }
}

impl<K: AdaptiveKernel> PairEngine<K> for AdaptiveEngine<K> {
    type Scratch = AdaptiveScratch;

    fn new_scratch(&self) -> Self::Scratch {
        AdaptiveScratch::new()
    }

    fn run_pair(
        &self,
        q: &[K::Sym],
        r: &[K::Sym],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
    ) -> Result<SystolicRun<K::Score>, SystolicError> {
        run_adaptive_with_scratch::<K>(
            &self.params,
            self.lo_params.as_ref(),
            self.lanes,
            q,
            r,
            config,
            scratch,
        )
    }

    /// The `i8` lane count the caller chose, when the narrow path is live
    /// and the kernel is one the inter-sequence engine takes (a single
    /// scoring layer). It is how many pairs a worker takes in one pop; the
    /// passes themselves are 16 lanes wide, so 32 pairs are two.
    fn group_width(&self) -> usize {
        let single_layer = <K::Lo as KernelSpec>::meta().n_layers == 1;
        match self.lo_params {
            Some(_) if single_layer => self.lanes.width(),
            _ => 1,
        }
    }

    /// Where a pass's pointer rows would leave L2.
    fn group_cost_max(&self) -> u64 {
        group_cells_max(adaptive::GROUP_LANES)
    }

    fn run_group(
        &self,
        pairs: &[PairRef<'_, K::Sym>],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
        out: &mut Vec<PairResult<i16>>,
    ) -> usize {
        run_adaptive_group_with_scratch::<K>(
            &self.params,
            self.lo_params.as_ref(),
            self.lanes,
            pairs,
            config,
            scratch,
            out,
        )
    }
}

/// Either engine behind one type, so callers can pick the precision at
/// **runtime** from a [`LanePrecision`] knob (config files, CLI flags, the
/// serve layer) without monomorphizing two whole pipelines themselves.
pub enum PrecisionEngine<K: AdaptiveKernel> {
    /// Always run at the native score width.
    Exact(ExactEngine<K>),
    /// `i8` fast path with `i16` escalation.
    Adaptive(AdaptiveEngine<K>),
}

impl<K: AdaptiveKernel> PrecisionEngine<K> {
    /// Builds the engine selected by `precision`.
    pub fn new(params: K::Params, precision: LanePrecision) -> Self {
        match precision {
            LanePrecision::Exact => Self::Exact(ExactEngine::new(params)),
            LanePrecision::Adaptive(lanes) => Self::Adaptive(AdaptiveEngine::new(params, lanes)),
        }
    }
}

/// Scratch for [`PrecisionEngine`]: the variant matching the live engine.
///
/// The variants differ in size (the adaptive one holds a third arena), but a
/// scratch exists once per slot thread and lives for the whole run, so the
/// footprint is slots-bounded and indirection would only add a pointer
/// chase to the hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PrecisionScratch<S> {
    /// Exact-path arenas (wavefront and grouped).
    Exact(ExactScratch<S>),
    /// Adaptive-path arenas.
    Adaptive(AdaptiveScratch),
}

// A worker's scratch always comes from its engine's `new_scratch`, so the
// variant can only disagree with the engine's through a caller bug; rebuild
// rather than corrupt.
impl<S> PrecisionScratch<S> {
    fn exact(&mut self) -> &mut ExactScratch<S> {
        if !matches!(self, Self::Exact(_)) {
            *self = Self::Exact(ExactScratch::new());
        }
        match self {
            Self::Exact(arena) => arena,
            Self::Adaptive(_) => unreachable!("just made exact"),
        }
    }

    fn adaptive(&mut self) -> &mut AdaptiveScratch {
        if !matches!(self, Self::Adaptive(_)) {
            *self = Self::Adaptive(AdaptiveScratch::new());
        }
        match self {
            Self::Adaptive(arena) => arena,
            Self::Exact(_) => unreachable!("just made adaptive"),
        }
    }
}

impl<K: AdaptiveKernel> PairEngine<K> for PrecisionEngine<K> {
    type Scratch = PrecisionScratch<i16>;

    fn new_scratch(&self) -> Self::Scratch {
        match self {
            Self::Exact(_) => PrecisionScratch::Exact(ExactScratch::new()),
            Self::Adaptive(_) => PrecisionScratch::Adaptive(AdaptiveScratch::new()),
        }
    }

    fn run_pair(
        &self,
        q: &[K::Sym],
        r: &[K::Sym],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
    ) -> Result<SystolicRun<i16>, SystolicError> {
        match self {
            Self::Exact(e) => e.run_pair(q, r, config, scratch.exact()),
            Self::Adaptive(e) => e.run_pair(q, r, config, scratch.adaptive()),
        }
    }

    fn group_width(&self) -> usize {
        match self {
            Self::Exact(e) => PairEngine::<K>::group_width(e),
            Self::Adaptive(e) => e.group_width(),
        }
    }

    fn group_cost_max(&self) -> u64 {
        match self {
            Self::Exact(e) => PairEngine::<K>::group_cost_max(e),
            Self::Adaptive(e) => e.group_cost_max(),
        }
    }

    fn run_group(
        &self,
        pairs: &[PairRef<'_, K::Sym>],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
        out: &mut Vec<PairResult<i16>>,
    ) -> usize {
        match self {
            Self::Exact(e) => e.run_group(pairs, config, scratch.exact(), out),
            Self::Adaptive(e) => e.run_group(pairs, config, scratch.adaptive(), out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_kernels::{GlobalLinear, LinearParams};
    use dphls_seq::DnaSeq;

    fn cfg() -> KernelConfig {
        KernelConfig::new(4, 1, 1).with_max_lengths(64, 64)
    }

    #[test]
    fn engines_agree_and_report_escalations() {
        let q: DnaSeq = "ACGTACGTAC".parse().unwrap();
        let r: DnaSeq = "ACGATCGTTC".parse().unwrap();
        let exact = ExactEngine::<GlobalLinear>::new(LinearParams::dna());
        let mut es = PairEngine::<GlobalLinear>::new_scratch(&exact);
        let want = exact
            .run_pair(q.as_slice(), r.as_slice(), &cfg(), &mut es)
            .unwrap();
        assert_eq!(want.stats.escalations, 0);

        for precision in [
            LanePrecision::Exact,
            LanePrecision::Adaptive(I8Lanes::X16),
            LanePrecision::Adaptive(I8Lanes::X32),
        ] {
            let eng = PrecisionEngine::<GlobalLinear>::new(LinearParams::dna(), precision);
            let mut s = eng.new_scratch();
            let got = eng
                .run_pair(q.as_slice(), r.as_slice(), &cfg(), &mut s)
                .unwrap();
            assert_eq!(got.output, want.output, "{precision:?}");
        }
    }

    #[test]
    fn adaptive_engine_narrows_once() {
        let eng = AdaptiveEngine::<GlobalLinear>::new(LinearParams::dna(), I8Lanes::X16);
        assert!(eng.narrow_path_enabled());
        let wide = AdaptiveEngine::<GlobalLinear>::new(
            LinearParams {
                match_score: 100,
                mismatch: -3,
                gap: -2,
            },
            I8Lanes::X16,
        );
        assert!(!wide.narrow_path_enabled());
    }
}
