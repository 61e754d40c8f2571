//! The per-pair execution seam between the host schedulers and the systolic
//! back-end: a [`PairEngine`] turns `(query, reference)` into a
//! [`SystolicRun`], owning whatever scratch state that takes. The batch and
//! streaming engines are generic over it, so **runtime precision dispatch**
//! costs the host layers zero API churn. Two engines implement it:
//!
//! * [`ExactEngine`] — any [`LaneKernel`], every pair once at the kernel's
//!   native score width;
//! * [`PrecisionEngine`] — a kernel with an `i8` companion, at a
//!   [`LanePrecision`] *value*: `Exact` runs what [`ExactEngine`] runs,
//!   `Adaptive` runs the saturating-`i8` fast path with exact `i16`
//!   escalation ([`dphls_systolic::run_adaptive_with_scratch`]), narrowing
//!   the parameters once at construction.
//!
//! Every value produces bit-identical outputs (the adaptive escalation
//! contract — see `crates/systolic/src/adaptive.rs`); the only
//! report-visible difference is the escalation counter.
//!
//! Both also score several pairs in one pass ([`PairEngine::group_width`] /
//! [`PairEngine::run_group`]) when the kernel has a single scoring layer, on
//! the inter-sequence engine (`crates/systolic/src/group.rs`): adaptive at
//! guarded `i8 × 16`, exact at the kernel's own score type and
//! [`LANE_WIDTH`] lanes. Every pair's result equals its
//! [`PairEngine::run_pair`]. The pool hands them groups on instrumented runs
//! too (see `pool.rs`).

use dphls_core::{AdaptiveKernel, KernelConfig, KernelSpec, LaneKernel, LanePrecision, LANE_WIDTH};
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

/// The precision knob as a value: one engine for a kernel with an `i8`
/// companion, whatever [`LanePrecision`] the caller picked at run time
/// (config files, CLI flags, the serve layer), so no caller monomorphizes
/// two pipelines.
///
/// * [`LanePrecision::Exact`] runs what [`ExactEngine`] runs: `i16` pairs,
///   grouped [`LANE_WIDTH`] to a pass for a single-layer kernel, the same
///   [`group_width`](PairEngine::group_width) and
///   [`group_cost_max`](PairEngine::group_cost_max), and no escalation.
/// * [`LanePrecision::Adaptive`] runs saturating `i8` first and re-runs at
///   exact `i16` when the guard trips
///   ([`dphls_systolic::run_adaptive_with_scratch`]). The parameters are
///   narrowed **once**, at construction; if they exceed the `i8` envelope
///   ([`dphls_core::I8_PARAM_LIMIT`]) every pair runs exact and counts as
///   escalated.
///
/// Both values score with one [`AdaptiveScratch`] (a value leaves the other's
/// arenas empty).
pub struct PrecisionEngine<K: AdaptiveKernel> {
    params: K::Params,
    precision: LanePrecision,
    /// `params` narrowed for the `i8` fast path: `None` at the exact value,
    /// or when they exceed the envelope.
    lo_params: Option<<K::Lo as KernelSpec>::Params>,
}

impl<K: AdaptiveKernel> PrecisionEngine<K> {
    /// Builds the engine at `precision`, narrowing the parameters for the
    /// `i8` fast path when it is adaptive.
    pub fn new(params: K::Params, precision: LanePrecision) -> Self {
        let lo_params = match precision {
            LanePrecision::Exact => None,
            LanePrecision::Adaptive(_) => K::lo_params(&params),
        };
        Self {
            params,
            precision,
            lo_params,
        }
    }

    /// Whether the `i8` fast path is live (adaptive precision, and the
    /// parameters fit the `i8` envelope).
    pub fn narrow_path_enabled(&self) -> bool {
        self.lo_params.is_some()
    }
}

impl<K: AdaptiveKernel> PairEngine<K> for PrecisionEngine<K> {
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
    ) -> Result<SystolicRun<i16>, SystolicError> {
        let params = &self.params;
        match self.precision {
            LanePrecision::Exact => {
                run_systolic_with_scratch::<K>(params, q, r, config, scratch.exact().wavefront())
            }
            LanePrecision::Adaptive(lanes) => {
                let lo = self.lo_params.as_ref();
                run_adaptive_with_scratch::<K>(params, lo, lanes, q, r, config, scratch)
            }
        }
    }

    /// Exact: [`LANE_WIDTH`] for a single-layer kernel, as
    /// [`ExactEngine`]. Adaptive: the `i8` lane count the caller chose, when
    /// the narrow path is live and the kernel has a single scoring layer —
    /// how many pairs a worker takes in one pop; the passes themselves are
    /// 16 lanes wide, so 32 pairs are two.
    fn group_width(&self) -> usize {
        if K::meta().n_layers != 1 {
            return 1;
        }
        match (self.precision, &self.lo_params) {
            (LanePrecision::Exact, _) => LANE_WIDTH,
            (LanePrecision::Adaptive(lanes), Some(_)) => lanes.width(),
            (LanePrecision::Adaptive(_), None) => 1,
        }
    }

    /// Where a pass's pointer rows would leave L2, at the value's pass width.
    fn group_cost_max(&self) -> u64 {
        group_cells_max(match self.precision {
            LanePrecision::Exact => LANE_WIDTH,
            LanePrecision::Adaptive(_) => adaptive::GROUP_LANES,
        })
    }

    fn run_group(
        &self,
        pairs: &[PairRef<'_, K::Sym>],
        config: &KernelConfig,
        scratch: &mut Self::Scratch,
        out: &mut Vec<PairResult<i16>>,
    ) -> usize {
        let params = &self.params;
        match self.precision {
            LanePrecision::Exact => {
                run_exact_group_with_scratch::<K>(params, pairs, config, scratch.exact(), out)
            }
            LanePrecision::Adaptive(lanes) => {
                let lo = self.lo_params.as_ref();
                run_adaptive_group_with_scratch::<K>(params, lo, lanes, pairs, config, scratch, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::I8Lanes;
    use dphls_kernels::{
        AffineParams, BandedGlobalLinear, GlobalAffine, GlobalLinear, LinearParams,
    };
    use dphls_seq::gen::ReadSimulator;
    use dphls_seq::{Base, DnaSeq};

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
        let adaptive = LanePrecision::Adaptive(I8Lanes::X16);
        let eng = PrecisionEngine::<GlobalLinear>::new(LinearParams::dna(), adaptive);
        assert!(eng.narrow_path_enabled());
        let wide = PrecisionEngine::<GlobalLinear>::new(
            LinearParams {
                match_score: 100,
                mismatch: -3,
                gap: -2,
            },
            adaptive,
        );
        assert!(!wide.narrow_path_enabled());
    }

    /// The exact value of [`PrecisionEngine`] is [`ExactEngine`]: the same
    /// grouping bounds, and through `run_group` the same outputs and passes
    /// with no escalation, on a single-layer kernel (which groups) and a
    /// multi-layer one (which does not).
    fn exact_value_matches<K: AdaptiveKernel<Sym = Base>>(params: K::Params, config: KernelConfig) {
        let exact = ExactEngine::<K>::new(params.clone());
        let folded = PrecisionEngine::<K>::new(params, LanePrecision::Exact);
        assert_eq!(
            folded.group_width(),
            PairEngine::<K>::group_width(&exact),
            "group_width"
        );
        assert_eq!(
            folded.group_cost_max(),
            PairEngine::<K>::group_cost_max(&exact),
            "group_cost_max"
        );

        let mut sim = ReadSimulator::new(40);
        let owned: Vec<_> = (0..2 * LANE_WIDTH + 3)
            .map(|i| sim.read_pair(40 + i % 7, 0.1))
            .collect();
        let pairs: Vec<PairRef<'_, Base>> = owned
            .iter()
            .map(|(r, q)| (q.as_slice(), r.as_slice()))
            .collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let want_passes = exact.run_group(&pairs, &config, &mut exact.new_scratch(), &mut want);
        let passes = folded.run_group(&pairs, &config, &mut folded.new_scratch(), &mut got);
        assert_eq!(passes, want_passes, "grouped passes");
        if K::meta().n_layers == 1 {
            assert!(passes >= 1, "a single-layer kernel groups");
        }
        assert_eq!(got.len(), pairs.len());
        for (i, (got, want)) in got.into_iter().zip(want).enumerate() {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert_eq!(got.output, want.output, "pair {i}");
            assert_eq!(got.stats, want.stats, "pair {i}");
            assert_eq!(got.stats.escalations, 0, "pair {i}");
        }
    }

    #[test]
    fn exact_value_is_the_exact_engine() {
        let banded = KernelConfig::new(16, 1, 1)
            .with_max_lengths(64, 64)
            .with_banding(8);
        exact_value_matches::<BandedGlobalLinear>(LinearParams::dna(), banded);
        let full = KernelConfig::new(16, 1, 1).with_max_lengths(64, 64);
        exact_value_matches::<GlobalAffine>(AffineParams::dna(), full);
    }
}
