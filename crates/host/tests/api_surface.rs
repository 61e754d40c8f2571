//! Frozen-surface guard: the out-of-workspace `benchmark/` package calls
//! exactly these four doors with exactly these argument lists, builds the
//! config structs as full literals and reads the reports by field. It is
//! not a workspace member, so without this file a signature drift would
//! pass `cargo test` and break only the benchmark build.

// Spelling each argument list out in full is the point of this file.
#![allow(clippy::type_complexity)]

use dphls_core::{DpOutput, LanePrecision, SeqPair};
use dphls_host::{
    run_batched_adaptive, run_streamed, run_streamed_adaptive, BatchConfig, BatchError,
    BatchReport, FaultPlan, PairFault, ResilienceConfig, StreamConfig, StreamError, StreamReport,
    StreamSession,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_systolic::Device;
use std::convert::Infallible;

type Pair = SeqPair<GlobalLinear>;
type Source = std::vec::IntoIter<Result<Pair, Infallible>>;
type Slot = Result<DpOutput<i16>, PairFault>;
type Streamed = Result<StreamReport, StreamError<Infallible>>;

#[test]
fn benchmark_doors_keep_their_signatures() {
    let _: fn(
        &Device,
        &LinearParams<i16>,
        Source,
        StreamConfig,
        fn(usize, DpOutput<i16>),
    ) -> Streamed = run_streamed::<GlobalLinear, Source, Infallible, fn(usize, DpOutput<i16>)>;
    let _: fn(
        &Device,
        &LinearParams<i16>,
        LanePrecision,
        Source,
        StreamConfig,
        &ResilienceConfig,
        Option<&FaultPlan>,
        fn(usize, Slot),
    ) -> Streamed = run_streamed_adaptive::<GlobalLinear, Source, Infallible, fn(usize, Slot)>;
    let _: fn(
        &Device,
        &LinearParams<i16>,
        LanePrecision,
        &[Pair],
        BatchConfig,
        &ResilienceConfig,
        Option<&FaultPlan>,
    ) -> Result<BatchReport<i16>, BatchError> = run_batched_adaptive::<GlobalLinear>;
    let _: fn(
        Device,
        LinearParams<i16>,
        LanePrecision,
        StreamConfig,
        ResilienceConfig,
        fn(usize, Slot),
    ) -> StreamSession<GlobalLinear> =
        StreamSession::<GlobalLinear>::spawn_adaptive::<fn(usize, Slot)>;
}

#[test]
fn benchmark_configs_and_report_fields_keep_their_shape() {
    let StreamConfig {
        buffer,
        window,
        nb_slots,
    } = StreamConfig::default();
    let literal = StreamConfig {
        buffer,
        window,
        nb_slots,
    };
    assert_eq!(literal, StreamConfig::default());
    assert_eq!(BatchConfig::default().nb_slots, 0);
    assert_eq!(BatchConfig::single_slot().nb_slots, 1);
    assert!(ResilienceConfig::disabled().is_disabled());

    // The report fields the benchmark reads, by name — and the grouped-pass
    // counters, which it does not read yet (mean group size is pairs ÷
    // groups; a fallback is a pass whose members re-ran alone).
    let _ = |b: BatchReport<i16>| (b.outputs, b.steals, b.groups, b.fallbacks);
    let _ = |s: StreamReport| {
        let completed = s.completed();
        let marks = (s.reorder_high_water, s.resident_high_water);
        let passes = (s.groups, s.fallbacks);
        (s.pairs, completed, marks, s.retries, s.faults, passes)
    };
}

#[test]
fn pair_engine_group_doors_keep_their_signatures() {
    use dphls_core::{I8Lanes, KernelConfig, I8_LANES_NARROW, LANE_WIDTH};
    use dphls_host::{
        AdaptiveEngine, ExactEngine, PairEngine, PairResult, PrecisionEngine, PrecisionScratch,
    };
    use dphls_kernels::{AffineParams, GlobalAffine};
    use dphls_seq::Base;
    use dphls_systolic::{group_cells_max, AdaptiveScratch, ExactScratch};

    type Adaptive = AdaptiveEngine<GlobalLinear>;
    type Exact = ExactEngine<GlobalLinear>;
    let _: fn(&Adaptive) -> usize = <Adaptive as PairEngine<GlobalLinear>>::group_width;
    let _: fn(&Adaptive) -> u64 = <Adaptive as PairEngine<GlobalLinear>>::group_cost_max;
    let _: fn(
        &Adaptive,
        &[(&[Base], &[Base])],
        &KernelConfig,
        &mut AdaptiveScratch,
        &mut Vec<PairResult<i16>>,
    ) -> usize = <Adaptive as PairEngine<GlobalLinear>>::run_group;
    let _: fn(
        &Exact,
        &[(&[Base], &[Base])],
        &KernelConfig,
        &mut ExactScratch<i16>,
        &mut Vec<PairResult<i16>>,
    ) -> usize = <Exact as PairEngine<GlobalLinear>>::run_group;
    // The exact arenas are what the precision-dispatching engine carries.
    let precision = PrecisionEngine::<GlobalLinear>::new(LinearParams::unit(), Default::default());
    let _: ExactScratch<i16> = match precision.new_scratch() {
        PrecisionScratch::Exact(arenas) => arenas,
        PrecisionScratch::Adaptive(_) => unreachable!("exact is the default precision"),
    };

    // The adaptive engine takes the lane count the caller chose, the exact
    // engine `LANE_WIDTH`; an engine whose parameters leave the `i8`
    // envelope takes one pair at a time.
    let unit = LinearParams::<i16>::unit();
    assert_eq!(Adaptive::new(unit, I8Lanes::X16).group_width(), 16);
    assert_eq!(Adaptive::new(unit, I8Lanes::X32).group_width(), 32);
    let wide = LinearParams {
        match_score: 100,
        ..unit
    };
    assert_eq!(Adaptive::new(wide, I8Lanes::X32).group_width(), 1);
    let exact = Exact::new(unit);
    assert_eq!(PairEngine::<GlobalLinear>::group_width(&exact), LANE_WIDTH);
    // The cap on what is worth grouping is the engine's to state: one L2
    // budget over the lanes of its passes.
    let cap = Adaptive::new(unit, I8Lanes::X32).group_cost_max();
    assert_eq!(dphls_systolic::adaptive::GROUP_LANES, I8_LANES_NARROW);
    assert_eq!(cap, group_cells_max(I8_LANES_NARROW));
    let cap = PairEngine::<GlobalLinear>::group_cost_max(&exact);
    assert_eq!(cap, group_cells_max(LANE_WIDTH));
    // Multi-layer kernels stay on the wavefront engine.
    let affine = AdaptiveEngine::<GlobalAffine>::new(AffineParams::dna(), I8Lanes::X32);
    assert!(affine.narrow_path_enabled());
    assert_eq!(affine.group_width(), 1);
    let affine = ExactEngine::<GlobalAffine>::new(AffineParams::dna());
    assert_eq!(PairEngine::<GlobalAffine>::group_width(&affine), 1);
}
