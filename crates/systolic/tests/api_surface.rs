//! Frozen-surface guard: the out-of-workspace `benchmark/` package
//! (`src/{ladder,stream,inputs,map}.rs`) calls exactly these engine doors
//! and both `LaneKernel` ports with exactly these argument lists. It is not
//! a workspace member, so without this file a signature drift would pass
//! `cargo test` and break only the benchmark build.

// Spelling each argument list out in full is the point of this file.
#![allow(clippy::type_complexity)]

use dphls_core::{
    AdaptiveKernel, I8Lanes, KernelConfig, LaneKernel, LayerVec, Score, TbPtr, I8_LANES_WIDE,
    LANE_WIDTH,
};
use dphls_kernels::{AffineParams, GlobalAffine, GlobalLinear, LinearParams};
use dphls_seq::{Base, DnaSeq};
use dphls_systolic::{
    run_adaptive_with_scratch, run_systolic, run_systolic_scalar_with_scratch,
    run_systolic_with_scratch, run_xdrop, AdaptiveScratch, BlockStats, SystolicError, SystolicRun,
    SystolicScratch, XDropConfig, XDropRun,
};

type Run<S> = Result<SystolicRun<S>, SystolicError>;

fn pair() -> (Vec<Base>, Vec<Base>) {
    let q: DnaSeq = "ACGTACGTACGTTGCAACGT".parse().unwrap();
    let r: DnaSeq = "ACGTACCTACGTTGAACGTA".parse().unwrap();
    (q.into_vec(), r.into_vec())
}

#[test]
fn engine_doors_keep_their_signatures() {
    let _: fn(&LinearParams<i16>, &[Base], &[Base], &KernelConfig) -> Run<i16> =
        run_systolic::<GlobalLinear>;
    let _: fn(
        &LinearParams<i16>,
        &[Base],
        &[Base],
        &KernelConfig,
        &mut SystolicScratch<i16>,
    ) -> Run<i16> = run_systolic_with_scratch::<GlobalLinear>;
    let _: fn(
        &AffineParams<i16>,
        &[Base],
        &[Base],
        &KernelConfig,
        &mut SystolicScratch<i16>,
    ) -> Run<i16> = run_systolic_scalar_with_scratch::<GlobalAffine<i16>>;
    let _: fn(
        &LinearParams<i16>,
        Option<&LinearParams<i8>>,
        I8Lanes,
        &[Base],
        &[Base],
        &KernelConfig,
        &mut AdaptiveScratch,
    ) -> Run<i16> = run_adaptive_with_scratch::<GlobalLinear>;
}

#[test]
fn engine_doors_run_as_the_benchmark_calls_them() {
    let (q, r) = pair();
    let config = KernelConfig::new(8, 1, 1)
        .with_max_lengths(32, 32)
        .with_banding(6);
    let params = LinearParams::<i16>::unit();
    let fresh = run_systolic::<GlobalLinear>(&params, &q, &r, &config).unwrap();

    let mut scratch = SystolicScratch::new();
    let laned =
        run_systolic_with_scratch::<GlobalLinear>(&params, &q, &r, &config, &mut scratch).unwrap();
    let scalar =
        run_systolic_scalar_with_scratch::<GlobalLinear>(&params, &q, &r, &config, &mut scratch)
            .unwrap();
    let lo_params = GlobalLinear::lo_params(&params);
    let mut narrow = AdaptiveScratch::new();
    let adaptive = run_adaptive_with_scratch::<GlobalLinear>(
        &params,
        lo_params.as_ref(),
        I8Lanes::X32,
        &q,
        &r,
        &config,
        &mut narrow,
    )
    .unwrap();
    for run in [&laned, &scalar, &adaptive] {
        assert_eq!(run.output, fresh.output);
    }

    // The fields the ladder folds.
    let mut stats = BlockStats::default();
    stats.cells += laned.stats.cells;
    stats.wavefronts += laned.stats.wavefronts;
    stats.tb_steps += laned.stats.tb_steps;
    assert!(stats.pe_utilization(config.npe) > 0.0);
    assert_eq!(adaptive.stats.escalations, 0);

    let xdrop = XDropConfig {
        half_width: 8,
        x: 40,
    };
    let run: XDropRun = run_xdrop(
        &q,
        r.as_slice(),
        |a, b| params.substitution(a == b) as i32,
        params.gap as i32,
        &xdrop,
    );
    assert!(run.cells > 0 && run.score > 0);
}

/// `benchmark/src/ladder.rs::bare_lanes`, one call instead of two million.
fn bare_lanes<K: LaneKernel<L>, const L: usize>(params: &K::Params, syms: &[K::Sym]) -> bool {
    let q: Vec<K::Sym> = syms.iter().cycle().take(L).copied().collect();
    let r_rev: Vec<K::Sym> = syms.iter().rev().cycle().take(L).copied().collect();
    let zero = K::Score::zero();
    let mut ptrs = [TbPtr::END; L];
    if K::meta().n_layers == 1 {
        let (diag, up, left, mut out) = ([zero; L], [zero; L], [zero; L], [zero; L]);
        K::pe_lanes_primary(params, &q, &r_rev, &diag, &up, &left, &mut out, &mut ptrs)
    } else {
        let fill = LayerVec::splat(K::meta().n_layers, zero);
        let (diag, up, left, mut out) = ([fill; L], [fill; L], [fill; L], [fill; L]);
        K::pe_lanes(params, &q, &r_rev, &diag, &up, &left, &mut out, &mut ptrs);
        false
    }
}

#[test]
fn lane_ports_keep_their_signatures() {
    let (syms, _) = pair();
    let linear = LinearParams::<i16>::unit();
    let narrow = GlobalLinear::lo_params(&linear).expect("unit parameters fit i8");
    type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
    // Zero neighbours and unit scores stay far from the i8 guard band.
    assert!(!bare_lanes::<GlobalAffine<i16>, LANE_WIDTH>(
        &AffineParams::<i16>::dna(),
        &syms
    ));
    assert!(!bare_lanes::<GlobalLinear, LANE_WIDTH>(&linear, &syms));
    assert!(!bare_lanes::<Lo, I8_LANES_WIDE>(&narrow, &syms));
}
