//! Frozen-surface guard: the out-of-workspace `benchmark/` package
//! (`src/{ladder,stream,inputs,map}.rs`) calls exactly these engine doors
//! and the two chunked `LaneKernel` ports with exactly these argument lists.
//! It is not a workspace member, so without this file a signature drift
//! would pass `cargo test` and break only the benchmark build. The
//! whole-wavefront plane port is pinned here too: it is what the engine
//! calls for multi-layer kernels, and the door the benchmark's lane-body
//! rung is to be repointed at. So are the grouped (inter-sequence) doors —
//! the host's `PrecisionEngine::run_group` / `ExactEngine::run_group` and the
//! `lanes` bench call them, and a benchmark rung for the grouped body would
//! too.

// Spelling each argument list out in full is the point of this file.
#![allow(clippy::type_complexity)]

use dphls_core::{
    AdaptiveKernel, I8Lanes, KernelConfig, KernelSpec, LaneKernel, LayerVec, Score, TbPtr,
    I8_LANES_WIDE, LANE_WIDTH,
};
use dphls_kernels::{AffineParams, GlobalAffine, GlobalLinear, LinearParams};
use dphls_seq::{Base, DnaSeq};
use dphls_systolic::{
    group_cells_max, run_adaptive_group_with_scratch, run_adaptive_with_scratch,
    run_exact_group_with_scratch, run_group_with_scratch, run_systolic,
    run_systolic_scalar_with_scratch, run_systolic_with_scratch, run_xdrop, AdaptiveScratch,
    BlockStats, ExactScratch, GroupScratch, SystolicError, SystolicRun, SystolicScratch,
    XDropConfig, XDropRun,
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

#[test]
fn plane_port_keeps_its_signature() {
    let port: fn(
        &AffineParams<i16>,
        &[Base],
        &[Base],
        &[&[i16]],
        &[&[i16]],
        &[&[i16]],
        &mut [&mut [i16]],
        &mut [TbPtr],
    ) -> bool = <GlobalAffine<i16> as LaneKernel>::pe_wavefront;

    // Called as the engine calls it: one slice per layer, symbols forward on
    // both sides, pointers written in place, guard flag returned.
    let (q, r) = pair();
    let n = q.len();
    let params = AffineParams::<i16>::dna();
    let planes = [vec![0i16; n], vec![-7i16; n], vec![-9i16; n]];
    let views = planes.each_ref().map(Vec::as_slice);
    let mut out = [vec![0i16; n], vec![0i16; n], vec![0i16; n]];
    let mut ptrs = vec![TbPtr::END; n];
    let escalate = port(
        &params,
        &q,
        &r,
        &views,
        &views,
        &views,
        &mut out.each_mut().map(Vec::as_mut_slice),
        &mut ptrs,
    );
    assert!(!escalate, "exact scores never escalate");
    let cell = LayerVec::from_slice(&[0i16, -7, -9]);
    for t in 0..n {
        let (want, want_ptr) = GlobalAffine::<i16>::pe(&params, q[t], r[t], &cell, &cell, &cell);
        assert_eq!(
            [out[0][t], out[1][t], out[2][t]],
            want.as_slice(),
            "lane {t}"
        );
        assert_eq!(ptrs[t], want_ptr, "lane {t}");
    }
}

#[test]
fn grouped_doors_keep_their_signatures() {
    type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
    let _: fn(
        &LinearParams<i8>,
        &[(&[Base], &[Base])],
        &KernelConfig,
        &mut GroupScratch<i8, I8_LANES_WIDE>,
    ) -> Vec<Result<Option<SystolicRun<i8>>, SystolicError>> =
        run_group_with_scratch::<Lo, I8_LANES_WIDE>;
    let _: fn(
        &LinearParams<i16>,
        Option<&LinearParams<i8>>,
        I8Lanes,
        &[(&[Base], &[Base])],
        &KernelConfig,
        &mut AdaptiveScratch,
        &mut Vec<Run<i16>>,
    ) -> usize = run_adaptive_group_with_scratch::<GlobalLinear>;
    let _: fn(
        &LinearParams<i16>,
        &[(&[Base], &[Base])],
        &KernelConfig,
        &mut ExactScratch<i16>,
        &mut Vec<Run<i16>>,
    ) -> usize = run_exact_group_with_scratch::<GlobalLinear>;
    let _: fn(&mut ExactScratch<i16>) -> &mut SystolicScratch<i16> = ExactScratch::wavefront;
    // One adaptive scratch carries the exact arenas too, so one engine type
    // serves both precision values.
    let _: fn(&mut AdaptiveScratch) -> &mut ExactScratch<i16> = AdaptiveScratch::exact;
    // One L2 budget, a cell bound per lane count.
    let cap: fn(usize) -> u64 = group_cells_max;
    assert_eq!(cap(LANE_WIDTH), 2 * cap(2 * LANE_WIDTH));
    let _: fn(
        &LinearParams<i16>,
        &[Base; LANE_WIDTH],
        &[Base; LANE_WIDTH],
        &[i16; LANE_WIDTH],
        &[i16; LANE_WIDTH],
        &[i16; LANE_WIDTH],
        &mut [i16; LANE_WIDTH],
        &mut [TbPtr; LANE_WIDTH],
    ) = <GlobalLinear as LaneKernel>::pe_group;

    // Called as the host calls them: a group in, one result per pair out,
    // each the single-pair door's.
    let (q, r) = pair();
    let config = KernelConfig::new(8, 1, 1)
        .with_max_lengths(32, 32)
        .with_banding(6);
    let params = LinearParams::<i16>::unit();
    let lo_params = GlobalLinear::lo_params(&params);
    let mut scratch = AdaptiveScratch::new();
    let group = [(&q[..], &r[..]), (&r[..], &q[..]), (&q[..8], &r[..9])];
    let mut runs = Vec::new();
    let passes = run_adaptive_group_with_scratch::<GlobalLinear>(
        &params,
        lo_params.as_ref(),
        I8Lanes::X32,
        &group,
        &config,
        &mut scratch,
        &mut runs,
    );
    assert_eq!((passes, runs.len()), (1, 3));
    for ((q, r), run) in group.iter().zip(&runs) {
        let alone = run_adaptive_with_scratch::<GlobalLinear>(
            &params,
            lo_params.as_ref(),
            I8Lanes::X32,
            q,
            r,
            &config,
            &mut scratch,
        );
        assert_eq!(run, &alone);
    }

    // The exact driver: one pass at `i16 × 8`, each member the wavefront
    // engine's run.
    let mut exact = ExactScratch::new();
    let mut runs = Vec::new();
    let passes = run_exact_group_with_scratch::<GlobalLinear>(
        &params, &group, &config, &mut exact, &mut runs,
    );
    assert_eq!((passes, runs.len()), (1, 3));
    for ((q, r), run) in group.iter().zip(&runs) {
        let alone =
            run_systolic_with_scratch::<GlobalLinear>(&params, q, r, &config, exact.wavefront());
        assert_eq!(run, &alone);
    }
}
