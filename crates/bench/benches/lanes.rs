//! Criterion bench of the multi-lane wavefront engine: the PR 1 scalar
//! scratch path vs the lane path, each pair through the public engine doors
//! so what is timed is the path the engine really takes.
//!
//! * `lanes`: a banded short-read workload (criterion-sample size) for the
//!   chunked single-layer port, plus the 3-layer affine kernel on the same
//!   256-bp pairs.
//! * `lanes_long`: 1500-bp full-matrix pairs at NPE 64 — the
//!   `stream_long_affine` geometry — for the kernels that score a whole
//!   wavefront per call over layer planes (`GlobalAffine`, `GlobalTwoPiece`).
//!   The out-of-workspace `kernels.pe_lanes_gcups` rung times the `LayerVec`
//!   port, which the engine no longer calls for multi-layer kernels; this
//!   group is the in-workspace reading of the live path.
//! * `grouped`: the `stream_short_adaptive` pair shape (120 bp, unit scoring,
//!   band w20, NPE 120, every 20th pair a planted escalator) through the
//!   adaptive wavefront engine one pair at a time, and through the grouped
//!   (inter-sequence) engine at 1, 2, 4, 8, 16 and 32 pairs a pass — 16 or
//!   fewer on the 16-lane body, 32 on the 32-lane one, which the adaptive
//!   driver does not instantiate (this row is the reading that would justify
//!   it) — escalation re-runs included, with no break-even gate in the way.
//!   Beside them, the `serve_saturated` pair shape (256 bp, 20 % error, DNA
//!   scoring, band w32, NPE 32) on the exact engine: the wavefront engine one
//!   pair at a time, and the grouped engine at `i16 × 8`, a hand of eight a
//!   pass (`run_exact_group_with_scratch`, what `ExactEngine::run_group`
//!   calls). Elements are pairs, so the reciprocal is µs a pair: where the
//!   constants of `dphls_systolic::group` come from.
//! * `xdrop`: one 3 kb read at 5 % error against its candidate window through
//!   `run_xdrop` at the mapper's default `XDropConfig` — the `map_long_reads`
//!   extension step, throughput in anti-diagonals (ns per wavefront is the
//!   reciprocal), a two-second reading of the loop the traced benchmark run
//!   takes half a minute to reach.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use dphls_bench::harness::{make_workload, Workload};
use dphls_core::{
    AdaptiveKernel, I8Lanes, KernelConfig, LaneKernel, I8_LANES_NARROW, I8_LANES_WIDE, LANE_WIDTH,
};
use dphls_kernels::{
    default_banding, AffineParams, BandedGlobalLinear, GlobalAffine, GlobalLinear, GlobalTwoPiece,
    LinearParams, TwoPieceParams,
};
use dphls_mapper::MapperConfig;
use dphls_seq::gen::{ErrorModel, ReadSimulator};
use dphls_seq::Base;
use dphls_systolic::{
    run_adaptive_with_scratch, run_exact_group_with_scratch, run_group_with_scratch,
    run_systolic_scalar_with_scratch, run_systolic_with_scratch, run_xdrop, AdaptiveScratch,
    ExactScratch, GroupScratch, SystolicScratch,
};
use std::time::Duration;

/// Benches `workload` through the scalar and the lane engine as
/// `<name>_scalar` / `<name>_laned`.
fn scalar_vs_laned<K: LaneKernel<Sym = Base>>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    params: &K::Params,
    config: &KernelConfig,
    workload: &Workload,
) {
    let pairs = workload.len();
    let scalar = BenchmarkId::new(&format!("{name}_scalar"), pairs);
    g.bench_with_input(scalar, &pairs, |b, _| {
        let mut scratch = SystolicScratch::new();
        b.iter(|| {
            for (q, r) in workload {
                run_systolic_scalar_with_scratch::<K>(params, q, r, config, &mut scratch).unwrap();
            }
        })
    });
    let laned = BenchmarkId::new(&format!("{name}_laned"), pairs);
    g.bench_with_input(laned, &pairs, |b, _| {
        let mut scratch = SystolicScratch::new();
        b.iter(|| {
            for (q, r) in workload {
                run_systolic_with_scratch::<K>(params, q, r, config, &mut scratch).unwrap();
            }
        })
    });
}

fn bench_lanes(c: &mut Criterion) {
    let pairs = 200usize;
    let len = 256usize;
    let workload = make_workload(pairs, len, 0xD9);
    let full_cfg = KernelConfig::new(32, 1, 1).with_max_lengths(len, len);
    let banded_cfg = full_cfg.with_banding(16);

    let mut g = c.benchmark_group("lanes");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(pairs as u64));
    let linear = LinearParams::<i16>::dna();
    scalar_vs_laned::<GlobalLinear>(&mut g, "banded", &linear, &banded_cfg, &workload);
    let affine = AffineParams::<i16>::dna();
    scalar_vs_laned::<GlobalAffine<i16>>(&mut g, "affine", &affine, &full_cfg, &workload);
    g.finish();
}

fn bench_lanes_long(c: &mut Criterion) {
    let pairs = 4usize;
    let len = 1500usize;
    let workload = make_workload(pairs, len, 0xD9);
    let config = KernelConfig::new(64, 1, 1).with_max_lengths(len, len);

    let mut g = c.benchmark_group("lanes_long");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements((pairs * len * len) as u64));
    let affine = AffineParams::<i16>::dna();
    scalar_vs_laned::<GlobalAffine<i16>>(&mut g, "affine", &affine, &config, &workload);
    let two_piece = TwoPieceParams::<i32>::dna();
    scalar_vs_laned::<GlobalTwoPiece>(&mut g, "two_piece", &two_piece, &config, &workload);
    g.finish();
}

/// One pass of the grouped engine over `pairs` at `L` lanes, tripped members
/// re-run on the exact engine: what `run_adaptive_group_with_scratch` does
/// for a group it accepts. Returns how many members escalated.
fn grouped_pass<const L: usize>(
    lo: &LinearParams<i8>,
    params: &LinearParams<i16>,
    pairs: &[(&[Base], &[Base])],
    config: &KernelConfig,
    narrow: &mut GroupScratch<i8, L>,
    exact: &mut SystolicScratch<i16>,
) -> usize
where
    <GlobalLinear as AdaptiveKernel>::Lo: LaneKernel<L>,
{
    type Lo = <GlobalLinear as AdaptiveKernel>::Lo;
    let slots = run_group_with_scratch::<Lo, L>(lo, pairs, config, narrow);
    let mut escalated = 0;
    for (slot, (q, r)) in slots.into_iter().zip(pairs) {
        if slot.expect("valid pair").is_none() {
            run_systolic_with_scratch::<GlobalLinear>(params, q, r, config, exact).unwrap();
            escalated += 1;
        }
    }
    escalated
}

fn bench_grouped(c: &mut Criterion) {
    let pairs = 640usize;
    let len = 120usize;
    let mut workload = make_workload(pairs, len, 0xD9);
    for (q, r) in workload.iter_mut().skip(3).step_by(20) {
        *q = r.clone();
        q[..44].fill(Base::A);
        r[..44].fill(Base::C);
    }
    let views: Vec<(&[Base], &[Base])> = workload
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect();
    let config = KernelConfig::new(len, 1, 1)
        .with_max_lengths(len, len)
        .with_banding(20);
    let params = LinearParams::<i16>::unit();
    let lo = GlobalLinear::lo_params(&params).expect("unit scoring fits i8");

    let mut g = c.benchmark_group("grouped");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(pairs as u64));
    g.bench_with_input(BenchmarkId::new("wavefront", pairs), &pairs, |b, _| {
        let mut scratch = AdaptiveScratch::new();
        b.iter(|| {
            for (q, r) in &views {
                run_adaptive_with_scratch::<GlobalLinear>(
                    &params,
                    Some(&lo),
                    I8Lanes::X32,
                    q,
                    r,
                    &config,
                    &mut scratch,
                )
                .unwrap();
            }
        })
    });
    for size in [1usize, 2, 4, 8, 16, 32] {
        let id = BenchmarkId::new(&format!("group_of_{size}"), pairs);
        g.bench_with_input(id, &pairs, |b, _| {
            let mut narrow = GroupScratch::<i8, { I8_LANES_NARROW }>::new();
            let mut wide = GroupScratch::<i8, { I8_LANES_WIDE }>::new();
            let mut exact = SystolicScratch::new();
            b.iter(|| {
                let mut escalated = 0;
                for group in views.chunks(size) {
                    escalated += if size <= I8_LANES_NARROW {
                        grouped_pass(&lo, &params, group, &config, &mut narrow, &mut exact)
                    } else {
                        grouped_pass(&lo, &params, group, &config, &mut wide, &mut exact)
                    };
                }
                assert_eq!(escalated, pairs / 20);
            })
        });
    }

    let served = make_workload(pairs, 256, 0x5E);
    let served: Vec<(&[Base], &[Base])> = served
        .iter()
        .map(|(q, r)| (q.as_slice(), r.as_slice()))
        .collect();
    let band = default_banding("banded_global_linear").expect("the served kernel is banded");
    let config = KernelConfig::new(32, 1, 1)
        .with_max_lengths(256, 256)
        .with_banding(band);
    let dna = LinearParams::<i16>::dna();
    type Served = BandedGlobalLinear<i16>;
    g.bench_with_input(
        BenchmarkId::new("served_wavefront", pairs),
        &pairs,
        |b, _| {
            let mut scratch = SystolicScratch::new();
            b.iter(|| {
                for (q, r) in &served {
                    run_systolic_with_scratch::<Served>(&dna, q, r, &config, &mut scratch).unwrap();
                }
            })
        },
    );
    let id = BenchmarkId::new(&format!("served_exact_group_of_{LANE_WIDTH}"), pairs);
    g.bench_with_input(id, &pairs, |b, _| {
        let (mut scratch, mut runs) = (ExactScratch::new(), Vec::new());
        b.iter(|| {
            runs.clear();
            let passes = run_exact_group_with_scratch::<Served>(
                &dna,
                &served,
                &config,
                &mut scratch,
                &mut runs,
            );
            assert_eq!(passes, pairs / LANE_WIDTH);
        })
    });
    g.finish();
}

fn bench_xdrop(c: &mut Criterion) {
    let cfg = MapperConfig::default();
    let mut sim = ReadSimulator::new(0xD9).error_model(ErrorModel::PACBIO_CLR);
    let read = sim.simulate_read(3_000, 0.05);
    // The window `map_read` cuts: read length plus an eighth plus slack.
    let span = read.read.len() + read.read.len() / 8 + cfg.window_slack;
    let window = sim.genome().window(read.start, span);
    let (q, r) = (read.read.as_slice(), window.as_slice());
    let extend = || {
        run_xdrop(
            q,
            r,
            |a, b| cfg.params.substitution(a == b),
            cfg.params.gap,
            &cfg.xdrop,
        )
    };
    let run = extend();
    assert!(run.score > 3_000, "the read lost its window: {run:?}");

    let mut g = c.benchmark_group("xdrop");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(run.wavefronts));
    g.bench_with_input(
        BenchmarkId::new("read_3kb_wavefronts", run.wavefronts),
        &run.wavefronts,
        |b, _| b.iter(extend),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_lanes,
    bench_lanes_long,
    bench_grouped,
    bench_xdrop
);
criterion_main!(benches);
