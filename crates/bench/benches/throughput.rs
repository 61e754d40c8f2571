//! Criterion bench of the batched alignment engines (ISSUE 1): the naive
//! per-alignment-allocation baseline vs the zero-allocation scratch path vs
//! the work-stealing batch engine, on a banded short-read workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dphls_bench::naive::run_systolic_naive;
use dphls_bench::perf::make_workload;
use dphls_core::KernelConfig;
use dphls_host::{run_batched, BatchConfig};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_systolic::{
    run_systolic_with_scratch, CycleModelParams, Device, KernelCycleInfo, SystolicScratch,
};
use std::time::Duration;

fn bench_throughput(c: &mut Criterion) {
    let pairs = 200usize;
    let len = 256usize;
    let workload = make_workload(pairs, len, 0xBE);
    let params = LinearParams::<i16>::dna();
    let cfg = KernelConfig::new(32, 1, 4)
        .with_max_lengths(len, len)
        .with_banding(16);

    let mut g = c.benchmark_group("throughput");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(pairs as u64));

    g.bench_with_input(BenchmarkId::new("naive_alloc", pairs), &pairs, |b, _| {
        b.iter(|| {
            for (q, r) in &workload {
                run_systolic_naive::<GlobalLinear>(&params, q, r, &cfg);
            }
        })
    });

    g.bench_with_input(BenchmarkId::new("scratch_reuse", pairs), &pairs, |b, _| {
        let mut scratch = SystolicScratch::new();
        b.iter(|| {
            for (q, r) in &workload {
                run_systolic_with_scratch::<GlobalLinear>(&params, q, r, &cfg, &mut scratch)
                    .unwrap();
            }
        })
    });

    let device = Device::new(
        cfg,
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );
    g.bench_with_input(
        BenchmarkId::new("work_stealing_nk4", pairs),
        &pairs,
        |b, _| {
            b.iter(|| {
                run_batched::<GlobalLinear>(&device, &params, &workload, BatchConfig::default())
                    .unwrap()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
