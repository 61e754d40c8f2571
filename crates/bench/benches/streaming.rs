//! Criterion bench of the streaming pipeline (ISSUE 3): `run_batched` over
//! a materialized workload vs `run_streamed` fed pair-by-pair through the
//! bounded producer channel, on the banded gate workload (shrunk to
//! criterion-sample size), plus a tight-buffer point showing the cost of
//! lockstep production.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dphls_bench::perf::make_workload;
use dphls_core::KernelConfig;
use dphls_host::{run_batched, run_streamed, BatchConfig, StreamConfig};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::time::Duration;

fn bench_streaming(c: &mut Criterion) {
    let pairs = 200usize;
    let len = 256usize;
    let workload = make_workload(pairs, len, 0xD9);
    let params = LinearParams::<i16>::dna();
    let config = KernelConfig::new(32, 1, 4)
        .with_max_lengths(len, len)
        .with_banding(16);
    let device = Device::new(
        config,
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );

    let mut g = c.benchmark_group("streaming");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(pairs as u64));

    g.bench_with_input(BenchmarkId::new("batched", pairs), &pairs, |b, _| {
        b.iter(|| {
            run_batched::<GlobalLinear>(&device, &params, &workload, BatchConfig::default())
                .unwrap()
        })
    });
    for (name, cfg) in [
        ("streamed_default", StreamConfig::default()),
        (
            "streamed_lockstep",
            StreamConfig {
                buffer: 1,
                window: 8,
                nb_slots: 0,
            },
        ),
    ] {
        g.bench_with_input(BenchmarkId::new(name, pairs), &pairs, |b, _| {
            b.iter(|| {
                run_streamed::<GlobalLinear, _, std::convert::Infallible, _>(
                    &device,
                    &params,
                    workload.iter().cloned().map(Ok),
                    cfg,
                    |_, out| {
                        std::hint::black_box(&out);
                    },
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
