//! Criterion bench of the streaming pipeline: `run_batched` over a
//! materialized workload vs `run_streamed`, whose dealer pulls the source
//! pair by pair, on a banded 256-bp workload (criterion-sample size), plus
//! a tight-window point (window 8) showing the cost of a shallow admission
//! window.
//!
//! The `front_end` group times the two text→symbol doors in front of the
//! engines on their own: FASTA parse plus `dna()` over 120-bp pairs (bytes
//! of FASTA a second), and the wire codec's `decode_payload` on one request
//! frame of two 256-bp sequences.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dphls_bench::harness::make_workload;
use dphls_core::KernelConfig;
use dphls_host::{run_batched, run_streamed, BatchConfig, StreamConfig};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::fasta::{write_dna, FastaStream};
use dphls_seq::gen::ReadSimulator;
use dphls_serve::{decode_payload, encode, Frame, Request};
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::hint::black_box;
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

fn bench_front_end(c: &mut Criterion) {
    let pairs = ReadSimulator::new(0xFE).read_pairs(500, 120, 0.2);
    let records: Vec<_> = pairs
        .iter()
        .flat_map(|(r, q)| [("q", q), ("r", r)])
        .collect();
    let fasta = write_dna(records, 80);
    let (reference, read) = &ReadSimulator::new(0xFF).read_pairs(1, 256, 0.0)[0];
    let payload = encode(&Frame::Request(Request {
        kernel: "banded_global_linear".to_owned(),
        query: read.as_slice().to_vec(),
        reference: reference.as_slice().to_vec(),
    }));

    let mut g = c.benchmark_group("front_end");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Bytes(fasta.len() as u64));
    g.bench_function("fasta_dna_120bp", |b| {
        b.iter(|| {
            FastaStream::new(fasta.as_bytes())
                .map(|rec| rec.and_then(|rec| rec.dna()).expect("own FASTA").len())
                .sum::<usize>()
        })
    });
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("decode_request_256bp", |b| {
        b.iter(|| decode_payload(black_box(&payload)).expect("own encoding"))
    });
    g.finish();
}

criterion_group!(benches, bench_streaming, bench_front_end);
criterion_main!(benches);
