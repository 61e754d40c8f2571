//! Differential suite for NB-block intra-channel parallelism: the host's
//! per-channel block-slot pool (`BatchConfig::nb_slots` /
//! `StreamConfig::nb_slots`) must be observationally identical to the
//! single-slot path — same scores, same traceback paths, same input order,
//! same modeled throughput, same per-channel accounting totals — for
//! `nb_slots ∈ {1, 2, 4}`, across both the batched and the streamed
//! engines, on devices where `NB` actually exposes that many blocks.

mod common;

use common::{
    adaptive_pair_by_pair, assert_exact_groups_equal_per_pair, collect_streamed,
    short_banded_workload,
};
use dphls_core::{run_reference, Banding, I8Lanes, KernelConfig, LanePrecision};
use dphls_host::{
    run_batched, run_batched_adaptive, run_streamed_adaptive, BatchConfig, FleetConfig,
    ResilienceConfig, StreamConfig,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::convert::Infallible;

fn device(config: KernelConfig) -> Device {
    Device::new(
        config,
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    )
}

/// Varied-length pairs so cost ranking, stealing, and slot dispatch all
/// fire (the same shape as the streamed-vs-batched suite).
fn varied_workload(n: usize, max_len: usize, seed: u64) -> Vec<(Vec<Base>, Vec<Base>)> {
    let mut sim = ReadSimulator::new(seed);
    (0..n)
        .map(|i| {
            let len = 4 + (i * 13) % (max_len - 8);
            let (r, q) = sim.read_pair(len.max(4), 0.2);
            let mut q = q.into_vec();
            q.truncate(max_len - 4);
            let mut r = r.into_vec();
            r.truncate(max_len - 4);
            (q, r)
        })
        .collect()
}

const SLOT_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn batched_slot_counts_are_bit_identical_to_single_slot() {
    let params = LinearParams::<i16>::dna();
    for nk in [1usize, 3] {
        let wl = varied_workload(41 + nk * 7, 72, 0x5107 + nk as u64);
        // NB = 4 so every tested slot count maps to real device blocks.
        let config = KernelConfig::new(8, 4, nk).with_max_lengths(96, 96);
        let dev = device(config);
        let single =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        assert_eq!(single.nb_slots, 1);
        for slots in SLOT_COUNTS {
            let rep =
                run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::slots(slots)).unwrap();
            // Scores, tracebacks, and input order, bit for bit.
            assert_eq!(rep.outputs, single.outputs, "nk {nk} slots {slots}");
            // Stats: the modeled (stats-derived) throughput is exact — the
            // same alignments produce the same BlockStats no matter which
            // slot ran them — and the accounting totals must balance.
            assert_eq!(rep.nb_slots, slots);
            assert!(
                (rep.throughput_aps - single.throughput_aps).abs() < 1e-9,
                "throughput {} vs {} at nk {nk} slots {slots}",
                rep.throughput_aps,
                single.throughput_aps
            );
            assert_eq!(rep.per_channel.len(), nk);
            assert_eq!(rep.per_channel.iter().sum::<usize>(), wl.len());
            assert_eq!(rep.per_slot.len(), nk);
            for (ch, row) in rep.per_slot.iter().enumerate() {
                assert_eq!(row.len(), slots);
                assert_eq!(row.iter().sum::<usize>(), rep.per_channel[ch]);
            }
        }
    }
}

#[test]
fn streamed_slot_counts_are_bit_identical_to_single_slot() {
    let params = LinearParams::<i16>::dna();
    for nk in [1usize, 3] {
        let wl = varied_workload(38 + nk * 5, 72, 0xAB5 + nk as u64);
        let config = KernelConfig::new(8, 4, nk).with_max_lengths(96, 96);
        let dev = device(config);
        let batched =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        for slots in SLOT_COUNTS {
            for (buffer, window) in [(1usize, 2usize), (4, 16), (64, 128)] {
                let cfg = StreamConfig {
                    buffer,
                    window,
                    nb_slots: slots,
                };
                let (rep, stream) = collect_streamed::<GlobalLinear, _, Infallible>(
                    &dev,
                    &params,
                    wl.iter().cloned().map(Ok),
                    cfg,
                    FleetConfig::single(),
                )
                .unwrap();
                assert_eq!(rep.outputs, batched.outputs, "nk {nk} {cfg:?}");
                assert_eq!(stream.nb_slots, slots);
                assert!(
                    (rep.throughput_aps - batched.throughput_aps).abs() < 1e-9,
                    "throughput at nk {nk} {cfg:?}"
                );
                assert_eq!(stream.per_channel.iter().sum::<usize>(), wl.len());
                for (ch, row) in stream.per_slot.iter().enumerate() {
                    assert_eq!(row.len(), slots);
                    assert_eq!(row.iter().sum::<usize>(), stream.per_channel[ch]);
                }
                // Slot concurrency must not loosen the bounded-memory
                // contract: admission still gates everything in flight.
                assert!(stream.resident_high_water <= window);
                assert!(stream.reorder_high_water < window);
            }
        }
    }
}

#[test]
fn slot_outputs_match_the_reference_engine() {
    // Not just internally consistent: the pooled engine still agrees with
    // the golden full-matrix model pair by pair.
    let wl = varied_workload(23, 64, 0xFEED);
    let params = LinearParams::<i16>::dna();
    let config = KernelConfig::new(8, 4, 2).with_max_lengths(96, 96);
    let rep =
        run_batched::<GlobalLinear>(&device(config), &params, &wl, BatchConfig::slots(4)).unwrap();
    for (i, (q, r)) in wl.iter().enumerate() {
        let want = run_reference::<GlobalLinear>(&params, q, r, Banding::None);
        assert_eq!(rep.outputs[i], Some(want), "pair {i}");
    }
}

#[test]
fn default_run_batched_matches_explicit_single_slot() {
    // The auto slot policy may pick any count in 1..=NB depending on host
    // cores; whatever it picks must be invisible in the results.
    let wl = varied_workload(29, 64, 0xC0DE);
    let params = LinearParams::<i16>::dna();
    let dev = device(KernelConfig::new(8, 4, 2).with_max_lengths(96, 96));
    let auto = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
    let single =
        run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
    assert!((1..=4).contains(&auto.nb_slots));
    assert_eq!(auto.outputs, single.outputs);
    assert!((auto.throughput_aps - single.throughput_aps).abs() < 1e-9);
}

#[test]
fn oversized_sequence_error_propagates_from_slot_pool() {
    let params = LinearParams::<i16>::dna();
    let dev = device(KernelConfig::new(8, 4, 2).with_max_lengths(96, 96));
    let mut wl = varied_workload(12, 64, 0xE44);
    wl.push((vec![Base::A; 200], vec![Base::C; 50]));
    let err = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::slots(4));
    assert!(err.is_err(), "oversized pair must fail at any slot count");
    let err = collect_streamed::<GlobalLinear, _, Infallible>(
        &dev,
        &params,
        wl.into_iter().map(Ok),
        StreamConfig {
            buffer: 2,
            window: 8,
            nb_slots: 4,
        },
        FleetConfig::single(),
    );
    assert!(err.is_err());
}

/// Release-scale banded acceptance shape with a real NB (debug builds
/// shrink the pair count; the differential property is scale-invariant).
/// The same pairs on an `NB = 1` device model 3.5–4× less throughput: per
/// Fig 3C NB scaling is near-perfect until the channel arbiter binds, and
/// this workload's I/O phases are far too small to bind it.
#[test]
fn banded_release_scale_slot_pool_differential() {
    let pairs = if cfg!(debug_assertions) { 200 } else { 4_000 };
    let len = 256;
    let mut sim = ReadSimulator::new(0xD9);
    let wl: Vec<(Vec<Base>, Vec<Base>)> = sim
        .read_pairs(pairs, len, 0.2)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(len);
            let mut r = r.into_vec();
            r.truncate(len);
            (q.into_vec(), r)
        })
        .collect();
    let config = KernelConfig::new(32, 4, 4)
        .with_max_lengths(len, len)
        .with_banding(16);
    let params = LinearParams::<i16>::dna();
    let dev = device(config);
    let single =
        run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
    let pooled = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::slots(4)).unwrap();
    assert_eq!(pooled.outputs, single.outputs);
    assert!((pooled.throughput_aps - single.throughput_aps).abs() < 1e-9);
    let nb1 = run_batched::<GlobalLinear>(
        &device(KernelConfig { nb: 1, ..config }),
        &params,
        &wl,
        BatchConfig::single_slot(),
    )
    .unwrap();
    let nb_ratio = single.throughput_aps / nb1.throughput_aps;
    assert!(
        (3.5..=4.0 + 1e-6).contains(&nb_ratio),
        "modeled NB 4 vs 1 ratio {nb_ratio}"
    );
    let (streamed, _) = collect_streamed::<GlobalLinear, _, Infallible>(
        &dev,
        &params,
        wl.iter().cloned().map(Ok),
        StreamConfig {
            nb_slots: 4,
            ..StreamConfig::default()
        },
        FleetConfig::single(),
    )
    .unwrap();
    assert_eq!(streamed.outputs, single.outputs);
    assert!((streamed.throughput_aps - single.throughput_aps).abs() < 1e-9);
}

/// The grouped adaptive engine under the slot pool: every slot of a channel
/// takes its groups off the same deque, and whichever slot a pair lands in —
/// and whichever pairs it shares a pass with — its output, the escalation
/// count, the per-slot accounting and the modeled throughput are those of
/// the per-pair loop.
#[test]
fn grouped_adaptive_slot_counts_equal_the_per_pair_loop() {
    let wl = short_banded_workload(if cfg!(debug_assertions) { 260 } else { 2_600 }, 64, 0x51A7);
    let params = LinearParams::<i16>::unit();
    let disabled = ResilienceConfig::disabled();
    let config = KernelConfig::new(16, 4, 2)
        .with_max_lengths(64, 64)
        .with_banding(12);
    let dev = device(config);
    for lanes in [I8Lanes::X16, I8Lanes::X32] {
        let precision = LanePrecision::Adaptive(lanes);
        let (want, escalations) =
            adaptive_pair_by_pair::<GlobalLinear>(&params, lanes, &wl, &config);
        let mut modeled = None;
        for slots in SLOT_COUNTS {
            let ctx = format!("{lanes:?} slots {slots}");
            let batch = BatchConfig::slots(slots);
            let rep = run_batched_adaptive::<GlobalLinear>(
                &dev, &params, precision, &wl, batch, &disabled, None,
            )
            .unwrap();
            let outputs: Vec<_> = rep.outputs.iter().flatten().cloned().collect();
            assert_eq!(outputs, want, "batched ({ctx})");
            assert!(rep.groups > 0, "nothing was grouped ({ctx})");
            assert_eq!(rep.escalations, escalations, "{ctx}");
            assert_eq!(
                *modeled.get_or_insert(rep.throughput_aps),
                rep.throughput_aps,
                "{ctx}"
            );
            for (ch, row) in rep.per_slot.iter().enumerate() {
                assert_eq!(row.len(), slots);
                assert_eq!(row.iter().sum::<usize>(), rep.per_channel[ch], "{ctx}");
            }
            assert_eq!(rep.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");

            let stream_cfg = StreamConfig {
                nb_slots: slots,
                ..StreamConfig::default()
            };
            let mut streamed = Vec::new();
            let stream = run_streamed_adaptive::<GlobalLinear, _, Infallible, _>(
                &dev,
                &params,
                precision,
                wl.iter().cloned().map(Ok),
                stream_cfg,
                &disabled,
                None,
                |_, slot| streamed.push(slot.expect("no quarantine")),
            )
            .unwrap();
            assert_eq!(streamed, want, "streamed ({ctx})");
            assert_eq!(stream.escalations, escalations, "{ctx}");
            assert_eq!(stream.throughput_aps, rep.throughput_aps, "{ctx}");
            assert_eq!(stream.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");
        }
    }
}

/// The exact engine's groups under the slot pool: at every slot count,
/// batched and streamed, instrumented or not, each run equals the per-pair
/// loop at the same slot count (outputs, order, per-channel sums, modeled
/// throughput).
#[test]
fn grouped_exact_slot_counts_equal_the_per_pair_loop() {
    let wl = short_banded_workload(if cfg!(debug_assertions) { 260 } else { 2_600 }, 64, 0x51A8);
    let params = LinearParams::<i16>::unit();
    let config = KernelConfig::new(16, 4, 2)
        .with_max_lengths(64, 64)
        .with_banding(12);
    let dev = device(config);
    for slots in SLOT_COUNTS {
        let stream = StreamConfig {
            nb_slots: slots,
            ..StreamConfig::default()
        };
        let ctx = format!("slots {slots}");
        assert_exact_groups_equal_per_pair(
            &dev,
            &params,
            &wl,
            BatchConfig::slots(slots),
            stream,
            &ctx,
        );
    }
}
