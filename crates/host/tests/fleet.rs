//! Differential suite for fleet sharding: dispatching the work queue
//! across `D` modeled devices (`BatchConfig::with_fleet` /
//! `run_streamed_engine`'s `fleet` argument) must be observationally identical to the
//! single-device path — same scores, same traceback paths, same input
//! order, same error behavior, balanced per-device accounting — for
//! `D ∈ {1, 2, 4}`, across both the batched and the streamed engines.
//! Only the modeled throughput may change, and it must change the right
//! way: more devices never model slower, a free link at `D = 1`
//! degenerates exactly to the single-device cycle model, and transfer
//! cost grows monotonically with payload size.

mod common;

use common::{
    adaptive_pair_by_pair, assert_exact_groups_equal_per_pair, collect_streamed,
    short_banded_workload,
};
use dphls_core::{run_reference, Banding, I8Lanes, KernelConfig, LanePrecision};
use dphls_host::{
    run_batched, run_batched_engine, run_streamed_engine, BatchConfig, FleetConfig,
    PrecisionEngine, ResilienceConfig, StreamConfig,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{
    arbitrated_cycles, fleet_cycles, CycleBreakdown, CycleModelParams, Device, KernelCycleInfo,
    TransferModel,
};
use proptest::prelude::*;
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

/// Varied-length pairs so cost ranking, dealing, and cross-device
/// stealing all fire (same shape as the nb_slots suite).
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

const FLEET_SIZES: [usize; 3] = [1, 2, 4];

#[test]
fn batched_fleet_sizes_are_bit_identical_to_single_device() {
    let params = LinearParams::<i16>::dna();
    for nk in [1usize, 3] {
        let wl = varied_workload(43 + nk * 7, 72, 0xF1EE7 + nk as u64);
        let config = KernelConfig::new(8, 4, nk).with_max_lengths(96, 96);
        let dev = device(config);
        let single =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        assert_eq!(single.devices, 1);
        assert_eq!(single.per_device, vec![wl.len()]);
        for d in FLEET_SIZES {
            for transfer in [TransferModel::zero(), TransferModel::pcie()] {
                let cfg = BatchConfig::single_slot()
                    .with_fleet(FleetConfig::new(d).with_transfer(transfer));
                let rep = run_batched::<GlobalLinear>(&dev, &params, &wl, cfg).unwrap();
                // Scores, tracebacks, and input order, bit for bit.
                assert_eq!(rep.outputs, single.outputs, "nk {nk} d {d} {transfer:?}");
                // Accounting: every pair lands on exactly one device and
                // one channel, regardless of the fleet size.
                assert_eq!(rep.devices, d);
                assert_eq!(rep.per_device.len(), d);
                assert_eq!(rep.per_device.iter().sum::<usize>(), wl.len());
                assert_eq!(rep.per_channel.len(), nk);
                assert_eq!(rep.per_channel.iter().sum::<usize>(), wl.len());
            }
        }
        // The modeled throughput with a free link scales with the fleet:
        // strictly more devices never model slower.
        let mut last = 0.0f64;
        for d in FLEET_SIZES {
            let cfg = BatchConfig::single_slot()
                .with_fleet(FleetConfig::new(d).with_transfer(TransferModel::zero()));
            let rep = run_batched::<GlobalLinear>(&dev, &params, &wl, cfg).unwrap();
            assert!(
                rep.throughput_aps >= last,
                "fleet model regressed at nk {nk} d {d}: {} < {last}",
                rep.throughput_aps
            );
            last = rep.throughput_aps;
        }
    }
}

#[test]
fn streamed_fleet_sizes_are_bit_identical_to_single_device() {
    let params = LinearParams::<i16>::dna();
    for nk in [1usize, 3] {
        let wl = varied_workload(39 + nk * 5, 72, 0xF2EE7 + nk as u64);
        let config = KernelConfig::new(8, 4, nk).with_max_lengths(96, 96);
        let dev = device(config);
        let single =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::single_slot()).unwrap();
        for d in FLEET_SIZES {
            for (buffer, window) in [(1usize, 2usize), (4, 16), (64, 128)] {
                let cfg = StreamConfig {
                    buffer,
                    window,
                    nb_slots: 1,
                };
                let (rep, stream) = collect_streamed::<GlobalLinear, _, Infallible>(
                    &dev,
                    &params,
                    wl.iter().cloned().map(Ok),
                    cfg,
                    FleetConfig::new(d).with_transfer(TransferModel::pcie()),
                )
                .unwrap();
                assert_eq!(rep.outputs, single.outputs, "nk {nk} d {d} {cfg:?}");
                assert_eq!(stream.devices, d);
                assert_eq!(stream.per_device.len(), d);
                assert_eq!(stream.per_device.iter().sum::<usize>(), wl.len());
                assert_eq!(stream.per_channel.iter().sum::<usize>(), wl.len());
                assert_eq!(stream.device_losses, 0);
                // Fleet sharding must not loosen the bounded-memory
                // contract: admission still gates everything in flight.
                assert!(stream.resident_high_water <= window);
                assert!(stream.reorder_high_water < window);
            }
        }
    }
}

#[test]
fn fleet_outputs_match_the_reference_engine() {
    // Not just internally consistent: the sharded engine still agrees
    // with the golden full-matrix model pair by pair.
    let wl = varied_workload(23, 64, 0xFEEB);
    let params = LinearParams::<i16>::dna();
    let config = KernelConfig::new(8, 4, 2).with_max_lengths(96, 96);
    let cfg = BatchConfig::single_slot().with_fleet(FleetConfig::new(4));
    let rep = run_batched::<GlobalLinear>(&device(config), &params, &wl, cfg).unwrap();
    for (i, (q, r)) in wl.iter().enumerate() {
        let want = run_reference::<GlobalLinear>(&params, q, r, Banding::None);
        assert_eq!(rep.outputs[i], want, "pair {i}");
    }
}

#[test]
fn oversized_sequence_error_propagates_from_any_fleet_size() {
    // Error behavior is part of the observational contract: a pair the
    // single-device engine rejects is rejected at every fleet size.
    let params = LinearParams::<i16>::dna();
    let dev = device(KernelConfig::new(8, 4, 2).with_max_lengths(96, 96));
    let mut wl = varied_workload(12, 64, 0xE45);
    wl.push((vec![Base::A; 200], vec![Base::C; 50]));
    for d in FLEET_SIZES {
        let cfg = BatchConfig::single_slot().with_fleet(FleetConfig::new(d));
        let err = run_batched::<GlobalLinear>(&dev, &params, &wl, cfg);
        assert!(err.is_err(), "oversized pair must fail at d {d}");
        let err = collect_streamed::<GlobalLinear, _, Infallible>(
            &dev,
            &params,
            wl.iter().cloned().map(Ok),
            StreamConfig::default(),
            FleetConfig::new(d),
        );
        assert!(err.is_err(), "oversized pair must fail streamed at d {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// More devices never model slower: `fleet_cycles` is monotonically
    /// non-increasing in `D` for any breakdown, occupancy, link, and
    /// payload.
    #[test]
    fn fleet_cycles_monotone_in_devices(
        load in 0u64..10_000,
        fill in 0u64..100_000,
        writeback in 0u64..10_000,
        occupied in 0usize..8,
        latency in 0u64..1_000,
        bpc in 0u64..256,
        payload in 0u64..100_000,
    ) {
        let b = CycleBreakdown {
            load,
            init: 0,
            fill,
            reduce: 0,
            traceback: 0,
            writeback,
            overhead: 0,
            total: load + fill + writeback,
        };
        let t = TransferModel { latency_cycles: latency, bytes_per_cycle: bpc };
        let mut last = u64::MAX;
        for d in 1..=8usize {
            let c = fleet_cycles(&b, occupied, d, &t, payload);
            prop_assert!(c <= last, "d {d}: {c} > {last}");
            last = c;
        }
    }

    /// At `D = 1` with a free link the fleet model degenerates exactly to
    /// the single-device arbitrated cycle count — no hidden constant.
    #[test]
    fn fleet_degenerates_to_arbitrated_at_one_device_zero_transfer(
        load in 0u64..10_000,
        fill in 0u64..100_000,
        writeback in 0u64..10_000,
        occupied in 0usize..8,
        payload in 0u64..100_000,
    ) {
        let b = CycleBreakdown {
            load,
            init: 0,
            fill,
            reduce: 0,
            traceback: 0,
            writeback,
            overhead: 0,
            total: load + fill + writeback,
        };
        let zero = TransferModel::zero();
        prop_assert_eq!(
            fleet_cycles(&b, occupied, 1, &zero, payload),
            arbitrated_cycles(&b, occupied)
        );
        // A zero-device fleet resolves to one device, never divides by 0.
        prop_assert_eq!(
            fleet_cycles(&b, occupied, 0, &zero, payload),
            arbitrated_cycles(&b, occupied)
        );
    }

    /// Transfer cost grows monotonically with payload size on any link.
    #[test]
    fn transfer_cost_monotone_in_payload(
        latency in 0u64..1_000,
        bpc in 0u64..256,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let t = TransferModel { latency_cycles: latency, bytes_per_cycle: bpc };
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(t.transfer_cycles(small) <= t.transfer_cycles(large));
    }
}

/// Release-scale banded acceptance shape (debug builds shrink the pair
/// count; the differential property is scale-invariant). This is the
/// fleet analogue of the nb_slots release-scale case, run by the CI
/// release-scale step.
#[test]
fn banded_release_scale_fleet_differential() {
    let pairs = if cfg!(debug_assertions) { 200 } else { 4_000 };
    let len = 256;
    let mut sim = ReadSimulator::new(0xDA);
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
    let fleet_cfg = BatchConfig::single_slot().with_fleet(FleetConfig::new(4));
    let fleet = run_batched::<GlobalLinear>(&dev, &params, &wl, fleet_cfg).unwrap();
    assert_eq!(fleet.outputs, single.outputs);
    assert_eq!(fleet.per_device.iter().sum::<usize>(), wl.len());
    // The acceptance gate the bench suite enforces machine-independently:
    // a 4-device fleet over a PCIe-class link models at least 3.5x the
    // single-device throughput on this workload.
    assert!(
        fleet.throughput_aps >= single.throughput_aps * 3.5,
        "modeled fleet ratio too low: {} vs {}",
        fleet.throughput_aps,
        single.throughput_aps
    );
    let (streamed, srep) = collect_streamed::<GlobalLinear, _, Infallible>(
        &dev,
        &params,
        wl.iter().cloned().map(Ok),
        StreamConfig::default(),
        FleetConfig::new(4),
    )
    .unwrap();
    assert_eq!(streamed.outputs, single.outputs);
    assert_eq!(srep.per_device.iter().sum::<usize>(), wl.len());
    assert!((streamed.throughput_aps - fleet.throughput_aps).abs() < 1e-9);
}

/// The grouped adaptive engine across a fleet: a group is formed from one
/// device's own deque, so sharding changes which pairs share a pass — and
/// nothing else. Outputs, order, escalations and per-device sums are those
/// of the per-pair loop at every `D`, batched and streamed.
#[test]
fn grouped_adaptive_fleet_sizes_equal_the_per_pair_loop() {
    let wl = short_banded_workload(if cfg!(debug_assertions) { 280 } else { 2_800 }, 64, 0xF1E7);
    let params = LinearParams::<i16>::unit();
    let disabled = ResilienceConfig::disabled();
    let config = KernelConfig::new(16, 1, 2)
        .with_max_lengths(64, 64)
        .with_banding(12);
    let dev = device(config);
    for lanes in [I8Lanes::X16, I8Lanes::X32] {
        let engine = PrecisionEngine::<GlobalLinear>::new(params, LanePrecision::Adaptive(lanes));
        let (want, escalations) =
            adaptive_pair_by_pair::<GlobalLinear>(&params, lanes, &wl, &config);
        for d in FLEET_SIZES {
            let ctx = format!("{lanes:?} d {d}");
            let fleet = FleetConfig::new(d);
            let batch = BatchConfig::single_slot().with_fleet(fleet);
            let rep =
                run_batched_engine::<GlobalLinear, _>(&dev, &engine, &wl, batch, &disabled, None)
                    .unwrap();
            let outputs: Vec<_> = rep.outputs.iter().flatten().cloned().collect();
            assert_eq!(outputs, want, "batched ({ctx})");
            assert!(rep.groups > 0, "nothing was grouped ({ctx})");
            assert_eq!(rep.escalations, escalations, "{ctx}");
            assert_eq!(rep.per_device.iter().sum::<usize>(), wl.len(), "{ctx}");
            assert_eq!(rep.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");

            let mut streamed = Vec::new();
            let stream = run_streamed_engine::<GlobalLinear, _, _, Infallible, _>(
                &dev,
                &engine,
                wl.iter().cloned().map(Ok),
                StreamConfig::default(),
                fleet,
                &disabled,
                None,
                |_, slot| streamed.push(slot.expect("no quarantine")),
            )
            .unwrap();
            assert_eq!(streamed, want, "streamed ({ctx})");
            assert_eq!(stream.escalations, escalations, "{ctx}");
            assert_eq!(stream.per_device.iter().sum::<usize>(), wl.len(), "{ctx}");
            assert_eq!(stream.throughput_aps, rep.throughput_aps, "{ctx}");
        }
    }
}

/// The exact engine's groups across a fleet: at every `D`, batched and
/// streamed, instrumented or not, each run equals the per-pair loop on the
/// same fleet (outputs, order, per-channel and per-device sums, modeled
/// throughput).
#[test]
fn grouped_exact_fleet_sizes_equal_the_per_pair_loop() {
    let wl = short_banded_workload(if cfg!(debug_assertions) { 280 } else { 2_800 }, 64, 0xF1E8);
    let params = LinearParams::<i16>::unit();
    let config = KernelConfig::new(16, 1, 2)
        .with_max_lengths(64, 64)
        .with_banding(12);
    let dev = device(config);
    for d in FLEET_SIZES {
        let batch = BatchConfig::single_slot().with_fleet(FleetConfig::new(d));
        let ctx = format!("d {d}");
        assert_exact_groups_equal_per_pair(
            &dev,
            &params,
            &wl,
            batch,
            StreamConfig::default(),
            &ctx,
        );
    }
}
