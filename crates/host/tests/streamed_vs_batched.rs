//! Differential suite: [`run_streamed`] against [`run_batched`] — the
//! streaming pipeline must be an observationally identical drop-in for the
//! materialized batch engine (same outputs, same input order, same modeled
//! throughput) across random workloads, channel counts 1–4, and buffer
//! depths down to the fully lock-stepped depth-1 case, while its high-water
//! marks prove the bounded-memory contract.

mod common;

use common::{
    adaptive_pair_by_pair, assert_exact_groups_equal_per_pair, collect_streamed,
    short_banded_workload,
};
use dphls_core::{I8Lanes, KernelConfig, LanePrecision};
use dphls_host::{
    run_batched, run_batched_adaptive, run_streamed, run_streamed_adaptive, BatchConfig,
    ExactEngine, FailurePolicy, FleetConfig, ResilienceConfig, StreamConfig, StreamSession,
};
use dphls_kernels::{GlobalLinear, LinearParams};
use dphls_seq::gen::ReadSimulator;
use dphls_seq::Base;
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};
use std::convert::Infallible;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

/// Varied-length pairs (short reads mixed with near-max ones) so the
/// cost-ranked dealing and stealing paths all fire.
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

/// The differential contract, checked at one (nk, buffer, window) point.
fn assert_streamed_matches_batched(
    wl: &[(Vec<Base>, Vec<Base>)],
    config: KernelConfig,
    stream_cfg: StreamConfig,
) {
    assert_source_streams_like_batched(wl, wl.iter().cloned().map(Ok), config, stream_cfg);
}

/// [`assert_streamed_matches_batched`] with `source` yielding `wl`.
fn assert_source_streams_like_batched(
    wl: &[(Vec<Base>, Vec<Base>)],
    source: impl Iterator<Item = Result<(Vec<Base>, Vec<Base>), Infallible>>,
    config: KernelConfig,
    stream_cfg: StreamConfig,
) {
    let params = LinearParams::<i16>::dna();
    let dev = device(config);
    let batched = run_batched::<GlobalLinear>(&dev, &params, wl, BatchConfig::default()).unwrap();
    // Counts the records the source yields against the outputs the sink
    // has emitted, at every yield: the stream may hold at most the window
    // plus the one pair in the dealer's hand.
    let emitted = AtomicUsize::new(0);
    let (mut yielded, mut most_held) = (0usize, 0usize);
    let counted = source.inspect(|_| {
        yielded += 1;
        most_held = most_held.max(yielded - emitted.load(Ordering::SeqCst));
    });
    let mut outputs = Vec::new();
    let stream = run_streamed::<GlobalLinear, _, _, _>(&dev, &params, counted, stream_cfg, {
        |_, out| {
            outputs.push(out);
            emitted.fetch_add(1, Ordering::SeqCst);
        }
    })
    .unwrap();

    // Identical outputs in identical (input) order, bit for bit.
    assert_eq!(outputs, batched.outputs, "outputs differ at {stream_cfg:?}");
    // Identical per-channel accounting shape and totals: stealing makes the
    // exact split nondeterministic in both engines, but each must account
    // for every alignment exactly once across the same channel count.
    assert_eq!(stream.per_channel.len(), batched.per_channel.len());
    assert_eq!(
        stream.per_channel.iter().sum::<usize>(),
        wl.len(),
        "streamed per-channel totals at {stream_cfg:?}"
    );
    assert_eq!(batched.per_channel.iter().sum::<usize>(), wl.len());
    assert_eq!(stream.pairs, wl.len());
    // Identical single-pass modeled throughput: bit-identical runs produce
    // identical BlockStats, so the derived figure must agree exactly.
    assert!(
        (stream.throughput_aps - batched.throughput_aps).abs() < 1e-6,
        "throughput {} vs {} at {stream_cfg:?}",
        stream.throughput_aps,
        batched.throughput_aps
    );
    // Bounded-memory evidence.
    assert!(
        most_held <= stream_cfg.window + 1,
        "{most_held} pairs held between source and sink > window {} + 1",
        stream_cfg.window
    );
    assert!(
        stream.resident_high_water <= stream_cfg.window,
        "resident {} > window {}",
        stream.resident_high_water,
        stream_cfg.window
    );
    assert!(
        stream.reorder_high_water < stream_cfg.window,
        "reorder {} >= window {}",
        stream.reorder_high_water,
        stream_cfg.window
    );
}

#[test]
fn random_workloads_nk_1_to_4_buffer_depths() {
    for nk in 1..=4usize {
        let wl = varied_workload(37 + nk * 5, 72, 0xBEEF + nk as u64);
        let config = KernelConfig::new(8, 1, nk).with_max_lengths(96, 96);
        // Buffer depths from the issue (1 = lockstep producer, 2 = minimal
        // double-buffering, 64 = deep) crossed with tight and roomy windows.
        for buffer in [1usize, 2, 64] {
            for window in [1usize, 3, 128] {
                assert_streamed_matches_batched(
                    &wl,
                    config,
                    StreamConfig {
                        buffer,
                        window,
                        nb_slots: 0,
                    },
                );
            }
        }
    }
}

/// The source runs on the calling thread, so it need not be `Send`: an
/// `Rc`-backed iterator streams exactly like any other.
#[test]
fn a_non_send_source_streams_like_batched() {
    let wl = varied_workload(29, 72, 0x5EED);
    let shared = Rc::new(wl.clone());
    let source = (0..wl.len()).map(move |i| Ok(shared[i].clone()));
    let config = KernelConfig::new(8, 1, 3).with_max_lengths(96, 96);
    let stream_cfg = StreamConfig {
        buffer: 2,
        window: 3,
        nb_slots: 0,
    };
    assert_source_streams_like_batched(&wl, source, config, stream_cfg);
}

/// A session whose sink is gated shut lets at most `buffer + window + 1`
/// submissions return: the submission channel, the admission window and
/// the pair in the dealer's hand. The count is an upper bound, so however
/// long the submitter runs before the gate opens, it cannot exceed it.
#[test]
fn a_stalled_session_admits_at_most_buffer_plus_window_plus_one() {
    let (buffer, window) = (4usize, 2usize);
    let wl = varied_workload(2 * buffer + window + 6, 64, 0x6A7E);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let sink_gate = Arc::clone(&gate);
    let emitted = Arc::new(AtomicUsize::new(0));
    let sink_emitted = Arc::clone(&emitted);
    let session = Arc::new(StreamSession::<GlobalLinear>::spawn_engine(
        device(KernelConfig::new(8, 1, 2).with_max_lengths(96, 96)),
        ExactEngine::new(LinearParams::<i16>::dna()),
        StreamConfig {
            buffer,
            window,
            nb_slots: 0,
        },
        FleetConfig::single(),
        ResilienceConfig::disabled(),
        move |_, _| {
            let (open, cv) = &*sink_gate;
            let _open = cv.wait_while(open.lock().unwrap(), |open| !*open);
            sink_emitted.fetch_add(1, Ordering::SeqCst);
        },
    ));
    let returned = Arc::new(AtomicUsize::new(0));
    let submitter = {
        let (session, returned, wl) = (Arc::clone(&session), Arc::clone(&returned), wl.clone());
        std::thread::spawn(move || {
            for (q, r) in wl {
                session.submit(q, r).unwrap();
                returned.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Let the submitter run until it blocks: no return for 200 ms.
    let mut seen = usize::MAX;
    while returned.load(Ordering::SeqCst) != seen {
        seen = returned.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        seen <= buffer + window + 1,
        "{seen} submissions returned behind a shut sink, budget {}",
        buffer + window + 1
    );
    assert_eq!(emitted.load(Ordering::SeqCst), 0);
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    submitter.join().unwrap();
    let report = session.shutdown().unwrap().unwrap();
    assert_eq!(report.pairs, wl.len());
    assert_eq!(emitted.load(Ordering::SeqCst), wl.len());
}

#[test]
fn lockstep_buffer_depth_one_window_one_is_fully_serial() {
    let wl = varied_workload(21, 64, 7);
    let config = KernelConfig::new(8, 1, 3).with_max_lengths(96, 96);
    let params = LinearParams::<i16>::dna();
    let dev = device(config);
    let (streamed, stream) = collect_streamed::<GlobalLinear, _, Infallible>(
        &dev,
        &params,
        wl.iter().cloned().map(Ok),
        StreamConfig {
            buffer: 1,
            window: 1,
            nb_slots: 0,
        },
        FleetConfig::single(),
    )
    .unwrap();
    let batched = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
    assert_eq!(streamed.outputs, batched.outputs);
    // Window 1 admits one pair at a time: nothing is ever held out of
    // order and at most one pair is in flight.
    assert_eq!(stream.reorder_high_water, 0);
    assert_eq!(stream.resident_high_water, 1);
}

/// `usize::MAX` is a window like any other: the writer's and the dealer's
/// window arithmetic must not wrap, so every pair is admitted at once and
/// the run equals the batch.
#[test]
fn an_unbounded_window_streams_like_batched() {
    let wl = varied_workload(41, 72, 0x3A1D);
    let params = LinearParams::<i16>::dna();
    for nk in [1usize, 3] {
        let dev = device(KernelConfig::new(8, 1, nk).with_max_lengths(96, 96));
        let (streamed, stream) = collect_streamed::<GlobalLinear, _, Infallible>(
            &dev,
            &params,
            wl.iter().cloned().map(Ok),
            StreamConfig {
                buffer: 4,
                window: usize::MAX,
                nb_slots: 0,
            },
            FleetConfig::single(),
        )
        .unwrap();
        let batched =
            run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
        assert_eq!(streamed.outputs, batched.outputs, "nk {nk}");
        assert_eq!(stream.pairs, wl.len());
        assert!(stream.resident_high_water <= wl.len());
    }
}

/// The ISSUE acceptance workload: the banded point the bench gate runs.
/// Debug builds scale the pair count down (the differential property is
/// scale-invariant); `cargo test --release` runs the full 10k pairs.
#[test]
fn banded_10k_workload_bit_identical_and_bounded() {
    let pairs = if cfg!(debug_assertions) { 400 } else { 10_000 };
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
    let config = KernelConfig::new(32, 1, 4)
        .with_max_lengths(len, len)
        .with_banding(16);
    let stream_cfg = StreamConfig::default();

    let params = LinearParams::<i16>::dna();
    let dev = device(config);
    let batched = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
    let (streamed, stream) = collect_streamed::<GlobalLinear, _, Infallible>(
        &dev,
        &params,
        wl.iter().cloned().map(Ok),
        stream_cfg,
        FleetConfig::single(),
    )
    .unwrap();

    // Bit-identical scores, tracebacks, and ordering.
    assert_eq!(streamed.outputs, batched.outputs);
    assert!((streamed.throughput_aps - batched.throughput_aps).abs() < 1e-6);
    // Peak resident pair count bounded by buffer + window: the channel
    // holds at most `buffer` pairs by construction and the high-water mark
    // proves the scheduler+writer side never exceeded `window`.
    assert!(
        stream.resident_high_water <= stream_cfg.window,
        "resident high water {} exceeds window {}",
        stream.resident_high_water,
        stream_cfg.window
    );
    assert!(stream.reorder_high_water < stream_cfg.window);
}

#[test]
fn streaming_from_fasta_source_matches_batched() {
    // End-to-end front half: pairs streamed out of FASTA text through
    // FastaStream must produce the same alignments as the materialized
    // parse + batch path.
    let wl = varied_workload(16, 48, 99);
    let mut text = String::new();
    for (i, (q, r)) in wl.iter().enumerate() {
        let qs: String = q.iter().map(|b| b.to_char()).collect();
        let rs: String = r.iter().map(|b| b.to_char()).collect();
        text.push_str(&format!(">q{i}\n{qs}\n>r{i}\n{rs}\n"));
    }
    let config = KernelConfig::new(8, 1, 2).with_max_lengths(64, 64);
    let params = LinearParams::<i16>::dna();
    let dev = device(config);

    let mut records = dphls_seq::fasta::FastaStream::new(text.as_bytes());
    let source = std::iter::from_fn(move || {
        let q = records.next()?;
        let r = records.next().expect("records come in pairs");
        Some(q.and_then(|q| {
            let r = r?;
            Ok((q.dna()?.into_vec(), r.dna()?.into_vec()))
        }))
    });
    let (streamed, _) = collect_streamed::<GlobalLinear, _, _>(
        &dev,
        &params,
        source,
        StreamConfig {
            buffer: 2,
            window: 8,
            nb_slots: 0,
        },
        FleetConfig::single(),
    )
    .unwrap();
    let batched = run_batched::<GlobalLinear>(&dev, &params, &wl, BatchConfig::default()).unwrap();
    assert_eq!(streamed.outputs, batched.outputs);
}

/// The grouped adaptive engine under both front ends, at both lane widths:
/// pairs that shared an `i8` pass must come out exactly as the per-pair
/// loop produces them — outputs, order, escalation count, per-channel sums
/// and the modeled throughput (which is a function of every pair's
/// `BlockStats`) — and exactly as an instrumented run, which never groups.
#[test]
fn grouped_adaptive_runs_equal_the_per_pair_loop() {
    let pairs = if cfg!(debug_assertions) { 300 } else { 3_000 };
    let wl = short_banded_workload(pairs, 64, 0x6E0);
    let params = LinearParams::<i16>::unit();
    let disabled = ResilienceConfig::disabled();
    // Retries allowed and nothing failing: an instrumented, fault-free run.
    let instrumented = ResilienceConfig {
        max_retries: 1,
        failure_policy: FailurePolicy::Quarantine,
        ..ResilienceConfig::disabled()
    };
    for nk in [1usize, 3] {
        let config = KernelConfig::new(16, 1, nk)
            .with_max_lengths(64, 64)
            .with_banding(12);
        let dev = device(config);
        for lanes in [I8Lanes::X16, I8Lanes::X32] {
            let ctx = format!("nk {nk} {lanes:?}");
            let precision = LanePrecision::Adaptive(lanes);
            let (want, escalations) =
                adaptive_pair_by_pair::<GlobalLinear>(&params, lanes, &wl, &config);
            assert!(escalations > 0, "the workload plants escalators");
            let batch = |res| {
                let batch = BatchConfig::default();
                run_batched_adaptive::<GlobalLinear>(
                    &dev, &params, precision, &wl, batch, res, None,
                )
                .unwrap()
            };
            let (grouped, guarded) = (batch(&disabled), batch(&instrumented));
            for report in [&grouped, &guarded] {
                assert!(report.groups > 0, "nothing was grouped ({ctx})");
                let outputs: Vec<_> = report.outputs.iter().flatten().cloned().collect();
                assert_eq!(outputs, want, "batched outputs ({ctx})");
                assert_eq!(report.escalations, escalations, "{ctx}");
                assert_eq!(report.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");
            }
            assert_eq!(grouped.throughput_aps, guarded.throughput_aps, "{ctx}");

            for (buffer, window) in [(1usize, 1usize), (2, 9), (64, 256)] {
                let stream_cfg = StreamConfig {
                    buffer,
                    window,
                    nb_slots: 0,
                };
                let mut streamed = Vec::new();
                let report = run_streamed_adaptive::<GlobalLinear, _, Infallible, _>(
                    &dev,
                    &params,
                    precision,
                    wl.iter().cloned().map(Ok),
                    stream_cfg,
                    &disabled,
                    None,
                    |idx, slot| streamed.push((idx, slot.expect("no quarantine"))),
                )
                .unwrap();
                let ctx = format!("{ctx} {stream_cfg:?}");
                // Strict input order at the sink, identical values.
                let indices: Vec<usize> = streamed.iter().map(|(idx, _)| *idx).collect();
                assert_eq!(indices, (0..wl.len()).collect::<Vec<_>>(), "{ctx}");
                let outputs: Vec<_> = streamed.into_iter().map(|(_, out)| out).collect();
                assert_eq!(outputs, want, "streamed outputs ({ctx})");
                assert_eq!(report.escalations, escalations, "{ctx}");
                assert_eq!(report.per_channel.iter().sum::<usize>(), wl.len(), "{ctx}");
                assert_eq!(report.throughput_aps, grouped.throughput_aps, "{ctx}");
                // One pair in flight at a time never makes a group.
                if window == 1 {
                    assert_eq!(report.groups, 0, "{ctx}");
                }
            }
        }
    }
}

/// The exact engine groups too, batched and streamed, instrumented or not:
/// at NK 1 and 3 and under the lockstep, shallow and deep stream shapes,
/// every run equals the per-pair loop (outputs, order, per-channel sums,
/// modeled throughput).
#[test]
fn grouped_exact_runs_equal_the_per_pair_loop() {
    let pairs = if cfg!(debug_assertions) { 300 } else { 3_000 };
    let wl = short_banded_workload(pairs, 64, 0xE6AC);
    let params = LinearParams::<i16>::unit();
    for nk in [1usize, 3] {
        let config = KernelConfig::new(16, 1, nk)
            .with_max_lengths(64, 64)
            .with_banding(12);
        let dev = device(config);
        for (buffer, window) in [(1usize, 1usize), (2, 9), (64, 256)] {
            let stream = StreamConfig {
                buffer,
                window,
                nb_slots: 0,
            };
            let ctx = format!("nk {nk} {stream:?}");
            let batch = BatchConfig::default();
            assert_exact_groups_equal_per_pair(&dev, &params, &wl, batch, stream, &ctx);
        }
    }
}
