//! The engine ladder of the traced run: the same pairs through one rung per
//! layer — FASTA parse, bare lane body, single-thread wavefront loop, batch
//! scheduler, streaming pipeline, session — each timed from outside, plus
//! the roofline probes and the process counters.

use crate::check::{PairOut, Verdict, Verifier};
use crate::inputs::{fasta_pairs, pairs_to_fasta, Pair};
use crate::metrics::{ratio, Metrics};
use crate::stream::{device_for, pair_out, DnaKernel, EngineInputs, CHUNK};
use crate::trace::{Tracer, NO_PARENT};
use dphls_core::{I8Lanes, LaneKernel, LanePrecision, LayerVec, Score, TbPtr};
use dphls_host::{
    run_batched_adaptive, run_streamed_adaptive, BatchConfig, OrderedWriter, ResilienceConfig,
    StreamConfig, StreamSession,
};
use dphls_systolic::{
    run_adaptive_with_scratch, run_systolic_scalar_with_scratch, run_systolic_with_scratch,
    AdaptiveScratch, BlockStats, SystolicScratch,
};
use dphls_util::median;
use std::convert::Infallible;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Times each rung is repeated; its median is reported.
const REPS: usize = 3;

/// Lane-body calls of one bare `pe_lanes` measurement.
const LANE_CALLS: usize = 2_000_000;

fn median_secs(mut rung: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| rung()).collect();
    median(&samples)
}

/// One single-thread rung: `run_pair` over every pair, a span around the
/// pass and one around each 1024-pair chunk. Returns the seconds it took.
fn pair_rung(
    tracer: &mut Tracer,
    name: &'static str,
    pairs: &[Pair],
    mut run_pair: impl FnMut(&Pair),
) -> f64 {
    let pass = tracer.begin(name, NO_PARENT);
    let began = Instant::now();
    for chunk in pairs.chunks(CHUNK) {
        let span = tracer.begin("systolic.chunk", pass);
        chunk.iter().for_each(&mut run_pair);
        tracer.end(span, chunk.len() as u64);
    }
    let secs = began.elapsed().as_secs_f64();
    tracer.end(pass, pairs.len() as u64);
    secs
}

/// The bare lane body over resident buffers: `LANE_CALLS` calls of
/// `pe_lanes` (`pe_lanes_primary` for single-layer kernels) on one
/// `L`-lane chunk that never leaves L1 — no wavefront bookkeeping, no
/// traceback memory. GCUPS.
fn bare_lanes<K: LaneKernel<L>, const L: usize>(params: &K::Params, syms: &[K::Sym]) -> f64 {
    let q: Vec<K::Sym> = syms.iter().cycle().take(L).copied().collect();
    let r_rev: Vec<K::Sym> = syms.iter().rev().cycle().take(L).copied().collect();
    let zero = K::Score::zero();
    let mut ptrs = [TbPtr::END; L];
    let began = Instant::now();
    if K::meta().n_layers == 1 {
        let (diag, up, left, mut out) = ([zero; L], [zero; L], [zero; L], [zero; L]);
        for _ in 0..LANE_CALLS {
            let escalate = K::pe_lanes_primary(
                params,
                &q,
                &r_rev,
                black_box(&diag),
                &up,
                &left,
                &mut out,
                &mut ptrs,
            );
            black_box((escalate, &out, &ptrs));
        }
    } else {
        let fill = LayerVec::splat(K::meta().n_layers, zero);
        let (diag, up, left, mut out) = ([fill; L], [fill; L], [fill; L], [fill; L]);
        for _ in 0..LANE_CALLS {
            K::pe_lanes(
                params,
                &q,
                &r_rev,
                black_box(&diag),
                &up,
                &left,
                &mut out,
                &mut ptrs,
            );
            black_box((&out, &ptrs));
        }
    }
    ratio((LANE_CALLS * L) as f64, began.elapsed().as_nanos() as f64)
}

/// Submits every pair to a live `StreamSession` and closes it; returns the
/// seconds from the first submit to the drained close.
pub fn session_rung<K: DnaKernel + 'static>(
    inputs: &EngineInputs<K>,
    resilience: ResilienceConfig,
    expected: &[PairOut],
    tracer: &mut Tracer,
) -> (f64, Verdict) {
    let (tx, rx) = mpsc::channel::<(usize, Option<PairOut>)>();
    let span = tracer.begin("host.session", NO_PARENT);
    let began = Instant::now();
    let session = StreamSession::<K>::spawn_adaptive(
        device_for(inputs.config),
        inputs.params.clone(),
        inputs.precision,
        StreamConfig::default(),
        resilience,
        move |idx, slot| {
            // The receiver outlives the session; a send cannot fail.
            let _ = tx.send((idx, slot.ok().map(|out| pair_out(&out))));
        },
    );
    for (q, r) in &inputs.pairs {
        session
            .submit(q.clone(), r.clone())
            .expect("session stays open until closed");
    }
    session
        .close()
        .unwrap_or_else(|e| panic!("session run failed: {e}"));
    let secs = began.elapsed().as_secs_f64();
    tracer.end(span, inputs.pairs.len() as u64);
    let mut verifier = Verifier::new(expected);
    for (idx, out) in rx {
        match out {
            Some(out) => verifier.observe(idx, &out),
            None => verifier.reject(idx, || "pair was quarantined".to_owned()),
        }
    }
    (secs, verifier.finish())
}

/// Direct `OrderedWriter::push` rate with every value arriving three places
/// early or late, as the channel workers deliver them. Mop/s.
fn ordered_writer_mops() -> f64 {
    const PUSHES: usize = 1 << 21;
    let mut writer = OrderedWriter::new(256, |idx, value: usize| {
        black_box((idx, value));
    });
    let began = Instant::now();
    for base in (0..PUSHES).step_by(4) {
        for idx in (base..base + 4).rev() {
            writer.push(idx, idx).expect("inside the reorder window");
        }
    }
    assert!(writer.is_drained());
    ratio(PUSHES as f64 / 1e6, began.elapsed().as_secs_f64())
}

/// Runs the engine ladder over `inputs` and sets every `seq.*`, `kernels.*`,
/// `systolic.*` (bar `xdrop_gcups`) and `host.*` metric.
pub fn engine_ladder<K: DnaKernel + 'static>(
    inputs: &EngineInputs<K>,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Verdict {
    let pairs = &inputs.pairs;
    let (params, config) = (&inputs.params, &inputs.config);
    let expected = inputs.expected();
    let cells = inputs.nominal_cells() as f64;
    let gcups = |secs: f64| ratio(cells / 1e9, secs);
    let mut verdict = Verdict::default();

    // seq: the FASTA front end alone.
    let fasta = pairs_to_fasta(pairs);
    let fasta_s = median_secs(|| {
        let span = tracer.begin("seq.fasta", NO_PARENT);
        let began = Instant::now();
        let parsed: Vec<Pair> = fasta_pairs(fasta.as_bytes(), |_| {})
            .collect::<Result<_, _>>()
            .expect("generated FASTA parses");
        let secs = began.elapsed().as_secs_f64();
        tracer.end(span, fasta.len() as u64);
        assert!(parsed == *pairs, "FASTA round trip changed the pairs");
        secs
    });
    m.set("seq.fasta_busy_s", fasta_s);
    m.set(
        "seq.fasta_mb_per_s",
        ratio(fasta.len() as f64 / 1e6, fasta_s),
    );

    // kernels: the lane body alone, exact and narrow.
    let syms = &pairs[0].0;
    m.set(
        "kernels.pe_lanes_gcups",
        bare_lanes::<K, { dphls_core::LANE_WIDTH }>(params, syms),
    );
    let lo_params = K::lo_params(params);
    m.set(
        "kernels.pe_lanes_i8_gcups",
        lo_params.as_ref().map_or(0.0, |lo| {
            bare_lanes::<K::Lo, { dphls_core::I8_LANES_WIDE }>(lo, syms)
        }),
    );

    // systolic: the wavefront loop on one thread — scalar baseline, lanes,
    // and the narrow path with its escalations.
    let mut scratch = SystolicScratch::new();
    let scalar_s = median_secs(|| {
        pair_rung(tracer, "systolic.scalar", pairs, |(q, r)| {
            black_box(
                run_systolic_scalar_with_scratch::<K>(params, q, r, config, &mut scratch)
                    .expect("valid pair"),
            );
        })
    });
    m.set("systolic.scalar_gcups", gcups(scalar_s));

    let mut stats = BlockStats::default();
    let block_s = median_secs(|| {
        stats = BlockStats::default();
        pair_rung(tracer, "systolic.block", pairs, |(q, r)| {
            let run = run_systolic_with_scratch::<K>(params, q, r, config, &mut scratch)
                .expect("valid pair");
            stats.cells += run.stats.cells;
            stats.wavefronts += run.stats.wavefronts;
            stats.tb_steps += run.stats.tb_steps;
            black_box(run);
        })
    });
    m.set("systolic.block_busy_s", block_s);
    m.set("systolic.block_gcups", gcups(block_s));
    m.set("systolic.cells", stats.cells as f64);
    m.set("systolic.wavefronts", stats.wavefronts as f64);
    m.set("systolic.tb_steps", stats.tb_steps as f64);
    m.set("systolic.pe_utilization", stats.pe_utilization(config.npe));
    m.set(
        "systolic.loop_overhead",
        1.0 - ratio(gcups(block_s), m.get("kernels.pe_lanes_gcups")),
    );

    let mut narrow = AdaptiveScratch::new();
    let mut escalations = 0u64;
    let adaptive_s = median_secs(|| {
        escalations = 0;
        pair_rung(tracer, "systolic.adaptive", pairs, |(q, r)| {
            let run = run_adaptive_with_scratch::<K>(
                params,
                lo_params.as_ref(),
                I8Lanes::X32,
                q,
                r,
                config,
                &mut narrow,
            )
            .expect("valid pair");
            escalations += run.stats.escalations;
            black_box(run);
        })
    });
    m.set("systolic.adaptive_gcups", gcups(adaptive_s));
    m.set(
        "systolic.escalation_ratio",
        ratio(escalations as f64, pairs.len() as f64),
    );
    // The single-thread rung the host rungs are held against: the engine the
    // workload's precision selects.
    let engine_s = match inputs.precision {
        LanePrecision::Exact => block_s,
        LanePrecision::Adaptive(_) => adaptive_s,
    };
    m.set("seq.fasta_share", ratio(fasta_s, fasta_s + engine_s));

    // host: batch scheduler on one channel and on NK, then the streaming
    // pipeline, then a session.
    let disabled = ResilienceConfig::disabled();
    let mut batched = |nk: usize, batch: BatchConfig, name: &'static str| {
        let device = device_for(dphls_core::KernelConfig { nk, ..*config });
        let mut report = None;
        let secs = median_secs(|| {
            let span = tracer.begin(name, NO_PARENT);
            let began = Instant::now();
            report = Some(
                run_batched_adaptive::<K>(
                    &device,
                    params,
                    inputs.precision,
                    pairs,
                    batch,
                    &disabled,
                    None,
                )
                .unwrap_or_else(|e| panic!("batched run failed: {e}")),
            );
            let secs = began.elapsed().as_secs_f64();
            tracer.end(span, pairs.len() as u64);
            secs
        });
        (secs, report.expect("REPS >= 1"))
    };
    let (nk1_s, _) = batched(1, BatchConfig::single_slot(), "host.batched_nk1");
    let (batched_s, report) = batched(config.nk, BatchConfig::default(), "host.batched");
    let mut verifier = Verifier::new(&expected);
    for (idx, out) in report.outputs.iter().enumerate() {
        match out {
            Some(out) => verifier.observe(idx, &pair_out(out)),
            None => verifier.reject(idx, || "pair was quarantined".to_owned()),
        }
    }
    verdict.merge(verifier.finish());
    m.set("host.batched_nk1_gcups", gcups(nk1_s));
    m.set("host.dispatch_overhead", 1.0 - ratio(engine_s, nk1_s));
    m.set("host.batched_gcups", gcups(batched_s));
    m.set(
        "host.scaling_efficiency",
        ratio(nk1_s, config.nk as f64 * batched_s),
    );
    m.set("host.steals", report.steals as f64);

    let device = device_for(*config);
    let mut report = None;
    let streamed_s = median_secs(|| {
        let span = tracer.begin("host.streamed", NO_PARENT);
        let began = Instant::now();
        report = Some(
            run_streamed_adaptive::<K, _, Infallible, _>(
                &device,
                params,
                inputs.precision,
                pairs.iter().cloned().map(Ok),
                StreamConfig::default(),
                &disabled,
                None,
                |_, slot| {
                    black_box(&slot);
                },
            )
            .unwrap_or_else(|e| panic!("streamed run failed: {e}")),
        );
        let secs = began.elapsed().as_secs_f64();
        tracer.end(span, pairs.len() as u64);
        secs
    });
    let report = report.expect("REPS >= 1");
    m.set("host.streamed_gcups", gcups(streamed_s));
    m.set("host.stream_overhead", 1.0 - ratio(batched_s, streamed_s));
    m.set("host.reorder_high_water", report.reorder_high_water as f64);
    m.set(
        "host.resident_high_water",
        report.resident_high_water as f64,
    );
    m.set("host.retries", report.retries as f64);
    m.set("host.faults", report.faults.len() as f64);

    let mut session_verdict = Verdict::default();
    let session_s = median_secs(|| {
        let (secs, v) = session_rung(inputs, disabled.clone(), &expected, tracer);
        session_verdict = v;
        secs
    });
    verdict.merge(session_verdict);
    m.set("host.session_gcups", gcups(session_s));
    m.set("host.session_overhead", 1.0 - ratio(streamed_s, session_s));
    m.set("host.ordered_writer_mops", ordered_writer_mops());
    verdict
}

/// Largest data or unified cache of cpu0, in bytes (32 MiB if sysfs does
/// not say).
fn llc_bytes() -> usize {
    let cache = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(cache.join(format!("index{index}/{file}")))
            .map(|s| s.trim().to_owned())
    };
    (0..8)
        .filter(|&i| read(i, "type").is_ok_and(|t| t != "Instruction"))
        .filter_map(|i| {
            let size = read(i, "size").ok()?;
            let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                _ => return None,
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn mem_available_bytes() -> Option<usize> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib << 10)
}

/// The roofline of this host, measured in this process: an auto-vectorisable
/// saturating `i16` add + max over L1-resident data (the lane body's
/// instruction mix), and a triad over arrays at least four times the
/// last-level cache (what memory sustains).
///
/// `scale` divides the work (and the triad's arrays) for `--smoke`.
pub fn machine_probes(scale: usize, m: &mut Metrics) {
    const N: usize = 4096; // 3 × 8 KiB of i16, inside any L1d
    let sweeps = 200_000 / scale;
    let a: Vec<i16> = (0..N).map(|i| (i % 97) as i16).collect();
    let b: Vec<i16> = (0..N).map(|i| (i % 89) as i16 - 40).collect();
    let mut c = vec![0i16; N];
    let began = Instant::now();
    for _ in 0..sweeps {
        let (a, b) = (black_box(&a), black_box(&b));
        for ((c, &a), &b) in c.iter_mut().zip(a).zip(b) {
            *c = a.saturating_add(b).max(*c);
        }
        black_box(&mut c);
    }
    let ops = 2.0 * (N * sweeps) as f64;
    m.set(
        "machine.i16_addmax_gops",
        ratio(ops, began.elapsed().as_nanos() as f64),
    );

    let llc = llc_bytes();
    // Three arrays of 4 × LLC each, unless the host cannot spare that much.
    let budget = mem_available_bytes().map_or(4 * llc, |avail| avail / 6);
    let array_bytes = (4 * llc).min(budget) / scale;
    let len = array_bytes / 8;
    let (b, c) = (vec![1.5f64; len], vec![0.25f64; len]);
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let began = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        best = best.min(began.elapsed().as_secs_f64());
    }
    println!(
        "machine.stream: triad over 3 arrays of {} MiB each, last-level cache {} MiB (bytes moved are computed: 24 B an element)",
        array_bytes >> 20,
        llc >> 20
    );
    m.set(
        "machine.stream_gb_per_s",
        ratio(3.0 * array_bytes as f64 / 1e9, best),
    );
}

/// Restarts the kernel's peak-RSS watermark of this process at its current
/// RSS (best effort: a kernel without `clear_refs` keeps the old peak).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this process, all threads (`/proc/self/stat`
/// fields 14 and 15, at the 100 ticks a second Linux reports them in).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name may hold spaces; fields resume after ')'.
            let rest = stat.rsplit_once(')')?.1.to_owned();
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::stream::{long_inputs, short_inputs};

    #[test]
    fn engine_ladder_sets_every_engine_metric_on_both_kernels() {
        let engine_metrics = || {
            PER_LAYER.iter().map(|d| d.name).filter(|n| {
                ["seq.", "kernels.", "systolic.", "host."]
                    .iter()
                    .any(|layer| n.starts_with(layer))
                    && *n != "systolic.xdrop_gcups"
            })
        };
        let mut tracer = Tracer::on(1 << 12);
        let mut m = Metrics::default();
        assert_eq!(
            engine_ladder(&short_inputs(2, 200), &mut tracer, &mut m),
            Verdict::default()
        );
        engine_metrics().for_each(|name| assert!(m.get(name).is_finite(), "{name}"));
        // Ten planted escalators in 200 pairs.
        assert_eq!(m.get("systolic.escalation_ratio"), 0.05);
        assert_eq!(m.get("host.faults"), 0.0);

        // The multi-layer kernel, cut short so a debug build stays quick.
        let mut affine = long_inputs(2, 2);
        for (q, r) in &mut affine.pairs {
            q.truncate(300);
            r.truncate(300);
        }
        let mut m = Metrics::default();
        assert_eq!(
            engine_ladder(&affine, &mut tracer, &mut m),
            Verdict::default()
        );
        engine_metrics().for_each(|name| assert!(m.get(name).is_finite(), "{name}"));
        assert!(m.get("systolic.tb_steps") > 0.0);
    }

    #[test]
    fn proc_counters_read_this_process() {
        assert!(peak_rss_mb() > 1.0);
        assert!(cpu_s() >= 0.0);
        assert!(llc_bytes() >= 1 << 20);
    }
}
