//! The two stream workloads: in-memory FASTA → `FastaStream` →
//! `run_streamed{,_adaptive}` → a sink that formats one line per pair.

use crate::check::{PairOut, Verifier};
use crate::inputs::{self, fasta_pairs, fnv1a, nominal_cells, Pair, FNV_OFFSET};
use crate::stats::percentile_ns;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Pass, Workload};
use dphls_core::{
    run_reference, AdaptiveKernel, DpOutput, I8Lanes, KernelConfig, KernelSpec, LanePrecision,
};
use dphls_host::{run_streamed, run_streamed_adaptive, ResilienceConfig, StreamConfig};
use dphls_kernels::{AffineParams, GlobalAffine, GlobalLinear, LinearParams};
use dphls_seq::Base;
use dphls_systolic::{
    run_systolic_with_scratch, CycleModelParams, Device, KernelCycleInfo, SystolicScratch,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Channels of every device the benchmark builds (and worker threads the
/// program spawns for them).
pub const NK: usize = 2;

/// One expected output in this many is also checked against
/// `dphls_core::run_reference`.
const REFERENCE_SAMPLE: usize = 64;

/// Pairs per chunk span of a traced pass or single-thread rung.
pub const CHUNK: usize = 1024;

/// The DNA kernels the benchmark drives: exact `i16` with an `i8` companion.
pub trait DnaKernel: AdaptiveKernel + KernelSpec<Sym = Base> {}
impl<K: AdaptiveKernel + KernelSpec<Sym = Base>> DnaKernel for K {}

/// Everything an engine run of kernel `K` needs: scoring, device shape,
/// precision and the pairs.
pub struct EngineInputs<K: DnaKernel> {
    pub params: K::Params,
    /// Device shape, `NK` channels.
    pub config: KernelConfig,
    pub precision: LanePrecision,
    pub pairs: Vec<Pair>,
}

impl<K: DnaKernel> EngineInputs<K> {
    pub fn nominal_cells(&self) -> u64 {
        self.pairs
            .iter()
            .map(|(q, r)| nominal_cells(q.len(), r.len(), self.config.banding))
            .sum()
    }

    /// Expected outputs from the single-thread exact path, a 1-in-64 sample
    /// of them cross-checked against the reference engine.
    ///
    /// # Panics
    ///
    /// Panics if an input is invalid for the device or the sample disagrees
    /// with the reference — the benchmark has nothing to measure then.
    pub fn expected(&self) -> Vec<PairOut> {
        let mut scratch = SystolicScratch::new();
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, (q, r))| {
                let run =
                    run_systolic_with_scratch::<K>(&self.params, q, r, &self.config, &mut scratch)
                        .unwrap_or_else(|e| panic!("pair {i} is not a valid input: {e}"));
                if i % REFERENCE_SAMPLE == 0 {
                    let golden = run_reference::<K>(&self.params, q, r, self.config.banding);
                    assert!(
                        golden.best_score == run.output.best_score
                            && golden.best_cell == run.output.best_cell
                            && golden.alignment == run.output.alignment,
                        "pair {i}: systolic engine disagrees with run_reference \
                         (score {} vs {}, cell {:?} vs {:?})",
                        run.output.best_score,
                        golden.best_score,
                        run.output.best_cell,
                        golden.best_cell,
                    );
                }
                pair_out(&run.output)
            })
            .collect()
    }
}

pub fn pair_out(out: &DpOutput<i16>) -> PairOut {
    PairOut {
        score: i64::from(out.best_score),
        end_cell: (out.best_cell.0 as u32, out.best_cell.1 as u32),
        cells: out.cells_computed,
    }
}

/// The device model every engine rung runs on (2-bit DNA symbols, traceback
/// on, II = 1 — the cycle model is not what this benchmark reads).
pub fn device_for(config: KernelConfig) -> Device {
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

/// `stream_short_adaptive`: 120-bp pairs, unit scoring, band w20, NPE 120,
/// saturating-`i8` ×32 lanes with `i16` escalation.
pub fn short_inputs(seed: u64, n: usize) -> EngineInputs<GlobalLinear> {
    EngineInputs {
        params: LinearParams::<i16>::unit(),
        config: KernelConfig::new(120, 1, NK)
            .with_max_lengths(120, 120)
            .with_banding(20),
        precision: LanePrecision::Adaptive(I8Lanes::X32),
        pairs: inputs::short_pairs(seed, n),
    }
}

/// `stream_long_affine`: 1500-bp pairs, full matrix + traceback, NPE 64,
/// exact `i16`, three scoring layers.
pub fn long_inputs(seed: u64, n: usize) -> EngineInputs<GlobalAffine<i16>> {
    EngineInputs {
        params: AffineParams::<i16>::dna(),
        config: KernelConfig::new(64, 1, NK).with_max_lengths(1_500, 1_500),
        precision: LanePrecision::Exact,
        pairs: inputs::long_pairs(seed, n),
    }
}

pub struct StreamWorkload<K: DnaKernel> {
    inputs: EngineInputs<K>,
    fasta: String,
    expected: Vec<PairOut>,
    nominal: u64,
    device: Option<Device>,
    /// Per pair: when the source's `next()` that yielded it started, and
    /// when the sink received it (tracer clock).
    starts: Vec<AtomicU64>,
    emits: Vec<u64>,
    lines: Vec<u8>,
    /// Pairs of the latency probe, and the bytes of FASTA that hold them.
    probe: (usize, usize),
}

impl<K: DnaKernel> StreamWorkload<K> {
    /// `probe_pairs` is how many leading pairs the latency probe streams.
    pub fn new(inputs: EngineInputs<K>, probe_pairs: usize) -> Self {
        let n = inputs.pairs.len();
        let probe_pairs = probe_pairs.min(n);
        Self {
            fasta: inputs::pairs_to_fasta(&inputs.pairs),
            expected: inputs.expected(),
            nominal: inputs.nominal_cells(),
            device: None,
            starts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            emits: vec![0; n],
            lines: Vec::new(),
            // Records are serialised in order, so a prefix of the pairs is a
            // prefix of the text.
            probe: (
                probe_pairs,
                inputs::pairs_to_fasta(&inputs.pairs[..probe_pairs]).len(),
            ),
            inputs,
        }
    }

    /// Streams the first `pairs` pairs (`fasta_bytes` of text) through the
    /// pipeline under `stream` and checks every output.
    fn run(
        &mut self,
        tracer: &mut Tracer,
        stream: StreamConfig,
        (pairs, fasta_bytes): (usize, usize),
    ) -> Pass {
        let device = self.device.as_ref().expect("setup runs before a pass");
        let (starts, emits) = (&self.starts[..pairs], &mut self.emits[..pairs]);
        let lines = &mut self.lines;
        lines.clear();
        let mut verifier = Verifier::new(&self.expected[..pairs]);
        let pass_span = tracer.begin("stream.pass", NO_PARENT);
        let clock = tracer.clock();
        let began = clock.now_ns();

        let source = fasta_pairs(&self.fasta.as_bytes()[..fasta_bytes], |i| {
            if let Some(start) = starts.get(i) {
                start.store(clock.now_ns(), Ordering::Relaxed);
            }
        });
        let mut on_out = |idx: usize, out: &DpOutput<i16>| {
            if let Some(emit) = emits.get_mut(idx) {
                *emit = clock.now_ns();
            }
            verifier.observe(idx, &pair_out(out));
            writeln!(
                lines,
                "{idx}\t{}\t{}\t{}",
                out.best_score, out.best_cell.0, out.best_cell.1
            )
            .expect("write to a Vec");
        };
        let report = match self.inputs.precision {
            LanePrecision::Exact => run_streamed::<K, _, _, _>(
                device,
                &self.inputs.params,
                source,
                stream,
                |idx, out| on_out(idx, &out),
            ),
            precision => run_streamed_adaptive::<K, _, _, _>(
                device,
                &self.inputs.params,
                precision,
                source,
                stream,
                &ResilienceConfig::disabled(),
                None,
                |idx, slot| match slot {
                    Ok(out) => on_out(idx, &out),
                    Err(fault) => panic!("abort policy emitted a quarantined slot: {fault}"),
                },
            ),
        }
        .unwrap_or_else(|e| panic!("streamed run failed: {e}"));

        if tracer.enabled() {
            let mut chunk_start = began;
            for chunk in emits.chunks(CHUNK) {
                let end = chunk.iter().copied().max().unwrap_or(chunk_start);
                tracer.record(
                    "stream.chunk",
                    pass_span,
                    chunk_start,
                    end,
                    chunk.len() as u64,
                );
                chunk_start = end;
            }
        }
        tracer.end(pass_span, report.pairs as u64);
        let secs = (clock.now_ns() - began) as f64 / 1e9;

        let mut lat: Vec<u64> = emits
            .iter()
            .zip(starts)
            .map(|(emit, start)| emit.saturating_sub(start.load(Ordering::Relaxed)))
            .collect();
        Pass {
            items: report.completed() as u64,
            secs,
            lat_p50_ns: percentile_ns(&mut lat, 0.5),
            verdict: verifier.finish(),
        }
    }
}

impl<K: DnaKernel> Workload for StreamWorkload<K> {
    fn setup(&mut self) {
        self.device = Some(device_for(self.inputs.config));
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let all = (self.inputs.pairs.len(), self.fasta.len());
        self.run(tracer, StreamConfig::default(), all)
    }

    fn latency_probe(&mut self) -> Option<Pass> {
        let lockstep = StreamConfig {
            buffer: 1,
            window: 1,
            nb_slots: 0,
        };
        Some(self.run(&mut Tracer::off(), lockstep, self.probe))
    }

    fn items(&self) -> u64 {
        self.inputs.pairs.len() as u64
    }

    fn nominal_cells(&self) -> u64 {
        self.nominal
    }

    fn input_hash(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.fasta.as_bytes())
    }
}
