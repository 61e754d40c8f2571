//! The mapping workload (`map_fasta` over FASTA long reads) and the mapper
//! ladder of the traced run.

use crate::check::{MapHit, MapOut, Verdict, Verifier};
use crate::inputs::{self, fnv1a, map_nominal_cells, MapInputs, FNV_OFFSET};
use crate::metrics::{ratio, Metrics};
use crate::stats::percentile_ns;
use crate::stream::NK;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Pass, Workload};
use dphls_mapper::{
    chain, map_fasta, map_read, reverse_complement, IndexConfig, KmerIndex, MapOutcome,
    MapStreamConfig, MapperConfig, Strand,
};
use dphls_seq::fasta::FastaStream;
use dphls_seq::Base;
use dphls_systolic::{run_xdrop, XDropRun};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A mapping counts as correct within this many bases of the true start.
const LOCUS_TOLERANCE: usize = 64;

fn stream_config() -> MapStreamConfig {
    MapStreamConfig {
        workers: NK,
        ..MapStreamConfig::default()
    }
}

/// One read in flight at a time, for the latency probe.
fn lockstep_config() -> MapStreamConfig {
    MapStreamConfig {
        workers: NK,
        queue: 1,
        in_flight: 1,
    }
}

fn map_out(hit: Option<(usize, Strand, XDropRun)>) -> MapOut {
    MapOut(hit.map(|(locus, strand, run)| MapHit {
        locus,
        reverse: strand == Strand::Reverse,
        score: run.score,
        cells: run.cells,
    }))
}

fn outcome_out(outcome: &MapOutcome) -> Result<MapOut, String> {
    match outcome {
        MapOutcome::Mapped(m) => Ok(MapOut(Some(MapHit {
            locus: m.locus,
            reverse: m.strand == Strand::Reverse,
            score: m.score,
            cells: m.cells,
        }))),
        MapOutcome::Unmapped { .. } => Ok(MapOut(None)),
        MapOutcome::Quarantined { read_id, message } => {
            Err(format!("read {read_id} quarantined: {message}"))
        }
    }
}

/// Whether a read landed where it was drawn from: same strand, start within
/// [`LOCUS_TOLERANCE`].
fn on_target(out: &MapOut, truth: (usize, bool)) -> bool {
    out.0
        .is_some_and(|hit| hit.reverse == truth.1 && hit.locus.abs_diff(truth.0) <= LOCUS_TOLERANCE)
}

pub struct MapWorkload {
    inputs: MapInputs,
    fasta: String,
    /// What single-thread `map_read` returns per read.
    expected: Vec<MapOut>,
    /// Reads `map_read` itself puts off target; they fail every pass.
    off_target: Verdict,
    nominal: u64,
    index: Option<KmerIndex>,
    starts: Vec<AtomicU64>,
    emits: Vec<u64>,
    /// Reads of the latency probe, and the bytes of FASTA that hold them.
    probe: (usize, usize),
}

impl MapWorkload {
    /// `probe_reads` is how many leading reads the latency probe maps.
    pub fn new(seed: u64, reads: usize, probe_reads: usize) -> Self {
        let inputs = inputs::map_reads(seed, reads);
        let index = KmerIndex::build(&inputs.genome, IndexConfig::default());
        let cfg = MapperConfig::default();
        let expected: Vec<MapOut> = inputs
            .reads
            .iter()
            .map(|(_, read)| map_out(map_read(&index, &inputs.genome, read, &cfg)))
            .collect();
        let mut off_target = Verdict::default();
        for (i, (out, &truth)) in expected.iter().zip(&inputs.truth).enumerate() {
            if !on_target(out, truth) {
                off_target
                    .fail(|| format!("read {i}: map_read gives {out:?}, drawn from {truth:?}"));
            }
        }
        Self {
            fasta: inputs::reads_to_fasta(&inputs.reads),
            nominal: inputs
                .reads
                .iter()
                .map(|(_, read)| map_nominal_cells(read.len()))
                .sum(),
            starts: (0..reads).map(|_| AtomicU64::new(0)).collect(),
            emits: vec![0; reads],
            index: None,
            probe: {
                let probe_reads = probe_reads.min(reads);
                (
                    probe_reads,
                    inputs::reads_to_fasta(&inputs.reads[..probe_reads]).len(),
                )
            },
            expected,
            off_target,
            inputs,
        }
    }

    /// Maps the first `reads` reads (`fasta_bytes` of text) through
    /// `map_fasta` under `stream` and checks every outcome.
    fn run(
        &mut self,
        tracer: &mut Tracer,
        stream: MapStreamConfig,
        (reads, fasta_bytes): (usize, usize),
    ) -> Pass {
        let index = self.index.as_ref().expect("setup runs before a pass");
        let (starts, emits) = (&self.starts[..reads], &mut self.emits[..reads]);
        let mut verifier = Verifier::new(&self.expected[..reads]);
        let pass_span = tracer.begin("map.pass", NO_PARENT);
        let clock = tracer.clock();
        let began = clock.now_ns();

        let mut records = FastaStream::new(&self.fasta.as_bytes()[..fasta_bytes]);
        let mut next = 0usize;
        let stamped = std::iter::from_fn(|| {
            if let Some(start) = starts.get(next) {
                start.store(clock.now_ns(), Ordering::Relaxed);
            }
            next += 1;
            records.next()
        });
        let report = map_fasta(
            index,
            &self.inputs.genome,
            stamped,
            &MapperConfig::default(),
            stream,
            |idx, outcome| {
                if let Some(emit) = emits.get_mut(idx) {
                    *emit = clock.now_ns();
                }
                match outcome_out(&outcome) {
                    Ok(out) => verifier.observe(idx, &out),
                    Err(why) => verifier.reject(idx, || why),
                }
            },
        );
        let mut lat: Vec<u64> = emits
            .iter()
            .zip(starts)
            .map(|(emit, start)| emit.saturating_sub(start.load(Ordering::Relaxed)))
            .collect();
        if tracer.enabled() {
            for (emit, wait) in emits.iter().zip(&lat) {
                tracer.record("map.read", pass_span, emit - wait, *emit, 1);
            }
        }
        tracer.end(pass_span, report.reads as u64);
        let secs = (clock.now_ns() - began) as f64 / 1e9;

        Pass {
            items: (report.mapped + report.unmapped) as u64,
            secs,
            lat_p50_ns: percentile_ns(&mut lat, 0.5),
            verdict: verifier.finish(),
        }
    }
}

impl Workload for MapWorkload {
    fn setup(&mut self) {
        self.index = Some(KmerIndex::build(
            &self.inputs.genome,
            IndexConfig::default(),
        ));
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let all = (self.inputs.reads.len(), self.fasta.len());
        let mut pass = self.run(tracer, stream_config(), all);
        pass.verdict.merge(self.off_target.clone());
        pass
    }

    fn latency_probe(&mut self) -> Option<Pass> {
        Some(self.run(&mut Tracer::off(), lockstep_config(), self.probe))
    }

    fn items(&self) -> u64 {
        self.inputs.reads.len() as u64
    }

    fn nominal_cells(&self) -> u64 {
        self.nominal
    }

    fn input_hash(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.fasta.as_bytes())
    }
}

/// `map_read` taken apart at its public seams, a span around each call into
/// the index, the chainer and the X-drop engine. Must return what `map_read`
/// returns; the ladder checks that it does.
fn map_read_traced(
    index: &KmerIndex,
    inputs: &MapInputs,
    read: &[Base],
    cfg: &MapperConfig,
    tracer: &mut Tracer,
    stats: &mut ReplicaStats,
) -> MapOut {
    let root = tracer.begin("mapper.map_read", NO_PARENT);
    let span = tracer.begin("mapper.seeds", root);
    let fwd_seeds = index.seeds(read);
    let rc = reverse_complement(read);
    let rc_seeds = index.seeds(&rc);
    let seeds = (fwd_seeds.len() + rc_seeds.len()) as u64;
    tracer.end(span, seeds);
    stats.seeds += seeds;

    let span = tracer.begin("mapper.chain", root);
    let fwd = chain(&fwd_seeds, cfg.chain_band, cfg.min_anchors);
    let rev = chain(&rc_seeds, cfg.chain_band, cfg.min_anchors);
    tracer.end(span, u64::from(fwd.is_some()) + u64::from(rev.is_some()));

    let (best, strand, oriented): (_, _, &[Base]) = match (fwd, rev) {
        (Some(f), Some(r)) if r.score() > f.score() => (r, Strand::Reverse, &rc),
        (Some(f), _) => (f, Strand::Forward, read),
        (None, Some(r)) => (r, Strand::Reverse, &rc),
        (None, None) => {
            tracer.end(root, 0);
            return MapOut(None);
        }
    };
    stats.chained += 1;
    let genome = &inputs.genome;
    let locus = best.ref_start.min(genome.len().saturating_sub(1));
    let reach = oriented.len() + oriented.len() / 8 + cfg.window_slack;
    let window = genome.window(locus, reach.min(genome.len() - locus));

    let span = tracer.begin("mapper.extend", root);
    let run = run_xdrop(
        oriented,
        window.as_slice(),
        |a, b| cfg.params.substitution(a == b),
        cfg.params.gap,
        &cfg.xdrop,
    );
    tracer.end(span, run.cells);
    tracer.end(root, 1);
    map_out(Some((locus, strand, run)))
}

#[derive(Default)]
struct ReplicaStats {
    seeds: u64,
    chained: u64,
}

/// The mapper ladder: index build, `map_read` plain and taken apart, and the
/// streamed pipeline, all on the first `reads` reads of the seed.
pub fn mapper_ladder(seed: u64, reads: usize, tracer: &mut Tracer, m: &mut Metrics) -> Verdict {
    let inputs = inputs::map_reads(seed, reads);
    let cfg = MapperConfig::default();
    let n = inputs.reads.len() as f64;

    let began = Instant::now();
    let index = KmerIndex::build(&inputs.genome, IndexConfig::default());
    m.set("mapper.index_build_s", began.elapsed().as_secs_f64());
    m.set("mapper.index_buckets", index.buckets() as f64);
    m.set("mapper.masked_buckets", index.masked_buckets() as f64);

    let began = Instant::now();
    let plain: Vec<MapOut> = inputs
        .reads
        .iter()
        .map(|(_, read)| map_out(map_read(&index, &inputs.genome, read, &cfg)))
        .collect();
    let plain_rps = ratio(n, began.elapsed().as_secs_f64());
    m.set("mapper.map_read_per_s", plain_rps);

    let mut verdict = Verdict::default();
    let mut stats = ReplicaStats::default();
    for (i, ((_, read), want)) in inputs.reads.iter().zip(&plain).enumerate() {
        let got = map_read_traced(&index, &inputs, read, &cfg, tracer, &mut stats);
        if got != *want {
            verdict.fail(|| format!("read {i}: traced replica gives {got:?}, map_read {want:?}"));
        }
    }
    // Only this loop records spans under these names.
    let totals = tracer.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let busy = [
        of("mapper.map_read").self_ns,
        of("mapper.seeds").busy_ns,
        of("mapper.chain").busy_ns,
        of("mapper.extend").busy_ns,
    ];
    let total = busy.iter().sum::<u64>() as f64;
    let xdrop_cells: u64 = plain.iter().filter_map(|o| o.0).map(|hit| hit.cells).sum();
    let nominal: u64 = inputs
        .reads
        .iter()
        .zip(&plain)
        .filter(|(_, out)| out.0.is_some())
        .map(|((_, read), _)| map_nominal_cells(read.len()))
        .sum();
    m.set("mapper.self_share", ratio(busy[0] as f64, total));
    m.set("mapper.seed_busy_s", busy[1] as f64 / 1e9);
    m.set("mapper.seed_share", ratio(busy[1] as f64, total));
    m.set("mapper.seeds_per_read", ratio(stats.seeds as f64, n));
    m.set("mapper.chain_busy_s", busy[2] as f64 / 1e9);
    m.set("mapper.chain_share", ratio(busy[2] as f64, total));
    m.set("mapper.chained_ratio", ratio(stats.chained as f64, n));
    m.set("mapper.extend_busy_s", busy[3] as f64 / 1e9);
    m.set("mapper.extend_share", ratio(busy[3] as f64, total));
    m.set("mapper.xdrop_cells", xdrop_cells as f64);
    m.set(
        "mapper.cells_ratio",
        ratio(xdrop_cells as f64, nominal as f64),
    );
    m.set(
        "systolic.xdrop_gcups",
        ratio(xdrop_cells as f64, busy[3] as f64),
    );

    let fasta = inputs::reads_to_fasta(&inputs.reads);
    let mut streamed = Verifier::new(&plain);
    let began = Instant::now();
    let report = map_fasta(
        &index,
        &inputs.genome,
        FastaStream::new(fasta.as_bytes()),
        &cfg,
        stream_config(),
        |idx, outcome| match outcome_out(&outcome) {
            Ok(out) => streamed.observe(idx, &out),
            Err(why) => streamed.reject(idx, || why),
        },
    );
    let streamed_rps = ratio(n, began.elapsed().as_secs_f64());
    verdict.merge(streamed.finish());
    m.set(
        "mapper.stream_efficiency",
        ratio(streamed_rps, NK as f64 * plain_rps),
    );
    m.set(
        "mapper.reorder_high_water",
        report.reorder_high_water as f64,
    );
    m.set("mapper.unmapped", report.unmapped as f64);
    m.set("mapper.quarantined", report.quarantined as f64);
    let hits = plain
        .iter()
        .zip(&inputs.truth)
        .filter(|(out, &truth)| on_target(out, truth))
        .count();
    m.set("mapper.recall", ratio(hits as f64, n));
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replica_returns_what_map_read_returns_and_shares_sum_to_one() {
        let mut tracer = Tracer::on(1 << 10);
        let mut m = Metrics::default();
        let verdict = mapper_ladder(5, 12, &mut tracer, &mut m);
        assert_eq!(verdict, Verdict::default());
        let shares = m.get("mapper.seed_share")
            + m.get("mapper.chain_share")
            + m.get("mapper.extend_share")
            + m.get("mapper.self_share");
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert_eq!(m.get("mapper.recall"), 1.0);
        // One map_read span a read, three children under each mapped one.
        let totals = tracer.totals();
        assert_eq!(totals["mapper.map_read"].spans, 12);
        assert_eq!(totals["mapper.extend"].spans, 12);
        assert_eq!(
            totals["mapper.extend"].count as f64,
            m.get("mapper.xdrop_cells")
        );
    }

    #[test]
    fn a_pass_maps_every_read_on_target() {
        let mut w = MapWorkload::new(5, 16, 4);
        w.setup();
        let pass = w.pass(&mut Tracer::off());
        assert_eq!(pass.verdict, Verdict::default());
        assert_eq!(pass.items, 16);
        let probe = w.latency_probe().unwrap();
        assert_eq!((probe.items, probe.verdict), (4, Verdict::default()));
        assert!(probe.lat_p50_ns > 0);
        assert_eq!(w.nominal_cells(), 4 * (1_000 + 2_000 + 3_000 + 5_000) * 257);
    }
}
