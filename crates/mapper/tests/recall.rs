//! End-to-end recall and streaming-semantics harness: simulated long reads
//! (both strands, realistic error rates) must map back to their true loci,
//! in input order, with poisoned inputs quarantined rather than fatal.

use dphls_core::Banding;
use dphls_mapper::{
    map_batch, map_fasta, map_streamed, IndexConfig, KmerIndex, MapOutcome, MapStreamConfig,
    MapperConfig, Strand,
};
use dphls_seq::fasta::{FastaError, FastaRecord};
use dphls_seq::gen::{ErrorModel, ReadSimulator};
use dphls_seq::{Base, DnaSeq};

/// Locus tolerance: the chain estimates the locus from its first anchor,
/// which indel drift can shift by a few bases.
const LOCUS_TOL: usize = 64;

struct TestSet {
    genome: DnaSeq,
    /// `(id, read_bases, true_start, reverse?)`
    reads: Vec<(String, Vec<Base>, usize, bool)>,
}

fn simulated_set(seed: u64, n: usize, len: usize, error_rate: f64) -> TestSet {
    let mut sim = ReadSimulator::new(seed).error_model(ErrorModel::PACBIO_CLR);
    let genome = sim.genome().clone();
    let reads = (0..n)
        .map(|i| {
            let r = sim.simulate_read(len, error_rate);
            let reverse = i % 2 == 1;
            let bases = if reverse {
                dphls_mapper::reverse_complement(r.read.as_slice())
            } else {
                r.read.as_slice().to_vec()
            };
            (format!("r{i}"), bases, r.start, reverse)
        })
        .collect();
    TestSet { genome, reads }
}

fn check_mapped(outcome: &MapOutcome, id: &str, start: usize, reverse: bool) {
    let m = outcome
        .mapping()
        .unwrap_or_else(|| panic!("read {id} (true start {start}) did not map: {outcome:?}"));
    assert_eq!(m.read_id, id);
    let expect = if reverse {
        Strand::Reverse
    } else {
        Strand::Forward
    };
    assert_eq!(m.strand, expect, "read {id} mapped to the wrong strand");
    assert!(
        m.locus.abs_diff(start) <= LOCUS_TOL,
        "read {id}: locus {} vs true start {start}",
        m.locus
    );
    assert!(m.score > 0, "read {id}: non-positive score {}", m.score);
    assert!(m.cells > 0);
}

#[test]
fn streamed_reads_all_map_to_their_true_locus_in_order() {
    let set = simulated_set(0xFEED, 60, 1_000, 0.05);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let cfg = MapperConfig::default();
    let stream = MapStreamConfig {
        workers: 4,
        queue: 8,
        in_flight: 16,
    };
    let source = set
        .reads
        .iter()
        .map(|(id, bases, _, _)| Ok::<_, String>((id.clone(), bases.clone())));
    let mut seen = Vec::new();
    let report = map_streamed(&index, &set.genome, source, &cfg, stream, |idx, out| {
        seen.push((idx, out))
    });
    assert_eq!(report.reads, set.reads.len());
    assert_eq!(
        report.mapped,
        set.reads.len(),
        "imperfect recall: {report:?}"
    );
    assert_eq!(report.unmapped + report.quarantined, 0);
    assert!(report.cells > 0);
    assert!(report.reorder_high_water <= stream.in_flight);
    // One outcome per input, emitted 0, 1, 2, ... despite 4 racing workers.
    assert_eq!(seen.len(), set.reads.len());
    let full_band = Banding::Fixed { half_width: 128 };
    let (mut xdrop_cells, mut band_cells) = (0u64, 0u64);
    for (pos, (idx, out)) in seen.iter().enumerate() {
        assert_eq!(*idx, pos, "emission order violated at {pos}");
        let (id, bases, start, reverse) = &set.reads[pos];
        check_mapped(out, id, *start, *reverse);
        // The cells a fixed 128-wide band would pay over the same read ×
        // window problem, the window sized by the mapper's own rule.
        let m = out.mapping().unwrap();
        let len = bases.len();
        let span = (len + len / 8 + cfg.window_slack).min(set.genome.len() - m.locus);
        xdrop_cells += m.cells;
        band_cells += (1..=len)
            .map(|i| full_band.cells_in_row(i, span) as u64)
            .sum::<u64>();
    }
    // X-drop touches at most 0.3× the cells of that band.
    let cells_ratio = xdrop_cells as f64 / band_cells as f64;
    assert!(cells_ratio <= 0.3, "X-drop / 128-band cells {cells_ratio}");
}

#[test]
fn tiny_in_flight_window_drains_everything() {
    // The permit gate at its tightest: two reads in flight, four workers.
    let set = simulated_set(0xACE, 40, 600, 0.04);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let stream = MapStreamConfig {
        workers: 4,
        queue: 4,
        in_flight: 2,
    };
    let source = set
        .reads
        .iter()
        .map(|(id, bases, _, _)| Ok::<_, String>((id.clone(), bases.clone())));
    let mut next = 0usize;
    let report = map_streamed(
        &index,
        &set.genome,
        source,
        &MapperConfig::default(),
        stream,
        |idx, _| {
            assert_eq!(idx, next);
            next += 1;
        },
    );
    assert_eq!(next, set.reads.len());
    assert_eq!(report.mapped, set.reads.len());
    assert!(report.reorder_high_water <= 2);
}

#[test]
fn source_errors_quarantine_at_their_position() {
    let set = simulated_set(0xBEE, 8, 500, 0.03);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let source = set.reads.iter().enumerate().map(|(i, (id, bases, _, _))| {
        if i == 3 {
            Err("truncated record".to_string())
        } else {
            Ok((id.clone(), bases.clone()))
        }
    });
    let mut outcomes = Vec::new();
    let report = map_streamed(
        &index,
        &set.genome,
        source,
        &MapperConfig::default(),
        MapStreamConfig::default(),
        |_, out| outcomes.push(out),
    );
    assert_eq!(report.reads, 8);
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.mapped, 7);
    match &outcomes[3] {
        MapOutcome::Quarantined { read_id, message } => {
            assert_eq!(read_id, "<input #3>");
            assert!(message.contains("truncated record"));
        }
        other => panic!("expected quarantine at index 3, got {other:?}"),
    }
    assert!(outcomes[2].mapping().is_some() && outcomes[4].mapping().is_some());
}

#[test]
fn panicking_reads_quarantine_instead_of_killing_the_run() {
    // min_anchors = 0 trips the chainer's own assertion inside map_read —
    // a stand-in for any per-read panic; the pipeline must absorb it.
    let set = simulated_set(0xD00D, 6, 400, 0.03);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let poisoned = MapperConfig {
        min_anchors: 0,
        ..MapperConfig::default()
    };
    let source = set
        .reads
        .iter()
        .map(|(id, bases, _, _)| Ok::<_, String>((id.clone(), bases.clone())));
    let mut outcomes = Vec::new();
    let report = map_streamed(
        &index,
        &set.genome,
        source,
        &poisoned,
        MapStreamConfig::default(),
        |_, out| outcomes.push(out),
    );
    assert_eq!(report.quarantined, 6, "{report:?}");
    assert_eq!(report.mapped + report.unmapped, 0);
    for (i, out) in outcomes.iter().enumerate() {
        match out {
            MapOutcome::Quarantined { read_id, message } => {
                assert_eq!(read_id, &format!("r{i}"));
                assert!(message.contains("min_anchors"), "message: {message}");
            }
            other => panic!("read {i}: expected quarantine, got {other:?}"),
        }
    }
}

#[test]
fn fasta_records_with_bad_symbols_quarantine() {
    let set = simulated_set(0xFA57, 5, 500, 0.03);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let to_string = |bases: &[Base]| bases.iter().map(|b| b.to_char()).collect::<String>();
    let records: Vec<Result<FastaRecord, FastaError>> = set
        .reads
        .iter()
        .enumerate()
        .map(|(i, (id, bases, _, _))| {
            let mut sequence = to_string(bases);
            if i == 2 {
                sequence.insert(10, 'X'); // not a DNA base
            }
            Ok(FastaRecord {
                id: id.clone(),
                description: String::new(),
                sequence,
            })
        })
        .collect();
    let mut outcomes = Vec::new();
    let report = map_fasta(
        &index,
        &set.genome,
        records.into_iter(),
        &MapperConfig::default(),
        MapStreamConfig::default(),
        |_, out| outcomes.push(out),
    );
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.mapped, 4);
    assert!(matches!(&outcomes[2], MapOutcome::Quarantined { .. }));
    for (i, (_, _, start, reverse)) in set.reads.iter().enumerate() {
        if i != 2 {
            check_mapped(&outcomes[i], &set.reads[i].0, *start, *reverse);
        }
    }
}

#[test]
fn unrelated_reads_are_unmapped_not_forced() {
    let set = simulated_set(0x0FF, 4, 500, 0.03);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    // Reads drawn from a DIFFERENT genome share no 15-mers with this one.
    let mut alien = ReadSimulator::new(0x414C_u64).error_model(ErrorModel::PACBIO_CLR);
    let reads: Vec<(String, Vec<Base>)> = (0..4)
        .map(|i| {
            let r = alien.simulate_read(500, 0.03);
            (format!("alien{i}"), r.read.as_slice().to_vec())
        })
        .collect();
    let outcomes = map_batch(&index, &set.genome, &reads, &MapperConfig::default());
    for out in &outcomes {
        assert!(
            matches!(out, MapOutcome::Unmapped { .. }),
            "alien read should not map: {out:?}"
        );
    }
}

#[test]
fn batch_and_streamed_agree() {
    let set = simulated_set(0x5A5A, 24, 800, 0.05);
    let index = KmerIndex::build(&set.genome, IndexConfig::default());
    let cfg = MapperConfig::default();
    let pairs: Vec<(String, Vec<Base>)> = set
        .reads
        .iter()
        .map(|(id, bases, _, _)| (id.clone(), bases.clone()))
        .collect();
    let batch = map_batch(&index, &set.genome, &pairs, &cfg);
    let source = pairs
        .iter()
        .map(|(id, bases)| Ok::<_, String>((id.clone(), bases.clone())));
    let mut streamed = Vec::new();
    map_streamed(
        &index,
        &set.genome,
        source,
        &cfg,
        MapStreamConfig::default(),
        |_, out| streamed.push(out),
    );
    assert_eq!(batch, streamed, "serial and streamed outcomes diverge");
}

#[test]
fn unbounded_in_flight_and_queue_map_like_the_defaults() {
    // Bounds at the type's maximum are a window that never fills: the run
    // must start, finish and match the default config read for read (the
    // watchdog turns a hang into a failure).
    fn outcomes(stream: MapStreamConfig) -> Vec<(usize, MapOutcome)> {
        let set = simulated_set(0xB0B, 12, 600, 0.04);
        let index = KmerIndex::build(&set.genome, IndexConfig::default());
        let source = set
            .reads
            .iter()
            .map(|(id, bases, _, _)| Ok::<_, String>((id.clone(), bases.clone())));
        let mut seen = Vec::new();
        let cfg = MapperConfig::default();
        map_streamed(&index, &set.genome, source, &cfg, stream, |idx, out| {
            seen.push((idx, out))
        });
        seen
    }
    let want = outcomes(MapStreamConfig::default());
    let unbounded = MapStreamConfig {
        in_flight: usize::MAX,
        queue: usize::MAX,
        ..MapStreamConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(outcomes(unbounded)));
    let got = rx.recv_timeout(std::time::Duration::from_secs(120));
    assert_eq!(got.expect("the unbounded run finishes"), want);
}

/// Frozen-surface guard: the out-of-workspace `benchmark/` package builds
/// the stream config as a full struct literal.
#[test]
fn map_stream_config_keeps_its_fields() {
    let MapStreamConfig {
        workers,
        queue,
        in_flight,
    } = MapStreamConfig::default();
    let literal = MapStreamConfig {
        workers,
        queue,
        in_flight,
    };
    assert!(literal.workers >= 1 && literal.queue >= 1 && literal.in_flight >= 1);
}
