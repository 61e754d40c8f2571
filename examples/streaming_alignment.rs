//! Streaming alignment: FASTA records flow incrementally through the
//! bounded pipeline — parse → cost-ranked dealing → NK work-stealing
//! channel workers → order-restored writer — without ever materializing the
//! workload, so input size is bounded by disk, not host RAM.
//!
//! The example simulates a read set, round-trips it through FASTA text, and
//! then streams query/reference record pairs straight from the (buffered)
//! reader into `run_streamed`, printing each alignment as the ordered
//! writer emits it. Compare `examples/read_mapping.rs`, which materializes
//! the same kind of workload for `run_batched`.
//!
//! The same pipeline is a **doc-tested** crate-level example ("Streaming
//! pipeline" in the `dp_hls` crate docs), so `cargo test --doc` compiles
//! and runs it on every CI push — the snippet cannot rot. This file is its
//! narrated, printing sibling:
//!
//! ```sh
//! cargo run --example streaming_alignment
//! ```

use dp_hls::host::{run_streamed, StreamConfig};
use dp_hls::prelude::*;
use dp_hls::seq::fasta::{write_dna, FastaError, FastaStream};

fn main() {
    // Simulate 24 read/window pairs and serialize them as one FASTA file
    // (query and reference records interleaved), standing in for the
    // arbitrarily large file a real pipeline would stream from disk.
    let mut sim = ReadSimulator::new(2024);
    let mut names = Vec::new();
    let mut seqs = Vec::new();
    for i in 0..24 {
        let (window, mut read) = sim.read_pair(120, 0.1);
        read.truncate(96);
        names.push((format!("read{i}"), format!("window{i}")));
        seqs.push((read, window));
    }
    let fasta_text = write_dna(
        names
            .iter()
            .zip(&seqs)
            .flat_map(|((qn, rn), (q, r))| [(qn.as_str(), q), (rn.as_str(), r)]),
        60,
    );
    println!(
        "FASTA source: {} bytes, {} records\n",
        fasta_text.len(),
        2 * seqs.len()
    );

    // The streaming source: an incremental record iterator (here over an
    // in-memory byte slice; any BufRead — a File, a socket — works the
    // same), paired up and converted to 2-bit DNA on the fly.
    let mut records = FastaStream::new(fasta_text.as_bytes());
    let source = std::iter::from_fn(move || match (records.next(), records.next()) {
        (None, _) => None,
        (Some(query), Some(reference)) => Some(query.and_then(|q| {
            let r = reference?;
            Ok::<_, FastaError>((q.dna()?.into_vec(), r.dna()?.into_vec()))
        })),
        // A query without a partner record (odd record count, or a parse
        // error already reported through `query`) must surface as an error,
        // not end the stream as apparent success.
        (Some(query), None) => Some(query.and_then(|q| {
            Err(FastaError::Io {
                message: format!("record '{}' has no partner (odd record count)", q.id),
            })
        })),
    });

    // A 32-PE banded device with 4 channels; the pipeline holds at most
    // `window` in-flight pairs plus the one its dealer just parsed,
    // independent of how long the FASTA file is.
    let device = Device::new(
        KernelConfig::new(32, 1, 4)
            .with_max_lengths(128, 128)
            .with_banding(24),
        CycleModelParams::dphls(),
        KernelCycleInfo {
            sym_bits: 2,
            has_walk: true,
            ii: 1,
        },
        250.0,
    );
    let params = LinearParams::<i16>::dna();
    let config = StreamConfig {
        window: 16,
        ..StreamConfig::default()
    };

    println!("streamed alignments (emitted in input order as they complete):");
    let report =
        run_streamed::<GlobalLinear, _, _, _>(&device, &params, source, config, |idx, out| {
            println!("  pair {idx:>2}  score {:>5}", out.best_score);
        })
        .expect("streamed alignment");

    println!(
        "\n{} pairs in input order, {} steals",
        report.pairs, report.steals
    );
    println!("per-channel executed: {:?}", report.per_channel);
    println!(
        "modeled device throughput: {:.0} aln/s",
        report.throughput_aps
    );
    println!(
        "bounded memory: reorder high water {} (< window {}), resident high water {} (<= window)",
        report.reorder_high_water, config.window, report.resident_high_water
    );
}
