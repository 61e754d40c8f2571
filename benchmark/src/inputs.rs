//! Seeded input generation. The same `--seed` gives byte-identical inputs;
//! the program under test receives only what is generated here.

use dphls_core::Banding;
use dphls_mapper::reverse_complement;
use dphls_seq::fasta::{write_dna, FastaError, FastaStream};
use dphls_seq::gen::{ErrorModel, ReadSimulator};
use dphls_seq::{Base, DnaSeq};

/// A `(query, reference)` pair as the engines take it.
pub type Pair = (Vec<Base>, Vec<Base>);

/// Half-width of the fixed band that sizes a mapped read's nominal cells.
pub const MAP_NOMINAL_HALF_WIDTH: u64 = 128;

/// Read lengths of the mapping workload, cycled per read.
const MAP_LENGTHS: [usize; 4] = [1_000, 2_000, 3_000, 5_000];

/// FNV-1a, folded over the serialised inputs so a run can show which inputs
/// it measured.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Seed of an empty [`fnv1a`] fold.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn read_pairs(seed: u64, n: usize, len: usize, error: f64, max_len: usize) -> Vec<Pair> {
    ReadSimulator::new(seed)
        .read_pairs(n, len, error)
        .into_iter()
        .map(|(reference, mut read)| {
            read.truncate(max_len);
            (read.into_vec(), reference.into_vec())
        })
        .collect()
}

/// 120-bp pairs at 20 % error with every 20th pair a planted escalator: an
/// all-`A` query prefix against an all-`C` reference prefix forces the band
/// below the `i8` guard rail, so exactly those pairs re-run at `i16` (the
/// shape of `dphls_bench::perf::measure_adaptive_precision`).
pub fn short_pairs(seed: u64, n: usize) -> Vec<Pair> {
    const LEN: usize = 120;
    const ESCALATOR_PREFIX: usize = 44;
    let mut pairs = read_pairs(seed ^ 0x51, n, LEN, 0.2, LEN);
    for (q, r) in pairs.iter_mut().skip(3).step_by(20) {
        *q = r.clone();
        q[..ESCALATOR_PREFIX].fill(Base::A);
        r[..ESCALATOR_PREFIX].fill(Base::C);
    }
    pairs
}

/// 1500-bp pairs at 10 % error for the full-matrix affine workload.
pub fn long_pairs(seed: u64, n: usize) -> Vec<Pair> {
    read_pairs(seed ^ 0x10, n, 1_500, 0.1, 1_500)
}

/// 256-bp windows against untruncated 20 %-error reads, as `dphls-load`
/// sends them; `max_len` is the server's length cap.
pub fn serve_pairs(seed: u64, n: usize, max_len: usize) -> Vec<Pair> {
    read_pairs(seed ^ 0x5E, n, 256, 0.2, max_len)
}

/// Long reads with the locus and strand each was drawn from.
pub struct MapInputs {
    pub genome: DnaSeq,
    pub reads: Vec<(String, Vec<Base>)>,
    /// `(true start, reverse-complemented)` per read.
    pub truth: Vec<(usize, bool)>,
}

/// 1/2/3/5-kb reads at 5 % PacBio-CLR error over the simulator's 1 MiB
/// genome, every second one reverse-complemented.
pub fn map_reads(seed: u64, n: usize) -> MapInputs {
    let mut sim = ReadSimulator::new(seed ^ 0x3A99).error_model(ErrorModel::PACBIO_CLR);
    let genome = sim.genome().clone();
    let mut reads = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for i in 0..n {
        let sim_read = sim.simulate_read(MAP_LENGTHS[i % MAP_LENGTHS.len()], 0.05);
        let reverse = i % 2 == 1;
        let bases = if reverse {
            reverse_complement(sim_read.read.as_slice())
        } else {
            sim_read.read.into_vec()
        };
        reads.push((format!("r{i}"), bases));
        truth.push((sim_read.start, reverse));
    }
    MapInputs {
        genome,
        reads,
        truth,
    }
}

/// Serialises pairs as interleaved query/reference FASTA records.
pub fn pairs_to_fasta(pairs: &[Pair]) -> String {
    let seqs: Vec<(String, DnaSeq)> = pairs
        .iter()
        .enumerate()
        .flat_map(|(i, (q, r))| {
            [
                (format!("q{i}"), DnaSeq::new(q.clone())),
                (format!("r{i}"), DnaSeq::new(r.clone())),
            ]
        })
        .collect();
    write_dna(seqs.iter().map(|(id, seq)| (id.as_str(), seq)), 80)
}

/// Serialises reads as FASTA records.
pub fn reads_to_fasta(reads: &[(String, Vec<Base>)]) -> String {
    let seqs: Vec<(&str, DnaSeq)> = reads
        .iter()
        .map(|(id, bases)| (id.as_str(), DnaSeq::new(bases.clone())))
        .collect();
    write_dna(seqs.iter().map(|(id, seq)| (*id, seq)), 80)
}

/// The streaming source of both stream workloads: `FastaStream` records
/// paired up and converted to bases. `on_next(i)` runs at the start of the
/// `next()` call that yields pair `i` (and once more for the final `None`),
/// which is where a pair's latency clock starts.
pub fn fasta_pairs<'a>(
    text: &'a [u8],
    mut on_next: impl FnMut(usize) + Send + 'a,
) -> impl Iterator<Item = Result<Pair, FastaError>> + Send + 'a {
    let mut records = FastaStream::new(text);
    let mut idx = 0usize;
    std::iter::from_fn(move || {
        on_next(idx);
        idx += 1;
        let query = records.next()?;
        Some(query.and_then(|q| {
            let r = records.next().ok_or_else(|| FastaError::Io {
                message: format!("record '{}' has no partner", q.id),
            })??;
            Ok((q.dna()?.into_vec(), r.dna()?.into_vec()))
        }))
    })
}

/// DP cells the inputs fix for one pair: the in-band cells of a `q × r`
/// matrix (`q·r` without banding). Never what an engine chose to compute.
pub fn nominal_cells(q: usize, r: usize, banding: Banding) -> u64 {
    (1..=q).map(|i| banding.cells_in_row(i, r) as u64).sum()
}

/// Nominal cells of one mapped read: a fixed half-width-128 band along it.
pub fn map_nominal_cells(read_len: usize) -> u64 {
    read_len as u64 * (2 * MAP_NOMINAL_HALF_WIDTH + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::KernelConfig;
    use dphls_kernels::{AffineParams, GlobalAffine, GlobalLinear, LinearParams};
    use dphls_systolic::run_systolic;

    fn hash_pairs(pairs: &[Pair]) -> u64 {
        fnv1a(FNV_OFFSET, pairs_to_fasta(pairs).as_bytes())
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            hash_pairs(&short_pairs(7, 40)),
            hash_pairs(&short_pairs(7, 40))
        );
        assert_ne!(
            hash_pairs(&short_pairs(7, 40)),
            hash_pairs(&short_pairs(8, 40))
        );
        assert_eq!(hash_pairs(&long_pairs(7, 2)), hash_pairs(&long_pairs(7, 2)));
        assert_ne!(hash_pairs(&long_pairs(7, 2)), hash_pairs(&long_pairs(8, 2)));
        assert_eq!(
            hash_pairs(&serve_pairs(7, 20, 384)),
            hash_pairs(&serve_pairs(7, 20, 384))
        );
        assert_ne!(
            hash_pairs(&serve_pairs(7, 20, 384)),
            hash_pairs(&serve_pairs(8, 20, 384))
        );
        let hash_reads = |seed| {
            fnv1a(
                FNV_OFFSET,
                reads_to_fasta(&map_reads(seed, 8).reads).as_bytes(),
            )
        };
        assert_eq!(hash_reads(7), hash_reads(7));
        assert_ne!(hash_reads(7), hash_reads(8));
    }

    #[test]
    fn fasta_round_trips_pairs_and_stamps_each_next() {
        let pairs = short_pairs(3, 25);
        let text = pairs_to_fasta(&pairs);
        let mut stamped = Vec::new();
        let parsed: Vec<Pair> = fasta_pairs(text.as_bytes(), |i| stamped.push(i))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, pairs);
        // One stamp per yielded pair plus the call that returned `None`.
        assert_eq!(stamped, (0..=25).collect::<Vec<_>>());
    }

    #[test]
    fn every_twentieth_short_pair_is_an_escalator() {
        let pairs = short_pairs(1, 60);
        let planted: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, (q, r))| q[..44].iter().all(|&b| b == Base::A) && r[0] == Base::C)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(planted, vec![3, 23, 43]);
    }

    #[test]
    fn nominal_cells_equal_the_block_engines_cell_count() {
        // Banded linear (the short and serve shapes) and full affine (the
        // long shape): the formula must be what the engine computes when it
        // neither prunes nor pads.
        let banded = KernelConfig::new(32, 1, 1)
            .with_max_lengths(384, 384)
            .with_banding(20);
        let lin = LinearParams::<i16>::unit();
        for (q, r) in short_pairs(5, 12).iter().chain(&serve_pairs(5, 12, 384)) {
            let run = run_systolic::<GlobalLinear>(&lin, q, r, &banded).unwrap();
            assert_eq!(
                nominal_cells(q.len(), r.len(), banded.banding),
                run.stats.cells
            );
        }
        let full = KernelConfig::new(64, 1, 1).with_max_lengths(1_500, 1_500);
        let aff = AffineParams::<i16>::dna();
        for (q, r) in &long_pairs(5, 2) {
            let run = run_systolic::<GlobalAffine<i16>>(&aff, q, r, &full).unwrap();
            assert_eq!(
                nominal_cells(q.len(), r.len(), full.banding),
                run.stats.cells
            );
            assert_eq!(run.stats.cells, (q.len() * r.len()) as u64);
        }
        assert_eq!(map_nominal_cells(1_000), 257_000);
    }
}
