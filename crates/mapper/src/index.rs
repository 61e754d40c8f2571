//! Minimizer/k-mer index over a reference genome with bucket-capped repeat
//! masking — the seeding stage of the mapping pipeline.
//!
//! The index stores, for each selected k-mer, the reference positions where
//! it occurs. Selection is by **minimizers** (robust winnowing): in every
//! window of `w` consecutive k-mers, the one with the smallest hash is
//! kept, so any two sequences sharing `w + k − 1` exact bases share at
//! least one selected k-mer. `w = 1` degenerates to indexing every k-mer.
//!
//! Over-represented k-mers (repeats, homopolymer runs) blow up the
//! candidate count without adding locus information; buckets whose
//! occurrence list exceeds `bucket_cap` are **masked** (dropped wholesale),
//! the standard repeat-masking move of minimizer mappers.

use dphls_seq::{Base, DnaSeq};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Seeding parameters: k-mer size, minimizer window, repeat cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// K-mer length (`1 ..= 31`, packed 2 bits per base into a `u64`).
    pub k: usize,
    /// Minimizer window: one k-mer kept per window of `w` consecutive
    /// k-mers (`w = 1` keeps them all).
    pub w: usize,
    /// Maximum occurrence-list length before a bucket is masked as repeat.
    pub bucket_cap: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            k: 15,
            w: 5,
            bucket_cap: 64,
        }
    }
}

/// One seed hit: read position → reference position of a shared k-mer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Offset of the k-mer in the read.
    pub read_pos: u32,
    /// Offset of the k-mer in the reference.
    pub ref_pos: u32,
}

impl Seed {
    /// The diagonal this seed lies on (`ref_pos − read_pos`); colinear
    /// seeds of an indel-free alignment share it exactly, indels move it
    /// by the net indel length.
    pub fn diagonal(&self) -> i64 {
        self.ref_pos as i64 - self.read_pos as i64
    }
}

/// Minimizer index over a reference genome.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    cfg: IndexConfig,
    buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>>,
    masked: usize,
    selected: usize,
}

/// SplitMix64 finalizer: the order-scrambling hash minimizer selection
/// ranks k-mers by, so homopolymer-heavy k-mers don't systematically win.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher of the bucket map: its keys are already-packed k-mers, so one
/// [`mix`] round (a bijection on `u64`) replaces SipHash-ing eight bytes on
/// every reference minimizer at build time and every read minimizer at
/// lookup. Not keyed: a reference crafted against `mix` can slow its own
/// index down, which the bucket cap does not bound.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix(self.0 ^ key);
    }

    fn write(&mut self, bytes: &[u8]) {
        // `u64` keys arrive through `write_u64`; this is the trait's
        // required method, kept total.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// The minimizer positions of `seq`: for every window of `w` consecutive
/// k-mers, the position (leftmost on hash ties) of the smallest-hash k-mer.
/// Returned positions are unique and ascending; `w = 1` yields every k-mer
/// start. Shared by index construction and read lookup so both sides select
/// identically.
pub fn minimizers(seq: &[Base], k: usize, w: usize) -> Vec<(u32, u64)> {
    assert!((1..=31).contains(&k), "k must be in 1..=31");
    assert!(w >= 1, "minimizer window must be >= 1");
    if seq.len() < k {
        return Vec::new();
    }
    let n_kmers = seq.len() - k + 1;
    // Rolling 2-bit pack (A=0 … T=3): each base shifts in once and falls
    // off the top after k positions.
    let mask = (1u64 << (2 * k)) - 1;
    let mut key = 0u64;
    let mut keys: Vec<u64> = Vec::with_capacity(n_kmers);
    for (p, b) in seq.iter().enumerate() {
        key = ((key << 2) | u64::from(b.code())) & mask;
        if p + 1 >= k {
            keys.push(key);
        }
    }
    if w == 1 {
        return keys
            .iter()
            .enumerate()
            .map(|(p, &key)| (p as u32, key))
            .collect();
    }
    let hashes: Vec<u64> = keys.iter().map(|&key| mix(key)).collect();
    let mut out: Vec<(u32, u64)> = Vec::new();
    for win_lo in 0..n_kmers.saturating_sub(w - 1) {
        // Leftmost minimum of hashes[win_lo .. win_lo + w].
        let mut best = win_lo;
        for p in win_lo + 1..win_lo + w {
            if hashes[p] < hashes[best] {
                best = p;
            }
        }
        if out.last().map(|&(p, _)| p as usize) != Some(best) {
            out.push((best as u32, keys[best]));
        }
    }
    out
}

impl KmerIndex {
    /// Builds the index over a reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than `cfg.k` bases, `cfg.k` is
    /// outside `1..=31`, or `cfg.w`/`cfg.bucket_cap` is zero.
    pub fn build(genome: &DnaSeq, cfg: IndexConfig) -> Self {
        assert!(cfg.bucket_cap >= 1, "bucket cap must be >= 1");
        assert!(
            genome.len() >= cfg.k,
            "reference ({} bases) shorter than k ({})",
            genome.len(),
            cfg.k
        );
        let mins = minimizers(genome.as_slice(), cfg.k, cfg.w);
        let selected = mins.len();
        let mut buckets: HashMap<u64, Vec<u32>, _> = HashMap::default();
        for (pos, key) in mins {
            buckets.entry(key).or_default().push(pos);
        }
        let before = buckets.len();
        buckets.retain(|_, positions| positions.len() <= cfg.bucket_cap);
        let masked = before - buckets.len();
        Self {
            cfg,
            buckets,
            masked,
            selected,
        }
    }

    /// The seeding parameters the index was built with.
    pub fn config(&self) -> IndexConfig {
        self.cfg
    }

    /// Reference positions of a packed k-mer (empty if unseen or masked).
    pub fn lookup(&self, key: u64) -> &[u32] {
        self.buckets.get(&key).map_or(&[], |v| v.as_slice())
    }

    /// Number of k-mer buckets masked by the repeat cap.
    pub fn masked_buckets(&self) -> usize {
        self.masked
    }

    /// Number of distinct k-mer buckets kept.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of minimizers selected over the reference (before masking).
    pub fn selected_minimizers(&self) -> usize {
        self.selected
    }

    /// All seed hits between a read and the reference: the read's
    /// minimizers (same `k`/`w` as the index) looked up against the
    /// buckets. Hits are grouped by read position, ascending.
    pub fn seeds(&self, read: &[Base]) -> Vec<Seed> {
        let mut out = Vec::new();
        for (read_pos, key) in minimizers(read, self.cfg.k, self.cfg.w) {
            for &ref_pos in self.lookup(key) {
                out.push(Seed { read_pos, ref_pos });
            }
        }
        out
    }
}

/// The Watson–Crick reverse complement of a read, for mapping the opposite
/// strand against a forward-only index.
pub fn reverse_complement(read: &[Base]) -> Vec<Base> {
    read.iter().rev().map(|b| b.complement()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_seq::gen::GenomeGenerator;

    fn genome(len: usize, seed: u64) -> DnaSeq {
        GenomeGenerator::new(seed).generate(len)
    }

    /// Packs `seq[pos .. pos + k]` into 2-bit codes (A=0 … T=3), a base at
    /// a time: what the rolling pack of [`minimizers`] has to equal.
    fn pack(seq: &[Base], pos: usize, k: usize) -> u64 {
        seq[pos..pos + k]
            .iter()
            .fold(0u64, |acc, b| (acc << 2) | b.code() as u64)
    }

    #[test]
    fn dense_index_recovers_every_position() {
        let g = genome(500, 1);
        let cfg = IndexConfig {
            k: 11,
            w: 1,
            bucket_cap: usize::MAX,
        };
        let idx = KmerIndex::build(&g, cfg);
        for p in 0..g.len() - cfg.k + 1 {
            let key = pack(g.as_slice(), p, cfg.k);
            assert!(
                idx.lookup(key).contains(&(p as u32)),
                "position {p} missing from its bucket"
            );
        }
    }

    /// `minimizers` as first written: every key folded from its k bases,
    /// every window's leftmost minimum found by rescanning it.
    fn minimizers_by_fold(seq: &[Base], k: usize, w: usize) -> Vec<(u32, u64)> {
        let Some(n_kmers) = (seq.len() + 1).checked_sub(k) else {
            return Vec::new();
        };
        let keys: Vec<u64> = (0..n_kmers).map(|p| pack(seq, p, k)).collect();
        let mut out: Vec<(u32, u64)> = Vec::new();
        for win_lo in 0..(n_kmers + 1).saturating_sub(w) {
            let best = (win_lo..win_lo + w).min_by_key(|&p| mix(keys[p])).unwrap();
            if out.last().map(|&(p, _)| p as usize) != Some(best) {
                out.push((best as u32, keys[best]));
            }
        }
        out
    }

    #[test]
    fn rolling_keys_equal_the_per_position_fold() {
        // The edges of the rolling pack: k = 1 (mask of two bits), k = 31
        // (62 of 64 bits, nothing may survive above the mask), a sequence
        // of exactly one k-mer, one base short of one, and the default.
        let g = genome(700, 9);
        for k in [1usize, 2, 15, 30, 31] {
            for w in [1usize, 2, 5, 9] {
                for len in [k - 1, k, k + 1, k + w - 1, k + w, 700] {
                    let seq = &g.as_slice()[..len.min(700)];
                    assert_eq!(
                        minimizers(seq, k, w),
                        minimizers_by_fold(seq, k, w),
                        "k {k} w {w} len {len}"
                    );
                }
            }
        }
        let poly_t = [Base::T; 40];
        assert_eq!(minimizers(&poly_t, 31, 1)[9], (9, (1u64 << 62) - 1));
        assert_eq!(minimizers(&poly_t, 1, 1)[39], (39, 3));
    }

    #[test]
    fn index_accounting_and_seed_order_do_not_depend_on_the_hasher() {
        // Counted the slow way from the minimizer list itself.
        let g = genome(30_000, 6);
        let cfg = IndexConfig {
            k: 9,
            w: 4,
            bucket_cap: 3,
        };
        let idx = KmerIndex::build(&g, cfg);
        let mins = minimizers(g.as_slice(), cfg.k, cfg.w);
        let mut by_key = std::collections::BTreeMap::<u64, Vec<u32>>::new();
        for &(pos, key) in &mins {
            by_key.entry(key).or_default().push(pos);
        }
        let kept = by_key.values().filter(|v| v.len() <= cfg.bucket_cap);
        assert_eq!(idx.selected_minimizers(), mins.len());
        assert_eq!(idx.buckets(), kept.clone().count());
        assert_eq!(idx.masked_buckets(), by_key.len() - idx.buckets());
        assert!(idx.masked_buckets() > 0, "nothing exercised the cap");
        let read = g.window(12_345, 400);
        let want: Vec<Seed> = minimizers(read.as_slice(), cfg.k, cfg.w)
            .into_iter()
            .flat_map(|(read_pos, key)| {
                let hits = by_key.get(&key).filter(|v| v.len() <= cfg.bucket_cap);
                hits.into_iter()
                    .flatten()
                    .map(move |&ref_pos| Seed { read_pos, ref_pos })
            })
            .collect();
        assert_eq!(idx.seeds(read.as_slice()), want);
    }

    #[test]
    fn minimizer_density_is_about_two_over_w_plus_one() {
        let g = genome(20_000, 2);
        let mins = minimizers(g.as_slice(), 15, 10);
        let density = mins.len() as f64 / g.len() as f64;
        // Random minimizer density tends to 2 / (w + 1) ≈ 0.18 for w = 10.
        assert!((0.12..0.30).contains(&density), "density {density}");
    }

    #[test]
    fn shared_window_shares_a_minimizer() {
        // The winnowing guarantee: two sequences sharing w + k − 1 exact
        // bases share at least one selected k-mer.
        let (k, w) = (9usize, 6usize);
        let g = genome(2_000, 3);
        let idx = KmerIndex::build(
            &g,
            IndexConfig {
                k,
                w,
                bucket_cap: usize::MAX,
            },
        );
        for start in (0..1_500).step_by(97) {
            let read = g.window(start, w + k - 1);
            let seeds = idx.seeds(read.as_slice());
            assert!(
                seeds
                    .iter()
                    .any(|s| s.ref_pos as usize == start + s.read_pos as usize),
                "window at {start} shares no minimizer"
            );
        }
    }

    #[test]
    fn bucket_cap_masks_homopolymer_repeats() {
        // A genome that is half homopolymer: the AAAA... k-mer bucket
        // explodes and must be masked, while unique k-mers survive.
        let mut bases: Vec<Base> = vec![Base::A; 600];
        bases.extend(genome(600, 4).iter().copied());
        let g = DnaSeq::new(bases);
        let capped = KmerIndex::build(
            &g,
            IndexConfig {
                k: 11,
                w: 1,
                bucket_cap: 32,
            },
        );
        assert!(capped.masked_buckets() >= 1, "poly-A bucket not masked");
        let poly_a = pack(&[Base::A; 11], 0, 11);
        assert!(capped.lookup(poly_a).is_empty());
        // Unique sequence is still seedable.
        let read = g.window(800, 60);
        assert!(!capped.seeds(read.as_slice()).is_empty());
    }

    #[test]
    fn reverse_complement_round_trips() {
        let g = genome(64, 5);
        let rc = reverse_complement(g.as_slice());
        let back = reverse_complement(&rc);
        assert_eq!(back, g.as_slice());
        assert_eq!(rc[0], g[g.len() - 1].complement());
    }

    #[test]
    #[should_panic(expected = "shorter than k")]
    fn tiny_reference_panics() {
        let g: DnaSeq = "ACG".parse().unwrap();
        KmerIndex::build(&g, IndexConfig::default());
    }
}
