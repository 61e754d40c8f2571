//! The CPU software baseline: an independent, library-style implementation
//! of the paper's alignment kernels, standing in for SeqAn3 / minimap2 /
//! EMBOSS Water (§6.3).
//!
//! These are **separate implementations** from the kernel specs — scalar
//! rolling-row DP loops with O(R) memory and no traceback, the shape a tuned
//! CPU library actually executes for score-only batch alignment — so the
//! CPU-vs-FPGA comparison is not simulator-vs-itself. Functional agreement
//! with the reference engine is asserted by tests.
//!
//! [`measure_throughput`] runs a workload across scoped threads (like
//! SeqAn3's 32-thread configuration) and reports wall-clock
//! alignments/second.

use dphls_kernels::{AffineParams, LinearParams, ProteinParams, TwoPieceParams};
use dphls_seq::{AminoAcid, Base};
use std::time::Instant;

const NEG: i32 = i32::MIN / 4;

/// Global linear (Needleman-Wunsch) score, rolling single row.
pub fn nw_score(q: &[Base], r: &[Base], p: &LinearParams<i32>) -> i32 {
    let mut row: Vec<i32> = (0..=r.len() as i32).map(|j| j * p.gap).collect();
    for (i, &qc) in q.iter().enumerate() {
        let mut diag = row[0];
        row[0] = (i as i32 + 1) * p.gap;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            let m = (diag + sub).max(row[j + 1] + p.gap).max(row[j] + p.gap);
            diag = row[j + 1];
            row[j + 1] = m;
        }
    }
    row[r.len()]
}

/// Local linear (Smith-Waterman) score.
pub fn sw_score(q: &[Base], r: &[Base], p: &LinearParams<i32>) -> i32 {
    let mut row = vec![0i32; r.len() + 1];
    let mut best = 0i32;
    for &qc in q {
        let mut diag = row[0];
        row[0] = 0;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            let m = 0
                .max(diag + sub)
                .max(row[j + 1] + p.gap)
                .max(row[j] + p.gap);
            diag = row[j + 1];
            row[j + 1] = m;
            best = best.max(m);
        }
    }
    best
}

/// Overlap alignment score: free ends, best over last row and column.
pub fn overlap_score(q: &[Base], r: &[Base], p: &LinearParams<i32>) -> i32 {
    let mut row = vec![0i32; r.len() + 1];
    let mut best = NEG;
    for (i, &qc) in q.iter().enumerate() {
        let mut diag = row[0];
        row[0] = 0;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            let m = (diag + sub).max(row[j + 1] + p.gap).max(row[j] + p.gap);
            diag = row[j + 1];
            row[j + 1] = m;
            if j + 1 == r.len() || i + 1 == q.len() {
                best = best.max(m);
            }
        }
    }
    best
}

/// Semi-global score: query end-to-end, best over the last row.
pub fn semi_global_score(q: &[Base], r: &[Base], p: &LinearParams<i32>) -> i32 {
    let mut row = vec![0i32; r.len() + 1];
    for (i, &qc) in q.iter().enumerate() {
        let mut diag = row[0];
        row[0] = (i as i32 + 1) * p.gap;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            let m = (diag + sub).max(row[j + 1] + p.gap).max(row[j] + p.gap);
            diag = row[j + 1];
            row[j + 1] = m;
        }
        if i + 1 == q.len() {
            return *row[1..].iter().max().expect("non-empty reference");
        }
    }
    row[r.len()]
}

/// Global affine (Gotoh) score with two rolling rows for H and I (D only
/// needs the current row).
pub fn affine_global_score(q: &[Base], r: &[Base], p: &AffineParams<i32>) -> i32 {
    let n = r.len();
    let ramp = |k: usize| p.gap_open + (k as i32 - 1) * p.gap_extend;
    // prev_* hold row i-1; cur_* hold row i.
    let mut prev_h: Vec<i32> = (0..=n).map(|j| if j == 0 { 0 } else { ramp(j) }).collect();
    let mut prev_i: Vec<i32> = vec![NEG; n + 1];
    let mut cur_h = vec![0i32; n + 1];
    let mut cur_i = vec![0i32; n + 1];
    let mut cur_d = vec![0i32; n + 1];
    for (ii, &qc) in q.iter().enumerate() {
        cur_h[0] = ramp(ii + 1);
        cur_i[0] = ramp(ii + 1);
        cur_d[0] = NEG;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            cur_i[j + 1] = (prev_h[j + 1] + p.gap_open).max(prev_i[j + 1] + p.gap_extend);
            cur_d[j + 1] = (cur_h[j] + p.gap_open).max(cur_d[j] + p.gap_extend);
            cur_h[j + 1] = (prev_h[j] + sub).max(cur_i[j + 1]).max(cur_d[j + 1]);
        }
        std::mem::swap(&mut prev_h, &mut cur_h);
        std::mem::swap(&mut prev_i, &mut cur_i);
    }
    prev_h[n]
}

/// Local affine (Smith-Waterman-Gotoh) score.
pub fn affine_local_score(q: &[Base], r: &[Base], p: &AffineParams<i32>) -> i32 {
    let n = r.len();
    let mut prev_h = vec![0i32; n + 1];
    let mut prev_i = vec![NEG; n + 1];
    let mut cur_h = vec![0i32; n + 1];
    let mut cur_i = vec![0i32; n + 1];
    let mut cur_d = vec![0i32; n + 1];
    let mut best = 0i32;
    for &qc in q {
        cur_h[0] = 0;
        cur_i[0] = NEG;
        cur_d[0] = NEG;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            cur_i[j + 1] = (prev_h[j + 1] + p.gap_open).max(prev_i[j + 1] + p.gap_extend);
            cur_d[j + 1] = (cur_h[j] + p.gap_open).max(cur_d[j] + p.gap_extend);
            cur_h[j + 1] = 0.max(prev_h[j] + sub).max(cur_i[j + 1]).max(cur_d[j + 1]);
            best = best.max(cur_h[j + 1]);
        }
        std::mem::swap(&mut prev_h, &mut cur_h);
        std::mem::swap(&mut prev_i, &mut cur_i);
    }
    best
}

/// Global two-piece affine score (minimap2's gap model).
pub fn two_piece_global_score(q: &[Base], r: &[Base], p: &TwoPieceParams<i32>) -> i32 {
    let n = r.len();
    let ramp = |k: usize| {
        let k = k as i32;
        (p.gap_open1 + (k - 1) * p.gap_extend1).max(p.gap_open2 + (k - 1) * p.gap_extend2)
    };
    let mut prev_h: Vec<i32> = (0..=n).map(|j| if j == 0 { 0 } else { ramp(j) }).collect();
    let mut prev_i1: Vec<i32> = vec![NEG; n + 1];
    let mut prev_i2: Vec<i32> = vec![NEG; n + 1];
    let mut cur_h = vec![0i32; n + 1];
    let mut cur_i1 = vec![0i32; n + 1];
    let mut cur_i2 = vec![0i32; n + 1];
    let mut cur_d1 = vec![0i32; n + 1];
    let mut cur_d2 = vec![0i32; n + 1];
    for (ii, &qc) in q.iter().enumerate() {
        let vr = ramp(ii + 1);
        cur_h[0] = vr;
        cur_i1[0] = p.gap_open1 + ii as i32 * p.gap_extend1;
        cur_i2[0] = p.gap_open2 + ii as i32 * p.gap_extend2;
        cur_d1[0] = NEG;
        cur_d2[0] = NEG;
        for (j, &rc) in r.iter().enumerate() {
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            cur_i1[j + 1] = (prev_h[j + 1] + p.gap_open1).max(prev_i1[j + 1] + p.gap_extend1);
            cur_d1[j + 1] = (cur_h[j] + p.gap_open1).max(cur_d1[j] + p.gap_extend1);
            cur_i2[j + 1] = (prev_h[j + 1] + p.gap_open2).max(prev_i2[j + 1] + p.gap_extend2);
            cur_d2[j + 1] = (cur_h[j] + p.gap_open2).max(cur_d2[j] + p.gap_extend2);
            cur_h[j + 1] = (prev_h[j] + sub)
                .max(cur_i1[j + 1])
                .max(cur_d1[j + 1])
                .max(cur_i2[j + 1])
                .max(cur_d2[j + 1]);
        }
        std::mem::swap(&mut prev_h, &mut cur_h);
        std::mem::swap(&mut prev_i1, &mut cur_i1);
        std::mem::swap(&mut prev_i2, &mut cur_i2);
    }
    prev_h[n]
}

/// Banded global linear score (`|i − j| ≤ w`).
pub fn banded_nw_score(q: &[Base], r: &[Base], p: &LinearParams<i32>, w: usize) -> i32 {
    let n = r.len();
    let mut row: Vec<i32> = (0..=n)
        .map(|j| if j <= w { j as i32 * p.gap } else { NEG })
        .collect();
    for (i, &qc) in q.iter().enumerate() {
        let i1 = i + 1;
        let mut diag = row[0];
        row[0] = if i1 <= w { i1 as i32 * p.gap } else { NEG };
        let lo = i1.saturating_sub(w).max(1);
        let hi = (i1 + w).min(n);
        for j in 1..=n {
            if j < lo || j > hi {
                diag = row[j];
                row[j] = NEG;
                continue;
            }
            let rc = r[j - 1];
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            // Out-of-band neighbors already hold NEG from earlier sweeps.
            let m = (diag + sub).max(row[j] + p.gap).max(row[j - 1] + p.gap);
            diag = row[j];
            row[j] = m;
        }
    }
    row[n]
}

/// Banded local affine score (the BSW workload shape, #12).
pub fn banded_affine_local_score(q: &[Base], r: &[Base], p: &AffineParams<i32>, w: usize) -> i32 {
    let n = r.len();
    let mut prev_h = vec![0i32; n + 1];
    let mut prev_i = vec![NEG; n + 1];
    let mut cur_h = vec![0i32; n + 1];
    let mut cur_i = vec![0i32; n + 1];
    let mut cur_d = vec![0i32; n + 1];
    let mut best = 0i32;
    for (ii, &qc) in q.iter().enumerate() {
        let i1 = ii + 1;
        cur_h[0] = 0;
        cur_i[0] = NEG;
        cur_d[0] = NEG;
        let lo = i1.saturating_sub(w).max(1);
        let hi = (i1 + w).min(n);
        for j in 1..=n {
            if j < lo || j > hi {
                cur_h[j] = NEG;
                cur_i[j] = NEG;
                cur_d[j] = NEG;
                continue;
            }
            let rc = r[j - 1];
            let sub = if qc == rc { p.match_score } else { p.mismatch };
            cur_i[j] = (prev_h[j] + p.gap_open).max(prev_i[j] + p.gap_extend);
            cur_d[j] = (cur_h[j - 1] + p.gap_open).max(cur_d[j - 1] + p.gap_extend);
            cur_h[j] = 0.max(prev_h[j - 1] + sub).max(cur_i[j]).max(cur_d[j]);
            best = best.max(cur_h[j]);
        }
        std::mem::swap(&mut prev_h, &mut cur_h);
        std::mem::swap(&mut prev_i, &mut cur_i);
    }
    best
}

/// Protein Smith-Waterman with a substitution matrix (EMBOSS Water shape).
pub fn protein_sw_score(q: &[AminoAcid], r: &[AminoAcid], p: &ProteinParams<i32>) -> i32 {
    let mut row = vec![0i32; r.len() + 1];
    let mut best = 0i32;
    for &qc in q {
        let mut diag = row[0];
        row[0] = 0;
        let mrow = &p.matrix[qc.index()];
        for (j, &rc) in r.iter().enumerate() {
            let m = 0
                .max(diag + mrow[rc.index()])
                .max(row[j + 1] + p.gap)
                .max(row[j] + p.gap);
            diag = row[j + 1];
            row[j + 1] = m;
            best = best.max(m);
        }
    }
    best
}

/// Runs `align` over the workload on `threads` OS threads and returns
/// wall-clock throughput in alignments/second (the paper's CPU measurement
/// method: total wall time of the batch).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn measure_throughput<T: Sync, F>(workload: &[T], threads: usize, align: F) -> f64
where
    F: Fn(&T) + Sync,
{
    assert!(threads > 0, "thread count must be non-zero");
    if workload.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let chunk = workload.len().div_ceil(threads);
    let align = &align;
    std::thread::scope(|scope| {
        for piece in workload.chunks(chunk) {
            scope.spawn(move || {
                for item in piece {
                    align(item);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    workload.len() as f64 / secs.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dphls_core::{run_reference, Banding};
    use dphls_kernels as kn;
    use dphls_seq::gen::{ProteinSampler, ReadSimulator};
    use dphls_seq::DnaSeq;

    fn pairs(n: usize, len: usize) -> Vec<(DnaSeq, DnaSeq)> {
        let mut sim = ReadSimulator::new(99);
        sim.read_pairs(n, len, 0.25)
            .into_iter()
            .map(|(r, mut q)| {
                q.truncate(len);
                (q, r)
            })
            .collect()
    }

    #[test]
    fn nw_matches_reference_engine() {
        let p = LinearParams::<i32>::dna();
        for (q, r) in pairs(6, 48) {
            let want = run_reference::<kn::GlobalLinear<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(nw_score(q.as_slice(), r.as_slice(), &p), want.best_score);
        }
    }

    #[test]
    fn sw_matches_reference_engine() {
        let p = LinearParams::<i32>::dna();
        for (q, r) in pairs(6, 48) {
            let want = run_reference::<kn::LocalLinear<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(sw_score(q.as_slice(), r.as_slice(), &p), want.best_score);
        }
    }

    #[test]
    fn overlap_and_semiglobal_match_reference() {
        let p = LinearParams::<i32>::dna();
        for (q, r) in pairs(5, 40) {
            let want_o =
                run_reference::<kn::Overlap<i32>>(&p, q.as_slice(), r.as_slice(), Banding::None);
            assert_eq!(
                overlap_score(q.as_slice(), r.as_slice(), &p),
                want_o.best_score
            );
            let want_s =
                run_reference::<kn::SemiGlobal<i32>>(&p, q.as_slice(), r.as_slice(), Banding::None);
            assert_eq!(
                semi_global_score(q.as_slice(), r.as_slice(), &p),
                want_s.best_score
            );
        }
    }

    #[test]
    fn affine_matches_reference_engine() {
        let p = AffineParams::<i32>::dna();
        for (q, r) in pairs(6, 40) {
            let want_g = run_reference::<kn::GlobalAffine<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(
                affine_global_score(q.as_slice(), r.as_slice(), &p),
                want_g.best_score
            );
            let want_l = run_reference::<kn::LocalAffine<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(
                affine_local_score(q.as_slice(), r.as_slice(), &p),
                want_l.best_score
            );
        }
    }

    #[test]
    fn two_piece_matches_reference_engine() {
        let p = TwoPieceParams::<i32>::dna();
        for (q, r) in pairs(5, 40) {
            let want = run_reference::<kn::GlobalTwoPiece<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(
                two_piece_global_score(q.as_slice(), r.as_slice(), &p),
                want.best_score
            );
        }
    }

    #[test]
    fn banded_matches_reference_engine() {
        let p = LinearParams::<i32>::dna();
        let pa = AffineParams::<i32>::dna();
        for (q, r) in pairs(5, 40) {
            let want = run_reference::<kn::BandedGlobalLinear<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::Fixed { half_width: 8 },
            );
            assert_eq!(
                banded_nw_score(q.as_slice(), r.as_slice(), &p, 8),
                want.best_score
            );
            let want_a = run_reference::<kn::BandedLocalAffine<i32>>(
                &pa,
                q.as_slice(),
                r.as_slice(),
                Banding::Fixed { half_width: 8 },
            );
            assert_eq!(
                banded_affine_local_score(q.as_slice(), r.as_slice(), &pa, 8),
                want_a.best_score
            );
        }
    }

    #[test]
    fn protein_matches_reference_engine() {
        let p = ProteinParams::<i32>::blosum62();
        let mut s = ProteinSampler::new(3);
        for _ in 0..5 {
            let (q, r) = s.homolog_pair(40, 0.6);
            let want = run_reference::<kn::ProteinLocal<i32>>(
                &p,
                q.as_slice(),
                r.as_slice(),
                Banding::None,
            );
            assert_eq!(
                protein_sw_score(q.as_slice(), r.as_slice(), &p),
                want.best_score
            );
        }
    }

    #[test]
    fn throughput_measurement_is_positive_and_scales() {
        let p = LinearParams::<i32>::dna();
        // Enough work that the alignments, not the thread spawns, fill each
        // timing; the best of three interleaved timings, so that a burst of
        // load from sibling tests lands on both thread counts alike.
        let wl = pairs(128, 128);
        let measure = |threads| {
            measure_throughput(&wl, threads, |(q, r)| {
                std::hint::black_box(nw_score(q.as_slice(), r.as_slice(), &p));
            })
        };
        let (mut t1, mut t4) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            t1 = t1.max(measure(1));
            t4 = t4.max(measure(4));
        }
        assert!(t1 > 0.0);
        // Multi-threading should not be drastically slower.
        assert!(t4 > t1 * 0.5, "4 threads {t4:.0}/s, 1 thread {t1:.0}/s");
    }

    #[test]
    fn empty_workload_throughput_zero() {
        let wl: Vec<(DnaSeq, DnaSeq)> = vec![];
        assert_eq!(measure_throughput(&wl, 2, |_| {}), 0.0);
    }
}
