//! Differential verification: the systolic back-end must be functionally
//! identical to the reference engine for **every** kernel in Table 1 — the
//! reproduction's equivalent of the paper's C-simulation / co-simulation
//! functional checks (§6.2).

use dphls_core::{run_reference, Banding, KernelConfig, LaneKernel};
use dphls_kernels::registry::{visit_all, visit_kernel, CaseInfo, KernelVisitor, WorkloadSpec};
use dphls_kernels::{AffineParams, GlobalAffine};
use dphls_systolic::{run_systolic_ok, run_systolic_with_scratch, SystolicScratch};

/// Runs each kernel's workload through both engines and asserts equality of
/// score, best cell, and full traceback path.
struct DiffVisitor {
    npe: usize,
    kernels_checked: usize,
    pairs_checked: usize,
}

impl KernelVisitor for DiffVisitor {
    fn visit<K: LaneKernel>(
        &mut self,
        info: &CaseInfo,
        params: &K::Params,
        workload: &[(Vec<K::Sym>, Vec<K::Sym>)],
    ) {
        let banding = info.table2_config.banding;
        let max_len = workload
            .iter()
            .flat_map(|(q, r)| [q.len(), r.len()])
            .max()
            .unwrap_or(1);
        let config = KernelConfig {
            npe: self.npe.min(max_len),
            banding,
            ..KernelConfig::new(self.npe, 1, 1).with_max_lengths(max_len, max_len)
        };
        for (idx, (q, r)) in workload.iter().enumerate() {
            let sw = run_reference::<K>(params, q, r, banding);
            let hw = run_systolic_ok::<K>(params, q, r, &config);
            assert_eq!(
                hw.output, sw,
                "kernel {} ({}) pair {idx} diverged at NPE={}",
                info.meta.id, info.meta.name, config.npe
            );
            self.pairs_checked += 1;
        }
        self.kernels_checked += 1;
    }
}

#[test]
fn all_kernels_match_reference_at_npe_8() {
    let mut v = DiffVisitor {
        npe: 8,
        kernels_checked: 0,
        pairs_checked: 0,
    };
    let wl = WorkloadSpec {
        pairs: 4,
        len: 96,
        ..WorkloadSpec::default()
    };
    visit_all(&mut v, &wl);
    assert_eq!(v.kernels_checked, 15);
    assert!(v.pairs_checked >= 60);
}

#[test]
fn all_kernels_match_reference_at_npe_1_and_odd_npe() {
    // NPE=1 degenerates to row-serial execution; odd NPE exercises chunk
    // remainders (query length not a multiple of NPE).
    for npe in [1usize, 3, 5] {
        let mut v = DiffVisitor {
            npe,
            kernels_checked: 0,
            pairs_checked: 0,
        };
        let wl = WorkloadSpec {
            pairs: 2,
            len: 41,
            seed: 0xBEEF + npe as u64,
            ..WorkloadSpec::default()
        };
        visit_all(&mut v, &wl);
        assert_eq!(v.kernels_checked, 15);
    }
}

#[test]
fn kernel_one_matches_across_many_shapes() {
    // Dense sweep of NPE x length for the baseline kernel.
    for npe in [1usize, 2, 4, 7, 8, 16, 32] {
        for len in [3usize, 17, 33, 64] {
            let mut v = DiffVisitor {
                npe,
                kernels_checked: 0,
                pairs_checked: 0,
            };
            let wl = WorkloadSpec {
                pairs: 2,
                len,
                seed: (npe * 1000 + len) as u64,
                ..WorkloadSpec::default()
            };
            visit_kernel(1, &mut v, &wl);
            assert_eq!(v.kernels_checked, 1);
        }
    }
}

#[test]
fn banded_kernels_match_reference_with_narrow_band() {
    for id in [11u8, 12, 13] {
        let mut v = DiffVisitor {
            npe: 8,
            kernels_checked: 0,
            pairs_checked: 0,
        };
        let wl = WorkloadSpec {
            pairs: 3,
            len: 80,
            seed: 0xBA2D + id as u64,
            ..WorkloadSpec::default()
        };
        visit_kernel(id, &mut v, &wl);
        assert_eq!(v.kernels_checked, 1);
    }
}

/// Full alignments at the long affine benchmark's shape: 1500-bp
/// `GlobalAffine<i16>` pairs at 10 % error (every wavefront past the first
/// 32 lanes ends on an overlapping last block) through the scratch door,
/// held to the reference on score, best cell and the traceback path. These
/// pairs run on the kernel's `i8` difference form, so the pin also covers
/// it: pairs at 0 % and 100 % divergence (every base edited), where the
/// differences sit at their extremes, and — release only, the reference
/// matrix being 16 M cells — a 4000-bp pair, which runs as two 2000-row
/// strips, so the differences cross a strip edge in the preserved row.
#[test]
fn long_affine_pairs_match_reference_alignment_included() {
    const LEN: usize = 1_500;
    const LONG: usize = 4_000;
    let pairs = if cfg!(debug_assertions) { 2 } else { 8 };
    let mut sim = dphls_seq::gen::ReadSimulator::new(0x1500);
    let params = AffineParams::<i16>::dna();
    let config = KernelConfig::new(64, 1, 1).with_max_lengths(LONG, LONG);
    let mut scratch = SystolicScratch::new();
    let mut cases = sim.read_pairs(pairs, LEN, 0.1);
    cases.extend([sim.read_pair(LEN, 0.0), sim.read_pair(LEN, 1.0)]);
    if !cfg!(debug_assertions) {
        cases.push(sim.read_pair(LONG, 0.1));
    }
    for (idx, (r, mut q)) in cases.into_iter().enumerate() {
        q.truncate(r.len());
        let (q, r) = (q.as_slice(), r.as_slice());
        let sw = run_reference::<GlobalAffine<i16>>(&params, q, r, Banding::None);
        let hw =
            run_systolic_with_scratch::<GlobalAffine<i16>>(&params, q, r, &config, &mut scratch)
                .expect("valid pair");
        assert!(sw.alignment.is_some(), "pair {idx}: global walk");
        assert_eq!(hw.output, sw, "pair {idx} ({} × {})", q.len(), r.len());
    }
}
