//! **Figure 5** — NPE-scaling comparison of Global Affine (#2) against GACT
//! with `NB = 1`: throughput in log-log (A) and FF / LUT utilization (B, C).
//! The paper's observation: the relative throughput stays consistent and
//! the resource difference stays roughly constant as NPE grows.

use crate::harness::{collect_cases, profile_of, sweep_workload};
use dphls_baselines::rtl::{rtl_resources, RtlDesign};
use dphls_core::KernelConfig;
use dphls_fpga::estimate_block;
use dphls_systolic::CycleModelParams;
use dphls_util::{sci, Table};
use std::sync::OnceLock;

/// One NPE sample of the #2-vs-GACT comparison.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// PEs per block.
    pub npe: usize,
    /// DP-HLS throughput (alignments/s).
    pub dphls_aps: f64,
    /// GACT model throughput.
    pub gact_aps: f64,
    /// DP-HLS block FFs.
    pub dphls_ff: u64,
    /// GACT block FFs.
    pub gact_ff: u64,
    /// DP-HLS block LUTs.
    pub dphls_lut: u64,
    /// GACT block LUTs.
    pub gact_lut: u64,
}

/// The swept NPE values (paper's x axis).
pub const NPE_VALUES: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Reproduces Fig 5.
/// Computed once per process (the model is deterministic); every caller,
/// the JSON report and the tests included, gets a copy.
pub fn run() -> Vec<Fig5Point> {
    static POINTS: OnceLock<Vec<Fig5Point>> = OnceLock::new();
    POINTS.get_or_init(compute).clone()
}

fn compute() -> Vec<Fig5Point> {
    let cases = collect_cases(&sweep_workload());
    let case = &cases[1]; // kernel #2
    let info = &case.info;
    let profile = profile_of(info);
    let ii = dphls_fpga::derive_ii(&info.op_counts, info.ii_hint);
    NPE_VALUES
        .iter()
        .map(|&npe| {
            let cfg = KernelConfig::new(npe, 1, 1);
            let dphls = case.run_unverified(&cfg, &CycleModelParams::dphls(), 250.0, ii);
            let gact = case.run_unverified(&cfg, &CycleModelParams::rtl_overlapped(), 250.0, 1);
            let d_res = estimate_block(&profile, &cfg);
            let g_res = rtl_resources(RtlDesign::Gact, &profile, &cfg);
            Fig5Point {
                npe,
                dphls_aps: dphls.throughput_aps,
                gact_aps: gact.throughput_aps,
                dphls_ff: d_res.ff,
                gact_ff: g_res.ff,
                dphls_lut: d_res.lut,
                gact_lut: g_res.lut,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[Fig5Point]) -> Table {
    let mut t = Table::new(
        [
            "NPE",
            "DP-HLS aln/s",
            "GACT aln/s",
            "rel",
            "FF D/G",
            "LUT D/G",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    t.title("Fig 5 — Global Affine (#2) vs GACT scaling with NPE (NB=1)");
    for p in points {
        t.row(vec![
            p.npe.to_string(),
            sci(p.dphls_aps),
            sci(p.gact_aps),
            format!("{:.3}", p.dphls_aps / p.gact_aps),
            format!("{}/{}", p.dphls_ff, p.gact_ff),
            format!("{}/{}", p.dphls_lut, p.gact_lut),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_relation_is_consistent_across_npe() {
        let pts = run();
        // Paper Fig 5A: the two curves track each other; the ratio varies
        // little across the sweep.
        let ratios: Vec<f64> = pts.iter().map(|p| p.dphls_aps / p.gact_aps).collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.35, "ratio drift {min}..{max}");
        // And DP-HLS always trails, as in Fig 4A.
        assert!(ratios.iter().all(|&r| r < 1.0));
    }

    #[test]
    fn both_scale_with_npe() {
        let pts = run();
        assert!(pts.last().unwrap().dphls_aps > pts[0].dphls_aps * 4.0);
        assert!(pts.last().unwrap().gact_aps > pts[0].gact_aps * 4.0);
    }

    #[test]
    fn resource_difference_stays_bounded() {
        // Paper Fig 5B-C: "the resource usage difference stays constant"
        // (a constant multiplicative offset on the log plot).
        for p in run() {
            let ff_ratio = p.dphls_ff as f64 / p.gact_ff as f64;
            let lut_ratio = p.dphls_lut as f64 / p.gact_lut as f64;
            assert!((1.0..1.3).contains(&ff_ratio), "FF ratio {ff_ratio}");
            assert!((1.0..1.3).contains(&lut_ratio), "LUT ratio {lut_ratio}");
        }
    }

    #[test]
    fn render_has_all_npe_rows() {
        let s = render(&run()).to_string();
        for npe in NPE_VALUES {
            assert!(s
                .lines()
                .any(|l| l.trim_start().starts_with(&npe.to_string())));
        }
    }
}
