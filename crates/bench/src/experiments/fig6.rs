//! **Figure 6** — iso-cost throughput comparison of DP-HLS kernels against
//! CPU baselines (A: SeqAn3, minimap2, EMBOSS Water) and GPU baselines
//! (B: GASAL2, CUDASW++ 4.0).
//!
//! Two baseline columns are reported per kernel:
//!
//! * **paper-calibrated** — the baseline's iso-cost throughput implied by
//!   the paper's published speedup ratios (the exact Fig 6 shape;
//!   `dphls_baselines::published`), and
//! * **measured** — our independent multi-threaded Rust implementation of
//!   the same kernel (`dphls_baselines::software`), timed on this machine.
//!   This column is machine-dependent; it demonstrates the comparison is
//!   runnable end-to-end, while the calibrated column carries the paper's
//!   numbers.

use super::table2;
use dphls_baselines::published::{PublishedBaseline, CPU_BASELINES, GPU_BASELINES};
use dphls_baselines::software;
use dphls_kernels::{AffineParams, LinearParams, ProteinParams, TwoPieceParams};
use dphls_seq::gen::{ProteinSampler, ReadSimulator};
use dphls_seq::{AminoAcid, Base};
use dphls_util::{sci, Table};

/// One Fig 6 comparison row.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Kernel id.
    pub kernel_id: u8,
    /// Baseline tool name.
    pub tool: &'static str,
    /// DP-HLS modeled throughput (alignments/s).
    pub dphls_aps: f64,
    /// Paper-calibrated baseline throughput (iso-cost alignments/s).
    pub baseline_paper_aps: f64,
    /// Measured Rust baseline throughput on this machine (CPU rows only).
    pub baseline_measured_aps: Option<f64>,
    /// Paper-reported speedup.
    pub paper_speedup: f64,
    /// Modeled speedup against the paper-calibrated baseline.
    pub modeled_speedup: f64,
}

fn dna_workload(n: usize, len: usize, seed: u64) -> Vec<(Vec<Base>, Vec<Base>)> {
    let mut sim = ReadSimulator::new(seed);
    sim.read_pairs(n, len, 0.30)
        .into_iter()
        .map(|(r, mut q)| {
            q.truncate(len);
            (q.into_vec(), r.into_vec())
        })
        .collect()
}

fn protein_workload(n: usize, len: usize, seed: u64) -> Vec<(Vec<AminoAcid>, Vec<AminoAcid>)> {
    let mut s = ProteinSampler::new(seed);
    s.homolog_pairs(n, len, 0.6)
        .into_iter()
        .map(|(q, mut t)| {
            t.truncate(len);
            (q.into_vec(), t.into_vec())
        })
        .collect()
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(32) // the paper's 32-thread SeqAn3 configuration
}

/// Measures our Rust software baseline for a CPU-comparable kernel.
fn measure_cpu_baseline(kernel_id: u8, pairs: usize, len: usize) -> Option<f64> {
    let t = threads();
    let seed = 0xF16_u64 + kernel_id as u64;
    let lin = LinearParams::<i32>::dna();
    let aff = AffineParams::<i32>::dna();
    match kernel_id {
        1 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::nw_score(q, r, &lin);
            }))
        }
        2 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::affine_global_score(q, r, &aff);
            }))
        }
        3 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::sw_score(q, r, &lin);
            }))
        }
        4 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::affine_local_score(q, r, &aff);
            }))
        }
        5 => {
            let two = TwoPieceParams::<i32>::dna();
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, move |(q, r)| {
                software::two_piece_global_score(q, r, &two);
            }))
        }
        6 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::overlap_score(q, r, &lin);
            }))
        }
        7 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::semi_global_score(q, r, &lin);
            }))
        }
        11 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::banded_nw_score(q, r, &lin, 32);
            }))
        }
        12 => {
            let wl = dna_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, |(q, r)| {
                software::banded_affine_local_score(q, r, &aff, 32);
            }))
        }
        15 => {
            let prot = ProteinParams::<i32>::blosum62();
            let wl = protein_workload(pairs, len, seed);
            Some(software::measure_throughput(&wl, t, move |(q, r)| {
                software::protein_sw_score(q, r, &prot);
            }))
        }
        _ => None,
    }
}

fn build_rows(
    baselines: &[PublishedBaseline],
    dphls: &dyn Fn(u8) -> f64,
    measure: bool,
    pairs: usize,
    len: usize,
) -> Vec<Fig6Row> {
    baselines
        .iter()
        .map(|b| {
            let dphls_aps = dphls(b.kernel_id);
            let baseline_paper_aps = b.baseline_aln_per_sec();
            Fig6Row {
                kernel_id: b.kernel_id,
                tool: b.tool,
                dphls_aps,
                baseline_paper_aps,
                baseline_measured_aps: if measure {
                    measure_cpu_baseline(b.kernel_id, pairs, len)
                } else {
                    None
                },
                paper_speedup: b.paper_speedup,
                modeled_speedup: dphls_aps / baseline_paper_aps,
            }
        })
        .collect()
}

/// Reproduces Fig 6: `(cpu_rows, gpu_rows)`.
///
/// `measure_pairs` controls the measured-baseline workload size (hundreds
/// for stable timing; tests use fewer).
pub fn run(measure_pairs: usize) -> (Vec<Fig6Row>, Vec<Fig6Row>) {
    // DP-HLS's column is Table 2's modeled throughput, read, not re-run.
    let table2 = table2::run();
    let dphls = |id: u8| -> f64 {
        table2
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.aln_per_sec)
            .expect("kernel present")
    };
    let cpu = build_rows(
        &CPU_BASELINES,
        &dphls,
        measure_pairs > 0,
        measure_pairs,
        256,
    );
    let gpu = build_rows(&GPU_BASELINES, &dphls, false, 0, 256);
    (cpu, gpu)
}

/// Renders one panel.
pub fn render(title: &str, rows: &[Fig6Row]) -> Table {
    let mut t = Table::new(
        [
            "kernel",
            "baseline",
            "DP-HLS aln/s",
            "baseline aln/s (paper)",
            "measured Rust aln/s",
            "speedup",
            "paper speedup",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    t.title(title.to_string());
    for r in rows {
        t.row(vec![
            format!("#{}", r.kernel_id),
            r.tool.to_string(),
            sci(r.dphls_aps),
            sci(r.baseline_paper_aps),
            r.baseline_measured_aps.map_or("-".into(), sci),
            format!("{:.2}x", r.modeled_speedup),
            format!("{:.2}x", r.paper_speedup),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_panel_covers_paper_kernels() {
        let (cpu, gpu) = run(8);
        let ids: Vec<u8> = cpu.iter().map(|r| r.kernel_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7, 11, 12, 15]);
        assert_eq!(gpu.len(), 4);
    }

    #[test]
    fn dphls_wins_against_every_paper_baseline() {
        let (cpu, gpu) = run(0);
        for r in cpu.iter().chain(gpu.iter()) {
            assert!(
                r.modeled_speedup > 1.0,
                "#{} vs {}: speedup {:.2}",
                r.kernel_id,
                r.tool,
                r.modeled_speedup
            );
        }
    }

    #[test]
    fn compute_heavy_kernels_show_largest_wins() {
        // Paper: #5 (12x) and #15 (32x) dominate the CPU panel.
        let (cpu, _) = run(0);
        let speedup = |id: u8| {
            cpu.iter()
                .find(|r| r.kernel_id == id)
                .unwrap()
                .modeled_speedup
        };
        let seqan_max = [1u8, 2, 3, 4, 6, 7, 11, 12]
            .iter()
            .map(|&id| speedup(id))
            .fold(0.0, f64::max);
        assert!(
            speedup(5) > seqan_max,
            "#5 {:.1} !> {seqan_max:.1}",
            speedup(5)
        );
        assert!(speedup(15) > seqan_max);
    }

    #[test]
    fn measured_baseline_is_positive_where_defined() {
        let (cpu, _) = run(8);
        for r in &cpu {
            let m = r.baseline_measured_aps.expect("CPU rows are measurable");
            assert!(m > 0.0, "#{} measured {m}", r.kernel_id);
        }
    }

    #[test]
    fn render_has_both_columns() {
        let (cpu, _) = run(0);
        let s = render("Fig 6A", &cpu).to_string();
        assert!(s.contains("SeqAn3"));
        assert!(s.contains("EMBOSS"));
    }
}
