//! **Table 2** — performance summary of all 15 DP-HLS kernels: resource
//! utilization of a 32-PE block, optimal `(NPE, NB, NK)`, maximum frequency,
//! and throughput.

use crate::harness::{collect_cases, default_workload, profile_of};
use dphls_core::KernelConfig;
use dphls_fpga::{estimate_block, XCVU9P};
use dphls_util::{pct, sci, Table};
use std::sync::OnceLock;

/// One reproduced Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Kernel id (1..=15).
    pub id: u8,
    /// Kernel name.
    pub name: &'static str,
    /// Modeled block utilization at 32 PEs `[LUT, FF, BRAM, DSP]`.
    pub util: [f64; 4],
    /// Paper-reported utilization `[LUT, FF, BRAM, DSP]`.
    pub paper_util: [f64; 4],
    /// Optimal `(NPE, NB, NK)` (from the paper's exploration).
    pub config: (usize, usize, usize),
    /// Modeled achieved frequency (MHz).
    pub freq_mhz: f64,
    /// Paper-reported frequency (MHz).
    pub paper_freq_mhz: f64,
    /// Modeled throughput (alignments/s) at the optimal configuration.
    pub aln_per_sec: f64,
    /// Paper-reported throughput.
    pub paper_aln_per_sec: f64,
    /// Whether the functional outputs matched the reference engine.
    pub verified: bool,
}

impl Table2Row {
    /// Modeled-vs-paper throughput ratio.
    pub fn throughput_ratio(&self) -> f64 {
        self.aln_per_sec / self.paper_aln_per_sec
    }
}

/// Reproduces Table 2.
/// Computed once per process (the model is deterministic); every caller,
/// the JSON report and the tests included, gets a copy.
pub fn run() -> Vec<Table2Row> {
    static ROWS: OnceLock<Vec<Table2Row>> = OnceLock::new();
    ROWS.get_or_init(compute).clone()
}

fn compute() -> Vec<Table2Row> {
    let cases = collect_cases(&default_workload());
    cases
        .iter()
        .map(|case| {
            let info = &case.info;
            // Resource column: a single 32-PE block (Table 2's granularity),
            // independent of the throughput-optimal NPE.
            let block32 = KernelConfig {
                npe: 32,
                nb: 1,
                nk: 1,
                ..info.table2_config
            };
            let util = estimate_block(&profile_of(info), &block32).utilization(&XCVU9P);
            let (synth, summary) = case.run_table2();
            Table2Row {
                id: info.meta.id.0,
                name: info.meta.name,
                util,
                paper_util: info.paper.util,
                config: (
                    info.table2_config.npe,
                    info.table2_config.nb,
                    info.table2_config.nk,
                ),
                freq_mhz: synth.fmax_mhz,
                paper_freq_mhz: info.paper.freq_mhz,
                aln_per_sec: summary.throughput_aps,
                paper_aln_per_sec: info.paper.aln_per_sec,
                verified: summary.matches_reference,
            }
        })
        .collect()
}

/// Renders the rows in the paper's layout, with paper reference columns.
pub fn render(rows: &[Table2Row]) -> Table {
    let mut t = Table::new(
        [
            "#",
            "LUT",
            "FF",
            "BRAM",
            "DSP",
            "(NPE,NB,NK)",
            "MHz",
            "aln/s",
            "paper aln/s",
            "ratio",
            "verified",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    t.title("Table 2 — Performance summary of 15 DP-HLS kernels (modeled vs paper)");
    for r in rows {
        t.row(vec![
            format!("#{}", r.id),
            pct(r.util[0]),
            pct(r.util[1]),
            pct(r.util[2]),
            pct(r.util[3]),
            format!("({},{},{})", r.config.0, r.config.1, r.config.2),
            format!("{:.1}", r.freq_mhz),
            sci(r.aln_per_sec),
            sci(r.paper_aln_per_sec),
            format!("{:.2}x", r.throughput_ratio()),
            if r.verified { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fifteen_verified_rows() {
        let rows = run();
        assert_eq!(rows.len(), 15);
        for r in &rows {
            assert!(r.verified, "kernel #{} failed verification", r.id);
            assert!(r.aln_per_sec > 0.0);
        }
    }

    #[test]
    fn throughput_shape_holds() {
        let rows = run();
        let by_id = |id: u8| rows.iter().find(|r| r.id == id).unwrap();
        // Every kernel within 3.5x of the paper's co-sim throughput (kernel
        // #9's signal length is unreported in the paper; see EXPERIMENTS.md).
        for r in &rows {
            let ratio = r.throughput_ratio();
            assert!(
                (0.28..3.5).contains(&ratio),
                "kernel #{}: ratio {ratio:.2}",
                r.id
            );
        }
        // Resource-heavy kernels (#8, #9, #10) are the slowest, as in the
        // paper ("resource-intensive kernels have relatively lower values").
        let slowest = rows
            .iter()
            .min_by(|a, b| a.aln_per_sec.partial_cmp(&b.aln_per_sec).unwrap())
            .unwrap();
        assert!(
            [8, 9, 10].contains(&slowest.id),
            "slowest was #{}",
            slowest.id
        );
        // #8 (profile) has the highest DSP utilization by far.
        let dsp8 = by_id(8).util[3];
        for r in rows.iter().filter(|r| r.id != 8) {
            assert!(dsp8 > 5.0 * r.util[3], "#8 DSP not dominant over #{}", r.id);
        }
    }

    #[test]
    fn bram_trends_match_paper() {
        let rows = run();
        let by_id = |id: u8| rows.iter().find(|r| r.id == id).unwrap();
        // Two-piece kernels (7-bit pointers) use more BRAM than linear (#1).
        assert!(by_id(5).util[2] > by_id(7).util[2]);
        // No-traceback kernels use the least BRAM (#12, #14).
        assert!(by_id(12).util[2] < by_id(1).util[2]);
        assert!(by_id(14).util[2] < by_id(1).util[2]);
        // Protein kernel's substitution matrix raises its BRAM (#15 > #3).
        assert!(by_id(15).util[2] > by_id(3).util[2]);
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = run();
        let s = render(&rows).to_string();
        assert!(s.contains("#1"));
        assert!(s.contains("#15"));
        assert!(s.contains("Table 2"));
    }
}
