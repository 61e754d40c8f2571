//! **Figure 4** — DP-HLS kernels #2, #12, #14 vs their hand-written RTL
//! baselines (GACT, BSW, SquiggleFilter): throughput (A–C) and resource
//! utilization (D–F). The paper reports DP-HLS within 7.7 % / 16.8 % /
//! 8.16 % of the baselines; the gap comes from the sequential vs overlapped
//! phase schedule (§7.3).

use crate::harness::{collect_cases, profile_of, sweep_workload};
use dphls_baselines::rtl::{rtl_resources, RtlDesign};
use dphls_fpga::{estimate_block, XCVU9P};
use dphls_systolic::CycleModelParams;
use dphls_util::{pct, sci, Table};
use std::sync::OnceLock;

/// One baseline comparison row.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Which RTL design.
    pub design: RtlDesign,
    /// DP-HLS kernel id.
    pub kernel_id: u8,
    /// DP-HLS modeled throughput (alignments/s).
    pub dphls_aps: f64,
    /// RTL baseline modeled throughput.
    pub rtl_aps: f64,
    /// Paper-reported margin (DP-HLS below RTL).
    pub paper_margin: f64,
    /// DP-HLS block utilization `[LUT, FF, BRAM, DSP]`.
    pub dphls_util: [f64; 4],
    /// RTL baseline block utilization.
    pub rtl_util: [f64; 4],
}

impl Fig4Row {
    /// Modeled margin: how far DP-HLS falls below the RTL baseline.
    pub fn modeled_margin(&self) -> f64 {
        1.0 - self.dphls_aps / self.rtl_aps
    }
}

/// Reproduces Fig 4 for all three designs.
/// Computed once per process (the model is deterministic); every caller,
/// the JSON report and the tests included, gets a copy.
pub fn run() -> Vec<Fig4Row> {
    static ROWS: OnceLock<Vec<Fig4Row>> = OnceLock::new();
    ROWS.get_or_init(compute).clone()
}

fn compute() -> Vec<Fig4Row> {
    let cases = collect_cases(&sweep_workload());
    [RtlDesign::Gact, RtlDesign::Bsw, RtlDesign::SquiggleFilter]
        .into_iter()
        .map(|design| {
            let case = cases
                .iter()
                .find(|c| c.info.meta.id.0 == design.kernel_id())
                .expect("registry covers all designs");
            let info = &case.info;
            let cfg = design.comparison_config();
            let profile = profile_of(info);
            let ii = dphls_fpga::derive_ii(&info.op_counts, info.ii_hint);
            // Both sides run at the same clock so the schedule difference is
            // isolated (the paper matches NPE/NB for the same reason).
            let freq = 250.0;
            let dphls = case.run(&cfg, &CycleModelParams::dphls(), freq, ii);
            let rtl = case.run(&cfg, &CycleModelParams::rtl_overlapped(), freq, 1);
            Fig4Row {
                design,
                kernel_id: design.kernel_id(),
                dphls_aps: dphls.throughput_aps,
                rtl_aps: rtl.throughput_aps,
                paper_margin: design.paper_margin(),
                dphls_util: estimate_block(&profile, &cfg).utilization(&XCVU9P),
                rtl_util: rtl_resources(design, &profile, &cfg).utilization(&XCVU9P),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[Fig4Row]) -> Table {
    let mut t = Table::new(
        [
            "design",
            "kernel",
            "DP-HLS aln/s",
            "RTL aln/s",
            "margin",
            "paper",
            "LUT(D/R)",
            "FF(D/R)",
            "BRAM(D/R)",
            "DSP(D/R)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    t.title("Fig 4 — DP-HLS vs hand-written RTL baselines (D = DP-HLS, R = RTL)");
    for r in rows {
        t.row(vec![
            r.design.name().to_string(),
            format!("#{}", r.kernel_id),
            sci(r.dphls_aps),
            sci(r.rtl_aps),
            format!("{:.1}%", 100.0 * r.modeled_margin()),
            format!("{:.1}%", 100.0 * r.paper_margin),
            format!("{}/{}", pct(r.dphls_util[0]), pct(r.rtl_util[0])),
            format!("{}/{}", pct(r.dphls_util[1]), pct(r.rtl_util[1])),
            format!("{}/{}", pct(r.dphls_util[2]), pct(r.rtl_util[2])),
            format!("{}/{}", pct(r.dphls_util[3]), pct(r.rtl_util[3])),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dphls_is_slower_but_competitive() {
        for r in run() {
            let m = r.modeled_margin();
            assert!(m > 0.0, "{}: DP-HLS should trail RTL", r.design.name());
            assert!(
                m < 0.30,
                "{}: margin {m:.3} too large (paper max 16.8%)",
                r.design.name()
            );
        }
    }

    #[test]
    fn margins_track_paper_ordering() {
        let rows = run();
        let margin = |id: u8| {
            rows.iter()
                .find(|r| r.kernel_id == id)
                .unwrap()
                .modeled_margin()
        };
        // Paper: BSW (#12, no traceback) shows the largest gap because the
        // sequential load/init is a bigger fraction of its short runtime.
        assert!(margin(12) > margin(2), "{} !> {}", margin(12), margin(2));
        // All margins within 12 percentage points of the paper's numbers.
        for r in &rows {
            assert!(
                (r.modeled_margin() - r.paper_margin).abs() < 0.12,
                "{}: modeled {:.3} vs paper {:.3}",
                r.design.name(),
                r.modeled_margin(),
                r.paper_margin
            );
        }
    }

    #[test]
    fn resources_are_comparable() {
        for r in run() {
            // LUT/FF within ~25% of each other (Fig 4D-F: "comparable").
            for c in 0..2 {
                let ratio = r.dphls_util[c] / r.rtl_util[c];
                assert!(
                    (0.7..1.4).contains(&ratio),
                    "{} col {c}: ratio {ratio}",
                    r.design.name()
                );
            }
        }
    }

    #[test]
    fn render_lists_three_designs() {
        let s = render(&run()).to_string();
        assert!(s.contains("GACT"));
        assert!(s.contains("BSW"));
        assert!(s.contains("SquiggleFilter"));
    }
}
