//! **Figure 3** — scaling of Global Linear (#1) and DTW (#9) with `NPE`
//! (NB = 4) and `NB` (NPE = 32): throughput (A, D) and resource
//! utilization (B, C, E, F), including the BRAM→LUTRAM dip at `NPE = 64`
//! and DTW's DSP-bound NB cap.

use crate::harness::{collect_cases, profile_of, sweep_workload, KernelCase};
use dphls_core::KernelConfig;
use dphls_fpga::{estimate_device, max_nb, XCVU9P};
use dphls_systolic::CycleModelParams;
use dphls_util::{pct, sci, Table};
use std::sync::OnceLock;

/// One sweep sample.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// The swept value (NPE or NB).
    pub x: usize,
    /// Modeled throughput (alignments/s).
    pub throughput_aps: f64,
    /// Device utilization `[LUT, FF, BRAM, DSP]` at this point.
    pub util: [f64; 4],
}

/// Fig 3 data for one kernel.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// Kernel id (1 or 9).
    pub id: u8,
    /// Kernel name.
    pub name: &'static str,
    /// Fixed frequency used for the sweep (paper: 250 / 200 MHz).
    pub freq_mhz: f64,
    /// Throughput + utilization vs NPE at NB = 4.
    pub npe_sweep: Vec<ScalePoint>,
    /// Throughput + utilization vs NB at NPE = 32.
    pub nb_sweep: Vec<ScalePoint>,
    /// Largest NB that fits the device at NPE = 32 (DTW's DSP cap).
    pub nb_cap: usize,
}

/// The NPE values of Fig 3 (x axis).
pub const NPE_VALUES: [usize; 6] = [2, 4, 8, 16, 32, 64];
/// The NB values of Fig 3 (x axis).
pub const NB_VALUES: [usize; 4] = [2, 4, 8, 16];

fn sweep(case: &KernelCase, freq_mhz: f64) -> Fig3Series {
    let info = &case.info;
    let profile = profile_of(info);
    let ii = dphls_fpga::derive_ii(&info.op_counts, info.ii_hint);
    let schedule = CycleModelParams::dphls();
    let base = KernelConfig {
        banding: info.table2_config.banding,
        ..KernelConfig::new(32, 4, 1)
    };

    let npe_sweep = NPE_VALUES
        .iter()
        .map(|&npe| {
            let cfg = KernelConfig { npe, nb: 4, ..base };
            let summary = case.run_unverified(&cfg, &schedule, freq_mhz, ii);
            ScalePoint {
                x: npe,
                throughput_aps: summary.throughput_aps,
                util: estimate_device(&profile, &cfg).utilization(&XCVU9P),
            }
        })
        .collect();

    let nb_sweep = NB_VALUES
        .iter()
        .map(|&nb| {
            let cfg = KernelConfig {
                npe: 32,
                nb,
                ..base
            };
            let summary = case.run_unverified(&cfg, &schedule, freq_mhz, ii);
            ScalePoint {
                x: nb,
                throughput_aps: summary.throughput_aps,
                util: estimate_device(&profile, &cfg).utilization(&XCVU9P),
            }
        })
        .collect();

    let nb_cap = max_nb(&profile, &KernelConfig { npe: 32, ..base }, &XCVU9P);

    Fig3Series {
        id: info.meta.id.0,
        name: info.meta.name,
        freq_mhz,
        npe_sweep,
        nb_sweep,
        nb_cap,
    }
}

/// Reproduces Fig 3 for kernels #1 (at 250 MHz) and #9 (at 200 MHz).
/// Computed once per process (the model is deterministic); every caller,
/// the JSON report and the tests included, gets a copy.
pub fn run() -> (Fig3Series, Fig3Series) {
    static SERIES: OnceLock<(Fig3Series, Fig3Series)> = OnceLock::new();
    SERIES.get_or_init(compute).clone()
}

fn compute() -> (Fig3Series, Fig3Series) {
    let cases = collect_cases(&sweep_workload());
    let k1 = sweep(&cases[0], 250.0);
    let k9 = sweep(&cases[8], 200.0);
    (k1, k9)
}

/// Renders one kernel's sweeps.
pub fn render(series: &Fig3Series) -> Table {
    let mut t = Table::new(
        ["sweep", "x", "aln/s", "LUT", "FF", "BRAM", "DSP"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    t.title(format!(
        "Fig 3 — {} (#{}) scaling at {} MHz (NB cap on this device: {})",
        series.name, series.id, series.freq_mhz, series.nb_cap
    ));
    for p in &series.npe_sweep {
        t.row(vec![
            "NPE (NB=4)".into(),
            p.x.to_string(),
            sci(p.throughput_aps),
            pct(p.util[0]),
            pct(p.util[1]),
            pct(p.util[2]),
            pct(p.util[3]),
        ]);
    }
    for p in &series.nb_sweep {
        t.row(vec![
            "NB (NPE=32)".into(),
            p.x.to_string(),
            sci(p.throughput_aps),
            pct(p.util[0]),
            pct(p.util[1]),
            pct(p.util[2]),
            pct(p.util[3]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npe_scaling_is_strong_early_and_saturates_late() {
        let (k1, k9) = run();
        for s in [&k1, &k9] {
            let t = &s.npe_sweep;
            // 2 -> 8 PEs: near-linear (paper: "scales nearly perfectly ...
            // at lower values").
            let early = t[2].throughput_aps / t[0].throughput_aps;
            assert!(early > 2.2, "#{} early scaling {early}", s.id);
            // 32 -> 64 PEs: saturating (edge-effect idle cycles).
            let late = t[5].throughput_aps / t[4].throughput_aps;
            assert!(late < 1.9, "#{} late scaling {late}", s.id);
            assert!(late > 1.0, "#{} still improving {late}", s.id);
        }
    }

    #[test]
    fn nb_scaling_is_nearly_perfect() {
        let (k1, k9) = run();
        for s in [&k1, &k9] {
            let t = &s.nb_sweep;
            let r = t[3].throughput_aps / t[0].throughput_aps; // 16/2
            assert!((r - 8.0).abs() < 0.8, "#{} NB scaling {r}", s.id);
        }
    }

    #[test]
    fn resource_utilization_scales_with_nb() {
        let (k1, _) = run();
        let first = k1.nb_sweep.first().unwrap();
        let last = k1.nb_sweep.last().unwrap();
        for c in 0..4 {
            if first.util[c] > 0.0 {
                let r = last.util[c] / first.util[c];
                assert!((4.0..9.0).contains(&r), "column {c} ratio {r}");
            }
        }
    }

    #[test]
    fn dsp_flat_for_k1_but_scales_for_dtw() {
        let (k1, k9) = run();
        // Paper Fig 3B vs 3E: DSP constant for Global Linear (fixed TB
        // address logic), scaling with NPE for DTW (DSPs inside each PE).
        let k1_dsp_ratio =
            k1.npe_sweep.last().unwrap().util[3] / k1.npe_sweep.first().unwrap().util[3];
        let k9_dsp_ratio =
            k9.npe_sweep.last().unwrap().util[3] / k9.npe_sweep.first().unwrap().util[3];
        assert!(k1_dsp_ratio < 1.5, "k1 DSP ratio {k1_dsp_ratio}");
        assert!(k9_dsp_ratio > 10.0, "k9 DSP ratio {k9_dsp_ratio}");
    }

    #[test]
    fn bram_dips_at_npe_64_for_2bit_pointers() {
        let (k1, _) = run();
        let at32 = k1.npe_sweep[4].util[2];
        let at64 = k1.npe_sweep[5].util[2];
        assert!(at64 < at32, "BRAM {at64} !< {at32} (LUTRAM conversion)");
    }

    #[test]
    fn dtw_nb_cap_is_dsp_bound_and_finite() {
        let (k1, k9) = run();
        // DTW's cap must be far below the add-only kernel's.
        assert!(k9.nb_cap < k1.nb_cap, "{} !< {}", k9.nb_cap, k1.nb_cap);
        assert!(k9.nb_cap >= 8 && k9.nb_cap <= 64, "cap {}", k9.nb_cap);
    }

    #[test]
    fn render_mentions_both_sweeps() {
        let (k1, _) = run();
        let s = render(&k1).to_string();
        assert!(s.contains("NPE (NB=4)"));
        assert!(s.contains("NB (NPE=32)"));
    }
}
