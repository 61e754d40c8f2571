//! Machine-readable experiment reports: every experiment's rows serialized
//! to JSON so downstream tooling (plotting, regression tracking) can consume
//! the reproduction without scraping tables.
//!
//! `cargo run -p dphls-bench --bin all_experiments -- --json out.json`
//! writes the full report.

use crate::experiments::{ablation, fig3, fig4, fig5, fig6, sec75, table2, tiling};
use std::iter::repeat_n;

/// One Table 2 row, serialized.
#[derive(Debug)]
pub struct Table2Json {
    /// Kernel id.
    pub id: u8,
    /// Kernel name.
    pub name: String,
    /// Modeled block utilization `[LUT, FF, BRAM, DSP]`.
    pub util: [f64; 4],
    /// Paper utilization.
    pub paper_util: [f64; 4],
    /// `(NPE, NB, NK)`.
    pub config: (usize, usize, usize),
    /// Modeled fmax (MHz).
    pub freq_mhz: f64,
    /// Modeled throughput (aln/s).
    pub aln_per_sec: f64,
    /// Paper throughput (aln/s).
    pub paper_aln_per_sec: f64,
}

/// A generic x/y scaling point.
#[derive(Debug)]
pub struct PointJson {
    /// Swept value.
    pub x: usize,
    /// Throughput (aln/s).
    pub throughput_aps: f64,
    /// Device utilization `[LUT, FF, BRAM, DSP]`.
    pub util: [f64; 4],
}

/// One baseline comparison entry.
#[derive(Debug)]
pub struct ComparisonJson {
    /// Kernel id.
    pub kernel_id: u8,
    /// Baseline name.
    pub baseline: String,
    /// DP-HLS throughput (aln/s).
    pub dphls_aps: f64,
    /// Baseline throughput (aln/s).
    pub baseline_aps: f64,
    /// Modeled speedup or margin.
    pub modeled: f64,
    /// Paper value.
    pub paper: f64,
}

/// The complete serialized report.
#[derive(Debug)]
pub struct FullReport {
    /// Table 2 rows.
    pub table2: Vec<Table2Json>,
    /// Fig 3 NPE sweeps, keyed by kernel id.
    pub fig3_npe: Vec<(u8, Vec<PointJson>)>,
    /// Fig 3 NB sweeps, keyed by kernel id.
    pub fig3_nb: Vec<(u8, Vec<PointJson>)>,
    /// Fig 4 RTL margins.
    pub fig4: Vec<ComparisonJson>,
    /// Fig 5 points (#2 vs GACT).
    pub fig5: Vec<ComparisonJson>,
    /// Fig 6 CPU + GPU speedups.
    pub fig6: Vec<ComparisonJson>,
    /// §7.5 HLS baseline speedup (modeled, paper).
    pub sec75: (f64, f64),
    /// Tiling rows: (read_len, tiles, tiled_score, dphls/gact ratio).
    pub tiling: Vec<(usize, usize, i64, f64)>,
    /// Schedule-ablation gaps per kernel.
    pub schedule_gap: Vec<(u8, f64)>,
}

/// Runs every experiment and assembles the JSON report.
pub fn build() -> FullReport {
    let t2 = table2::run();
    let (k1, k9) = fig3::run();
    let f4 = fig4::run();
    let f5 = fig5::run();
    // No field reads a measured CPU baseline, so none is timed.
    let (cpu, gpu) = fig6::run(0);
    let s75 = sec75::run();
    let til = tiling::run();
    let sched = ablation::schedule_ablation();

    let point = |p: &fig3::ScalePoint| PointJson {
        x: p.x,
        throughput_aps: p.throughput_aps,
        util: p.util,
    };
    FullReport {
        table2: t2
            .iter()
            .map(|r| Table2Json {
                id: r.id,
                name: r.name.to_string(),
                util: r.util,
                paper_util: r.paper_util,
                config: r.config,
                freq_mhz: r.freq_mhz,
                aln_per_sec: r.aln_per_sec,
                paper_aln_per_sec: r.paper_aln_per_sec,
            })
            .collect(),
        fig3_npe: vec![
            (k1.id, k1.npe_sweep.iter().map(point).collect()),
            (k9.id, k9.npe_sweep.iter().map(point).collect()),
        ],
        fig3_nb: vec![
            (k1.id, k1.nb_sweep.iter().map(point).collect()),
            (k9.id, k9.nb_sweep.iter().map(point).collect()),
        ],
        fig4: f4
            .iter()
            .map(|r| ComparisonJson {
                kernel_id: r.kernel_id,
                baseline: r.design.name().to_string(),
                dphls_aps: r.dphls_aps,
                baseline_aps: r.rtl_aps,
                modeled: r.modeled_margin(),
                paper: r.paper_margin,
            })
            .collect(),
        fig5: f5
            .iter()
            .map(|p| ComparisonJson {
                kernel_id: 2,
                baseline: format!("GACT@NPE{}", p.npe),
                dphls_aps: p.dphls_aps,
                baseline_aps: p.gact_aps,
                modeled: p.dphls_aps / p.gact_aps,
                paper: 1.0 - 0.077,
            })
            .collect(),
        fig6: cpu
            .iter()
            .chain(gpu.iter())
            .map(|r| ComparisonJson {
                kernel_id: r.kernel_id,
                baseline: r.tool.to_string(),
                dphls_aps: r.dphls_aps,
                baseline_aps: r.baseline_paper_aps,
                modeled: r.modeled_speedup,
                paper: r.paper_speedup,
            })
            .collect(),
        sec75: (s75.modeled_speedup(), s75.paper_speedup),
        tiling: til
            .iter()
            .map(|r| {
                (
                    r.read_len,
                    r.tiles,
                    r.tiled_score,
                    r.dphls_reads_per_sec / r.gact_reads_per_sec,
                )
            })
            .collect(),
        schedule_gap: sched.iter().map(|g| (g.id, g.gap())).collect(),
    }
}

/// Serializes the report to pretty JSON.
pub fn to_json(report: &FullReport) -> String {
    let mut out = String::new();
    report.write_json(&mut out, 0);
    out
}

/// A report value rendered as pretty JSON in `serde_json`'s forms:
/// two-space indent, `": "` after a key, structs as objects, tuples and
/// arrays as arrays, whole floats under 1e15 with one decimal (`4.0`) and
/// non-finite floats as `null`.
trait ToJson {
    /// Appends `self` to `out`, nested `depth` levels deep.
    fn write_json(&self, out: &mut String, depth: usize);
}

/// Writes `items` between `brackets`, one a line, each behind its key if
/// it has one.
fn write_items(out: &mut String, depth: usize, brackets: [char; 2], items: &[Item<'_>]) {
    out.push(brackets[0]);
    for (i, (key, item)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.extend(repeat_n(' ', 2 * depth + 2));
        if let Some(key) = key {
            key.write_json(out, depth);
            out.push_str(": ");
        }
        item.write_json(out, depth + 1);
    }
    if !items.is_empty() {
        out.push('\n');
        out.extend(repeat_n(' ', 2 * depth));
    }
    out.push(brackets[1]);
}

/// One entry of an array (no key) or an object.
type Item<'a> = (Option<&'a str>, &'a dyn ToJson);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _: usize) {
        let x = *self;
        if !x.is_finite() {
            out.push_str("null");
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&x.to_string());
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: usize) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, depth: usize) {
        let items: Vec<Item<'_>> = self.iter().map(|v| (None, v as _)).collect();
        write_items(out, depth, ['[', ']'], &items);
    }
}

macro_rules! json_integers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _: usize) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
json_integers!(u8, usize, i64);

/// Owned strings and arrays render as their slices.
macro_rules! json_sliced {
    ($([$($g:tt)*] $t:ty),*) => {$(
        impl<$($g)*> ToJson for $t {
            fn write_json(&self, out: &mut String, depth: usize) {
                self[..].write_json(out, depth);
            }
        }
    )*};
}
json_sliced!([] String, [T: ToJson] Vec<T>, [T: ToJson, const N: usize] [T; N]);

/// Tuples render as arrays.
macro_rules! json_tuples {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn write_json(&self, out: &mut String, depth: usize) {
                write_items(out, depth, ['[', ']'], &[$((None, &self.$i)),+]);
            }
        }
    )*};
}
json_tuples! { (A.0, B.1) (A.0, B.1, C.2) (A.0, B.1, C.2, D.3) }

/// Structs render as objects keyed by field name, in the order listed.
macro_rules! json_objects {
    ($($t:ident { $($f:ident),+ })*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, depth: usize) {
                write_items(out, depth, ['{', '}'], &[$((Some(stringify!($f)), &self.$f)),+]);
            }
        }
    )*};
}
json_objects! {
    Table2Json { id, name, util, paper_util, config, freq_mhz, aln_per_sec, paper_aln_per_sec }
    PointJson { x, throughput_aps, util }
    ComparisonJson { kernel_id, baseline, dphls_aps, baseline_aps, modeled, paper }
    FullReport { table2, fig3_npe, fig3_nb, fig4, fig5, fig6, sec75, tiling, schedule_gap }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_and_serializes() {
        let r = build();
        assert_eq!(r.table2.len(), 15);
        assert_eq!(r.fig4.len(), 3);
        assert_eq!(r.fig6.len(), 14);
        assert_eq!(r.schedule_gap.len(), 15);
        // `all_experiments --json` as recorded before this writer replaced
        // `serde_json::to_string_pretty`: every figure comes from the cycle
        // and resource models, so the bytes are fixed, and they pin the
        // format — indent, key separator, float, tuple and string forms.
        let golden = include_str!("../golden/all_experiments.json");
        assert_eq!(to_json(&r), golden);
    }

    #[test]
    fn values_render_like_serde_json() {
        let mut out = String::new();
        let row = (
            -3i64,
            [1.5, 4.0, f64::NAN, 1e15],
            "x\"\\\n\u{1}y".to_string(),
        );
        row.write_json(&mut out, 0);
        let want = "[\n  -3,\n  [\n    1.5,\n    4.0,\n    null,\n    1000000000000000\n  ],\n  \"x\\\"\\\\\\n\\u0001y\"\n]";
        assert_eq!(out, want);
        let mut empty = String::new();
        Vec::<u8>::new().write_json(&mut empty, 3);
        assert_eq!(empty, "[]");
    }
}
