//! Schema validation and regression diffing for `BENCH_throughput.json`
//! reports (the `bench_check` binary, run locally and by CI).
//!
//! The previous CI smoke step was a blob of inline Python whose assertions
//! silently passed when the `acceptance` object was missing entirely; this
//! module validates the **full** report schema — version, per-point keys,
//! speedup-ratio consistency, acceptance gates — and can diff a fresh run
//! against the committed baseline.
//!
//! What each report section promises — required keys, which stored figures
//! are quotients of which fields, its absolute gates and the scale they
//! bind at, and which fields the regression diff compares in which
//! direction under which caveat — is one entry of [`SECTIONS`]; [`validate`],
//! [`compare`] and the `bench_report` summary are each one loop over it
//! (docs/BENCH_HISTORY.md renders the table).
//!
//! Absolute aln/s figures are machine-dependent, so the regression gate
//! compares only **ratios** — per point `scratch_speedup`, `laned_speedup`,
//! `lane_vs_scratch`, `batched_speedup` — which track engine quality rather
//! than container luck. The `batched_speedup` of `nk > 1` points is only
//! compared when *both* reports were recorded with more than one core —
//! the ROADMAP's "no thread scaling on a 1-core container" caveat,
//! machine-checked via the report's `host_cores` field.
use serde::JsonValue;
use Caveat::{OneCore, SmokeScale};
use Scope::{EveryScale, FullScale};

/// Report schema version this checker understands.
pub const SCHEMA_VERSION: u64 = 9;

/// Default relative tolerance of the regression gate (15 %).
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Minimum scratch-vs-naive speedup of the `acceptance` point (the ISSUE 1
/// gate): the zero-allocation, band-aware scratch engine must run the
/// banded single-channel workload at least 2× as fast as the frozen naive
/// engine. Both are timed single-threaded in one interleaved round, but the
/// ratio is wall-clock: like [`STREAMING_GATE`] the absolute threshold is
/// only enforced at or above [`STREAMING_GATE_MIN_PAIRS`] pairs.
pub const SCRATCH_GATE: f64 = 2.0;

/// Minimum laned-vs-scratch speedup of the `acceptance` point (the ISSUE 2
/// gate): the multi-lane wavefront engine must beat the scalar scratch path
/// by at least 1.3× on the same workload, at the same scale guard.
pub const LANE_GATE: f64 = 1.3;

/// Minimum streamed/batched throughput ratio (the ISSUE 3 streaming gate):
/// the bounded-memory pipeline may not cost more than 10 % of the batch
/// engine's throughput on the gate workload.
pub const STREAMING_GATE: f64 = 0.9;

/// Pair count below which the absolute [`STREAMING_GATE`] is not enforced:
/// a scaled-down smoke run times each engine for ~10 ms, where a single
/// scheduler hiccup swings the ratio by 30 % — an absolute threshold on
/// such a sample is noise, not signal. Small runs still get the pass-flag
/// consistency check plus the relative diff against the committed
/// (full-scale, gated) baseline in [`compare`].
pub const STREAMING_GATE_MIN_PAIRS: f64 = 2_000.0;

/// Minimum modeled NB-vs-1 throughput ratio of the `nb_scaling` point (the
/// ISSUE 5 gate): a 4-block channel on the banded acceptance workload must
/// model at least 3.5× a 1-block channel — per Fig 3C, NB scaling is
/// near-perfect until the arbiter binds, and the banded workload's I/O
/// phases are far too small to bind it. The ratio is derived from
/// `BlockStats`, so unlike the wall-clock gates it is machine-independent
/// and enforced at every scale.
pub const NB_MODEL_GATE: f64 = 3.5;

/// Minimum modeled fleet-vs-1 throughput ratio of the `fleet` point (the
/// PR 10 gate): a 4-device fleet on the banded acceptance workload must
/// model at least 3.5× one device after paying the PCIe-class transfer
/// cost — the workload's transfer payload (packed sequences, 2-bit path,
/// and a fixed record) is small next to its fill, so sharding is
/// near-perfect. Like [`NB_MODEL_GATE`] the ratio is derived from
/// `BlockStats`, machine-independent, and enforced at every scale; the
/// wall-clock `d_wall_ratio` riding on the same point carries the 1-core
/// `host_cores` caveat instead.
pub const FLEET_MODEL_GATE: f64 = 3.5;

/// Minimum resilient/disabled throughput ratio of the
/// `resilience_overhead` point (the PR 6 gate): enabling the instrumented
/// resilience path (deadline clock, `catch_unwind` frame, retry
/// bookkeeping) on a fault-free workload may not cost more than 5 % of the
/// fast path's throughput. Like [`STREAMING_GATE`] this is a wall-clock
/// ratio, so the absolute threshold is only enforced at or above
/// [`STREAMING_GATE_MIN_PAIRS`] pairs; smaller smoke runs keep the
/// pass-flag consistency check and the relative diff in [`compare`].
pub const RESILIENCE_GATE: f64 = 0.95;

/// Minimum served/streamed throughput ratio of the `serving` point (the
/// PR 7 gate): answering alignment requests through the `dphls-serve`
/// front end — wire protocol, per-connection reader/writer tasks,
/// per-connection order restoration — may not forfeit more than half of
/// raw `run_streamed` throughput on the gate workload. Both runs share
/// the machine (internally paired), so the ratio itself is comparable
/// across boxes, but it is still a wall-clock figure: fixed per-run costs
/// (connection setup, session spawn) dwarf a few milliseconds of compute,
/// so both the absolute threshold and the [`compare`] diff apply only at
/// or above [`STREAMING_GATE_MIN_PAIRS`] pairs — smoke-scale runs are
/// skipped with a note. The serving latency percentiles (`p50_ms`,
/// `p99_ms`) are *not*
/// gated absolutely — they carry the 1-core `host_cores` caveat and are
/// only regression-diffed between multi-core reports in [`compare`].
pub const SERVING_GATE: f64 = 0.5;

/// Minimum adaptive/exact throughput ratio of the `adaptive_precision`
/// point (the ISSUE 8 gate): the saturating-`i8` fast path — including the
/// escalation tax of its planted guard-tripping pairs — must beat the
/// exact `i16` path by at least 1.3× on the short-read banded workload.
/// Both runs share the engine machinery and the machine (internally
/// paired), so the ratio itself is comparable across boxes; like the other
/// wall-clock gates, the absolute threshold is only enforced at or above
/// [`STREAMING_GATE_MIN_PAIRS`] pairs. The point's `escalation_rate` must
/// be strictly inside `(0, 1)` at every scale — a rate of 0 means the
/// workload never exercises the escalation path (best-case benchmarking),
/// 1 means the fast path never ran at all.
pub const ADAPTIVE_GATE: f64 = 1.3;

/// Minimum locus recall of the `mapping` point (the ISSUE 9 gate): of the
/// simulated long reads (1–5 kb, ~5% error, both strands) streamed through
/// the `dphls-mapper` seed-chain-extend pipeline, at least this fraction
/// must map to their true sampling locus (±64) on their true strand. The
/// recall is a counting figure over a deterministic workload — machine-
/// independent — so like [`NB_MODEL_GATE`] it is enforced at every scale.
pub const MAPPING_RECALL_GATE: f64 = 0.99;

/// Maximum X-drop/full-band DP-cell ratio of the `mapping` point (the
/// other half of the ISSUE 9 gate): the X-drop extension stage may touch
/// at most this fraction of the cells a fixed 128-wide band over the same
/// (read × window) problems would compute. The full-band denominator is
/// analytic (`Banding::cells_in_row` summed), so the ratio is a counting
/// figure too: machine-independent, enforced at every scale. Lower is
/// better — this gate and its [`compare`] direction are inverted relative
/// to the throughput ratios.
pub const MAPPING_CELLS_GATE: f64 = 0.3;

/// Minimum off-target/on-target sDTW score separation of the `mapping`
/// point's signal-space sub-metric: classifying raw nanopore squiggles
/// against the virus reference squiggle (pre-basecalling read-until) must
/// leave the best off-target per-sample distance strictly above the worst
/// on-target one — separation > 1 means a perfect threshold exists.
/// Deterministic workload, machine-independent, enforced at every scale.
pub const MAPPING_SDTW_GATE: f64 = 1.0;

/// Comparison a gate's value must satisfy against its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `value >= threshold`.
    Ge,
    /// `value <= threshold` (a lower-is-better figure).
    Le,
    /// `value > threshold`.
    Gt,
}

impl Op {
    /// Whether `value ⋈ threshold` holds.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Ge => value >= threshold,
            Op::Le => value <= threshold,
            Op::Gt => value > threshold,
        }
    }

    /// The operator and its negation: a passing and a failing verdict's.
    pub fn symbols(self) -> (&'static str, &'static str) {
        match self {
            Op::Ge => (">=", "<"),
            Op::Le => ("<=", ">"),
            Op::Gt => (">", "<="),
        }
    }
}

/// Where a gate's comparison is enforced (its flag is checked everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Counting and modeled figures: machine-independent, every scale.
    EveryScale,
    /// Wall-clock figures: only from [`STREAMING_GATE_MIN_PAIRS`] pairs up.
    FullScale,
}

/// Why [`compare`] may skip a diffed figure with a note instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Caveat {
    /// The 1-core caveat: thread-scaling ratios and raw latencies measure
    /// queueing on a 1-core box, so they are only diffed when **both**
    /// reports saw more than one core.
    OneCore,
    /// The smoke-scale caveat: figures carrying fixed per-run costs
    /// (connection setup, session spawn) that dwarf a few milliseconds of
    /// compute are only diffed when the current report was measured at or
    /// above [`STREAMING_GATE_MIN_PAIRS`] pairs.
    SmokeScale,
}

/// An absolute gate `(flag, field, op, threshold, scope)`: the stored bool
/// `flag` must agree with `field ⋈ threshold` at every scale, and the
/// comparison itself must hold wherever `scope` binds it. The threshold is
/// one of the `*_GATE` constants, which carry the reason.
pub type Gate = (&'static str, &'static str, Op, f64, Scope);

/// What one report section promises. [`validate`], [`compare`] and the
/// `bench_report` summary each loop over [`SECTIONS`]; a new measurement
/// point is one entry. Every field a row names is a required key.
pub struct Section {
    /// Key of the section's object in the report.
    pub name: &'static str,
    /// Short name: the `bench_report` summary row and the subject of a
    /// `… gate failed` problem.
    pub label: &'static str,
    /// Required keys no row below names (the rest of the `perf` struct).
    descriptive: &'static [&'static str],
    /// `(stored, numerator, denominator)`: stored figures that must equal
    /// the quotient of two positive fields to 1e-6.
    quotients: &'static [(&'static str, &'static str, &'static str)],
    /// Absolute gates.
    pub gates: &'static [Gate],
    /// `(field, op, caveats)`: figures the regression diff compares — a gate
    /// against the baseline: `Ge` holds down to `tolerance` below it, `Le`
    /// (lower is better) up to `tolerance` above it.
    diffs: &'static [(&'static str, Op, &'static [Caveat])],
    /// The one-off invariant no row shape covers, returning its problem.
    invariant: Option<fn(&JsonValue) -> Option<String>>,
}

/// `field >= min`, for a swept dimension that must actually sweep.
fn at_least(v: &JsonValue, field: &str, min: f64) -> Option<String> {
    let x = num(v, field).filter(|&x| x < min)?;
    Some(format!("`{field}` is {x}, expected >= {min}"))
}

/// `lo <= hi` between two fields of one object.
fn ordered(v: &JsonValue, lo: &str, hi: &str) -> Option<String> {
    let (a, b) = (num(v, lo)?, num(v, hi)?);
    (a > b).then(|| format!("`{lo}` = {a} exceeds `{hi}` = {b}"))
}

/// One `points[]` entry, checked and diffed through the same rows as the
/// sections (prefixed `point <identity>` instead of a section name).
static POINT: Section = Section {
    name: "points",
    label: "points",
    descriptive: &["workload", "len", "pairs", "npe", "nk"],
    quotients: &[
        ("scratch_speedup", "scratch_aps", "naive_aps"),
        ("laned_speedup", "laned_aps", "naive_aps"),
        ("lane_vs_scratch", "laned_aps", "scratch_aps"),
        ("batched_speedup", "batched_aps", "naive_aps"),
    ],
    gates: &[],
    // `batched_speedup` is thread scaling only when nk > 1; `compare`
    // lifts the caveat for single-channel points.
    diffs: &[
        ("scratch_speedup", Op::Ge, &[]),
        ("laned_speedup", Op::Ge, &[]),
        ("lane_vs_scratch", Op::Ge, &[]),
        ("batched_speedup", Op::Ge, &[OneCore]),
    ],
    invariant: Some(|p| {
        ["len", "pairs", "npe", "nk"]
            .iter()
            .find_map(|dim| at_least(p, dim, 1.0))
    }),
};

/// The gate table: one entry per report section, in report order. Why a
/// threshold has its value, scope and compare caveat is on its constant.
pub static SECTIONS: [Section; 8] = [
    Section {
        name: "acceptance",
        label: "acceptance",
        descriptive: &["workload", "pairs"],
        quotients: &[
            ("speedup", "scratch_aps", "naive_aps"),
            ("lane_vs_scratch", "laned_aps", "scratch_aps"),
        ],
        gates: &[
            ("pass", "speedup", Op::Ge, SCRATCH_GATE, FullScale),
            ("lane_pass", "lane_vs_scratch", Op::Ge, LANE_GATE, FullScale),
        ],
        // Both figures are copies of the banded nk=1 point's ratios, which
        // the `points[]` diff already compares.
        diffs: &[],
        invariant: None,
    },
    Section {
        name: "streaming",
        label: "streaming",
        descriptive: &[
            "workload",
            "pairs",
            "nk",
            "buffer",
            "window",
            "reorder_high_water",
            "resident_high_water",
        ],
        quotients: &[("ratio", "streamed_aps", "batched_aps")],
        gates: &[("pass", "ratio", Op::Ge, STREAMING_GATE, FullScale)],
        // Both engines run the same worker threads, so the ratio tracks
        // pipeline overhead, not thread scaling: no core-count caveat.
        diffs: &[("ratio", Op::Ge, &[])],
        // The bounded-memory evidence must respect the window.
        invariant: Some(|st| ordered(st, "resident_high_water", "window")),
    },
    Section {
        name: "nb_scaling",
        label: "nb_scaling",
        descriptive: &["workload", "pairs", "len", "npe", "nb", "nk"],
        quotients: &[
            ("slot_ratio", "slots_nb_aps", "slots1_aps"),
            ("modeled_nb_ratio", "modeled_nb_aps", "modeled_nb1_aps"),
        ],
        gates: &[(
            "pass",
            "modeled_nb_ratio",
            Op::Ge,
            NB_MODEL_GATE,
            EveryScale,
        )],
        // The wall-clock slot_ratio is thread scaling within one channel.
        diffs: &[
            ("modeled_nb_ratio", Op::Ge, &[]),
            ("slot_ratio", Op::Ge, &[OneCore]),
        ],
        // A 1-block channel cannot demonstrate intra-channel scaling.
        invariant: Some(|nb| at_least(nb, "nb", 2.0)),
    },
    Section {
        name: "fleet",
        label: "fleet",
        descriptive: &["workload", "pairs", "len", "npe", "nb", "nk", "devices"],
        quotients: &[
            ("d_wall_ratio", "d_aps", "d1_aps"),
            ("d_ratio", "modeled_d_aps", "modeled_d1_aps"),
        ],
        gates: &[("pass", "d_ratio", Op::Ge, FLEET_MODEL_GATE, EveryScale)],
        diffs: &[
            ("d_ratio", Op::Ge, &[]),
            ("d_wall_ratio", Op::Ge, &[OneCore]),
        ],
        // A 1-device fleet cannot demonstrate cross-device scaling.
        invariant: Some(|fl| at_least(fl, "devices", 2.0)),
    },
    Section {
        name: "resilience_overhead",
        label: "resilience",
        descriptive: &["workload", "pairs", "nk"],
        quotients: &[("ratio", "resilient_aps", "disabled_aps")],
        gates: &[("pass", "ratio", Op::Ge, RESILIENCE_GATE, FullScale)],
        // Internally paired (same worker threads, same machine): diffed
        // regardless of core count, like the streaming ratio.
        diffs: &[("ratio", Op::Ge, &[])],
        invariant: None,
    },
    Section {
        name: "serving",
        label: "serving",
        descriptive: &[
            "workload",
            "pairs",
            "len",
            "connections",
            "nk",
            "buffer",
            "window",
            "p50_ms",
        ],
        quotients: &[("ratio", "served_rps", "streamed_aps")],
        gates: &[("pass", "ratio", Op::Ge, SERVING_GATE, FullScale)],
        // Latency grows under regression, so its direction is inverted.
        diffs: &[
            ("ratio", Op::Ge, &[SmokeScale]),
            ("p99_ms", Op::Le, &[SmokeScale, OneCore]),
        ],
        // 0 < p50_ms <= p99_ms.
        invariant: Some(|sv| {
            let nonpositive = num(sv, "p50_ms").is_some_and(|ms| ms <= 0.0);
            ordered(sv, "p50_ms", "p99_ms")
                .or_else(|| nonpositive.then(|| "latency percentiles must be positive".into()))
        }),
    },
    Section {
        name: "adaptive_precision",
        label: "adaptive",
        descriptive: &[
            "workload",
            "pairs",
            "len",
            "npe",
            "nk",
            "lanes",
            "escalation_rate",
        ],
        quotients: &[("ratio", "adaptive_aps", "exact_aps")],
        gates: &[("pass", "ratio", Op::Ge, ADAPTIVE_GATE, FullScale)],
        // Internally paired and pure compute with no fixed per-run setup
        // cost: diffed regardless of core count or scale.
        diffs: &[("ratio", Op::Ge, &[])],
        invariant: Some(|ap| {
            let rate = num(ap, "escalation_rate").filter(|r| *r <= 0.0 || *r >= 1.0)?;
            Some(format!(
                "`escalation_rate` = {rate} is degenerate (must be strictly inside (0, 1))"
            ))
        }),
    },
    Section {
        name: "mapping",
        label: "mapping",
        descriptive: &[
            "workload",
            "genome_len",
            "min_len",
            "max_len",
            "error_rate",
            "mapped",
            "mapped_aps",
            "reorder_high_water",
        ],
        quotients: &[
            ("recall", "correct", "reads"),
            ("cells_ratio", "xdrop_cells", "fullband_cells"),
            ("sdtw_separation", "sdtw_neg_min", "sdtw_pos_max"),
        ],
        gates: &[
            (
                "recall_pass",
                "recall",
                Op::Ge,
                MAPPING_RECALL_GATE,
                EveryScale,
            ),
            (
                "cells_pass",
                "cells_ratio",
                Op::Le,
                MAPPING_CELLS_GATE,
                EveryScale,
            ),
            (
                "sdtw_pass",
                "sdtw_separation",
                Op::Gt,
                MAPPING_SDTW_GATE,
                EveryScale,
            ),
        ],
        diffs: &[
            ("recall", Op::Ge, &[]),
            ("cells_ratio", Op::Le, &[]),
            ("sdtw_separation", Op::Ge, &[]),
        ],
        invariant: None,
    },
];

/// Looks `key` up in a JSON object.
pub fn get<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    match get(v, key)? {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    match get(v, key) {
        Some(JsonValue::Str(s)) => Some(s),
        _ => None,
    }
}

/// Whether a section was measured at a pair count where its wall-clock
/// figures are signal (sections without `pairs` carry no such figure).
fn is_full_scale(section: &JsonValue) -> bool {
    num(section, "pairs").is_some_and(|p| p >= STREAMING_GATE_MIN_PAIRS)
}

/// A point's identity across reports: `pairs` scales with `--scale`, so the
/// match key is everything else.
fn point_key(p: &JsonValue) -> String {
    format!(
        "point {} len={} npe={} nk={}",
        text(p, "workload").unwrap_or("?"),
        num(p, "len").unwrap_or(-1.0),
        num(p, "npe").unwrap_or(-1.0),
        num(p, "nk").unwrap_or(-1.0),
    )
}

impl Section {
    /// Every key the section's object must carry: the descriptive ones
    /// plus each field a row names.
    fn required_keys(&self) -> Vec<&'static str> {
        let mut keys = self.descriptive.to_vec();
        keys.extend(self.quotients.iter().flat_map(|q| [q.0, q.1, q.2]));
        keys.extend(self.gates.iter().flat_map(|g| [g.0, g.1]));
        keys.extend(self.diffs.iter().map(|d| d.0));
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Checks one object against this section's rows, prefixing every
    /// problem with `prefix`.
    fn validate(&self, prefix: &str, v: &JsonValue, problems: &mut Vec<String>) {
        for field in self.required_keys() {
            if get(v, field).is_none() {
                problems.push(format!("{prefix}: missing `{field}`"));
            }
        }
        for &(field, numer, denom) in self.quotients {
            let (Some(hi), Some(lo)) = (num(v, numer), num(v, denom)) else {
                continue;
            };
            if hi <= 0.0 || lo <= 0.0 {
                problems.push(format!("{prefix}: `{numer}`/`{denom}` must be positive"));
            } else if let Some(stored) = num(v, field) {
                let derived = hi / lo;
                if (stored - derived).abs() > 1e-6 * derived.abs().max(1.0) {
                    problems.push(format!(
                        "{prefix}: `{field}` = {stored} but `{numer}`/`{denom}` is {derived}"
                    ));
                }
            }
        }
        for &(flag, field, op, threshold, scope) in self.gates {
            match (get(v, flag), num(v, field)) {
                (Some(JsonValue::Bool(stored)), Some(value)) => {
                    let holds = op.holds(value, threshold);
                    if *stored != holds {
                        problems.push(format!(
                            "{prefix}: `{flag}` = {stored} disagrees with \
                             `{field}` = {value} (threshold {threshold})"
                        ));
                    }
                    if !holds && (scope == Scope::EveryScale || is_full_scale(v)) {
                        problems.push(format!(
                            "{} gate failed: `{field}` {value} {} {threshold}",
                            self.label,
                            op.symbols().1
                        ));
                    }
                }
                (Some(JsonValue::Bool(_)), None) | (None, _) => {}
                (Some(_), _) => problems.push(format!("{prefix}: `{flag}` not a bool")),
            }
        }
        if let Some(problem) = self.invariant.and_then(|check| check(v)) {
            problems.push(format!("{prefix}: {problem}"));
        }
    }
}

/// Validates one serialized section (a [`SECTIONS`] name) or one matrix
/// point (`"points"`) on its own — what the `perf` tests run on each
/// struct they measure, so a renamed field fails tier-1.
pub fn validate_section(name: &str, value: &JsonValue) -> Vec<String> {
    let section = SECTIONS
        .iter()
        .chain([&POINT])
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a report section"));
    let mut problems = Vec::new();
    section.validate(name, value, &mut problems);
    problems
}

/// Validates the full report schema. Returns every problem found (an empty
/// vector means the report is well-formed).
pub fn validate(report: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    if num(report, "version") != Some(SCHEMA_VERSION as f64) {
        problems.push(format!("`version` missing or not {SCHEMA_VERSION}"));
    }
    if !num(report, "host_cores").is_some_and(|c| c >= 1.0) {
        problems.push("`host_cores` missing or < 1".into());
    }
    match get(report, "points") {
        Some(JsonValue::Array(points)) if !points.is_empty() => {
            for p in points {
                let key = point_key(p);
                if get(p, "workload").is_some() && text(p, "workload").is_none() {
                    problems.push(format!("{key}: `workload` not a string"));
                }
                POINT.validate(&key, p, &mut problems);
            }
            let is_gate_point = |p: &JsonValue| {
                text(p, "workload").is_some_and(|w| w.starts_with("banded"))
                    && num(p, "nk") == Some(1.0)
            };
            if !points.iter().any(is_gate_point) {
                problems.push("no banded nk=1 point (the acceptance gate workload)".into());
            }
        }
        _ => problems.push("`points` array missing or empty".into()),
    }

    for section in &SECTIONS {
        match get(report, section.name) {
            Some(v) => section.validate(section.name, v, &mut problems),
            None => problems.push(format!("missing `{}` object", section.name)),
        }
    }
    problems
}

/// Outcome of a regression comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Regressions beyond tolerance (non-empty fails the gate).
    pub regressions: Vec<String>,
    /// Informational notes (skipped comparisons, improvements).
    pub notes: Vec<String>,
}

/// Diffs `current` against `baseline`: every baseline point must exist in
/// the current report, and no diffed field of a point or a section may be
/// more than `tolerance` (relative) worse than the baseline value, unless
/// the row's caveat skips it with a note.
pub fn compare(current: &JsonValue, baseline: &JsonValue, tolerance: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let (Some(JsonValue::Array(base_pts)), Some(JsonValue::Array(cur_pts))) =
        (get(baseline, "points"), get(current, "points"))
    else {
        cmp.regressions.push("missing `points` array".into());
        return cmp;
    };
    let cores = |r| num(r, "host_cores").unwrap_or(1.0);
    let (base_cores, cur_cores) = (cores(baseline), cores(current));
    let multicore = base_cores > 1.0 && cur_cores > 1.0;

    // One object's rows. `scales_threads` is whether the 1-core caveat
    // applies to this object at all.
    let diff = |cmp: &mut Comparison, s: &Section, prefix: &str, cur, base, scales_threads| {
        for &(field, op, caveats) in s.diffs {
            let (Some(base), Some(now)) = (num(base, field), num(cur, field)) else {
                cmp.regressions
                    .push(format!("{prefix}: `{field}` missing on one side"));
                continue;
            };
            if caveats.contains(&SmokeScale) && !is_full_scale(cur) {
                cmp.notes.push(format!(
                    "smoke-scale caveat: {prefix} `{field}` comparison skipped \
                     (current < {STREAMING_GATE_MIN_PAIRS} pairs)"
                ));
            } else if caveats.contains(&OneCore) && scales_threads && !multicore {
                cmp.notes.push(format!(
                    "1-core caveat: {prefix} `{field}` comparison skipped \
                     (baseline {base_cores} cores, current {cur_cores} cores)"
                ));
            } else {
                let floor = base * (1.0 - tolerance);
                let ceiling = base * (1.0 + tolerance);
                let (worse, better, kind, bound) = match op {
                    Op::Le => (now > ceiling, now < floor, "ceiling", ceiling),
                    Op::Ge | Op::Gt => (now < floor, now > ceiling, "floor", floor),
                };
                if worse {
                    cmp.regressions.push(format!(
                        "{prefix}: `{field}` regressed {base:.3} -> {now:.3} \
                         ({kind} {bound:.3} at {:.0}% tolerance)",
                        tolerance * 100.0
                    ));
                } else if better {
                    cmp.notes.push(format!(
                        "{prefix}: `{field}` improved {base:.3} -> {now:.3}"
                    ));
                }
            }
        }
    };

    for bp in base_pts {
        let key = point_key(bp);
        let Some(cp) = cur_pts.iter().find(|cp| point_key(cp) == key) else {
            cmp.regressions
                .push(format!("{key}: missing from current report"));
            continue;
        };
        // A single-channel point's `batched_speedup` is not thread scaling,
        // so only nk > 1 points carry the 1-core caveat.
        let scales_threads = num(bp, "nk").is_some_and(|nk| nk > 1.0);
        diff(&mut cmp, &POINT, &key, cp, bp, scales_threads);
    }
    for s in &SECTIONS {
        let of = |r| get(r, s.name).unwrap_or(&JsonValue::Null);
        diff(&mut cmp, s, s.name, of(current), of(baseline), true);
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_json(lane_vs_scratch: f64, host_cores: u64) -> String {
        report_json_full(lane_vs_scratch, host_cores, 0.95, 3.98, 0.98, 0.85, 1.6)
    }

    fn report_json_with_streaming(
        lane_vs_scratch: f64,
        host_cores: u64,
        streaming_ratio: f64,
    ) -> String {
        report_json_full(
            lane_vs_scratch,
            host_cores,
            streaming_ratio,
            3.98,
            0.98,
            0.85,
            1.6,
        )
    }

    fn report_json_with_nb(lane_vs_scratch: f64, host_cores: u64, nb_ratio: f64) -> String {
        report_json_full(lane_vs_scratch, host_cores, 0.95, nb_ratio, 0.98, 0.85, 1.6)
    }

    fn report_json_with_resilience(
        lane_vs_scratch: f64,
        host_cores: u64,
        resilience_ratio: f64,
    ) -> String {
        report_json_full(
            lane_vs_scratch,
            host_cores,
            0.95,
            3.98,
            resilience_ratio,
            0.85,
            1.6,
        )
    }

    fn report_json_with_serving(
        lane_vs_scratch: f64,
        host_cores: u64,
        serving_ratio: f64,
    ) -> String {
        report_json_full(
            lane_vs_scratch,
            host_cores,
            0.95,
            3.98,
            0.98,
            serving_ratio,
            1.6,
        )
    }

    fn report_json_with_adaptive(
        lane_vs_scratch: f64,
        host_cores: u64,
        adaptive_ratio: f64,
    ) -> String {
        report_json_full(
            lane_vs_scratch,
            host_cores,
            0.95,
            3.98,
            0.98,
            0.85,
            adaptive_ratio,
        )
    }

    fn report_json_full(
        lane_vs_scratch: f64,
        host_cores: u64,
        streaming_ratio: f64,
        nb_ratio: f64,
        resilience_ratio: f64,
        serving_ratio: f64,
        adaptive_ratio: f64,
    ) -> String {
        let laned = 2000.0 * lane_vs_scratch;
        format!(
            r#"{{
              "version": 9,
              "host_cores": {host_cores},
              "points": [
                {{
                  "workload": "banded_w16", "len": 256, "pairs": 100,
                  "npe": 32, "nk": 1,
                  "naive_aps": 1000.0, "scratch_aps": 2000.0,
                  "laned_aps": {laned}, "batched_aps": 2500.0,
                  "scratch_speedup": 2.0, "laned_speedup": {lspd},
                  "lane_vs_scratch": {lane_vs_scratch}, "batched_speedup": 2.5
                }},
                {{
                  "workload": "banded_w16", "len": 256, "pairs": 100,
                  "npe": 32, "nk": 4,
                  "naive_aps": 1000.0, "scratch_aps": 2000.0,
                  "laned_aps": {laned}, "batched_aps": 3000.0,
                  "scratch_speedup": 2.0, "laned_speedup": {lspd},
                  "lane_vs_scratch": {lane_vs_scratch}, "batched_speedup": 3.0
                }}
              ],
              "acceptance": {{
                "workload": "banded_w16", "pairs": 100,
                "naive_aps": 1000.0, "scratch_aps": 2000.0, "laned_aps": {laned},
                "speedup": 2.0, "lane_vs_scratch": {lane_vs_scratch},
                "pass": true, "lane_pass": {lane_pass}
              }},
              "streaming": {{
                "workload": "banded_w16", "pairs": 10000, "nk": 4,
                "buffer": 64, "window": 256,
                "batched_aps": 3000.0, "streamed_aps": {streamed},
                "ratio": {streaming_ratio}, "pass": {stream_pass},
                "reorder_high_water": 9, "resident_high_water": 13
              }},
              "nb_scaling": {{
                "workload": "banded_w16", "pairs": 10000, "len": 256,
                "npe": 32, "nb": 4, "nk": 1,
                "slots1_aps": 2500.0, "slots_nb_aps": 2600.0,
                "slot_ratio": 1.04,
                "modeled_nb1_aps": 1000000.0, "modeled_nb_aps": {modeled_nb},
                "modeled_nb_ratio": {nb_ratio}, "pass": {nb_pass}
              }},
              "fleet": {{
                "workload": "banded_w16", "pairs": 10000, "len": 256,
                "npe": 32, "nb": 4, "nk": 1, "devices": 4,
                "d1_aps": 2500.0, "d_aps": 2400.0, "d_wall_ratio": 0.96,
                "modeled_d1_aps": 1000000.0, "modeled_d_aps": 3890000.0,
                "d_ratio": 3.89, "pass": true
              }},
              "resilience_overhead": {{
                "workload": "banded_w16", "pairs": 10000, "nk": 4,
                "disabled_aps": 3000.0, "resilient_aps": {resilient},
                "ratio": {resilience_ratio}, "pass": {resilience_pass}
              }},
              "serving": {{
                "workload": "banded_global_linear", "pairs": 4000, "len": 256,
                "connections": 4, "nk": 4, "buffer": 64, "window": 256,
                "streamed_aps": 3000.0, "served_rps": {served},
                "ratio": {serving_ratio}, "p50_ms": 5.0, "p99_ms": 9.0,
                "pass": {serving_pass}
              }},
              "adaptive_precision": {{
                "workload": "banded_w20", "pairs": 10000, "len": 120,
                "npe": 120, "nk": 4, "lanes": 32,
                "exact_aps": 4000.0, "adaptive_aps": {adaptive},
                "ratio": {adaptive_ratio}, "escalation_rate": 0.05,
                "pass": {adaptive_pass}
              }},
              "mapping": {{
                "workload": "long_read_5pct", "reads": 2000,
                "genome_len": 1048576, "min_len": 1000, "max_len": 5000,
                "error_rate": 0.05, "mapped": 2000, "correct": 1999,
                "recall": 0.9995,
                "xdrop_cells": 90000000, "fullband_cells": 360000000,
                "cells_ratio": 0.25, "mapped_aps": 800.0,
                "reorder_high_water": 17,
                "sdtw_pos_max": 30.0, "sdtw_neg_min": 96.0,
                "sdtw_separation": 3.2,
                "recall_pass": true, "cells_pass": true, "sdtw_pass": true
              }}
            }}"#,
            lspd = 2.0 * lane_vs_scratch,
            lane_pass = lane_vs_scratch >= 1.3,
            streamed = 3000.0 * streaming_ratio,
            stream_pass = streaming_ratio >= STREAMING_GATE,
            modeled_nb = 1000000.0 * nb_ratio,
            nb_pass = nb_ratio >= NB_MODEL_GATE,
            resilient = 3000.0 * resilience_ratio,
            resilience_pass = resilience_ratio >= RESILIENCE_GATE,
            served = 3000.0 * serving_ratio,
            serving_pass = serving_ratio >= SERVING_GATE,
            adaptive = 4000.0 * adaptive_ratio,
            adaptive_pass = adaptive_ratio >= ADAPTIVE_GATE,
        )
    }

    fn parse(s: &str) -> JsonValue {
        serde_json::from_str(s).expect("test JSON")
    }

    #[test]
    fn well_formed_report_validates() {
        let r = parse(&report_json(1.5, 1));
        assert_eq!(validate(&r), Vec::<String>::new());
    }

    #[test]
    fn missing_acceptance_is_reported_not_silently_passed() {
        // The failure mode of the old inline-Python check.
        let mut s = report_json(1.5, 1);
        let at = s.find("\"acceptance\"").unwrap();
        s.truncate(at);
        s.truncate(s.rfind(',').unwrap());
        s.push('}');
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("acceptance")),
            "{problems:?}"
        );
    }

    #[test]
    fn inconsistent_ratio_and_gate_flags_are_caught() {
        let s = report_json(1.5, 1).replace("\"lane_vs_scratch\": 1.5", "\"lane_vs_scratch\": 9.9");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("lane_vs_scratch")),
            "{problems:?}"
        );

        let s = report_json(1.1, 1).replace("\"lane_pass\": false", "\"lane_pass\": true");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("lane_pass")),
            "{problems:?}"
        );
    }

    /// The fixture's acceptance object is measured at 100 pairs (below the
    /// guard); this lifts it to the committed baseline's scale.
    fn acceptance_at_full_scale(s: String) -> String {
        s.replace(
            "\"banded_w16\", \"pairs\": 100,",
            "\"banded_w16\", \"pairs\": 10000,",
        )
    }

    #[test]
    fn acceptance_gates_are_enforced_at_full_scale() {
        // A consistent but failing laned-vs-scratch ratio at full scale...
        let problems = validate(&parse(&acceptance_at_full_scale(report_json(1.1, 1))));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("acceptance gate failed: `lane_vs_scratch`")),
            "{problems:?}"
        );
        // ...and a consistent but failing scratch-vs-naive speedup.
        let slow_scratch = report_json(1.5, 1)
            .replace(
                "\"naive_aps\": 1000.0, \"scratch_aps\": 2000.0, \"laned_aps\"",
                "\"naive_aps\": 1250.0, \"scratch_aps\": 2000.0, \"laned_aps\"",
            )
            .replace("\"speedup\": 2.0,", "\"speedup\": 1.6,")
            .replace(
                "\"pass\": true, \"lane_pass\"",
                "\"pass\": false, \"lane_pass\"",
            );
        let problems = validate(&parse(&acceptance_at_full_scale(slow_scratch.clone())));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("acceptance gate failed: `speedup`")),
            "{problems:?}"
        );
        // Both are wall-clock: a smoke-scale run keeps only the flag check.
        for small in [report_json(1.1, 1), slow_scratch] {
            assert_eq!(validate(&parse(&small)), Vec::<String>::new());
        }
    }

    #[test]
    fn acceptance_ratios_are_cross_checked_against_their_rates() {
        let s = report_json(1.5, 1).replace("\"speedup\": 2.0,", "\"speedup\": 2.5,");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("acceptance: `speedup`")),
            "{problems:?}"
        );
        let s = report_json(1.5, 1).replace(
            "\"speedup\": 2.0, \"lane_vs_scratch\": 1.5",
            "\"speedup\": 2.0, \"lane_vs_scratch\": 1.4",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("acceptance: `lane_vs_scratch`")),
            "{problems:?}"
        );
    }

    /// The table itself: a row that named a non-existent field would never
    /// fire, so every section's required keys must be exactly the keys of
    /// the committed baseline's object, which must pass every row.
    #[test]
    fn gate_table_matches_the_committed_baseline() {
        let baseline = parse(include_str!("../../../BENCH_throughput.json"));
        let mut seen = Vec::new();
        for s in SECTIONS.iter().chain([&POINT]) {
            assert!(!seen.contains(&s.name), "duplicate section `{}`", s.name);
            seen.push(s.name);
            let required = s.required_keys();
            let named = (s.quotients.iter().flat_map(|q| [q.0, q.1, q.2]))
                .chain(s.gates.iter().flat_map(|g| [g.0, g.1]))
                .chain(s.diffs.iter().map(|d| d.0));
            for field in named {
                assert!(required.contains(&field), "{}: `{field}`", s.name);
            }
            // A diff is a Ge or Le gate against the baseline, and a row
            // scoped to full scale needs a `pairs` to read the scale off.
            assert!(s.diffs.iter().all(|d| d.1 != Op::Gt), "{}", s.name);
            let scaled = s.gates.iter().any(|g| g.4 == FullScale)
                || s.diffs.iter().any(|d| d.2.contains(&SmokeScale));
            assert!(!scaled || required.contains(&"pairs"), "{}", s.name);

            let objects: Vec<&JsonValue> = match get(&baseline, s.name) {
                Some(JsonValue::Array(points)) => points.iter().collect(),
                Some(object) => vec![object],
                None => panic!("baseline lacks `{}`", s.name),
            };
            for object in objects {
                let JsonValue::Object(entries) = object else {
                    panic!("`{}` is not an object", s.name);
                };
                let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                assert_eq!(keys, required, "{}", s.name);
                assert_eq!(validate_section(s.name, object), Vec::<String>::new());
            }
        }
        assert_eq!(validate(&baseline), Vec::<String>::new());
        let cmp = compare(&baseline, &baseline, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
    }

    #[test]
    fn wrong_version_and_empty_points_fail() {
        let problems = validate(&parse(r#"{"version": 2, "points": []}"#));
        assert!(problems.iter().any(|p| p.contains("version")));
        assert!(problems.iter().any(|p| p.contains("points")));
        assert!(problems.iter().any(|p| p.contains("host_cores")));
        assert!(problems.iter().any(|p| p.contains("streaming")));
        assert!(problems.iter().any(|p| p.contains("nb_scaling")));
        assert!(problems.iter().any(|p| p.contains("fleet")));
        assert!(problems.iter().any(|p| p.contains("resilience_overhead")));
        assert!(problems.iter().any(|p| p.contains("serving")));
        assert!(problems.iter().any(|p| p.contains("adaptive_precision")));
        assert!(problems.iter().any(|p| p.contains("mapping")));
    }

    #[test]
    fn mapping_gates_and_consistency_are_enforced_at_any_scale() {
        // A consistent but failing recall is a problem even at a tiny read
        // count: the figure is counting-derived, machine-independent.
        let s = report_json(1.5, 1)
            .replace("\"reads\": 2000,", "\"reads\": 20,")
            .replace(
                "\"mapped\": 2000, \"correct\": 1999,",
                "\"mapped\": 20, \"correct\": 19,",
            )
            .replace("\"recall\": 0.9995,", "\"recall\": 0.95,")
            .replace("\"recall_pass\": true", "\"recall_pass\": false");
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("mapping gate failed: `recall`")),
            "{problems:?}"
        );

        // Same for the X-drop cell budget (inverted direction)...
        let s = report_json(1.5, 1)
            .replace("\"xdrop_cells\": 90000000,", "\"xdrop_cells\": 180000000,")
            .replace("\"cells_ratio\": 0.25,", "\"cells_ratio\": 0.5,")
            .replace("\"cells_pass\": true", "\"cells_pass\": false");
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("mapping gate failed: `cells_ratio`")),
            "{problems:?}"
        );

        // ...and the sDTW separation.
        let s = report_json(1.5, 1)
            .replace("\"sdtw_neg_min\": 96.0,", "\"sdtw_neg_min\": 24.0,")
            .replace("\"sdtw_separation\": 3.2,", "\"sdtw_separation\": 0.8,")
            .replace("\"sdtw_pass\": true", "\"sdtw_pass\": false");
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("mapping gate failed: `sdtw_separation`")),
            "{problems:?}"
        );

        // A stored recall that disagrees with correct/reads is caught.
        let s = report_json(1.5, 1).replace("\"recall\": 0.9995,", "\"recall\": 1.0,");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("mapping: `recall`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with its gate is caught.
        let s = report_json(1.5, 1)
            .replace("\"xdrop_cells\": 90000000,", "\"xdrop_cells\": 180000000,")
            .replace("\"cells_ratio\": 0.25,", "\"cells_ratio\": 0.5,");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("mapping: `cells_pass`")),
            "{problems:?}"
        );
    }

    #[test]
    fn mapping_regressions_fail_compare_in_both_directions() {
        let base = parse(&report_json(1.5, 1));
        // Recall collapse beyond tolerance regresses even on a 1-core pair.
        let bad = parse(
            &report_json(1.5, 1)
                .replace(
                    "\"mapped\": 2000, \"correct\": 1999,",
                    "\"mapped\": 2000, \"correct\": 1600,",
                )
                .replace("\"recall\": 0.9995,", "\"recall\": 0.8,"),
        );
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("mapping: `recall`")),
            "{cmp:?}"
        );
        // A cells_ratio RISE is the regression direction for that key.
        let bad = parse(
            &report_json(1.5, 1)
                .replace("\"xdrop_cells\": 90000000,", "\"xdrop_cells\": 108000000,")
                .replace("\"cells_ratio\": 0.25,", "\"cells_ratio\": 0.3,"),
        );
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("mapping: `cells_ratio`")),
            "{cmp:?}"
        );
        // ...and a FALL is an improvement note, not a regression.
        let good = parse(
            &report_json(1.5, 1)
                .replace("\"xdrop_cells\": 90000000,", "\"xdrop_cells\": 72000000,")
                .replace("\"cells_ratio\": 0.25,", "\"cells_ratio\": 0.2,"),
        );
        let cmp = compare(&good, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(
            cmp.notes
                .iter()
                .any(|n| n.contains("mapping: `cells_ratio`")),
            "{cmp:?}"
        );
    }

    #[test]
    fn adaptive_gate_and_consistency_are_enforced() {
        // A consistent but failing ratio is a problem at full scale...
        let problems = validate(&parse(&report_json_with_adaptive(1.5, 1, 1.1)));
        assert!(
            problems.iter().any(|p| p.contains("adaptive gate failed")),
            "{problems:?}"
        );
        // ...but not on a scaled-down smoke run (min-pairs guard).
        let small = report_json_with_adaptive(1.5, 1, 1.1).replace(
            "\"pairs\": 10000, \"len\": 120",
            "\"pairs\": 20, \"len\": 120",
        );
        let problems = validate(&parse(&small));
        assert!(
            !problems.iter().any(|p| p.contains("adaptive gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the aps figures is caught.
        let s = report_json(1.5, 1).replace(
            "\"ratio\": 1.6, \"escalation_rate\"",
            "\"ratio\": 1.7, \"escalation_rate\"",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("adaptive_precision: `ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the gate is caught at any scale.
        let s = report_json_with_adaptive(1.5, 1, 1.1).replace(
            "\"escalation_rate\": 0.05,\n                \"pass\": false",
            "\"escalation_rate\": 0.05,\n                \"pass\": true",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("adaptive_precision: `pass`")),
            "{problems:?}"
        );
    }

    #[test]
    fn degenerate_escalation_rate_is_caught() {
        // 0: the guard was never exercised — best-case benchmarking.
        for rate in ["0.0", "1.0"] {
            let s = report_json(1.5, 1).replace(
                "\"escalation_rate\": 0.05",
                &format!("\"escalation_rate\": {rate}"),
            );
            let problems = validate(&parse(&s));
            assert!(
                problems.iter().any(|p| p.contains("degenerate")),
                "rate {rate}: {problems:?}"
            );
        }
        // A strictly interior rate is fine.
        let problems = validate(&parse(&report_json(1.5, 1)));
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn adaptive_ratio_regression_fails_compare_at_any_core_count() {
        let base = parse(&report_json_with_adaptive(1.5, 1, 1.6));
        let ok = parse(&report_json_with_adaptive(1.5, 1, 1.45)); // -9%, inside 15%
        assert!(compare(&ok, &base, DEFAULT_TOLERANCE)
            .regressions
            .is_empty());
        // The ratio is internally paired, so a collapse regresses even on
        // a 1-core pair (no core-count caveat).
        let bad = parse(&report_json_with_adaptive(1.5, 1, 1.2));
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("adaptive_precision")),
            "{cmp:?}"
        );
        // An improvement is a note, not a regression.
        let good = parse(&report_json_with_adaptive(1.5, 1, 2.0));
        let cmp = compare(&good, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(
            cmp.notes.iter().any(|n| n.contains("adaptive_precision")),
            "{cmp:?}"
        );
    }

    #[test]
    fn serving_gate_and_consistency_are_enforced() {
        // A consistent but failing ratio is a problem at full scale...
        let problems = validate(&parse(&report_json_with_serving(1.5, 1, 0.3)));
        assert!(
            problems.iter().any(|p| p.contains("serving gate failed")),
            "{problems:?}"
        );
        // ...but not on a scaled-down smoke run (min-pairs guard).
        let small = report_json_with_serving(1.5, 1, 0.3).replace(
            "\"pairs\": 4000, \"len\": 256,\n                \"connections\"",
            "\"pairs\": 8, \"len\": 256,\n                \"connections\"",
        );
        let problems = validate(&parse(&small));
        assert!(
            !problems.iter().any(|p| p.contains("serving gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the throughput figures.
        let s = report_json(1.5, 1)
            .replace("\"ratio\": 0.85, \"p50_ms\"", "\"ratio\": 0.9, \"p50_ms\"");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("serving: `ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the gate is caught at any scale
        // (the serving gate is the only failing one in this fixture, so
        // its `pass` is the only false flag).
        let s = report_json_with_serving(1.5, 1, 0.3).replace("\"pass\": false", "\"pass\": true");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("serving: `pass`")),
            "{problems:?}"
        );

        // Inverted latency percentiles are caught.
        let s = report_json(1.5, 1).replace("\"p50_ms\": 5.0", "\"p50_ms\": 50.0");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("`p50_ms`")),
            "{problems:?}"
        );
    }

    #[test]
    fn serving_ratio_regression_fails_compare_p99_caveated() {
        let base = parse(&report_json_with_serving(1.5, 1, 0.9));
        let ok = parse(&report_json_with_serving(1.5, 1, 0.8)); // -11%, inside 15%
        assert!(compare(&ok, &base, DEFAULT_TOLERANCE)
            .regressions
            .is_empty());
        let bad = parse(
            &report_json_with_serving(1.5, 1, 0.9)
                .replace("\"ratio\": 0.9, \"p50_ms\"", "\"ratio\": 0.6, \"p50_ms\""),
        );
        // (ratio made inconsistent for brevity; compare() only reads it)
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("serving")),
            "{cmp:?}"
        );

        // The same collapsed ratio measured at smoke scale is skipped with
        // a note instead — fixed per-run costs (connection setup, session
        // spawn) dominate tiny runs, so the ratio is not comparable there.
        let shrink = |s: String| s.replace("\"pairs\": 4000", "\"pairs\": 100");
        let bad_small = parse(&shrink(
            report_json_with_serving(1.5, 1, 0.9)
                .replace("\"ratio\": 0.9, \"p50_ms\"", "\"ratio\": 0.2, \"p50_ms\""),
        ));
        let cmp = compare(&bad_small, &base, DEFAULT_TOLERANCE);
        assert!(
            !cmp.regressions.iter().any(|r| r.contains("serving")),
            "{cmp:?}"
        );
        assert!(
            cmp.notes
                .iter()
                .any(|n| n.contains("smoke-scale caveat: serving `ratio`")),
            "{cmp:?}"
        );

        // A tripled p99 is skipped on a 1-core pair...
        let p99_spike = |s: String| s.replace("\"p99_ms\": 9.0", "\"p99_ms\": 27.0");
        let cur = parse(&p99_spike(report_json_with_serving(1.5, 1, 0.9)));
        let cmp = compare(&cur, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(cmp.notes.iter().any(|n| n.contains("p99_ms")), "{cmp:?}");
        // ...and fails on a multi-core pair.
        let base_mc = parse(&report_json_with_serving(1.5, 4, 0.9));
        let cur_mc = parse(&p99_spike(report_json_with_serving(1.5, 4, 0.9)));
        let cmp = compare(&cur_mc, &base_mc, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("p99_ms")),
            "{cmp:?}"
        );
    }

    /// The 1-core latency caveat must hold in BOTH mixed orders: a spiked
    /// p99 is skipped whether the 1-core report is the baseline or the
    /// current one. Only a multi-core pair diffs latency.
    #[test]
    fn serving_p99_caveat_is_symmetric_across_core_orders() {
        let p99_spike = |s: String| s.replace("\"p99_ms\": 9.0", "\"p99_ms\": 27.0");
        let skipped = |cmp: &Comparison| {
            !cmp.regressions.iter().any(|r| r.contains("p99_ms"))
                && cmp
                    .notes
                    .iter()
                    .any(|n| n.contains("1-core caveat: serving `p99_ms`"))
        };

        // Multi-core baseline, 1-core current.
        let base_mc = parse(&report_json_with_serving(1.5, 4, 0.9));
        let cur_1c = parse(&p99_spike(report_json_with_serving(1.5, 1, 0.9)));
        let cmp = compare(&cur_1c, &base_mc, DEFAULT_TOLERANCE);
        assert!(skipped(&cmp), "{cmp:?}");

        // 1-core baseline, multi-core current: same skip, other order.
        let base_1c = parse(&report_json_with_serving(1.5, 1, 0.9));
        let cur_mc = parse(&p99_spike(report_json_with_serving(1.5, 4, 0.9)));
        let cmp = compare(&cur_mc, &base_1c, DEFAULT_TOLERANCE);
        assert!(skipped(&cmp), "{cmp:?}");

        // Control: both multi-core diffs (and fails on) the spike.
        let cmp = compare(
            &parse(&p99_spike(report_json_with_serving(1.5, 4, 0.9))),
            &parse(&report_json_with_serving(1.5, 4, 0.9)),
            DEFAULT_TOLERANCE,
        );
        assert!(
            cmp.regressions.iter().any(|r| r.contains("p99_ms")),
            "{cmp:?}"
        );
    }

    #[test]
    fn resilience_gate_and_consistency_are_enforced() {
        // A consistent but failing ratio is a problem at full scale...
        let problems = validate(&parse(&report_json_with_resilience(1.5, 1, 0.8)));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("resilience gate failed")),
            "{problems:?}"
        );
        // ...but not on a scaled-down smoke run (min-pairs guard).
        let small = report_json_with_resilience(1.5, 1, 0.8).replace(
            "\"pairs\": 10000, \"nk\": 4,\n                \"disabled_aps\"",
            "\"pairs\": 20, \"nk\": 4,\n                \"disabled_aps\"",
        );
        let problems = validate(&parse(&small));
        assert!(
            !problems
                .iter()
                .any(|p| p.contains("resilience gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the aps figures is caught.
        let s = report_json(1.5, 1).replace(
            "\"ratio\": 0.98, \"pass\": true",
            "\"ratio\": 0.99, \"pass\": true",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("resilience_overhead: `ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the gate is caught at any scale.
        let s = report_json_with_resilience(1.5, 1, 0.8).replace(
            "\"ratio\": 0.8, \"pass\": false",
            "\"ratio\": 0.8, \"pass\": true",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("resilience_overhead: `pass`")),
            "{problems:?}"
        );
    }

    #[test]
    fn resilience_ratio_regression_fails_compare() {
        let base = parse(&report_json_with_resilience(1.5, 1, 1.0));
        let ok = parse(&report_json_with_resilience(1.5, 1, 0.96)); // -4%, inside 15%
        assert!(compare(&ok, &base, DEFAULT_TOLERANCE)
            .regressions
            .is_empty());
        let bad = parse(&report_json_with_resilience(1.5, 1, 0.96).replace(
            "\"ratio\": 0.96, \"pass\": true",
            "\"ratio\": 0.7, \"pass\": false",
        ));
        // (ratio made inconsistent for brevity; compare() only reads it)
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("resilience_overhead")),
            "{cmp:?}"
        );
    }

    #[test]
    fn nb_scaling_gate_and_consistency_are_enforced() {
        // A consistent but failing modeled ratio is itself a problem, at
        // any pair count (the ratio is machine-independent).
        let problems = validate(&parse(&report_json_with_nb(1.5, 1, 2.0)));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("nb_scaling gate failed")),
            "{problems:?}"
        );
        let small = report_json_with_nb(1.5, 1, 2.0)
            .replace("\"pairs\": 10000, \"len\"", "\"pairs\": 20, \"len\"");
        let problems = validate(&parse(&small));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("nb_scaling gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the aps figures is caught.
        let s =
            report_json(1.5, 1).replace("\"modeled_nb_ratio\": 3.98", "\"modeled_nb_ratio\": 3.6");
        let problems = validate(&parse(&s));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("nb_scaling: `modeled_nb_ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the gate is caught.
        let s = report_json_with_nb(1.5, 1, 2.0).replace(
            "\"modeled_nb_ratio\": 2, \"pass\": false",
            "\"modeled_nb_ratio\": 2, \"pass\": true",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("nb_scaling: `pass`")),
            "{problems:?}"
        );

        // An NB that cannot demonstrate intra-channel scaling is caught.
        let s = report_json(1.5, 1).replace("\"nb\": 4", "\"nb\": 1");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("`nb` is 1")),
            "{problems:?}"
        );
    }

    #[test]
    fn nb_scaling_modeled_regression_fails_compare_slot_ratio_caveated() {
        let base = parse(&report_json_with_nb(1.5, 1, 3.98));
        // Modeled ratio drop beyond tolerance fails even on 1-core boxes.
        let bad = parse(
            &report_json_with_nb(1.5, 1, 3.98)
                .replace("\"modeled_nb_ratio\": 3.98", "\"modeled_nb_ratio\": 3.0"),
        );
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("modeled_nb_ratio")),
            "{cmp:?}"
        );
        // A halved slot_ratio is skipped on a 1-core pair...
        let slot_drop = |s: String| {
            s.replace("\"slots_nb_aps\": 2600.0", "\"slots_nb_aps\": 1300.0")
                .replace("\"slot_ratio\": 1.04", "\"slot_ratio\": 0.52")
        };
        let cur = parse(&slot_drop(report_json_with_nb(1.5, 1, 3.98)));
        let cmp = compare(&cur, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(
            cmp.notes.iter().any(|n| n.contains("slot_ratio")),
            "{cmp:?}"
        );
        // ...and fails on a multi-core pair.
        let base_mc = parse(&report_json_with_nb(1.5, 4, 3.98));
        let cur_mc = parse(&slot_drop(report_json_with_nb(1.5, 4, 3.98)));
        let cmp = compare(&cur_mc, &base_mc, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("slot_ratio")),
            "{cmp:?}"
        );
    }

    fn report_json_with_fleet(lane_vs_scratch: f64, host_cores: u64, d_ratio: f64) -> String {
        report_json(lane_vs_scratch, host_cores)
            .replace(
                "\"modeled_d_aps\": 3890000.0",
                &format!("\"modeled_d_aps\": {:.1}", 1_000_000.0 * d_ratio),
            )
            .replace(
                "\"d_ratio\": 3.89, \"pass\": true",
                &format!(
                    "\"d_ratio\": {d_ratio}, \"pass\": {}",
                    d_ratio >= FLEET_MODEL_GATE
                ),
            )
    }

    #[test]
    fn fleet_gate_and_consistency_are_enforced() {
        // A consistent but failing modeled fleet ratio is itself a problem,
        // at any pair count (the ratio is machine-independent).
        let problems = validate(&parse(&report_json_with_fleet(1.5, 1, 2.5)));
        assert!(
            problems.iter().any(|p| p.contains("fleet gate failed")),
            "{problems:?}"
        );
        let small = report_json_with_fleet(1.5, 1, 2.5)
            .replace("\"pairs\": 10000, \"len\"", "\"pairs\": 20, \"len\"");
        let problems = validate(&parse(&small));
        assert!(
            problems.iter().any(|p| p.contains("fleet gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the aps figures is caught.
        let s = report_json(1.5, 1).replace("\"d_ratio\": 3.89", "\"d_ratio\": 3.6");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("fleet: `d_ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the gate is caught.
        let s = report_json_with_fleet(1.5, 1, 2.5).replace(
            "\"d_ratio\": 2.5, \"pass\": false",
            "\"d_ratio\": 2.5, \"pass\": true",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("fleet: `pass`")),
            "{problems:?}"
        );

        // A fleet that cannot demonstrate cross-device sharding is caught.
        let s = report_json(1.5, 1).replace("\"devices\": 4", "\"devices\": 1");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("`devices` is 1")),
            "{problems:?}"
        );
    }

    #[test]
    fn fleet_modeled_regression_fails_compare_wall_caveated() {
        let base = parse(&report_json_with_fleet(1.5, 1, 3.89));
        // Modeled ratio drop beyond tolerance fails even on 1-core boxes.
        let bad = parse(
            &report_json_with_fleet(1.5, 1, 3.89)
                .replace("\"d_ratio\": 3.89", "\"d_ratio\": 3.0")
                .replace(
                    "\"modeled_d_aps\": 3890000.0",
                    "\"modeled_d_aps\": 3000000.0",
                ),
        );
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("d_ratio")),
            "{cmp:?}"
        );
        // A halved d_wall_ratio is skipped on a 1-core pair...
        let wall_drop = |s: String| {
            s.replace("\"d_aps\": 2400.0", "\"d_aps\": 1200.0")
                .replace("\"d_wall_ratio\": 0.96", "\"d_wall_ratio\": 0.48")
        };
        let cur = parse(&wall_drop(report_json_with_fleet(1.5, 1, 3.89)));
        let cmp = compare(&cur, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(
            cmp.notes.iter().any(|n| n.contains("d_wall_ratio")),
            "{cmp:?}"
        );
        // ...and fails on a multi-core pair.
        let base_mc = parse(&report_json_with_fleet(1.5, 4, 3.89));
        let cur_mc = parse(&wall_drop(report_json_with_fleet(1.5, 4, 3.89)));
        let cmp = compare(&cur_mc, &base_mc, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("d_wall_ratio")),
            "{cmp:?}"
        );
    }

    #[test]
    fn streaming_gate_and_consistency_are_enforced() {
        // A consistent but failing streaming ratio is itself a problem: the
        // pipeline may not silently cost more than 10% of batch throughput.
        let problems = validate(&parse(&report_json_with_streaming(1.5, 1, 0.8)));
        assert!(
            problems.iter().any(|p| p.contains("streaming gate failed")),
            "{problems:?}"
        );

        // A stored ratio that disagrees with the aps figures is caught.
        let s = report_json(1.5, 1).replace("\"ratio\": 0.95", "\"ratio\": 0.99");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("streaming: `ratio`")),
            "{problems:?}"
        );

        // A pass flag that disagrees with the ratio is caught.
        let s =
            report_json_with_streaming(1.5, 1, 0.8).replace("\"pass\": false", "\"pass\": true");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("streaming: `pass`")),
            "{problems:?}"
        );

        // Bounded-memory evidence: resident high water above the window.
        let s = report_json(1.5, 1).replace(
            "\"resident_high_water\": 13",
            "\"resident_high_water\": 400",
        );
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("resident_high_water")),
            "{problems:?}"
        );
    }

    #[test]
    fn streaming_gate_skipped_below_min_pairs() {
        // A scaled-down smoke run (tiny pair count) with a failing ratio:
        // the pass flag must stay consistent, but the absolute gate does
        // not fire — the sample is too small to be signal.
        let s =
            report_json_with_streaming(1.5, 1, 0.8).replace("\"pairs\": 10000,", "\"pairs\": 200,");
        let problems = validate(&parse(&s));
        assert!(
            !problems.iter().any(|p| p.contains("streaming gate failed")),
            "{problems:?}"
        );
        // Inconsistent pass flag is still caught at any scale.
        let s = s.replace("\"pass\": false", "\"pass\": true");
        let problems = validate(&parse(&s));
        assert!(
            problems.iter().any(|p| p.contains("streaming: `pass`")),
            "{problems:?}"
        );
    }

    #[test]
    fn streaming_ratio_regression_fails_compare() {
        let base = parse(&report_json_with_streaming(1.5, 1, 1.0));
        let ok = parse(&report_json_with_streaming(1.5, 1, 0.92)); // -8%, inside 15%
        assert!(compare(&ok, &base, DEFAULT_TOLERANCE)
            .regressions
            .is_empty());
        let bad = parse(
            &report_json_with_streaming(1.5, 1, 0.95).replace("\"ratio\": 0.95", "\"ratio\": 0.7"),
        );
        // (ratio made inconsistent for brevity; compare() only reads it)
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("streaming")),
            "{cmp:?}"
        );
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = parse(&report_json(1.6, 1));
        let ok = parse(&report_json(1.45, 1)); // −9.4 %, inside 15 %
        let bad = parse(&report_json(1.2, 1)); // −25 %, outside
        assert!(compare(&ok, &base, DEFAULT_TOLERANCE)
            .regressions
            .is_empty());
        let cmp = compare(&bad, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("lane_vs_scratch")),
            "{cmp:?}"
        );
    }

    #[test]
    fn one_core_caveat_skips_nk_gt_1_thread_scaling() {
        // Halve the nk=4 batched_speedup on a 1-core current report: the
        // thread-scaling comparison must be skipped, not failed.
        let base = parse(&report_json(1.5, 4));
        let cur = parse(
            &report_json(1.5, 1)
                .replace("\"batched_aps\": 3000.0", "\"batched_aps\": 1500.0")
                .replace("\"batched_speedup\": 3.0", "\"batched_speedup\": 1.5"),
        );
        let cmp = compare(&cur, &base, DEFAULT_TOLERANCE);
        assert!(cmp.regressions.is_empty(), "{cmp:?}");
        assert!(cmp.notes.iter().any(|n| n.contains("1-core caveat")));
        // On matching multi-core machines the same drop is a failure.
        let cur_mc = parse(
            &report_json(1.5, 4)
                .replace("\"batched_aps\": 3000.0", "\"batched_aps\": 1500.0")
                .replace("\"batched_speedup\": 3.0", "\"batched_speedup\": 1.5"),
        );
        let cmp = compare(&cur_mc, &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("batched_speedup")),
            "{cmp:?}"
        );
    }

    #[test]
    fn missing_point_is_a_regression() {
        let base = parse(&report_json(1.5, 1));
        let cur_str = report_json(1.5, 1).replace("\"nk\": 4", "\"nk\": 2");
        let cmp = compare(&parse(&cur_str), &base, DEFAULT_TOLERANCE);
        assert!(
            cmp.regressions.iter().any(|r| r.contains("missing")),
            "{cmp:?}"
        );
    }
}
