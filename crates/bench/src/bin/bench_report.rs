//! Emits `BENCH_throughput.json`: wall-clock alignments/second of the
//! naive baseline, the scalar scratch engine (PR 1), the multi-lane engine
//! (PR 2), and the work-stealing batch engine across the standard workload
//! matrix, plus one section per gated measurement point (acceptance,
//! streaming, NB scaling, fleet, resilience overhead, serving, adaptive
//! precision, mapping). Which figures each section carries and which gates
//! ride on them is `dphls_bench::check::SECTIONS`, rendered in
//! docs/BENCH_HISTORY.md; the summary printed here is a loop over that
//! table. Validate or diff a report with `bench_check`.
//!
//! ```text
//! cargo run --release -p dphls-bench --bin bench_report            # full matrix
//! cargo run --release -p dphls-bench --bin bench_report -- --scale 20 --out /tmp/t.json
//! ```

use dphls_bench::{check, perf};
use serde::JsonValue;

/// One figure of a summary row; pass flags are shown as gate verdicts.
fn figure(key: &str, value: &JsonValue) -> Option<String> {
    match value {
        JsonValue::Str(s) => Some(s.clone()),
        JsonValue::Int(i) => Some(format!("{key}={i}")),
        JsonValue::UInt(u) => Some(format!("{key}={u}")),
        JsonValue::Float(f) if f.abs() >= 100.0 => Some(format!("{key}={f:.0}")),
        JsonValue::Float(f) => Some(format!("{key}={f:.3}")),
        _ => None,
    }
}

fn main() {
    let mut scale = 1usize;
    let mut out = String::from("BENCH_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--scale needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                out = match args.next() {
                    Some(path) => path,
                    None => {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report [--scale N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "measuring throughput matrix (scale 1/{scale}, {} cores)...",
        perf::host_cores()
    );
    let report = perf::build_report(scale);
    for p in &report.points {
        eprintln!(
            "  {:<12} len {:>4} x{:<6} NPE={:<3} NK={} | naive {:>9.0} aln/s | scratch {:>9.0} ({:>4.2}x) | laned {:>9.0} ({:>4.2}x, {:>4.2}x vs scratch) | batched {:>9.0} ({:>4.2}x)",
            p.workload, p.len, p.pairs, p.npe, p.nk,
            p.naive_aps, p.scratch_aps, p.scratch_speedup,
            p.laned_aps, p.laned_speedup, p.lane_vs_scratch,
            p.batched_aps, p.batched_speedup,
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&out, &json).expect("write report file");
    // Self-check: the emitted file must round-trip as well-formed JSON.
    let parsed = serde_json::from_str(&json).expect("emitted report must be valid JSON");

    for section in &check::SECTIONS {
        let Some(object @ JsonValue::Object(entries)) = check::get(&parsed, section.name) else {
            continue;
        };
        let mut row: Vec<String> = entries.iter().filter_map(|(k, v)| figure(k, v)).collect();
        for &(flag, field, op, threshold, _) in section.gates {
            let (holds, fails) = op.symbols();
            row.push(match check::get(object, flag) {
                Some(JsonValue::Bool(true)) => format!("| {field} PASS ({holds} {threshold})"),
                _ => format!("| {field} FAIL ({fails} {threshold})"),
            });
        }
        eprintln!("  {:<12} {}", section.label, row.join(" "));
    }
    println!("{out}");
}
