//! The repo's benchmark: five workloads end to end (tracing off) and, with
//! `--trace`, one rung per layer with spans around every call into a layer.
//! See `README.md` beside this package and `BENCHMARK.json` at the repo root.
//!
//! The driver's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line
//! of standard output is then one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Without `--workload` every workload runs in turn.
//! `--agree` runs the end-to-end set twice and compares the two against the
//! bounds; `--smoke` is a 1/20-scale run of everything.

mod check;
mod inputs;
mod ladder;
mod map;
mod metrics;
mod pin;
mod serve;
mod stats;
mod stream;
mod trace;
mod workload;

use check::Verdict;
use dphls_util::median;
use metrics::{ratio, Metrics, END_TO_END, PER_LAYER};
use pin::OneCore;
use serve::{Load, ServeWorkload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use stream::StreamWorkload;
use trace::Tracer;
use workload::Workload;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "stream_short_adaptive",
    "stream_long_affine",
    "map_long_reads",
    "serve_saturated",
    "serve_paced",
];

/// Seed used when none is given; the first recorded numbers were taken at it.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run (`setup_s` is their median) and the fewest timed passes.
const SETUPS: usize = 5;
const MIN_PASSES: usize = 3;

/// Untraced/traced pass pairs behind `trace.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 4;

/// Items of one pass at full scale, sized for about a second on two cores.
const SHORT_PAIRS: usize = 40_000;
const LONG_PAIRS: usize = 180;
const MAP_READS: usize = 800;
const SATURATED_REQUESTS: usize = 16_000;
const PACED_REQUESTS: usize = 3_000;

/// Leading items the latency probe of a stream or map workload sends through
/// one at a time, sized for about a fifth of a second.
const SHORT_PROBE_PAIRS: usize = 2_000;
const LONG_PROBE_PAIRS: usize = 24;
const MAP_PROBE_READS: usize = 80;

/// Offered rate of `serve_paced`, about a fifth of what the server saturates
/// at on the recording host.
const PACED_RATE: f64 = 3_000.0;

/// Input prefix of each ladder of the traced run at full scale.
const LADDER_SHORT_PAIRS: usize = 16_000;
const LADDER_LONG_PAIRS: usize = 32;
const LADDER_SERVE_PAIRS: usize = 4_000;
const LADDER_MAP_READS: usize = 200;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Set-ups a run (`SETUPS`; fewer under `--smoke`).
    setups: usize,
    trace: bool,
    agree: bool,
    /// Divides every input size (20 under `--smoke`).
    scale: usize,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: dphls-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace [0|1]] \
         [--agree] [--smoke] [--out DIR]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        setups: SETUPS,
        trace: false,
        agree: false,
        scale: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => opts.agree = true,
            "--smoke" => {
                opts.scale = 20;
                opts.seconds = 0.0;
                opts.setups = MIN_PASSES;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// A full-scale size under `--smoke`'s divisor, never below eight items.
fn scaled(n: usize, scale: usize) -> usize {
    (n / scale).max(8)
}

fn build(name: &str, seed: u64, scale: usize) -> Box<dyn Workload> {
    let sized = |n: usize| scaled(n, scale);
    match name {
        "stream_short_adaptive" => Box::new(StreamWorkload::new(
            stream::short_inputs(seed, sized(SHORT_PAIRS)),
            sized(SHORT_PROBE_PAIRS),
        )),
        "stream_long_affine" => Box::new(StreamWorkload::new(
            stream::long_inputs(seed, sized(LONG_PAIRS)),
            sized(LONG_PROBE_PAIRS),
        )),
        "map_long_reads" => Box::new(map::MapWorkload::new(
            seed,
            sized(MAP_READS),
            sized(MAP_PROBE_READS),
        )),
        "serve_saturated" => Box::new(ServeWorkload::new(
            seed,
            sized(SATURATED_REQUESTS),
            Load::Saturated {
                connections: 2,
                depth: 32,
            },
        )),
        "serve_paced" => Box::new(ServeWorkload::new(
            seed,
            sized(PACED_REQUESTS),
            Load::Paced { rate: PACED_RATE },
        )),
        other => unreachable!("parse_args admits only listed workloads, got {other}"),
    }
}

/// What one run of one workload found.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    verdict: Verdict,
}

impl Outcome {
    /// Prints the metrics by name and unit, then the result line.
    fn print<'a>(
        &self,
        workload: &str,
        defs: impl Iterator<Item = &'a metrics::MetricDef> + Clone,
    ) {
        for d in defs.clone() {
            println!(
                "{workload} {} = {} {}",
                d.name,
                self.metrics.get(d.name),
                d.unit
            );
        }
        if let Some(offender) = &self.verdict.first_offender {
            println!(
                "{workload} FAILED {} of {}: {offender}",
                self.verdict.failed, self.attempted
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.verdict.failed == 0,
            self.attempted,
            self.verdict.failed,
            self.metrics.to_json(defs)
        );
    }
}

/// The end-to-end run: generate, set up (several times), then timed passes
/// with tracing off for `seconds`, reporting the median pass.
fn end_to_end(name: &str, opts: &Opts) -> Outcome {
    let began = Instant::now();
    let mut w = build(name, opts.seed, opts.scale);
    let gen_s = began.elapsed().as_secs_f64();
    let mut off = Tracer::off();
    let mut verdict = Verdict::default();
    let mut attempted = 0u64;

    // Set-up plus the warm-up pass that fills caches and grows scratch.
    let setups: Vec<f64> = (0..opts.setups)
        .map(|_| {
            let began = Instant::now();
            w.setup();
            let warm_up = w.pass(&mut off);
            let secs = began.elapsed().as_secs_f64();
            attempted += w.items();
            verdict.merge(warm_up.verdict);
            secs
        })
        .collect();

    let (mut rates, mut gcups, mut lat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    while rates.len() < MIN_PASSES || began.elapsed().as_secs_f64() < opts.seconds {
        let pass = w.pass(&mut off);
        rates.push(ratio(pass.items as f64, pass.secs));
        gcups.push(ratio(w.nominal_cells() as f64 / 1e9, pass.secs));
        attempted += w.items();
        verdict.merge(pass.verdict);
        let probe = {
            // One item in flight keeps one thread runnable at a time: the
            // probe's threads, spawned inside, all inherit the one core.
            let _one_core = OneCore::pin();
            w.latency_probe()
        };
        let lat_p50_ns = match probe {
            Some(probe) => {
                attempted += probe.items;
                verdict.merge(probe.verdict);
                probe.lat_p50_ns
            }
            None => pass.lat_p50_ns,
        };
        lat_ms.push(lat_p50_ns as f64 / 1e6);
    }
    w.shutdown();

    println!(
        "{name} seed {} inputs {:016x}: {} items a pass, {} timed passes, generated in {gen_s:.3} s",
        opts.seed,
        w.input_hash(),
        w.items(),
        rates.len()
    );
    let spread = |xs: &[f64]| {
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!("{lo:.4} .. {hi:.4}")
    };
    println!(
        "{name} passes: items_per_s {}, lat_p50_ms {}",
        spread(&rates),
        spread(&lat_ms)
    );
    let mut metrics = Metrics::default();
    metrics.set("items_per_s", median(&rates));
    metrics.set("gcups", median(&gcups));
    metrics.set("lat_p50_ms", median(&lat_ms));
    metrics.set("setup_s", median(&setups));
    Outcome {
        metrics,
        attempted,
        verdict,
    }
}

/// The traced run: the workload's own passes with tracing off and on (their
/// ratio is the tracing overhead), then every ladder, the roofline probes
/// and the process counters. Writes the spans to `trace-<workload>.json`.
fn traced(name: &str, opts: &Opts) -> Outcome {
    let (seed, scale) = (opts.seed, opts.scale);
    let sized = |n: usize| scaled(n, scale);
    let mut m = Metrics::default();
    let mut tracer = Tracer::on(1 << 18);
    let mut verdict = Verdict::default();

    // One process may trace several workloads in turn; each run's peak RSS
    // and CPU time are its own.
    ladder::reset_peak_rss();
    let cpu_before = ladder::cpu_s();
    let mut phase = Instant::now();
    let mut lap = |what: &str| {
        let secs = phase.elapsed().as_secs_f64();
        println!("{name} traced: {what} took {secs:.2} s");
        phase = Instant::now();
        secs
    };

    let mut w = build(name, seed, scale);
    m.set("bench.gen_s", lap("input generation"));
    w.setup();
    let mut attempted = w.items();
    verdict.merge(w.pass(&mut Tracer::off()).verdict);
    // Adjacent passes share the host's mood, so the overhead is the median of
    // the pairwise ratios, the traced pass going first in every second pair.
    let mut ratios = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let mut rate = |tracer: &mut Tracer| {
            let pass = w.pass(tracer);
            attempted += w.items();
            verdict.merge(pass.verdict);
            ratio(pass.items as f64, pass.secs)
        };
        let (spanned, plain) = if pair % 2 == 0 {
            let plain = rate(&mut Tracer::off());
            (rate(&mut tracer), plain)
        } else {
            (rate(&mut tracer), rate(&mut Tracer::off()))
        };
        ratios.push(ratio(spanned, plain));
    }
    m.set("trace.overhead_ratio", median(&ratios));
    w.shutdown();
    drop(w);
    lap("the workload's own passes, tracing off and on");

    // The engine ladder runs on the pairs the workload's engine sees; the
    // mapping workload has no pair engine under it and borrows the short
    // pairs.
    verdict.merge(match name {
        "stream_long_affine" => ladder::engine_ladder(
            &stream::long_inputs(seed, sized(LADDER_LONG_PAIRS)),
            &mut tracer,
            &mut m,
        ),
        "serve_saturated" | "serve_paced" => ladder::engine_ladder(
            &serve::serve_inputs(seed, sized(LADDER_SERVE_PAIRS)),
            &mut tracer,
            &mut m,
        ),
        _ => ladder::engine_ladder(
            &stream::short_inputs(seed, sized(LADDER_SHORT_PAIRS)),
            &mut tracer,
            &mut m,
        ),
    });
    lap("engine ladder");
    verdict.merge(map::mapper_ladder(
        seed,
        sized(LADDER_MAP_READS),
        &mut tracer,
        &mut m,
    ));
    lap("mapper ladder");
    verdict.merge(serve::serve_ladder(
        seed,
        sized(LADDER_SERVE_PAIRS),
        sized(PACED_REQUESTS),
        PACED_RATE,
        &mut tracer,
        &mut m,
    ));
    lap("serve ladder");

    m.set("proc.peak_rss_mb", ladder::peak_rss_mb());
    ladder::machine_probes(scale, &mut m);
    m.set("proc.cpu_s", ladder::cpu_s() - cpu_before);
    lap("roofline probes");

    let path = opts.out.join(format!("trace-{name}.json"));
    match tracer.write_json(&path, name) {
        Ok(()) => println!(
            "{name}: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => verdict.fail(|| format!("cannot write {}: {e}", path.display())),
    }
    Outcome {
        metrics: m,
        attempted,
        verdict,
    }
}

/// Runs the end-to-end set twice and holds the second against the first.
/// Returns whether every metric on every workload stayed within its bound.
fn agree(names: &[&str], opts: &Opts) -> bool {
    let mut within = true;
    for name in names {
        let first = end_to_end(name, opts);
        let second = end_to_end(name, opts);
        for (d, bound) in &END_TO_END {
            let (a, b) = (first.metrics.get(d.name), second.metrics.get(d.name));
            let diff = ratio((a - b).abs(), a);
            let ok = diff <= *bound;
            within &= ok;
            println!(
                "{name} {}: {a} vs {b} {} — differ by {:.2} % against a {:.0} % bound{}",
                d.name,
                d.unit,
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        for run in [&first, &second] {
            if let Some(offender) = &run.verdict.first_offender {
                println!(
                    "{name} FAILED {} of {}: {offender}",
                    run.verdict.failed, run.attempted
                );
                within = false;
            }
        }
    }
    within
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &opts.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    println!(
        "dphls-benchmark: {} hardware threads, seed {}, 1/{} scale",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.seed,
        opts.scale
    );
    if opts.agree {
        return if agree(&names, &opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut correct = true;
    // `--smoke` covers both halves; otherwise `--trace` picks one.
    let smoke = opts.scale > 1;
    for name in names {
        if smoke || !opts.trace {
            let outcome = end_to_end(name, &opts);
            outcome.print(name, END_TO_END.iter().map(|(d, _)| d));
            correct &= outcome.verdict.failed == 0;
        }
        if smoke || opts.trace {
            let outcome = traced(name, &opts);
            outcome.print(name, PER_LAYER.iter());
            correct &= outcome.verdict.failed == 0;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
