//! xtrace end-to-end benchmark.
//!
//! ```text
//! xtrace-perfbench --workload <paper-cold|serve-warm|sweep-extend>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--commit <rev>] [--source <digest>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload and seed with every op followed by a traced op whose layer
//! calls are timed from here, and prints the per-layer ledger. The last
//! stdout line is the JSON result; the lines before it give the run
//! context and a human-readable summary. See README.md.

mod client;
mod ledger;
mod paper_cold;
mod seq;
mod serve_warm;
mod stats;
mod sweep_extend;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use ledger::{layer_seconds_keys, STORE_KINDS};
use stats::{median, peak_rss_mb, tail_quantile};
use workload::{Params, RunOutput, TraceOutput};

/// Threads in the rayon pool every workload runs with.
const RAYON_THREADS: usize = 2;

const WORKLOADS: [&str; 3] = ["paper-cold", "serve-warm", "sweep-extend"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        source: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--commit" => args.commit = value,
            "--source" => args.source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One metric of the result object.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &RunOutput) -> Vec<Metric> {
    let lat = &out.tally.latencies;
    vec![
        metric("setup_s", "s", median(&out.setup).unwrap_or(0.0)),
        metric("op_p50_ms", "ms", median(lat).unwrap_or(0.0) * 1e3),
        metric("ops_per_s", "1/s", lat.len() as f64 / out.timed_wall),
        metric("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(0.0)),
        metric("ok_frac", "ratio", 1.0 - out.tally.failed_frac()),
    ]
}

/// The per-layer metrics of a traced run, plus the printed ledger. The
/// ledger's lines add up to the traced op time by construction; the
/// check guards the arithmetic that builds them.
fn per_layer(trace: &TraceOutput, report: &mut String) -> Result<Vec<Metric>, String> {
    let l = &trace.ledger;
    let m = |k: &str| l.median(k);
    let layers: Vec<(String, f64)> = layer_seconds_keys()
        .into_iter()
        .map(|k| {
            let v = m(&k);
            (k, v)
        })
        .collect();
    let engine_run = m("engine.run_s");
    let engine_unattributed = engine_run - layers.iter().map(|(_, v)| v).sum::<f64>();
    let (decode, encode, roundtrip) = (
        m("serve.decode_s"),
        m("serve.encode_s"),
        m("serve.roundtrip_s"),
    );
    let serve_unattributed = if trace.serve {
        roundtrip - decode - engine_run - encode
    } else {
        0.0
    };

    let mut lines: Vec<(String, f64)> = Vec::new();
    if trace.serve {
        lines.push(("serve.decode_s".into(), decode));
    }
    lines.extend(layers.iter().cloned());
    lines.push(("engine.unattributed_s".into(), engine_unattributed));
    if trace.serve {
        lines.push(("serve.encode_s".into(), encode));
        lines.push(("serve.unattributed_s".into(), serve_unattributed));
    }
    let (total_name, total) = if trace.serve {
        ("serve.roundtrip_s", roundtrip)
    } else {
        ("engine.run_s", engine_run)
    };
    let sum: f64 = lines.iter().map(|(_, v)| v).sum();
    let _ = writeln!(
        report,
        "ledger: traced op = {total_name}, median of {} traced ops",
        l.len()
    );
    for (name, v) in &lines {
        let share = if total > 0.0 { 100.0 * v / total } else { 0.0 };
        let _ = writeln!(report, "ledger  {name:<28} {v:>12.6} s {share:>8.2}%");
    }
    let _ = writeln!(
        report,
        "ledger  {:<28} {sum:>12.6} s (sum of lines)",
        "total"
    );
    if (sum - total).abs() > 1e-9 * total.max(1.0) {
        return Err(format!(
            "ledger lines sum to {sum} s, traced op took {total} s"
        ));
    }
    let overlap = m("ledger.tail_overlap");
    if overlap > 0.0 {
        let _ = writeln!(
            report,
            "ledger: sweep tails ran {overlap:.2}x overlapped; their layer seconds are scaled to the fan-out wall time"
        );
    }

    let untraced = median(&trace.untraced).unwrap_or(0.0);
    let (memo_ratio, memo_lookups) = l.ratio("tracer.memo_hits", "tracer.memo_lookups");
    let (store_ratio, store_lookups) = l.ratio("store.hits", "store.lookups");
    let _ = writeln!(
        report,
        "ledger: tracer.memo_hit_ratio {memo_ratio:.4} of {memo_lookups} lookups; \
         store.hit_ratio {store_ratio:.4} of {store_lookups} lookups"
    );

    let mut out = vec![
        metric("tracer.memo_hit_ratio", "ratio", memo_ratio),
        metric("tracer.memo_lookups", "count", m("tracer.memo_lookups")),
        metric("extrap.elements_fit", "count", m("extrap.elements_fit")),
        metric("store.hit_ratio", "ratio", store_ratio),
        metric("store.lookups", "count", m("store.lookups")),
        metric("engine.run_s", "s", engine_run),
        metric("engine.unattributed_s", "s", engine_unattributed),
        metric("obs.journal_events", "count", m("obs.journal_events")),
        metric("obs.outcome_bytes", "bytes", m("obs.outcome_bytes")),
        metric("serve.decode_s", "s", decode),
        metric("serve.encode_s", "s", encode),
        metric("serve.response_bytes", "bytes", m("serve.response_bytes")),
        metric("serve.roundtrip_s", "s", roundtrip),
        metric("serve.unattributed_s", "s", serve_unattributed),
        metric(
            "traced.overhead_frac",
            "ratio",
            if untraced > 0.0 {
                total / untraced - 1.0
            } else {
                0.0
            },
        ),
        metric("traced.ops", "count", l.len() as f64),
    ];
    out.extend(layers.into_iter().map(|(k, v)| metric(k, "s", v)));
    out.extend(STORE_KINDS.iter().map(|k| {
        metric(
            format!("store.bytes.{k}"),
            "bytes",
            m(&format!("store.bytes.{k}")),
        )
    }));
    Ok(out)
}

/// Formats a float as JSON: every digit, never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let clients = if args.workload == "serve-warm" {
        serve_warm::CLIENTS
    } else {
        1
    };
    if clients > nproc {
        return Err(format!(
            "refusing to run: {clients} load-generating threads exceed nproc = {nproc}"
        ));
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(RAYON_THREADS)
        .build_global()
        .map_err(|e| e.to_string())?;

    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        started: Instant::now(),
    };
    let result = match args.workload.as_str() {
        "paper-cold" => paper_cold::run(&params),
        "serve-warm" => serve_warm::run(&params),
        _ => sweep_extend::run(&params),
    };
    workload::remove_dir(&work);
    if let Some(parent) = work.parent() {
        // Succeeds only once no other run is using the scratch root.
        let _ = std::fs::remove_dir(parent);
    }
    let out = result?;

    let mut report = String::new();
    let serve_workers = if args.workload == "serve-warm" {
        serve_warm::WORKERS
    } else {
        0
    };
    let _ = writeln!(
        report,
        "{{\"context\": {{\"workload\": {}, \"commit\": {}, \"source\": {}, \"nproc\": {nproc}, \
         \"rayon_threads\": {}, \"serve_workers\": {serve_workers}, \"clients\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"ops\": {}}}}}",
        json_string(&args.workload),
        json_string(&args.commit),
        json_string(&args.source),
        rayon::current_num_threads(),
        out.clients,
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        out.tally.attempted,
    );
    let lat = &out.tally.latencies;
    let p90 = tail_quantile(lat, 0.9).map_or_else(
        || "omitted (<10 samples beyond p90)".into(),
        |v| format!("{:.3} ms", v * 1e3),
    );
    let _ = writeln!(
        report,
        "summary: {} ops ({} timed samples), op_p50_ms {:.3}, op_p90_ms {p90}, failed_frac {} ({} of {}), setup_s reps {:?}",
        out.tally.attempted,
        lat.len(),
        median(lat).unwrap_or(0.0) * 1e3,
        json_number(out.tally.failed_frac()),
        out.tally.failed,
        out.tally.attempted,
        out.setup,
    );
    let metrics = match &out.trace {
        Some(trace) => per_layer(trace, &mut report)?,
        None => end_to_end(&out),
    };
    for failure in out.setup_failures.iter().chain(&out.tally.failures) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let correct = out.setup_failures.is_empty() && out.tally.failed == 0;

    let mut json = String::from("{\"correct\": ");
    let _ = write!(
        json,
        "{correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.attempted, out.tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    json.push_str("}}");
    print!("{report}");
    println!("{json}");
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
