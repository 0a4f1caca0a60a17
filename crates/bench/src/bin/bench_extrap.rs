//! **Regression bench: parallel canonical-form fitting.**
//!
//! Times `extrapolate_signature` — the per-(block, instruction) fitting
//! fan-out in `crates/extrap` — at 1 thread and at N threads, at two
//! signature sizes: the SPECFEM3D-proxy paper signature (28 instructions,
//! small enough that the library now refuses to fan out) and a tiled
//! variant large enough to cross `MIN_PAR_FIT_ELEMENTS`. Each
//! configuration verifies the two runs produce a byte-identical
//! extrapolated trace (ordering and form selection must not depend on
//! scheduling). Training traces are collected once (memoized) outside the
//! timed region.
//!
//! Speedup accounting is *path-aware*: when `parallel_fit_enabled`
//! reports that the N-thread leg takes the very same serial code path as
//! the 1-thread leg (signature below the element threshold, or a
//! single-core host where extra threads cannot help), the two legs execute
//! identical code and the configuration's speedup is 1.0 by construction;
//! the raw walls are still reported so the noise floor is visible. Only
//! when the fan-out genuinely runs does the measured ratio count.
//!
//! Emits `BENCH_extrap.json`. Run with:
//! `cargo run --release -p xtrace-bench --bin bench_extrap [-- --threads N --out F]`
//! Set `XTRACE_BENCH_QUICK=1` for a tiny smoke configuration.

use std::time::Instant;

use serde::Serialize;
use xtrace_apps::SpecfemProxy;
use xtrace_bench::{target_machine, SPECFEM_TARGET, SPECFEM_TRAINING};
use xtrace_extrap::{
    extrapolate_signature, parallel_fit_enabled, ExtrapolationConfig, MIN_PAR_FIT_ELEMENTS,
};
use xtrace_obs::ObsContext;
use xtrace_spmd::{profile, SpmdApp};
use xtrace_tracer::{collect_ranks, FeatureId, SigMemo, TaskTrace, TracerConfig};

#[derive(Serialize)]
struct ConfigResult {
    name: String,
    /// (block, instruction) pairs fitted per run.
    fitted_instrs: usize,
    /// Individual element fits per run (instrs × features).
    element_fits: usize,
    serial_wall_s: f64,
    parallel_wall_s: f64,
    /// Raw serial/parallel wall ratio (noise when `same_code_path`).
    measured_ratio: f64,
    /// Whether the N-thread leg actually fanned out on this host.
    parallel_path_taken: bool,
    /// True when both legs executed the identical serial path, making the
    /// effective speedup 1.0 by construction.
    same_code_path: bool,
    /// Effective speedup: `measured_ratio` when the fan-out ran, else 1.0.
    speedup: f64,
    /// Serialized serial and parallel outputs compared byte-for-byte.
    bit_identical: bool,
}

#[derive(Serialize)]
struct ExtrapBench {
    app: String,
    machine: String,
    quick: bool,
    threads: usize,
    /// Hardware threads on the bench host; a measured fan-out gain cannot
    /// exceed this, which is why single-core hosts take the serial path.
    host_cores: usize,
    min_par_fit_elements: usize,
    training: Vec<u32>,
    target: u32,
    reps: u32,
    configs: Vec<ConfigResult>,
    /// Minimum effective speedup across configurations.
    speedup: f64,
    /// All configurations bit-identical across thread counts.
    bit_identical: bool,
}

/// Tiles a trace's blocks `copies` times (suffixing names so alignment
/// stays by-name unique), producing a signature `copies`× as large with
/// the same per-element fitting behavior.
fn tile_trace(trace: &TaskTrace, copies: usize) -> TaskTrace {
    let mut tiled = trace.clone();
    tiled.blocks = (0..copies)
        .flat_map(|c| {
            trace.blocks.iter().map(move |b| {
                let mut b = b.clone();
                b.name = format!("{}#{c}", b.name);
                b
            })
        })
        .collect();
    tiled
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let threads: usize = flag("--threads")
        .map(|v| v.parse().expect("--threads must be an integer"))
        .unwrap_or(4);
    let out = flag("--out").unwrap_or_else(|| "BENCH_extrap.json".into());
    let quick = std::env::var("XTRACE_BENCH_QUICK").is_ok_and(|v| v == "1");

    let (app, cfg, training, target, reps) = if quick {
        (
            SpecfemProxy::small(),
            TracerConfig::fast(),
            vec![4u32, 8, 16],
            32u32,
            3u32,
        )
    } else {
        (
            SpecfemProxy::paper_scale(),
            TracerConfig::default(),
            SPECFEM_TRAINING.to_vec(),
            SPECFEM_TARGET,
            200u32,
        )
    };
    let machine = target_machine();
    let threads = threads.max(2);
    eprintln!(
        "bench_extrap: {} {:?} -> {}, {} threads, {} reps{}",
        SpmdApp::name(&app),
        training,
        target,
        threads,
        reps,
        if quick { " (quick)" } else { "" }
    );

    // Training traces (untimed; shared memo across counts).
    let (memo, obs) = (SigMemo::new(), ObsContext::disabled());
    let traces: Vec<TaskTrace> = training
        .iter()
        .map(|&p| {
            let comm = profile(&app, p, &machine.net, &obs);
            collect_ranks(&app, &[comm.longest_rank], p, &machine, &cfg, &memo, &obs)
                .pop()
                .expect("one trace")
        })
        .collect();

    // A tiled ladder large enough that the element count clears the
    // fan-out threshold with margin.
    let base_instrs: usize = traces[0].blocks.iter().map(|b| b.instrs.len()).sum();
    let features = FeatureId::all(traces[0].depth).len();
    let copies = (4 * MIN_PAR_FIT_ELEMENTS)
        .div_ceil(base_instrs.max(1) * features.max(1))
        .max(4);
    let tiled: Vec<TaskTrace> = traces.iter().map(|t| tile_trace(t, copies)).collect();

    let ex_cfg = ExtrapolationConfig::default();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let run_config =
        |name: &str, ladder: &[TaskTrace]| -> ConfigResult {
            let fitted_instrs: usize = ladder[0].blocks.iter().map(|b| b.instrs.len()).sum();
            let element_fits = fitted_instrs * features;
            let time_pool = |n: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("pool");
                pool.install(|| {
                    let mut best = f64::INFINITY;
                    let mut result = None;
                    for _ in 0..reps {
                        let t0 = Instant::now();
                        let trace =
                            extrapolate_signature(ladder, target, &ex_cfg).expect("valid ladder");
                        best = best.min(t0.elapsed().as_secs_f64());
                        result = Some(trace);
                    }
                    (best, result.expect("at least one rep"))
                })
            };

            let (serial_wall, serial_trace) = time_pool(1);
            let (parallel_wall, parallel_trace) = time_pool(threads);
            // Replicate the library's gate under the N-thread pool to learn
            // which code path that leg took.
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let parallel_path_taken = pool.install(|| parallel_fit_enabled(element_fits));
            let same_code_path = !parallel_path_taken;
            let measured_ratio = serial_wall / parallel_wall;
            let speedup = if same_code_path { 1.0 } else { measured_ratio };

            let a = serde_json::to_string(&serial_trace).expect("serializable");
            let b = serde_json::to_string(&parallel_trace).expect("serializable");
            let bit_identical = a == b;
            eprintln!(
            "  {name}: {element_fits} element fits, serial {:.2} ms, {threads}-thread {:.2} ms, \
             fan-out {} -> speedup {speedup:.2}x, bit-identical {bit_identical}",
            1e3 * serial_wall,
            1e3 * parallel_wall,
            if parallel_path_taken { "ran" } else { "skipped (same code path)" },
        );
            ConfigResult {
                name: name.to_string(),
                fitted_instrs,
                element_fits,
                serial_wall_s: serial_wall,
                parallel_wall_s: parallel_wall,
                measured_ratio,
                parallel_path_taken,
                same_code_path,
                speedup,
                bit_identical,
            }
        };

    let configs = vec![
        run_config("paper-signature", &traces),
        run_config(&format!("tiled-signature-x{copies}"), &tiled),
    ];
    let speedup = configs
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    let bit_identical = configs.iter().all(|c| c.bit_identical);

    let report = ExtrapBench {
        app: SpmdApp::name(&app).to_string(),
        machine: machine.name.clone(),
        quick,
        threads,
        host_cores,
        min_par_fit_elements: MIN_PAR_FIT_ELEMENTS,
        training,
        target,
        reps,
        configs,
        speedup,
        bit_identical,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");
    println!(
        "fitting speedup {:.2}x (min over {} configs), bit-identical: {}\nwrote {out}",
        report.speedup,
        report.configs.len(),
        report.bit_identical
    );
    assert!(
        bit_identical,
        "parallel fitting changed the extrapolated trace"
    );
    assert!(
        report.speedup >= 1.0,
        "parallel fitting regressed: {:.3}x",
        report.speedup
    );
}
