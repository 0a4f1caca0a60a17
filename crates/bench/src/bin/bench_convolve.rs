//! **Regression bench: the scaled-out convolution/replay stage.**
//!
//! Times whole-application replay at the paper's evaluation core counts
//! (SPECFEM3D at 6144 ranks, UH3D at 8192) four ways:
//!
//! 1. `seed_serial`     — the frozen pre-optimization path
//!    ([`xtrace_bench::seed_sim`]): string-keyed group model, every rank's
//!    program materialized, per-rank naive walk.
//! 2. `current_serial`  — today's interned [`GroupComputeModel`] forced
//!    down the pre-dedup path (`simulate_naive` over fully
//!    materialized programs) on one thread. This is the baseline the ≥3×
//!    acceptance number is measured against.
//! 3. `dedup_serial`    — today's class-deduplicated replay
//!    (`try_replay_groups`) on one thread: only class representatives are
//!    materialized and the model is charged once per (class, group).
//! 4. `dedup_parallel`  — the same replay under an N-thread pool: group
//!    convolution fans out and, at the engine's rank threshold, the
//!    bulk-synchronous stepping fans out over rank chunks (one untimed,
//!    recorded replay reads which path ran from `sched.spmd.parallel_sims`).
//!
//! All four legs must produce bit-identical [`SimReport`]s — the speedup
//! is not allowed to change a single bit of the answer. The harness also
//! demonstrates the [`ConvolveCache`]: a cold model build populates an
//! [`ArtifactStore`], a warm build must hit for every group and replay
//! identically. Finally it reruns the golden-pipeline configuration and
//! reports the relative error of its prediction against the committed
//! golden JSON (must be exactly 0).
//!
//! Emits `BENCH_convolve.json`. Run with:
//! `cargo run --release -p xtrace-bench --bin bench_convolve [-- --threads N --out F]`
//! Set `XTRACE_BENCH_QUICK=1` for a tiny smoke configuration.

use std::time::Instant;

use serde::Serialize;
use xtrace_apps::{SpecfemProxy, Uh3dProxy};
use xtrace_bench::seed_sim::seed_replay_groups;
use xtrace_bench::{target_machine, SPECFEM_TARGET, UH3D_TARGET};
use xtrace_core::{ArtifactStore, Pipeline, PipelineConfig};
use xtrace_machine::MachineProfile;
use xtrace_obs::{ObsContext, Recorder};
use xtrace_psins::{relative_error, ConvolveCache, GroupComputeModel};
use xtrace_spmd::{simulate, simulate_naive, RankClasses, RankProgram, SpmdApp};
use xtrace_tracer::{collect_task_trace, TaskTrace, TracerConfig};

#[derive(Serialize)]
struct AppResult {
    app: String,
    nranks: u32,
    /// Distinct rank classes the engine deduplicated the job into.
    rank_classes: usize,
    /// Signature groups feeding the compute model.
    groups: usize,
    seed_serial_wall_s: f64,
    current_serial_wall_s: f64,
    dedup_serial_wall_s: f64,
    dedup_parallel_wall_s: f64,
    /// seed wall / dedup+parallel wall.
    speedup_vs_seed: f64,
    /// The acceptance number: current-serial wall / dedup+parallel wall.
    speedup_vs_current_serial: f64,
    /// Dedup-only component (both legs on one thread).
    speedup_dedup_component: f64,
    /// Whether the bulk-synchronous stepping fanned out in leg 4, read
    /// from the `sched.spmd.parallel_sims` counter of a recorded replay.
    parallel_stepping_ran: bool,
    /// All four legs' SimReports compared with `==` (exact f64 equality).
    reports_bit_identical: bool,
    /// Replayed application runtime (identical across legs).
    total_seconds: f64,
}

#[derive(Serialize)]
struct CacheResult {
    /// Cache hits on the cold build (must be 0).
    cold_hits: usize,
    /// Cache hits on the warm build (must equal `groups`).
    warm_hits: usize,
    /// Warm-cache replay equals the uncached replay bit-for-bit.
    cached_bit_identical: bool,
}

#[derive(Serialize)]
struct ConvolveBench {
    machine: String,
    quick: bool,
    threads: usize,
    /// Hardware threads on the bench host; on a 1-core host the stepping
    /// fan-out contributes nothing and the speedup is the algorithmic
    /// dedup win alone.
    host_cores: usize,
    reps: u32,
    apps: Vec<AppResult>,
    /// Minimum `speedup_vs_current_serial` across apps.
    speedup: f64,
    /// All apps' legs bit-identical.
    bit_identical: bool,
    cache: CacheResult,
    /// Golden-pipeline prediction vs the committed golden JSON.
    prediction_total_seconds: f64,
    golden_total_seconds: f64,
    prediction_rel_err: f64,
}

/// Two-group signature layout: the master rank's trace for rank 0, a
/// worker's trace for everyone else (the shape `synthesize_full_signature`
/// produces for the proxies).
fn groups_for(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> Vec<(TaskTrace, u64)> {
    let obs = ObsContext::disabled();
    let t0 = collect_task_trace(app, 0, nranks, machine, cfg, None, &obs);
    let t1 = collect_task_trace(app, 1.min(nranks - 1), nranks, machine, cfg, None, &obs);
    vec![(t0, 1), (t1, u64::from(nranks) - 1)]
}

/// Builds the replay model, memoizing group tables in `cache` when given.
fn build_model(
    groups: &[(TaskTrace, u64)],
    nranks: u32,
    machine: &MachineProfile,
    cache: Option<&dyn ConvolveCache>,
) -> (GroupComputeModel, usize) {
    GroupComputeModel::try_new(groups, nranks, machine, cache, &ObsContext::disabled())
        .expect("model builds")
}

/// Min-of-reps wall clock around `f`, returning the last result.
fn time_reps<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(value);
    }
    (best, result.expect("at least one rep"))
}

fn bench_app(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    threads: usize,
    reps: u32,
) -> AppResult {
    let groups = groups_for(app, nranks, machine, cfg);
    let pool = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
    };
    let one = pool(1);
    let many = pool(threads);

    // Leg 1: frozen seed path.
    let (seed_wall, seed_report) =
        time_reps(reps, || seed_replay_groups(app, nranks, &groups, machine));

    // Leg 2: today's model, forced down the pre-dedup materialize-all walk.
    let (current_wall, current_report) = one.install(|| {
        time_reps(reps, || {
            let programs: Vec<RankProgram> =
                (0..nranks).map(|r| app.rank_program(r, nranks)).collect();
            let mut model = build_model(&groups, nranks, machine, None).0;
            simulate_naive(&programs, &machine.net, &mut model).expect("naive replay runs")
        })
    });

    // Legs 3+4: the class-deduplicated replay, one thread then N threads.
    let replay = || {
        xtrace_psins::try_replay_groups(app, nranks, &groups, machine).expect("dedup replay runs")
    };
    let (dedup_serial_wall, dedup_serial_report) = one.install(|| time_reps(reps, replay));
    let (dedup_parallel_wall, dedup_parallel_report) = many.install(|| time_reps(reps, replay));

    let classes = RankClasses::try_from_app(app, nranks).expect("classes build");
    let rank_classes = classes.num_classes();
    // One untimed, recorded replay in the N-thread pool: the engine counts
    // which stepping path it took.
    let parallel_stepping_ran = many.install(|| {
        let obs = ObsContext::with_recorder(Recorder::new());
        let mut model = build_model(&groups, nranks, machine, None).0;
        simulate(&classes, &machine.net, &mut model, &obs).expect("recorded replay runs");
        let counters = obs.snapshot().expect("recording context").counters;
        counters.get("sched.spmd.parallel_sims") == Some(&1)
    });

    let reports_bit_identical = seed_report == current_report
        && current_report == dedup_serial_report
        && dedup_serial_report == dedup_parallel_report;

    let result = AppResult {
        app: app.name().to_string(),
        nranks,
        rank_classes,
        groups: groups.len(),
        seed_serial_wall_s: seed_wall,
        current_serial_wall_s: current_wall,
        dedup_serial_wall_s: dedup_serial_wall,
        dedup_parallel_wall_s: dedup_parallel_wall,
        speedup_vs_seed: seed_wall / dedup_parallel_wall,
        speedup_vs_current_serial: current_wall / dedup_parallel_wall,
        speedup_dedup_component: current_wall / dedup_serial_wall,
        parallel_stepping_ran,
        reports_bit_identical,
        total_seconds: dedup_parallel_report.total_seconds,
    };
    eprintln!(
        "  {} @ {}: {} classes, seed {:.1} ms, current-serial {:.1} ms, dedup {:.1} ms, \
         dedup+par {:.1} ms -> {:.1}x vs current-serial, bit-identical {}",
        result.app,
        nranks,
        rank_classes,
        1e3 * seed_wall,
        1e3 * current_wall,
        1e3 * dedup_serial_wall,
        1e3 * dedup_parallel_wall,
        result.speedup_vs_current_serial,
        reports_bit_identical,
    );
    result
}

/// Cold/warm ConvolveCache demonstration through the artifact store.
fn bench_cache(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> CacheResult {
    let groups = groups_for(app, nranks, machine, cfg);
    let dir = std::env::temp_dir().join(format!("xtrace-bench-convolve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");

    let (_, cold_hits) = build_model(&groups, nranks, machine, Some(&store));
    let (mut warm_model, warm_hits) = build_model(&groups, nranks, machine, Some(&store));
    let (mut plain_model, _) = build_model(&groups, nranks, machine, None);
    let classes = RankClasses::try_from_app(app, nranks).expect("classes build");
    let obs = ObsContext::disabled();
    let warm = simulate(&classes, &machine.net, &mut warm_model, &obs).expect("warm replay");
    let plain = simulate(&classes, &machine.net, &mut plain_model, &obs).expect("plain replay");
    let _ = std::fs::remove_dir_all(&dir);
    CacheResult {
        cold_hits,
        warm_hits,
        cached_bit_identical: warm == plain,
    }
}

/// Reruns the golden-pipeline configuration and compares its prediction to
/// the committed golden JSON.
fn golden_prediction_err() -> (f64, f64, f64) {
    let mut cfg = PipelineConfig::new("specfem3d", "cray-xt5", vec![6, 24, 96], 384);
    cfg.scale = "tiny".into();
    cfg.fast_tracer = true;
    cfg.validate = false;
    let report = Pipeline::new(cfg)
        .expect("valid golden config")
        .run()
        .expect("golden pipeline runs");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/specfem_tiny_prediction.json"
    );
    let golden: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(golden_path).expect("golden prediction JSON exists"),
    )
    .expect("golden JSON parses");
    let golden_total = golden["total_seconds"]
        .as_f64()
        .expect("golden total_seconds");
    let predicted = report.prediction.total_seconds;
    (
        predicted,
        golden_total,
        relative_error(predicted, golden_total),
    )
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
    let out = flag("--out").unwrap_or_else(|| "BENCH_convolve.json".into());
    let quick = std::env::var("XTRACE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let threads = threads.max(2);

    let machine = target_machine();
    let (cfg, reps) = if quick {
        (TracerConfig::fast(), 2u32)
    } else {
        (TracerConfig::default(), 5u32)
    };
    eprintln!(
        "bench_convolve: {} threads, {} reps{}",
        threads,
        reps,
        if quick { " (quick)" } else { "" }
    );

    let apps = if quick {
        let specfem = SpecfemProxy::small();
        let uh3d = Uh3dProxy::small();
        vec![
            bench_app(&specfem, 32, &machine, &cfg, threads, reps),
            bench_app(&uh3d, 16, &machine, &cfg, threads, reps),
        ]
    } else {
        let specfem = SpecfemProxy::paper_scale();
        let uh3d = Uh3dProxy::paper_scale();
        vec![
            bench_app(&specfem, SPECFEM_TARGET, &machine, &cfg, threads, reps),
            bench_app(&uh3d, UH3D_TARGET, &machine, &cfg, threads, reps),
        ]
    };

    let cache = {
        let app = SpecfemProxy::small();
        bench_cache(&app, 32, &machine, &TracerConfig::fast())
    };
    eprintln!(
        "  cache: cold {} hits, warm {} hits, bit-identical {}",
        cache.cold_hits, cache.warm_hits, cache.cached_bit_identical
    );

    let (prediction_total_seconds, golden_total_seconds, prediction_rel_err) =
        golden_prediction_err();
    eprintln!(
        "  golden pipeline: predicted {prediction_total_seconds:.6} s vs golden \
         {golden_total_seconds:.6} s (rel err {prediction_rel_err:.3e})"
    );

    let speedup = apps
        .iter()
        .map(|a| a.speedup_vs_current_serial)
        .fold(f64::INFINITY, f64::min);
    let bit_identical = apps.iter().all(|a| a.reports_bit_identical);

    let report = ConvolveBench {
        machine: machine.name.clone(),
        quick,
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        reps,
        apps,
        speedup,
        bit_identical,
        cache,
        prediction_total_seconds,
        golden_total_seconds,
        prediction_rel_err,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");
    println!(
        "replay speedup {:.2}x (min over {} apps, vs current-serial), bit-identical: {}\n\
         prediction rel err: {:.3e}\nwrote {out}",
        report.speedup,
        report.apps.len(),
        report.bit_identical,
        report.prediction_rel_err
    );

    // Correctness gates (quick and full): the scale-out must change
    // nothing.
    assert!(
        report.bit_identical,
        "deduplicated/parallel replay changed a SimReport"
    );
    assert!(
        report.cache.cold_hits == 0
            && report.cache.warm_hits == 2
            && report.cache.cached_bit_identical,
        "ConvolveCache must hit for every group on reuse without changing the replay"
    );
    assert!(
        report.prediction_rel_err == 0.0,
        "golden-pipeline prediction drifted: rel err {:.3e}",
        report.prediction_rel_err
    );
    // Performance gate (full mode only; quick runs assert correctness,
    // not wall-clock).
    if !quick {
        assert!(
            report.speedup >= 3.0,
            "replay scale-out below acceptance: {:.2}x",
            report.speedup
        );
    }
}
