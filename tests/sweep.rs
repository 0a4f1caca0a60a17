//! Multi-target sweep tests (PR 8 tentpole): one shared Collect/Fit
//! prefix, N per-target tails, and the same bits as N standalone runs.
//!
//! * Each target of a 3-target sweep over the golden config family is
//!   byte-identical to the standalone prediction — and target 384 to the
//!   committed golden file itself.
//! * The sweep is thread-invariant: rayon fan-out over 1 or 4 workers
//!   produces identical per-target predictions.
//! * A sweep measures the machine's MultiMAPS surface only when some
//!   lane predicts afresh: a cold or partly warm sweep measures it, a
//!   fully warm one never does.
//! * With validation on, every lane's validation record equals its
//!   standalone run's.
//! * A cold engine sweep writes exactly one prefix artifact set plus one
//!   tail set per target (15 writes for 3 targets) and simulates exactly
//!   the blocks of one cold single-target run; a warm re-sweep and a
//!   later standalone run at a swept target both resume fully from the
//!   prefix-keyed store with zero new writes.

use xtrace::core::{ArtifactStore, Pipeline, PipelineConfig, SweepReport, XtraceEngine};

/// The tiny SPECFEM3D config every golden file pins, swept over three
/// target core counts (the first is the committed golden target).
const SWEEP_TARGETS: [u32; 3] = [384, 768, 1536];

fn sweep_config() -> PipelineConfig {
    PipelineConfig::builder("specfem3d", "cray-xt5", vec![6, 24, 96], SWEEP_TARGETS[0])
        .scale("tiny")
        .fast_tracer(true)
        .validate(false)
        .targets(SWEEP_TARGETS.to_vec())
        .build()
}

fn standalone_config(target: u32) -> PipelineConfig {
    PipelineConfig::builder("specfem3d", "cray-xt5", vec![6, 24, 96], target)
        .scale("tiny")
        .fast_tracer(true)
        .validate(false)
        .build()
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()))
}

#[test]
fn sweep_targets_match_standalone_runs_and_the_committed_golden() {
    let mut pipeline = Pipeline::new(sweep_config()).unwrap();
    let sweep = pipeline.run_sweep().unwrap();
    assert!(
        pipeline.ctx().machine.measured_surface().is_some(),
        "a cold sweep measures the MultiMAPS surface"
    );
    assert_eq!(sweep.targets, SWEEP_TARGETS);
    assert_eq!(sweep.reports.len(), SWEEP_TARGETS.len());

    // The golden target's lane reproduces the committed golden file.
    assert_eq!(
        serde_json::to_string_pretty(&sweep.reports[0].prediction).unwrap(),
        golden("specfem_tiny_prediction.json"),
        "sweep lane for target 384 drifted from the committed golden"
    );

    // Every lane is byte-identical to the standalone single-target run.
    for (i, &target) in SWEEP_TARGETS.iter().enumerate() {
        let alone = Pipeline::new(standalone_config(target))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(sweep.reports[i].extrapolated, alone.extrapolated);
        assert_eq!(
            serde_json::to_string_pretty(&sweep.reports[i].prediction).unwrap(),
            serde_json::to_string_pretty(&alone.prediction).unwrap(),
            "sweep lane for target {target} diverged from the standalone run"
        );
        assert_eq!(sweep.reports[i].config_hash, alone.config_hash);
        assert_eq!(sweep.reports[i].prefix_hash, alone.prefix_hash);
        assert_eq!(
            sweep.reports[i].masked(),
            alone.masked(),
            "sweep lane for target {target} differs from the standalone report"
        );
    }
}

#[test]
fn only_a_sweep_that_predicts_measures_the_surface() {
    let root = std::env::temp_dir().join(format!("xtrace-sweep-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |cfg: PipelineConfig| {
        let mut pipeline = Pipeline::new(cfg)
            .unwrap()
            .with_store(ArtifactStore::open_shared(&root).unwrap());
        let sweep = pipeline.run_sweep().unwrap();
        let measured = pipeline.ctx().machine.measured_surface().is_some();
        (sweep, measured)
    };
    let predictions = |sweep: &SweepReport| {
        sweep
            .reports
            .iter()
            .map(|r| serde_json::to_string_pretty(&r.prediction).unwrap())
            .collect::<Vec<_>>()
    };

    let (cold, measured) = run(sweep_config());
    assert!(measured, "a cold sweep measures the surface");

    // Fully warm: every lane resumes its prediction, so the surface, which
    // costs far more than a warm run, is never measured.
    let (warm, measured) = run(sweep_config());
    assert!(!measured, "a fully warm sweep measured the surface");
    assert!(warm.reports.iter().all(|r| r.cache_misses == 0));
    assert_eq!(predictions(&warm), predictions(&cold));

    // Partly warm: one new target on the stored prefix predicts afresh.
    let mut partly = sweep_config();
    partly.targets = vec![SWEEP_TARGETS[0], 192];
    let (partly, measured) = run(partly);
    assert!(measured, "a sweep with a fresh target measures the surface");
    assert_eq!(predictions(&partly)[0], predictions(&cold)[0]);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn validated_sweep_lanes_match_standalone_validation() {
    let quick = |target: u32| {
        PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], target)
            .fast_tracer(true)
            .validate(true)
    };
    let sweep = Pipeline::new(quick(16).targets(vec![16, 32]).build())
        .unwrap()
        .run_sweep()
        .unwrap();
    assert_eq!(sweep.targets, vec![16, 32]);
    for (&target, lane) in sweep.targets.iter().zip(&sweep.reports) {
        let alone = Pipeline::new(quick(target).build()).unwrap().run().unwrap();
        assert!(lane.validation.is_some(), "target {target} validated");
        assert_eq!(lane.validation, alone.validation, "target {target}");
        assert_eq!(lane.masked(), alone.masked(), "target {target}");
    }
}

#[test]
fn sweep_is_invariant_under_thread_count() {
    // The per-target fan-out runs on rayon; predictions must not depend
    // on how many workers the tails are spread across.
    let run_with_threads = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        pool.install(|| {
            let sweep = Pipeline::new(sweep_config()).unwrap().run_sweep().unwrap();
            sweep
                .reports
                .iter()
                .map(|r| serde_json::to_string_pretty(&r.prediction).unwrap())
                .collect::<Vec<_>>()
        })
    };
    let one = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(one, four, "sweep predictions depend on rayon thread count");
}

#[test]
fn cold_sweep_writes_one_prefix_then_everything_resumes_warm() {
    let root = std::env::temp_dir().join(format!("xtrace-sweep-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = XtraceEngine::new().with_store(&root).unwrap();
    let cfg = sweep_config();

    // Cold: one prefix set (3 training traces) + one tail set per target
    // (fit diagnostics + extrapolated trace + prediction + critical-path
    // attribution), nothing twice.
    let cold = engine.run_sweep(&cfg).unwrap();
    assert!(!cold.coalesced);
    for report in &cold.sweep.reports {
        assert_eq!(report.cache_hits, 0);
        assert!(report.cache_misses > 0);
    }
    let stats = engine.store().unwrap().cache_stats();
    assert_eq!(
        stats.writes,
        3 + 4 * SWEEP_TARGETS.len() as u64,
        "a 3-target cold sweep must write the shared prefix exactly once"
    );
    // Extra targets add no collection: the sweep simulates exactly the
    // blocks one cold single-target run does.
    let single_cold = XtraceEngine::new()
        .run(&standalone_config(SWEEP_TARGETS[0]))
        .unwrap();
    let blocks =
        |counters: &std::collections::BTreeMap<String, u64>| counters["tracer.blocks_simulated"];
    assert!(blocks(&single_cold.metrics.counters) > 0);
    assert_eq!(
        blocks(&cold.metrics.counters),
        blocks(&single_cold.metrics.counters),
        "a sweep must collect its training prefix once"
    );

    // Warm re-sweep: every lane resumes fully, no new writes.
    let warm = engine.run_sweep(&cfg).unwrap();
    for (report, &target) in warm.sweep.reports.iter().zip(SWEEP_TARGETS.iter()) {
        assert_eq!(
            report.cache_hits, 6,
            "warm sweep lane for target {target} recomputed artifacts"
        );
        assert_eq!(report.cache_misses, 0);
    }
    assert_eq!(engine.store().unwrap().cache_stats().writes, 15);

    // A later *standalone* run at a swept target finds the prefix-keyed
    // artifacts the sweep left behind — the whole point of the re-keying.
    let single = engine.run(&cfg.for_target(SWEEP_TARGETS[1])).unwrap();
    assert!(!single.coalesced);
    assert_eq!(
        single.report.cache_hits, 6,
        "standalone run after a sweep must resume from the sweep's artifacts"
    );
    assert_eq!(single.report.cache_misses, 0);
    assert_eq!(
        serde_json::to_string(&single.report.prediction).unwrap(),
        serde_json::to_string(&cold.sweep.reports[1].prediction).unwrap()
    );
    assert_eq!(engine.store().unwrap().cache_stats().writes, 15);

    let _ = std::fs::remove_dir_all(&root);
}
