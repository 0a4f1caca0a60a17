//! Multi-client engine tests (PR 6 tentpole): one process serving many
//! pipeline sessions must stay *observably* and *numerically* equivalent
//! to the single-session runs the goldens pin.
//!
//! * An [`XtraceEngine`] run reproduces the committed golden prediction
//!   and masked-metrics snapshot bit-for-bit — the scoped-context +
//!   shared-store path changes nothing.
//! * Two different configs running concurrently in one process each keep
//!   their own metrics: the golden session's masked snapshot is identical
//!   to what it produces alone, with no counters bled in from its
//!   neighbor, and a golden session on a second engine running at the
//!   same time still matches the committed metrics golden.
//! * Eight identical in-flight `run` calls coalesce onto one cold
//!   pipeline execution: the shared store sees exactly one cold set of
//!   artifact writes, and seven callers return flagged `coalesced`.
//! * `run` is `run_sweep` over a sweep of one: equal masked reports,
//!   metrics and journals; a multi-target `run` is a usage error that
//!   never opens a flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xtrace::core::{
    EngineOutcome, PipelineConfig, StageKind, StageObserver, XtraceEngine, XtraceError,
};

/// The tiny SPECFEM3D run every golden file pins.
fn golden_config() -> PipelineConfig {
    PipelineConfig::builder("specfem3d", "cray-xt5", vec![6, 24, 96], 384)
        .scale("tiny")
        .fast_tracer(true)
        .validate(false)
        .build()
}

/// A config with a different hash (no coalescing with the golden run).
fn other_config() -> PipelineConfig {
    PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
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

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn engine_outcome_matches_golden_prediction_and_metrics() {
    let engine = XtraceEngine::new();
    let outcome = engine.run(&golden_config()).unwrap();
    assert!(!outcome.coalesced);

    let prediction = serde_json::to_string_pretty(&outcome.report.prediction).unwrap();
    assert_eq!(
        prediction,
        golden("specfem_tiny_prediction.json"),
        "engine-run prediction drifted from the golden"
    );
    // The engine journals every run; journaling must not perturb the
    // masked metrics, so the single-session golden applies verbatim.
    assert_eq!(
        outcome.metrics.masked().to_json(),
        golden("specfem_tiny_metrics.json").trim_end_matches('\n'),
        "engine-run masked metrics drifted from the golden"
    );
    assert!(outcome.journal.is_some(), "engine runs carry their journal");
}

#[test]
fn concurrent_sessions_keep_their_metrics_isolated() {
    // Reference outcomes, one session at a time.
    let solo = XtraceEngine::new();
    let golden_alone = solo.run(&golden_config()).unwrap();
    let other_alone = solo.run(&other_config()).unwrap();
    assert_ne!(
        golden_config().config_hash(),
        other_config().config_hash(),
        "the two sessions must not coalesce"
    );

    // Now both at once on a shared engine, alongside a second golden
    // session on an engine of its own (so it cannot coalesce).
    let engine = Arc::new(XtraceEngine::new());
    let (golden_out, other_out, separate_out) = std::thread::scope(|scope| {
        let e1 = Arc::clone(&engine);
        let e2 = Arc::clone(&engine);
        let t1 = scope.spawn(move || e1.run(&golden_config()).unwrap());
        let t2 = scope.spawn(move || e2.run(&other_config()).unwrap());
        let t3 = scope.spawn(|| XtraceEngine::new().run(&golden_config()).unwrap());
        (
            t1.join().expect("golden session"),
            t2.join().expect("other session"),
            t3.join().expect("separate golden session"),
        )
    });

    // Each session's prediction and masked metrics are exactly what it
    // produces alone — scoped contexts, no cross-session counter bleed.
    assert_eq!(golden_out.report.prediction, golden_alone.report.prediction);
    assert_eq!(other_out.report.prediction, other_alone.report.prediction);
    assert_eq!(
        golden_out.metrics.masked().to_json(),
        golden_alone.metrics.masked().to_json(),
        "concurrent neighbor bled into the golden session's metrics"
    );
    assert_eq!(
        other_out.metrics.masked().to_json(),
        other_alone.metrics.masked().to_json(),
        "golden session bled into its neighbor's metrics"
    );
    // And both golden sessions still match the committed goldens.
    assert_eq!(
        serde_json::to_string_pretty(&golden_out.report.prediction).unwrap(),
        golden("specfem_tiny_prediction.json")
    );
    assert!(!separate_out.coalesced, "separate engines never coalesce");
    assert_eq!(
        serde_json::to_string_pretty(&separate_out.report.prediction).unwrap(),
        golden("specfem_tiny_prediction.json")
    );
    assert_eq!(
        separate_out.metrics.masked().to_json(),
        golden("specfem_tiny_metrics.json").trim_end_matches('\n'),
        "concurrent sessions bled into the separate golden session's metrics"
    );
}

/// Blocks the leader inside its Collect stage until the test releases it,
/// guaranteeing the seven followers register while the flight is open.
struct HoldAtCollect {
    release: Arc<AtomicBool>,
}

impl StageObserver for HoldAtCollect {
    fn stage_started(&mut self, stage: StageKind) {
        if stage == StageKind::Collect {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !self.release.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "leader was never released");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[test]
fn eight_identical_inflight_runs_coalesce_onto_one_cold_pipeline() {
    let root = std::env::temp_dir().join(format!("xtrace-engine-coalesce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = Arc::new(XtraceEngine::new().with_store(&root).unwrap());
    let cfg = other_config();
    let release = Arc::new(AtomicBool::new(false));

    let mut outcomes = std::thread::scope(|scope| {
        // The leader parks inside Collect with its flight registered.
        let leader = {
            let engine = Arc::clone(&engine);
            let cfg = cfg.clone();
            let release = Arc::clone(&release);
            scope.spawn(move || {
                let sweep = engine
                    .run_sweep_with_observer(&cfg, Some(Box::new(HoldAtCollect { release })))
                    .unwrap();
                EngineOutcome::from(sweep)
            })
        };
        wait_until("the leader's flight to register", || {
            engine.in_flight() == 1
        });

        // Seven followers pile onto the same config hash.
        let followers: Vec<_> = (0..7)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let cfg = cfg.clone();
                scope.spawn(move || engine.run(&cfg).unwrap())
            })
            .collect();
        wait_until("all 7 followers to park", || engine.waiting() == 7);

        // Only now may the single cold pipeline proceed.
        release.store(true, Ordering::Release);

        let mut outcomes = vec![leader.join().expect("leader")];
        outcomes.extend(followers.into_iter().map(|f| f.join().expect("follower")));
        outcomes
    });

    assert_eq!(engine.in_flight(), 0);
    assert_eq!(engine.waiting(), 0);

    let coalesced = outcomes.iter().filter(|o| o.coalesced).count();
    assert_eq!(coalesced, 7, "exactly the seven followers coalesce");
    assert!(!outcomes[0].coalesced, "the leader ran the pipeline itself");

    // All eight callers share one result (and one producing execution).
    let first = serde_json::to_string(&outcomes[0].report.prediction).unwrap();
    for o in &outcomes {
        assert_eq!(
            serde_json::to_string(&o.report.prediction).unwrap(),
            first,
            "coalesced callers must share the leader's result"
        );
        assert_eq!(
            o.metrics.masked().to_json(),
            outcomes[0].metrics.masked().to_json()
        );
    }

    // Exactly one cold set of artifacts hit the shared store: 3 training
    // traces + fit diagnostics + extrapolated trace + prediction +
    // critical-path attribution.
    let stats = engine.store().expect("engine has a store").cache_stats();
    assert_eq!(
        stats.writes, 7,
        "eight in-flight runs must produce exactly one cold write set"
    );

    // A later identical run resumes warm from the same store instead of
    // coalescing (the flight is gone) — and writes nothing new.
    let warm = engine.run(&cfg).unwrap();
    assert!(!warm.coalesced);
    assert_eq!(warm.report.cache_hits, 6, "warm run reuses every artifact");
    assert_eq!(warm.report.cache_misses, 0);
    // Resuming skips the work itself, not just the writes: no block is
    // simulated and no element is fitted again.
    let work = |o: &xtrace::core::EngineOutcome, key: &str| o.metrics.counters[key];
    assert!(work(&outcomes[0], "tracer.blocks_simulated") > 0);
    assert!(work(&outcomes[0], "extrap.elements_fit") > 0);
    assert_eq!(work(&warm, "tracer.blocks_simulated"), 0);
    assert_eq!(work(&warm, "extrap.elements_fit"), 0);
    assert_eq!(
        serde_json::to_string(&warm.report.prediction).unwrap(),
        first
    );
    let stats = engine.store().unwrap().cache_stats();
    assert_eq!(stats.writes, 7, "warm resume added artifact writes");

    outcomes.clear();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn engine_run_is_a_one_target_sweep() {
    let engine = XtraceEngine::new();
    let cfg = other_config();
    let single = engine.run(&cfg).unwrap();
    let mut one = cfg.clone();
    one.targets = vec![cfg.target];
    let sweep = engine.run_sweep(&one).unwrap();
    assert!(!single.coalesced && !sweep.coalesced);
    assert_eq!(sweep.sweep.targets, vec![cfg.target]);
    assert_eq!(sweep.sweep.reports.len(), 1);
    assert_eq!(sweep.sweep.reports[0].masked(), single.report.masked());
    assert_eq!(
        sweep.metrics.masked().to_json(),
        single.metrics.masked().to_json()
    );
    let masked = |j: &Option<xtrace::obs::JournalSnapshot>| j.as_ref().map(|j| j.masked());
    assert!(single.journal.is_some(), "engine runs journal");
    assert_eq!(masked(&sweep.journal), masked(&single.journal));

    // A multi-target run is refused before any flight opens.
    let mut multi = cfg;
    multi.targets = vec![32, 64];
    let err = engine.run(&multi).unwrap_err();
    assert!(matches!(err, XtraceError::Usage(_)), "{err}");
    assert_eq!(engine.in_flight(), 0);
}
