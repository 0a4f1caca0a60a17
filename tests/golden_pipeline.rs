//! End-to-end golden test (satellite c): a tiny SPECFEM3D-proxy pipeline
//! whose predicted-runtime JSON must match the committed golden file
//! byte-for-byte, regardless of thread count or intermediate refactors.
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_pipeline
//! ```
//!
//! then commit the refreshed `tests/golden/specfem_tiny_prediction.json`
//! and explain the delta in the PR.

use xtrace::core::{ArtifactStore, Pipeline, PipelineConfig};

fn golden_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::new("specfem3d", "cray-xt5", vec![6, 24, 96], 384);
    cfg.scale = "tiny".into();
    cfg.fast_tracer = true;
    cfg.validate = false;
    cfg
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/specfem_tiny_prediction.json")
}

#[test]
fn tiny_specfem_prediction_matches_committed_golden() {
    let report = Pipeline::new(golden_config()).unwrap().run().unwrap();
    let actual = serde_json::to_string_pretty(&report.prediction).unwrap();

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "prediction JSON drifted from {}; if the change is intentional, \
         re-bless with UPDATE_GOLDEN=1 and justify the delta in the PR",
        path.display()
    );
}

#[test]
fn golden_run_is_invariant_under_thread_count() {
    // PR 1 made collection thread-invariant; the golden pipeline must stay
    // bit-stable whether rayon fans out over 1 or many workers.
    let run_with_threads = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        pool.install(|| {
            let report = Pipeline::new(golden_config()).unwrap().run().unwrap();
            serde_json::to_string_pretty(&report.prediction).unwrap()
        })
    };
    let one = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(one, four, "prediction depends on rayon thread count");
}

#[test]
fn golden_run_resumes_from_the_store() {
    let dir = std::env::temp_dir().join(format!("xtrace-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open_shared(&dir).unwrap();

    let cold = Pipeline::new(golden_config())
        .unwrap()
        .with_store(store.clone())
        .run()
        .unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert!(cold.cache_misses > 0);

    // Warm through the cold run's own handle: every artifact comes from
    // the in-memory map, and the prediction is still the golden.
    let misses_before = store.cache_stats().misses;
    let warm_cached = Pipeline::new(golden_config())
        .unwrap()
        .with_store(store.clone())
        .run()
        .unwrap();
    assert_eq!(warm_cached.cache_misses, 0, "warm run recomputed artifacts");
    assert!(warm_cached.cache_hits > 0);
    assert_eq!(
        store.cache_stats().misses,
        misses_before,
        "a warm run on the same handle went to disk"
    );
    assert_eq!(
        serde_json::to_string_pretty(&warm_cached.prediction).unwrap(),
        std::fs::read_to_string(golden_path()).unwrap(),
        "cached warm prediction drifted from the golden"
    );

    // Warm from disk: a freshly opened store starts with an empty map.
    let warm = Pipeline::new(golden_config())
        .unwrap()
        .with_store(ArtifactStore::open_shared(&dir).unwrap())
        .run()
        .unwrap();
    assert_eq!(warm.cache_misses, 0, "warm run recomputed artifacts");
    assert!(warm.cache_hits > 0);
    assert_eq!(warm.prediction, cold.prediction);
    assert_eq!(warm.extrapolated, cold.extrapolated);

    let _ = std::fs::remove_dir_all(&dir);
}
