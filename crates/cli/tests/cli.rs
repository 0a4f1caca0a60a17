//! End-to-end tests of the `xtrace` binary: every subcommand, both trace
//! formats, and the error paths.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xtrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtrace"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// An empty scratch directory for one test, under a root unique to this
/// test process, so leftovers of an earlier run or build never leak in.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("xtrace-cli-tests-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = xtrace(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = xtrace(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage"));
}

#[test]
fn help_succeeds() {
    let out = xtrace(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("extrapolate"));
}

#[test]
fn machines_lists_all_presets() {
    let out = xtrace(&["machines"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    for name in [
        "opteron",
        "cray-xt5",
        "bluewaters-phase1",
        "system-a",
        "system-b",
    ] {
        assert!(s.contains(name), "missing {name}");
    }
}

#[test]
fn apps_lists_proxies() {
    let out = xtrace(&["apps"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("specfem3d") && s.contains("uh3d") && s.contains("stencil3d"));
}

#[test]
fn full_pipeline_through_files_works() {
    let dir = tmpdir("pipeline");
    let mut paths = Vec::new();
    // Mixed formats: two JSON, one binary.
    for (p, name) in [(4u32, "t4.json"), (8, "t8.json"), (16, "t16.bin")] {
        let path = dir.join(name);
        let out = xtrace(&[
            "trace",
            "--app",
            "stencil3d",
            "--ranks",
            &p.to_string(),
            "--machine",
            "opteron",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "trace at {p}: {:?}", out);
        paths.push(path);
    }

    let out_path = dir.join("t64.json");
    let out = xtrace(&[
        "extrapolate",
        "--target",
        "64",
        "--out",
        out_path.to_str().unwrap(),
        paths[0].to_str().unwrap(),
        paths[1].to_str().unwrap(),
        paths[2].to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{:?}", out);

    let out = xtrace(&[
        "predict",
        "--trace",
        out_path.to_str().unwrap(),
        "--app",
        "stencil3d",
        "--ranks",
        "64",
        "--machine",
        "opteron",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("total"));
    assert!(s.contains("stencil3d-proxy"));
}

#[test]
fn trace_without_out_prints_json() {
    let out = xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "2",
        "--machine",
        "opteron",
    ]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    let trace: serde_json::Value = serde_json::from_str(&s).expect("stdout is a JSON trace");
    assert_eq!(trace["app"], "stencil3d-proxy");
    assert_eq!(trace["nranks"], 2);
}

#[test]
fn extrapolate_rejects_too_few_traces() {
    let dir = tmpdir("toofew");
    let path = dir.join("one.json");
    assert!(xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "2",
        "--machine",
        "opteron",
        "--out",
        path.to_str().unwrap(),
    ])
    .status
    .success());
    let out = xtrace(&["extrapolate", "--target", "64", path.to_str().unwrap()]);
    assert!(!out.status.success());
}

#[test]
fn unknown_machine_and_app_are_rejected_helpfully() {
    let out = xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "2",
        "--machine",
        "cray-xt9",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown machine"));
    assert!(err.contains("cray-xt5"), "suggests valid names");

    let out = xtrace(&[
        "trace",
        "--app",
        "lammps",
        "--ranks",
        "2",
        "--machine",
        "opteron",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown application"));
}

#[test]
fn missing_flag_value_is_an_error() {
    let out = xtrace(&["trace", "--app"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

#[test]
fn diff_compares_two_traces() {
    let dir = tmpdir("diff");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for (p, path) in [(4u32, &a), (8, &b)] {
        assert!(xtrace(&[
            "trace",
            "--app",
            "stencil3d",
            "--ranks",
            &p.to_string(),
            "--machine",
            "opteron",
            "--out",
            path.to_str().unwrap(),
        ])
        .status
        .success());
    }
    let out = xtrace(&[
        "diff",
        "--a",
        a.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("elements compared"));
    assert!(s.contains("worst elements"), "4-vs-8-core traces differ");

    // Self-diff: zero error, no worst list.
    let out = xtrace(&[
        "diff",
        "--a",
        a.to_str().unwrap(),
        "--b",
        a.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("max error (all):       0.00%"), "{s}");
}

#[test]
fn machine_export_roundtrips_through_trace() {
    let dir = tmpdir("machine");
    let profile = dir.join("opteron.json");
    let out = xtrace(&[
        "machine-export",
        "--machine",
        "opteron",
        "--out",
        profile.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("surface points"));

    // The exported file works anywhere a machine name does.
    let trace = dir.join("t.json");
    let out = xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "4",
        "--machine",
        profile.to_str().unwrap(),
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let t: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    // On-disk JSON traces use the versioned envelope.
    assert_eq!(t["format"], "xtrace-task-trace");
    assert_eq!(t["trace"]["machine"], "opteron");
}

#[test]
fn inspect_renders_a_program_listing() {
    let out = xtrace(&["inspect", "--app", "uh3d", "--ranks", "8", "--rank", "3"]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("rank 3 of 8"));
    assert!(s.contains("particle-push"));
    assert!(s.contains("events:"));

    let out = xtrace(&["inspect", "--app", "uh3d", "--ranks", "4", "--rank", "9"]);
    assert!(!out.status.success(), "out-of-range rank must fail");
}

#[test]
fn extrapolate_report_prints_fit_quality() {
    let dir = tmpdir("report");
    let mut paths = Vec::new();
    for p in [2u32, 4, 8] {
        let path = dir.join(format!("t{p}.json"));
        assert!(xtrace(&[
            "trace",
            "--app",
            "stencil3d",
            "--ranks",
            &p.to_string(),
            "--machine",
            "opteron",
            "--out",
            path.to_str().unwrap(),
        ])
        .status
        .success());
        paths.push(path);
    }
    let out = xtrace(&[
        "extrapolate",
        "--target",
        "32",
        "--report",
        "true",
        "--out",
        dir.join("x.json").to_str().unwrap(),
        paths[0].to_str().unwrap(),
        paths[1].to_str().unwrap(),
        paths[2].to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fit report"), "{err}");
    assert!(err.contains("chosen forms"));
}

#[test]
fn usage_errors_exit_with_code_2() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["trace", "--app"][..],
        &[
            "trace",
            "--app",
            "lammps",
            "--ranks",
            "2",
            "--machine",
            "opteron",
        ][..],
        &[
            "trace",
            "--app",
            "stencil3d",
            "--ranks",
            "2",
            "--machine",
            "cray-xt9",
        ][..],
        &[
            "pipeline",
            "--app",
            "stencil3d",
            "--training",
            "2,4",
            "--target",
            "8",
            "--machine",
            "opteron",
            "--validate",
            "maybe",
        ][..],
    ] {
        let out = xtrace(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
    }
}

#[test]
fn io_errors_exit_with_code_3() {
    // Unreadable input trace.
    let out = xtrace(&[
        "predict",
        "--trace",
        "/nonexistent/trace.json",
        "--app",
        "stencil3d",
        "--ranks",
        "4",
        "--machine",
        "opteron",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    // Unwritable output path.
    let out = xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "2",
        "--machine",
        "opteron",
        "--out",
        "/nonexistent-dir/t.json",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("/nonexistent-dir/t.json"),
        "names the path: {err}"
    );
}

#[test]
fn model_errors_exit_with_code_4() {
    // Extrapolation with a duplicated core count is a model-layer error.
    let dir = tmpdir("exit4");
    let path = dir.join("t.json");
    assert!(xtrace(&[
        "trace",
        "--app",
        "stencil3d",
        "--ranks",
        "4",
        "--machine",
        "opteron",
        "--out",
        path.to_str().unwrap(),
    ])
    .status
    .success());
    let out = xtrace(&[
        "extrapolate",
        "--target",
        "64",
        path.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("extrapolation"));
}

#[test]
fn pipeline_store_resumes_on_second_run() {
    let dir = tmpdir("store");
    let store = dir.join("artifacts");
    let args = [
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--store",
        store.to_str().unwrap(),
    ];
    let cold = xtrace(&args);
    assert!(cold.status.success(), "{cold:?}");
    assert!(store.join("store.json").exists(), "manifest written");

    let warm = xtrace(&args);
    assert!(warm.status.success(), "{warm:?}");
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(err.contains("reusing"), "resume reuses artifacts: {err}");
    assert!(err.contains("6 artifact(s) reused"), "{err}");
    // Identical result either way.
    let stdout = |o: &Output| String::from_utf8_lossy(&o.stdout).to_string();
    assert_eq!(stdout(&cold), stdout(&warm));
}

#[test]
fn pipeline_ranks_per_count_collects_worker_artifacts() {
    let dir = tmpdir("wide");
    let store = dir.join("artifacts");
    let prediction = dir.join("prediction.json");
    let args = [
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--tracer",
        "fast",
        "--out",
        prediction.to_str().unwrap(),
        "--ranks-per-count",
        "2",
        "--store",
        store.to_str().unwrap(),
    ];
    let cold = xtrace(&args);
    assert!(cold.status.success(), "{cold:?}");
    let wide_prediction = std::fs::read_to_string(&prediction).unwrap();
    let warm = xtrace(&args);
    assert!(warm.status.success(), "{warm:?}");
    let err = String::from_utf8_lossy(&warm.stderr);
    // 6 longest-rank artifacts (including the critical-path report) plus
    // at least one worker trace per count that has a distinct worker to
    // sample.
    assert!(
        !err.contains("6 artifact(s) reused"),
        "worker traces add store entries: {err}"
    );
    assert!(err.contains("artifact(s) reused"), "{err}");
    // The extra worker traces leave the prediction as it was.
    let narrow = xtrace(&args[..args.len() - 4]);
    assert!(narrow.status.success(), "{narrow:?}");
    assert_eq!(
        std::fs::read_to_string(&prediction).unwrap(),
        wide_prediction
    );

    let bad = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--ranks-per-count",
        "0",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    let msg = String::from_utf8_lossy(&bad.stderr);
    assert!(msg.contains("ranks-per-count"), "{msg}");
}

#[test]
fn pipeline_out_writes_prediction_json() {
    let dir = tmpdir("predjson");
    let out_path = dir.join("prediction.json");
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&out_path).unwrap();
    let pred: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(pred["total_seconds"].as_f64().unwrap() > 0.0);
    assert!(body.contains("per_block"));
}

#[test]
fn pipeline_golden_prediction_is_thread_invariant() {
    // Satellite (c): the tiny SPECFEM proxy's prediction JSON must be
    // byte-identical at any --threads and match the committed golden.
    let dir = tmpdir("golden");
    let run = |threads: &str, name: &str| {
        let out_path = dir.join(name);
        let out = xtrace(&[
            "pipeline",
            "--app",
            "specfem3d",
            "--scale",
            "tiny",
            "--training",
            "6,24,96",
            "--target",
            "384",
            "--machine",
            "cray-xt5",
            "--validate",
            "false",
            "--tracer",
            "fast",
            "--threads",
            threads,
            "--out",
            out_path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(&out_path).unwrap()
    };
    let one = run("1", "t1.json");
    let two = run("2", "t2.json");
    assert_eq!(one, two, "prediction depends on --threads");

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/specfem_tiny_prediction.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        one.trim_end(),
        golden.trim_end(),
        "CLI prediction drifted from {}; re-bless with UPDATE_GOLDEN=1 if intentional",
        golden_path.display()
    );
}

#[test]
fn report_subcommand_renders_run_report() {
    let out = xtrace(&[
        "report",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--top",
        "3",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("xtrace run report"), "{s}");
    assert!(s.contains("stage timings:"), "{s}");
    assert!(s.contains("canonical-form wins"), "{s}");
    assert!(s.contains("worst-fit elements"), "{s}");
    assert!(s.contains("rank-class compute/comm split"), "{s}");
}

#[test]
fn obs_outputs_create_missing_parent_dirs() {
    let dir = tmpdir("obsout");
    // The nested directory must not exist yet: creating it is the point.
    let nested = dir.join("deeply/nested");
    let _ = std::fs::remove_dir_all(dir.join("deeply"));
    let metrics = nested.join("metrics.json");
    let trace = nested.join("trace.json");
    let diag = nested.join("diagnostics.json");
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--diagnostics-out",
        diag.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(metrics["counters"].0.as_object().is_some(), "{metrics:?}");

    // The Chrome trace carries the keys the viewers require.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = trace["traceEvents"]
        .0
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        for key in ["name", "ph", "ts", "dur"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
    }
    assert!(
        events
            .iter()
            .any(|ev| ev.get("ph").and_then(|p| p.as_str()) == Some("X")),
        "no duration events"
    );

    let diag: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&diag).unwrap()).unwrap();
    let wins = diag["form_wins"].0.as_object().expect("form_wins object");
    let elements = diag["elements"].0.as_array().unwrap();
    assert!(!elements.is_empty());
    let total_wins: u64 = wins.iter().map(|(_, n)| n.as_u64().unwrap()).sum();
    assert_eq!(total_wins, elements.len() as u64, "one win per element");
    assert!(!diag["training_xs"].0.as_array().unwrap().is_empty());
    assert!(diag["target_x"].as_f64().is_some(), "{diag:?}");
}

#[test]
fn pipeline_sweep_out_rows_follow_target_order_and_share_one_prefix() {
    let dir = tmpdir("sweepout");
    let store = dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let rows = dir.join("sweep.json");
    let metrics = dir.join("metrics.json");
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "16,32,64",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--store",
        store.to_str().unwrap(),
        "--out",
        rows.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let rows: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&rows).unwrap()).unwrap();
    let rows = rows.0.as_array().expect("one row per target");
    let targets: Vec<u64> = rows
        .iter()
        .map(|r| r.get("target").and_then(|t| t.as_u64()).unwrap())
        .collect();
    assert_eq!(targets, vec![16, 32, 64], "rows follow the target order");
    for row in rows {
        let seconds = row
            .get("prediction")
            .and_then(|p| p.get("total_seconds"))
            .and_then(|s| s.as_f64())
            .unwrap();
        assert!(seconds > 0.0, "{row:?}");
    }

    // A cold 3-target sweep writes the prefix once (3 training traces)
    // and one tail set per target (fit diagnostics, extrapolated trace,
    // prediction, critical path).
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(metrics["counters"]["store.writes"].as_u64(), Some(15));
}

#[test]
fn obs_output_write_failure_exits_with_code_3() {
    // /dev/null is a file, so creating a directory under it must fail and
    // surface as the I/O exit code.
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--trace-out",
        "/dev/null/trace.json",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("/dev/null/trace.json"),
        "names the path"
    );
}

#[test]
fn pipeline_subcommand_prints_table() {
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Extrap."));
    assert!(s.contains("Coll."));
    assert!(s.contains("measured"));
}

/// `xtrace pipeline` stdout on the tiny SPECFEM golden config, pinned byte
/// for byte: one validated target (the `Extrap.`/`Coll.` table) and an
/// unvalidated two-target sweep (one prediction line per target). Re-bless
/// with `UPDATE_GOLDEN=1` and justify the delta.
#[test]
fn pipeline_stdout_matches_committed_golden() {
    let mut actual = String::new();
    for (target, validate) in [("384", "true"), ("384,768", "false")] {
        let out = xtrace(&[
            "pipeline",
            "--app",
            "specfem3d",
            "--scale",
            "tiny",
            "--training",
            "6,24,96",
            "--target",
            target,
            "--machine",
            "cray-xt5",
            "--tracer",
            "fast",
            "--validate",
            validate,
        ]);
        assert!(out.status.success(), "{out:?}");
        actual.push_str(&format!(
            "$ xtrace pipeline --target {target} --validate {validate}\n"
        ));
        actual.push_str(&String::from_utf8(out.stdout).unwrap());
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/specfem_tiny_pipeline_stdout.txt");
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
        "pipeline stdout drifted from {}; re-bless with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn report_renders_critical_path_and_per_target_splits() {
    let out = xtrace(&[
        "report",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "16,32",
        "--machine",
        "opteron",
        "--validate",
        "false",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    // Satellite fix: the compute/comm split is rendered per swept target
    // with explicit labels, not just at the largest core count.
    assert!(
        s.contains("rank-class compute/comm split (target p = 16)"),
        "{s}"
    );
    assert!(
        s.contains("rank-class compute/comm split (target p = 32)"),
        "{s}"
    );
    // Critical-path attribution renders one section per target plus the
    // flip-scale callout (stable or flipping, one of the two lines).
    assert!(s.contains("critical path (p = 16)"), "{s}");
    assert!(s.contains("critical path (p = 32)"), "{s}");
    assert!(s.contains("bottleneck"), "{s}");
    assert!(
        s.contains("bottleneck flips at p = ") || s.contains("bottleneck is stable"),
        "{s}"
    );
}

#[test]
fn critical_path_false_disables_attribution() {
    let out = xtrace(&[
        "report",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--critical-path",
        "false",
    ]);
    assert!(out.status.success(), "{out:?}");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(!s.contains("critical path (p ="), "{s}");
    // The split section is journal-driven and stays.
    assert!(s.contains("rank-class compute/comm split"), "{s}");
}

#[test]
fn pipeline_critical_out_reports_flip_scale() {
    let dir = tmpdir("critout");
    let path = dir.join("critical.json");
    let out = xtrace(&[
        "pipeline",
        "--app",
        "stencil3d",
        "--training",
        "2,4,8",
        "--target",
        "16,32",
        "--machine",
        "opteron",
        "--validate",
        "false",
        "--critical-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let body = std::fs::read_to_string(&path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let targets = v.0.get("targets").and_then(|t| t.as_array()).unwrap();
    assert_eq!(targets.len(), 2, "{body}");
    // The flip-scale key is always present (null when the bottleneck is
    // stable across the sweep).
    assert!(v.0.get("flip_target").is_some(), "{body}");
    let reports = v.0.get("reports").and_then(|r| r.as_array()).unwrap();
    assert_eq!(reports.len(), 2, "{body}");
    for report in reports {
        let segments = report.get("segments").and_then(|s| s.as_array()).unwrap();
        let sum: f64 = segments
            .iter()
            .filter_map(|s| s.get("share_bp").and_then(|b| b.as_f64()))
            .sum();
        assert_eq!(sum, 10_000.0, "shares sum to 10000 bp exactly: {body}");
    }
}

/// A saved perfbench stdout: context line, summary, result line.
fn perfbench_output(trace: u8, correct: bool, op_p50_ms: f64, ops_per_s: f64) -> String {
    format!(
        "{{\"context\": {{\"workload\": \"paper-cold\", \"commit\": \"abc1234\", \
         \"source\": \"s\", \"nproc\": 2, \"rayon_threads\": 2, \"serve_workers\": 0, \
         \"clients\": 1, \"seed\": 1, \"seconds\": 15.0, \"trace\": {trace}, \"ops\": 5}}}}\n\
         summary: 5 ops\n\
         {{\"correct\": {correct}, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\
         \"op_p50_ms\": {{\"value\": {op_p50_ms:?}, \"unit\": \"ms\"}}, \
         \"ops_per_s\": {{\"value\": {ops_per_s:?}, \"unit\": \"1/s\"}}}}}}\n"
    )
}

/// One history row of the `paper-cold` series at `host_cores`.
fn history_row(metric: &str, value: f64, host_cores: u32) -> String {
    format!(
        "{{\"workload\":\"paper-cold\",\"metric\":\"{metric}\",\"value\":{value:?},\
         \"unit\":\"u\",\"commit\":\"old\",\"host_cores\":{host_cores},\"threads\":2,\
         \"date\":\"2026-01-01\"}}\n"
    )
}

#[test]
fn bench_verdict_judges_perfbench_runs_against_like_for_like_history() {
    let dir = tmpdir("verdict");
    let history = dir.join("BENCH_history.jsonl");
    let _ = std::fs::remove_file(&history);
    std::fs::write(
        dir.join("BENCHMARK.json"),
        r#"{"end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#,
    )
    .unwrap();
    let run = |name: &str, body: String, extra: &[&str]| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let mut args = vec![
            "bench-verdict",
            path.to_str().unwrap(),
            "--history",
            history.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = xtrace(&args);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        (out, stdout)
    };

    // No history yet: every metric is new, the verdict passes.
    let (out, s) = run("fresh.txt", perfbench_output(0, true, 1000.0, 1.0), &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(s.contains("new   paper-cold op_p50_ms"), "{s}");
    assert!(s.contains("no history at 2 cores, 2 threads"), "{s}");

    // A stable history on this host, plus a 64-core series that is far
    // faster and must never be compared.
    let mut lines = String::new();
    for i in 0..12 {
        let jitter = ((i * 37) % 11) as f64;
        lines.push_str(&history_row("op_p50_ms", 1000.0 + jitter, 2));
        lines.push_str(&history_row("ops_per_s", 1.0 + jitter * 1e-3, 2));
        lines.push_str(&history_row("op_p50_ms", 10.0, 64));
        lines.push_str(&history_row("ops_per_s", 100.0, 64));
    }
    std::fs::write(&history, &lines).unwrap();

    // Same numbers: ok, judged against the 2-core rows only.
    let (out, s) = run("same.txt", perfbench_output(0, true, 1003.0, 1.0), &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(s.contains("ok    paper-cold op_p50_ms"), "{s}");
    assert!(s.contains("(baseline 1004.5, "), "2-core median only: {s}");

    // op_p50_ms 50% worse than a 20% bound: exit 4. ops_per_s far
    // *higher* than its history is an improvement, because the metric's
    // direction comes from `better`.
    let (out, s) = run("slow.txt", perfbench_output(0, true, 1500.0, 5.0), &[]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(s.contains("FAIL  paper-cold op_p50_ms"), "{s}");
    assert!(s.contains("ok    paper-cold ops_per_s"), "{s}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("paper-cold.op_p50_ms"));

    // Traced runs (per-layer metrics) and incorrect runs are refused.
    let (out, _) = run("traced.txt", perfbench_output(1, true, 1000.0, 1.0), &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let (out, _) = run("wrong.txt", perfbench_output(0, false, 1000.0, 1.0), &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(std::fs::read_to_string(&history).unwrap(), lines);

    // --append records exactly one row per end-to-end metric.
    let (out, _) = run(
        "append.txt",
        perfbench_output(0, true, 1001.0, 1.0),
        &["--append"],
    );
    assert!(out.status.success(), "{out:?}");
    let after = std::fs::read_to_string(&history).unwrap();
    let appended: Vec<&str> = after[lines.len()..].lines().collect();
    assert_eq!(appended.len(), 2, "{after}");
    assert!(appended[0].contains("\"metric\":\"op_p50_ms\""), "{after}");
    assert!(appended[1].contains("\"host_cores\":2"), "{after}");
    assert!(appended[1].contains("\"commit\":\"abc1234\""), "{after}");
}

/// Runs `xtrace pipeline` on the tiny SPECFEM3D config (fast tracer, no
/// validation) with `extra` flags, returning its `--metrics-out` snapshot.
fn tiny_specfem_metrics(name: &str, training: &str, extra: &[&str]) -> xtrace_obs::Snapshot {
    let dir = tmpdir(name);
    let metrics = dir.join("metrics.json");
    let mut args = vec![
        "pipeline",
        "--app",
        "specfem3d",
        "--scale",
        "tiny",
        "--machine",
        "cray-xt5",
        "--training",
        training,
        "--target",
        "384",
        "--tracer",
        "fast",
        "--validate",
        "false",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = xtrace(&args);
    assert!(out.status.success(), "{out:?}");
    serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap()
}

#[test]
fn metrics_out_carries_stage_spans_and_required_keys() {
    let snap = tiny_specfem_metrics("metrics-keys", "6,24,96", &[]);
    let spans: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    for stage in ["pipeline", "collect", "fit", "synthesize", "convolve"] {
        assert!(
            spans.contains(&stage),
            "missing stage span {stage}: {spans:?}"
        );
    }
    // `engine.*` load gauges are masked out of the golden snapshot, so
    // this is where their presence is asserted.
    for key in [
        "tracer.sig_memo.hits",
        "tracer.sig_memo.misses",
        "tracer.sig_memo.hit_rate_bp",
        "store.hits",
        "store.misses",
        "extrap.fit_wins.Constant",
        "spmd.rank_classes",
        "spmd.critical_path.segments",
        "spmd.critical_path.bottleneck_share_bp",
        "tracer.ring.peak_refs",
        "tracer.ring.capacity_refs",
        "engine.in_flight",
        "engine.waiting",
    ] {
        assert!(
            snap.counters.contains_key(key) || snap.gauges.contains_key(key),
            "missing metrics key {key}"
        );
    }
}

#[test]
fn wide_collection_keeps_the_ring_bounded_and_stores_compressed_traces() {
    let store = tmpdir("wide-smoke").join("store");
    let _ = std::fs::remove_dir_all(&store);
    let snap = tiny_specfem_metrics(
        "wide-smoke",
        "96,192",
        &[
            "--ranks-per-count",
            "64",
            "--store",
            store.to_str().unwrap(),
        ],
    );
    let (gauges, counters) = (&snap.gauges, &snap.counters);
    // Streaming never overfills its ring.
    let (peak, cap) = (
        gauges["tracer.ring.peak_refs"],
        gauges["tracer.ring.capacity_refs"],
    );
    assert!(
        0 < peak && peak <= cap,
        "ring peak {peak} outside (0, {cap}]"
    );
    let raw = counters["tracer.codec.raw_bytes"];
    let compressed = counters["tracer.codec.compressed_bytes"];
    assert!(
        0 < compressed && compressed < raw,
        "v2 envelope must compress: {compressed} vs {raw} raw bytes"
    );
    assert_eq!(counters["store.trace_bytes_written"], compressed);
    let writes = counters["store.writes"];
    assert!(
        writes > 64,
        "wide collection stored only {writes} artifacts"
    );
}

/// Kills the daemon if the test fails before it shuts down, so a failed
/// assertion never leaves it running.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_drains_and_exits_zero_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::Stdio;

    let store = tmpdir("serve-sigterm").join("store");
    let _ = std::fs::remove_dir_all(&store);
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_xtrace"))
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(&store)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the bind line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_string();

    let body = r#"{"app":"specfem3d","machine":"cray-xt5","training":[6,24,96],"target":384,
        "scale":"tiny","fast_tracer":true,"validate":false}"#;
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /v1/predict HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let response: xtrace_serve::ServeResponseV1 = serde_json::from_str(payload).unwrap();
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/specfem_tiny_prediction.json");
    let golden: xtrace_psins::Prediction =
        serde_json::from_str(&std::fs::read_to_string(golden_path).unwrap()).unwrap();
    assert_eq!(response.prediction, golden);

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.0.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = daemon.0.wait().expect("daemon exits");
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "exit {status:?}; stderr: {stderr}");
    assert!(stderr.contains("drained in-flight work"), "{stderr}");
}
