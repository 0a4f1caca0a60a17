//! Observability contract tests (PR 4 satellite): the metrics a pipeline
//! run emits are part of the public surface, so their *names and
//! deterministic values* are pinned by a committed golden snapshot, their
//! totals must not depend on the thread count, and recording them must not
//! perturb the prediction by a single bit.
//!
//! Wall-clock span durations and scheduling-dependent `sched.*` counters
//! are the only nondeterministic fields; [`Snapshot::masked`] zeroes the
//! former and strips the latter, and everything left is required to be a
//! pure function of the pipeline inputs.
//!
//! To re-bless the golden after an *intentional* metrics change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test observability
//! ```
//!
//! then commit the refreshed `tests/golden/specfem_tiny_metrics.json` and
//! explain the delta in the PR.
//!
//! PR 5 extends the same contract to the event journal: the masked
//! Chrome trace of the tiny run is pinned by
//! `tests/golden/specfem_tiny_trace.json` (same `UPDATE_GOLDEN` bless
//! flow), the masked journal and the fit diagnostics must be
//! thread-invariant, and journaling must not perturb the prediction.

use proptest::prelude::*;
use xtrace::core::{Pipeline, PipelineConfig, PipelineReport};
use xtrace::obs::{
    chrome_trace, EventPhase, Journal, JournalSnapshot, Recorder, Snapshot, SCHED_EVENT_PREFIX,
};

// Recorders are scoped per pipeline (`Pipeline::with_recorder` builds a
// run-local `ObsContext`; nothing is installed process-globally), so these
// tests run concurrently without cross-contaminating each other's
// counters — the serialization mutex this file used to need is gone.

/// Same tiny SPECFEM3D run as the golden-prediction test: three training
/// counts, no validation stage, light tracer sampling.
fn tiny_config() -> PipelineConfig {
    PipelineConfig::builder("specfem3d", "cray-xt5", vec![6, 24, 96], 384)
        .scale("tiny")
        .fast_tracer(true)
        .validate(false)
        .build()
}

fn run_recorded() -> (PipelineReport, Snapshot) {
    let recorder = Recorder::new();
    let mut pipeline = Pipeline::new(tiny_config())
        .unwrap()
        .with_recorder(recorder.clone());
    let report = pipeline.run().unwrap();
    (report, recorder.snapshot())
}

/// Like [`run_recorded`], but with the event journal enabled.
fn run_journaled() -> (PipelineReport, Snapshot, JournalSnapshot) {
    let recorder = Recorder::with_journal();
    let mut pipeline = Pipeline::new(tiny_config())
        .unwrap()
        .with_recorder(recorder.clone());
    let report = pipeline.run().unwrap();
    let journal = recorder
        .journal_snapshot()
        .expect("with_journal() recorder must have a journal");
    (report, recorder.snapshot(), journal)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/specfem_tiny_metrics.json")
}

fn trace_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/specfem_tiny_trace.json")
}

#[test]
fn masked_metrics_snapshot_matches_committed_golden() {
    let (_, snapshot) = run_recorded();
    let actual = snapshot.masked().to_json();

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual + "\n").unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden metrics snapshot at {} ({e}); run \
             UPDATE_GOLDEN=1 cargo test --test observability",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "masked metrics snapshot drifted from {}; if the change is \
         intentional, re-bless with UPDATE_GOLDEN=1 and explain the \
         delta in the PR",
        path.display()
    );
}

#[test]
fn masked_metrics_are_thread_invariant() {
    let run_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(run_recorded)
    };
    let (report1, snap1) = run_at(1);
    let (report4, snap4) = run_at(4);
    assert_eq!(
        snap1.masked(),
        snap4.masked(),
        "counter totals must not depend on the thread count"
    );
    assert_eq!(report1.prediction, report4.prediction);
}

#[test]
fn recording_does_not_perturb_the_prediction() {
    let plain = Pipeline::new(tiny_config()).unwrap().run().unwrap();
    let (recorded, snapshot) = run_recorded();
    // Bit-identical, not approximately equal: serialize both and compare
    // the exact decimal expansions.
    assert_eq!(
        serde_json::to_string(&plain.prediction).unwrap(),
        serde_json::to_string(&recorded.prediction).unwrap(),
        "metrics recording changed the prediction"
    );
    assert_eq!(plain.extrapolated, recorded.extrapolated);
    // And the run actually recorded something.
    assert!(!snapshot.spans.is_empty());
    assert!(snapshot.counters.values().any(|&v| v > 0));
}

#[test]
fn masked_trace_json_matches_committed_golden() {
    let (_, _, journal) = run_journaled();
    let actual = chrome_trace(&journal.masked());

    let path = trace_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual + "\n").unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace at {} ({e}); run \
             UPDATE_GOLDEN=1 cargo test --test observability",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "masked Chrome trace drifted from {}; if the change is \
         intentional, re-bless with UPDATE_GOLDEN=1 and explain the \
         delta in the PR",
        path.display()
    );
}

#[test]
fn masked_journal_and_fit_diagnostics_are_thread_invariant() {
    let run_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(run_journaled)
    };
    let (report1, _, journal1) = run_at(1);
    let (report4, _, journal4) = run_at(4);
    assert_eq!(
        journal1.masked().to_jsonl(),
        journal4.masked().to_jsonl(),
        "the masked event journal must not depend on the thread count"
    );
    let diag1 = report1.fit_diagnostics.as_ref().expect("cold fit ran");
    let diag4 = report4.fit_diagnostics.as_ref().expect("cold fit ran");
    assert_eq!(
        diag1.to_json(),
        diag4.to_json(),
        "fit diagnostics must not depend on the thread count"
    );
    assert_eq!(report1.prediction, report4.prediction);

    // Diagnostics sanity on the tiny run: every element has a winner, and
    // the extrapolation distance is target / max(training) = 384 / 96.
    let wins: u64 = diag1.form_wins.values().sum();
    assert_eq!(wins, diag1.elements.len() as u64);
    assert!(!diag1.elements.is_empty());
    assert_eq!(diag1.extrapolation_distance(), 4.0);
}

#[test]
fn journaling_does_not_perturb_the_prediction() {
    let plain = Pipeline::new(tiny_config()).unwrap().run().unwrap();
    let (journaled, _, journal) = run_journaled();
    assert_eq!(
        serde_json::to_string(&plain.prediction).unwrap(),
        serde_json::to_string(&journaled.prediction).unwrap(),
        "journaling changed the prediction"
    );
    assert_eq!(plain.extrapolated, journaled.extrapolated);

    // The run journaled real events, and masking leaves a well-formed
    // stream: timestamps zeroed, scheduling events stripped, sequence
    // numbers renumbered from zero with no gaps.
    assert!(!journal.events.is_empty());
    assert_eq!(journal.dropped, 0, "the journal must hold the whole run");
    let masked = journal.masked();
    assert!(!masked.events.is_empty());
    for (i, ev) in masked.events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64);
        assert_eq!(ev.ts_us, 0);
        assert!(!ev.name.starts_with(SCHED_EVENT_PREFIX));
    }
}

/// Event-spec alphabet for the journal property test. One name is a
/// `sched.`-prefixed scheduling event, which masking must strip.
const PROP_NAMES: [&str; 4] = ["collect.p8", "extrap.fit.Linear", "sched.steal", "spmd.sim"];
const PROP_LANES: [&str; 3] = ["collect", "fit", "spmd"];

fn emit_spec(journal: &std::sync::Arc<Journal>, specs: &[(usize, usize, usize, f64)]) {
    let handle = journal.handle();
    for &(name_i, lane_i, phase_i, arg) in specs {
        let name = PROP_NAMES[name_i % PROP_NAMES.len()];
        let lane = PROP_LANES[lane_i % PROP_LANES.len()];
        let args = [("v", arg)];
        match phase_i % 3 {
            0 => handle.begin(name, lane, &args),
            1 => handle.end(name, lane, &args),
            _ => handle.instant(name, lane, &args),
        }
    }
}

proptest! {
    /// For arbitrary event streams: sequence numbers strictly increase in
    /// buffer order, and masking is a deterministic, sched-stripping,
    /// timestamp-zeroing function of the event sequence alone.
    #[test]
    fn journal_seqs_strictly_increase_and_masking_is_deterministic(
        specs in proptest::collection::vec(
            (0usize..4, 0usize..3, 0usize..3, 0.0f64..100.0),
            1..60,
        ),
    ) {
        let j1 = Journal::new();
        emit_spec(&j1, &specs);
        let snap1 = j1.snapshot();
        prop_assert_eq!(snap1.events.len(), specs.len());
        for pair in snap1.events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq, "seqs must strictly increase");
        }

        // Re-emitting the same specs into a fresh journal yields the same
        // masked stream even though wall-clock timestamps differ.
        let j2 = Journal::new();
        emit_spec(&j2, &specs);
        let m1 = snap1.masked();
        prop_assert_eq!(&m1, &j2.snapshot().masked());

        let sched = specs
            .iter()
            .filter(|&&(name_i, _, _, _)| {
                PROP_NAMES[name_i % PROP_NAMES.len()].starts_with(SCHED_EVENT_PREFIX)
            })
            .count();
        prop_assert_eq!(m1.events.len(), specs.len() - sched);
        for (i, ev) in m1.events.iter().enumerate() {
            prop_assert_eq!(ev.seq, i as u64);
            prop_assert_eq!(ev.ts_us, 0);
            prop_assert!(!ev.name.starts_with(SCHED_EVENT_PREFIX));
            prop_assert!(matches!(
                ev.phase,
                EventPhase::Begin | EventPhase::End | EventPhase::Instant
            ));
        }
    }
}

#[test]
fn critical_path_report_is_thread_invariant() {
    // Attribution replays the same two-phase simulation as the
    // prediction; the critical-path walk must not depend on how many
    // rayon workers the collection stage fans across.
    let run_with_threads = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        pool.install(|| {
            let report = Pipeline::new(tiny_config()).unwrap().run().unwrap();
            serde_json::to_string_pretty(
                report
                    .critical_path
                    .as_ref()
                    .expect("attribution is on by default"),
            )
            .unwrap()
        })
    };
    let one = run_with_threads(1);
    let four = run_with_threads(4);
    assert_eq!(
        one, four,
        "critical-path attribution depends on rayon thread count"
    );
}

#[test]
fn attribution_does_not_perturb_the_golden_prediction() {
    // The attributed simulation must be a pure observer: the prediction
    // with attribution on (the default) is byte-identical to the run
    // with it off, and both match the committed golden.
    let attributed = Pipeline::new(tiny_config()).unwrap().run().unwrap();
    let plain_config = PipelineConfig::builder("specfem3d", "cray-xt5", vec![6, 24, 96], 384)
        .scale("tiny")
        .fast_tracer(true)
        .validate(false)
        .critical_path(false)
        .build();
    let plain = Pipeline::new(plain_config).unwrap().run().unwrap();
    assert!(attributed.critical_path.is_some());
    assert!(plain.critical_path.is_none());
    let attributed_pred = serde_json::to_string_pretty(&attributed.prediction).unwrap();
    let plain_pred = serde_json::to_string_pretty(&plain.prediction).unwrap();
    assert_eq!(
        attributed_pred, plain_pred,
        "critical-path attribution changed the prediction"
    );
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/specfem_tiny_prediction.json"),
    )
    .expect("committed golden prediction");
    assert_eq!(
        golden.trim_end(),
        attributed_pred,
        "attributed prediction drifted from the committed golden"
    );

    let critical = attributed.critical_path.as_ref().unwrap();
    assert_eq!(critical.share_sum_bp(), 10_000, "shares sum to 10 000 bp");
    assert_eq!(critical.nranks, 384);
    assert!(critical.path_seconds > 0.0);
}
