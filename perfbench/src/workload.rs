//! What every workload shares: run parameters, results, scratch space.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Serialize;
use xtrace_obs::JournalSnapshot;

use crate::ledger::{Ledger, OpTrace};
use crate::stats::{OpResult, Tally};

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 3;

/// One run's parameters.
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measured phase length.
    pub seconds: f64,
    /// Run the traced variant (per-layer ledger) instead of the plain one.
    pub trace: bool,
    /// Private scratch directory, removed when the run ends.
    pub work: PathBuf,
    /// Process start, where the first set-up begins.
    pub started: Instant,
}

impl Params {
    /// A fresh, empty scratch subdirectory.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The measured phase's end, counted from `from`.
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }
}

/// Removes a scratch directory, ignoring absence.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The traced run's findings.
pub struct TraceOutput {
    /// One entry per traced op.
    pub ledger: Ledger,
    /// Latencies of the untraced ops interleaved with the traced ones.
    pub untraced: Vec<f64>,
    /// `true` for `serve-warm`, whose traced op is a client round trip.
    pub serve: bool,
}

/// What one workload run measured.
pub struct RunOutput {
    /// Seconds per set-up repetition (the first includes process start).
    pub setup: Vec<f64>,
    /// Ops of the measured phase (plus every checked traced op).
    pub tally: Tally,
    /// Wall time of the measured phase.
    pub timed_wall: f64,
    /// Load-generating callers.
    pub clients: usize,
    /// Present on a traced run.
    pub trace: Option<TraceOutput>,
    /// Set-up checks that failed (golden mismatch, references differing
    /// between set-up repetitions).
    pub setup_failures: Vec<String>,
}

/// The measured set-up: every repetition's time and the last one's state.
pub struct Setup<S> {
    /// Seconds per repetition (the first includes process start).
    pub times: Vec<f64>,
    /// The last repetition's state, for the measured phase.
    pub state: S,
    /// `false` when a repetition computed other references than the first.
    pub agree: bool,
}

impl<S> Setup<S> {
    /// The set-up failure to report when repetitions disagreed.
    pub fn failures(&self) -> Vec<String> {
        if self.agree {
            Vec::new()
        } else {
            vec!["set-up repetitions computed different references".into()]
        }
    }
}

/// Runs set-up [`SETUP_REPS`] times: the first timed from process start,
/// the others from their own start. `rep` returns the state the measured
/// phase needs and a fingerprint of the references it computed.
pub fn repeat_setup<S>(
    params: &Params,
    mut rep: impl FnMut() -> Result<(S, String), String>,
) -> Result<Setup<S>, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    let mut first: Option<String> = None;
    let mut agree = true;
    for i in 0..SETUP_REPS {
        // Drop the previous repetition's state first, so its threads and
        // files are gone before this one starts.
        drop(state.take());
        let t = if i == 0 {
            params.started
        } else {
            Instant::now()
        };
        let (s, fingerprint) = rep()?;
        times.push(t.elapsed().as_secs_f64());
        state = Some(s);
        match &first {
            None => first = Some(fingerprint),
            Some(f) => agree &= *f == fingerprint,
        }
    }
    Ok(Setup {
        times,
        state: state.expect("at least one repetition"),
        agree,
    })
}

/// Records the engine outcome's observability payload: journal events
/// and the serialized outcome's size.
pub fn record_obs(tr: &mut OpTrace, journal: Option<&JournalSnapshot>, outcome: &impl Serialize) {
    tr.add(
        "obs.journal_events",
        journal.map_or(0, |j| j.events.len()) as f64,
    );
    let bytes = serde_json::to_string(outcome).map_or(0, |s| s.len());
    tr.add("obs.outcome_bytes", bytes as f64);
}

/// One engine op as the measured loop sees it.
pub struct EngineOp {
    /// Output check against the reference.
    pub result: OpResult,
    /// Latency of the engine call alone.
    pub seconds: f64,
    /// On a traced op: `engine.run_s` and the outcome's obs counts.
    pub trace: OpTrace,
}

/// The closed loop of a single-caller engine workload over seeded
/// `inputs`, for `params.seconds` (at least one op). On a traced run each
/// op is followed by a traced op: `op` again with `traced` set, then
/// `replay` of the same input into the op's ledger entry.
pub fn engine_loop<I: std::fmt::Debug>(
    params: &Params,
    inputs: &[I],
    mut op: impl FnMut(&I, bool) -> Result<EngineOp, String>,
    mut replay: impl FnMut(&I, &mut OpTrace) -> Result<OpResult, String>,
) -> Result<(Tally, f64, Option<TraceOutput>), String> {
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut untraced = Vec::new();
    let begin = Instant::now();
    let deadline = params.deadline(begin);
    for (i, input) in inputs.iter().enumerate() {
        if i > 0 && Instant::now() >= deadline {
            break;
        }
        let label = format!("op {i} {input:?}");
        let plain = op(input, false)?;
        tally.record(plain.result, plain.seconds, &label);
        if !params.trace {
            continue;
        }
        if plain.result == OpResult::Ok {
            untraced.push(plain.seconds);
        }
        let traced = op(input, true)?;
        tally.check(traced.result, &format!("{label} (traced engine)"));
        let mut tr = traced.trace;
        let replayed = replay(input, &mut tr)?;
        tally.check(replayed, &format!("{label} (replay)"));
        ledger.push(tr);
    }
    let trace = params.trace.then_some(TraceOutput {
        ledger,
        untraced,
        serve: false,
    });
    Ok((tally, begin.elapsed().as_secs_f64(), trace))
}
