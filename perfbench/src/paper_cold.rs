//! `paper-cold`: one caller, `XtraceEngine::run`, each op a cold
//! single-target prediction of the paper's SPECFEM3D case against a fresh
//! empty store, so op k does exactly the work of op 1.

use std::collections::BTreeMap;
use std::time::Instant;

use xtrace_core::{ArtifactStore, PipelineConfig, XtraceEngine};
use xtrace_psins::Prediction;

use crate::ledger::{fingerprint, replay_run, same_prediction, OpTrace};
use crate::seq::{paper_cold_ops, PAPER_COLD_TARGETS};
use crate::stats::OpResult;
use crate::workload::{
    engine_loop, record_obs, remove_dir, repeat_setup, EngineOp, Params, RunOutput,
};

/// The paper's SPECFEM3D training ladder.
const TRAINING: [u32; 3] = [96, 384, 1536];
const MACHINE: &str = "bluewaters-phase1";

/// The paper-scale SPECFEM3D config at `targets` (one target, or a sweep).
fn config(targets: &[u32]) -> PipelineConfig {
    let b = PipelineConfig::builder("specfem3d", MACHINE, TRAINING.to_vec(), targets[0])
        .scale("paper")
        .validate(false)
        .critical_path(true);
    if targets.len() > 1 {
        b.targets(targets.to_vec()).build()
    } else {
        b.build()
    }
}

/// Set-up: one storeless sweep over every target in the pool yields the
/// reference prediction of each (sweep lanes are bit-identical to
/// standalone runs).
fn references() -> Result<BTreeMap<u32, Prediction>, String> {
    let outcome = XtraceEngine::new()
        .run_sweep(&config(&PAPER_COLD_TARGETS))
        .map_err(|e| format!("reference sweep: {e}"))?;
    Ok(outcome
        .sweep
        .targets
        .iter()
        .copied()
        .zip(outcome.sweep.reports.into_iter().map(|r| r.prediction))
        .collect())
}

/// One cold op at `target`: a fresh engine over a fresh empty store (made
/// before the timer starts).
fn cold_op(
    params: &Params,
    target: u32,
    reference: &Prediction,
    traced: bool,
) -> Result<EngineOp, String> {
    let dir = params.scratch("op")?;
    let engine = XtraceEngine::new()
        .with_store(&dir)
        .map_err(|e| format!("store: {e}"))?;
    let t = Instant::now();
    let run = engine.run(&config(&[target]));
    let seconds = t.elapsed().as_secs_f64();
    drop(engine);
    remove_dir(&dir);
    let mut trace = OpTrace::default();
    let result = match &run {
        Ok(outcome) => {
            if traced {
                trace.add("engine.run_s", seconds);
                record_obs(&mut trace, outcome.journal.as_ref(), outcome);
            }
            if same_prediction(&outcome.report.prediction, reference) {
                OpResult::Ok
            } else {
                OpResult::Mismatch
            }
        }
        Err(_) => OpResult::Error,
    };
    Ok(EngineOp {
        result,
        seconds,
        trace,
    })
}

/// The traced replay of a cold op, on another fresh empty store.
fn replay(
    params: &Params,
    target: u32,
    reference: &Prediction,
    tr: &mut OpTrace,
) -> Result<OpResult, String> {
    let dir = params.scratch("replay")?;
    let store = ArtifactStore::open_shared(&dir).map_err(|e| format!("store: {e}"))?;
    let replayed = replay_run(&config(&[target]), &store, tr);
    drop(store);
    remove_dir(&dir);
    Ok(match replayed {
        Ok(p) if same_prediction(&p, reference) => OpResult::Ok,
        Ok(_) => OpResult::Mismatch,
        Err(_) => OpResult::Error,
    })
}

pub fn run(params: &Params) -> Result<RunOutput, String> {
    let setup = repeat_setup(params, || {
        let refs = references()?;
        let fingerprint = fingerprint(&refs)?;
        Ok((refs, fingerprint))
    })?;
    let refs = &setup.state;

    let (tally, timed_wall, trace) = engine_loop(
        params,
        &paper_cold_ops(params.seed, 1 << 12),
        |&target, traced| cold_op(params, target, &refs[&target], traced),
        |&target, tr| replay(params, target, &refs[&target], tr),
    )?;
    Ok(RunOutput {
        setup_failures: setup.failures(),
        setup: setup.times,
        timed_wall,
        tally,
        clients: 1,
        trace,
    })
}
