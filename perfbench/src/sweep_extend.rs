//! `sweep-extend`: one caller, `XtraceEngine::run_sweep` (the
//! `xtrace pipeline --target a,b,c --store D` path). Set-up collects the
//! paper's UH3D prefix once; each op runs a seeded target triple against
//! a fresh store holding only the three training traces, so the tail is
//! cold every op and the store never grows during the run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use xtrace_core::{ArtifactStore, PipelineConfig, XtraceEngine};
use xtrace_psins::Prediction;

use crate::ledger::{fingerprint, replay_sweep, same_prediction, OpTrace};
use crate::seq::{sweep_ops, SWEEP_TARGETS};
use crate::stats::OpResult;
use crate::workload::{
    engine_loop, record_obs, remove_dir, repeat_setup, EngineOp, Params, RunOutput,
};

/// The paper's UH3D training ladder.
const TRAINING: [u32; 3] = [1024, 2048, 4096];
const MACHINE: &str = "bluewaters-phase1";

fn config(targets: &[u32]) -> PipelineConfig {
    PipelineConfig::builder("uh3d", MACHINE, TRAINING.to_vec(), targets[0])
        .scale("paper")
        .validate(false)
        .critical_path(true)
        .targets(targets.to_vec())
        .build()
}

/// What set-up leaves for the measured phase.
struct Prefix {
    /// Store namespace of the training traces.
    hash: String,
    /// `(file name, bytes)` of each `training-p<P>` artifact.
    training: Vec<(String, Vec<u8>)>,
    /// Reference prediction per pool target.
    refs: BTreeMap<u32, Prediction>,
}

impl Prefix {
    /// Files the training traces into the store rooted at `root`.
    fn seed(&self, root: &Path) -> Result<(), String> {
        let dir = root.join(&self.hash);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (name, bytes) in &self.training {
            std::fs::write(dir.join(name), bytes).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// `Ok` when every target's prediction equals its reference.
    fn check(&self, targets: &[u32], predictions: &[Prediction]) -> OpResult {
        let all = targets.len() == predictions.len()
            && targets
                .iter()
                .zip(predictions)
                .all(|(t, p)| self.refs.get(t).is_some_and(|r| same_prediction(p, r)));
        if all {
            OpResult::Ok
        } else {
            OpResult::Mismatch
        }
    }
}

/// Set-up: one cold sweep over the whole target pool into a store,
/// keeping the training artifacts and every target's reference.
fn collect_prefix(params: &Params) -> Result<Prefix, String> {
    let dir = params.scratch("prefix")?;
    let cfg = config(&SWEEP_TARGETS);
    let engine = XtraceEngine::new()
        .with_store(&dir)
        .map_err(|e| format!("store: {e}"))?;
    let outcome = engine
        .run_sweep(&cfg)
        .map_err(|e| format!("prefix sweep: {e}"))?;
    let hash = cfg.prefix_hash();
    let training = TRAINING
        .iter()
        .map(|p| {
            let name = format!("training-p{p}.bin");
            std::fs::read(dir.join(&hash).join(&name))
                .map(|bytes| (name.clone(), bytes))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    drop(engine);
    remove_dir(&dir);
    let refs = outcome
        .sweep
        .targets
        .iter()
        .copied()
        .zip(outcome.sweep.reports.into_iter().map(|r| r.prediction))
        .collect();
    Ok(Prefix {
        hash,
        training,
        refs,
    })
}

/// One op: a fresh engine over a fresh store seeded with the training
/// traces (before the timer), then the timed sweep.
fn sweep_op(
    params: &Params,
    prefix: &Prefix,
    triple: &[u32; 3],
    traced: bool,
) -> Result<EngineOp, String> {
    let dir = params.scratch("op")?;
    let engine = XtraceEngine::new()
        .with_store(&dir)
        .map_err(|e| format!("store: {e}"))?;
    prefix.seed(&dir)?;
    let t = Instant::now();
    let run = engine.run_sweep(&config(triple));
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
            let predictions: Vec<Prediction> = outcome
                .sweep
                .reports
                .iter()
                .map(|r| r.prediction.clone())
                .collect();
            prefix.check(&outcome.sweep.targets, &predictions)
        }
        Err(_) => OpResult::Error,
    };
    Ok(EngineOp {
        result,
        seconds,
        trace,
    })
}

/// The traced replay of an op, on another freshly seeded store.
fn replay(
    params: &Params,
    prefix: &Prefix,
    triple: &[u32; 3],
    tr: &mut OpTrace,
) -> Result<OpResult, String> {
    let dir = params.scratch("replay")?;
    let store = ArtifactStore::open_shared(&dir).map_err(|e| format!("store: {e}"))?;
    prefix.seed(&dir)?;
    let replayed = replay_sweep(&config(triple), &store, tr);
    drop(store);
    remove_dir(&dir);
    Ok(match &replayed {
        Ok(predictions) => prefix.check(triple, predictions),
        Err(_) => OpResult::Error,
    })
}

pub fn run(params: &Params) -> Result<RunOutput, String> {
    let setup = repeat_setup(params, || {
        let prefix = collect_prefix(params)?;
        let fingerprint = fingerprint(&prefix.refs)?;
        Ok((prefix, fingerprint))
    })?;
    let prefix = &setup.state;

    let (tally, timed_wall, trace) = engine_loop(
        params,
        &sweep_ops(params.seed, 1 << 12),
        |triple, traced| sweep_op(params, prefix, triple, traced),
        |triple, tr| replay(params, prefix, triple, tr),
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
