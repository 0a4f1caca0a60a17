//! Pipeline stages.
//!
//! The paper's Figure-2 flow — collect signatures at small core counts,
//! fit canonical forms, synthesize the signature at the target count,
//! convolve it with the machine profile, and validate against a real
//! collection — as the [`StageKind`] vocabulary the engine
//! ([`crate::pipeline::Pipeline`]) times and reports, plus the Collect
//! and Validate kernels it runs. Progress flows to a [`StageObserver`];
//! the engine adds wall-clock timing per stage on top.

use serde::{Deserialize, Serialize};
use xtrace_psins::{ground_truth, relative_error, try_predict_runtime, Prediction};
use xtrace_tracer::{collect_signature_memo_obs, collect_task_trace, SigMemo, TaskTrace};

use crate::config::PipelineCtx;
use crate::error::Result;
use crate::pipeline::Validation;

/// The five pipeline stages, in execution order. Serializes as the
/// variant name (e.g. `"Collect"`), the spelling reports and the serve
/// wire layer share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Trace the application at each training core count.
    Collect,
    /// Fit canonical forms to every feature element.
    Fit,
    /// Synthesize the extrapolated trace at the target count.
    Synthesize,
    /// Convolve the synthetic trace with the machine profile.
    Convolve,
    /// Compare against a collected trace and the execution-driven
    /// ground truth.
    Validate,
}

impl StageKind {
    /// Human-readable stage name.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Collect => "collect",
            StageKind::Fit => "fit",
            StageKind::Synthesize => "synthesize",
            StageKind::Convolve => "convolve",
            StageKind::Validate => "validate",
        }
    }
}

/// Receives progress callbacks as the pipeline runs. All methods have
/// empty defaults, so an observer implements only what it cares about.
pub trait StageObserver {
    /// A stage is about to run.
    fn stage_started(&mut self, _stage: StageKind) {}
    /// A stage finished; `seconds` is its wall-clock time.
    fn stage_finished(&mut self, _stage: StageKind, _seconds: f64) {}
    /// Free-form progress from inside a stage (e.g. one training count
    /// traced).
    fn progress(&mut self, _stage: StageKind, _message: &str) {}
    /// An artifact-store lookup resolved; `hit` says whether the artifact
    /// was reused instead of recomputed.
    fn cache_event(&mut self, _stage: StageKind, _artifact: &str, _hit: bool) {}
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl StageObserver for NullObserver {}

/// The extra ranks traced at count `nranks` when `ranks_per_count = k`
/// exceeds 1: the longest rank is always covered by the training trace
/// itself, and up to `k - 1` worker ranks are spread evenly across
/// `[1, nranks)` (matching the bench harness's sampling), skipping the
/// longest.
fn worker_ranks(nranks: u32, longest: u32, k: u32) -> Vec<u32> {
    let mut ranks = Vec::new();
    let step = (nranks / k.max(1)).max(1);
    let mut r = 1;
    while ranks.len() + 1 < k as usize && r < nranks {
        if r != longest && !ranks.contains(&r) {
            ranks.push(r);
        }
        r += step;
    }
    ranks
}

/// Collect: trace the most computationally demanding task at each
/// training count with the context's tracer configuration, returning the
/// traces in `ctx.config.training` order. When a store is attached, each
/// training trace is cached individually under `training-p<P>`. With
/// `ranks_per_count > 1`, additional worker ranks are traced per count and
/// filed under `training-p<P>-r<R>`; the returned training set (and thus
/// every prediction) is unchanged.
pub(crate) fn collect(ctx: &PipelineCtx, obs: &mut dyn StageObserver) -> Result<Vec<TaskTrace>> {
    let recorder = ctx.obs.recorder().cloned();
    // One memo across the whole training sweep: identical block
    // simulations recur across core counts (and across ranks within a
    // count), and memoization is result-identical, so this only trades
    // time for memory.
    let memo = SigMemo::new();
    let mut traces = Vec::with_capacity(ctx.config.training.len());
    for &p in &ctx.config.training {
        // One phase span per training count, nested under the stage.
        let _phase = recorder
            .as_ref()
            .map(|rec| rec.child_span(StageKind::Collect.label(), &format!("p{p}")));
        let artifact = format!("training-p{p}");
        let mut cached = None;
        if let Some(store) = &ctx.store {
            cached = store.get_trace(&ctx.prefix_hash, &artifact)?;
            obs.cache_event(StageKind::Collect, &artifact, cached.is_some());
        }
        let trace = match cached {
            Some(trace) => trace,
            None => {
                let sig = collect_signature_memo_obs(
                    ctx.app.spmd(),
                    p,
                    &ctx.machine,
                    &ctx.tracer,
                    &memo,
                    &ctx.obs,
                );
                obs.progress(
                    StageKind::Collect,
                    &format!(
                        "traced {p} cores (longest task = rank {})",
                        sig.comm.longest_rank
                    ),
                );
                if let Some(store) = &ctx.store {
                    store.put_trace(&ctx.prefix_hash, &artifact, sig.longest_task())?;
                }
                sig.longest_task().clone()
            }
        };
        // Wide collection: trace the worker ranks too. The cached (or
        // fresh) longest trace records its own rank, so resumed runs
        // sample the same workers.
        if ctx.config.ranks_per_count > 1 {
            let workers = worker_ranks(p, trace.rank, ctx.config.ranks_per_count);
            for &r in &workers {
                let artifact = format!("training-p{p}-r{r}");
                if let Some(store) = &ctx.store {
                    let hit = store.get_trace(&ctx.prefix_hash, &artifact)?.is_some();
                    obs.cache_event(StageKind::Collect, &artifact, hit);
                    if hit {
                        continue;
                    }
                }
                let worker = collect_task_trace(
                    ctx.app.spmd(),
                    r,
                    p,
                    &ctx.machine,
                    &ctx.tracer,
                    Some(&memo),
                    &ctx.obs,
                );
                if let Some(store) = &ctx.store {
                    store.put_trace(&ctx.prefix_hash, &artifact, &worker)?;
                }
            }
            obs.progress(
                StageKind::Collect,
                &format!("traced {} worker ranks at {p} cores", workers.len()),
            );
        }
        traces.push(trace);
    }
    // Memo totals are scheduling-invariant: misses equal the number of
    // unique block-simulation keys, hits the remainder.
    let metrics = ctx.obs.metrics();
    metrics.counter("tracer.sig_memo.hits").add(memo.hits());
    metrics.counter("tracer.sig_memo.misses").add(memo.misses());
    // Guard the basis-point rate against zero-lookup runs (every
    // training trace served from the store): report 0 bp rather than
    // dividing by zero — and always set the gauge, so the key is
    // present in every snapshot.
    let lookups = memo.hits() + memo.misses();
    let rate_bp = (memo.hits() * 10_000).checked_div(lookups).unwrap_or(0);
    metrics.gauge("tracer.sig_memo.hit_rate_bp").set(rate_bp);
    Ok(traces)
}

/// Validate: collect a real trace at `target`, predict from it, and
/// measure the execution-driven ground truth.
pub(crate) fn validate(
    ctx: &PipelineCtx,
    obs: &mut dyn StageObserver,
    target: u32,
    prediction: &Prediction,
) -> Result<Validation> {
    let sig = collect_signature_memo_obs(
        ctx.app.spmd(),
        target,
        &ctx.machine,
        &ctx.tracer,
        &SigMemo::new(),
        &ctx.obs,
    );
    obs.progress(StageKind::Validate, &format!("collected {target} cores"));
    let collected = try_predict_runtime(sig.longest_task(), &sig.comm, &ctx.machine)?;
    let gt = ground_truth(ctx.app.spmd(), target, &ctx.machine, &ctx.tracer, &ctx.obs);
    obs.progress(StageKind::Validate, "measured ground truth");
    Ok(Validation {
        extrapolated_error: relative_error(prediction.total_seconds, gt.total_seconds),
        collected_error: relative_error(collected.total_seconds, gt.total_seconds),
        collected,
        measured_seconds: gt.total_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::worker_ranks;

    #[test]
    fn worker_ranks_spread_evenly_and_skip_the_longest() {
        // k = 1 means longest-only: no workers.
        assert!(worker_ranks(384, 7, 1).is_empty());
        // k = 4 at 16 ranks: step 4, candidates 1, 5, 9.
        assert_eq!(worker_ranks(16, 0, 4), vec![1, 5, 9]);
        // The longest rank is never re-traced as a worker.
        assert_eq!(worker_ranks(16, 5, 4), vec![1, 9, 13]);
        // k larger than nranks saturates without looping forever.
        let all = worker_ranks(4, 0, 64);
        assert_eq!(all, vec![1, 2, 3]);
    }
}
