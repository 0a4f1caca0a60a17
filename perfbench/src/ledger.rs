//! The per-layer ledger: the traced run replays the pipeline's calls into
//! each layer's public functions, in the order `Pipeline::run` /
//! `Pipeline::run_sweep` makes them, and times every call from here.
//!
//! The replay mirrors the default stage set with validation off and
//! critical-path attribution on (the only shape the workloads run). Its
//! predictions are checked against the workload's references, so a
//! replay that drifted from the engine would fail the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xtrace_core::{ArtifactStore, PipelineConfig, PipelineCtx};
use xtrace_extrap::{
    diagnose_fit, fit_signature_candidates_obs, fit_signature_obs, synthesize_from_fit,
};
use xtrace_obs::{FitDiagnostics, ObsContext};
use xtrace_psins::{try_predict_runtime, Prediction};
use xtrace_spmd::CriticalPathReport;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo, TaskTrace};

/// Artifact kinds, as they appear in `store.{get_s,put_s,bytes}.<kind>`.
pub const STORE_KINDS: [&str; 5] = [
    "training",
    "extrapolated",
    "fit_diagnostics",
    "prediction",
    "critical_path",
];

/// Per-op seconds of each timed layer call, in ledger order. Together
/// with the workload's `unattributed` lines they add up to the traced op.
pub fn layer_seconds_keys() -> Vec<String> {
    let mut keys: Vec<String> = [
        "tracer.collect_s",
        "machine.surface_s",
        "extrap.fit_s",
        "extrap.diagnose_s",
        "extrap.synth_s",
        "spmd.profile_s",
        "psins.predict_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for dir in ["get", "put"] {
        keys.extend(STORE_KINDS.iter().map(|k| format!("store.{dir}_s.{k}")));
    }
    keys
}

/// Everything one traced op measured: seconds per layer call, counts and
/// bytes, keyed by metric name. Absent keys read as zero.
#[derive(Debug, Default, Clone)]
pub struct OpTrace {
    values: BTreeMap<String, f64>,
}

impl OpTrace {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.values.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// The accumulated value of `key` (zero when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its wall time to `key`.
    pub fn time<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(key, t.elapsed().as_secs_f64());
        out
    }

    /// Folds a parallel tail's trace in. Its seconds are scaled by
    /// `scale`, so that tails overlapping on several threads are charged
    /// the wall time they occupied rather than their summed thread time;
    /// counts and bytes add unscaled.
    fn absorb(&mut self, tail: &OpTrace, scale: f64) {
        let seconds = layer_seconds_keys();
        for (k, v) in &tail.values {
            self.add(k, if seconds.contains(k) { v * scale } else { *v });
        }
    }
}

/// Store calls of one traced op: each is timed under its artifact kind,
/// its on-disk bytes are counted, and lookups tally hits.
struct TracedStore<'a> {
    store: &'a ArtifactStore,
    prefix: &'a str,
}

impl TracedStore<'_> {
    fn file(&self, name: &str, ext: &str) -> PathBuf {
        self.store
            .root()
            .join(self.prefix)
            .join(format!("{name}.{ext}"))
    }

    fn count_bytes(&self, tr: &mut OpTrace, kind: &str, name: &str, ext: &str) {
        let len = std::fs::metadata(self.file(name, ext)).map_or(0, |m| m.len());
        tr.add(&format!("store.bytes.{kind}"), len as f64);
    }

    fn lookup<T>(
        &self,
        tr: &mut OpTrace,
        kind: &str,
        name: &str,
        ext: &str,
        get: impl FnOnce() -> xtrace_core::Result<Option<T>>,
    ) -> xtrace_core::Result<Option<T>> {
        let found = tr.time(&format!("store.get_s.{kind}"), get)?;
        tr.add("store.lookups", 1.0);
        if found.is_some() {
            tr.add("store.hits", 1.0);
            self.count_bytes(tr, kind, name, ext);
        }
        Ok(found)
    }

    fn get_trace(&self, tr: &mut OpTrace, name: &str) -> xtrace_core::Result<Option<TaskTrace>> {
        self.lookup(tr, "training", name, "bin", || {
            self.store.get_trace(self.prefix, name)
        })
    }

    fn get_trace_json(
        &self,
        tr: &mut OpTrace,
        name: &str,
    ) -> xtrace_core::Result<Option<TaskTrace>> {
        self.lookup(tr, "extrapolated", name, "json", || {
            self.store.get_trace_json(self.prefix, name)
        })
    }

    fn get_json<T: Deserialize>(
        &self,
        tr: &mut OpTrace,
        kind: &str,
        name: &str,
    ) -> xtrace_core::Result<Option<T>> {
        self.lookup(tr, kind, name, "json", || {
            self.store.get_json(self.prefix, name)
        })
    }

    fn put_trace(
        &self,
        tr: &mut OpTrace,
        name: &str,
        trace: &TaskTrace,
    ) -> xtrace_core::Result<()> {
        tr.time("store.put_s.training", || {
            self.store.put_trace(self.prefix, name, trace)
        })?;
        self.count_bytes(tr, "training", name, "bin");
        Ok(())
    }

    fn put_trace_json(
        &self,
        tr: &mut OpTrace,
        name: &str,
        trace: &TaskTrace,
    ) -> xtrace_core::Result<()> {
        tr.time("store.put_s.extrapolated", || {
            self.store.put_trace_json(self.prefix, name, trace)
        })?;
        self.count_bytes(tr, "extrapolated", name, "json");
        Ok(())
    }

    fn put_json<T: Serialize>(
        &self,
        tr: &mut OpTrace,
        kind: &str,
        name: &str,
        value: &T,
    ) -> xtrace_core::Result<()> {
        tr.time(&format!("store.put_s.{kind}"), || {
            self.store.put_json(self.prefix, name, value)
        })?;
        self.count_bytes(tr, kind, name, "json");
        Ok(())
    }
}

/// Collect, as `DefaultCollect` runs it: one memo across the training
/// counts, each trace looked up in the store before it is traced.
fn replay_collect(
    ctx: &PipelineCtx,
    st: &TracedStore<'_>,
    obs: &ObsContext,
    tr: &mut OpTrace,
) -> xtrace_core::Result<Vec<TaskTrace>> {
    let memo = SigMemo::new();
    let mut traces = Vec::with_capacity(ctx.config.training.len());
    for &p in &ctx.config.training {
        let name = format!("training-p{p}");
        let trace = match st.get_trace(tr, &name)? {
            Some(trace) => trace,
            None => {
                let sig = tr.time("tracer.collect_s", || {
                    collect_signature_memo_obs(
                        ctx.app.spmd(),
                        p,
                        &ctx.machine,
                        &ctx.tracer,
                        &memo,
                        obs,
                    )
                });
                st.put_trace(tr, &name, sig.longest_task())?;
                sig.longest_task().clone()
            }
        };
        traces.push(trace);
    }
    tr.add("tracer.memo_hits", memo.hits() as f64);
    tr.add("tracer.memo_lookups", (memo.hits() + memo.misses()) as f64);
    Ok(traces)
}

/// The sorted training counts the fit diagnostics are computed over.
fn training_xs(config: &PipelineConfig) -> Vec<f64> {
    let mut xs: Vec<f64> = config.training.iter().map(|&p| f64::from(p)).collect();
    xs.sort_by(f64::total_cmp);
    xs
}

/// Convolve for one target, as `Pipeline::run` and the sweep tail run it
/// with critical-path attribution on: probe both artifacts, profile with
/// attribution when either is missing, predict, file what was computed.
/// The MultiMAPS surface is measured as its own call before the first
/// prediction on this context's fresh machine profile.
fn replay_convolve(
    ctx: &PipelineCtx,
    st: &TracedStore<'_>,
    obs: &ObsContext,
    target: u32,
    extrapolated: &TaskTrace,
    tr: &mut OpTrace,
) -> xtrace_core::Result<Prediction> {
    let critical_name = format!("critical-path-t{target}");
    let prediction_name = format!("prediction-t{target}");
    let critical: Option<CriticalPathReport> = st.get_json(tr, "critical_path", &critical_name)?;
    let critical_cached = critical.is_some();
    let cached: Option<Prediction> = st.get_json(tr, "prediction", &prediction_name)?;
    let mut fresh_critical = None;
    let prediction = match cached {
        Some(p) => {
            if !critical_cached {
                fresh_critical = tr
                    .time("spmd.profile_s", || ctx.app.comm_attr_obs(target, obs))
                    .1;
            }
            p
        }
        None => {
            let comm = if critical_cached {
                tr.time("spmd.profile_s", || ctx.app.comm_obs(target, obs))
            } else {
                let (comm, c) = tr.time("spmd.profile_s", || ctx.app.comm_attr_obs(target, obs));
                fresh_critical = c;
                comm
            };
            tr.time("machine.surface_s", || {
                std::hint::black_box(ctx.machine.surface());
            });
            let p = tr.time("psins.predict_s", || {
                try_predict_runtime(extrapolated, &comm, &ctx.machine)
            })?;
            st.put_json(tr, "prediction", &prediction_name, &p)?;
            p
        }
    };
    if let Some(c) = &fresh_critical {
        st.put_json(tr, "critical_path", &critical_name, c)?;
    }
    Ok(prediction)
}

/// Replays `Pipeline::run` for a single-target config against `store`,
/// recording every layer call into `tr`; returns the prediction.
pub fn replay_run(
    config: &PipelineConfig,
    store: &ArtifactStore,
    tr: &mut OpTrace,
) -> xtrace_core::Result<Prediction> {
    let ctx = config.resolve()?;
    let obs = ObsContext::disabled();
    let st = TracedStore {
        store,
        prefix: &ctx.prefix_hash,
    };
    let target = ctx.config.target;
    let traces = replay_collect(&ctx, &st, &obs, tr)?;

    let extrapolated_name = format!("extrapolated-t{target}");
    let diagnostics_name = format!("fit-diagnostics-t{target}");
    let extrapolated = match st.get_trace_json(tr, &extrapolated_name)? {
        Some(trace) => {
            let _: Option<FitDiagnostics> =
                st.get_json(tr, "fit_diagnostics", &diagnostics_name)?;
            trace
        }
        None => {
            let fit = tr.time("extrap.fit_s", || {
                fit_signature_obs(&traces, target, &ctx.extrap, &obs)
            })?;
            tr.add("extrap.elements_fit", fit.fits.len() as f64);
            let xs = training_xs(&ctx.config);
            let diagnostics = tr.time("extrap.diagnose_s", || diagnose_fit(&fit, &xs, &ctx.extrap));
            st.put_json(tr, "fit_diagnostics", &diagnostics_name, &diagnostics)?;
            let trace = tr.time("extrap.synth_s", || synthesize_from_fit(&fit));
            st.put_trace_json(tr, &extrapolated_name, &trace)?;
            trace
        }
    };
    replay_convolve(&ctx, &st, &obs, target, &extrapolated, tr)
}

/// Replays `Pipeline::run_sweep` for a multi-target config against
/// `store`: one collect and one candidate fit, then the per-target tails
/// fanned over the rayon pool. Returns the predictions in target order.
pub fn replay_sweep(
    config: &PipelineConfig,
    store: &ArtifactStore,
    tr: &mut OpTrace,
) -> xtrace_core::Result<Vec<Prediction>> {
    let ctx = config.resolve()?;
    let obs = ObsContext::disabled();
    let st = TracedStore {
        store,
        prefix: &ctx.prefix_hash,
    };
    let targets = ctx.config.effective_targets();
    let traces = replay_collect(&ctx, &st, &obs, tr)?;

    let mut cached = Vec::with_capacity(targets.len());
    for &t in &targets {
        let hit = st.get_trace_json(tr, &format!("extrapolated-t{t}"))?;
        if hit.is_some() {
            let _: Option<FitDiagnostics> =
                st.get_json(tr, "fit_diagnostics", &format!("fit-diagnostics-t{t}"))?;
        }
        cached.push(hit);
    }
    let candidates = if cached.iter().any(Option::is_none) {
        Some(tr.time("extrap.fit_s", || {
            fit_signature_candidates_obs(&traces, &ctx.extrap, &obs)
        })?)
    } else {
        None
    };
    let xs = training_xs(&ctx.config);

    let plans: Vec<(u32, Option<TaskTrace>)> = targets.iter().copied().zip(cached).collect();
    let tail =
        |(t, cached): &(u32, Option<TaskTrace>)| -> xtrace_core::Result<(Prediction, OpTrace)> {
            let t = *t;
            let mut tt = OpTrace::default();
            let extrapolated = match cached {
                Some(trace) => trace.clone(),
                None => {
                    let candidates = candidates.as_ref().expect("fitted when a target missed");
                    let fit = tt.time("extrap.fit_s", || candidates.select_obs(t, &obs))?;
                    tt.add("extrap.elements_fit", fit.fits.len() as f64);
                    let diagnostics =
                        tt.time("extrap.diagnose_s", || diagnose_fit(&fit, &xs, &ctx.extrap));
                    st.put_json(
                        &mut tt,
                        "fit_diagnostics",
                        &format!("fit-diagnostics-t{t}"),
                        &diagnostics,
                    )?;
                    let trace = tt.time("extrap.synth_s", || synthesize_from_fit(&fit));
                    st.put_trace_json(&mut tt, &format!("extrapolated-t{t}"), &trace)?;
                    trace
                }
            };
            let prediction = replay_convolve(&ctx, &st, &obs, t, &extrapolated, &mut tt)?;
            Ok((prediction, tt))
        };
    let fan_out = Instant::now();
    let tails: Vec<xtrace_core::Result<(Prediction, OpTrace)>> =
        plans.par_iter().map(tail).collect();
    let wall = fan_out.elapsed().as_secs_f64();

    let mut predictions = Vec::with_capacity(tails.len());
    let mut traced = Vec::with_capacity(tails.len());
    for result in tails {
        let (p, tt) = result?;
        predictions.push(p);
        traced.push(tt);
    }
    let busy: f64 = traced
        .iter()
        .map(|tt| layer_seconds_keys().iter().map(|k| tt.get(k)).sum::<f64>())
        .sum();
    let scale = if busy > wall { wall / busy } else { 1.0 };
    tr.add(
        "ledger.tail_overlap",
        if busy > 0.0 { busy / wall } else { 0.0 },
    );
    for tt in &traced {
        tr.absorb(tt, scale);
    }
    Ok(predictions)
}

/// The per-layer values of many traced ops, reduced to one number each.
#[derive(Debug, Default)]
pub struct Ledger {
    ops: Vec<OpTrace>,
}

impl Ledger {
    /// Adds one traced op.
    pub fn push(&mut self, op: OpTrace) {
        self.ops.push(op);
    }

    /// Traced ops recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The median over traced ops of `key`.
    pub fn median(&self, key: &str) -> f64 {
        let xs: Vec<f64> = self.ops.iter().map(|o| o.get(key)).collect();
        crate::stats::median(&xs).unwrap_or(0.0)
    }

    /// `num` summed over ops divided by `den` summed over ops (zero when
    /// the base is zero).
    pub fn ratio(&self, num: &str, den: &str) -> (f64, f64) {
        let n: f64 = self.ops.iter().map(|o| o.get(num)).sum();
        let d: f64 = self.ops.iter().map(|o| o.get(den)).sum();
        (if d > 0.0 { n / d } else { 0.0 }, d)
    }
}

/// The references' serialized bytes, in key order: equal fingerprints
/// mean bit-identical predictions.
pub fn fingerprint(refs: &BTreeMap<u32, Prediction>) -> Result<String, String> {
    let values: Vec<&Prediction> = refs.values().collect();
    serde_json::to_string(&values).map_err(|e| e.to_string())
}

/// `true` when the two predictions serialize to the same bytes — equal
/// bit for bit in every field.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}
