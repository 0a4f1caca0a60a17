//! The staged pipeline engine.
//!
//! [`Pipeline`] runs the paper's Figure-2 flow — Collect → Fit →
//! Synthesize → Convolve → Validate — over every target of its config,
//! times each stage, reports progress through a
//! [`StageObserver`](crate::stage::StageObserver), and — when an
//! [`ArtifactStore`] is attached — reuses any artifact already filed
//! under the run's *prefix hash*
//! ([`PipelineConfig::prefix_hash`](crate::PipelineConfig::prefix_hash)),
//! so re-running an identical config resumes instead of recomputing, and
//! two configs differing only in target share everything but the tail:
//!
//! * each training trace is cached individually (`training-p<P>.bin`) —
//!   fully target-independent,
//! * the synthetic trace short-circuits Fit + Synthesize
//!   (`extrapolated-t<T>.json`),
//! * the prediction and validation records short-circuit Convolve and
//!   Validate (`prediction-t<T>.json`, `validation-t<T>.json`).
//!
//! A single target is a sweep of one, and the run is stage-major: Collect
//! runs once, the canonical-form candidates are fitted once
//! ([`xtrace_extrap::fit_signature_candidates_obs`]) and selected for
//! every target that missed the store, in target order; Synthesize,
//! Convolve and Validate each fan out over the targets on the rayon pool,
//! and every target's observer calls are replayed in target order after
//! the stage's join. Each per-target prediction is bit-identical to its
//! standalone single-target run.

use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xtrace_extrap::SignatureFit;
use xtrace_obs::{FitDiagnostics, ObsContext, STAGE_PARENT};
use xtrace_psins::{try_predict_runtime, Prediction};
use xtrace_spmd::CriticalPathReport;
use xtrace_tracer::TaskTrace;

use crate::config::{PipelineConfig, PipelineCtx};
use crate::error::{Result, XtraceError};
use crate::stage::{self, NullObserver, StageKind, StageObserver};
use crate::store::ArtifactStore;

/// Wall-clock time of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Which stage.
    pub stage: StageKind,
    /// Elapsed seconds (including any artifact-store traffic).
    pub seconds: f64,
}

/// How the extrapolated prediction compares against reality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Validation {
    /// Relative error of the extrapolated-trace prediction vs the
    /// execution-driven measured runtime.
    pub extrapolated_error: f64,
    /// Relative error of the collected-trace prediction vs measured.
    pub collected_error: f64,
    /// Prediction from the trace actually collected at the target count.
    pub collected: Prediction,
    /// The execution-driven measured runtime in seconds.
    pub measured_seconds: f64,
}

/// Everything a pipeline run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Full config hash of the (single-target) run — the engine's
    /// coalescing key.
    pub config_hash: String,
    /// Prefix hash the run's store artifacts were filed under (shared by
    /// every config differing only in target).
    pub prefix_hash: String,
    /// Training core counts, in collection order.
    pub training_counts: Vec<u32>,
    /// The synthetic trace at the target core count.
    pub extrapolated: TaskTrace,
    /// The runtime prediction from the synthetic trace.
    pub prediction: Prediction,
    /// Validation against collection + ground truth, when enabled.
    pub validation: Option<Validation>,
    /// Per-stage wall-clock timings, in execution order: the shared
    /// Collect and Fit stages, then this target's own share of
    /// Synthesize, Convolve and Validate.
    pub timings: Vec<StageTiming>,
    /// Artifact-store lookups that were reused.
    pub cache_hits: usize,
    /// Artifact-store lookups that had to be computed.
    pub cache_misses: usize,
    /// Per-element canonical-form fit diagnostics. Present whenever the
    /// Fit stage ran this process; on store-resumed runs it is loaded
    /// from the `fit-diagnostics` artifact (and is `None` when resuming
    /// from a store written before diagnostics existed, or when no store
    /// is attached on a short-circuited run).
    pub fit_diagnostics: Option<xtrace_obs::FitDiagnostics>,
    /// Critical-path attribution of the convolution's profiling
    /// simulation at the target count. Present when
    /// [`PipelineConfig::critical_path`](crate::PipelineConfig) is
    /// enabled (the default) and the app supports attribution; persisted
    /// as the `critical-path-t<T>` artifact, so store-resumed runs reload
    /// it (`None` only when attribution is disabled or the app does not
    /// support it).
    /// Purely diagnostic: the prediction is bit-identical either way.
    pub critical_path: Option<CriticalPathReport>,
}

/// Everything a multi-target sweep produced: one [`PipelineReport`] per
/// target over a single shared Collect + candidate-fit prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The shared artifact-store namespace every target filed under.
    pub prefix_hash: String,
    /// The swept target core counts, in request order.
    pub targets: Vec<u32>,
    /// One report per target, ordered like [`Self::targets`]. Each
    /// `config_hash` is the hash a standalone single-target run at that
    /// target would carry, and each prediction is bit-identical to that
    /// standalone run.
    pub reports: Vec<PipelineReport>,
    /// Wall-clock seconds of the shared prefix (Collect + candidate fit)
    /// that ran exactly once for the whole sweep.
    pub prefix_seconds: f64,
}

/// One target's prediction in the stable row shape shared by the CLI's
/// sweep `--out` file and the serve wire layer, so both speak the same
/// schema instead of assembling JSON ad hoc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionRow {
    /// The extrapolated target core count.
    pub target: u32,
    /// Full config hash of the standalone single-target run at `target`.
    pub config_hash: String,
    /// The runtime prediction at the target count.
    pub prediction: Prediction,
}

impl PipelineReport {
    /// The deterministic core of the report: wall-clock stage timings
    /// zeroed, everything else untouched. The report-level analogue of
    /// [`xtrace_obs::Snapshot::masked`] — two runs of the same config
    /// must produce equal masked reports at any thread count or machine
    /// speed.
    pub fn masked(&self) -> PipelineReport {
        PipelineReport {
            timings: self
                .timings
                .iter()
                .map(|t| StageTiming {
                    stage: t.stage,
                    seconds: 0.0,
                })
                .collect(),
            ..self.clone()
        }
    }

    /// This report's prediction as a [`PredictionRow`].
    pub fn prediction_row(&self) -> PredictionRow {
        PredictionRow {
            target: self.extrapolated.nranks,
            config_hash: self.config_hash.clone(),
            prediction: self.prediction.clone(),
        }
    }
}

impl SweepReport {
    /// The deterministic core of the sweep: every per-target report
    /// masked and the prefix wall-clock zeroed.
    pub fn masked(&self) -> SweepReport {
        SweepReport {
            prefix_hash: self.prefix_hash.clone(),
            targets: self.targets.clone(),
            reports: self.reports.iter().map(PipelineReport::masked).collect(),
            prefix_seconds: 0.0,
        }
    }

    /// One [`PredictionRow`] per target, in sweep order — the schema the
    /// CLI's `--out` file and the serve sweep response both carry.
    pub fn prediction_rows(&self) -> Vec<PredictionRow> {
        self.reports
            .iter()
            .map(PipelineReport::prediction_row)
            .collect()
    }

    /// `(target, bottleneck)` per swept target, in sweep order, for every
    /// target that carries critical-path attribution. The bottleneck is
    /// the `(rank-class, phase)` segment with the largest path share.
    pub fn bottlenecks(&self) -> Vec<(u32, u32, xtrace_spmd::PathPhase, u32)> {
        self.targets
            .iter()
            .zip(&self.reports)
            .filter_map(|(&t, r)| {
                let seg = r.critical_path.as_ref()?.bottleneck()?;
                Some((t, seg.class, seg.phase, seg.share_bp))
            })
            .collect()
    }

    /// The first swept target whose critical-path bottleneck `(class,
    /// phase)` differs from the first attributed target's — the scale at
    /// which the dominant cost flips (e.g. compute-bound at training-like
    /// counts, exchange-bound at scale). `None` when fewer than two
    /// targets carry attribution or the bottleneck never changes.
    pub fn bottleneck_flip_target(&self) -> Option<u32> {
        let rows = self.bottlenecks();
        let (_, class0, phase0, _) = *rows.first()?;
        rows.iter()
            .skip(1)
            .find(|(_, c, p, _)| (*c, *p) != (class0, phase0))
            .map(|&(t, ..)| t)
    }
}

/// Forwards to a caller observer while counting cache traffic.
struct Counting<'a> {
    inner: &'a mut dyn StageObserver,
    hits: usize,
    misses: usize,
}

impl StageObserver for Counting<'_> {
    fn stage_started(&mut self, stage: StageKind) {
        self.inner.stage_started(stage);
    }
    fn stage_finished(&mut self, stage: StageKind, seconds: f64) {
        self.inner.stage_finished(stage, seconds);
    }
    fn progress(&mut self, stage: StageKind, message: &str) {
        self.inner.progress(stage, message);
    }
    fn cache_event(&mut self, stage: StageKind, artifact: &str, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.inner.cache_event(stage, artifact, hit);
    }
}

/// One stage's bookkeeping around its work: observer callbacks, the
/// wall-clock begin/end on the journal's "pipeline" lane, and the stage
/// span under the pipeline parent.
struct Brackets<'a> {
    observer: &'a mut dyn StageObserver,
    obs: &'a ObsContext,
}

impl Brackets<'_> {
    fn open(&mut self, stage: StageKind) -> Instant {
        self.observer.stage_started(stage);
        self.obs.journal().begin(stage.label(), "pipeline", &[]);
        Instant::now()
    }

    fn close(&mut self, stage: StageKind, start: Instant) -> f64 {
        let seconds = start.elapsed().as_secs_f64();
        self.observer.stage_finished(stage, seconds);
        if let Some(rec) = self.obs.recorder() {
            rec.record_span(Some(STAGE_PARENT), stage.label(), seconds);
        }
        self.obs.journal().end(stage.label(), "pipeline", &[]);
        seconds
    }

    /// Forwards a lane's buffered observer calls, counting its cache
    /// traffic into the lane.
    fn replay(&mut self, lane: &mut Lane) {
        for event in lane.events.0.drain(..) {
            match event {
                LaneEvent::Progress(stage, message) => self.observer.progress(stage, &message),
                LaneEvent::Cache(stage, artifact, hit) => {
                    if hit {
                        lane.cache_hits += 1;
                    } else {
                        lane.cache_misses += 1;
                    }
                    self.observer.cache_event(stage, &artifact, hit);
                }
            }
        }
    }
}

/// An observer call a lane made, held for replay on the caller's thread.
enum LaneEvent {
    Progress(StageKind, String),
    Cache(StageKind, String, bool),
}

/// Buffers a lane's observer calls while it runs off the caller's thread.
#[derive(Default)]
struct Replay(Vec<LaneEvent>);

impl StageObserver for Replay {
    fn progress(&mut self, stage: StageKind, message: &str) {
        self.0.push(LaneEvent::Progress(stage, message.to_string()));
    }
    fn cache_event(&mut self, stage: StageKind, artifact: &str, hit: bool) {
        self.0
            .push(LaneEvent::Cache(stage, artifact.to_string(), hit));
    }
}

/// The store names of one target's artifacts.
struct ArtifactNames {
    extrapolated: String,
    diagnostics: String,
    prediction: String,
    critical_path: String,
    validation: String,
}

impl ArtifactNames {
    fn new(t: u32) -> Self {
        Self {
            extrapolated: format!("extrapolated-t{t}"),
            diagnostics: format!("fit-diagnostics-t{t}"),
            prediction: format!("prediction-t{t}"),
            critical_path: format!("critical-path-t{t}"),
            validation: format!("validation-t{t}"),
        }
    }
}

/// One target's way through the stages: what it resumed or computed so
/// far, its own timings and cache counts, and the observer calls it has
/// not replayed yet.
struct Lane {
    target: u32,
    names: ArtifactNames,
    fit: Option<SignatureFit>,
    extrapolated: Option<TaskTrace>,
    fit_diagnostics: Option<FitDiagnostics>,
    prediction: Option<Prediction>,
    critical_path: Option<CriticalPathReport>,
    validation: Option<Validation>,
    timings: Vec<StageTiming>,
    cache_hits: usize,
    cache_misses: usize,
    events: Replay,
    /// Seconds of the current stage spent on this lane before its
    /// fan-out, folded into the stage's timing by [`Lane::advance`].
    carried: f64,
}

impl Lane {
    /// Probes the store for the target's synthetic trace, which
    /// short-circuits Fit and Synthesize, and on a hit reloads the fit
    /// diagnostics filed with it.
    fn probe(&mut self, ctx: &PipelineCtx) -> Result<()> {
        let Some(store) = &ctx.store else {
            return Ok(());
        };
        self.extrapolated = store.get_trace_json(&ctx.prefix_hash, &self.names.extrapolated)?;
        self.events.cache_event(
            StageKind::Synthesize,
            &self.names.extrapolated,
            self.extrapolated.is_some(),
        );
        if self.extrapolated.is_some() {
            self.fit_diagnostics = store.get_json(&ctx.prefix_hash, &self.names.diagnostics)?;
        }
        Ok(())
    }

    /// Probes the store for the target's critical-path attribution (when
    /// enabled), then its prediction, in the order Convolve reports them.
    fn probe_convolve(&mut self, ctx: &PipelineCtx) -> Result<()> {
        let Some(store) = &ctx.store else {
            return Ok(());
        };
        let prefix = &ctx.prefix_hash;
        let names = &self.names;
        if ctx.config.critical_path {
            self.critical_path = store.get_json(prefix, &names.critical_path)?;
            self.events.cache_event(
                StageKind::Convolve,
                &names.critical_path,
                self.critical_path.is_some(),
            );
        }
        self.prediction = store.get_json(prefix, &names.prediction)?;
        self.events.cache_event(
            StageKind::Convolve,
            &names.prediction,
            self.prediction.is_some(),
        );
        Ok(())
    }

    /// This target's share of a fanned-out stage, with every store probe
    /// and put the stage owns, except Convolve's probes, which ran before
    /// the fan-out ([`prepare_convolve`]). `xs` are the sorted training
    /// counts.
    fn advance(&mut self, stage: StageKind, ctx: &PipelineCtx, xs: &[f64]) -> Result<()> {
        let start = Instant::now();
        let t = self.target;
        let store = ctx.store.as_ref();
        let prefix = &ctx.prefix_hash;
        let names = &self.names;
        match stage {
            StageKind::Synthesize => {
                if let Some(fit) = self.fit.take() {
                    // Diagnosing is a pure, deterministic function of the
                    // fit, so it costs the same with and without a
                    // recorder and is bit-identical across thread counts.
                    let diagnostics = xtrace_extrap::diagnose_fit(&fit, xs, &ctx.extrap);
                    if let Some(store) = store {
                        store.put_json(prefix, &names.diagnostics, &diagnostics)?;
                    }
                    self.fit_diagnostics = Some(diagnostics);
                    let trace = xtrace_extrap::synthesize_from_fit(&fit);
                    if let Some(store) = store {
                        store.put_trace_json(prefix, &names.extrapolated, &trace)?;
                    }
                    self.extrapolated = Some(trace);
                }
            }
            StageKind::Convolve => {
                let extrapolated = self
                    .extrapolated
                    .as_ref()
                    .expect("every lane is synthesized or resumed before Convolve");
                // With critical-path attribution on, the attributed
                // profiling pass replaces the plain one: one simulation
                // yields both the comm profile and the artifact, and the
                // prediction stays bit-identical because attribution only
                // observes.
                let attribute = ctx.config.critical_path && self.critical_path.is_none();
                if self.prediction.is_none() {
                    let comm = if attribute {
                        let (comm, fresh) = ctx.app.comm_attr_obs(t, &ctx.obs);
                        self.critical_path = fresh;
                        comm
                    } else {
                        ctx.app.comm_obs(t, &ctx.obs)
                    };
                    let p = try_predict_runtime(extrapolated, &comm, &ctx.machine)?;
                    if let Some(store) = store {
                        store.put_json(prefix, &names.prediction, &p)?;
                    }
                    self.prediction = Some(p);
                } else if attribute {
                    // Prediction reused but attribution absent (the store
                    // predates the artifact): attribute now, without
                    // re-predicting.
                    self.critical_path = ctx.app.comm_attr_obs(t, &ctx.obs).1;
                }
                if attribute {
                    if let (Some(store), Some(c)) = (store, &self.critical_path) {
                        store.put_json(prefix, &names.critical_path, c)?;
                    }
                }
            }
            StageKind::Validate if ctx.config.validate => {
                if let Some(store) = store {
                    self.validation = store.get_json(prefix, &names.validation)?;
                    self.events.cache_event(
                        StageKind::Validate,
                        &names.validation,
                        self.validation.is_some(),
                    );
                }
                if self.validation.is_none() {
                    let prediction = self
                        .prediction
                        .as_ref()
                        .expect("every lane is convolved before Validate");
                    let v = stage::validate(ctx, &mut self.events, t, prediction)?;
                    if let Some(store) = store {
                        store.put_json(prefix, &names.validation, &v)?;
                    }
                    self.validation = Some(v);
                }
            }
            StageKind::Validate | StageKind::Collect | StageKind::Fit => {}
        }
        self.timings.push(StageTiming {
            stage,
            seconds: std::mem::take(&mut self.carried) + start.elapsed().as_secs_f64(),
        });
        Ok(())
    }

    fn into_report(self, ctx: &PipelineCtx) -> PipelineReport {
        PipelineReport {
            config_hash: ctx.config.for_target(self.target).config_hash(),
            prefix_hash: ctx.prefix_hash.clone(),
            training_counts: ctx.config.training.clone(),
            extrapolated: self.extrapolated.expect("Synthesize fills every lane"),
            prediction: self.prediction.expect("Convolve fills every lane"),
            validation: self.validation,
            timings: self.timings,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            fit_diagnostics: self.fit_diagnostics,
            critical_path: self.critical_path,
        }
    }
}

/// The serial half of Convolve, on the caller's thread before the
/// fan-out: each lane's store probes in lane order, then the machine's
/// MultiMAPS surface, measured once on the caller's pool when any lane
/// will predict afresh. A fully resumed run never measures it. Every
/// lane that predicts carries the surface's wall time into its own
/// Convolve timing, as every lane carries the shared Collect and Fit.
fn prepare_convolve(lanes: &mut [Lane], ctx: &PipelineCtx) -> Result<()> {
    for lane in lanes.iter_mut() {
        let start = Instant::now();
        lane.probe_convolve(ctx)?;
        lane.carried = start.elapsed().as_secs_f64();
    }
    if lanes.iter().any(|lane| lane.prediction.is_none()) {
        let start = Instant::now();
        ctx.machine.surface();
        let seconds = start.elapsed().as_secs_f64();
        for lane in lanes.iter_mut().filter(|lane| lane.prediction.is_none()) {
            lane.carried += seconds;
        }
    }
    Ok(())
}

/// Runs `stage` for every lane on the rayon pool, results in lane order.
/// The pool lends only shared references, so each lane travels in its
/// own `Mutex`, which only the one worker that runs the lane locks; a
/// panic in a lane unwinds through the pool's join, so no poisoned lock
/// is ever read.
///
/// A lazily shared value whose computation is itself parallel (the
/// MultiMAPS surface) must be resolved before the fan-out: a nested
/// parallel call on a worker runs on that one thread, while every other
/// lane that needs the value blocks on it.
fn fan_out(lanes: Vec<Lane>, stage: StageKind, ctx: &PipelineCtx, xs: &[f64]) -> Result<Vec<Lane>> {
    const UNPOISONED: &str = "a lane's panic unwinds through the join";
    let cells: Vec<Mutex<Lane>> = lanes.into_iter().map(Mutex::new).collect();
    cells
        .par_iter()
        .map(|cell| cell.lock().expect(UNPOISONED).advance(stage, ctx, xs))
        .collect::<Result<Vec<()>>>()?;
    Ok(cells
        .into_iter()
        .map(|cell| cell.into_inner().expect(UNPOISONED))
        .collect())
}

/// The engine: a resolved config, an optional store, and a progress
/// observer.
pub struct Pipeline {
    ctx: PipelineCtx,
    observer: Box<dyn StageObserver>,
}

impl Pipeline {
    /// Builds a pipeline for `config`.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        Ok(Self {
            ctx: config.resolve()?,
            observer: Box::new(NullObserver),
        })
    }

    /// Attaches an artifact store; identical re-runs resume from it. A
    /// clone of a store handle shares its in-memory map, which is how
    /// [`crate::XtraceEngine`] shares one store across sessions.
    pub fn with_store(mut self, store: ArtifactStore) -> Self {
        self.ctx.store = Some(store);
        self
    }

    /// Installs a progress observer.
    pub fn with_observer(mut self, observer: Box<dyn StageObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches an observability recorder: shorthand for
    /// [`Pipeline::with_obs`] with a context built around `recorder`.
    /// The hot kernels' counters — sig-memo hits, fit wins per canonical
    /// form, rank classes, artifact-store traffic —
    /// land in the same snapshot as the engine's per-stage spans. The
    /// recorder is scoped to this run; nothing is installed
    /// process-globally, so concurrent pipelines never share counters.
    pub fn with_recorder(self, recorder: std::sync::Arc<xtrace_obs::Recorder>) -> Self {
        self.with_obs(ObsContext::with_recorder(recorder))
    }

    /// Attaches the observability context every stage, kernel, and store
    /// access of this run reports into.
    pub fn with_obs(mut self, obs: xtrace_obs::ObsContext) -> Self {
        self.ctx.obs = obs;
        self
    }

    /// The resolved inputs (read-only).
    pub fn ctx(&self) -> &PipelineCtx {
        &self.ctx
    }

    /// Runs Collect → Fit → Synthesize → Convolve → Validate for the
    /// config's one target: [`Pipeline::run_sweep`] over a sweep of one.
    ///
    /// A config carrying a multi-target sweep list is an error here, so a
    /// sweep is never silently truncated to its first target.
    pub fn run(&mut self) -> Result<PipelineReport> {
        if self.ctx.config.effective_targets().len() > 1 {
            return Err(XtraceError::Usage(
                "config sweeps multiple targets; use run_sweep".into(),
            ));
        }
        let mut sweep = self.run_sweep()?;
        Ok(sweep.reports.pop().expect("one report per target"))
    }

    /// Runs every target of the config's sweep over one shared prefix.
    ///
    /// Collect executes once and the canonical-form candidates are fitted
    /// once (only when some target missed the store), then selected per
    /// missing target in target order. Synthesize, Convolve and Validate
    /// each fan out over the targets across the rayon pool. Before the
    /// Convolve fan-out, the lanes' store probes run in lane order and,
    /// when any lane will predict afresh, the machine's MultiMAPS
    /// surface is measured once on the caller's pool. Each
    /// per-target prediction is bit-identical to a standalone run at that
    /// target (selection is a pure function of the shared candidates),
    /// and each per-target artifact lands under the shared prefix
    /// namespace, so sweeps and standalone runs warm each other.
    ///
    /// Observability is stage-major too: one bracket (observer callbacks,
    /// journal begin/end, span) per stage, whatever the target count;
    /// each report's `timings` carry its own share of the fanned-out
    /// stages, and per-target observer calls are replayed in target order
    /// after each stage's join. Counter totals are exact; gauges written
    /// from concurrent lanes are last-writer-wins.
    pub fn run_sweep(&mut self) -> Result<SweepReport> {
        // Bind the store's counters to this run's context, so `store.*`
        // metrics land in the run's snapshot even when other runs share
        // the store handle. Without a context the store drops its
        // counters.
        if self.ctx.obs.enabled() {
            if let Some(store) = self.ctx.store.take() {
                self.ctx.store = Some(store.with_obs(self.ctx.obs.clone()));
            }
        }
        let ctx = &self.ctx;
        let recorder = ctx.obs.recorder();
        if let Some(rec) = recorder {
            // Pre-register the headline counters so every snapshot carries
            // them (reading zero when the run never touches that path).
            let m = rec.metrics();
            for name in [
                "tracer.sig_memo.hits",
                "tracer.sig_memo.misses",
                "tracer.blocks_simulated",
                "store.hits",
                "store.misses",
                "store.writes",
                "extrap.elements_fit",
                "spmd.events_stepped",
            ] {
                m.counter(name);
            }
            m.gauge("spmd.rank_classes");
        }
        let journal = ctx.obs.journal();
        let run_start = Instant::now();
        journal.begin(STAGE_PARENT, "pipeline", &[]);
        let mut brackets = Brackets {
            observer: self.observer.as_mut(),
            obs: &ctx.obs,
        };

        // Collect: once for every target (fully target-independent).
        let start = brackets.open(StageKind::Collect);
        let mut counting = Counting {
            inner: &mut *brackets.observer,
            hits: 0,
            misses: 0,
        };
        let traces = stage::collect(ctx, &mut counting)?;
        let (hits, misses) = (counting.hits, counting.misses);
        let collect = StageTiming {
            stage: StageKind::Collect,
            seconds: brackets.close(StageKind::Collect, start),
        };

        let targets = ctx.config.effective_targets();
        let mut lanes = Vec::with_capacity(targets.len());
        for &target in &targets {
            let mut lane = Lane {
                target,
                names: ArtifactNames::new(target),
                fit: None,
                extrapolated: None,
                fit_diagnostics: None,
                prediction: None,
                critical_path: None,
                validation: None,
                timings: vec![collect],
                cache_hits: hits,
                cache_misses: misses,
                events: Replay::default(),
                carried: 0.0,
            };
            lane.probe(ctx)?;
            brackets.replay(&mut lane);
            lanes.push(lane);
        }

        // Fit: the candidates once, shared by every target that missed,
        // then one selection per missing target in target order (its
        // per-element journal instants land in that order too).
        let start = brackets.open(StageKind::Fit);
        if lanes.iter().any(|lane| lane.extrapolated.is_none()) {
            let candidates =
                xtrace_extrap::fit_signature_candidates_obs(&traces, &ctx.extrap, &ctx.obs)?;
            for lane in lanes.iter_mut().filter(|lane| lane.extrapolated.is_none()) {
                let fit = candidates.select_obs(lane.target, &ctx.obs)?;
                brackets.observer.progress(
                    StageKind::Fit,
                    &format!("fit {} feature elements", fit.fits.len()),
                );
                lane.fit = Some(fit);
            }
        }
        // Nothing past Fit reads the training traces; free them before
        // the fan-out holds every lane's trace.
        drop(traces);
        let fit = StageTiming {
            stage: StageKind::Fit,
            seconds: brackets.close(StageKind::Fit, start),
        };
        for lane in &mut lanes {
            lane.timings.push(fit);
        }

        let mut xs: Vec<f64> = ctx.config.training.iter().map(|&p| f64::from(p)).collect();
        xs.sort_by(f64::total_cmp);
        for stage in [
            StageKind::Synthesize,
            StageKind::Convolve,
            StageKind::Validate,
        ] {
            let start = brackets.open(stage);
            if stage == StageKind::Convolve {
                prepare_convolve(&mut lanes, ctx)?;
            }
            lanes = fan_out(lanes, stage, ctx, &xs)?;
            for lane in &mut lanes {
                brackets.replay(lane);
            }
            brackets.close(stage, start);
        }

        if let Some(rec) = recorder {
            rec.record_span(None, STAGE_PARENT, run_start.elapsed().as_secs_f64());
        }
        journal.end(STAGE_PARENT, "pipeline", &[]);

        Ok(SweepReport {
            prefix_hash: ctx.prefix_hash.clone(),
            targets,
            reports: lanes
                .into_iter()
                .map(|lane| lane.into_report(ctx))
                .collect(),
            prefix_seconds: collect.seconds + fit.seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FormSet;
    use crate::error::XtraceError;
    use crate::test_support::ScratchDir;

    fn quick_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::new("stencil3d", "opteron", vec![2, 4, 8], 32);
        cfg.fast_tracer = true;
        cfg.validate = false;
        cfg
    }

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("pipeline-{name}"))
    }

    #[test]
    fn pipeline_runs_and_reports_all_stages() {
        let report = Pipeline::new(quick_config()).unwrap().run().unwrap();
        assert_eq!(report.training_counts, vec![2, 4, 8]);
        assert_eq!(report.extrapolated.nranks, 32);
        assert!(report.prediction.total_seconds > 0.0);
        assert!(report.validation.is_none(), "validation disabled");
        let stages: Vec<_> = report.timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                StageKind::Collect,
                StageKind::Fit,
                StageKind::Synthesize,
                StageKind::Convolve,
                StageKind::Validate
            ]
        );
        assert_eq!(
            report.cache_hits + report.cache_misses,
            0,
            "no store attached"
        );
    }

    #[test]
    fn validation_compares_against_ground_truth() {
        let mut cfg = quick_config();
        cfg.validate = true;
        let report = Pipeline::new(cfg).unwrap().run().unwrap();
        let v = report.validation.expect("validation ran");
        assert!(v.measured_seconds > 0.0);
        assert!(v.extrapolated_error >= 0.0);
        assert!(v.collected.total_seconds > 0.0);
    }

    #[test]
    fn second_run_resumes_from_the_store() {
        let root = tmp("resume");
        let run = || {
            Pipeline::new(quick_config())
                .unwrap()
                .with_store(ArtifactStore::open_shared(&root).unwrap())
                .run()
                .unwrap()
        };
        let cold = run();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.cache_misses > 0);

        let warm = run();
        assert_eq!(warm.cache_misses, 0, "every artifact reused");
        // 3 training traces + extrapolated + prediction + critical-path.
        assert_eq!(warm.cache_hits, 6);
        assert_eq!(warm.prediction, cold.prediction);
        assert_eq!(warm.extrapolated, cold.extrapolated);
        assert_eq!(
            warm.critical_path, cold.critical_path,
            "critical-path artifact resumes bit-identically"
        );
        assert!(warm.critical_path.is_some());
    }

    #[test]
    fn wide_collection_stores_worker_ranks_without_changing_predictions() {
        let root = tmp("wide");
        let baseline = Pipeline::new(quick_config()).unwrap().run().unwrap();
        let mut wide_cfg = quick_config();
        wide_cfg.ranks_per_count = 2;
        let run = || {
            Pipeline::new(wide_cfg.clone())
                .unwrap()
                .with_store(ArtifactStore::open_shared(&root).unwrap())
                .run()
                .unwrap()
        };
        let cold = run();
        assert_eq!(
            cold.prediction, baseline.prediction,
            "worker-rank collection must not perturb the prediction"
        );
        assert!(
            cold.cache_misses > 5,
            "worker artifacts add store entries beyond the 5 longest-rank ones, got {}",
            cold.cache_misses
        );
        let warm = run();
        assert_eq!(warm.cache_misses, 0, "worker artifacts reused too");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(warm.prediction, baseline.prediction);
    }

    #[test]
    fn config_changes_miss_the_store() {
        let root = tmp("keyed");
        let mut p = Pipeline::new(quick_config())
            .unwrap()
            .with_store(ArtifactStore::open_shared(&root).unwrap());
        p.run().unwrap();
        let mut changed = quick_config();
        changed.forms = FormSet::Extended;
        let report = Pipeline::new(changed)
            .unwrap()
            .with_store(ArtifactStore::open_shared(&root).unwrap())
            .run()
            .unwrap();
        assert_eq!(report.cache_hits, 0, "different config hash, fresh entry");
    }

    #[test]
    fn sweep_matches_standalone_and_rejects_misuse() {
        let mut cfg = quick_config();
        cfg.targets = vec![32, 64, 128];
        let sweep = Pipeline::new(cfg.clone()).unwrap().run_sweep().unwrap();
        assert_eq!(sweep.targets, vec![32, 64, 128]);
        assert_eq!(sweep.reports.len(), 3);
        assert!(sweep.prefix_seconds > 0.0);
        for (&t, report) in sweep.targets.iter().zip(&sweep.reports) {
            let standalone = Pipeline::new(cfg.for_target(t)).unwrap().run().unwrap();
            assert_eq!(report.prediction, standalone.prediction, "target {t}");
            assert_eq!(report.extrapolated, standalone.extrapolated);
            assert_eq!(report.config_hash, standalone.config_hash);
            assert_eq!(report.prefix_hash, standalone.prefix_hash);
        }

        // A multi-target config cannot be silently truncated by run().
        let err = Pipeline::new(cfg.clone()).unwrap().run().unwrap_err();
        assert!(err.to_string().contains("run_sweep"), "{err}");

        let err = Pipeline::new(cfg).unwrap().run().unwrap_err();
        assert!(err.to_string().contains("run_sweep"), "{err}");
    }

    #[test]
    fn critical_path_attribution_is_on_by_default_and_never_perturbs() {
        let attributed = Pipeline::new(quick_config()).unwrap().run().unwrap();
        let critical = attributed.critical_path.expect("attribution on by default");
        assert_eq!(critical.nranks, 32);
        assert_eq!(critical.share_sum_bp(), 10_000);
        assert!(critical.bottleneck().is_some());

        let mut off = quick_config();
        off.critical_path = false;
        let plain = Pipeline::new(off).unwrap().run().unwrap();
        assert!(plain.critical_path.is_none());
        assert_eq!(
            plain.prediction, attributed.prediction,
            "attribution must not perturb the prediction"
        );
        assert_eq!(plain.extrapolated, attributed.extrapolated);
    }

    #[test]
    fn sweep_attributes_every_target_and_reports_flip_scale() {
        let mut cfg = quick_config();
        cfg.targets = vec![32, 64, 128];
        let sweep = Pipeline::new(cfg).unwrap().run_sweep().unwrap();
        let rows = sweep.bottlenecks();
        assert_eq!(rows.len(), 3, "every target attributed");
        for ((&t, report), row) in sweep.targets.iter().zip(&sweep.reports).zip(&rows) {
            let critical = report.critical_path.as_ref().expect("attributed");
            assert_eq!(critical.nranks, t);
            assert_eq!(critical.share_sum_bp(), 10_000);
            assert_eq!(row.0, t);
        }
        // The flip target, when present, is a swept target after the first.
        if let Some(flip) = sweep.bottleneck_flip_target() {
            assert!(sweep.targets[1..].contains(&flip));
        }
    }

    #[test]
    fn run_is_a_one_target_sweep() {
        // run() and run_sweep() over targets = [t] are one path: equal
        // masked reports, masked metrics and masked journals.
        let journaled = |targets: Vec<u32>| {
            let recorder = xtrace_obs::Recorder::with_journal();
            let mut cfg = quick_config();
            cfg.targets = targets;
            let pipeline = Pipeline::new(cfg).unwrap().with_recorder(recorder.clone());
            (pipeline, recorder)
        };
        let (mut single, single_rec) = journaled(Vec::new());
        let report = single.run().unwrap();
        let (mut one, one_rec) = journaled(vec![32]);
        let sweep = one.run_sweep().unwrap();
        assert_eq!(sweep.targets, vec![32]);
        assert_eq!(sweep.prefix_hash, report.prefix_hash);
        assert_eq!(sweep.reports.len(), 1);
        assert_eq!(sweep.reports[0].masked(), report.masked());
        assert_eq!(
            one_rec.snapshot().masked().to_json(),
            single_rec.snapshot().masked().to_json()
        );
        let journal = |rec: &xtrace_obs::Recorder| rec.journal_snapshot().unwrap().masked();
        assert_eq!(journal(&one_rec), journal(&single_rec));
    }

    #[test]
    fn invalid_store_root_is_a_store_error() {
        let err = ArtifactStore::open_shared("/proc/definitely-not-writable/store").unwrap_err();
        assert!(matches!(err, XtraceError::Store(_)));
    }

    #[test]
    fn observer_sees_stage_lifecycle() {
        #[derive(Default)]
        struct Recording(std::rc::Rc<std::cell::RefCell<Vec<String>>>);
        impl StageObserver for Recording {
            fn stage_started(&mut self, stage: StageKind) {
                self.0.borrow_mut().push(format!("start:{}", stage.label()));
            }
            fn stage_finished(&mut self, stage: StageKind, _s: f64) {
                self.0.borrow_mut().push(format!("end:{}", stage.label()));
            }
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let obs = Recording(log.clone());
        Pipeline::new(quick_config())
            .unwrap()
            .with_observer(Box::new(obs))
            .run()
            .unwrap();
        let events = log.borrow();
        assert_eq!(events.first().map(String::as_str), Some("start:collect"));
        assert!(events.contains(&"end:synthesize".to_string()));
        assert_eq!(events.last().map(String::as_str), Some("end:validate"));
    }
}
