//! Whole-trace extrapolation.
//!
//! "The framework is designed to take each element of an instruction's
//! feature vector … and find the model that best fits its behavior and use
//! this to generate the vector at the higher core count. This process is
//! used for all the elements of an instruction's feature vector for all the
//! instructions of an MPI task to generate \[a\] synthetic application
//! signature at the higher core count" (Section IV).
//!
//! Input: the longest task's trace files from ≥ `min_traces` (default 3)
//! training core counts. Blocks are aligned across traces by name,
//! instructions by index. Output: a synthetic [`TaskTrace`] at the target
//! core count.
//!
//! One fitting core serves every entry point.
//! [`fit_signature_candidates_obs`] fits each element's candidate forms
//! once over the training family; [`SignatureCandidates::select_obs`]
//! picks each element's winner at a target; [`synthesize_from_fit`]
//! evaluates the winners there. [`fit_signature_obs`] is the first two at
//! one target (its [`SignatureFit::fits`] carry the chosen model of every
//! element, which the figure-generating benches report),
//! [`extrapolate_signature`] all three, and [`extrapolate_series`] the
//! same over an arbitrary abscissa.
//!
//! Post-processing keeps the synthetic vectors physical: counts are clamped
//! non-negative, hit rates to `[0, 1]` with cumulative monotonicity across
//! levels restored. Elements are otherwise extrapolated independently,
//! exactly as in the paper (no cross-element consistency is forced).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xtrace_obs::ObsContext;
use xtrace_tracer::{FeatureId, TaskTrace, TraceColumns};

use crate::fit::{fit_all, select_best_from, SelectionCriterion};
use crate::forms::{CanonicalForm, FittedModel};

/// Extrapolation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtrapolationConfig {
    /// Candidate canonical forms (default: the paper's four).
    pub forms: Vec<CanonicalForm>,
    /// Model-selection criterion (default: smallest residual).
    pub criterion: SelectionCriterion,
    /// Influence threshold: instructions carrying at least this share of
    /// the task's memory (or FP) operations are "influential" (paper:
    /// 0.1%). Informational — all elements are extrapolated either way; the
    /// threshold drives error reporting.
    pub influence_threshold: f64,
    /// Minimum number of training traces (paper: three "generally provided
    /// adequate accuracy").
    pub min_traces: usize,
}

impl Default for ExtrapolationConfig {
    fn default() -> Self {
        Self {
            forms: CanonicalForm::PAPER_SET.to_vec(),
            criterion: SelectionCriterion::Sse,
            influence_threshold: 0.001,
            min_traces: 3,
        }
    }
}

/// Why an extrapolation request was rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExtrapolationError {
    /// Fewer training traces than `min_traces`.
    TooFewTraces {
        /// Traces supplied.
        got: usize,
        /// Traces required.
        need: usize,
    },
    /// Two training traces share a core count.
    DuplicateCoreCount(u32),
    /// Traces come from different applications.
    MismatchedApps(String, String),
    /// Traces were simulated against different target machines.
    MismatchedMachines(String, String),
    /// A block present in one trace is missing or reordered in another.
    MismatchedBlocks {
        /// Name of the offending block.
        block: String,
    },
    /// A block's instruction count differs across traces.
    MismatchedInstrCount {
        /// Name of the offending block.
        block: String,
    },
    /// The target core count does not exceed every training count.
    TargetNotLarger {
        /// Requested target.
        target: u32,
        /// Largest training count.
        max_input: u32,
    },
    /// Two training points share an abscissa (generic-series API).
    DuplicatePoint(f64),
    /// The target abscissa does not exceed every training abscissa
    /// (generic-series API).
    TargetNotBeyond {
        /// Requested target.
        target: f64,
        /// Largest training abscissa.
        max_input: f64,
    },
    /// A training abscissa is not finite (generic-series API).
    NonFinitePoint(f64),
}

impl std::fmt::Display for ExtrapolationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtrapolationError::TooFewTraces { got, need } => {
                write!(f, "{got} training traces supplied, {need} required")
            }
            ExtrapolationError::DuplicateCoreCount(p) => {
                write!(f, "two training traces at {p} cores")
            }
            ExtrapolationError::MismatchedApps(a, b) => {
                write!(f, "traces from different applications: {a:?} vs {b:?}")
            }
            ExtrapolationError::MismatchedMachines(a, b) => {
                write!(f, "traces against different machines: {a:?} vs {b:?}")
            }
            ExtrapolationError::MismatchedBlocks { block } => {
                write!(f, "block {block:?} missing or reordered across traces")
            }
            ExtrapolationError::MismatchedInstrCount { block } => {
                write!(f, "block {block:?} has differing instruction counts")
            }
            ExtrapolationError::TargetNotLarger { target, max_input } => {
                write!(
                    f,
                    "target core count {target} must exceed the largest training count {max_input}"
                )
            }
            ExtrapolationError::DuplicatePoint(x) => {
                write!(f, "two training traces at abscissa {x}")
            }
            ExtrapolationError::TargetNotBeyond { target, max_input } => {
                write!(
                    f,
                    "target abscissa {target} must exceed the largest training abscissa {max_input}"
                )
            }
            ExtrapolationError::NonFinitePoint(x) => {
                write!(f, "training abscissa {x} is not finite")
            }
        }
    }
}

impl std::error::Error for ExtrapolationError {}

/// The fitted invocation/iteration models of one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockModels {
    /// Model of the block's invocation count across core counts.
    pub invocations: FittedModel,
    /// Model of the block's per-invocation trip count.
    pub iterations: FittedModel,
}

/// The complete fitted model of a signature: the output of the *Fit*
/// phase and the sole input of the *Synthesize* phase.
///
/// [`fit_signature_obs`] produces one; [`synthesize_from_fit`] turns it
/// into the synthetic [`TaskTrace`]. The two-phase split lets pipeline
/// engines time, persist, and resume the phases independently;
/// [`extrapolate_signature`] is exactly that composition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignatureFit {
    /// The largest training trace — the structural template synthesis
    /// copies block/instruction layout (and non-extrapolated fields) from.
    pub base: TaskTrace,
    /// Abscissa the models are evaluated at (the target core count, or an
    /// arbitrary input-parameter value for the series API).
    pub target_x: f64,
    /// Core-count label of the synthetic trace.
    pub out_nranks: u32,
    /// Per-element fits, grouped per instruction in block-major order;
    /// within an instruction, in `FeatureId::all(base.depth)` order.
    pub fits: Vec<ElementFit>,
    /// Per-block invocation/iteration models, in block order.
    pub block_models: Vec<BlockModels>,
}

/// The chosen model for one extrapolated element (reported by the detailed
/// API and the figure benches).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElementFit {
    /// Block the element belongs to.
    pub block: String,
    /// Instruction index within the block.
    pub instr: u32,
    /// Which feature element.
    pub feature: FeatureId,
    /// The winning fitted model.
    pub model: FittedModel,
    /// The training values, parallel to the training core counts.
    pub values: Vec<f64>,
    /// Instruction influence (share of task memory/FP operations) in the
    /// largest training trace.
    pub influence: f64,
}

/// Extrapolates the signature to `target` cores. See the module docs.
///
/// ```
/// use xtrace_extrap::{extrapolate_signature, ExtrapolationConfig};
/// use xtrace_ir::SourceLoc;
/// use xtrace_tracer::{BlockRecord, FeatureVector, InstrRecord, TaskTrace};
///
/// // A one-block trace whose memory-op count grows linearly with P.
/// let trace_at = |p: u32| TaskTrace {
///     app: "demo".into(),
///     rank: 0,
///     nranks: p,
///     machine: "m".into(),
///     depth: 1,
///     blocks: vec![BlockRecord {
///         name: "kernel".into(),
///         source: SourceLoc::new("k.f90", 1, "kernel"),
///         invocations: 1,
///         iterations: 1,
///         instrs: vec![InstrRecord {
///             instr: 0,
///             pattern: "strided".into(),
///             features: FeatureVector {
///                 exec_count: 1e3 * f64::from(p),
///                 mem_ops: 1e3 * f64::from(p),
///                 loads: 1e3 * f64::from(p),
///                 bytes_per_ref: 8.0,
///                 ..Default::default()
///             },
///         }],
///     }],
/// };
/// let training = vec![trace_at(1024), trace_at(2048), trace_at(4096)];
/// let synthetic =
///     extrapolate_signature(&training, 8192, &ExtrapolationConfig::default()).unwrap();
/// let ops = synthetic.blocks[0].instrs[0].features.mem_ops;
/// assert!((ops - 8.192e6).abs() < 1.0);
/// ```
pub fn extrapolate_signature(
    traces: &[TaskTrace],
    target: u32,
    cfg: &ExtrapolationConfig,
) -> Result<TaskTrace, ExtrapolationError> {
    fit_signature_obs(traces, target, cfg, &ObsContext::disabled())
        .map(|fit| synthesize_from_fit(&fit))
}

/// The *Fit* phase at one target: fits every element's candidates over
/// the training family ([`fit_signature_candidates_obs`]) and selects the
/// winners at `target` ([`SignatureCandidates::select_obs`]), recording
/// both halves' telemetry into `obs`. Feed the result to
/// [`synthesize_from_fit`].
pub fn fit_signature_obs(
    traces: &[TaskTrace],
    target: u32,
    cfg: &ExtrapolationConfig,
    obs: &ObsContext,
) -> Result<SignatureFit, ExtrapolationError> {
    fit_signature_candidates_obs(traces, cfg, obs)?.select_obs(target, obs)
}

/// Every applicable candidate fit of one feature element — the
/// target-independent half of that element's extrapolation. Selection per
/// target happens in [`SignatureCandidates::select_obs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCandidates {
    /// Block the element belongs to.
    pub block: String,
    /// Instruction index within the block.
    pub instr: u32,
    /// Which feature element.
    pub feature: FeatureId,
    /// Every applicable fitted form, in the config's form order (the
    /// [`fit_all`] output the guarded selection filters and sorts).
    pub candidates: Vec<FittedModel>,
    /// The training values, parallel to the training core counts.
    pub values: Vec<f64>,
    /// Instruction influence in the largest training trace.
    pub influence: f64,
}

/// Candidate invocation/iteration fits of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCandidates {
    /// Candidate models of the invocation-count series.
    pub invocations: Vec<FittedModel>,
    /// Training invocation counts, parallel to the core counts.
    pub invocation_values: Vec<f64>,
    /// Candidate models of the per-invocation trip-count series.
    pub iterations: Vec<FittedModel>,
    /// Training trip counts, parallel to the core counts.
    pub iteration_values: Vec<f64>,
}

/// The target-independent prefix of the *Fit* phase: every element's full
/// candidate set, fitted once over the training family. Selecting at a
/// concrete target ([`SignatureCandidates::select_obs`]) is cheap — filter
/// the candidates by the non-negativity guard at that target, sort, pick —
/// so a multi-target sweep fits each element exactly once and re-selects
/// per target. The winner is exactly what
/// [`select_best_guarded`](crate::fit::select_best_guarded) picks from the
/// element's training series.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureCandidates {
    /// The largest training trace (the structural template).
    pub base: TaskTrace,
    /// Sorted training abscissas the candidates were fitted over.
    pub xs: Vec<f64>,
    /// Model-selection criterion applied at selection time.
    pub criterion: SelectionCriterion,
    /// Per-element candidate sets in the same block-major element order as
    /// [`SignatureFit::fits`].
    pub elements: Vec<ElementCandidates>,
    /// Per-block invocation/iteration candidates, in block order.
    pub blocks: Vec<BlockCandidates>,
}

impl SignatureCandidates {
    /// Selects the best candidate per element at `target` cores, recording
    /// the fit decisions into `obs`: per-form win counters
    /// (`extrap.fit_wins.*`) and one `extrap.fit.<Form>` journal instant
    /// per element.
    pub fn select_obs(
        &self,
        target: u32,
        obs: &ObsContext,
    ) -> Result<SignatureFit, ExtrapolationError> {
        if target <= self.base.nranks {
            return Err(ExtrapolationError::TargetNotLarger {
                target,
                max_input: self.base.nranks,
            });
        }
        Ok(self.select_at(f64::from(target), target, obs))
    }

    /// Selects every element's winner at abscissa `tx` and labels the
    /// synthetic trace with `out_nranks` cores.
    fn select_at(&self, tx: f64, out_nranks: u32, obs: &ObsContext) -> SignatureFit {
        let select = |candidates: &[FittedModel], ys: &[f64]| {
            select_best_from(candidates, &self.xs, ys, self.criterion, tx)
        };
        let fits: Vec<ElementFit> = self
            .elements
            .iter()
            .map(|ec| ElementFit {
                block: ec.block.clone(),
                instr: ec.instr,
                feature: ec.feature,
                model: select(&ec.candidates, &ec.values),
                values: ec.values.clone(),
                influence: ec.influence,
            })
            .collect();
        let block_models = self
            .blocks
            .iter()
            .map(|bc| BlockModels {
                invocations: select(&bc.invocations, &bc.invocation_values),
                iterations: select(&bc.iterations, &bc.iteration_values),
            })
            .collect();
        record_fit_decisions(&fits, obs);
        SignatureFit {
            base: self.base.clone(),
            target_x: tx,
            out_nranks,
            fits,
            block_models,
        }
    }
}

/// Fits the target-independent candidate sets of every element — the
/// shared prefix of a multi-target sweep (see [`SignatureCandidates`]) —
/// recording fit telemetry (`extrap.elements_fit`, the scheduling-path
/// marker) into `obs`; the per-element decisions are recorded by
/// [`SignatureCandidates::select_obs`].
pub fn fit_signature_candidates_obs(
    traces: &[TaskTrace],
    cfg: &ExtrapolationConfig,
    obs: &ObsContext,
) -> Result<SignatureCandidates, ExtrapolationError> {
    if traces.len() < cfg.min_traces.max(1) {
        return Err(ExtrapolationError::TooFewTraces {
            got: traces.len(),
            need: cfg.min_traces.max(1),
        });
    }
    let mut sorted: Vec<&TaskTrace> = traces.iter().collect();
    sorted.sort_by_key(|t| t.nranks);
    for w in sorted.windows(2) {
        if w[0].nranks == w[1].nranks {
            return Err(ExtrapolationError::DuplicateCoreCount(w[0].nranks));
        }
    }
    validate_family(&sorted)?;
    let xs: Vec<f64> = sorted.iter().map(|t| f64::from(t.nranks)).collect();
    Ok(fit_candidates(&sorted, xs, cfg, obs))
}

/// Generic-series extrapolation: the same per-element methodology over an
/// arbitrary abscissa — the paper's Section-VI input-parameter extension
/// ("employ the same scaling and extrapolating strategies … to capture and
/// model how changes in input set parameters changes the feature vectors").
///
/// `points` pairs each training trace with its abscissa (a problem size, a
/// resolution, any scalar knob); the synthesized trace is evaluated at
/// `target_x` and keeps the base trace's core count.
pub fn extrapolate_series(
    points: &[(f64, TaskTrace)],
    target_x: f64,
    cfg: &ExtrapolationConfig,
) -> Result<TaskTrace, ExtrapolationError> {
    if points.len() < cfg.min_traces.max(1) {
        return Err(ExtrapolationError::TooFewTraces {
            got: points.len(),
            need: cfg.min_traces.max(1),
        });
    }
    for &(x, _) in points {
        if !x.is_finite() {
            return Err(ExtrapolationError::NonFinitePoint(x));
        }
    }
    let mut order: Vec<&(f64, TaskTrace)> = points.iter().collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite abscissas"));
    for w in order.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(ExtrapolationError::DuplicatePoint(w[0].0));
        }
    }
    let sorted: Vec<&TaskTrace> = order.iter().map(|(_, t)| t).collect();
    validate_family(&sorted)?;
    let max_x = order.last().expect("nonempty").0;
    if target_x <= max_x || !target_x.is_finite() {
        return Err(ExtrapolationError::TargetNotBeyond {
            target: target_x,
            max_input: max_x,
        });
    }
    let xs: Vec<f64> = order.iter().map(|(x, _)| *x).collect();
    let obs = ObsContext::disabled();
    let candidates = fit_candidates(&sorted, xs, cfg, &obs);
    let fit = candidates.select_at(target_x, candidates.base.nranks, &obs);
    Ok(synthesize_from_fit(&fit))
}

/// Checks that the traces form one family: same application, same target
/// machine, identical block/instruction structure.
fn validate_family(sorted: &[&TaskTrace]) -> Result<(), ExtrapolationError> {
    let base = *sorted.last().expect("nonempty");
    for t in sorted {
        if t.app != base.app {
            return Err(ExtrapolationError::MismatchedApps(
                t.app.clone(),
                base.app.clone(),
            ));
        }
        if t.machine != base.machine {
            return Err(ExtrapolationError::MismatchedMachines(
                t.machine.clone(),
                base.machine.clone(),
            ));
        }
        if t.blocks.len() != base.blocks.len() {
            return Err(ExtrapolationError::MismatchedBlocks {
                block: base
                    .blocks
                    .iter()
                    .map(|b| b.name.clone())
                    .find(|n| t.block(n).is_none())
                    .unwrap_or_default(),
            });
        }
        for (tb, bb) in t.blocks.iter().zip(&base.blocks) {
            if tb.name != bb.name {
                return Err(ExtrapolationError::MismatchedBlocks {
                    block: bb.name.clone(),
                });
            }
            if tb.instrs.len() != bb.instrs.len() {
                return Err(ExtrapolationError::MismatchedInstrCount {
                    block: bb.name.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Element-major series matrix: every `(block, instruction, feature)`
/// element's training series across core counts as one contiguous slice.
///
/// Built by flattening each training trace into [`TraceColumns`] once and
/// transposing, so the per-element fitting loop reads `ys` straight out of
/// a flat column instead of chasing `blocks[bi].instrs[ii]` records in
/// every trace — the fitter-side half of the columnar layout. Values are
/// copied bit-for-bit, so fits are identical to the record-walking
/// formulation.
struct ElementSeries {
    /// `[pair-major][feature][trace]`: element `(p, f)`'s series starts at
    /// `(p * n_features + f) * n_traces`.
    data: Vec<f64>,
    n_traces: usize,
    n_features: usize,
}

impl ElementSeries {
    /// Gathers the matrix from the sorted training family. Pair order is
    /// blocks in trace order, instructions in block order — the same
    /// flattening [`TraceColumns`] uses and `fit_candidates`' `pairs` vec
    /// enumerates.
    fn gather(sorted: &[&TaskTrace], feature_ids: &[FeatureId]) -> Self {
        let n_traces = sorted.len();
        let n_features = feature_ids.len();
        let n_pairs: usize = sorted
            .last()
            .map_or(0, |t| t.blocks.iter().map(|b| b.instrs.len()).sum());
        let mut data = vec![0.0; n_pairs * n_features * n_traces];
        for (ti, t) in sorted.iter().enumerate() {
            let cols = TraceColumns::from_trace(t);
            for (fi, &fid) in feature_ids.iter().enumerate() {
                let col = cols.features.column(fid);
                for (ei, &v) in col.iter().enumerate() {
                    data[(ei * n_features + fi) * n_traces + ti] = v;
                }
            }
        }
        Self {
            data,
            n_traces,
            n_features,
        }
    }

    /// Element `(pair, feature)`'s training series, contiguous.
    #[inline]
    fn ys(&self, pair: usize, fi: usize) -> &[f64] {
        let start = (pair * self.n_features + fi) * self.n_traces;
        &self.data[start..start + self.n_traces]
    }
}

/// Fewest element fits for which the rayon fan-out pays for itself.
///
/// Each fit is well under a microsecond of work (~0.4 µs measured), while
/// spawning and joining a handful of threads costs on the order of
/// 100 µs — on the 420-element paper signature the fan-out measured a
/// 0.77x "speedup". Signatures below this count take the serial loop
/// unconditionally; past it the fitting work dominates the fan-out by
/// several times.
pub const MIN_PAR_FIT_ELEMENTS: usize = 1024;

/// True when [`extrapolate_signature`] will fan element fitting out over
/// the rayon pool for a signature with `n_elements` element fits:
/// the signature must be large enough to amortize thread spawn/join (see
/// [`MIN_PAR_FIT_ELEMENTS`]), the installed pool must have more than one
/// thread, and the host must actually have more than one core (threads in
/// excess of cores only add scheduling overhead). Exposed so a measurement
/// can tell a genuine fan-out from two runs of the same serial path.
pub fn parallel_fit_enabled(n_elements: usize) -> bool {
    n_elements >= MIN_PAR_FIT_ELEMENTS
        && rayon::current_num_threads() > 1
        && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1
}

/// Records which scheduling path an element fit took and how many
/// elements it fitted. Which path ran depends on the installed thread
/// pool, so its counter and journal marker carry the scheduling-dependent
/// `sched.` prefix that masking strips.
fn record_fit_path(parallel: bool, n_elements: usize, obs: &ObsContext) {
    let metrics = obs.metrics();
    if metrics.enabled() {
        metrics
            .counter(if parallel {
                "sched.extrap.parallel_fit_calls"
            } else {
                "sched.extrap.serial_fit_calls"
            })
            .incr();
        metrics
            .counter("extrap.elements_fit")
            .add(n_elements as u64);
    }
    let journal = obs.journal();
    if journal.enabled() {
        journal.instant(
            if parallel {
                "sched.extrap.parallel_fit"
            } else {
                "sched.extrap.serial_fit"
            },
            "fit",
            &[],
        );
    }
}

/// Records the per-element fit decisions: win counts per canonical form
/// and one `extrap.fit.<Form>` journal instant per element, in element
/// order. Both are pure functions of the fits, so they are identical on
/// the serial and parallel paths.
fn record_fit_decisions(fits: &[ElementFit], obs: &ObsContext) {
    let metrics = obs.metrics();
    if metrics.enabled() {
        let mut wins: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for fit in fits {
            *wins.entry(fit.model.form.label()).or_insert(0) += 1;
        }
        for (label, n) in wins {
            metrics.counter(&format!("extrap.fit_wins.{label}")).add(n);
        }
    }
    let journal = obs.journal();
    if journal.enabled() {
        for (i, fit) in fits.iter().enumerate() {
            journal.instant(
                &format!("extrap.fit.{}", fit.model.form.label()),
                "fit",
                &[
                    ("index", i as f64),
                    ("sse", fit.model.sse),
                    ("influence", fit.influence),
                ],
            );
        }
    }
}

/// The fitting core: fits every applicable form to every element's
/// training series over the sorted, validated family.
///
/// Instructions are independent fitting problems, so the element fits fan
/// out over `(block, instruction)` pairs with rayon — but only when the
/// fan-out can pay for itself (see [`parallel_fit_enabled`]). The collect
/// is ordered and the fits of each pair are concatenated in pair order, so
/// the output is bit-identical to serial evaluation at any thread count.
fn fit_candidates(
    sorted: &[&TaskTrace],
    xs: Vec<f64>,
    cfg: &ExtrapolationConfig,
    obs: &ObsContext,
) -> SignatureCandidates {
    let base = *sorted.last().expect("nonempty");
    let feature_ids = FeatureId::all(base.depth);

    // `(pair, block, instruction)`: `pair` is the flat instruction index —
    // the row of the element-series matrix gathered below.
    let pairs: Vec<(usize, usize, usize)> = base
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(bi, bb)| (0..bb.instrs.len()).map(move |ii| (bi, ii)))
        .enumerate()
        .map(|(p, (bi, ii))| (p, bi, ii))
        .collect();
    // One columnar gather up front: after this, no fit touches a trace
    // record again — every series is a contiguous slice.
    let series = ElementSeries::gather(sorted, &feature_ids);
    let fit_one = |&(p, bi, ii): &(usize, usize, usize)| -> Vec<ElementCandidates> {
        let bb = &base.blocks[bi];
        let influence = base.influence(&bb.instrs[ii].features);
        feature_ids
            .iter()
            .enumerate()
            .map(|(fi, &fid)| {
                let ys = series.ys(p, fi);
                ElementCandidates {
                    block: bb.name.clone(),
                    instr: ii as u32,
                    feature: fid,
                    candidates: fit_all(&cfg.forms, &xs, ys),
                    values: ys.to_vec(),
                    influence,
                }
            })
            .collect()
    };
    let parallel = parallel_fit_enabled(pairs.len() * feature_ids.len());
    let elements: Vec<ElementCandidates> = if parallel {
        pairs
            .par_iter()
            .map(fit_one)
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    } else {
        pairs.iter().flat_map(fit_one).collect()
    };

    // Block-level invocation/iteration counts get the same treatment.
    let blocks = (0..base.blocks.len())
        .map(|bi| {
            let invocation_values: Vec<f64> = sorted
                .iter()
                .map(|t| t.blocks[bi].invocations as f64)
                .collect();
            let iteration_values: Vec<f64> = sorted
                .iter()
                .map(|t| t.blocks[bi].iterations as f64)
                .collect();
            BlockCandidates {
                invocations: fit_all(&cfg.forms, &xs, &invocation_values),
                iterations: fit_all(&cfg.forms, &xs, &iteration_values),
                invocation_values,
                iteration_values,
            }
        })
        .collect();

    record_fit_path(parallel, elements.len(), obs);

    SignatureCandidates {
        base: base.clone(),
        xs,
        criterion: cfg.criterion,
        elements,
        blocks,
    }
}

/// The *Synthesize* phase: evaluates every fitted model at the target,
/// post-processes the vectors back to physical ranges (counts clamped
/// non-negative, rates to `[0, 1]` with cumulative monotonicity across
/// cache levels restored), and assembles the synthetic trace.
///
/// Deterministic and bit-identical to the fused extrapolation APIs.
pub fn synthesize_from_fit(fit: &SignatureFit) -> TaskTrace {
    let base = &fit.base;
    let tx = fit.target_x;
    let feature_ids = FeatureId::all(base.depth);
    let mut chunks = fit.fits.chunks(feature_ids.len());

    let mut out_blocks = Vec::with_capacity(base.blocks.len());
    for (bb, models) in base.blocks.iter().zip(&fit.block_models) {
        let mut out_instrs = Vec::with_capacity(bb.instrs.len());
        for base_instr in &bb.instrs {
            let instr_fits = chunks.next().expect("one fit chunk per instruction");
            let mut features = base_instr.features;
            for ef in instr_fits {
                let fid = ef.feature;
                let mut v = ef.model.eval(tx);
                if fid.is_rate() {
                    v = v.clamp(0.0, 1.0);
                } else if fid == FeatureId::Ilp {
                    v = v.max(1.0);
                } else {
                    v = v.max(0.0);
                }
                features.set(fid, v);
            }
            // Restore cumulative monotonicity of the hit-rate vector.
            for l in 1..features.hit_rates.len() {
                features.hit_rates[l] = features.hit_rates[l].max(features.hit_rates[l - 1]);
            }
            for l in base.depth..features.hit_rates.len() {
                features.hit_rates[l] = 1.0;
            }
            out_instrs.push(xtrace_tracer::InstrRecord {
                instr: base_instr.instr,
                pattern: base_instr.pattern.clone(),
                features,
            });
        }

        out_blocks.push(xtrace_tracer::BlockRecord {
            name: bb.name.clone(),
            source: bb.source.clone(),
            invocations: models.invocations.eval(tx).max(0.0).round() as u64,
            iterations: models.iterations.eval(tx).max(0.0).round() as u64,
            instrs: out_instrs,
        });
    }

    TaskTrace {
        app: base.app.clone(),
        rank: base.rank,
        nranks: fit.out_nranks,
        machine: base.machine.clone(),
        depth: base.depth,
        blocks: out_blocks,
    }
}

/// Builds the [`FitDiagnostics`](xtrace_obs::FitDiagnostics) record for a
/// completed fit: per element, the winner plus the SSE/R² of *every*
/// applicable candidate form (re-fit from the stored training values —
/// cheap, and it keeps the fitting hot path untouched), the winner's
/// training-point residuals, and the extrapolation distance.
///
/// `xs` are the training core counts in ascending order — the same
/// abscissas [`fit_signature_obs`] fitted over. Elements whose stored value
/// series does not match `xs` in length (foreign `SignatureFit`s) get
/// empty candidate/residual lists rather than wrong numbers.
///
/// Pure function of the fit, so the artifact is bit-identical across
/// thread counts.
pub fn diagnose_fit(
    fit: &SignatureFit,
    xs: &[f64],
    cfg: &ExtrapolationConfig,
) -> xtrace_obs::FitDiagnostics {
    let mut form_wins: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut elements = Vec::with_capacity(fit.fits.len());
    for ef in &fit.fits {
        let winner = ef.model.form.label().to_string();
        *form_wins.entry(winner.clone()).or_insert(0) += 1;
        let ys = &ef.values;
        let n = ys.len() as f64;
        let mean = if ys.is_empty() {
            0.0
        } else {
            ys.iter().sum::<f64>() / n
        };
        let ss_tot: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        let (candidates, residuals) = if ys.len() == xs.len() && !ys.is_empty() {
            let candidates = fit_all(&cfg.forms, xs, ys)
                .iter()
                .map(|m| xtrace_obs::CandidateFit {
                    form: m.form.label().to_string(),
                    sse: m.sse,
                    r2: m.r2(ss_tot),
                })
                .collect();
            let residuals = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| y - ef.model.eval(x))
                .collect();
            (candidates, residuals)
        } else {
            (Vec::new(), Vec::new())
        };
        elements.push(xtrace_obs::ElementDiagnostics {
            block: ef.block.clone(),
            instr: ef.instr,
            feature: ef.feature.label(),
            winner,
            winner_sse: ef.model.sse,
            winner_r2: ef.model.r2(ss_tot),
            candidates,
            residuals,
            influence: ef.influence,
        });
    }
    xtrace_obs::FitDiagnostics {
        target_x: fit.target_x,
        training_xs: xs.to_vec(),
        form_wins,
        elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::select_best_guarded;
    use xtrace_ir::SourceLoc;
    use xtrace_tracer::{BlockRecord, FeatureVector, InstrRecord};

    /// Builds a synthetic training trace at `p` cores where each feature
    /// follows a known law:
    ///   mem_ops = 1e9 / p (power/exp-ish), hit L1 = 0.8 constant,
    ///   hit L2 = 0.1 + 5e-5 p (linear), exec = 100 + 3 ln p (log).
    fn trace_at(p: u32) -> TaskTrace {
        let pf = f64::from(p);
        let mut f = FeatureVector {
            exec_count: 100.0 + 3.0 * pf.ln(),
            mem_ops: 1e9 / pf,
            loads: 1e9 / pf,
            bytes_per_ref: 8.0,
            working_set: 1e8 / pf,
            ilp: 2.0,
            ..Default::default()
        };
        f.hit_rates = [0.3, 0.35 + 5e-5 * pf, 1.0, 1.0];
        TaskTrace {
            app: "t".into(),
            rank: 0,
            nranks: p,
            machine: "m".into(),
            depth: 2,
            blocks: vec![BlockRecord {
                name: "k".into(),
                source: SourceLoc::new("a.c", 1, "f"),
                invocations: 10,
                iterations: (1e6 / pf) as u64,
                instrs: vec![InstrRecord {
                    instr: 0,
                    pattern: "strided".into(),
                    features: f,
                }],
            }],
        }
    }

    fn training() -> Vec<TaskTrace> {
        vec![trace_at(1024), trace_at(2048), trace_at(4096)]
    }

    /// `training()` with its one block tiled `copies` times.
    fn tiled_training(copies: usize) -> Vec<TaskTrace> {
        training()
            .into_iter()
            .map(|mut t| {
                let block = t.blocks[0].clone();
                t.blocks = (0..copies)
                    .map(|i| BlockRecord {
                        name: format!("k{i}"),
                        ..block.clone()
                    })
                    .collect();
                t
            })
            .collect()
    }

    /// Fits `traces` on a `threads`-wide pool under a recorder; returns
    /// the synthesized trace and the (serial, parallel) fit-call counts.
    fn recorded_fit(threads: usize, traces: &[TaskTrace]) -> (TaskTrace, u64, u64) {
        let obs = ObsContext::with_recorder(xtrace_obs::Recorder::new());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let cfg = ExtrapolationConfig::default();
        let fit = pool
            .install(|| fit_signature_obs(traces, 8192, &cfg, &obs))
            .expect("valid ladder");
        let counters = obs.snapshot().expect("recording context").counters;
        let calls = |path: &str| {
            counters
                .get(&format!("sched.extrap.{path}_fit_calls"))
                .copied()
                .unwrap_or(0)
        };
        (
            synthesize_from_fit(&fit),
            calls("serial"),
            calls("parallel"),
        )
    }

    #[test]
    fn fit_fan_out_follows_the_element_threshold_without_changing_bits() {
        let features = FeatureId::all(2).len();
        // Below the threshold the fit stays serial even on a wide pool.
        assert!(features < MIN_PAR_FIT_ELEMENTS);
        let (_, serial, parallel) = recorded_fit(4, &training());
        assert_eq!((serial, parallel), (1, 0));

        // Past it the fan-out runs wherever the host has a second core,
        // and its bits equal the one-thread path's.
        let big = tiled_training(MIN_PAR_FIT_ELEMENTS.div_ceil(features) + 1);
        let (one_thread, serial, parallel) = recorded_fit(1, &big);
        assert_eq!((serial, parallel), (1, 0));
        let (two_threads, serial, parallel) = recorded_fit(2, &big);
        assert_eq!(two_threads, one_thread);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let expected = if cores > 1 { (0, 1) } else { (1, 0) };
        assert_eq!((serial, parallel), expected);
    }

    #[test]
    fn extrapolates_each_law_correctly() {
        let cfg = ExtrapolationConfig::default();
        let out = extrapolate_signature(&training(), 8192, &cfg).unwrap();
        assert_eq!(out.nranks, 8192);
        let f = &out.blocks[0].instrs[0].features;
        // Constant element.
        assert!((f.hit_rates[0] - 0.3).abs() < 1e-9, "L1 {}", f.hit_rates[0]);
        // Linear element.
        let expect_l2 = 0.35 + 5e-5 * 8192.0;
        assert!(
            (f.hit_rates[1] - expect_l2).abs() < 1e-6,
            "L2 {} vs {expect_l2}",
            f.hit_rates[1]
        );
        // Logarithmic element.
        let expect_exec = 100.0 + 3.0 * 8192f64.ln();
        assert!(
            (f.exec_count - expect_exec).abs() / expect_exec < 1e-9,
            "exec {} vs {expect_exec}",
            f.exec_count
        );
    }

    #[test]
    fn inverse_scaling_extrapolates_within_tolerance() {
        // 1/p is none of the paper's four forms; the best of the four must
        // still land in the right regime (the paper reports <20% element
        // error for exactly this reason).
        let cfg = ExtrapolationConfig::default();
        let out = extrapolate_signature(&training(), 8192, &cfg).unwrap();
        let got = out.blocks[0].instrs[0].features.mem_ops;
        let truth = 1e9 / 8192.0;
        let rel = (got - truth).abs() / truth;
        // Hyperbolic decay is outside the span of the four forms; the best
        // sane pick (exponential) lands within a small factor, and the
        // extended power form (Section VI) removes the bias — see
        // `extended_forms_nail_inverse_scaling`.
        assert!(got > 0.0, "guarded extrapolation stays positive");
        assert!(rel < 0.8, "mem_ops rel err {rel}");
    }

    #[test]
    fn extended_forms_nail_inverse_scaling() {
        // The Section-VI power form fits 1/p exactly.
        let cfg = ExtrapolationConfig {
            forms: CanonicalForm::EXTENDED_SET.to_vec(),
            ..Default::default()
        };
        let out = extrapolate_signature(&training(), 8192, &cfg).unwrap();
        let got = out.blocks[0].instrs[0].features.mem_ops;
        let truth = 1e9 / 8192.0;
        assert!((got - truth).abs() / truth < 1e-6);
    }

    #[test]
    fn detailed_reports_chosen_forms() {
        let cfg = ExtrapolationConfig::default();
        let fits = fit_signature_obs(&training(), 8192, &cfg, &ObsContext::disabled())
            .unwrap()
            .fits;
        let find = |fid: FeatureId| fits.iter().find(|f| f.feature == fid).unwrap();
        assert_eq!(
            find(FeatureId::HitRate(0)).model.form,
            CanonicalForm::Constant
        );
        assert_eq!(
            find(FeatureId::HitRate(1)).model.form,
            CanonicalForm::Linear
        );
        assert_eq!(
            find(FeatureId::ExecCount).model.form,
            CanonicalForm::Logarithmic
        );
        assert_eq!(find(FeatureId::ExecCount).values.len(), 3);
    }

    #[test]
    fn hit_rates_stay_probabilities_and_monotone() {
        // Construct traces whose linear L2 fit would exceed 1 at the target.
        let mut traces = training();
        for t in &mut traces {
            let p = f64::from(t.nranks);
            t.blocks[0].instrs[0].features.hit_rates[1] = 0.5 + 1.2e-4 * p;
            t.blocks[0].instrs[0].features.hit_rates[0] = 0.4;
        }
        let out = extrapolate_signature(&traces, 8192, &ExtrapolationConfig::default()).unwrap();
        let hr = out.blocks[0].instrs[0].features.hit_rates;
        assert!(hr[1] <= 1.0);
        assert!(hr[0] <= hr[1] + 1e-12);
        assert!(hr[1] <= hr[2] + 1e-12);
        assert_eq!(hr[2], 1.0, "beyond-depth levels pinned to 1");
    }

    #[test]
    fn counts_never_go_negative() {
        // Steeply decreasing linear series would cross zero at the target.
        let mut traces = training();
        for t in &mut traces {
            let p = f64::from(t.nranks);
            t.blocks[0].instrs[0].features.fp_add = (5000.0 - p).max(0.0);
        }
        let out = extrapolate_signature(&traces, 8192, &ExtrapolationConfig::default()).unwrap();
        assert!(out.blocks[0].instrs[0].features.fp_add >= 0.0);
    }

    #[test]
    fn rejects_too_few_traces() {
        let t = training();
        let err =
            extrapolate_signature(&t[..2], 8192, &ExtrapolationConfig::default()).unwrap_err();
        assert_eq!(err, ExtrapolationError::TooFewTraces { got: 2, need: 3 });
    }

    #[test]
    fn rejects_duplicate_core_counts() {
        let t = vec![trace_at(1024), trace_at(1024), trace_at(4096)];
        assert_eq!(
            extrapolate_signature(&t, 8192, &ExtrapolationConfig::default()).unwrap_err(),
            ExtrapolationError::DuplicateCoreCount(1024)
        );
    }

    #[test]
    fn rejects_target_not_larger() {
        let err =
            extrapolate_signature(&training(), 4096, &ExtrapolationConfig::default()).unwrap_err();
        assert_eq!(
            err,
            ExtrapolationError::TargetNotLarger {
                target: 4096,
                max_input: 4096
            }
        );
    }

    #[test]
    fn rejects_mismatched_blocks() {
        let mut t = training();
        t[1].blocks[0].name = "other".into();
        assert!(matches!(
            extrapolate_signature(&t, 8192, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::MismatchedBlocks { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_apps_and_machines() {
        let mut t = training();
        t[0].app = "other-app".into();
        assert!(matches!(
            extrapolate_signature(&t, 8192, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::MismatchedApps(..))
        ));
        let mut t = training();
        t[2].machine = "other-machine".into();
        assert!(matches!(
            extrapolate_signature(&t, 8192, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::MismatchedMachines(..))
        ));
    }

    #[test]
    fn rejects_mismatched_instr_counts() {
        let mut t = training();
        let extra = t[1].blocks[0].instrs[0].clone();
        t[1].blocks[0].instrs.push(extra);
        assert!(matches!(
            extrapolate_signature(&t, 8192, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::MismatchedInstrCount { .. })
        ));
    }

    #[test]
    fn input_order_does_not_matter() {
        let cfg = ExtrapolationConfig::default();
        let fwd = extrapolate_signature(&training(), 8192, &cfg).unwrap();
        let mut rev = training();
        rev.reverse();
        let bwd = extrapolate_signature(&rev, 8192, &cfg).unwrap();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn block_invocations_and_iterations_extrapolate() {
        let out =
            extrapolate_signature(&training(), 8192, &ExtrapolationConfig::default()).unwrap();
        assert_eq!(out.blocks[0].invocations, 10, "constant invocations");
        let truth = 1e6 / 8192.0;
        let got = out.blocks[0].iterations as f64;
        assert!(got > 0.0, "iterations stay positive");
        assert!((got - truth).abs() / truth < 0.8, "{got} vs {truth}");
    }

    #[test]
    fn series_extrapolation_over_problem_size() {
        // Input-parameter sensitivity (Section VI): the abscissa is a
        // problem size, not a core count. mem_ops grows linearly with it.
        let mk = |size: f64| {
            let mut t = trace_at(1024);
            t.blocks[0].instrs[0].features.mem_ops = 50.0 * size;
            t.blocks[0].instrs[0].features.loads = 50.0 * size;
            t.blocks[0].instrs[0].features.exec_count = 50.0 * size;
            t
        };
        let points = vec![(1e6, mk(1e6)), (2e6, mk(2e6)), (4e6, mk(4e6))];
        let out = extrapolate_series(&points, 1e7, &ExtrapolationConfig::default()).unwrap();
        assert_eq!(out.nranks, 1024, "core count carried through unchanged");
        let got = out.blocks[0].instrs[0].features.mem_ops;
        assert!((got - 5e8).abs() / 5e8 < 1e-9, "linear-in-size: {got}");
    }

    #[test]
    fn series_rejects_duplicate_and_nonfinite_points() {
        let t0 = trace_at(1024);
        let points = vec![(1e6, t0.clone()), (1e6, t0.clone()), (4e6, t0.clone())];
        assert_eq!(
            extrapolate_series(&points, 1e7, &ExtrapolationConfig::default()).unwrap_err(),
            ExtrapolationError::DuplicatePoint(1e6)
        );
        let points = vec![(f64::NAN, t0.clone()), (2e6, t0.clone()), (4e6, t0.clone())];
        assert!(matches!(
            extrapolate_series(&points, 1e7, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::NonFinitePoint(_))
        ));
    }

    #[test]
    fn series_rejects_target_inside_training_range() {
        let t0 = trace_at(1024);
        let points = vec![(1.0, t0.clone()), (2.0, t0.clone()), (4.0, t0.clone())];
        assert!(matches!(
            extrapolate_series(&points, 3.0, &ExtrapolationConfig::default()),
            Err(ExtrapolationError::TargetNotBeyond { .. })
        ));
    }

    #[test]
    fn signature_and_series_agree_on_core_count_axis() {
        // The signature API is the series API with x = nranks.
        let traces = training();
        let points: Vec<(f64, TaskTrace)> = traces
            .iter()
            .map(|t| (f64::from(t.nranks), t.clone()))
            .collect();
        let a = extrapolate_signature(&traces, 8192, &ExtrapolationConfig::default()).unwrap();
        let mut b = extrapolate_series(&points, 8192.0, &ExtrapolationConfig::default()).unwrap();
        // The series API labels the output with the base count.
        b.nranks = 8192;
        assert_eq!(a, b);
    }

    #[test]
    fn selected_models_match_guarded_selection_on_each_series() {
        // Fitting the candidates once and selecting per target must pick,
        // for every element and block series, exactly the model that a
        // fresh guarded selection over that series' own training values
        // picks — for every target and both the paper and extended sets.
        let traces = training();
        let mut sorted: Vec<&TaskTrace> = traces.iter().collect();
        sorted.sort_by_key(|t| t.nranks);
        let xs: Vec<f64> = sorted.iter().map(|t| f64::from(t.nranks)).collect();
        let block_series = |bi: usize, f: &dyn Fn(&BlockRecord) -> u64| -> Vec<f64> {
            sorted.iter().map(|t| f(&t.blocks[bi]) as f64).collect()
        };
        for forms in [
            CanonicalForm::PAPER_SET.to_vec(),
            CanonicalForm::EXTENDED_SET.to_vec(),
        ] {
            let cfg = ExtrapolationConfig {
                forms,
                ..Default::default()
            };
            let candidates =
                fit_signature_candidates_obs(&traces, &cfg, &ObsContext::disabled()).unwrap();
            let reference =
                |ys: &[f64], tx: f64| select_best_guarded(&cfg.forms, &xs, ys, cfg.criterion, tx);
            for target in [8192, 16384, 65536] {
                let tx = f64::from(target);
                let fit = candidates
                    .select_obs(target, &ObsContext::disabled())
                    .unwrap();
                assert_eq!(fit.fits.len(), candidates.elements.len());
                for ef in &fit.fits {
                    let instr =
                        &sorted.last().unwrap().block(&ef.block).unwrap().instrs[ef.instr as usize];
                    let ys: Vec<f64> = sorted
                        .iter()
                        .map(|t| {
                            t.block(&ef.block).unwrap().instrs[ef.instr as usize]
                                .features
                                .get(ef.feature)
                        })
                        .collect();
                    assert_eq!(ef.values, ys);
                    assert_eq!(
                        ef.influence,
                        sorted.last().unwrap().influence(&instr.features)
                    );
                    assert_eq!(ef.model, reference(&ys, tx), "{ef:?} at {target}");
                }
                for (bi, bm) in fit.block_models.iter().enumerate() {
                    let invocations = block_series(bi, &|b| b.invocations);
                    let iterations = block_series(bi, &|b| b.iterations);
                    assert_eq!(bm.invocations, reference(&invocations, tx));
                    assert_eq!(bm.iterations, reference(&iterations, tx));
                }
            }
        }
    }

    #[test]
    fn candidate_selection_rejects_target_not_larger() {
        let cfg = ExtrapolationConfig::default();
        let candidates =
            fit_signature_candidates_obs(&training(), &cfg, &ObsContext::disabled()).unwrap();
        assert_eq!(
            candidates
                .select_obs(4096, &ObsContext::disabled())
                .unwrap_err(),
            ExtrapolationError::TargetNotLarger {
                target: 4096,
                max_input: 4096
            }
        );
    }

    #[test]
    fn candidate_fitting_validates_the_family() {
        let cfg = ExtrapolationConfig::default();
        let mut t = training();
        t[1].blocks[0].name = "other".into();
        assert!(matches!(
            fit_signature_candidates_obs(&t, &cfg, &ObsContext::disabled()),
            Err(ExtrapolationError::MismatchedBlocks { .. })
        ));
        let t = training();
        assert!(matches!(
            fit_signature_candidates_obs(&t[..2], &cfg, &ObsContext::disabled()),
            Err(ExtrapolationError::TooFewTraces { got: 2, need: 3 })
        ));
    }

    #[test]
    fn diagnose_fit_reports_candidates_residuals_and_distance() {
        let traces = training();
        let cfg = ExtrapolationConfig::default();
        let fit = fit_signature_obs(&traces, 8192, &cfg, &ObsContext::disabled()).unwrap();
        let xs: Vec<f64> = {
            let mut xs: Vec<f64> = traces.iter().map(|t| f64::from(t.nranks)).collect();
            xs.sort_by(f64::total_cmp);
            xs
        };
        let diag = diagnose_fit(&fit, &xs, &cfg);
        assert_eq!(diag.elements.len(), fit.fits.len());
        assert_eq!(diag.form_wins.values().sum::<u64>(), fit.fits.len() as u64);
        assert_eq!(
            diag.extrapolation_distance(),
            8192.0 / xs.last().copied().unwrap()
        );
        for (e, ef) in diag.elements.iter().zip(&fit.fits) {
            assert_eq!(e.winner, ef.model.form.label());
            assert_eq!(e.residuals.len(), xs.len());
            // The winner must be among the candidates with the same SSE.
            let winner = e
                .candidates
                .iter()
                .find(|c| c.form == e.winner)
                .expect("winner among candidates");
            assert!((winner.sse - e.winner_sse).abs() <= 1e-9 * (1.0 + e.winner_sse.abs()));
        }
        // Deterministic: a second diagnosis is bit-identical.
        assert_eq!(diag, diagnose_fit(&fit, &xs, &cfg));
    }

    #[test]
    fn errors_display_readably() {
        let e = ExtrapolationError::TooFewTraces { got: 1, need: 3 };
        assert!(e.to_string().contains("1 training traces"));
        let e = ExtrapolationError::TargetNotLarger {
            target: 10,
            max_input: 20,
        };
        assert!(e.to_string().contains("exceed"));
    }
}
