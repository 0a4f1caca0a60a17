//! Pipeline configuration and its resolution into runnable inputs.
//!
//! [`PipelineConfig`] subsumes the scattered CLI flags (`--app`, `--scale`,
//! `--machine`, `--training`, `--target`, `--forms`) into one validated
//! value. Its [`PipelineConfig::config_hash`] is a stable fingerprint of
//! every field that influences the pipeline's *output*, and is the key
//! under which the [artifact store](crate::store) files results — two runs
//! with the same hash are guaranteed to want the same artifacts.

use serde::{Deserialize, Serialize};
use xtrace_apps::{profiling_net, SpecfemProxy, StencilProxy, Uh3dProxy};
use xtrace_extrap::{CanonicalForm, ExtrapolationConfig};
use xtrace_machine::{presets, MachineProfile};
use xtrace_obs::ObsContext;
use xtrace_spmd::{CommProfile, CriticalPathReport, SpmdApp};
use xtrace_tracer::TracerConfig;

use crate::error::{Result, XtraceError};

/// Which canonical-form set the fitter may choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FormSet {
    /// The paper's four forms (constant, linear, log, exponential).
    Paper,
    /// Section VI's extension (adds power/polynomial forms).
    Extended,
}

impl FormSet {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "paper" => Ok(FormSet::Paper),
            "extended" => Ok(FormSet::Extended),
            other => Err(XtraceError::Usage(format!(
                "unknown --forms {other:?} (paper|extended)"
            ))),
        }
    }

    /// The candidate forms this set allows.
    pub fn forms(self) -> Vec<CanonicalForm> {
        match self {
            FormSet::Paper => CanonicalForm::PAPER_SET.to_vec(),
            FormSet::Extended => CanonicalForm::EXTENDED_SET.to_vec(),
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            FormSet::Paper => "paper",
            FormSet::Extended => "extended",
        }
    }
}

/// Everything a pipeline run depends on, in one serializable value.
///
/// Construct with [`PipelineConfig::new`] for the conventional defaults,
/// or [`PipelineConfig::builder`] to set optional knobs fluently. The
/// struct is `#[non_exhaustive]` so fields can be added without breaking
/// downstream crates; existing fields stay public and mutable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Proxy application name (`specfem3d` | `uh3d` | `stencil3d`).
    pub app: String,
    /// Problem scale (`tiny` | `small` | `paper`).
    pub scale: String,
    /// Machine preset name, or a path to a profile exported with
    /// `machine-export`.
    pub machine: String,
    /// Training core counts (at least two, strictly below `target`).
    pub training: Vec<u32>,
    /// Core count to extrapolate to. When [`Self::targets`] is non-empty
    /// this must be its first entry.
    pub target: u32,
    /// Every core count a sweep extrapolates to. Empty means "just
    /// [`Self::target`]" — the single-target configuration unchanged from
    /// before sweeps existed. Populated via
    /// [`PipelineConfigBuilder::targets`]; [`Self::resolve`] requires the
    /// entries to be distinct and `target` to equal the first entry.
    pub targets: Vec<u32>,
    /// Canonical-form set for the fitter.
    pub forms: FormSet,
    /// Whether to run the `Validate` stage (collect at the target count
    /// and measure ground truth — far more expensive than the pipeline
    /// proper).
    pub validate: bool,
    /// Use the light tracer sampling configuration instead of the default
    /// (smaller sampled windows; used by tests and quick looks).
    pub fast_tracer: bool,
    /// How many ranks to trace and store per training core count
    /// (default 1: only the longest-running rank, which is all the fitter
    /// consumes). Values above 1 collect extra worker ranks — spread
    /// evenly across `[0, nranks)` — and file them in the artifact store
    /// for rank-level studies; predictions are unaffected.
    pub ranks_per_count: u32,
    /// Whether the convolution stage also attributes the critical path of
    /// its profiling simulation (default `true`). Attribution never
    /// perturbs predictions — it only adds the
    /// [`CriticalPathReport`](xtrace_spmd::CriticalPathReport) diagnostic
    /// to reports and the artifact store — so the flag exists for
    /// overhead-sensitive benchmarking, not correctness.
    pub critical_path: bool,
}

impl PipelineConfig {
    /// A config with the conventional defaults: paper forms, full
    /// validation, default tracer sampling.
    pub fn new(
        app: impl Into<String>,
        machine: impl Into<String>,
        training: Vec<u32>,
        target: u32,
    ) -> Self {
        Self {
            app: app.into(),
            scale: "small".into(),
            machine: machine.into(),
            training,
            target,
            targets: Vec::new(),
            forms: FormSet::Paper,
            validate: true,
            fast_tracer: false,
            ranks_per_count: 1,
            critical_path: true,
        }
    }

    /// Starts a builder with the same defaults as [`PipelineConfig::new`].
    ///
    /// ```
    /// use xtrace_core::{FormSet, PipelineConfig};
    ///
    /// let cfg = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
    ///     .scale("tiny")
    ///     .forms(FormSet::Extended)
    ///     .validate(false)
    ///     .fast_tracer(true)
    ///     .build();
    /// assert_eq!(cfg.scale, "tiny");
    /// assert!(!cfg.validate);
    /// ```
    pub fn builder(
        app: impl Into<String>,
        machine: impl Into<String>,
        training: Vec<u32>,
        target: u32,
    ) -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: Self::new(app, machine, training, target),
        }
    }

    /// The target list this config actually sweeps: [`Self::targets`] when
    /// populated, else the single [`Self::target`].
    pub fn effective_targets(&self) -> Vec<u32> {
        if self.targets.is_empty() {
            vec![self.target]
        } else {
            self.targets.clone()
        }
    }

    /// This config restricted to one target of its sweep: same prefix
    /// (app, machine, scale, training, forms, tracer, ranks), `target` set
    /// to `t`, sweep list cleared. [`Self::config_hash`] of the result is
    /// the full hash a standalone run at `t` would use.
    pub fn for_target(&self, t: u32) -> Self {
        let mut single = self.clone();
        single.target = t;
        single.targets = Vec::new();
        single
    }

    /// FNV-1a 64-bit fingerprint of the canonical JSON encoding of this
    /// config, as a 16-digit hex string. Identical configs — and only
    /// identical configs, modulo hash collisions — share in-flight engine
    /// runs. The target list is normalized first, so a one-entry sweep
    /// hashes identically to the plain single-target spelling. `target` is
    /// hashed as given, so a list that does not start with it (which
    /// [`Self::resolve`] rejects) never shares a flight with a valid config.
    pub fn config_hash(&self) -> String {
        let mut canon = self.clone();
        canon.targets = self.effective_targets();
        fnv64_hex(&serde_json::to_string(&canon).expect("config serializes"))
    }

    /// FNV-1a 64-bit fingerprint of the *target-independent prefix* of the
    /// config — everything the Collect/Fit/Synthesize stages consume: app,
    /// scale, machine, training counts, form set, tracer speed, and ranks
    /// per count. Two configs that differ only in target (or target list,
    /// or whether they validate) share a prefix hash, and therefore share
    /// warm training-trace and per-target artifacts in the store.
    pub fn prefix_hash(&self) -> String {
        #[derive(Serialize)]
        struct PrefixKey {
            app: String,
            scale: String,
            machine: String,
            training: Vec<u32>,
            forms: FormSet,
            fast_tracer: bool,
            ranks_per_count: u32,
        }
        let prefix = PrefixKey {
            app: self.app.clone(),
            scale: self.scale.clone(),
            machine: self.machine.clone(),
            training: self.training.clone(),
            forms: self.forms,
            fast_tracer: self.fast_tracer,
            ranks_per_count: self.ranks_per_count,
        };
        fnv64_hex(&serde_json::to_string(&prefix).expect("prefix serializes"))
    }

    /// Validates the config and builds the app, machine, and per-stage
    /// configurations the engine needs.
    pub fn resolve(&self) -> Result<PipelineCtx> {
        if self.training.len() < 2 {
            return Err(XtraceError::Usage(format!(
                "need at least 2 training core counts, got {}",
                self.training.len()
            )));
        }
        let targets = self.effective_targets();
        if !self.targets.is_empty() && self.target != self.targets[0] {
            return Err(XtraceError::Usage(format!(
                "target {} must equal the first sweep target {}",
                self.target, self.targets[0]
            )));
        }
        {
            let mut seen = std::collections::BTreeSet::new();
            if let Some(&dup) = targets.iter().find(|&&t| !seen.insert(t)) {
                return Err(XtraceError::Usage(format!("duplicate sweep target {dup}")));
            }
        }
        for &t in &targets {
            if let Some(&p) = self.training.iter().find(|&&p| p >= t) {
                return Err(XtraceError::Usage(format!(
                    "training count {p} does not lie below the target {t}"
                )));
            }
        }
        if self.ranks_per_count == 0 {
            return Err(XtraceError::Usage(
                "--ranks-per-count must be at least 1".into(),
            ));
        }
        let app = make_app(&self.app, &self.scale)?;
        let machine = make_machine(&self.machine)?;
        let tracer = if self.fast_tracer {
            TracerConfig::fast()
        } else {
            TracerConfig::default()
        };
        let extrap = ExtrapolationConfig {
            forms: self.forms.forms(),
            min_traces: self.training.len().clamp(2, 3),
            ..ExtrapolationConfig::default()
        };
        Ok(PipelineCtx {
            config: self.clone(),
            config_hash: self.config_hash(),
            prefix_hash: self.prefix_hash(),
            app,
            machine,
            tracer,
            extrap,
            store: None,
            obs: ObsContext::disabled(),
        })
    }
}

/// FNV-1a 64-bit hash of a canonical string, as 16 hex digits — the
/// fingerprint primitive behind both config hashes.
fn fnv64_hex(canonical: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Fluent constructor for [`PipelineConfig`], started by
/// [`PipelineConfig::builder`]. Each setter overrides one default; `build`
/// returns the finished config (validation still happens in
/// [`PipelineConfig::resolve`], where the error context lives).
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Problem scale (`tiny` | `small` | `paper`; default `small`).
    #[must_use]
    pub fn scale(mut self, scale: impl Into<String>) -> Self {
        self.config.scale = scale.into();
        self
    }

    /// Canonical-form set for the fitter (default [`FormSet::Paper`]).
    #[must_use]
    pub fn forms(mut self, forms: FormSet) -> Self {
        self.config.forms = forms;
        self
    }

    /// Whether to run the expensive `Validate` stage (default `true`).
    #[must_use]
    pub fn validate(mut self, validate: bool) -> Self {
        self.config.validate = validate;
        self
    }

    /// Use the light tracer sampling configuration (default `false`).
    #[must_use]
    pub fn fast_tracer(mut self, fast: bool) -> Self {
        self.config.fast_tracer = fast;
        self
    }

    /// How many ranks to trace per training core count (default `1`).
    #[must_use]
    pub fn ranks_per_count(mut self, n: u32) -> Self {
        self.config.ranks_per_count = n;
        self
    }

    /// Whether the convolution stage attributes the critical path of its
    /// profiling simulation (default `true`).
    #[must_use]
    pub fn critical_path(mut self, enabled: bool) -> Self {
        self.config.critical_path = enabled;
        self
    }

    /// Every core count to sweep (default: just the constructor's target).
    /// The list must start with the constructor's target;
    /// [`PipelineConfig::resolve`] rejects one that does not.
    #[must_use]
    pub fn targets(mut self, targets: Vec<u32>) -> Self {
        self.config.targets = targets;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PipelineConfig {
        self.config
    }
}

/// Object-safe bundle of the two app capabilities the pipeline needs:
/// the SPMD program (for tracing) and the communication profile (for the
/// convolution).
pub trait PipelineApp {
    /// The traceable SPMD application.
    fn spmd(&self) -> &dyn SpmdApp;
    /// The MPI-profiling pass at `nranks` on the profiling network,
    /// reporting into an explicit observability context.
    fn comm_obs(&self, nranks: u32, obs: &ObsContext) -> CommProfile;
    /// The MPI-profiling pass at `nranks`, additionally attributing the
    /// critical path of the profiling simulation. The profile is
    /// bit-identical to [`PipelineApp::comm_obs`] — attribution is a
    /// read-only observer.
    fn comm_attr_obs(
        &self,
        nranks: u32,
        obs: &ObsContext,
    ) -> (CommProfile, Option<CriticalPathReport>);
}

impl<T: SpmdApp> PipelineApp for T {
    fn spmd(&self) -> &dyn SpmdApp {
        self
    }
    fn comm_obs(&self, nranks: u32, obs: &ObsContext) -> CommProfile {
        xtrace_spmd::profile(self, nranks, &profiling_net(), obs)
    }
    fn comm_attr_obs(
        &self,
        nranks: u32,
        obs: &ObsContext,
    ) -> (CommProfile, Option<CriticalPathReport>) {
        let (profile, critical) =
            xtrace_spmd::profile_attributed(self, nranks, &profiling_net(), obs);
        (profile, Some(critical))
    }
}

/// Resolved pipeline inputs: the config plus everything constructed from
/// it. Stages receive this immutably.
pub struct PipelineCtx {
    /// The originating configuration.
    pub config: PipelineConfig,
    /// [`PipelineConfig::config_hash`] of `config`, precomputed.
    pub config_hash: String,
    /// [`PipelineConfig::prefix_hash`] of `config`, precomputed — the
    /// artifact-store namespace shared across targets.
    pub prefix_hash: String,
    /// The proxy application. `Send + Sync` so a sweep can fan the
    /// target-dependent pipeline tail out across the rayon pool.
    pub app: Box<dyn PipelineApp + Send + Sync>,
    /// The target machine profile.
    pub machine: MachineProfile,
    /// Tracer sampling parameters.
    pub tracer: TracerConfig,
    /// Fitting parameters.
    pub extrap: ExtrapolationConfig,
    /// Artifact store for resume-as-cache-hit, when attached.
    pub store: Option<crate::store::ArtifactStore>,
    /// The run's observability context. Stages emit metrics, journal
    /// events, and spans through this handle — never through any
    /// process-global state — so concurrent runs in one process stay isolated.
    pub obs: ObsContext,
}

impl std::fmt::Debug for PipelineCtx {
    // Not derivable: `app` is a trait object.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineCtx")
            .field("config", &self.config)
            .field("config_hash", &self.config_hash)
            .field("prefix_hash", &self.prefix_hash)
            .field("app", &self.app.spmd().name())
            .field("machine", &self.machine.name)
            .field("tracer", &self.tracer)
            .field("extrap", &self.extrap)
            .field("store", &self.store)
            .field("obs", &self.obs)
            .finish()
    }
}

/// The SPECFEM3D tiny-scale configuration shared by the golden pipeline
/// test and quick CLI runs: a few thousand elements, ten timesteps.
fn tiny_specfem() -> SpecfemProxy {
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 6144;
    app.cfg.timesteps = 10;
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 500_000;
    app
}

/// UH3D at tiny scale (matching the integration-test configuration).
fn tiny_uh3d() -> Uh3dProxy {
    let mut app = Uh3dProxy::small();
    app.cfg.total_particles = 1 << 14;
    app.cfg.grid_cells = 1 << 13;
    app.cfg.sort_base = 512;
    app
}

/// Builds a proxy application by name and scale.
pub fn make_app(name: &str, scale: &str) -> Result<Box<dyn PipelineApp + Send + Sync>> {
    match scale {
        "tiny" | "small" | "paper" => {}
        other => {
            return Err(XtraceError::Usage(format!(
                "unknown --scale {other:?} (tiny|small|paper)"
            )))
        }
    }
    match name {
        "specfem3d" | "specfem3d-proxy" => Ok(match scale {
            "tiny" => Box::new(tiny_specfem()),
            "paper" => Box::new(SpecfemProxy::paper_scale()),
            _ => Box::new(SpecfemProxy::small()),
        }),
        "uh3d" | "uh3d-proxy" => Ok(match scale {
            "tiny" => Box::new(tiny_uh3d()),
            "paper" => Box::new(Uh3dProxy::paper_scale()),
            _ => Box::new(Uh3dProxy::small()),
        }),
        "stencil3d" | "stencil3d-proxy" => Ok(match scale {
            "paper" => Box::new(StencilProxy::medium()),
            _ => Box::new(StencilProxy::small()),
        }),
        other => Err(XtraceError::Usage(format!(
            "unknown application {other:?} (specfem3d | uh3d | stencil3d)"
        ))),
    }
}

/// Resolves a machine: a `.json` path is loaded as an exported
/// [`xtrace_machine::MachineProfileSpec`]; anything else is looked up in
/// the presets.
pub fn make_machine(name: &str) -> Result<MachineProfile> {
    if name.ends_with(".json") {
        let s = std::fs::read_to_string(name).map_err(|e| {
            XtraceError::Io(xtrace_tracer::IoError::Io {
                path: name.into(),
                source: e,
            })
        })?;
        let spec: xtrace_machine::MachineProfileSpec = serde_json::from_str(&s).map_err(|e| {
            XtraceError::Io(xtrace_tracer::IoError::Parse {
                path: name.into(),
                message: e.to_string(),
            })
        })?;
        return Ok(MachineProfile::from_spec(spec)?);
    }
    presets::by_name(name).ok_or_else(|| {
        let names: Vec<String> = presets::all().into_iter().map(|m| m.name).collect();
        XtraceError::Usage(format!(
            "unknown machine {name:?}; available: {}",
            names.join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PipelineConfig {
        PipelineConfig::new("stencil3d", "opteron", vec![2, 4, 8], 32)
    }

    #[test]
    fn config_hash_is_stable_and_field_sensitive() {
        let a = cfg();
        assert_eq!(a.config_hash(), a.config_hash());
        assert_eq!(a.config_hash().len(), 16);
        let mut b = cfg();
        b.target = 64;
        assert_ne!(a.config_hash(), b.config_hash());
        let mut c = cfg();
        c.forms = FormSet::Extended;
        assert_ne!(a.config_hash(), c.config_hash());
    }

    #[test]
    fn builder_matches_new_and_overrides_defaults() {
        let built = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32).build();
        assert_eq!(built, cfg());
        assert_eq!(built.config_hash(), cfg().config_hash());

        let custom = PipelineConfig::builder("uh3d", "cray-xt5", vec![4, 8], 64)
            .scale("tiny")
            .forms(FormSet::Extended)
            .validate(false)
            .fast_tracer(true)
            .build();
        assert_eq!(custom.scale, "tiny");
        assert_eq!(custom.forms, FormSet::Extended);
        assert!(!custom.validate);
        assert!(custom.fast_tracer);
        custom.resolve().expect("builder output resolves");
    }

    #[test]
    fn ranks_per_count_defaults_hashes_and_validates() {
        let base = cfg();
        assert_eq!(base.ranks_per_count, 1);

        let wide = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
            .ranks_per_count(64)
            .build();
        assert_eq!(wide.ranks_per_count, 64);
        assert_ne!(base.config_hash(), wide.config_hash());
        wide.resolve().expect("wide config resolves");

        let mut bad = cfg();
        bad.ranks_per_count = 0;
        let err = bad.resolve().unwrap_err();
        assert!(err.to_string().contains("ranks-per-count"), "{err}");
    }

    #[test]
    fn target_list_hashes_and_validates() {
        // One-entry sweep ≡ plain single-target config, hash included.
        let single = cfg();
        let one = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
            .targets(vec![32])
            .build();
        assert_eq!(one.target, 32);
        assert_eq!(one.config_hash(), single.config_hash());
        assert_eq!(one.effective_targets(), vec![32]);
        one.resolve().expect("one-target sweep resolves");

        // Multi-target: distinct full hash, shared prefix hash, target
        // pinned to the first entry.
        let sweep = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
            .targets(vec![32, 64, 128])
            .build();
        assert_eq!(sweep.target, 32);
        assert_eq!(sweep.effective_targets(), vec![32, 64, 128]);
        assert_ne!(sweep.config_hash(), single.config_hash());
        assert_eq!(sweep.prefix_hash(), single.prefix_hash());
        sweep.resolve().expect("sweep resolves");

        // Restriction to one target reproduces the standalone config.
        assert_eq!(sweep.for_target(64).effective_targets(), vec![64]);
        let mut standalone = cfg();
        standalone.target = 64;
        assert_eq!(sweep.for_target(64).config_hash(), standalone.config_hash());

        // Duplicates, de-synced first entry, and too-low targets all fail.
        let mut bad = sweep.clone();
        bad.targets = vec![32, 64, 64];
        assert!(bad.resolve().unwrap_err().to_string().contains("duplicate"));
        let mut bad = sweep.clone();
        bad.target = 64;
        assert!(bad.resolve().unwrap_err().to_string().contains("first"));
        let mut bad = sweep;
        bad.targets = vec![32, 8];
        bad.target = 32;
        assert!(bad.resolve().unwrap_err().to_string().contains("below"));
    }

    #[test]
    fn prefix_hash_ignores_target_and_validate_only() {
        let base = cfg();
        let mut t = cfg();
        t.target = 64;
        let mut v = cfg();
        v.validate = false;
        assert_eq!(base.prefix_hash(), t.prefix_hash());
        assert_eq!(base.prefix_hash(), v.prefix_hash());
        assert_ne!(base.config_hash(), t.config_hash());

        // Every prefix field moves the prefix hash.
        let mut c = cfg();
        c.scale = "tiny".into();
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.training = vec![2, 4, 16];
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.forms = FormSet::Extended;
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.fast_tracer = true;
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.ranks_per_count = 4;
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.machine = "cray-xt5".into();
        assert_ne!(base.prefix_hash(), c.prefix_hash());
        let mut c = cfg();
        c.app = "uh3d".into();
        assert_ne!(base.prefix_hash(), c.prefix_hash());
    }

    #[test]
    fn resolve_validates_training_counts() {
        let mut bad = cfg();
        bad.training = vec![2];
        assert!(matches!(bad.resolve().unwrap_err(), XtraceError::Usage(_)));
        let mut bad = cfg();
        bad.training = vec![2, 32];
        let err = bad.resolve().unwrap_err();
        assert!(err.to_string().contains("below the target"), "{err}");
    }

    #[test]
    fn resolve_rejects_unknown_names_as_usage_errors() {
        let mut bad = cfg();
        bad.app = "lammps".into();
        let err = bad.resolve().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_USAGE);
        assert!(err.to_string().contains("unknown application"));

        let mut bad = cfg();
        bad.machine = "cray-xt9".into();
        let err = bad.resolve().unwrap_err();
        assert!(err.to_string().contains("unknown machine"));
        assert!(err.to_string().contains("cray-xt5"), "suggests valid names");

        let mut bad = cfg();
        bad.scale = "huge".into();
        assert!(bad.resolve().is_err());
    }

    #[test]
    fn every_scale_resolves_for_every_app() {
        for app in ["specfem3d", "uh3d", "stencil3d"] {
            for scale in ["tiny", "small", "paper"] {
                let mut c = cfg();
                c.app = app.into();
                c.scale = scale.into();
                let ctx = c.resolve().expect("resolves");
                assert!(!ctx.app.spmd().name().is_empty());
            }
        }
    }
}
