//! # xtrace-core — the staged pipeline engine
//!
//! The crates below this one each own a slice of the paper's methodology
//! (signature collection, canonical-form fitting, convolution); this crate
//! owns the *run*: one typed engine that executes the Figure-2 flow
//!
//! ```text
//! Collect ──> Fit ──> Synthesize ──> Convolve ──> Validate
//! ```
//!
//! end to end, with a unified error model, per-stage timing and progress
//! hooks, and a content-addressed artifact store that makes re-running an
//! identical configuration a cache hit instead of a recomputation.
//!
//! * [`error`] — [`XtraceError`] wraps every lower-layer typed error and
//!   maps each failure class onto a CLI exit code ([`EXIT_USAGE`],
//!   [`EXIT_IO`], [`EXIT_MODEL`]).
//! * [`config`] — [`PipelineConfig`] subsumes the scattered flag soup into
//!   one value with a stable [fingerprint](PipelineConfig::config_hash).
//! * [`stage`] — the [`StageKind`] vocabulary, the Collect and Validate
//!   kernels, and the [`StageObserver`] progress hook.
//! * [`store`] — the versioned [`ArtifactStore`], keyed by config hash,
//!   reusing `xtrace-tracer`'s trace codecs: one file layer under one
//!   in-memory map shared by concurrent sessions.
//! * [`pipeline`] — the [`Pipeline`] engine, one stage-major path for
//!   one target or many, and its [`PipelineReport`] / [`SweepReport`].
//! * [`engine`] — the multi-client [`XtraceEngine`]: one shared store,
//!   per-run scoped [`xtrace_obs::ObsContext`]s, and request coalescing
//!   of identical in-flight configs.
//!
//! ## Use as a library
//!
//! ```
//! use xtrace_core::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
//!     .fast_tracer(true) // light sampling so the doctest stays quick
//!     .validate(false)   // skip the expensive target-scale collection
//!     .build();
//! let report = Pipeline::new(cfg)?.run()?;
//! assert!(report.prediction.total_seconds > 0.0);
//! assert_eq!(report.extrapolated.nranks, 32);
//! # Ok::<(), xtrace_core::XtraceError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod pipeline;
pub mod stage;
pub mod store;

pub use config::{
    make_app, make_machine, FormSet, PipelineApp, PipelineConfig, PipelineConfigBuilder,
    PipelineCtx,
};
pub use engine::{EngineOutcome, SweepOutcome, XtraceEngine};
pub use error::{Result, XtraceError, EXIT_IO, EXIT_MODEL, EXIT_USAGE};
pub use pipeline::{Pipeline, PipelineReport, PredictionRow, StageTiming, SweepReport, Validation};
pub use stage::{
    // The stage vocabulary and the progress hook; the Collect and Validate
    // kernels are private to the engine.
    NullObserver,
    StageKind,
    StageObserver,
};
pub use store::{ArtifactStore, CacheStats, STORE_FORMAT, STORE_VERSION};
