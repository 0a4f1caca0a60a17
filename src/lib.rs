//! # xtrace — inferring large-scale computation behavior via trace
//! # extrapolation
//!
//! A Rust reproduction of Carrington, Laurenzano & Tiwari, *"Inferring
//! Large-scale Computation Behavior via Trace Extrapolation"* (IPDPSW 2013):
//! collect application signatures (per-basic-block feature vectors) at a
//! series of small core counts, fit each feature element with the best of a
//! set of canonical functions of the core count, synthesize the signature at
//! a large core count, and feed it to a PMaC-style convolution to predict
//! full-scale runtime — without ever tracing at full scale.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ir`] — program representation and address-stream generation (the
//!   binary-instrumentation analog),
//! * [`cache`] — target-system cache hierarchy simulation,
//! * [`spmd`] — SPMD/MPI message-passing simulation and profiling,
//! * [`machine`] — machine profiles and the MultiMAPS bandwidth surface,
//! * [`apps`] — strong-scaling proxy applications (SPECFEM3D / UH3D
//!   analogs),
//! * [`tracer`] — execution-driven application-signature collection,
//! * [`psins`] — the convolution/replay simulator and execution-driven
//!   ground truth,
//! * [`extrap`] — the paper's contribution: canonical-form fitting and
//!   trace extrapolation,
//! * [`core`] — the staged pipeline engine: typed Collect → Fit →
//!   Synthesize → Convolve → Validate stages, the unified
//!   [`core::XtraceError`] model, and the content-addressed artifact
//!   store that makes identical re-runs resume as cache hits,
//! * [`obs`] — the structured observability layer: spans, counters,
//!   histograms, and snapshot exporters, wired through every stage and
//!   hot kernel (zero-cost when no recorder is installed),
//! * [`serve`] — the prediction-as-a-service daemon: a versioned
//!   JSON-over-HTTP wire API (`/v1/predict`, `/v1/sweep`) in front of
//!   the session engine, with admission control and graceful drain.
//!
//! ## Quickstart
//!
//! ```
//! use xtrace::apps::{profiling_net, SpecfemProxy};
//! use xtrace::extrap::{ExtrapolationConfig, extrapolate_signature};
//! use xtrace::machine::presets;
//! use xtrace::obs::ObsContext;
//! use xtrace::psins::try_predict_runtime;
//! use xtrace::spmd::profile;
//! use xtrace::tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};
//!
//! // A small problem so the doctest runs quickly.
//! let app = SpecfemProxy::small();
//! let machine = presets::bluewaters_phase1();
//! let obs = ObsContext::disabled();
//!
//! // 1. Trace the most computationally demanding task at three small core
//! //    counts (instead of the expensive large count). One memo across the
//! //    counts reuses identical block simulations.
//! let (tracer, memo) = (TracerConfig::default(), SigMemo::new());
//! let training: Vec<_> = [8u32, 16, 32]
//!     .iter()
//!     .map(|&p| {
//!         let sig = collect_signature_memo_obs(&app, p, &machine, &tracer, &memo, &obs);
//!         sig.longest_task().clone()
//!     })
//!     .collect();
//!
//! // 2. Extrapolate the signature to 128 cores.
//! let cfg = ExtrapolationConfig::default();
//! let extrapolated = extrapolate_signature(&training, 128, &cfg).unwrap();
//!
//! // 3. Profile communication at 128 cores and predict full-scale runtime
//! //    from the synthetic trace.
//! let comm = profile(&app, 128, &profiling_net(), &obs);
//! let prediction = try_predict_runtime(&extrapolated, &comm, &machine).unwrap();
//! assert!(prediction.total_seconds > 0.0);
//! ```

pub use xtrace_apps as apps;
pub use xtrace_cache as cache;
pub use xtrace_core as core;
pub use xtrace_extrap as extrap;
pub use xtrace_ir as ir;
pub use xtrace_machine as machine;
pub use xtrace_obs as obs;
pub use xtrace_psins as psins;
pub use xtrace_serve as serve;
pub use xtrace_spmd as spmd;
pub use xtrace_tracer as tracer;
