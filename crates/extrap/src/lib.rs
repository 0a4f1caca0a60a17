//! # xtrace-extrap — trace extrapolation (the paper's contribution)
//!
//! "The methodology finds the best statistical fit from among a set of
//! canonical functions in terms of how a set of features … change across a
//! series of small core counts. The statistical models for each of these
//! application features can then be utilized to generate an extrapolated
//! trace of the application at scale."
//!
//! Concretely (Section IV):
//!
//! * every element of every instruction's feature vector is treated as an
//!   independent scalar series over the training core counts;
//! * four canonical forms — **constant, linear, exponential, logarithmic**
//!   — are least-squares-fitted to each series ([`fit`]);
//! * the best fit (by residual) is evaluated at the target core count to
//!   synthesize the element ([`extrapolate`]);
//! * three training core counts "generally provided adequate accuracy";
//! * elements are *influential* when their instruction carries more than
//!   0.1% of the task's memory operations (FP operations for memory-free
//!   instructions); the paper reports <20% element error for all
//!   influential instructions ([`analysis`]).
//!
//! The Section-VI future-work items are implemented as options: polynomial
//! and power canonical forms ([`forms::CanonicalForm::EXTENDED_SET`]), an
//! AICc selection criterion, and k-means clustering of MPI tasks for
//! whole-signature extrapolation ([`cluster`]).

#![warn(missing_docs)]

pub mod analysis;
pub mod cluster;
pub mod extrapolate;
pub mod fit;
pub mod forms;
pub mod report;
pub mod synth;

pub use analysis::{element_errors, summarize, ElementError, ErrorSummary};
pub use cluster::{cluster_tasks, extrapolate_clusters, Clustering};
pub use extrapolate::{
    diagnose_fit, extrapolate_series, extrapolate_signature, fit_signature_candidates_obs,
    fit_signature_obs, parallel_fit_enabled, synthesize_from_fit, BlockCandidates, BlockModels,
    ElementCandidates, ElementFit, ExtrapolationConfig, ExtrapolationError, SignatureCandidates,
    SignatureFit, MIN_PAR_FIT_ELEMENTS,
};
pub use fit::{
    fit_all, fit_form, select_best, select_best_from, select_best_guarded, SelectionCriterion,
};
pub use forms::{CanonicalForm, FittedModel};
pub use report::FitReport;
pub use synth::{synthesize_full_signature, SignatureGroup, SyntheticSignature};
