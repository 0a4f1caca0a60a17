//! # xtrace-psins — convolution and ground-truth simulation
//!
//! The PMaC convolution "maps the operations required by the application
//! (the application signature) to their expected behavior on the target
//! machine (the machine profile)"; the PSiNS simulator "replays the entire
//! execution of the HPC application on the target/predicted system in order
//! to calculate a predicted runtime" (Section III). This crate provides
//! both that prediction path and the independent "measured" number Table I
//! compares against:
//!
//! * [`predict::try_predict_runtime`] — Eq. (1): per-instruction memory time
//!   from operation counts, reference sizes, and MultiMAPS-surface
//!   bandwidth looked up by cache hit rates; floating-point time from the
//!   machine's arithmetic rates; per-block overlap combining; communication
//!   replayed through the network model. Consumes a [`TaskTrace`] — either
//!   collected or extrapolated, which is the entire point.
//! * [`ground_truth::ground_truth`] — the execution-driven stand-in for
//!   wall-clock measurement: the same rank's address streams are charged
//!   *exact per-access* costs (level latency, streaming prefetch, store
//!   penalty) instead of surface-bucketed bandwidths. The gap between
//!   prediction and ground truth is genuine modeling error — the surface
//!   cannot distinguish miss *patterns* with equal hit rates — mirroring
//!   the few-percent errors the real framework reports.

#![warn(missing_docs)]

pub mod energy;
pub mod ground_truth;
pub mod predict;
pub mod replay;

pub use energy::{try_predict_energy, EnergyPrediction};
pub use ground_truth::{ground_truth, ground_truth_for_rank, GroundTruth};
pub use predict::{try_predict_runtime, BlockTime, Prediction};
pub use replay::{
    ground_truth_application, try_replay_groups, try_replay_groups_traced, GroupComputeModel,
};

use xtrace_tracer::TaskTrace;

/// Why a prediction could not be computed.
#[derive(Clone, PartialEq)]
#[non_exhaustive]
pub enum PredictError {
    /// The trace's simulated hierarchy does not match the profile the
    /// prediction was asked against — its hit rates would be meaningless.
    MachineMismatch {
        /// Machine the trace was collected against.
        trace_machine: String,
        /// Machine the prediction was requested for.
        profile_machine: String,
    },
    /// Signature groups cover fewer ranks than the replay needs.
    GroupCoverage {
        /// Ranks the groups cover.
        covered: u64,
        /// Ranks the replay was asked for.
        needed: u64,
    },
    /// The bulk-synchronous replay itself failed (malformed rank programs,
    /// an SPMD violation, or a bad neighbor list).
    Simulation {
        /// The engine's error description.
        detail: String,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::MachineMismatch {
                trace_machine,
                profile_machine,
            } => write!(
                f,
                "trace was collected against {trace_machine:?}, not {profile_machine:?}"
            ),
            PredictError::GroupCoverage { covered, needed } => {
                write!(f, "groups cover {covered} ranks, need {needed}")
            }
            PredictError::Simulation { detail } => {
                write!(f, "replay simulation failed: {detail}")
            }
        }
    }
}

// Debug delegates to Display so `.expect(...)` panics in the panicking
// wrappers carry the human-readable message (and the substrings the
// long-standing `#[should_panic(expected = ...)]` tests assert on).
impl std::fmt::Debug for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for PredictError {}

/// Convenience: absolute relative error between a prediction and a
/// reference runtime, as reported in the paper's Table I.
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    assert!(measured > 0.0, "measured runtime must be positive");
    (predicted - measured).abs() / measured
}

/// Shared helper: the per-block FP time of a trace block on a machine.
pub(crate) fn block_fp_seconds(
    block: &xtrace_tracer::BlockRecord,
    machine: &xtrace_machine::MachineProfile,
) -> f64 {
    let mut adds = 0.0f64;
    let mut muls = 0.0f64;
    let mut divs = 0.0f64;
    let mut sqrts = 0.0f64;
    let mut fmas = 0.0f64;
    let mut ilp = 1.0f64;
    for i in &block.instrs {
        adds += i.features.fp_add;
        muls += i.features.fp_mul;
        divs += i.features.fp_div;
        sqrts += i.features.fp_sqrt;
        fmas += i.features.fp_fma;
        ilp = ilp.max(i.features.ilp);
    }
    machine.fp.seconds(
        adds as u64,
        muls as u64,
        divs as u64,
        sqrts as u64,
        fmas as u64,
        ilp,
        machine.clock_hz,
    )
}

/// Shared helper: typed check that a trace was simulated against the given
/// machine.
pub(crate) fn try_check_machine(
    trace: &TaskTrace,
    machine: &xtrace_machine::MachineProfile,
) -> Result<(), PredictError> {
    if trace.machine == machine.name {
        Ok(())
    } else {
        Err(PredictError::MachineMismatch {
            trace_machine: trace.machine.clone(),
            profile_machine: machine.name.clone(),
        })
    }
}
