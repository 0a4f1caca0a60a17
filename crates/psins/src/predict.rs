//! The prediction path: Eq. (1) over a trace and a machine profile.
//!
//! ```text
//! memory_time = Σ_blocks Σ_refs (memory_ref[i,j] × size_of_ref) / memory_BW[j]
//! ```
//!
//! where a reference's "type" `j` — its place on the MultiMAPS surface —
//! is determined by its simulated cache hit rates. Floating-point time is
//! modeled "in a similar way with some overlap of memory and
//! floating-point work" (Section III-B): each block's memory and FP times
//! are combined with the machine's overlap factor, blocks are summed, and
//! the communication profile is replayed through the network model.

use serde::{Deserialize, Serialize};
use xtrace_machine::MachineProfile;
use xtrace_spmd::CommProfile;
use xtrace_tracer::TaskTrace;

use crate::{block_fp_seconds, try_check_machine, PredictError};

/// Per-block time breakdown of a prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockTime {
    /// Block name.
    pub name: String,
    /// Eq. (1) memory time in seconds.
    pub memory_s: f64,
    /// Floating-point time in seconds.
    pub fp_s: f64,
    /// Overlap-combined block time.
    pub combined_s: f64,
}

/// A predicted application runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Total memory time across blocks.
    pub memory_seconds: f64,
    /// Total FP time across blocks.
    pub fp_seconds: f64,
    /// Overlap-combined computation time.
    pub compute_seconds: f64,
    /// Replayed communication time.
    pub comm_seconds: f64,
    /// Predicted application runtime (compute + communication).
    pub total_seconds: f64,
    /// Per-block breakdown, in trace order.
    pub per_block: Vec<BlockTime>,
}

/// Predicts the application runtime from a task trace (collected *or*
/// extrapolated), the communication profile, and a machine profile.
///
/// Fails with [`PredictError::MachineMismatch`] if the trace was simulated
/// against a different machine than `machine` (the hit rates would be
/// meaningless on another hierarchy).
pub fn try_predict_runtime(
    trace: &TaskTrace,
    comm: &CommProfile,
    machine: &MachineProfile,
) -> Result<Prediction, PredictError> {
    try_check_machine(trace, machine)?;
    Ok(predict_checked(trace, comm, machine))
}

/// Eq. (1) over a trace already known to match `machine`.
pub(crate) fn predict_checked(
    trace: &TaskTrace,
    comm: &CommProfile,
    machine: &MachineProfile,
) -> Prediction {
    let surface = machine.surface();
    let mut per_block = Vec::with_capacity(trace.blocks.len());
    let mut memory_seconds = 0.0;
    let mut fp_seconds = 0.0;
    let mut compute_seconds = 0.0;

    for block in &trace.blocks {
        let mut mem_s = 0.0;
        for instr in &block.instrs {
            let f = &instr.features;
            if f.mem_ops > 0.0 {
                // The reference "type": hit rates plus access-pattern class
                // select the MultiMAPS bandwidth (Section III-B).
                let streaming = instr.pattern != "random";
                let bw = surface.lookup_class(&f.hit_rates[..trace.depth], streaming);
                debug_assert!(bw > 0.0, "surface bandwidth must be positive");
                let mut t = f.mem_ops * f.bytes_per_ref / bw;
                // Stores carry the machine's write-allocate surcharge on
                // top of the (load-measured) surface bandwidth.
                if f.stores > 0.0 {
                    let store_frac = f.stores / f.mem_ops;
                    t *= 1.0 + store_frac * (machine.mem_cost.store_penalty - 1.0);
                }
                mem_s += t;
            }
        }
        let fp_s = block_fp_seconds(block, machine);
        let combined = machine.combine_times(mem_s, fp_s);
        memory_seconds += mem_s;
        fp_seconds += fp_s;
        compute_seconds += combined;
        per_block.push(BlockTime {
            name: block.name.clone(),
            memory_s: mem_s,
            fp_s,
            combined_s: combined,
        });
    }

    let comm_seconds = comm.comm_seconds(&machine.net);
    Prediction {
        memory_seconds,
        fp_seconds,
        compute_seconds,
        comm_seconds,
        total_seconds: compute_seconds + comm_seconds,
        per_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_apps::StencilProxy;
    use xtrace_machine::presets;
    use xtrace_obs::ObsContext;
    use xtrace_tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

    fn predict_stencil(p: u32) -> Prediction {
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let sig = collect_signature_memo_obs(
            &app,
            p,
            &machine,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        try_predict_runtime(sig.longest_task(), &sig.comm, &machine).expect("machine matches")
    }

    #[test]
    fn prediction_is_positive_and_decomposes() {
        let pred = predict_stencil(4);
        assert!(pred.total_seconds > 0.0);
        assert!(pred.memory_seconds > 0.0);
        assert!(pred.fp_seconds > 0.0);
        assert!(pred.comm_seconds > 0.0);
        assert!((pred.total_seconds - pred.compute_seconds - pred.comm_seconds).abs() < 1e-12);
        // Overlap: combined compute within [max, sum] of the parts.
        assert!(pred.compute_seconds >= pred.memory_seconds.max(pred.fp_seconds) - 1e-12);
        assert!(pred.compute_seconds <= pred.memory_seconds + pred.fp_seconds + 1e-12);
    }

    #[test]
    fn per_block_breakdown_sums_to_totals() {
        let pred = predict_stencil(4);
        let mem: f64 = pred.per_block.iter().map(|b| b.memory_s).sum();
        let combined: f64 = pred.per_block.iter().map(|b| b.combined_s).sum();
        assert!((mem - pred.memory_seconds).abs() < 1e-9);
        assert!((combined - pred.compute_seconds).abs() < 1e-9);
        assert_eq!(pred.per_block.len(), 2, "stencil proxy has two blocks");
    }

    #[test]
    fn strong_scaling_reduces_predicted_compute() {
        let p4 = predict_stencil(4);
        let p16 = predict_stencil(16);
        assert!(
            p16.compute_seconds < p4.compute_seconds / 2.0,
            "4x cores should cut compute well below half: {} vs {}",
            p16.compute_seconds,
            p4.compute_seconds
        );
    }

    #[test]
    fn worse_locality_means_more_memory_time() {
        // Same counts, degraded hit rates -> strictly more memory time.
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let sig = collect_signature_memo_obs(
            &app,
            4,
            &machine,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let base =
            try_predict_runtime(sig.longest_task(), &sig.comm, &machine).expect("machine matches");
        let mut degraded = sig.longest_task().clone();
        for b in &mut degraded.blocks {
            for i in &mut b.instrs {
                for h in i.features.hit_rates.iter_mut().take(degraded.depth) {
                    *h *= 0.3;
                }
            }
        }
        let worse = try_predict_runtime(&degraded, &sig.comm, &machine).expect("machine matches");
        assert!(worse.memory_seconds > 2.0 * base.memory_seconds);
    }

    #[test]
    fn wrong_machine_is_a_typed_error() {
        let app = StencilProxy::small();
        let xt5 = presets::cray_xt5();
        let sig = collect_signature_memo_obs(
            &app,
            2,
            &xt5,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let other = presets::opteron();
        let err = try_predict_runtime(sig.longest_task(), &sig.comm, &other).unwrap_err();
        assert_eq!(
            err,
            PredictError::MachineMismatch {
                trace_machine: xt5.name.clone(),
                profile_machine: other.name.clone(),
            }
        );
        assert!(err.to_string().contains("collected against"));
        // The matching case succeeds.
        try_predict_runtime(sig.longest_task(), &sig.comm, &xt5).unwrap();
    }

    #[test]
    fn relative_error_matches_definition() {
        assert!((crate::relative_error(139.0, 143.0) - 4.0 / 143.0).abs() < 1e-12);
        assert_eq!(crate::relative_error(100.0, 100.0), 0.0);
    }
}
