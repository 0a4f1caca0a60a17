//! Energy prediction from application signatures.
//!
//! The paper's opening move is that its features are "important for both
//! performance and energy"; the PMaC publications around it (Laurenzano et
//! al., Euro-Par'11; Tiwari et al., HPPAC'12) convolve the same signatures
//! with per-operation energy costs. This module does that: dynamic energy
//! from the per-instruction operation counts and hit rates (references
//! apportioned to the exact level that served them), static energy from the
//! predicted runtime, network energy from the communication profile.
//!
//! Because the inputs are exactly the feature-vector elements the
//! extrapolator synthesizes, *energy at scale* can be predicted from an
//! extrapolated trace the same way runtime is — tested below.

use serde::{Deserialize, Serialize};
use xtrace_machine::MachineProfile;
use xtrace_spmd::{CommKind, CommProfile};
use xtrace_tracer::TaskTrace;

use crate::predict::predict_checked;
use crate::{try_check_machine, PredictError};

/// A predicted energy budget for the traced task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyPrediction {
    /// Dynamic energy of memory references, in joules.
    pub memory_joules: f64,
    /// Dynamic energy of floating-point work, in joules.
    pub fp_joules: f64,
    /// Network-interface energy, in joules.
    pub comm_joules: f64,
    /// Static (leakage/idle) energy over the predicted runtime, in joules.
    pub static_joules: f64,
    /// Total energy, in joules.
    pub total_joules: f64,
    /// Implied average power (total energy / predicted runtime), in watts.
    pub avg_watts: f64,
    /// The runtime prediction the static component integrates over.
    pub runtime_seconds: f64,
}

/// Bytes a task pushes onto the network per the communication profile.
fn comm_bytes(comm: &CommProfile) -> f64 {
    comm.events
        .iter()
        .map(|e| {
            let per = match e.kind {
                CommKind::Exchange => e.bytes * u64::from(e.neighbors),
                // Tree collectives: one payload per tree stage.
                CommKind::Allreduce => {
                    e.bytes * 2 * u64::from(xtrace_spmd::NetworkModel::tree_depth(comm.nranks))
                }
                CommKind::Broadcast => {
                    e.bytes * u64::from(xtrace_spmd::NetworkModel::tree_depth(comm.nranks))
                }
                CommKind::Alltoall => e.bytes * u64::from(comm.nranks.saturating_sub(1)),
                CommKind::Barrier => 0,
            };
            (per * e.repeats) as f64
        })
        .sum()
}

/// Predicts the traced task's energy on `machine` (works identically for
/// collected and extrapolated traces).
///
/// Fails with [`PredictError::MachineMismatch`] if the trace was simulated
/// against a different machine than `machine`.
pub fn try_predict_energy(
    trace: &TaskTrace,
    comm: &CommProfile,
    machine: &MachineProfile,
) -> Result<EnergyPrediction, PredictError> {
    try_check_machine(trace, machine)?;
    Ok(energy_checked(trace, comm, machine))
}

/// Energy model over a trace already known to match `machine`.
fn energy_checked(
    trace: &TaskTrace,
    comm: &CommProfile,
    machine: &MachineProfile,
) -> EnergyPrediction {
    let power = &machine.power;
    let mut memory_joules = 0.0;
    let mut fp_joules = 0.0;
    for block in &trace.blocks {
        for instr in &block.instrs {
            let f = &instr.features;
            if f.mem_ops > 0.0 {
                memory_joules +=
                    power.memory_joules(f.mem_ops, &f.hit_rates[..trace.depth], trace.depth);
            }
            // FLOPs: FMA counts double.
            let flops = f.fp_add + f.fp_mul + f.fp_div + f.fp_sqrt + 2.0 * f.fp_fma;
            fp_joules += power.fp_joules(flops);
        }
    }
    let runtime = predict_checked(trace, comm, machine).total_seconds;
    let comm_joules = power.net_joules(comm_bytes(comm));
    let static_joules = power.static_joules(runtime);
    let total = memory_joules + fp_joules + comm_joules + static_joules;
    EnergyPrediction {
        memory_joules,
        fp_joules,
        comm_joules,
        static_joules,
        total_joules: total,
        avg_watts: if runtime > 0.0 { total / runtime } else { 0.0 },
        runtime_seconds: runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_apps::{profiling_net, SpecfemProxy, StencilProxy};
    use xtrace_extrap::{extrapolate_signature, ExtrapolationConfig};
    use xtrace_machine::presets;
    use xtrace_obs::ObsContext;
    use xtrace_tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

    fn stencil_energy(p: u32) -> EnergyPrediction {
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
        try_predict_energy(sig.longest_task(), &sig.comm, &machine).expect("machine matches")
    }

    #[test]
    fn energy_decomposes_and_is_positive() {
        let e = stencil_energy(8);
        assert!(e.memory_joules > 0.0);
        assert!(e.fp_joules > 0.0);
        assert!(e.comm_joules > 0.0);
        assert!(e.static_joules > 0.0);
        let sum = e.memory_joules + e.fp_joules + e.comm_joules + e.static_joules;
        assert!((e.total_joules - sum).abs() < 1e-12);
        assert!(e.avg_watts > 0.0);
    }

    #[test]
    fn average_power_exceeds_the_static_floor() {
        let e = stencil_energy(8);
        let machine = presets::cray_xt5();
        assert!(e.avg_watts > machine.power.static_watts);
        // ... but stays within an order of magnitude of it (sanity).
        assert!(e.avg_watts < 100.0 * machine.power.static_watts);
    }

    #[test]
    fn strong_scaling_cuts_per_task_energy() {
        let e4 = stencil_energy(4);
        let e16 = stencil_energy(16);
        assert!(e16.total_joules < e4.total_joules);
    }

    #[test]
    fn extrapolated_energy_matches_collected_energy() {
        let obs = ObsContext::disabled();
        // The headline extension: energy at scale from the synthetic trace.
        let mut app = SpecfemProxy::small();
        app.cfg.total_elements = 6144;
        app.cfg.timesteps = 10;
        app.cfg.collect_per_rank = 4096;
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let training: Vec<_> = [6u32, 24, 96]
            .iter()
            .map(|&p| {
                collect_signature_memo_obs(&app, p, &machine, &cfg, &SigMemo::new(), &obs)
                    .longest_task()
                    .clone()
            })
            .collect();
        let ex = extrapolate_signature(&training, 384, &ExtrapolationConfig::default()).unwrap();
        let coll = collect_signature_memo_obs(&app, 384, &machine, &cfg, &SigMemo::new(), &obs);
        let comm = xtrace_spmd::profile(&app, 384, &profiling_net(), &obs);
        let e_ex = try_predict_energy(&ex, &comm, &machine).expect("machine matches");
        let e_coll =
            try_predict_energy(coll.longest_task(), &coll.comm, &machine).expect("machine matches");
        let gap = (e_ex.total_joules - e_coll.total_joules).abs() / e_coll.total_joules;
        assert!(
            gap < 0.05,
            "extrapolated {} J vs collected {} J (gap {gap})",
            e_ex.total_joules,
            e_coll.total_joules
        );
    }

    #[test]
    fn worse_locality_costs_more_energy() {
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
            try_predict_energy(sig.longest_task(), &sig.comm, &machine).expect("machine matches");
        let mut degraded = sig.longest_task().clone();
        for b in &mut degraded.blocks {
            for i in &mut b.instrs {
                for h in i.features.hit_rates.iter_mut().take(degraded.depth) {
                    *h *= 0.2;
                }
            }
        }
        let worse = try_predict_energy(&degraded, &sig.comm, &machine).expect("machine matches");
        assert!(worse.memory_joules > 3.0 * base.memory_joules);
    }
}
