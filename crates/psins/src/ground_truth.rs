//! Execution-driven ground truth: the reproduction's "measured runtime".
//!
//! The paper validates predictions against wall-clock runs on real
//! hardware. Here the hardware *is* the parametric machine model, so the
//! measured number is obtained by actually executing the longest task's
//! address streams against the cache simulator and charging every access
//! its exact cost from [`xtrace_machine::MemoryCostModel`] — per-level
//! latency, streaming-prefetch discounts, store penalties. No MultiMAPS
//! surface, no hit-rate bucketing: this path sees information the
//! convolution deliberately discards, which is what makes the
//! prediction-vs-measured comparison meaningful.
//!
//! Streams are bit-identical to the tracer's (same seeds, same sampling
//! bounds), and sampled costs are scaled to full dynamic counts the same
//! way the tracer scales hit-rate estimation.

use serde::{Deserialize, Serialize};
use xtrace_cache::CacheHierarchy;
use xtrace_ir::AccessStream;
use xtrace_machine::{MachineProfile, PrefetchState};
use xtrace_obs::ObsContext;
use xtrace_spmd::{RankEvent, SpmdApp};
use xtrace_tracer::{collect_task_trace, rank_stream_seed_for, TracerConfig};

/// The execution-driven "measured" runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Exact-cost computation time of the longest task.
    pub compute_seconds: f64,
    /// Replayed communication time.
    pub comm_seconds: f64,
    /// Measured application runtime.
    pub total_seconds: f64,
    /// Rank that was measured.
    pub rank: u32,
}

/// Measures the application at `nranks`: finds the most computationally
/// demanding task and executes it exactly, recording the profiling and
/// collection telemetry into `obs`.
pub fn ground_truth(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    obs: &ObsContext,
) -> GroundTruth {
    let comm = xtrace_spmd::profile(app, nranks, &machine.net, obs);
    let compute = ground_truth_for_rank(app, comm.longest_rank, nranks, machine, cfg, obs);
    let comm_seconds = comm.comm_seconds(&machine.net);
    GroundTruth {
        compute_seconds: compute,
        comm_seconds,
        total_seconds: compute + comm_seconds,
        rank: comm.longest_rank,
    }
}

/// Exact-cost computation seconds of one rank.
///
/// Walks every compute block's address stream (bounded by the tracer's
/// sampling cap, then scaled to full counts), charging per-access cycles;
/// floating-point time comes from the same machine rates the prediction
/// uses; block times are overlap-combined identically. The *only*
/// difference from the prediction is exact per-access memory costing.
pub fn ground_truth_for_rank(
    app: &dyn SpmdApp,
    rank: u32,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    obs: &ObsContext,
) -> f64 {
    let rp = app.rank_program(rank, nranks);
    let mut cache = CacheHierarchy::try_new(machine.hierarchy.clone())
        .expect("machine profile carries a valid hierarchy");
    let mut prefetch = PrefetchState::default();
    let seed = rank_stream_seed_for(app, cfg, rank, nranks);

    // Fold repeated Compute events per block (same treatment as the
    // tracer, so sampled streams agree).
    let mut order: Vec<xtrace_ir::BlockId> = Vec::new();
    let mut invocations: Vec<u64> = Vec::new();
    for ev in &rp.events {
        if let RankEvent::Compute {
            block,
            invocations: inv,
        } = ev
        {
            if let Some(pos) = order.iter().position(|b| b == block) {
                invocations[pos] += inv;
            } else {
                order.push(*block);
                invocations.push(*inv);
            }
        }
    }

    // FP time comes from the trace metadata (identical on both paths).
    let trace = collect_task_trace(app, rank, nranks, machine, cfg, None, obs);

    let mut compute_seconds = 0.0;
    for ((&block_id, &inv), record) in order.iter().zip(&invocations).zip(&trace.blocks) {
        let blk = rp.program.block(block_id);
        debug_assert_eq!(blk.name, record.name);
        let refs_per_iter: u64 = blk
            .instrs
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| u64::from(i.repeat))
            .sum();
        let total_iters = blk.iterations.saturating_mul(inv);

        let mut mem_seconds = 0.0;
        if refs_per_iter > 0 && total_iters > 0 {
            // Warmup window mirrors the tracer's exactly (same stream, same
            // bounds) so both paths observe the same steady state.
            let sample_iters =
                total_iters.min((cfg.max_sampled_refs_per_block / refs_per_iter).max(1));
            let warmup_iters = sample_iters.min(total_iters - sample_iters);
            let mut cycles = 0.0f64;
            let mut stream = AccessStream::new(&rp.program, block_id, seed);
            stream.run_iterations(warmup_iters, &mut |a| {
                let lvl = cache.access(a.addr, a.bytes);
                // Warmup advances prefetch state but charges nothing.
                machine
                    .mem_cost
                    .cycles(&machine.hierarchy, &mut prefetch, lvl, a.addr, a.is_store);
            });
            stream.run_iterations(sample_iters, &mut |a| {
                let lvl = cache.access(a.addr, a.bytes);
                cycles += machine.mem_cost.cycles(
                    &machine.hierarchy,
                    &mut prefetch,
                    lvl,
                    a.addr,
                    a.is_store,
                );
            });
            let scale = total_iters as f64 / sample_iters as f64;
            mem_seconds = cycles * scale / machine.clock_hz;
        }
        let fp_seconds = crate::block_fp_seconds(record, machine);
        compute_seconds += machine.combine_times(mem_seconds, fp_seconds);
    }
    compute_seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::try_predict_runtime;
    use xtrace_apps::{StencilProxy, Uh3dProxy};
    use xtrace_machine::presets;
    use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

    #[test]
    fn ground_truth_is_positive_and_decomposes() {
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let gt = ground_truth(
            &app,
            4,
            &machine,
            &TracerConfig::fast(),
            &ObsContext::disabled(),
        );
        assert!(gt.compute_seconds > 0.0);
        assert!(gt.comm_seconds > 0.0);
        assert!((gt.total_seconds - gt.compute_seconds - gt.comm_seconds).abs() < 1e-12);
    }

    #[test]
    fn prediction_tracks_ground_truth_within_modeling_error() {
        let obs = ObsContext::disabled();
        // The headline property: the convolution must land near the
        // execution-driven measurement (the paper's framework reports
        // "usually less than 15% absolute relative error").
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let sig = collect_signature_memo_obs(&app, 8, &machine, &cfg, &SigMemo::new(), &obs);
        let pred = try_predict_runtime(sig.longest_task(), &sig.comm, &machine).unwrap();
        let gt = ground_truth(&app, 8, &machine, &cfg, &obs);
        let err = crate::relative_error(pred.total_seconds, gt.total_seconds);
        assert!(
            err < 0.25,
            "prediction {} vs measured {} (err {err})",
            pred.total_seconds,
            gt.total_seconds
        );
    }

    #[test]
    fn ground_truth_measures_the_longest_rank() {
        let app = Uh3dProxy::small();
        let machine = presets::cray_xt5();
        let gt = ground_truth(
            &app,
            4,
            &machine,
            &TracerConfig::fast(),
            &ObsContext::disabled(),
        );
        assert_eq!(gt.rank, 0, "uh3d master rank is the longest task");
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let obs = ObsContext::disabled();
        let app = StencilProxy::small();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let a = ground_truth(&app, 2, &machine, &cfg, &obs);
        let b = ground_truth(&app, 2, &machine, &cfg, &obs);
        assert_eq!(a, b);
    }

    #[test]
    fn more_cores_reduce_measured_compute() {
        let obs = ObsContext::disabled();
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let gt4 = ground_truth(&app, 4, &machine, &cfg, &obs);
        let gt16 = ground_truth(&app, 16, &machine, &cfg, &obs);
        assert!(gt16.compute_seconds < gt4.compute_seconds);
    }
}
