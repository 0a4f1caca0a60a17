//! # xtrace-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index), plus ablation studies and Criterion microbenches. This library
//! holds the pieces the binaries share: the paper-scale experiment
//! definitions (applications, training ladders, target counts, target
//! machine) and the common measurement drivers.
//!
//! Experiment binaries print the same rows/series the paper reports. The
//! goal is *shape* fidelity — who wins, what moves in which direction,
//! where crossovers fall — not absolute agreement with the authors'
//! testbed (our substrate is a parametric simulator).

use xtrace_apps::{SpecfemProxy, Uh3dProxy};
use xtrace_core::PipelineApp;
use xtrace_extrap::{
    extrapolate_signature, fit_signature_obs, synthesize_from_fit, ElementFit, ExtrapolationConfig,
};
use xtrace_machine::{presets, MachineProfile};
use xtrace_obs::ObsContext;
use xtrace_psins::{ground_truth, relative_error, try_predict_runtime, GroundTruth, Prediction};
use xtrace_spmd::SpmdApp;
use xtrace_tracer::{collect_signature_memo_obs, BlockRecord, SigMemo, TaskTrace, TracerConfig};

/// SPECFEM3D training ladder (paper Section V).
pub const SPECFEM_TRAINING: [u32; 3] = [96, 384, 1536];
/// SPECFEM3D evaluation core count.
pub const SPECFEM_TARGET: u32 = 6144;
/// UH3D training ladder.
pub const UH3D_TRAINING: [u32; 3] = [1024, 2048, 4096];
/// UH3D evaluation core count.
pub const UH3D_TARGET: u32 = 8192;

/// The Table I target machine (Phase-I Blue Waters analog).
pub fn target_machine() -> MachineProfile {
    presets::bluewaters_phase1()
}

/// The full-scale SPECFEM3D proxy.
pub fn paper_specfem() -> SpecfemProxy {
    SpecfemProxy::paper_scale()
}

/// The full-scale UH3D proxy.
pub fn paper_uh3d() -> Uh3dProxy {
    Uh3dProxy::paper_scale()
}

/// Tracer settings for the paper-scale experiments.
pub fn paper_tracer() -> TracerConfig {
    TracerConfig::default()
}

/// Collects the longest task's trace at each training count.
pub fn training_traces(
    app: &dyn SpmdApp,
    counts: &[u32],
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> Vec<TaskTrace> {
    counts
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(
                app,
                p,
                machine,
                cfg,
                &SigMemo::new(),
                &ObsContext::disabled(),
            )
            .longest_task()
            .clone()
        })
        .collect()
}

/// One Table I comparison: predictions from the extrapolated and the
/// collected trace, plus the execution-driven measurement.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Evaluation core count.
    pub cores: u32,
    /// Prediction from the extrapolated trace.
    pub extrap: Prediction,
    /// Prediction from the trace actually collected at `cores`.
    pub collected: Prediction,
    /// Execution-driven measurement.
    pub measured: GroundTruth,
}

impl Table1Row {
    /// Error of the extrapolated-trace prediction vs measured.
    pub fn extrap_error(&self) -> f64 {
        relative_error(self.extrap.total_seconds, self.measured.total_seconds)
    }

    /// Error of the collected-trace prediction vs measured.
    pub fn collected_error(&self) -> f64 {
        relative_error(self.collected.total_seconds, self.measured.total_seconds)
    }

    /// Relative gap between the two predictions.
    pub fn prediction_gap(&self) -> f64 {
        relative_error(self.extrap.total_seconds, self.collected.total_seconds)
    }
}

/// Runs the full Table I methodology for one application.
pub fn run_table1_row(
    app: &dyn PipelineApp,
    training: &[u32],
    target: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    extrap_cfg: &ExtrapolationConfig,
) -> Table1Row {
    let obs = ObsContext::disabled();
    let spmd = app.spmd();
    let traces = training_traces(spmd, training, machine, cfg);
    let extrapolated =
        extrapolate_signature(&traces, target, extrap_cfg).expect("valid training ladder");
    let collected_sig =
        collect_signature_memo_obs(spmd, target, machine, cfg, &SigMemo::new(), &obs);
    let comm = app.comm_obs(target, &obs);
    Table1Row {
        app: spmd.name().to_string(),
        cores: target,
        extrap: try_predict_runtime(&extrapolated, &comm, machine).unwrap(),
        collected: try_predict_runtime(collected_sig.longest_task(), &collected_sig.comm, machine)
            .unwrap(),
        measured: ground_truth(spmd, target, machine, cfg, &obs),
    }
}

/// Like [`run_table1_row`] but also returns the training traces, the
/// synthetic trace, and the per-element fit report (used by the figure and
/// error-audit binaries).
pub fn run_with_fits(
    app: &dyn SpmdApp,
    training: &[u32],
    target: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    extrap_cfg: &ExtrapolationConfig,
) -> (Vec<TaskTrace>, TaskTrace, Vec<ElementFit>) {
    let traces = training_traces(app, training, machine, cfg);
    let fit = fit_signature_obs(&traces, target, extrap_cfg, &ObsContext::disabled())
        .expect("valid ladder");
    let extrapolated = synthesize_from_fit(&fit);
    (traces, extrapolated, fit.fits)
}

/// Memory-op-weighted cumulative hit rate of a block at `level`.
pub fn block_hit_rate(block: &BlockRecord, level: usize) -> f64 {
    let mut w = 0.0;
    let mut acc = 0.0;
    for i in &block.instrs {
        if i.features.mem_ops > 0.0 {
            w += i.features.mem_ops;
            acc += i.features.mem_ops * i.features.hit_rates[level];
        }
    }
    if w > 0.0 {
        acc / w
    } else {
        1.0
    }
}

/// Prints a fixed-width table header and separator.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    let row: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", sep.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_constants_match_the_paper() {
        assert_eq!(SPECFEM_TRAINING, [96, 384, 1536]);
        assert_eq!(SPECFEM_TARGET, 6144);
        assert_eq!(UH3D_TRAINING, [1024, 2048, 4096]);
        assert_eq!(UH3D_TARGET, 8192);
        assert_eq!(target_machine().name, "bluewaters-phase1");
    }

    #[test]
    fn table1_row_driver_works_at_miniature_scale() {
        let app = xtrace_apps::StencilProxy::small();
        let machine = presets::cray_xt5();
        let row = run_table1_row(
            &app,
            &[2, 4, 8],
            32,
            &machine,
            &TracerConfig::fast(),
            &ExtrapolationConfig::default(),
        );
        assert!(row.measured.total_seconds > 0.0);
        assert!(row.extrap_error().is_finite());
        assert!(row.collected_error() < 0.3);
        assert!(row.prediction_gap().is_finite());
    }

    #[test]
    fn block_hit_rate_weights_by_mem_ops() {
        let app = xtrace_apps::StencilProxy::small();
        let machine = presets::cray_xt5();
        let sig = collect_signature_memo_obs(
            &app,
            2,
            &machine,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let b = &sig.longest_task().blocks[0];
        let hr = block_hit_rate(b, 0);
        assert!((0.0..=1.0).contains(&hr));
    }
}
