//! Whole-application replay: the full PSiNS role.
//!
//! "This mapping takes place in the PSiNS simulator that replays the
//! entire execution of the HPC application on the target/predicted system"
//! (Section III). The single-task prediction of [`crate::predict`] covers
//! the paper's evaluation; this module completes the replay picture: given
//! per-group traces (e.g. from the Section-VI full-signature synthesis),
//! every rank's compute segments are charged from its group's convolved
//! block times and the bulk-synchronous engine replays the whole event
//! script — synchronization waits, halo dependencies, collectives — to
//! produce an application-level runtime.
//!
//! The replay path is built to scale to the paper's target core counts
//! (6144/8192 ranks): convolution runs once per signature group (in
//! parallel across groups when a thread pool is available), and the engine
//! deduplicates rank classes via [`xtrace_spmd::RankClasses`] so per-rank
//! program materialization never happens.
//!
//! [`try_replay_groups`] and [`try_replay_groups_traced`] run that model
//! through [`xtrace_spmd::simulate`] and [`xtrace_spmd::simulate_timeline`].
//! An exact counterpart, [`ground_truth_application`], charges the same
//! table model from every rank's address streams run with exact per-access
//! costs, so replay predictions can be validated end to end. All three
//! fail with a typed [`PredictError`] instead of panicking.

use std::collections::HashMap;

use rayon::prelude::*;
use xtrace_machine::MachineProfile;
use xtrace_obs::ObsContext;
use xtrace_spmd::{
    simulate, simulate_timeline, ComputeModel, RankClasses, SimError, SimReport, SpmdApp,
    TimelineEntry,
};
use xtrace_tracer::{TaskTrace, TracerConfig};

use crate::ground_truth::ground_truth_for_rank;
use crate::predict::{try_predict_runtime, Prediction};
use crate::PredictError;

/// One model row before interning: `(block name, seconds per loop
/// iteration)` in the trace's block order.
type Row = Vec<(String, f64)>;

/// The per-iteration row of `trace` under its prediction `pred`, every
/// block's convolved time multiplied by `scale`.
fn per_iteration_row(pred: &Prediction, trace: &TaskTrace, scale: f64) -> Row {
    pred.per_block
        .iter()
        .zip(&trace.blocks)
        .map(|(bt, block)| {
            let units = (block.invocations.max(1) * block.iterations.max(1)) as f64;
            (bt.name.clone(), bt.combined_s * scale / units)
        })
        .collect()
}

/// No-communication profile for convolving one rank's compute blocks;
/// communication is replayed by the engine, so only block times are used.
fn compute_only(nranks: u32, rank: u32) -> xtrace_spmd::CommProfile {
    xtrace_spmd::CommProfile {
        nranks,
        longest_rank: rank,
        events: vec![],
        compute_imbalance: 1.0,
    }
}

/// A [`ComputeModel`] that charges each rank's compute segments from its
/// row of convolved per-block times.
///
/// Built by [`GroupComputeModel::try_new`] from signature groups:
/// `(trace, ranks)` pairs ordered heaviest-first (the layout
/// [`xtrace_extrap::synthesize_full_signature`] produces); ranks are
/// assigned to groups in order, so the heaviest group covers the lowest
/// ranks — matching the master-rank structure of the proxies, where rank 0
/// is the most computationally demanding task. [`ground_truth_application`]
/// builds one with a measured row per rank.
///
/// Block times are interned: the hot [`ComputeModel::seconds`] path is a
/// borrowed-str map lookup plus an indexed row read — no per-call `String`
/// allocation. The model also exposes its row assignment as
/// [`ComputeModel::class_key`], so the engine charges it once per (rank
/// class, row) pair instead of once per rank.
pub struct GroupComputeModel {
    /// Block name → column index (union over rows, first-seen order).
    name_ix: HashMap<String, usize>,
    /// Per row: column index → convolved seconds per loop iteration.
    ///
    /// Charging per *iteration* (not per invocation) makes the model
    /// transferable across ranks whose programs share block shapes but
    /// differ in trip counts — e.g. a worker's token-sized master block
    /// costs next to nothing even though the group trace came from the
    /// master.
    per_iteration: Vec<Vec<f64>>,
    /// Rank → row index.
    assignment: Vec<usize>,
}

impl GroupComputeModel {
    /// Builds the model for `nranks` ranks from signature groups,
    /// convolving each group's trace once (in parallel across groups when
    /// a pool is available).
    ///
    /// Fails with [`PredictError::GroupCoverage`] if the groups cover fewer
    /// ranks than `nranks`, and with [`PredictError::MachineMismatch`] if a
    /// group's trace was collected against a different machine.
    pub fn try_new(
        groups: &[(TaskTrace, u64)],
        nranks: u32,
        machine: &MachineProfile,
    ) -> Result<Self, PredictError> {
        let covered: u64 = groups.iter().map(|(_, n)| n).sum();
        if covered < u64::from(nranks) {
            return Err(PredictError::GroupCoverage {
                covered,
                needed: u64::from(nranks),
            });
        }
        let rows = groups
            .par_iter()
            .map(|(trace, _)| {
                let pred = try_predict_runtime(trace, &compute_only(nranks, trace.rank), machine)?;
                Ok(per_iteration_row(&pred, trace, 1.0))
            })
            .collect::<Result<Vec<Row>, PredictError>>()?;
        let assignment = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, (_, n))| std::iter::repeat_n(gi, *n as usize))
            .take(nranks as usize)
            .collect();
        Ok(Self::from_rows(rows, assignment))
    }

    /// Interns the rows into one shared column layout.
    fn from_rows(rows: Vec<Row>, assignment: Vec<usize>) -> Self {
        let mut name_ix: HashMap<String, usize> = HashMap::new();
        for row in &rows {
            for (name, _) in row {
                let next = name_ix.len();
                name_ix.entry(name.clone()).or_insert(next);
            }
        }
        let per_iteration = rows
            .into_iter()
            .map(|row| {
                let mut dense = vec![0.0f64; name_ix.len()];
                for (name, secs) in row {
                    dense[name_ix[&name]] = secs;
                }
                dense
            })
            .collect();
        Self {
            name_ix,
            per_iteration,
            assignment,
        }
    }
}

impl ComputeModel for GroupComputeModel {
    fn seconds(
        &mut self,
        rank: u32,
        program: &xtrace_ir::Program,
        block: xtrace_ir::BlockId,
        invocations: u64,
    ) -> f64 {
        let row = self.assignment[rank as usize];
        let b = program.block(block);
        let per_iter = self
            .name_ix
            .get(b.name.as_str())
            .map_or(0.0, |&ix| self.per_iteration[row][ix]);
        per_iter * b.iterations as f64 * invocations as f64
    }

    /// Charges depend only on the rank's row, so ranks sharing a row are
    /// one dedup class.
    fn class_key(&self, rank: u32) -> Option<u64> {
        Some(self.assignment[rank as usize] as u64)
    }
}

fn sim_err(err: SimError) -> PredictError {
    PredictError::Simulation {
        detail: err.to_string(),
    }
}

/// Replays the whole application with per-group convolved compute times,
/// failing with a typed [`PredictError`] on undersized groups, machine
/// mismatches, or malformed rank programs.
pub fn try_replay_groups(
    app: &dyn SpmdApp,
    nranks: u32,
    groups: &[(TaskTrace, u64)],
    machine: &MachineProfile,
) -> Result<SimReport, PredictError> {
    let mut model = GroupComputeModel::try_new(groups, nranks, machine)?;
    let classes = RankClasses::try_from_app(app, nranks).map_err(sim_err)?;
    simulate(&classes, &machine.net, &mut model, &ObsContext::disabled()).map_err(sim_err)
}

/// Like [`try_replay_groups`], additionally returning the predicted replay
/// timeline — per-rank, per-event intervals a timeline viewer can render
/// (the event-tracer half of PSiNS).
pub fn try_replay_groups_traced(
    app: &dyn SpmdApp,
    nranks: u32,
    groups: &[(TaskTrace, u64)],
    machine: &MachineProfile,
) -> Result<(SimReport, Vec<TimelineEntry>), PredictError> {
    let mut model = GroupComputeModel::try_new(groups, nranks, machine)?;
    let classes = RankClasses::try_from_app(app, nranks).map_err(sim_err)?;
    simulate_timeline(&classes, &machine.net, &mut model).map_err(sim_err)
}

/// One rank's exact per-iteration row.
fn exact_rank_table(
    app: &dyn SpmdApp,
    rank: u32,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> Row {
    let obs = ObsContext::disabled();
    // One exact execution per rank; apportion its total compute over
    // blocks proportionally to the convolution-free split, then scale so
    // the sum equals the exact total.
    let trace = xtrace_tracer::collect_task_trace(app, rank, nranks, machine, cfg, None, &obs);
    let exact_total = ground_truth_for_rank(app, rank, nranks, machine, cfg, &obs);
    // The trace was just collected against `machine`, so the checked
    // entry point's precondition holds by construction.
    let pred = crate::predict::predict_checked(&trace, &compute_only(nranks, rank), machine);
    let pred_total: f64 = pred.per_block.iter().map(|b| b.combined_s).sum();
    let scale = if pred_total > 0.0 {
        exact_total / pred_total
    } else {
        0.0
    };
    per_iteration_row(&pred, &trace, scale)
}

/// Exact whole-application measurement: every rank's compute time comes
/// from executing its address streams with exact per-access costs, then the
/// same engine replays the event script. Cost scales with `nranks` (one
/// sampled execution per rank, fanned out over the rayon pool when one is
/// available); intended for validation at moderate scale. Fails with a
/// typed [`PredictError`] on malformed rank programs.
pub fn ground_truth_application(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> Result<SimReport, PredictError> {
    let classes = RankClasses::try_from_app(app, nranks).map_err(sim_err)?;
    // Every rank gets its own measured row (the identity assignment), so
    // no two ranks dedup. The builds are independent and pure, and
    // ordered collection keeps the model identical to a serial build.
    let ranks: Vec<u32> = (0..nranks).collect();
    let rows = ranks
        .par_iter()
        .map(|&r| exact_rank_table(app, r, nranks, machine, cfg))
        .collect();
    let mut model = GroupComputeModel::from_rows(rows, (0..nranks as usize).collect());
    simulate(&classes, &machine.net, &mut model, &ObsContext::disabled()).map_err(sim_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_apps::StencilProxy;
    use xtrace_machine::presets;
    use xtrace_tracer::{collect_task_trace, SigMemo};

    fn groups_for(
        app: &StencilProxy,
        nranks: u32,
        machine: &MachineProfile,
    ) -> Vec<(TaskTrace, u64)> {
        let obs = ObsContext::disabled();
        // Two groups: rank 0's trace for the first rank, rank 1's for the rest.
        let cfg = TracerConfig::fast();
        let t0 = collect_task_trace(app, 0, nranks, machine, &cfg, None, &obs);
        let t1 = collect_task_trace(app, 1, nranks, machine, &cfg, None, &obs);
        vec![(t0, 1), (t1, u64::from(nranks) - 1)]
    }

    #[test]
    fn replay_produces_a_synchronized_timeline() {
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let groups = groups_for(&app, 8, &machine);
        let report = try_replay_groups(&app, 8, &groups, &machine).unwrap();
        assert_eq!(report.ranks.len(), 8);
        assert!(report.total_seconds > 0.0);
        // Trailing allreduce synchronizes everyone.
        for r in &report.ranks {
            assert!((r.finish_s - report.total_seconds).abs() < 1e-9);
            assert!(r.compute_s > 0.0);
        }
    }

    #[test]
    fn replay_matches_single_task_prediction_for_balanced_apps() {
        // For a balanced app the replay total should be close to the
        // longest-task prediction (compute + comm), since waits are small.
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let sig = xtrace_tracer::collect_signature_memo_obs(
            &app,
            8,
            &machine,
            &cfg,
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let single =
            crate::predict::try_predict_runtime(sig.longest_task(), &sig.comm, &machine).unwrap();
        let groups = groups_for(&app, 8, &machine);
        let replay = try_replay_groups(&app, 8, &groups, &machine).unwrap();
        let rel = (replay.total_seconds - single.total_seconds).abs() / single.total_seconds;
        assert!(
            rel < 0.15,
            "replay {} vs single-task {} ({rel})",
            replay.total_seconds,
            single.total_seconds
        );
    }

    #[test]
    fn replay_tracks_exact_application_ground_truth() {
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let groups = groups_for(&app, 8, &machine);
        let replay = try_replay_groups(&app, 8, &groups, &machine).unwrap();
        let exact = ground_truth_application(&app, 8, &machine, &cfg).unwrap();
        let rel = (replay.total_seconds - exact.total_seconds).abs() / exact.total_seconds;
        assert!(
            rel < 0.25,
            "replay {} vs exact {} ({rel})",
            replay.total_seconds,
            exact.total_seconds
        );
    }

    #[test]
    fn traced_replay_yields_a_renderable_timeline() {
        let app = StencilProxy::small();
        let machine = presets::cray_xt5();
        let groups = groups_for(&app, 4, &machine);
        let (report, timeline) = try_replay_groups_traced(&app, 4, &groups, &machine).unwrap();
        // 4 ranks x 4 events (sweep, exchange, residual, allreduce).
        assert_eq!(timeline.len(), 16);
        assert!(timeline.iter().any(|e| e.kind == "compute"));
        assert!(timeline.iter().any(|e| e.kind == "exchange"));
        let max_end = timeline.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
        assert!((max_end - report.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn undersized_groups_report_typed_errors() {
        let app = StencilProxy::small();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let t0 = collect_task_trace(&app, 0, 8, &machine, &cfg, None, &ObsContext::disabled());
        let err = GroupComputeModel::try_new(&[(t0, 2)], 8, &machine)
            .err()
            .expect("undersized groups must fail");
        assert_eq!(
            err,
            PredictError::GroupCoverage {
                covered: 2,
                needed: 8
            }
        );
        assert!(err.to_string().contains("groups cover 2 ranks, need 8"));
    }

    #[test]
    fn machine_mismatch_reports_typed_errors() {
        let app = StencilProxy::small();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let t0 = collect_task_trace(&app, 0, 4, &machine, &cfg, None, &ObsContext::disabled());
        let other = presets::bluewaters_phase1();
        let err = GroupComputeModel::try_new(&[(t0, 4)], 4, &other)
            .err()
            .expect("machine mismatch must fail");
        assert!(matches!(err, PredictError::MachineMismatch { .. }));
    }
}
