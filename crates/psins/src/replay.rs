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
//! parallel across groups when a thread pool is available), the engine
//! deduplicates rank classes via [`xtrace_spmd::RankClasses`] so per-rank
//! program materialization never happens, and convolved group tables can
//! be memoized across pipeline runs by handing
//! [`GroupComputeModel::try_new`] a [`ConvolveCache`].
//!
//! [`try_replay_groups`] and [`try_replay_groups_traced`] run that model
//! through [`xtrace_spmd::simulate`] and [`xtrace_spmd::simulate_timeline`].
//! An exact counterpart, [`ground_truth_application`], runs every rank's
//! address streams with exact per-access costs through the same engine, so
//! replay predictions can be validated end to end. All three fail with a
//! typed [`PredictError`] instead of panicking.

use std::collections::HashMap;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xtrace_machine::MachineProfile;
use xtrace_obs::ObsContext;
use xtrace_spmd::{
    simulate, simulate_timeline, ComputeModel, RankClasses, SimError, SimReport, SpmdApp,
    TimelineEntry,
};
use xtrace_tracer::{TaskTrace, TracerConfig};

use crate::ground_truth::ground_truth_for_rank;
use crate::predict::try_predict_runtime;
use crate::PredictError;

/// Convolved per-iteration block times of one signature group — the unit
/// of work a [`ConvolveCache`] memoizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupBlockTimes {
    /// Block names, in the group trace's block order.
    pub columns: Vec<String>,
    /// Convolved seconds per loop iteration, parallel to `columns`.
    pub per_iteration: Vec<f64>,
}

/// Memoization store for per-group convolution results.
///
/// The convolution of a group trace against a machine profile is pure, so
/// pipeline runs that share traces (e.g. resumed experiments, benches
/// sweeping core counts) can reuse it. `xtrace-core`'s `ArtifactStore`
/// implements this over its content-addressed JSON store.
///
/// Implementations are best-effort: a `get_group` miss (or a dropped
/// `put_group`) only costs recomputation, never correctness — serde JSON
/// round-trips `f64`s exactly, so cached and recomputed tables are
/// bit-identical.
pub trait ConvolveCache {
    /// Looks up a previously stored group table.
    fn get_group(&self, key: &str) -> Option<GroupBlockTimes>;
    /// Stores a group table under `key`.
    fn put_group(&self, key: &str, value: &GroupBlockTimes);
}

/// FNV-1a over the concatenation of `parts`, as a fixed-width hex string.
fn fnv1a_hex(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Cache key of one group's convolution: machine identity plus the full
/// serialized trace (hit rates, block structure, counts).
fn convolve_key(trace: &TaskTrace, machine: &MachineProfile) -> String {
    let trace_bytes = xtrace_tracer::to_bytes(trace);
    fnv1a_hex(&[machine.name.as_bytes(), b"\0", &trace_bytes])
}

/// Convolves one group trace into per-iteration block times.
fn convolve_group(
    trace: &TaskTrace,
    nranks: u32,
    machine: &MachineProfile,
) -> Result<GroupBlockTimes, PredictError> {
    // Convolve once per group; communication is replayed by the engine, so
    // only block times are used here.
    let comm = xtrace_spmd::CommProfile {
        nranks,
        longest_rank: trace.rank,
        events: vec![],
        compute_imbalance: 1.0,
    };
    let pred = try_predict_runtime(trace, &comm, machine)?;
    let mut columns = Vec::with_capacity(pred.per_block.len());
    let mut per_iteration = Vec::with_capacity(pred.per_block.len());
    for (bt, block) in pred.per_block.iter().zip(&trace.blocks) {
        let units = (block.invocations.max(1) * block.iterations.max(1)) as f64;
        columns.push(bt.name.clone());
        per_iteration.push(bt.combined_s / units);
    }
    Ok(GroupBlockTimes {
        columns,
        per_iteration,
    })
}

/// A [`ComputeModel`] that charges each rank's compute segments from its
/// signature group's convolved per-block times.
///
/// Groups are `(trace, ranks)` pairs ordered heaviest-first (the layout
/// [`xtrace_extrap::synthesize_full_signature`] produces); ranks are
/// assigned to groups in order, so the heaviest group covers the lowest
/// ranks — matching the master-rank structure of the proxies, where rank 0
/// is the most computationally demanding task.
///
/// Block times are interned: the hot [`ComputeModel::seconds`] path is a
/// borrowed-str map lookup plus an indexed row read — no per-call `String`
/// allocation. The model also exposes its group assignment as
/// [`ComputeModel::class_key`], so the engine charges it once per (rank
/// class, group) pair instead of once per rank.
pub struct GroupComputeModel {
    /// Block name → column index (union over groups, first-seen order).
    name_ix: HashMap<String, usize>,
    /// Per group: column index → convolved seconds per loop iteration.
    ///
    /// Charging per *iteration* (not per invocation) makes the model
    /// transferable across ranks whose programs share block shapes but
    /// differ in trip counts — e.g. a worker's token-sized master block
    /// costs next to nothing even though the group trace came from the
    /// master.
    per_iteration: Vec<Vec<f64>>,
    /// Rank → group index.
    assignment: Vec<usize>,
}

impl GroupComputeModel {
    /// Builds the model for `nranks` ranks from signature groups, recording
    /// convolve telemetry into `obs`. With a `cache`, per-group convolution
    /// results are memoized there; the second return value counts the
    /// cache hits (always 0 without one).
    ///
    /// Fails with [`PredictError::GroupCoverage`] if the groups cover fewer
    /// ranks than `nranks`, and with [`PredictError::MachineMismatch`] if a
    /// group's trace was collected against a different machine.
    pub fn try_new(
        groups: &[(TaskTrace, u64)],
        nranks: u32,
        machine: &MachineProfile,
        cache: Option<&dyn ConvolveCache>,
        obs: &ObsContext,
    ) -> Result<(Self, usize), PredictError> {
        let (tables, hits) = Self::convolve_all(groups, nranks, machine, cache, obs)?;
        Ok((Self::from_tables(groups, nranks, tables), hits))
    }

    /// Checks coverage and convolves every group (parallel across groups
    /// when a pool is available and there is more than one group to do).
    fn convolve_all(
        groups: &[(TaskTrace, u64)],
        nranks: u32,
        machine: &MachineProfile,
        cache: Option<&dyn ConvolveCache>,
        obs: &ObsContext,
    ) -> Result<(Vec<GroupBlockTimes>, usize), PredictError> {
        let covered: u64 = groups.iter().map(|(_, n)| n).sum();
        if covered < u64::from(nranks) {
            return Err(PredictError::GroupCoverage {
                covered,
                needed: u64::from(nranks),
            });
        }

        let mut hits = 0usize;
        let mut slots: Vec<Option<GroupBlockTimes>> = vec![None; groups.len()];
        let mut keys: Vec<Option<String>> = vec![None; groups.len()];
        if let Some(cache) = cache {
            for (gi, (trace, _)) in groups.iter().enumerate() {
                let key = convolve_key(trace, machine);
                if let Some(table) = cache.get_group(&key) {
                    slots[gi] = Some(table);
                    hits += 1;
                }
                keys[gi] = Some(key);
            }
        }

        let pending: Vec<usize> = (0..groups.len())
            .filter(|&gi| slots[gi].is_none())
            .collect();
        let computed: Vec<Result<GroupBlockTimes, PredictError>> =
            if pending.len() >= 2 && rayon::current_num_threads() > 1 {
                pending
                    .par_iter()
                    .map(|&gi| convolve_group(&groups[gi].0, nranks, machine))
                    .collect()
            } else {
                pending
                    .iter()
                    .map(|&gi| convolve_group(&groups[gi].0, nranks, machine))
                    .collect()
            };
        for (&gi, result) in pending.iter().zip(computed) {
            let table = result?;
            if let (Some(cache), Some(key)) = (cache, keys[gi].as_deref()) {
                cache.put_group(key, &table);
            }
            slots[gi] = Some(table);
        }
        // Observability: group and hit counts are input-determined (cache
        // probing happens serially above), never scheduling-dependent.
        let metrics = obs.metrics();
        if metrics.enabled() {
            metrics
                .counter("psins.groups_convolved")
                .add(pending.len() as u64);
            if cache.is_some() {
                metrics
                    .counter("psins.convolve_cache.hits")
                    .add(hits as u64);
                metrics
                    .counter("psins.convolve_cache.misses")
                    .add(pending.len() as u64);
            }
        }
        // Journal: one instant per convolved group, emitted here (serial,
        // after the possibly-parallel convolution reassembled in group
        // order) so the stream is deterministic. `cached` records whether
        // the group's table came from the convolve cache.
        let journal = obs.journal();
        if journal.enabled() {
            let mut was_pending = vec![false; groups.len()];
            for &gi in &pending {
                was_pending[gi] = true;
            }
            for (gi, (trace, n)) in groups.iter().enumerate() {
                journal.instant(
                    "psins.convolve.group",
                    "convolve",
                    &[
                        ("group", gi as f64),
                        ("ranks", *n as f64),
                        ("blocks", trace.blocks.len() as f64),
                        ("cached", f64::from(u8::from(!was_pending[gi]))),
                    ],
                );
            }
        }
        let tables = slots
            .into_iter()
            .map(|t| t.expect("every group slot was filled"))
            .collect();
        Ok((tables, hits))
    }

    /// Interns the per-group tables into the shared column layout and lays
    /// out the rank → group assignment.
    fn from_tables(groups: &[(TaskTrace, u64)], nranks: u32, tables: Vec<GroupBlockTimes>) -> Self {
        let mut name_ix: HashMap<String, usize> = HashMap::new();
        for table in &tables {
            for name in &table.columns {
                let next = name_ix.len();
                name_ix.entry(name.clone()).or_insert(next);
            }
        }
        let per_iteration = tables
            .iter()
            .map(|table| {
                let mut row = vec![0.0f64; name_ix.len()];
                for (name, &secs) in table.columns.iter().zip(&table.per_iteration) {
                    row[name_ix[name]] = secs;
                }
                row
            })
            .collect();
        let mut assignment = Vec::with_capacity(nranks as usize);
        for (gi, (_, n)) in groups.iter().enumerate() {
            for _ in 0..*n {
                if assignment.len() < nranks as usize {
                    assignment.push(gi);
                }
            }
        }
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
        let group = self.assignment[rank as usize];
        let b = program.block(block);
        let per_iter = self
            .name_ix
            .get(b.name.as_str())
            .map_or(0.0, |&ix| self.per_iteration[group][ix]);
        per_iter * b.iterations as f64 * invocations as f64
    }

    /// Charges depend only on the rank's group, so ranks sharing a group
    /// are one dedup class.
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
    let (mut model, _) =
        GroupComputeModel::try_new(groups, nranks, machine, None, &ObsContext::disabled())?;
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
    let (mut model, _) =
        GroupComputeModel::try_new(groups, nranks, machine, None, &ObsContext::disabled())?;
    let classes = RankClasses::try_from_app(app, nranks).map_err(sim_err)?;
    simulate_timeline(&classes, &machine.net, &mut model).map_err(sim_err)
}

/// A per-iteration block-time table for one rank, in the shared column
/// layout of the exact model.
fn exact_rank_table(
    app: &dyn SpmdApp,
    rank: u32,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> Vec<(String, f64)> {
    let obs = ObsContext::disabled();
    // One exact execution per rank; apportion its total compute over
    // blocks proportionally to the convolution-free split, then scale so
    // the sum equals the exact total.
    let trace = xtrace_tracer::collect_task_trace(app, rank, nranks, machine, cfg, None, &obs);
    let exact_total = ground_truth_for_rank(app, rank, nranks, machine, cfg, &obs);
    let comm = xtrace_spmd::CommProfile {
        nranks,
        longest_rank: rank,
        events: vec![],
        compute_imbalance: 1.0,
    };
    // The trace was just collected against `machine`, so the checked
    // entry point's precondition holds by construction.
    let pred = crate::predict::predict_checked(&trace, &comm, machine);
    let pred_total: f64 = pred.per_block.iter().map(|b| b.combined_s).sum();
    let scale = if pred_total > 0.0 {
        exact_total / pred_total
    } else {
        0.0
    };
    pred.per_block
        .iter()
        .zip(&trace.blocks)
        .map(|(bt, block)| {
            let units = (block.invocations.max(1) * block.iterations.max(1)) as f64;
            (bt.name.clone(), bt.combined_s * scale / units)
        })
        .collect()
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
    // Build every rank's exact table up front: the builds are independent
    // and pure, so they parallelize; ordered reassembly keeps the model
    // (and therefore the report) identical to a serial build.
    let ranks: Vec<u32> = (0..nranks).collect();
    let raw_tables: Vec<Vec<(String, f64)>> = if nranks >= 2 && rayon::current_num_threads() > 1 {
        ranks
            .par_iter()
            .map(|&r| exact_rank_table(app, r, nranks, machine, cfg))
            .collect()
    } else {
        ranks
            .iter()
            .map(|&r| exact_rank_table(app, r, nranks, machine, cfg))
            .collect()
    };

    // Intern block names so the hot charging path is allocation-free.
    let mut name_ix: HashMap<String, usize> = HashMap::new();
    for table in &raw_tables {
        for (name, _) in table {
            let next = name_ix.len();
            name_ix.entry(name.clone()).or_insert(next);
        }
    }
    let tables: Vec<Vec<f64>> = raw_tables
        .into_iter()
        .map(|table| {
            let mut row = vec![0.0f64; name_ix.len()];
            for (name, secs) in table {
                row[name_ix[&name]] = secs;
            }
            row
        })
        .collect();

    struct ExactModel {
        name_ix: HashMap<String, usize>,
        /// rank → column index → seconds per iteration.
        tables: Vec<Vec<f64>>,
    }
    impl ComputeModel for ExactModel {
        fn seconds(
            &mut self,
            rank: u32,
            program: &xtrace_ir::Program,
            block: xtrace_ir::BlockId,
            invocations: u64,
        ) -> f64 {
            let b = program.block(block);
            let per_iter = self
                .name_ix
                .get(b.name.as_str())
                .map_or(0.0, |&ix| self.tables[rank as usize][ix]);
            per_iter * b.iterations as f64 * invocations as f64
        }

        /// Every rank has its own measured table, so no two ranks dedup.
        fn class_key(&self, rank: u32) -> Option<u64> {
            Some(u64::from(rank))
        }
    }

    let mut model = ExactModel { name_ix, tables };
    simulate(&classes, &machine.net, &mut model, &ObsContext::disabled()).map_err(sim_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use xtrace_apps::StencilProxy;
    use xtrace_machine::presets;
    use xtrace_tracer::{collect_task_trace, SigMemo};

    fn build(
        groups: &[(TaskTrace, u64)],
        nranks: u32,
        machine: &MachineProfile,
        cache: Option<&dyn ConvolveCache>,
    ) -> Result<(GroupComputeModel, usize), PredictError> {
        GroupComputeModel::try_new(groups, nranks, machine, cache, &ObsContext::disabled())
    }

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
        let err = build(&[(t0, 2)], 8, &machine, None)
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
        let err = build(&[(t0, 4)], 4, &other, None)
            .err()
            .expect("machine mismatch must fail");
        assert!(matches!(err, PredictError::MachineMismatch { .. }));
    }

    /// In-memory ConvolveCache for tests.
    #[derive(Default)]
    struct MemCache {
        map: Mutex<HashMap<String, GroupBlockTimes>>,
    }
    impl ConvolveCache for MemCache {
        fn get_group(&self, key: &str) -> Option<GroupBlockTimes> {
            self.map.lock().expect("cache lock").get(key).cloned()
        }
        fn put_group(&self, key: &str, value: &GroupBlockTimes) {
            self.map
                .lock()
                .expect("cache lock")
                .insert(key.to_string(), value.clone());
        }
    }

    #[test]
    fn cached_construction_is_bit_identical_and_hits_on_reuse() {
        let app = StencilProxy::medium();
        let machine = presets::cray_xt5();
        let groups = groups_for(&app, 8, &machine);
        let cache = MemCache::default();

        let (_, cold_hits) = build(&groups, 8, &machine, Some(&cache)).expect("cold build");
        assert_eq!(cold_hits, 0);
        let (_, warm_hits) = build(&groups, 8, &machine, Some(&cache)).expect("warm build");
        assert_eq!(warm_hits, 2, "both group tables should come from cache");

        // The replay through the cache matches the uncached replay exactly.
        let (mut cached_model, _) = build(&groups, 8, &machine, Some(&cache)).expect("warm build");
        let (mut plain_model, plain_hits) = build(&groups, 8, &machine, None).expect("build");
        assert_eq!(plain_hits, 0);
        let classes = RankClasses::try_from_app(&app, 8).expect("classes build");
        let obs = ObsContext::disabled();
        let a = simulate(&classes, &machine.net, &mut cached_model, &obs).expect("cached replay");
        let b = simulate(&classes, &machine.net, &mut plain_model, &obs).expect("plain replay");
        assert_eq!(a, b);
    }

    #[test]
    fn group_tables_key_on_machine_and_trace() {
        let obs = ObsContext::disabled();
        let app = StencilProxy::small();
        let machine = presets::cray_xt5();
        let cfg = TracerConfig::fast();
        let t0 = collect_task_trace(&app, 0, 4, &machine, &cfg, None, &obs);
        let t1 = collect_task_trace(&app, 1, 4, &machine, &cfg, None, &obs);
        let k00 = convolve_key(&t0, &machine);
        let k10 = convolve_key(&t1, &machine);
        assert_ne!(k00, k10, "different traces must not collide");
        assert_eq!(k00, convolve_key(&t0, &machine), "keys are deterministic");
    }
}
