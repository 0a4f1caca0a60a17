//! Integration test of the Section-VI clustering extension: cluster real
//! multi-rank trace collections and extrapolate per cluster.

use xtrace::apps::SpecfemProxy;
use xtrace::extrap::{cluster_tasks, extrapolate_clusters, ExtrapolationConfig};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::tracer::{collect_ranks, SigMemo, TracerConfig};

fn app() -> SpecfemProxy {
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 6144;
    app.cfg.timesteps = 5;
    app.cfg.collect_per_rank = 2048;
    app
}

#[test]
fn master_and_workers_form_distinct_clusters() {
    let app = app();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    // Trace the master plus a few workers.
    let traces = collect_ranks(
        &app,
        &[0, 1, 2, 3, 4, 5],
        24,
        &machine,
        &cfg,
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let clustering = cluster_tasks(&traces, 2);
    // The master (rank 0) must be alone in its cluster: its work profile is
    // dominated by aggregation, unlike any worker.
    let master_cluster = clustering.assignments[0];
    let master_members = clustering.members(master_cluster);
    assert_eq!(master_members, vec![0], "master clusters alone");
    assert_eq!(clustering.members(1 - master_cluster).len(), 5);
}

#[test]
fn per_cluster_extrapolation_produces_ordered_traces() {
    let app = app();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let ranks = [0u32, 1, 2, 3];
    let per_count: Vec<_> = [6u32, 24, 96]
        .iter()
        .map(|&p| {
            (
                p,
                collect_ranks(
                    &app,
                    &ranks,
                    p,
                    &machine,
                    &cfg,
                    &SigMemo::new(),
                    &ObsContext::disabled(),
                ),
            )
        })
        .collect();
    let out = extrapolate_clusters(&per_count, 384, 2, &ExtrapolationConfig::default())
        .expect("cluster extrapolation succeeds");
    assert_eq!(out.len(), 2);
    assert!(out.iter().all(|t| t.nranks == 384));
    // Heaviest cluster first, and it must be the master-like one (its
    // aggregation work grows with P, so it dominates at the target).
    assert!(out[0].total_mem_ops() > out[1].total_mem_ops());
    assert!(
        out[0].block("master-collect").unwrap().instrs[0]
            .features
            .mem_ops
            > out[1].block("master-collect").unwrap().instrs[0]
                .features
                .mem_ops
    );
}

#[test]
fn parallel_rank_collection_matches_serial() {
    let obs = ObsContext::disabled();
    // collect_ranks fans out over rayon; results must equal one-by-one
    // collection regardless of scheduling.
    let app = app();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let ranks = [0u32, 3, 7];
    let parallel = collect_ranks(&app, &ranks, 24, &machine, &cfg, &SigMemo::new(), &obs);
    for (i, &r) in ranks.iter().enumerate() {
        let serial = xtrace::tracer::collect_task_trace(&app, r, 24, &machine, &cfg, None, &obs);
        assert_eq!(parallel[i], serial, "rank {r}");
    }
}
