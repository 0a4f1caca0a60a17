//! **Ablation: single-task vs clustered extrapolation (Section VI).**
//!
//! The paper extrapolates only the most computationally demanding task and
//! suggests k-means clustering of tasks as future work: "cluster MPI-tasks
//! with similar properties and then use the 'centroid' file from each
//! cluster as a base to extrapolate." This ablation compares the two on
//! the SPECFEM3D proxy, whose population genuinely has two behaviours
//! (master vs workers).
//!
//! Run with: `cargo run --release -p xtrace-bench --bin ablation_clustering`

use xtrace_apps::{profiling_net, SpecfemProxy};
use xtrace_bench::print_header;
use xtrace_extrap::{
    cluster_tasks, extrapolate_clusters, extrapolate_signature, ExtrapolationConfig,
};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_psins::{relative_error, try_predict_runtime};
use xtrace_spmd::profile;
use xtrace_tracer::{collect_ranks, collect_signature_memo_obs, SigMemo, TracerConfig};

fn main() {
    let obs = ObsContext::disabled();
    // A mid-scale configuration so tracing a dozen ranks per count stays
    // quick.
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 49_152;
    app.cfg.timesteps = 20;
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 1_000_000;
    let machine = presets::cray_xt5();
    let tracer = TracerConfig::default();
    let training = [24u32, 96, 384];
    let target = 1536u32;
    let sample_ranks: Vec<u32> = (0..12).collect();
    let cfg = ExtrapolationConfig::default();

    println!(
        "Ablation: longest-task vs k-means clustered extrapolation\n\
         SPECFEM3D proxy, {training:?} -> {target} cores, 12 tasks traced per count\n"
    );

    // Cluster structure at the largest training count.
    let traces_at_384 = collect_ranks(
        &app,
        &sample_ranks,
        384,
        &machine,
        &tracer,
        &SigMemo::new(),
        &obs,
    );
    let clustering = cluster_tasks(&traces_at_384, 2);
    println!(
        "cluster structure at 384 cores: master cluster {{rank 0}} alone = {}",
        clustering.members(clustering.assignments[0]) == vec![0]
    );

    // Reference: collected trace at the target.
    let collected =
        collect_signature_memo_obs(&app, target, &machine, &tracer, &SigMemo::new(), &obs);
    let comm = profile(&app, target, &profiling_net(), &obs);
    let p_coll = try_predict_runtime(collected.longest_task(), &collected.comm, &machine).unwrap();

    // Variant A: the paper's methodology (longest task only).
    let longest: Vec<_> = training
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &tracer, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();
    let ex_single = extrapolate_signature(&longest, target, &cfg).expect("valid ladder");
    let p_single = try_predict_runtime(&ex_single, &comm, &machine).unwrap();

    // Variant B: per-cluster extrapolation; the heaviest cluster's trace
    // plays the longest-task role.
    let per_count: Vec<_> = training
        .iter()
        .map(|&p| {
            (
                p,
                collect_ranks(
                    &app,
                    &sample_ranks,
                    p,
                    &machine,
                    &tracer,
                    &SigMemo::new(),
                    &obs,
                ),
            )
        })
        .collect();
    for k in [2usize, 4] {
        let clustered =
            extrapolate_clusters(&per_count, target, k, &cfg).expect("cluster extrapolation");
        let p_clustered = try_predict_runtime(&clustered[0], &comm, &machine).unwrap();
        println!(
            "k = {k}: {} clusters extrapolated; heaviest-cluster prediction {:.3} s",
            clustered.len(),
            p_clustered.total_seconds
        );
    }

    println!();
    print_header(
        &["method", "predicted (s)", "vs collected %"],
        &[22, 13, 14],
    );
    println!(
        "{:>22}  {:>13.3}  {:>13.2}",
        "longest task (paper)",
        p_single.total_seconds,
        100.0 * relative_error(p_single.total_seconds, p_coll.total_seconds)
    );
    let clustered = extrapolate_clusters(&per_count, target, 2, &cfg).unwrap();
    let p_clustered = try_predict_runtime(&clustered[0], &comm, &machine).unwrap();
    println!(
        "{:>22}  {:>13.3}  {:>13.2}",
        "k-means centroid (k=2)",
        p_clustered.total_seconds,
        100.0 * relative_error(p_clustered.total_seconds, p_coll.total_seconds)
    );
    println!(
        "{:>22}  {:>13.3}  {:>13}",
        "collected trace", p_coll.total_seconds, "-"
    );

    println!(
        "\nexpected shape: with a master/worker population the heaviest cluster's\n\
         centroid IS the longest task, so both methods agree at the application\n\
         level — but the clustered variant additionally yields a worker-cluster\n\
         trace, the per-group signature the paper wants for synthesizing all P\n\
         trace files instead of just one."
    );
}
