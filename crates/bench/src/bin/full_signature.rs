//! **Extension: full-signature synthesis (Section VI).**
//!
//! The paper's methodology synthesizes one trace file (the longest
//! task's); its future work wants all P of them: "for a run at 1024 cores
//! the prediction framework uses 1024 trace files … we believe that we can
//! improve the accuracy of the synthetic traces by using clustering
//! algorithms." This experiment samples tasks at each training count,
//! clusters them, extrapolates each cluster's centroid trace *and its
//! population fraction*, and reports the synthesized whole-application
//! signature at the target.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin full_signature`

use xtrace_apps::{profiling_net, SpecfemProxy};
use xtrace_bench::{paper_tracer, print_header};
use xtrace_extrap::{synthesize_full_signature, ExtrapolationConfig};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_psins::{
    ground_truth, ground_truth_application, relative_error, try_predict_runtime, try_replay_groups,
};
use xtrace_spmd::profile;
use xtrace_tracer::{collect_ranks, collect_signature_memo_obs, SigMemo};

fn main() {
    let obs = ObsContext::disabled();
    // Mid-scale configuration: a dozen traced ranks per count stays fast.
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 49_152;
    app.cfg.timesteps = 20;
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 1_000_000;
    let machine = presets::cray_xt5();
    // One consistent sampling budget for every measurement in this
    // experiment (the exact whole-application validation executes all 384
    // ranks, so the full paper-scale budget would be needlessly slow).
    let tracer = xtrace_tracer::TracerConfig {
        max_sampled_refs_per_block: 1 << 19,
        ..paper_tracer()
    };
    let training = [6u32, 24, 96];
    let target = 384u32;
    let sample: Vec<u32> = (0..6).collect();

    println!(
        "Section VI extension: whole-signature synthesis\n\
         SPECFEM3D proxy, {training:?} -> {target} cores, {} tasks sampled per count\n",
        sample.len()
    );

    let per_count: Vec<_> = training
        .iter()
        .map(|&p| {
            (
                p,
                collect_ranks(&app, &sample, p, &machine, &tracer, &SigMemo::new(), &obs),
            )
        })
        .collect();
    let sig = synthesize_full_signature(&per_count, target, 2, &ExtrapolationConfig::default())
        .expect("synthesis succeeds");

    println!("synthesized signature groups at {target} cores:");
    print_header(
        &["group", "ranks", "mem ops", "fractions@training"],
        &[6, 6, 11, 22],
    );
    for (i, g) in sig.groups.iter().enumerate() {
        println!(
            "{:>6}  {:>6}  {:>11.3e}  {:>22}",
            i,
            g.ranks,
            g.trace.total_mem_ops(),
            format!("{:?}", g.training_fractions)
        );
    }
    assert_eq!(sig.total_ranks(), u64::from(target));

    // Validate the heaviest group against the longest-task methodology and
    // the collected trace.
    let collected =
        collect_signature_memo_obs(&app, target, &machine, &tracer, &SigMemo::new(), &obs);
    let comm = profile(&app, target, &profiling_net(), &obs);
    let p_group = try_predict_runtime(sig.longest(), &comm, &machine).unwrap();
    let p_coll = try_predict_runtime(collected.longest_task(), &collected.comm, &machine).unwrap();
    println!(
        "\nheaviest-group prediction: {:.3} s (collected trace: {:.3} s, gap {:.2}%)",
        p_group.total_seconds,
        p_coll.total_seconds,
        100.0 * relative_error(p_group.total_seconds, p_coll.total_seconds)
    );

    // The worker group predicts the *other* ranks' compute — information the
    // single-task methodology cannot provide.
    let worker = &sig.groups[1];
    let p_worker = try_predict_runtime(&worker.trace, &comm, &machine).unwrap();
    println!(
        "worker-group ({} ranks) compute prediction: {:.3} s",
        worker.ranks, p_worker.compute_seconds
    );

    // Full PSiNS-style replay: every rank charged from its group's
    // convolved block times, the BSP engine replaying synchronization.
    // Validated against the exact whole-application measurement — one exact
    // execution per rank, so use the light sampling configuration.
    let groups: Vec<_> = sig
        .groups
        .iter()
        .map(|g| (g.trace.clone(), g.ranks))
        .collect();
    let replay = try_replay_groups(&app, target, &groups, &machine).unwrap();
    let exact = ground_truth_application(&app, target, &machine, &tracer).unwrap();
    let serial = ground_truth(&app, target, &machine, &tracer, &obs);
    println!(
        "\nwhole-application replay at {target} cores (every rank charged from\n\
         its group's synthetic trace, synchronization replayed):"
    );
    println!(
        "  replay prediction:            {:.3} s (err {:.2}% vs exact replay)",
        replay.total_seconds,
        100.0 * relative_error(replay.total_seconds, exact.total_seconds)
    );
    println!(
        "  exact whole-app replay:       {:.3} s (all {target} ranks executed)",
        exact.total_seconds
    );
    println!(
        "  longest-task serial estimate: {:.3} s (compute + summed comm, no overlap)",
        serial.total_seconds
    );
    println!(
        "  -> replay and serial estimates agree with each other; the error vs the\n\
         exact measurement is the convolution's surface-bucketing modeling error\n\
         on this configuration's mixed (resident-plus-random) master blocks —\n\
         within the PMaC framework's documented \"usually less than 15%\" band."
    );
    println!(
        "\nthe per-group view is what the paper's future work asks for: full\n\
         replay, load-imbalance analysis, and per-group energy, without tracing\n\
         {target} ranks."
    );
}
