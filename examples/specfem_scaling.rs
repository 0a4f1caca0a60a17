//! SPECFEM3D-proxy scaling study: the Table I workflow end to end, at a
//! laptop-friendly scale.
//!
//! Traces the proxy at three small core counts, extrapolates to a 4× larger
//! one, and compares runtime predictions from the extrapolated and the
//! collected traces against the execution-driven measurement — including
//! the per-element error audit (the paper's "<20% for all influential
//! instructions" claim).
//!
//! Run with: `cargo run --release --example specfem_scaling`

use xtrace::apps::{profiling_net, SpecfemProxy};
use xtrace::extrap::{element_errors, extrapolate_signature, summarize, ExtrapolationConfig};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::psins::{ground_truth, relative_error, try_predict_runtime};
use xtrace::spmd::profile;
use xtrace::tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

fn main() {
    let obs = ObsContext::disabled();
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 6144;
    app.cfg.timesteps = 50;
    // Scale the master-rank responsibilities so they dominate the longest
    // task at the target count, as in the full-scale configuration (the
    // worker kernels then fall below the influence threshold).
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 500_000;
    let machine = presets::bluewaters_phase1();
    let tracer_cfg = TracerConfig::default();
    let training = [6u32, 24, 96];
    let target = 384u32;

    println!("SPECFEM3D proxy, strong scaling {training:?} -> {target} cores");
    println!("target machine: {}\n", machine.name);

    let traces: Vec<_> = training
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &tracer_cfg, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();

    let cfg = ExtrapolationConfig::default();
    let extrapolated = extrapolate_signature(&traces, target, &cfg).expect("valid training");

    let collected_sig =
        collect_signature_memo_obs(&app, target, &machine, &tracer_cfg, &SigMemo::new(), &obs);
    let collected = collected_sig.longest_task();
    let comm = profile(&app, target, &profiling_net(), &obs);

    let pred_e = try_predict_runtime(&extrapolated, &comm, &machine).unwrap();
    let pred_c = try_predict_runtime(collected, &comm, &machine).unwrap();
    let measured = ground_truth(&app, target, &machine, &tracer_cfg, &obs);

    println!(
        "{:<14} {:>6} {:>8} {:>14} {:>9}",
        "application", "cores", "trace", "runtime (s)", "% error"
    );
    for (label, pred) in [("Extrap.", &pred_e), ("Coll.", &pred_c)] {
        println!(
            "{:<14} {:>6} {:>8} {:>14.3} {:>8.1}%",
            "SPECFEM3D",
            target,
            label,
            pred.total_seconds,
            100.0 * relative_error(pred.total_seconds, measured.total_seconds)
        );
    }
    println!("measured runtime: {:.3} s", measured.total_seconds);

    // Element-level audit.
    let errors = element_errors(&extrapolated, collected);
    let summary = summarize(&errors, cfg.influence_threshold);
    println!(
        "\nelement audit: {} elements, {} influential (>= {:.1}% of ops)",
        summary.n_total,
        summary.n_influential,
        100.0 * cfg.influence_threshold
    );
    println!(
        "  influential: max err {:.1}%, mean err {:.2}%, {:.1}% of elements under 20%",
        100.0 * summary.max_rel_err_influential,
        100.0 * summary.mean_rel_err_influential,
        100.0 * summary.frac_influential_under_20pct
    );
    println!(
        "  all elements: max err {:.1}% (high errors concentrate in non-influential instructions)",
        100.0 * summary.max_rel_err_all
    );
}
