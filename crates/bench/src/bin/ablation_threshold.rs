//! **Ablation: influence threshold.**
//!
//! Section IV fixes the influence cutoff at 0.1% of the task's memory (or
//! FP) operations and reports that every element above it extrapolates
//! within 20%. This ablation sweeps the threshold to show the trade-off it
//! encodes: lower thresholds audit more elements (and start admitting the
//! poorly-extrapolating strong-scaled ones); higher thresholds audit fewer.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin ablation_threshold`

use xtrace_bench::{
    paper_tracer, paper_uh3d, print_header, run_with_fits, target_machine, UH3D_TARGET,
    UH3D_TRAINING,
};
use xtrace_extrap::{element_errors, summarize, ExtrapolationConfig};
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn main() {
    let app = paper_uh3d();
    let machine = target_machine();
    let tracer = paper_tracer();
    let cfg = ExtrapolationConfig::default();

    let (_t, extrapolated, _f) =
        run_with_fits(&app, &UH3D_TRAINING, UH3D_TARGET, &machine, &tracer, &cfg);
    let collected = collect_signature_memo_obs(
        &app,
        UH3D_TARGET,
        &machine,
        &tracer,
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let errors = element_errors(&extrapolated, collected.longest_task());

    println!(
        "Ablation: influence threshold, UH3D @ {UH3D_TARGET} cores\n\
         (paper uses 0.1%: every element above it within 20%)\n"
    );
    print_header(
        &[
            "threshold",
            "influential",
            "max err %",
            "mean err %",
            "under 20%",
        ],
        &[9, 11, 9, 10, 9],
    );

    for thr in [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
        let s = summarize(&errors, thr);
        println!(
            "{:>9}  {:>11}  {:>9.1}  {:>10.2}  {:>8.1}%",
            format!("{:.3}%", 100.0 * thr),
            s.n_influential,
            100.0 * s.max_rel_err_influential,
            100.0 * s.mean_rel_err_influential,
            100.0 * s.frac_influential_under_20pct
        );
    }

    println!(
        "\nexpected shape: at and above the paper's 0.1% cutoff all audited\n\
         elements are within 20%; pushing the cutoff toward zero sweeps in the\n\
         strong-scaled (1/P) elements whose decay the four forms cannot track —\n\
         \"most of the elements that had higher error in the fit were from\n\
         instructions that didn't have a significant influence\"."
    );
}
