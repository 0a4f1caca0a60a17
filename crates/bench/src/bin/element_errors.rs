//! **Section IV accuracy claim** — "every extrapolated element within all
//! of the influential instructions had an absolute relative error of less
//! than 20%", with influence defined as the instruction's share of the
//! task's memory operations (FP operations for memory-free instructions)
//! and a 0.1% threshold.
//!
//! This binary extrapolates both paper-scale applications to their target
//! counts, collects real traces there, and audits every element.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin element_errors`

use xtrace_bench::{
    paper_specfem, paper_tracer, paper_uh3d, print_header, run_with_fits, target_machine,
    SPECFEM_TARGET, SPECFEM_TRAINING, UH3D_TARGET, UH3D_TRAINING,
};
use xtrace_extrap::{element_errors, summarize, ExtrapolationConfig};
use xtrace_obs::ObsContext;
use xtrace_spmd::SpmdApp;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn audit(app: &dyn SpmdApp, training: &[u32], target: u32) {
    let machine = target_machine();
    let tracer = paper_tracer();
    let cfg = ExtrapolationConfig::default();
    let (_t, extrapolated, _fits) = run_with_fits(app, training, target, &machine, &tracer, &cfg);
    let collected = collect_signature_memo_obs(
        app,
        target,
        &machine,
        &tracer,
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let errors = element_errors(&extrapolated, collected.longest_task());
    let s = summarize(&errors, cfg.influence_threshold);

    println!(
        "\n== {} @ {target} cores (trained on {training:?}) ==",
        app.name()
    );
    println!("elements compared:        {:>8}", s.n_total);
    println!("influential elements:     {:>8}", s.n_influential);
    println!(
        "influential max error:    {:>7.2}%",
        100.0 * s.max_rel_err_influential
    );
    println!(
        "influential mean error:   {:>7.2}%",
        100.0 * s.mean_rel_err_influential
    );
    println!(
        "influential under 20%:    {:>7.1}%",
        100.0 * s.frac_influential_under_20pct
    );
    println!(
        "max error (all elements): {:>7.1}%",
        100.0 * s.max_rel_err_all
    );

    // Worst influential offenders, for inspection.
    let mut influential: Vec<_> = errors
        .iter()
        .filter(|e| e.influence >= cfg.influence_threshold)
        .collect();
    influential.sort_by(|a, b| b.rel_err.partial_cmp(&a.rel_err).expect("finite"));
    println!("\nworst influential elements:");
    print_header(
        &["block", "instr", "element", "expected", "got", "err %"],
        &[20, 5, 14, 11, 11, 7],
    );
    for e in influential.iter().take(5) {
        println!(
            "{:>20}  {:>5}  {:>14}  {:>11.3e}  {:>11.3e}  {:>6.1}%",
            e.block,
            e.instr,
            e.feature.label(),
            e.expected,
            e.got,
            100.0 * e.rel_err
        );
    }
}

fn main() {
    println!(
        "Section IV element-error audit (paper: every influential element < 20%,\n\
         higher errors only on instructions below the 0.1% influence threshold)"
    );
    audit(&paper_specfem(), &SPECFEM_TRAINING, SPECFEM_TARGET);
    audit(&paper_uh3d(), &UH3D_TRAINING, UH3D_TARGET);
}
