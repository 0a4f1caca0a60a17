//! **Extension: energy at scale from extrapolated traces.**
//!
//! The paper motivates its feature set as "important for both performance
//! and energy" (Section I); the surrounding PMaC work convolves the same
//! signatures with per-operation energy costs. This experiment predicts the
//! longest task's energy budget at the target scale from the extrapolated
//! trace and validates it against the collected-trace prediction — the
//! Table-I comparison, for joules.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin energy`

use xtrace_bench::{
    paper_specfem, paper_tracer, paper_uh3d, print_header, target_machine, training_traces,
    SPECFEM_TARGET, SPECFEM_TRAINING, UH3D_TARGET, UH3D_TRAINING,
};
use xtrace_core::PipelineApp;
use xtrace_extrap::{extrapolate_signature, ExtrapolationConfig};
use xtrace_obs::ObsContext;
use xtrace_psins::{relative_error, try_predict_energy};
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn run(app: &dyn PipelineApp, training: &[u32], target: u32) {
    let obs = ObsContext::disabled();
    let machine = target_machine();
    let tracer = paper_tracer();
    let spmd = app.spmd();
    let traces = training_traces(spmd, training, &machine, &tracer);
    let extrapolated =
        extrapolate_signature(&traces, target, &ExtrapolationConfig::default()).unwrap();
    let collected =
        collect_signature_memo_obs(spmd, target, &machine, &tracer, &SigMemo::new(), &obs);
    let comm = app.comm_obs(target, &obs);

    let e_ex = try_predict_energy(&extrapolated, &comm, &machine).unwrap();
    let e_coll = try_predict_energy(collected.longest_task(), &collected.comm, &machine).unwrap();

    println!("\n== {} @ {target} cores ==", spmd.name());
    print_header(
        &[
            "trace",
            "memory (J)",
            "fp (J)",
            "comm (J)",
            "static (J)",
            "total (J)",
            "avg W",
        ],
        &[8, 10, 8, 8, 10, 10, 6],
    );
    for (label, e) in [("Extrap.", &e_ex), ("Coll.", &e_coll)] {
        println!(
            "{:>8}  {:>10.1}  {:>8.1}  {:>8.2}  {:>10.1}  {:>10.1}  {:>6.1}",
            label,
            e.memory_joules,
            e.fp_joules,
            e.comm_joules,
            e.static_joules,
            e.total_joules,
            e.avg_watts
        );
    }
    println!(
        "extrapolated-vs-collected energy gap: {:.2}%",
        100.0 * relative_error(e_ex.total_joules, e_coll.total_joules)
    );
}

fn main() {
    println!(
        "Energy-at-scale from extrapolated signatures (per-task budget on {})",
        target_machine().name
    );
    run(&paper_specfem(), &SPECFEM_TRAINING, SPECFEM_TARGET);
    run(&paper_uh3d(), &UH3D_TRAINING, UH3D_TARGET);
    println!(
        "\nthe same synthetic feature vectors that predict runtime predict the\n\
         energy budget: counts drive dynamic energy, hit rates apportion memory\n\
         references to per-level costs, and the runtime prediction integrates\n\
         the static floor."
    );
}
