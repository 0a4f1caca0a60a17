//! **Extension: input-parameter sensitivity (Section VI).**
//!
//! "One could attempt to determine how working set size of a computational
//! phase is affected by the size or composition of an input file … a
//! plausible approach is to employ the same scaling and extrapolating
//! strategies used in this work to capture and model how changes in input
//! set parameters changes the feature vectors."
//!
//! Here the abscissa is the SPECFEM3D proxy's *mesh size* at a fixed core
//! count, in two regimes:
//!
//! * **within-regime** — training footprints already exceed the last-level
//!   cache, so hit rates are stable and the linear growth of the worker
//!   kernels extrapolates cleanly to a 4× mesh;
//! * **across a cache cliff** — the target mesh pushes the per-task
//!   footprint past L3 *outside* the training range. No canonical form can
//!   anticipate a regime change it never saw: the hit-rate elements
//!   extrapolate smoothly while the truth falls off a cliff. This is the
//!   concrete "additional challenge" the paper's future-work section
//!   gestures at.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin input_sensitivity`

use xtrace_apps::{profiling_net, SpecfemProxy};
use xtrace_bench::{paper_tracer, print_header};
use xtrace_extrap::{extrapolate_series, CanonicalForm, ExtrapolationConfig};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_psins::{relative_error, try_predict_runtime};
use xtrace_spmd::profile;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn app_with_mesh(elements: u64) -> SpecfemProxy {
    let mut app = SpecfemProxy::paper_scale();
    app.cfg.total_elements = elements;
    app
}

/// Returns (application-level gap, stiffness-kernel gap).
fn run_scenario(label: &str, train_sizes: [u64; 3], target_size: u64, p: u32) -> (f64, f64) {
    let machine = presets::cray_xt5();
    let tracer = paper_tracer();
    let points: Vec<(f64, xtrace_tracer::TaskTrace)> = train_sizes
        .iter()
        .map(|&n| {
            let sig = collect_signature_memo_obs(
                &app_with_mesh(n),
                p,
                &machine,
                &tracer,
                &SigMemo::new(),
                &ObsContext::disabled(),
            );
            (n as f64, sig.longest_task().clone())
        })
        .collect();

    // The worker kernels grow linearly with the mesh and the boundary work
    // as a power of it, so add the power form. NOT the quadratic: it
    // interpolates three points exactly and extrapolates wildly (see
    // ablation_forms).
    let cfg = ExtrapolationConfig {
        forms: vec![
            CanonicalForm::Constant,
            CanonicalForm::Linear,
            CanonicalForm::Logarithmic,
            CanonicalForm::Exponential,
            CanonicalForm::Power,
        ],
        ..ExtrapolationConfig::default()
    };
    let extrapolated = extrapolate_series(&points, target_size as f64, &cfg).expect("valid series");

    let target_app = app_with_mesh(target_size);
    let collected = collect_signature_memo_obs(
        &target_app,
        p,
        &machine,
        &tracer,
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let comm = profile(&target_app, p, &profiling_net(), &ObsContext::disabled());
    let pe = try_predict_runtime(&extrapolated, &comm, &machine).unwrap();
    let pc = try_predict_runtime(collected.longest_task(), &collected.comm, &machine).unwrap();

    println!("\n-- {label} --");
    print_header(&["mesh elements", "trace", "runtime (s)"], &[13, 8, 12]);
    for (&n, (_, t)) in train_sizes.iter().zip(&points) {
        let a = app_with_mesh(n);
        let comm = profile(&a, p, &profiling_net(), &ObsContext::disabled());
        let pr = try_predict_runtime(t, &comm, &machine).unwrap();
        println!("{:>13}  {:>8}  {:>12.2}", n, "Coll.", pr.total_seconds);
    }
    println!(
        "{:>13}  {:>8}  {:>12.2}",
        target_size, "Extrap.", pe.total_seconds
    );
    println!(
        "{:>13}  {:>8}  {:>12.2}",
        target_size, "Coll.", pc.total_seconds
    );
    let gap = relative_error(pe.total_seconds, pc.total_seconds);
    println!("extrapolated-vs-collected gap: {:.2}%", 100.0 * gap);
    // The mesh-scaled kernel is where a locality-regime change shows up;
    // the master-rank work is mesh-independent and dilutes the total.
    let kernel = "stiffness-matmul";
    let ke = pe.per_block.iter().find(|b| b.name == kernel).unwrap();
    let kc = pc.per_block.iter().find(|b| b.name == kernel).unwrap();
    let kgap = relative_error(ke.combined_s, kc.combined_s);
    println!(
        "`{kernel}` block: {:.2} s extrapolated vs {:.2} s collected (gap {:.1}%)",
        ke.combined_s,
        kc.combined_s,
        100.0 * kgap
    );
    (gap, kgap)
}

fn main() {
    let p = 384u32;
    println!(
        "Section VI extension: input-parameter extrapolation\n\
         SPECFEM3D proxy at a fixed {p} cores; abscissa = mesh elements"
    );

    // Training footprints already past the 8 MB L3: hit rates stable,
    // counts linear in the mesh -> clean extrapolation.
    let (within_total, within_kernel) = run_scenario(
        "within-regime (all sizes past the L3 capacity)",
        [1_769_472, 3_538_944, 7_077_888],
        28_311_552,
        p,
    );

    // The target mesh crosses the L3 boundary outside the training range:
    // training footprints 1.7-6.9 MB are cache-resident, the 27.6 MB
    // target is not. The mesh-independent master work dilutes the total,
    // so the damage concentrates in the mesh-scaled kernel.
    let (_cliff_total, cliff_kernel) = run_scenario(
        "across the cache cliff (target leaves the trained regime)",
        [221_184, 442_368, 884_736],
        3_538_944,
        p,
    );

    println!(
        "\nthe per-element machinery extrapolates over any scalar input knob,\n\
         but only within a locality regime: counts grow linearly with the mesh\n\
         and fit exactly, while hit-rate cliffs the training range never saw\n\
         cannot be anticipated by any canonical form — the concrete challenge\n\
         behind the paper's input-sensitivity future work."
    );
    assert!(
        within_total < 0.2,
        "within-regime input extrapolation should track collected ({within_total})"
    );
    assert!(
        cliff_kernel > 2.0 * within_kernel.max(0.01),
        "the cliff should hit the mesh-scaled kernel hard ({cliff_kernel} vs {within_kernel})"
    );
}
