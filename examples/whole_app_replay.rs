//! Whole-application replay from a synthesized full signature (the
//! Section-VI pipeline end to end): cluster sampled tasks, extrapolate
//! per-group traces and populations, replay every rank through the
//! bulk-synchronous engine, and price the energy budget — all without
//! tracing the target-scale run.
//!
//! Run with: `cargo run --release --example whole_app_replay`

use xtrace::apps::{profiling_net, SpecfemProxy};
use xtrace::extrap::{synthesize_full_signature, ExtrapolationConfig};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::psins::{ground_truth_application, try_predict_energy, try_replay_groups};
use xtrace::spmd::profile;
use xtrace::tracer::{collect_ranks, SigMemo, TracerConfig};

fn main() {
    let obs = ObsContext::disabled();
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 12_288;
    app.cfg.timesteps = 10;
    app.cfg.collect_per_rank = 2048;
    let machine = presets::cray_xt5();
    let tracer = TracerConfig::fast();
    let training = [6u32, 12, 24];
    let target = 96u32;
    let sample: Vec<u32> = (0..6).collect();

    println!("whole-application replay: SPECFEM3D proxy, {training:?} -> {target} cores\n");

    // 1. Sample and trace a handful of tasks per training count.
    let per_count: Vec<_> = training
        .iter()
        .map(|&p| {
            (
                p,
                collect_ranks(&app, &sample, p, &machine, &tracer, &SigMemo::new(), &obs),
            )
        })
        .collect();

    // 2. Synthesize the full signature: per-group traces + populations.
    let sig = synthesize_full_signature(&per_count, target, 2, &ExtrapolationConfig::default())
        .expect("synthesis succeeds");
    for (i, g) in sig.groups.iter().enumerate() {
        println!(
            "group {i}: {} ranks, {:.3e} memory ops",
            g.ranks,
            g.trace.total_mem_ops()
        );
    }

    // 3. Replay all ranks through the BSP engine with per-group times.
    let groups: Vec<_> = sig
        .groups
        .iter()
        .map(|g| (g.trace.clone(), g.ranks))
        .collect();
    let replay = try_replay_groups(&app, target, &groups, &machine).unwrap();
    let exact = ground_truth_application(&app, target, &machine, &tracer).unwrap();
    println!(
        "\nreplay prediction: {:.4} s  (exact whole-app measurement: {:.4} s)",
        replay.total_seconds, exact.total_seconds
    );
    println!(
        "per-rank view: master finishes compute in {:.4} s, a worker in {:.4} s",
        replay.ranks[0].compute_s,
        replay.ranks[target as usize - 1].compute_s
    );

    // 4. Energy budget of the master task at scale, from the same
    //    synthetic signature.
    let comm = profile(&app, target, &profiling_net(), &obs);
    let energy = try_predict_energy(sig.longest(), &comm, &machine).unwrap();
    println!(
        "\nmaster-task energy at {target} cores: {:.2} J total ({:.2} J memory, \
         {:.2} J fp, avg {:.1} W)",
        energy.total_joules, energy.memory_joules, energy.fp_joules, energy.avg_watts
    );
}
