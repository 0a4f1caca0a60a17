//! Integration tests for the Section-VI extensions through the facade:
//! weak scaling, input-parameter series, full-signature synthesis,
//! whole-application replay, and energy prediction.

use xtrace::apps::{profiling_net, ScalingMode, SpecfemProxy, StencilProxy};
use xtrace::extrap::{
    extrapolate_series, extrapolate_signature, synthesize_full_signature, ExtrapolationConfig,
};
use xtrace::machine::{presets, MachineProfile};
use xtrace::obs::ObsContext;
use xtrace::psins::{
    ground_truth_application, relative_error, try_predict_energy, try_predict_runtime,
    try_replay_groups,
};
use xtrace::spmd::profile;
use xtrace::tracer::{collect_ranks, collect_signature_memo_obs, SigMemo, TracerConfig};

fn small_specfem() -> SpecfemProxy {
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 6144;
    app.cfg.timesteps = 10;
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 500_000;
    app
}

#[test]
fn weak_scaling_extrapolates_nearly_perfectly() {
    let obs = ObsContext::disabled();
    let mut app = small_specfem();
    app.cfg.total_elements = 64; // per-rank under weak scaling
    app.cfg.scaling = ScalingMode::Weak;
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let training: Vec<_> = [6u32, 24, 96]
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &cfg, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();
    let ex = extrapolate_signature(&training, 384, &ExtrapolationConfig::default()).unwrap();
    let coll = collect_signature_memo_obs(&app, 384, &machine, &cfg, &SigMemo::new(), &obs);
    let comm = profile(&app, 384, &profiling_net(), &obs);
    let pe = try_predict_runtime(&ex, &comm, &machine).unwrap();
    let pc = try_predict_runtime(coll.longest_task(), &coll.comm, &machine).unwrap();
    let gap = relative_error(pe.total_seconds, pc.total_seconds);
    assert!(gap < 0.03, "weak-scaling gap {gap}");
}

#[test]
fn series_extrapolation_over_problem_size_via_facade() {
    let obs = ObsContext::disabled();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let p = 24u32;
    let mk = |elements: u64| {
        let mut app = small_specfem();
        app.cfg.total_elements = elements;
        app
    };
    let points: Vec<(f64, _)> = [3072u64, 6144, 12288]
        .iter()
        .map(|&n| {
            let sig = collect_signature_memo_obs(&mk(n), p, &machine, &cfg, &SigMemo::new(), &obs);
            (n as f64, sig.longest_task().clone())
        })
        .collect();
    let ex = extrapolate_series(&points, 49_152.0, &ExtrapolationConfig::default()).unwrap();
    assert_eq!(ex.nranks, p, "core count unchanged on the size axis");
    // Worker counts grow linearly with the mesh: check the stiffness block.
    let coll = collect_signature_memo_obs(&mk(49_152), p, &machine, &cfg, &SigMemo::new(), &obs);
    let e = ex.block("stiffness-matmul").unwrap().instrs[0]
        .features
        .mem_ops;
    let c = coll
        .longest_task()
        .block("stiffness-matmul")
        .unwrap()
        .instrs[0]
        .features
        .mem_ops;
    assert!((e - c).abs() / c < 0.01, "{e} vs {c}");
}

#[test]
fn full_signature_covers_population_and_replays() {
    let app = small_specfem();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let sample: Vec<u32> = (0..6).collect();
    let per_count: Vec<_> = [6u32, 24, 96]
        .iter()
        .map(|&p| {
            (
                p,
                collect_ranks(
                    &app,
                    &sample,
                    p,
                    &machine,
                    &cfg,
                    &SigMemo::new(),
                    &ObsContext::disabled(),
                ),
            )
        })
        .collect();
    let sig =
        synthesize_full_signature(&per_count, 192, 2, &ExtrapolationConfig::default()).unwrap();
    assert_eq!(sig.total_ranks(), 192);
    assert_eq!(sig.groups[0].ranks, 1, "master is an absolute singleton");

    let groups: Vec<_> = sig
        .groups
        .iter()
        .map(|g| (g.trace.clone(), g.ranks))
        .collect();
    let replay = try_replay_groups(&app, 192, &groups, &machine).unwrap();
    let exact = ground_truth_application(&app, 192, &machine, &cfg).unwrap();
    let err = relative_error(replay.total_seconds, exact.total_seconds);
    assert!(
        err < 0.30,
        "replay {} vs exact {} ({err})",
        replay.total_seconds,
        exact.total_seconds
    );
    // The master rank computes more than any worker in the replay.
    assert!(replay.ranks[0].compute_s > 3.0 * replay.ranks[191].compute_s);
}

#[test]
fn energy_extrapolates_with_runtime() {
    let obs = ObsContext::disabled();
    let app = small_specfem();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let training: Vec<_> = [6u32, 24, 96]
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &cfg, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();
    let ex = extrapolate_signature(&training, 384, &ExtrapolationConfig::default()).unwrap();
    let coll = collect_signature_memo_obs(&app, 384, &machine, &cfg, &SigMemo::new(), &obs);
    let comm = profile(&app, 384, &profiling_net(), &obs);
    let e_ex = try_predict_energy(&ex, &comm, &machine).unwrap();
    let e_coll = try_predict_energy(coll.longest_task(), &coll.comm, &machine).unwrap();
    let gap = relative_error(e_ex.total_joules, e_coll.total_joules);
    assert!(gap < 0.05, "energy gap {gap}");
    assert!(e_ex.avg_watts > machine.power.static_watts);
}

#[test]
fn machine_profiles_roundtrip_through_spec_files() {
    let machine = presets::opteron();
    let spec = machine.to_spec();
    let json = serde_json::to_string(&spec).unwrap();
    let reloaded = MachineProfile::from_spec(serde_json::from_str(&json).unwrap()).unwrap();

    // Predictions through the reloaded profile match the original.
    let app = StencilProxy::small();
    let cfg = TracerConfig::fast();
    let sig = collect_signature_memo_obs(
        &app,
        4,
        &machine,
        &cfg,
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let a = try_predict_runtime(sig.longest_task(), &sig.comm, &machine).unwrap();
    let b = try_predict_runtime(sig.longest_task(), &sig.comm, &reloaded).unwrap();
    assert!((a.total_seconds - b.total_seconds).abs() / a.total_seconds < 1e-9);
}
