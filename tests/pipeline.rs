//! End-to-end pipeline integration: trace → fit → extrapolate → predict,
//! across crates, at laptop scale.

use xtrace::apps::{profiling_net, SpecfemProxy, StencilProxy, Uh3dProxy};
use xtrace::core::{Pipeline, PipelineConfig};
use xtrace::extrap::{
    element_errors, extrapolate_signature, fit_signature_obs, summarize, synthesize_from_fit,
    CanonicalForm, ExtrapolationConfig,
};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::psins::{ground_truth, relative_error, try_predict_runtime};
use xtrace::spmd::{profile, SpmdApp};
use xtrace::tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

fn small_specfem() -> SpecfemProxy {
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 6144;
    app.cfg.timesteps = 10;
    app.cfg.collect_per_rank = 4096;
    app.cfg.source_iters = 500_000;
    app
}

#[test]
fn specfem_pipeline_extrapolated_matches_collected_prediction() {
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
    let extrapolated =
        extrapolate_signature(&training, 384, &ExtrapolationConfig::default()).unwrap();

    let collected = collect_signature_memo_obs(&app, 384, &machine, &cfg, &SigMemo::new(), &obs);
    let comm = profile(&app, 384, &profiling_net(), &obs);
    let pe = try_predict_runtime(&extrapolated, &comm, &machine).unwrap();
    let pc = try_predict_runtime(collected.longest_task(), &collected.comm, &machine).unwrap();

    let gap = relative_error(pe.total_seconds, pc.total_seconds);
    assert!(
        gap < 0.05,
        "extrapolated vs collected predictions diverge: {} vs {} ({gap})",
        pe.total_seconds,
        pc.total_seconds
    );
}

#[test]
fn specfem_prediction_tracks_measured_runtime() {
    let obs = ObsContext::disabled();
    let app = small_specfem();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let sig = collect_signature_memo_obs(&app, 96, &machine, &cfg, &SigMemo::new(), &obs);
    let pred = try_predict_runtime(sig.longest_task(), &sig.comm, &machine).unwrap();
    let measured = ground_truth(&app, 96, &machine, &cfg, &obs);
    let err = relative_error(pred.total_seconds, measured.total_seconds);
    assert!(
        err < 0.20,
        "prediction {} vs measured {} (err {err})",
        pred.total_seconds,
        measured.total_seconds
    );
}

#[test]
fn uh3d_pipeline_runs_and_log_block_extrapolates_exactly() {
    let obs = ObsContext::disabled();
    let mut app = Uh3dProxy::small();
    app.cfg.total_particles = 1 << 14;
    app.cfg.grid_cells = 1 << 13;
    app.cfg.sort_base = 512;
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let training: Vec<_> = [8u32, 16, 32]
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &cfg, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();
    let fit = fit_signature_obs(&training, 64, &ExtrapolationConfig::default(), &obs).unwrap();
    let extrapolated = synthesize_from_fit(&fit);

    // The particle-sort trip count is exactly sort_base * log2(P) at
    // power-of-two counts, so the log form must win and extrapolate with
    // zero error.
    let sort_fit = fit
        .fits
        .iter()
        .find(|f| {
            f.block == "particle-sort"
                && f.feature == xtrace::tracer::FeatureId::MemOps
                && f.values[0] > 0.0
        })
        .expect("sort block memops fit exists");
    assert_eq!(sort_fit.model.form, CanonicalForm::Logarithmic);

    let collected = collect_signature_memo_obs(&app, 64, &machine, &cfg, &SigMemo::new(), &obs);
    let sort_extrap = extrapolated.block("particle-sort").unwrap();
    let sort_coll = collected.longest_task().block("particle-sort").unwrap();
    let rel = (sort_extrap.instrs[0].features.mem_ops - sort_coll.instrs[0].features.mem_ops).abs()
        / sort_coll.instrs[0].features.mem_ops;
    assert!(
        rel < 1e-6,
        "log-block counts extrapolate exactly, got {rel}"
    );
}

#[test]
fn influential_element_errors_stay_bounded() {
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
    let errors = element_errors(&ex, coll.longest_task());
    let summary = summarize(&errors, 0.001);
    assert!(summary.n_influential > 0);
    assert!(summary.n_influential < summary.n_total);
    assert!(
        summary.frac_influential_under_20pct > 0.9,
        "only {}% of influential elements under 20%",
        100.0 * summary.frac_influential_under_20pct
    );
}

#[test]
fn engine_matches_manual_composition_bit_for_bit() {
    let obs = ObsContext::disabled();
    // The staged engine must be a pure refactor of the hand-written
    // pipeline: same traces in, bit-identical prediction out.
    let mut cfg = PipelineConfig::new("specfem3d", "cray-xt5", vec![6, 24, 96], 384);
    cfg.scale = "tiny".into();
    cfg.fast_tracer = true;
    cfg.validate = false;
    let report = Pipeline::new(cfg).unwrap().run().unwrap();

    let app = small_specfem();
    let machine = presets::cray_xt5();
    let tcfg = TracerConfig::fast();
    let training: Vec<_> = [6u32, 24, 96]
        .iter()
        .map(|&p| {
            collect_signature_memo_obs(&app, p, &machine, &tcfg, &SigMemo::new(), &obs)
                .longest_task()
                .clone()
        })
        .collect();
    let extrapolated =
        extrapolate_signature(&training, 384, &ExtrapolationConfig::default()).unwrap();
    let comm = profile(&app, 384, &profiling_net(), &obs);
    let manual = try_predict_runtime(&extrapolated, &comm, &machine).unwrap();

    assert_eq!(report.extrapolated, extrapolated);
    assert_eq!(report.prediction.total_seconds, manual.total_seconds);
    assert_eq!(report.prediction.per_block, manual.per_block);
}

#[test]
fn whole_pipeline_is_deterministic() {
    let obs = ObsContext::disabled();
    let app = StencilProxy::small();
    let machine = presets::opteron();
    let cfg = TracerConfig::fast();
    let run = || {
        let training: Vec<_> = [2u32, 4, 8]
            .iter()
            .map(|&p| {
                collect_signature_memo_obs(&app, p, &machine, &cfg, &SigMemo::new(), &obs)
                    .longest_task()
                    .clone()
            })
            .collect();
        let ex = extrapolate_signature(&training, 32, &ExtrapolationConfig::default()).unwrap();
        let comm = profile(&app, 32, &profiling_net(), &obs);
        try_predict_runtime(&ex, &comm, &machine)
            .unwrap()
            .total_seconds
    };
    assert_eq!(run(), run());
}

#[test]
fn signatures_transfer_across_target_machines() {
    let obs = ObsContext::disabled();
    // Cross-architecture workflow: the same app traced against different
    // target hierarchies yields different hit rates and predictions.
    let app = StencilProxy::medium();
    let cfg = TracerConfig::fast();
    let m_small = presets::opteron(); // 1 MB L2, 2 levels
    let m_big = presets::cray_xt5(); // 8 MB L3, 3 levels
    let s_small = collect_signature_memo_obs(&app, 8, &m_small, &cfg, &SigMemo::new(), &obs);
    let s_big = collect_signature_memo_obs(&app, 8, &m_big, &cfg, &SigMemo::new(), &obs);
    assert_eq!(s_small.longest_task().depth, 2);
    assert_eq!(s_big.longest_task().depth, 3);
    let p_small = try_predict_runtime(s_small.longest_task(), &s_small.comm, &m_small).unwrap();
    let p_big = try_predict_runtime(s_big.longest_task(), &s_big.comm, &m_big).unwrap();
    assert!(p_small.total_seconds > 0.0 && p_big.total_seconds > 0.0);
    assert_ne!(p_small.total_seconds, p_big.total_seconds);
}

#[test]
fn every_proxy_app_traces_on_every_preset() {
    let cfg = TracerConfig::fast();
    let apps: Vec<Box<dyn SpmdApp>> = vec![
        Box::new(SpecfemProxy::small()),
        Box::new(Uh3dProxy::small()),
        Box::new(StencilProxy::small()),
    ];
    for machine in presets::all() {
        for app in &apps {
            let sig = collect_signature_memo_obs(
                app.as_ref(),
                4,
                &machine,
                &cfg,
                &SigMemo::new(),
                &ObsContext::disabled(),
            );
            let t = sig.longest_task();
            assert!(!t.blocks.is_empty(), "{} on {}", app.name(), machine.name);
            assert!(t.total_mem_ops() > 0.0);
            for b in &t.blocks {
                for i in &b.instrs {
                    for l in 0..t.depth {
                        let hr = i.features.hit_rates[l];
                        assert!((0.0..=1.0).contains(&hr));
                    }
                }
            }
        }
    }
}
