//! Determinism guarantees across the whole stack: identical results across
//! repeated runs, across rayon thread-pool sizes, and across collection
//! orderings. The extrapolation experiments compare traces collected in
//! different processes, so any nondeterminism would masquerade as scaling
//! behaviour.

use xtrace::apps::{SpecfemProxy, StencilProxy};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::tracer::{collect_ranks, collect_task_trace, SigMemo, TracerConfig};

#[test]
fn rank_collection_is_invariant_under_thread_pool_size() {
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 2048;
    app.cfg.timesteps = 4;
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let ranks: Vec<u32> = (0..8).collect();

    let run_with_threads = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool builds");
        pool.install(|| {
            collect_ranks(
                &app,
                &ranks,
                8,
                &machine,
                &cfg,
                &SigMemo::new(),
                &ObsContext::disabled(),
            )
        })
    };

    let serial = run_with_threads(1);
    let parallel = run_with_threads(4);
    assert_eq!(serial, parallel, "results depend on thread count");
}

#[test]
fn collection_order_does_not_matter() {
    let obs = ObsContext::disabled();
    let app = StencilProxy::small();
    let machine = presets::opteron();
    let cfg = TracerConfig::fast();

    // Interleave collections of different ranks/counts; each trace must
    // equal a freshly collected one (no hidden shared state).
    let t3_first = collect_task_trace(&app, 3, 8, &machine, &cfg, None, &obs);
    let _noise1 = collect_task_trace(&app, 0, 4, &machine, &cfg, None, &obs);
    let _noise2 = collect_task_trace(&app, 7, 8, &machine, &cfg, None, &obs);
    let t3_again = collect_task_trace(&app, 3, 8, &machine, &cfg, None, &obs);
    assert_eq!(t3_first, t3_again);
}

#[test]
fn surfaces_measure_identically_across_pools() {
    let run_with_threads = |n: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool builds");
        pool.install(|| {
            let m = presets::opteron();
            m.surface().clone()
        })
    };
    let a = run_with_threads(1);
    let b = run_with_threads(8);
    assert_eq!(a, b, "surface measurement depends on parallelism");
}
