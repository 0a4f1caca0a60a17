//! End-to-end signature collection per task.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xtrace_apps::{SpecfemProxy, StencilProxy, Uh3dProxy};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_spmd::SpmdApp;
use xtrace_tracer::{collect_task_trace, TracerConfig};

fn bench_tracing(c: &mut Criterion) {
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let apps: Vec<(&str, Box<dyn SpmdApp>)> = vec![
        ("stencil", Box::new(StencilProxy::medium())),
        ("specfem", Box::new(SpecfemProxy::small())),
        ("uh3d", Box::new(Uh3dProxy::small())),
    ];
    let mut g = c.benchmark_group("tracing");
    for (name, app) in &apps {
        g.bench_with_input(BenchmarkId::new("collect_task", name), app, |b, app| {
            b.iter(|| {
                black_box(collect_task_trace(
                    app.as_ref(),
                    0,
                    8,
                    &machine,
                    &cfg,
                    None,
                    &ObsContext::disabled(),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tracing);
criterion_main!(benches);
