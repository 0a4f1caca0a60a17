//! PSiNS convolution throughput: predictions per second from a ready trace.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xtrace_apps::{profiling_net, StencilProxy};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_psins::try_predict_runtime;
use xtrace_spmd::profile;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

fn bench_convolution(c: &mut Criterion) {
    let obs = ObsContext::disabled();
    let app = StencilProxy::medium();
    let machine = presets::cray_xt5();
    let sig = collect_signature_memo_obs(
        &app,
        8,
        &machine,
        &TracerConfig::fast(),
        &SigMemo::new(),
        &obs,
    );
    let trace = sig.longest_task().clone();
    let comm = profile(&app, 8, &profiling_net(), &obs);
    // Force the lazy surface before timing.
    let _ = machine.surface();

    c.bench_function("convolution/predict_runtime", |b| {
        b.iter(|| black_box(try_predict_runtime(black_box(&trace), &comm, &machine).unwrap()))
    });
}

criterion_group!(benches, bench_convolution);
criterion_main!(benches);
