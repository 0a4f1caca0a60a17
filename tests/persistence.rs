//! Cross-crate persistence integration: traces survive both on-disk
//! formats, and extrapolation works on reloaded traces.

use xtrace::apps::StencilProxy;
use xtrace::extrap::{extrapolate_signature, ExtrapolationConfig};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::tracer::{
    collect_signature_memo_obs, from_bytes, load_json, save_json, to_bytes, SigMemo, TracerConfig,
};

#[test]
fn binary_roundtrip_of_real_traces_is_exact() {
    let app = StencilProxy::small();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    for p in [2u32, 4, 8] {
        let sig = collect_signature_memo_obs(
            &app,
            p,
            &machine,
            &cfg,
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let t = sig.longest_task();
        let back = from_bytes(&to_bytes(t)).expect("decodes");
        assert_eq!(&back, t, "binary roundtrip at {p} cores");
    }
}

#[test]
fn json_files_roundtrip_and_feed_extrapolation() {
    let app = StencilProxy::small();
    let machine = presets::cray_xt5();
    let cfg = TracerConfig::fast();
    let dir = std::env::temp_dir().join("xtrace-integration");
    std::fs::create_dir_all(&dir).unwrap();

    let mut paths = Vec::new();
    for p in [2u32, 4, 8] {
        let sig = collect_signature_memo_obs(
            &app,
            p,
            &machine,
            &cfg,
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let path = dir.join(format!("stencil-{p}.json"));
        save_json(sig.longest_task(), &path).unwrap();
        paths.push(path);
    }

    let reloaded: Vec<_> = paths.iter().map(|p| load_json(p).unwrap()).collect();
    let ex = extrapolate_signature(&reloaded, 32, &ExtrapolationConfig::default())
        .expect("reloaded traces extrapolate");
    assert_eq!(ex.nranks, 32);
    assert_eq!(ex.machine, "cray-xt5");

    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn json_and_binary_agree() {
    let app = StencilProxy::small();
    let machine = presets::opteron();
    let sig = collect_signature_memo_obs(
        &app,
        4,
        &machine,
        &TracerConfig::fast(),
        &SigMemo::new(),
        &ObsContext::disabled(),
    );
    let t = sig.longest_task();
    let via_bin = from_bytes(&to_bytes(t)).unwrap();
    let via_json: xtrace::tracer::TaskTrace =
        serde_json::from_str(&serde_json::to_string(t).unwrap()).unwrap();
    // The binary format is bit-exact; JSON may round the last ulp of
    // floats, so compare structure plus near-equality of features.
    assert_eq!(via_bin.blocks.len(), via_json.blocks.len());
    for (a, b) in via_bin.blocks.iter().zip(&via_json.blocks) {
        assert_eq!(a.name, b.name);
        for (ia, ib) in a.instrs.iter().zip(&b.instrs) {
            assert!((ia.features.mem_ops - ib.features.mem_ops).abs() <= 1.0);
            for l in 0..4 {
                assert!((ia.features.hit_rates[l] - ib.features.hit_rates[l]).abs() < 1e-12);
            }
        }
    }
}
