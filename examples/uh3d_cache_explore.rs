//! Strong-scaling cache behaviour of the UH3D proxy (the Table II
//! workflow): as the core count rises, each task's slice of the field
//! arrays shrinks and "the data slowly moves into the L3 and L2 cache".
//!
//! The example traces the `field-stencil` block at a ladder of core counts,
//! prints its per-level hit rates, and then shows that the *extrapolated*
//! signature (built from the three smallest counts) reproduces the hit
//! rates actually collected at the largest.
//!
//! Run with: `cargo run --release --example uh3d_cache_explore`

use xtrace::apps::Uh3dProxy;
use xtrace::extrap::{extrapolate_signature, ExtrapolationConfig};
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::tracer::{collect_signature_memo_obs, BlockRecord, SigMemo, TracerConfig};

fn block_hit_rate(block: &BlockRecord, level: usize) -> f64 {
    let mut w = 0.0;
    let mut acc = 0.0;
    for i in &block.instrs {
        if i.features.mem_ops > 0.0 {
            w += i.features.mem_ops;
            acc += i.features.mem_ops * i.features.hit_rates[level];
        }
    }
    if w > 0.0 {
        acc / w
    } else {
        1.0
    }
}

fn main() {
    // A scaled-down UH3D proxy: per-rank field slices cross the XT5's cache
    // capacities over 8..64 cores the way the paper's cross 1024..8192.
    let mut app = Uh3dProxy::small();
    app.cfg.grid_cells = 4 << 20; // ~200 MB of field data in total
    app.cfg.total_particles = 1 << 16;
    let machine = presets::cray_xt5();
    let tracer_cfg = TracerConfig::default();
    let counts = [8u32, 16, 32, 64];
    let block_name = "field-stencil";

    println!(
        "target system: {} (L1 {} KB / L2 {} KB / L3 {} MB)\n",
        machine.name,
        machine.hierarchy.levels[0].size_bytes / 1024,
        machine.hierarchy.levels[1].size_bytes / 1024,
        machine.hierarchy.levels[2].size_bytes / (1024 * 1024),
    );
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>8}",
        "core count", "slice", "L1 HR", "L2 HR", "L3 HR"
    );

    let mut traces = Vec::new();
    for &p in &counts {
        let sig = collect_signature_memo_obs(
            &app,
            p,
            &machine,
            &tracer_cfg,
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let trace = sig.longest_task().clone();
        let block = trace.block(block_name).expect("block present");
        let slice_mb = block.instrs[0].features.working_set / (1024.0 * 1024.0);
        println!(
            "{:<12} {:>8.1}MB {:>7.1}% {:>7.1}% {:>7.1}%",
            p,
            slice_mb,
            100.0 * block_hit_rate(block, 0),
            100.0 * block_hit_rate(block, 1),
            100.0 * block_hit_rate(block, 2),
        );
        traces.push(trace);
    }

    // Extrapolate from the three smallest counts to the largest and compare.
    let target = *counts.last().unwrap();
    let extrapolated = extrapolate_signature(&traces[..3], target, &ExtrapolationConfig::default())
        .expect("valid training set");
    let eb = extrapolated.block(block_name).unwrap();
    let cb = traces.last().unwrap().block(block_name).unwrap();
    println!("\nextrapolated vs collected at {target} cores:");
    for level in 0..3 {
        println!(
            "  L{} hit rate: {:>6.2}% extrapolated, {:>6.2}% collected",
            level + 1,
            100.0 * block_hit_rate(eb, level),
            100.0 * block_hit_rate(cb, level),
        );
    }
}
