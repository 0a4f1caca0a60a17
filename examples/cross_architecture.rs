//! Cross-architecture what-if exploration (the paper's Table III workflow).
//!
//! The application signature is collected against a *simulated* target
//! hierarchy, so a cache-design question — "what would a 56 KB L1 buy this
//! kernel?" — can be answered without the system existing. Here the
//! SPECFEM3D proxy's constant-footprint `attenuation-update` block is
//! traced against two hypothetical systems that differ only in L1 size,
//! across four core counts.
//!
//! Run with: `cargo run --release --example cross_architecture`

use xtrace::apps::SpecfemProxy;
use xtrace::machine::presets;
use xtrace::obs::ObsContext;
use xtrace::tracer::{collect_signature_memo_obs, BlockRecord, SigMemo, TracerConfig};

/// Memory-op-weighted cumulative hit rate of a block at `level`.
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
    // A scaled-down SPECFEM3D proxy: the block under study has a constant
    // 24 KB footprint either way, so the mesh size only affects runtime.
    let mut app = SpecfemProxy::small();
    app.cfg.total_elements = 4096;
    let block_name = "attenuation-update";
    let counts = [8u32, 16, 32, 64];
    let tracer_cfg = TracerConfig::default();

    println!(
        "L1 hit rate of SPECFEM3D proxy block `{block_name}` (footprint {} KB)\n",
        app.cfg.elem_work_bytes / 1024
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "system", counts[0], counts[1], counts[2], counts[3]
    );

    for machine in [presets::system_a(), presets::system_b()] {
        let l1_kb = machine.hierarchy.levels[0].size_bytes / 1024;
        let mut row = format!("{:<22}", format!("{} ({l1_kb} KB L1)", machine.name));
        for &p in &counts {
            let sig = collect_signature_memo_obs(
                &app,
                p,
                &machine,
                &tracer_cfg,
                &SigMemo::new(),
                &ObsContext::disabled(),
            );
            let block = sig
                .longest_task()
                .block(block_name)
                .expect("block exists in every trace");
            row.push_str(&format!(" {:>8.1}%", 100.0 * block_hit_rate(block, 0)));
        }
        println!("{row}");
    }

    println!(
        "\nThe block's data is untouched by strong scaling (constant hit rate \
         across core counts), but moving from a 12 KB to a 56 KB L1 makes it \
         cache-resident — the design insight Table III demonstrates, obtained \
         without either system existing."
    );
}
