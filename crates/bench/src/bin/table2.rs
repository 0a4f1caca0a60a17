//! **Table II** — changes in the target system's cache hit rates of a
//! basic block as the core count increases.
//!
//! Paper values (a UH3D block, Phase-I Blue Waters-class target):
//!
//! ```text
//! Core Count  L1 HR  L2 HR  L3 HR
//! 1024        87.4   87.5   87.5
//! 2048        87.4   87.5   90.7
//! 4096        87.4   88.4   91.6
//! 8192        87.4   89.0   95.0
//! ```
//!
//! "as the core count increases the data slowly moves into the L3 and L2
//! cache": the per-task field slice shrinks under strong scaling while the
//! block's streaming L1 behaviour (spatial locality only) stays put.
//! The subject block is the UH3D proxy's `field-stencil`.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin table2`

use xtrace_bench::{block_hit_rate, paper_tracer, paper_uh3d, print_header, target_machine};
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn main() {
    let app = paper_uh3d();
    let machine = target_machine();
    let tracer = paper_tracer();
    let block_name = "field-stencil";
    let counts = [1024u32, 2048, 4096, 8192];

    println!(
        "Table II: cache hit rates of block `{block_name}` on {} as the core\n\
         count increases (strong scaling moves the field slice into cache)\n",
        machine.name
    );
    print_header(
        &["Core Count", "slice (MB)", "L1 HR", "L2 HR", "L3 HR"],
        &[10, 10, 7, 7, 7],
    );

    for &p in &counts {
        let sig = collect_signature_memo_obs(
            &app,
            p,
            &machine,
            &tracer,
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        let block = sig
            .longest_task()
            .block(block_name)
            .expect("field-stencil present");
        let slice_mb = block.instrs[0].features.working_set / (1024.0 * 1024.0);
        println!(
            "{:>10}  {:>10.1}  {:>6.1}  {:>6.1}  {:>6.1}",
            p,
            slice_mb,
            100.0 * block_hit_rate(block, 0),
            100.0 * block_hit_rate(block, 1),
            100.0 * block_hit_rate(block, 2),
        );
    }

    println!(
        "\npaper shape: L1 flat (spatial locality only), L2 and L3 rising\n\
         monotonically as the per-task footprint drops toward cache capacity."
    );
}
