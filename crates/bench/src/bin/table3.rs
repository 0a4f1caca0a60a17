//! **Table III** — application trace data (L1 hit rate) for a single
//! SPECFEM3D basic block on two hypothetical target systems.
//!
//! Paper values:
//!
//! ```text
//! System          96 cores  384 cores  1536 cores  6144 cores
//! A (12 KB L1)    85.6      85.6       85.8        85.8
//! B (56 KB L1)    99.6      99.6       99.6        99.6
//! ```
//!
//! The block's data "is not affected by the strong scaling. But if the size
//! of L1 is increased from 12KB to 56KB then the data for the computation
//! moves into L1 cache" — all "without the system even existing", because
//! traces are simulated against the target hierarchy. The subject block is
//! the SPECFEM3D proxy's `attenuation-update` (24 KB element workspace).
//!
//! Run with: `cargo run --release -p xtrace-bench --bin table3`

use xtrace_bench::{block_hit_rate, paper_specfem, paper_tracer, print_header};
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn main() {
    let app = paper_specfem();
    let tracer = paper_tracer();
    let block_name = "attenuation-update";
    let counts = [96u32, 384, 1536, 6144];

    println!(
        "Table III: L1 hit rate of SPECFEM3D block `{block_name}`\n\
         (constant {} KB footprint) on two targets differing only in L1 size\n",
        app.cfg.elem_work_bytes / 1024
    );
    print_header(
        &[
            "System",
            "96 cores",
            "384 cores",
            "1536 cores",
            "6144 cores",
        ],
        &[16, 9, 9, 10, 10],
    );

    for machine in [presets::system_a(), presets::system_b()] {
        let l1_kb = machine.hierarchy.levels[0].size_bytes / 1024;
        let label = format!(
            "{} ({} KB)",
            if machine.name.ends_with('a') {
                "A"
            } else {
                "B"
            },
            l1_kb
        );
        let mut row = format!("{label:>16}");
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
                .expect("attenuation-update present");
            row.push_str(&format!("  {:>8.1}", 100.0 * block_hit_rate(block, 0)));
        }
        println!("{row}");
    }

    println!(
        "\npaper shape: System A pinned at the spatial-locality floor across all\n\
         core counts (the 24 KB workspace cannot fit a 12 KB L1); System B\n\
         near-perfect residency — a cache-design insight obtained from traces\n\
         alone, for systems that do not exist."
    );
}
