//! **Figure 2** — the signature-collection pipeline, as stage-by-stage
//! numbers.
//!
//! The paper's Figure 2 is a diagram: each MPI task's instrumented binary
//! emits a memory address stream that is consumed on-the-fly by the cache
//! simulator to produce one summary trace file per task ("the address
//! stream of a single process can generate over 2 TB of data per hour…").
//! This binary runs the pipeline for one SPECFEM3D-proxy task and reports
//! what flows through each stage: program size, dynamic stream length, the
//! sampled window, per-level cache events, and the resulting trace-file
//! sizes — demonstrating the raw-stream-to-summary compression the
//! on-the-fly design exists for.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin fig2_pipeline`

use xtrace_bench::{paper_specfem, paper_tracer, target_machine};
use xtrace_obs::ObsContext;
use xtrace_spmd::SpmdApp;
use xtrace_tracer::{collect_task_trace, to_bytes};

fn main() {
    let app = paper_specfem();
    let machine = target_machine();
    let tracer = paper_tracer();
    let (rank, nranks) = (0u32, 96u32);

    println!(
        "Figure 2 pipeline: SPECFEM3D proxy, rank {rank} of {nranks}, target {}\n",
        machine.name
    );

    // Stage 1: the "instrumented executable" (the rank program).
    let rp = app.rank_program(rank, nranks);
    println!("[1] rank program (instrumented binary analog)");
    println!("    regions: {:>12}", rp.program.regions().len());
    println!("    blocks:  {:>12}", rp.program.blocks().len());
    println!(
        "    static instructions: {:>4}",
        rp.program
            .blocks()
            .iter()
            .map(|b| b.instrs.len())
            .sum::<usize>()
    );
    println!(
        "    memory image: {:>10.1} MB",
        rp.program.footprint_bytes() as f64 / 1e6
    );

    // Stage 2: the dynamic address stream.
    let total_refs = rp.total_mem_refs();
    println!("\n[2] dynamic memory address stream");
    println!(
        "    full-run references: {total_refs:>14.3e}",
        total_refs = total_refs as f64
    );
    println!(
        "    raw stream volume:   {:>11.1} GB (16 B/record — infeasible to store)",
        total_refs as f64 * 16.0 / 1e9
    );
    println!(
        "    sampled window:      {:>14.3e} refs/block (on-the-fly, never stored)",
        tracer.max_sampled_refs_per_block as f64
    );

    // Stage 3: the cache simulator's view.
    let trace = collect_task_trace(
        &app,
        rank,
        nranks,
        &machine,
        &tracer,
        None,
        &ObsContext::disabled(),
    );
    println!("\n[3] on-the-fly cache simulation ({} levels)", trace.depth);
    for b in &trace.blocks {
        let l1 = xtrace_bench::block_hit_rate(b, 0);
        let l3 = xtrace_bench::block_hit_rate(b, trace.depth - 1);
        println!(
            "    {:<20} {:>12.3e} refs   L1 {:>5.1}%   L{} {:>5.1}%",
            b.name,
            b.mem_ops(),
            100.0 * l1,
            trace.depth,
            100.0 * l3
        );
    }

    // Stage 4: the summary trace file.
    let bin = to_bytes(&trace);
    let json = serde_json::to_string(&trace).expect("serializable");
    println!("\n[4] summary trace file (the application signature's per-task unit)");
    println!("    blocks recorded: {:>8}", trace.blocks.len());
    println!(
        "    instruction records: {:>4}",
        trace.blocks.iter().map(|b| b.instrs.len()).sum::<usize>()
    );
    println!("    binary size:  {:>10} B", bin.len());
    println!("    JSON size:    {:>10} B", json.len());
    println!(
        "    compression vs raw stream: {:.1e}x",
        total_refs as f64 * 16.0 / bin.len() as f64
    );
}
