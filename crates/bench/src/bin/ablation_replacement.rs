//! **Ablation: cache replacement policy.**
//!
//! The PMaC cache simulator models LRU; real last-level caches are often
//! pseudo-random. This ablation re-runs the Table-II measurement (UH3D
//! `field-stencil` hit rates vs core count) with LRU, FIFO, and random
//! replacement in every level of the target hierarchy, showing which parts
//! of the paper's story depend on the replacement model.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin ablation_replacement`

use xtrace_bench::{block_hit_rate, paper_tracer, paper_uh3d, print_header, target_machine};
use xtrace_cache::Replacement;
use xtrace_machine::MachineProfile;
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn with_replacement(base: &MachineProfile, r: Replacement, suffix: &str) -> MachineProfile {
    let mut hierarchy = base.hierarchy.clone();
    for level in &mut hierarchy.levels {
        level.replacement = r;
    }
    MachineProfile::new(
        format!("{}-{suffix}", base.name),
        hierarchy,
        base.clock_hz,
        base.fp,
        base.net,
        base.mem_cost,
        base.sweep.clone(),
        base.fp_mem_overlap,
    )
    .expect("valid derived profile")
}

fn main() {
    let app = paper_uh3d();
    let base = target_machine();
    let tracer = paper_tracer();
    let counts = [1024u32, 2048, 4096, 8192];
    let block = "field-stencil";

    println!(
        "Ablation: replacement policy — Table II (UH3D `{block}` hit rates)\n\
         re-measured under LRU / FIFO / random replacement\n"
    );

    for (label, policy) in [
        ("LRU (paper's model)", Replacement::Lru),
        ("FIFO", Replacement::Fifo),
        ("random", Replacement::Random),
    ] {
        let machine = with_replacement(&base, policy, label.split(' ').next().unwrap());
        println!("-- {label} --");
        print_header(&["Cores", "L1 HR", "L2 HR", "L3 HR"], &[6, 7, 7, 7]);
        for &p in &counts {
            let sig = collect_signature_memo_obs(
                &app,
                p,
                &machine,
                &tracer,
                &SigMemo::new(),
                &ObsContext::disabled(),
            );
            let b = sig.longest_task().block(block).expect("block present");
            println!(
                "{:>6}  {:>6.1}  {:>6.1}  {:>6.1}",
                p,
                100.0 * block_hit_rate(b, 0),
                100.0 * block_hit_rate(b, 1),
                100.0 * block_hit_rate(b, 2),
            );
        }
        println!();
    }

    println!(
        "expected shape: the Table-II story — flat L1 at the spatial floor,\n\
         L2/L3 rising monotonically as the slice shrinks — survives every\n\
         policy. Random replacement softens the capacity transition (partial\n\
         reuse on cyclic sweeps that LRU evicts deterministically), nudging\n\
         mid-range L3 rates upward; the methodology does not hinge on exact\n\
         LRU behaviour."
    );
}
