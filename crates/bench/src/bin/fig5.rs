//! **Figure 5** — "Logarithmic Model captures the scaling behavior of the
//! number of memory operations": the dynamic memory-operation count of a
//! single UH3D instruction versus core count, with all four canonical fits.
//!
//! The subject is the `particle-sort` block (tree-staged binning): its trip
//! count grows with ⌈log₂ P⌉, putting its per-instruction memory-operation
//! totals in the 10⁹–10¹⁰ range of the paper's figure and making the
//! logarithmic form the clear winner.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin fig5`

use xtrace_bench::{paper_tracer, paper_uh3d, print_header, target_machine, UH3D_TARGET};
use xtrace_extrap::{fit_all, select_best, CanonicalForm, SelectionCriterion};
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn main() {
    let app = paper_uh3d();
    let machine = target_machine();
    let tracer = paper_tracer();
    let counts = [1024u32, 2048, 4096, 8192];
    let block = "particle-sort";
    let instr = 0usize; // the particle load

    println!(
        "Figure 5: memory operations of UH3D `{block}` instruction {instr} vs core\n\
         count, with all four canonical fits\n"
    );

    let mut xs = Vec::new();
    let mut ys = Vec::new();
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
        xs.push(f64::from(p));
        ys.push(b.instrs[instr].features.mem_ops);
    }

    let train_x = &xs[..3];
    let train_y = &ys[..3];
    let fits = fit_all(&CanonicalForm::PAPER_SET, train_x, train_y);

    print_header(
        &["Cores", "measured", "Log", "Exp", "Linear", "Constant"],
        &[6, 11, 11, 11, 11, 11],
    );
    for (i, &x) in xs.iter().enumerate() {
        let mut row = format!("{:>6}  {:>11.3e}", x as u32, ys[i]);
        for form in [
            CanonicalForm::Logarithmic,
            CanonicalForm::Exponential,
            CanonicalForm::Linear,
            CanonicalForm::Constant,
        ] {
            let v = fits
                .iter()
                .find(|f| f.form == form)
                .map(|f| f.eval(x))
                .unwrap_or(f64::NAN);
            row.push_str(&format!("  {v:>11.3e}"));
        }
        println!("{row}");
    }

    let best = select_best(
        &CanonicalForm::PAPER_SET,
        train_x,
        train_y,
        SelectionCriterion::Sse,
    );
    println!("\nbest fit: {} (SSE {:.3e})", best.form.label(), best.sse);
    let predicted = best.eval(f64::from(UH3D_TARGET));
    println!(
        "extrapolated count at {} cores: {:.3e} (measured {:.3e}, err {:.2}%)",
        UH3D_TARGET,
        predicted,
        ys[3],
        100.0 * (predicted - ys[3]).abs() / ys[3]
    );
    println!(
        "\npaper: counts of order 1e9–1.6e10 with the log model clearly the best\n\
         fit; ours sit at {:.1e}–{:.1e}.",
        ys[0], ys[3]
    );
    assert_eq!(
        best.form,
        CanonicalForm::Logarithmic,
        "figure 5's log-model result did not reproduce"
    );
}
