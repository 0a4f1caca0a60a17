//! **Figure 4** — "Linear Model captures the scaling behavior of the L2
//! Hit Rate": the measured L2 hit rate of a single UH3D instruction versus
//! core count, overlaid with all four canonical-form fits.
//!
//! The subject is the `particle-push` block's random gather into the
//! per-task slice of the plasma-moment table: under strong scaling the
//! slice shrinks like 1/P, so the fraction of gathers caught by L2 grows
//! linearly with P — exactly the behaviour the paper's Figure 4 shows the
//! linear form winning on.
//!
//! Run with: `cargo run --release -p xtrace-bench --bin fig4`

use xtrace_bench::{paper_tracer, paper_uh3d, print_header, target_machine, UH3D_TARGET};
use xtrace_extrap::{fit_all, select_best, CanonicalForm, SelectionCriterion};
use xtrace_obs::ObsContext;
use xtrace_tracer::{collect_signature_memo_obs, SigMemo};

fn main() {
    let app = paper_uh3d();
    let machine = target_machine();
    let tracer = paper_tracer();
    let counts = [1024u32, 2048, 4096, 8192];
    let block = "particle-push";
    // Instruction 2 is the moment-table gather (see uh3d.rs).
    let instr = 2usize;
    let level = 1usize; // L2

    println!(
        "Figure 4: L2 hit rate of UH3D `{block}` instruction {instr} (moment-table\n\
         gather) vs core count on {}, with all four canonical fits\n",
        machine.name
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
        ys.push(b.instrs[instr].features.hit_rates[level]);
    }

    // Fit on the three training counts, evaluate everywhere (as the paper's
    // figure does: models drawn through and beyond the measured points).
    let train_x = &xs[..3];
    let train_y = &ys[..3];
    let fits = fit_all(&CanonicalForm::PAPER_SET, train_x, train_y);

    print_header(
        &["Cores", "measured", "Log", "Exp", "Linear", "Constant"],
        &[6, 9, 9, 9, 9, 9],
    );
    for (i, &x) in xs.iter().enumerate() {
        let mut row = format!("{:>6}  {:>9.4}", x as u32, ys[i]);
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
            row.push_str(&format!("  {v:>9.4}"));
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
    println!(
        "extrapolated L2 hit rate at {} cores: {:.4} (measured {:.4})",
        UH3D_TARGET,
        best.eval(f64::from(UH3D_TARGET)).clamp(0.0, 1.0),
        ys[3]
    );
    println!("\npaper: the linear model captures the rising L2 hit rate.");
    assert_eq!(
        best.form,
        CanonicalForm::Linear,
        "figure 4's linear-model result did not reproduce"
    );
}
