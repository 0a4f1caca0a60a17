//! Fit-quality reporting: how well did the canonical forms describe the
//! training data?
//!
//! The paper reasons about its fits qualitatively ("for most of the
//! extrapolated elements this method of model fitting showed good
//! accuracy"); this module quantifies that statement for any extrapolation
//! run: per-form usage counts, R² distributions, and influence-weighted
//! coverage, all derived from the [`ElementFit`] records the detailed API
//! returns.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::extrapolate::ElementFit;
use crate::forms::CanonicalForm;

/// Aggregate quality statistics for one extrapolation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Elements fitted.
    pub n_elements: usize,
    /// Elements belonging to influential instructions (at `threshold`).
    pub n_influential: usize,
    /// Chosen-form histogram over all elements, keyed by form label.
    pub form_counts: BTreeMap<String, usize>,
    /// Chosen-form histogram over influential elements only.
    pub influential_form_counts: BTreeMap<String, usize>,
    /// Fraction of elements whose training series was fitted exactly
    /// (residual at numerical noise).
    pub frac_exact: f64,
    /// Mean R² over elements with nonzero variance.
    pub mean_r2: f64,
    /// Worst (lowest) R² over influential elements with nonzero variance.
    pub worst_influential_r2: f64,
    /// Influence threshold used.
    pub threshold: f64,
}

impl FitReport {
    /// Builds the report from the fits of [`crate::fit_signature_obs`]
    /// ([`crate::SignatureFit::fits`]).
    pub fn from_fits(fits: &[ElementFit], threshold: f64) -> Self {
        let mut form_counts = BTreeMap::new();
        let mut influential_form_counts = BTreeMap::new();
        let mut exact = 0usize;
        let mut r2_sum = 0.0;
        let mut r2_n = 0usize;
        let mut worst_influential_r2 = 1.0f64;
        let mut n_influential = 0usize;

        for f in fits {
            *form_counts
                .entry(f.model.form.label().to_string())
                .or_insert(0) += 1;
            let influential = f.influence >= threshold;
            if influential {
                n_influential += 1;
                *influential_form_counts
                    .entry(f.model.form.label().to_string())
                    .or_insert(0) += 1;
            }

            let mean = f.values.iter().sum::<f64>() / f.values.len().max(1) as f64;
            let ss_tot: f64 = f.values.iter().map(|v| (v - mean) * (v - mean)).sum();
            let scale: f64 = f.values.iter().map(|v| v * v).sum::<f64>().max(1e-300);
            if f.model.sse <= 1e-18 * scale {
                exact += 1;
            }
            if ss_tot > 1e-18 * scale {
                let r2 = f.model.r2(ss_tot).clamp(0.0, 1.0);
                r2_sum += r2;
                r2_n += 1;
                if influential {
                    worst_influential_r2 = worst_influential_r2.min(r2);
                }
            }
        }

        Self {
            n_elements: fits.len(),
            n_influential,
            form_counts,
            influential_form_counts,
            frac_exact: if fits.is_empty() {
                0.0
            } else {
                exact as f64 / fits.len() as f64
            },
            mean_r2: if r2_n > 0 { r2_sum / r2_n as f64 } else { 1.0 },
            worst_influential_r2,
            threshold,
        }
    }

    /// Usage count of one form over all elements.
    pub fn count_of(&self, form: CanonicalForm) -> usize {
        self.form_counts.get(form.label()).copied().unwrap_or(0)
    }

    /// Renders a compact multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fit report: {} elements ({} influential at {:.2}%)\n",
            self.n_elements,
            self.n_influential,
            100.0 * self.threshold
        ));
        out.push_str("  chosen forms (all / influential):\n");
        for (label, n) in &self.form_counts {
            let ni = self.influential_form_counts.get(label).unwrap_or(&0);
            out.push_str(&format!("    {label:<10} {n:>6} / {ni}\n"));
        }
        out.push_str(&format!(
            "  exact fits: {:.1}%   mean R^2: {:.4}   worst influential R^2: {:.4}",
            100.0 * self.frac_exact,
            self.mean_r2,
            self.worst_influential_r2
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extrapolate::{fit_signature_obs, ExtrapolationConfig};
    use xtrace_ir::SourceLoc;
    use xtrace_obs::ObsContext;
    use xtrace_tracer::{BlockRecord, FeatureVector, InstrRecord, TaskTrace};

    fn trace_at(p: u32) -> TaskTrace {
        let pf = f64::from(p);
        let mut f = FeatureVector {
            exec_count: 100.0 + 3.0 * pf.ln(),
            mem_ops: 1e3 * pf,
            loads: 1e3 * pf,
            bytes_per_ref: 8.0,
            working_set: 1e6,
            ilp: 2.0,
            ..Default::default()
        };
        f.hit_rates = [0.3, 0.35 + 5e-5 * pf, 1.0, 1.0];
        TaskTrace {
            app: "t".into(),
            rank: 0,
            nranks: p,
            machine: "m".into(),
            depth: 2,
            blocks: vec![BlockRecord {
                name: "k".into(),
                source: SourceLoc::new("a.c", 1, "f"),
                invocations: 10,
                iterations: 10,
                instrs: vec![InstrRecord {
                    instr: 0,
                    pattern: "strided".into(),
                    features: f,
                }],
            }],
        }
    }

    fn report() -> FitReport {
        let traces = vec![trace_at(1024), trace_at(2048), trace_at(4096)];
        let fit = fit_signature_obs(
            &traces,
            8192,
            &ExtrapolationConfig::default(),
            &ObsContext::disabled(),
        )
        .unwrap();
        FitReport::from_fits(&fit.fits, 0.001)
    }

    #[test]
    fn counts_cover_every_element() {
        let r = report();
        let total: usize = r.form_counts.values().sum();
        assert_eq!(total, r.n_elements);
        assert!(r.n_elements > 0);
    }

    #[test]
    fn exact_synthetic_data_yields_exact_fits_and_high_r2() {
        let r = report();
        // Every element is generated from a canonical form.
        assert!(r.frac_exact > 0.95, "frac_exact {}", r.frac_exact);
        assert!(r.mean_r2 > 0.99, "mean R^2 {}", r.mean_r2);
        assert!(r.worst_influential_r2 > 0.99);
    }

    #[test]
    fn form_histogram_reflects_the_generating_laws() {
        let r = report();
        // Linear (mem ops, loads, L2 rate), logarithmic (exec), constant
        // (everything else).
        assert!(r.count_of(CanonicalForm::Linear) >= 3);
        assert!(r.count_of(CanonicalForm::Logarithmic) >= 1);
        assert!(r.count_of(CanonicalForm::Constant) >= 5);
    }

    #[test]
    fn render_is_readable() {
        let s = report().render();
        assert!(s.contains("fit report"));
        assert!(s.contains("Linear"));
        assert!(s.contains("R^2"));
    }

    #[test]
    fn empty_fits_are_benign() {
        let r = FitReport::from_fits(&[], 0.001);
        assert_eq!(r.n_elements, 0);
        assert_eq!(r.frac_exact, 0.0);
        assert_eq!(r.mean_r2, 1.0);
    }
}
