//! Regression verdicts over the benchmark history.
//!
//! `BENCH_history.jsonl` holds one [`HistoryRow`] per end-to-end metric
//! of every promoted perfbench run (`python3 perfbench/run.py`), tagged
//! with the commit, the host's core count and the rayon thread count.
//! `xtrace bench-verdict` judges a fresh run's metrics against the rows
//! of the same series — same workload, metric, host cores and threads —
//! so a number is only ever compared with numbers measured the same way.
//!
//! Each metric's direction and allowed worsening come from the
//! `end_to_end` list of `BENCHMARK.json` ([`EndToEndMetric`]), the same
//! definition of "worse" the benchmark's own comparison uses. A value
//! regresses only when both hold:
//!
//! * **Robust z-score**: it sits more than 3.5 scaled MADs (median
//!   absolute deviation × 1.4826, which estimates σ under normality) on
//!   the worse side of the series median. A relative scale floor keeps
//!   ultra-stable series from flagging microscopic wobble.
//! * **Bound**: it is worse than that median by more than the metric's
//!   `bound`, as a fraction of the median.
//!
//! Sliding-median changepoints locate sustained level changes inside a
//! series. The baseline uses only the segment after the last one, so an
//! accepted regime change (faster or slower) does not poison every later
//! verdict.

use serde::{Deserialize, Serialize};

/// Robust z-score beyond which a worsening is statistically anomalous.
const MAX_Z: f64 = 3.5;
/// The MAD-derived scale never drops below this fraction of the baseline
/// median, so perfectly quiet series don't flag sub-percent wobble.
const SCALE_FLOOR_FRAC: f64 = 0.02;
/// Window width for sliding-median changepoint detection.
const CHANGEPOINT_WINDOW: usize = 5;
/// Minimum median shift (as a fraction) for a changepoint.
const MIN_SHIFT_FRAC: f64 = 0.25;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, memory, set-up time).
    Lower,
    /// Larger is better (throughput, success ratio).
    Higher,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndMetric {
    /// Metric name as perfbench prints it (`op_p50_ms`).
    pub name: String,
    /// Unit label (`ms`, `1/s`, `MiB`, …).
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Largest allowed worsening, as a fraction of the baseline.
    pub bound: f64,
}

/// Parses the `end_to_end` metric list of a `BENCHMARK.json` document.
pub fn end_to_end_metrics(benchmark_json: &str) -> Result<Vec<EndToEndMetric>, String> {
    let value: serde_json::Value = serde_json::from_str(benchmark_json)
        .map_err(|e| format!("malformed benchmark JSON: {e}"))?;
    let list = value
        .0
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("benchmark JSON has no \"end_to_end\" list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(|v| v.as_str())
                    .ok_or(format!("end_to_end metric without \"{key}\""))
            };
            let name = text("name")?;
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{name}: unknown direction {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(|v| v.as_f64())
                .filter(|b| *b >= 0.0)
                .ok_or(format!("{name}: missing or negative \"bound\""))?;
            Ok(EndToEndMetric {
                name: name.to_string(),
                unit: text("unit")?.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Outcome of judging one fresh metric value against its series.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No prior rows in the series: recorded, never gated.
    New,
    /// Within the series' noise envelope or the metric's bound.
    Ok {
        /// Median of the post-changepoint baseline.
        baseline: f64,
        /// Robust z-score, positive on the worse side.
        z: f64,
    },
    /// Statistically anomalous and worse than the baseline by more than
    /// the metric's bound.
    Regressed {
        /// Median of the post-changepoint baseline.
        baseline: f64,
        /// Robust z-score, positive on the worse side.
        z: f64,
        /// Worsening as a fraction of the baseline.
        worse_frac: f64,
    },
}

/// Median of a sample (mean of the middle pair for even lengths).
/// Returns 0 for an empty slice so callers can stay guard-free.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Robust z-score of `value` against `baseline`: distance from the median
/// in units of the scaled MAD (× 1.4826 ≈ σ under normality). The scale is
/// floored at `scale_floor_frac × |median|` (and an absolute epsilon) so a
/// constant history cannot produce infinite scores.
fn robust_z(baseline: &[f64], value: f64, scale_floor_frac: f64) -> f64 {
    if baseline.is_empty() {
        return 0.0;
    }
    let m = median(baseline);
    let deviations: Vec<f64> = baseline.iter().map(|&x| (x - m).abs()).collect();
    let mad = median(&deviations);
    let scale = (1.4826 * mad)
        .max(scale_floor_frac * m.abs())
        .max(f64::EPSILON);
    (value - m) / scale
}

/// A sustained level shift inside a series.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Changepoint {
    /// First index of the post-shift regime.
    index: usize,
    /// `after / before − 1` of the `window`-entry medians either side of
    /// the split (positive = larger).
    shift_frac: f64,
}

/// Sliding-median changepoint detection: slides a split point through
/// `series`, comparing the medians of the `window` entries on either
/// side, and returns the largest relative shift of at least
/// `min_shift_frac` — or `None` when the series is too short or no shift
/// clears the bar. Medians (not means) keep one-off spikes from
/// masquerading as level changes.
fn sliding_median_changepoint(
    series: &[f64],
    window: usize,
    min_shift_frac: f64,
) -> Option<Changepoint> {
    let window = window.max(1);
    if series.len() < 2 * window {
        return None;
    }
    let spread = |xs: &[f64]| {
        let m = median(xs);
        xs.iter().map(|&x| (x - m).abs()).sum::<f64>()
    };
    let mut best: Option<(Changepoint, f64)> = None;
    for i in window..=series.len() - window {
        let before = median(&series[i - window..i]);
        let after = median(&series[i..i + window]);
        // NaN-safe guard: skip zero, negative, and NaN baselines alike.
        if before.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            continue;
        }
        let shift = after / before - 1.0;
        if shift.abs() < min_shift_frac {
            continue;
        }
        // A median shift plateaus while the step is still inside a
        // window, so break ties toward the cleanest split: the one whose
        // windows have the least internal spread.
        let cost = spread(&series[i - window..i]) + spread(&series[i..i + window]);
        let wins = match &best {
            None => true,
            Some((b, best_cost)) => {
                let tie = (shift.abs() - b.shift_frac.abs()).abs() <= 1e-12 * shift.abs().max(1.0);
                (!tie && shift.abs() > b.shift_frac.abs()) || (tie && cost < *best_cost)
            }
        };
        if wins {
            best = Some((
                Changepoint {
                    index: i,
                    shift_frac: shift,
                },
                cost,
            ));
        }
    }
    best.map(|(cp, _)| cp)
}

/// The baseline for a series: everything after the last detected
/// changepoint, so verdicts track the current regime instead of averaging
/// across accepted level shifts. Falls back to the whole series when no
/// changepoint is found.
fn baseline_segment(history: &[f64]) -> &[f64] {
    match sliding_median_changepoint(history, CHANGEPOINT_WINDOW, MIN_SHIFT_FRAC) {
        Some(cp) => &history[cp.index..],
        None => history,
    }
}

/// Judges one fresh value of `metric` against its chronological series.
pub fn judge(history: &[f64], value: f64, metric: &EndToEndMetric) -> Verdict {
    if history.is_empty() {
        return Verdict::New;
    }
    let segment = baseline_segment(history);
    let baseline = median(segment);
    let worse_sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let z = worse_sign * robust_z(segment, value, SCALE_FLOOR_FRAC);
    let worse_frac = if baseline == 0.0 {
        0.0
    } else {
        worse_sign * (value - baseline) / baseline.abs()
    };
    if z > MAX_Z && worse_frac > metric.bound {
        Verdict::Regressed {
            baseline,
            z,
            worse_frac,
        }
    } else {
        Verdict::Ok { baseline, z }
    }
}

/// What `bench-verdict` needs from one saved perfbench stdout: the first
/// line's `context` and the last line's result.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfbenchRun {
    /// Workload name (`paper-cold`, …).
    pub workload: String,
    /// Commit the run measured.
    pub commit: String,
    /// `context.nproc`: cores of the measuring host.
    pub nproc: u64,
    /// `context.rayon_threads`.
    pub rayon_threads: u64,
    /// `context.trace == 1`: the metrics are the per-layer ledger.
    pub traced: bool,
    /// Every prediction matched its reference.
    pub correct: bool,
    /// Result metrics, name → value, in printed order.
    pub metrics: Vec<(String, f64)>,
}

impl PerfbenchRun {
    /// Parses a saved perfbench stdout.
    pub fn parse(output: &str) -> Result<Self, String> {
        let mut lines = output.lines().filter(|l| !l.trim().is_empty());
        let (Some(first), Some(last)) = (lines.next(), lines.next_back()) else {
            return Err("not a perfbench output: needs a context line and a result line".into());
        };
        let parse = |line: &str, what: &str| -> Result<serde::Value, String> {
            serde_json::from_str::<serde_json::Value>(line)
                .map(|v| v.0)
                .map_err(|e| format!("malformed {what} line: {e}"))
        };
        let head = parse(first, "context")?;
        let context = head.get("context").ok_or("first line has no \"context\"")?;
        let text = |key: &str| {
            context
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or(format!("context without \"{key}\""))
        };
        let count = |key: &str| {
            context
                .get(key)
                .and_then(|v| v.as_u64())
                .ok_or(format!("context without \"{key}\""))
        };
        let result = parse(last, "result")?;
        let correct = result
            .get("correct")
            .and_then(|v| v.as_bool())
            .ok_or("result line has no \"correct\"")?;
        let metrics = result
            .get("metrics")
            .and_then(|v| v.as_object())
            .ok_or("result line has no \"metrics\"")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(|v| v.as_f64())
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no \"value\""))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workload: text("workload")?,
            commit: text("commit")?,
            nproc: count("nproc")?,
            rayon_threads: count("rayon_threads")?,
            traced: count("trace")? != 0,
            correct,
            metrics,
        })
    }

    /// One history row per end-to-end metric, in `metrics` order. Fails
    /// when the run lacks one of them.
    pub fn history_rows(
        &self,
        metrics: &[EndToEndMetric],
        date: &str,
    ) -> Result<Vec<HistoryRow>, String> {
        metrics
            .iter()
            .map(|m| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!("{}: run has no metric {}", self.workload, m.name))?;
                Ok(HistoryRow {
                    workload: self.workload.clone(),
                    metric: m.name.clone(),
                    value,
                    unit: m.unit.clone(),
                    commit: self.commit.clone(),
                    host_cores: self.nproc,
                    threads: self.rayon_threads,
                    date: date.to_string(),
                })
            })
            .collect()
    }
}

/// One line of `BENCH_history.jsonl`: one end-to-end metric of one
/// promoted perfbench run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRow {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: String,
    /// Commit the run measured.
    pub commit: String,
    /// Cores of the measuring host.
    pub host_cores: u64,
    /// Rayon threads of the run.
    pub threads: u64,
    /// UTC date the row was recorded, `YYYY-MM-DD`.
    pub date: String,
}

impl HistoryRow {
    /// True when `other` measures the same thing the same way: same
    /// workload, metric, host cores and threads.
    pub fn same_series(&self, other: &HistoryRow) -> bool {
        self.workload == other.workload
            && self.metric == other.metric
            && self.host_cores == other.host_cores
            && self.threads == other.threads
    }
}

/// Parses `BENCH_history.jsonl` (file order is append order is
/// chronological order). Malformed lines are hard errors — a regression
/// gate must not quietly judge against a truncated history.
pub fn history_rows(jsonl: &str) -> Result<Vec<HistoryRow>, String> {
    jsonl
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("history line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic series near 1000 with sub-percent pseudo-jitter.
    fn noisy_history(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1000.0 + ((i * 37) % 11) as f64).collect()
    }

    fn metric(better: Better, bound: f64) -> EndToEndMetric {
        EndToEndMetric {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound,
        }
    }

    #[test]
    fn a_step_past_the_bound_is_caught_in_the_worse_direction_only() {
        let history = noisy_history(30);
        let lower = metric(Better::Lower, 0.2);
        let Verdict::Regressed { z, worse_frac, .. } = judge(&history, 1500.0, &lower) else {
            panic!("a 50% step past a 20% bound must regress");
        };
        assert!(z > MAX_Z && worse_frac > 0.4);
        // The same step is an improvement when higher is better.
        let higher = metric(Better::Higher, 0.2);
        assert!(matches!(
            judge(&history, 1500.0, &higher),
            Verdict::Ok { .. }
        ));
        assert!(matches!(
            judge(&history, 500.0, &higher),
            Verdict::Regressed { .. }
        ));
    }

    #[test]
    fn an_anomaly_inside_the_bound_passes() {
        // Far outside the noise (large z) but only 10% worse: the 20%
        // bound holds it.
        let history = noisy_history(30);
        let verdict = judge(&history, 1100.0, &metric(Better::Lower, 0.2));
        assert!(
            matches!(verdict, Verdict::Ok { z, .. } if z > MAX_Z),
            "{verdict:?}"
        );
        // A tight bound with a z below the gate still passes.
        let verdict = judge(&history, 1012.0, &metric(Better::Lower, 0.0));
        assert!(matches!(verdict, Verdict::Ok { .. }), "{verdict:?}");
    }

    #[test]
    fn empty_and_single_row_series() {
        let m = metric(Better::Lower, 0.2);
        assert_eq!(judge(&[], 5.0, &m), Verdict::New);
        let verdict = judge(&[2.0], 2.0, &m);
        assert!(matches!(verdict, Verdict::Ok { .. }), "{verdict:?}");
    }

    #[test]
    fn changepoint_locates_the_step() {
        let mut series = vec![1.0; 10];
        series.extend(vec![2.0; 10]);
        let cp = sliding_median_changepoint(&series, 5, 0.25).expect("step must be found");
        assert_eq!(cp.index, 10);
        assert!((cp.shift_frac - 1.0).abs() < 1e-12);
        assert!(sliding_median_changepoint(&[1.0; 20], 5, 0.25).is_none());
        assert!(sliding_median_changepoint(&[1.0, 2.0], 5, 0.25).is_none());
    }

    #[test]
    fn accepted_regime_changes_do_not_poison_later_verdicts() {
        // A banked slowdown (say a correctness fix): judged against the
        // post-changepoint regime, values consistent with the new level
        // pass; a fresh step on top of it still fails.
        let mut history = vec![1.0; 10];
        history.extend(vec![2.0; 10]);
        let m = metric(Better::Lower, 0.2);
        assert_eq!(baseline_segment(&history), &history[10..]);
        let verdict = judge(&history, 2.02, &m);
        assert!(matches!(verdict, Verdict::Ok { .. }), "{verdict:?}");
        let verdict = judge(&history, 3.0, &m);
        assert!(matches!(verdict, Verdict::Regressed { .. }), "{verdict:?}");
    }

    #[test]
    fn robust_z_is_outlier_resistant() {
        // One wild spike in the baseline barely moves median/MAD, so the
        // fresh value is still judged against the quiet bulk.
        let mut baseline = noisy_history(20);
        baseline[7] = 50_000.0;
        assert!(robust_z(&baseline, 1500.0, 0.02) > 3.5);
        assert!(robust_z(&baseline, 1005.0, 0.02).abs() < 3.5);
        assert_eq!(robust_z(&[], 1.0, 0.02), 0.0);
    }

    #[test]
    fn benchmark_metrics_parse_with_direction_and_bound() {
        let json = r#"{"end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;
        let metrics = end_to_end_metrics(json).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[1].better, Better::Higher);
        assert_eq!(metrics[0].bound, 0.2);
        assert!(end_to_end_metrics(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
        assert!(end_to_end_metrics("{}").is_err());
    }

    #[test]
    fn perfbench_output_parses_into_one_row_per_metric() {
        let output = concat!(
            "{\"context\": {\"workload\": \"sweep-extend\", \"commit\": \"abc\", ",
            "\"nproc\": 2, \"rayon_threads\": 2, \"trace\": 0, \"ops\": 9}}\n",
            "summary: 9 ops\n",
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": ",
            "{\"op_p50_ms\": {\"value\": 700.5, \"unit\": \"ms\"}}}\n",
        );
        let run = PerfbenchRun::parse(output).unwrap();
        assert_eq!((run.nproc, run.rayon_threads), (2, 2));
        assert!(run.correct && !run.traced);
        let rows = run
            .history_rows(&[metric(Better::Lower, 0.2)], "2026-01-01")
            .unwrap_err();
        assert!(rows.contains("no metric m"), "{rows}");
        let mut op = metric(Better::Lower, 0.2);
        op.name = "op_p50_ms".into();
        let rows = run.history_rows(&[op], "2026-01-01").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, 700.5);
        assert_eq!(rows[0].host_cores, 2);
        let line = serde_json::to_string(&rows[0]).unwrap();
        assert_eq!(history_rows(&line).unwrap(), rows);
        assert!(PerfbenchRun::parse("summary only\n").is_err());
    }

    #[test]
    fn history_rejects_malformed_lines() {
        assert!(history_rows("\n\n").unwrap().is_empty());
        assert!(history_rows("{\"workload\":\"x\"}").is_err());
        assert!(history_rows("not json").is_err());
    }
}
