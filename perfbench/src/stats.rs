//! Order statistics, failure accounting and process memory.

/// The `q`-quantile of `samples` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile, reported only when at least [`TAIL_MIN_BEYOND`]
/// samples lie strictly beyond its rank; with fewer, a tail percentile
/// is one or two unlucky samples and is omitted.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < TAIL_MIN_BEYOND as f64 {
        return None;
    }
    quantile(samples, q)
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// Completed, and the prediction matched its reference bit for bit.
    Ok,
    /// The call returned an error.
    Error,
    /// The server answered with a non-200 status other than 429.
    Status(u16),
    /// The server refused the request with 429 (queue full).
    Refused,
    /// Completed, but the prediction differs from its reference.
    Mismatch,
}

impl OpResult {
    /// Maps an HTTP status onto a result (200 is decided by the caller's
    /// output check).
    pub fn from_status(status: u16) -> OpResult {
        match status {
            200 => OpResult::Ok,
            429 => OpResult::Refused,
            other => OpResult::Status(other),
        }
    }
}

/// Attempted/failed counters plus the latencies of successful ops.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not yield a correct prediction.
    pub failed: u64,
    /// Seconds per successful op.
    pub latencies: Vec<f64>,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one op: its result, its latency, and a label for failures.
    pub fn record(&mut self, result: OpResult, seconds: f64, label: &str) {
        self.attempted += 1;
        if result == OpResult::Ok {
            self.latencies.push(seconds);
        } else {
            self.failed += 1;
            self.failures.push(format!("{label}: {result:?}"));
        }
    }

    /// Records a checked op whose latency is not a sample (a traced op).
    pub fn check(&mut self, result: OpResult, label: &str) {
        self.attempted += 1;
        if result != OpResult::Ok {
            self.failed += 1;
            self.failures.push(format!("{label}: {result:?}"));
        }
    }

    /// Folds another tally (e.g. a second client's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
        self.failures.extend(other.failures);
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, when the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_omitted_with_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        // 99 samples leave 9.9 beyond the 90th percentile: omitted.
        assert_eq!(tail_quantile(&xs, 0.9), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples leave exactly 10 beyond it: reported.
        assert_eq!(tail_quantile(&xs, 0.9), quantile(&xs, 0.9));
        assert!(tail_quantile(&xs, 0.9).is_some());
        // The median of a handful of samples is still a tail of nothing.
        assert_eq!(tail_quantile(&[1.0, 2.0, 3.0], 0.9), None);
    }

    #[test]
    fn refusals_errors_and_mismatches_all_count_as_failures() {
        let mut t = Tally::default();
        t.record(OpResult::Ok, 0.5, "a");
        t.record(OpResult::from_status(429), 0.01, "b");
        t.record(OpResult::Mismatch, 0.5, "c");
        t.record(OpResult::from_status(500), 0.01, "d");
        t.record(OpResult::Error, 0.01, "e");
        t.record(OpResult::from_status(200), 0.4, "f");
        assert_eq!(OpResult::from_status(429), OpResult::Refused);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed, 4);
        assert_eq!(t.failures.len(), 4);
        // Only successful ops contribute latencies.
        assert_eq!(t.latencies, vec![0.5, 0.4]);
        assert!((t.failed_frac() - 4.0 / 6.0).abs() < 1e-12);

        let mut other = Tally::default();
        other.record(OpResult::Refused, 0.0, "g");
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (7, 5));
    }
}
