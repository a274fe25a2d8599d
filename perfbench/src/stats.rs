//! The benchmark's own arithmetic: per-job best-of-k, nearest-rank
//! percentiles that refuse a thin tail, and the metric names and units it
//! prints.

use supersym::trace::{JsonObject, JsonValue};

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one slow job cannot be the whole tail.
pub const MIN_TAIL: usize = 10;

/// Each job's fastest repetition.
///
/// The host runs in slow phases that can double the cost of a pass, so a
/// job's time is the best of its `k` repetitions, not their mean: the
/// minimum is what the code costs when nothing else is in the way.
#[derive(Debug, Clone)]
pub struct BestOfK {
    best: Vec<f64>,
    runs: Vec<u32>,
}

impl BestOfK {
    /// No repetitions yet for `jobs` jobs.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        BestOfK {
            best: vec![f64::INFINITY; jobs],
            runs: vec![0; jobs],
        }
    }

    /// Records one repetition of `job` that took `seconds`.
    pub fn record(&mut self, job: usize, seconds: f64) {
        self.best[job] = self.best[job].min(seconds);
        self.runs[job] += 1;
    }

    /// Summarises the per-job bests.
    ///
    /// # Errors
    ///
    /// When a job was never measured, or there are too few jobs for a p90
    /// with [`MIN_TAIL`] samples beyond it.
    pub fn summary(&self) -> Result<JobSummary, String> {
        if let Some(job) = self.runs.iter().position(|&runs| runs == 0) {
            return Err(format!("job {job} was never measured"));
        }
        let mut sorted = self.best.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 0.5)
            .ok_or_else(|| format!("{} jobs are too few for a median", sorted.len()))?;
        let p90 = percentile(&sorted, 0.9).ok_or_else(|| {
            format!(
                "{} jobs leave fewer than {MIN_TAIL} beyond p90",
                sorted.len()
            )
        })?;
        Ok(JobSummary {
            jobs: sorted.len(),
            total_s: sorted.iter().sum(),
            p50_s: p50,
            p90_s: p90,
        })
    }
}

/// Timings over the distinct jobs of a run, each at its fastest repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSummary {
    /// Distinct jobs.
    pub jobs: usize,
    /// Sum of the per-job bests, seconds.
    pub total_s: f64,
    /// Median per-job best, seconds.
    pub p50_s: f64,
    /// 90th-percentile per-job best, seconds.
    pub p90_s: f64,
}

impl JobSummary {
    /// Distinct jobs divided by the sum of their fastest repetitions.
    #[must_use]
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.total_s
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it (or `q` is outside
/// `(0, 1)`).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

impl Metric {
    /// A metric; the name and unit are checked when the result is printed.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the one-line result the benchmark prints last.
///
/// # Errors
///
/// When a metric has an invalid name or unit, a name repeats, or a value
/// is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut object = JsonObject::new();
    let mut seen: Vec<&str> = Vec::new();
    for metric in metrics {
        if !valid_name(&metric.name) {
            return Err(format!("invalid metric name `{}`", metric.name));
        }
        if !valid_unit(metric.unit) {
            return Err(format!("invalid unit `{}` on {}", metric.unit, metric.name));
        }
        if seen.contains(&metric.name.as_str()) {
            return Err(format!("metric {} reported twice", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric {} is {}", metric.name, metric.value));
        }
        seen.push(&metric.name);
        object = object.field(
            &metric.name,
            JsonObject::new()
                .field("value", JsonValue::Float(metric.value))
                .field("unit", JsonValue::str(metric.unit))
                .build(),
        );
    }
    Ok(JsonObject::new()
        .field("correct", JsonValue::Bool(correct))
        .field("attempted", JsonValue::UInt(attempted))
        .field("failed", JsonValue::UInt(failed))
        .field("metrics", object.build())
        .build()
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym::trace::parse_json;

    #[test]
    fn best_of_k_keeps_each_jobs_fastest_repetition() {
        let mut best = BestOfK::new(3);
        for (job, seconds) in [(0, 3.0), (1, 5.0), (2, 1.0), (0, 2.0), (1, 7.0), (2, 4.0)] {
            best.record(job, seconds);
        }
        assert_eq!(best.best, [2.0, 5.0, 1.0]);
        assert_eq!(best.runs, [2, 2, 2]);
    }

    #[test]
    fn summary_needs_every_job_measured_and_a_thick_tail() {
        let mut best = BestOfK::new(100);
        assert!(best.summary().unwrap_err().contains("never measured"));
        for job in 0..100 {
            best.record(job, (job + 1) as f64 / 1000.0);
        }
        let summary = best.summary().unwrap();
        assert_eq!(summary.jobs, 100);
        assert!((summary.total_s - 5.05).abs() < 1e-12);
        assert!((summary.jobs_per_s() - 100.0 / 5.05).abs() < 1e-9);
        assert_eq!(summary.p50_s, 0.050);
        assert_eq!(summary.p90_s, 0.090);

        let mut small = BestOfK::new(99);
        for job in 0..99 {
            small.record(job, 1.0);
        }
        assert!(small.summary().unwrap_err().contains("beyond p90"));
    }

    #[test]
    fn percentile_is_nearest_rank_with_a_tail_guard() {
        let sorted: Vec<f64> = (1..=102).map(f64::from).collect();
        // ceil(0.9 * 102) = 92: ten samples lie beyond it.
        assert_eq!(percentile(&sorted, 0.9), Some(92.0));
        assert_eq!(percentile(&sorted, 0.5), Some(51.0));
        assert_eq!(percentile(&sorted[..99], 0.9), None);
        assert_eq!(percentile(&sorted[..100], 0.9), Some(90.0));
        // A median needs 20 samples before 10 lie beyond it.
        assert_eq!(percentile(&sorted[..19], 0.5), None);
        assert_eq!(percentile(&sorted[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&sorted, 0.0), None);
        assert_eq!(percentile(&sorted, 1.0), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn names_and_units() {
        for name in ["setup_s", "sim.block_cache.hit_rate", "a-b", "9lives"] {
            assert!(valid_name(name), "{name}");
        }
        for name in [
            "",
            ".hidden",
            "_x",
            "has space",
            "per/s",
            "a%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(name), "{name}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for unit in ["ms", "s", "1/s", "MiB", "%", "Minstr/s", "count"] {
            assert!(valid_unit(unit), "{unit}");
        }
        for unit in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn result_line_round_trips_and_rejects_bad_metrics() {
        let line = result_line(
            true,
            384,
            0,
            &[
                Metric::new("jobs_per_s", 312.25, "1/s"),
                Metric::new("setup_s", 0.8125, "s"),
            ],
        )
        .unwrap();
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(384));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.8125));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));

        let twice = [Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")];
        assert!(result_line(true, 1, 0, &twice).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("a b", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("a", 1.0, "µs")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("a", f64::NAN, "s")]).is_err());
    }
}
