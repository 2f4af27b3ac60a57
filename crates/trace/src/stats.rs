//! Summary statistics over job sets.
//!
//! Used to sanity-check synthetic workloads against the CTC statistics the
//! paper quotes (mean interarrival time 369 s) and to report workload
//! characteristics in the experiment harness.

use crate::job::Job;

/// Aggregate statistics of a job stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub count: usize,
    /// Mean interarrival time in seconds (0 for traces with < 2 jobs).
    pub mean_interarrival: f64,
    /// Mean requested width.
    pub mean_width: f64,
    /// Maximum requested width.
    pub max_width: u32,
    /// Fraction of serial (width 1) jobs.
    pub serial_fraction: f64,
    /// Mean actual runtime in seconds.
    pub mean_runtime: f64,
    /// Median actual runtime in seconds.
    pub median_runtime: u64,
    /// Maximum actual runtime in seconds.
    pub max_runtime: u64,
    /// Mean over-estimation factor `estimate / actual`.
    pub mean_overestimation: f64,
    /// Total work (sum of width * actual runtime) in resource-seconds.
    pub total_work: u64,
    /// Trace span: last submit minus first submit, in seconds.
    pub span: u64,
}

impl TraceStats {
    /// Computes statistics for a job slice. Jobs need not be sorted; the
    /// interarrival statistic sorts a copy of the submit times internally.
    pub fn compute(jobs: &[Job]) -> TraceStats {
        if jobs.is_empty() {
            return TraceStats {
                count: 0,
                mean_interarrival: 0.0,
                mean_width: 0.0,
                max_width: 0,
                serial_fraction: 0.0,
                mean_runtime: 0.0,
                median_runtime: 0,
                max_runtime: 0,
                mean_overestimation: 0.0,
                total_work: 0,
                span: 0,
            };
        }
        let n = jobs.len();
        let mut submits: Vec<u64> = jobs.iter().map(|j| j.submit).collect();
        submits.sort_unstable();
        let span = submits[n - 1] - submits[0];
        let mean_interarrival = if n >= 2 {
            span as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let mut runtimes: Vec<u64> = jobs.iter().map(|j| j.actual_duration).collect();
        runtimes.sort_unstable();
        let median_runtime = runtimes[n / 2];
        let total_width: u64 = jobs.iter().map(|j| j.width as u64).sum();
        let total_runtime: u64 = jobs.iter().map(|j| j.actual_duration).sum();
        let serial = jobs.iter().filter(|j| j.width == 1).count();
        let over: f64 = jobs
            .iter()
            .map(|j| j.estimated_duration as f64 / j.actual_duration.max(1) as f64)
            .sum::<f64>()
            / n as f64;
        TraceStats {
            count: n,
            mean_interarrival,
            mean_width: total_width as f64 / n as f64,
            max_width: jobs.iter().map(|j| j.width).max().unwrap_or(0),
            serial_fraction: serial as f64 / n as f64,
            mean_runtime: total_runtime as f64 / n as f64,
            median_runtime,
            max_runtime: runtimes[n - 1],
            mean_overestimation: over,
            total_work: jobs
                .iter()
                .map(|j| j.width as u64 * j.actual_duration)
                .sum(),
            span,
        }
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "jobs:                {}", self.count)?;
        writeln!(f, "span:                {} s", self.span)?;
        writeln!(f, "mean interarrival:   {:.1} s", self.mean_interarrival)?;
        writeln!(
            f,
            "width:               mean {:.1}, max {}, serial {:.0}%",
            self.mean_width,
            self.max_width,
            self.serial_fraction * 100.0
        )?;
        writeln!(
            f,
            "runtime:             mean {:.0} s, median {} s, max {} s",
            self.mean_runtime, self.median_runtime, self.max_runtime
        )?;
        writeln!(f, "mean overestimation: {:.2}x", self.mean_overestimation)?;
        write!(
            f,
            "total work:          {} resource-seconds",
            self.total_work
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::compute(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.total_work, 0);
    }

    #[test]
    fn single_job_stats() {
        let s = TraceStats::compute(&[Job::new(1, 100, 4, 200, 100)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_interarrival, 0.0);
        assert_eq!(s.max_width, 4);
        assert_eq!(s.total_work, 400);
        assert_eq!(s.mean_overestimation, 2.0);
    }

    #[test]
    fn interarrival_and_span() {
        let jobs = vec![
            Job::exact(1, 0, 1, 10),
            Job::exact(2, 100, 1, 10),
            Job::exact(3, 200, 1, 10),
        ];
        let s = TraceStats::compute(&jobs);
        assert_eq!(s.span, 200);
        assert_eq!(s.mean_interarrival, 100.0);
    }

    #[test]
    fn interarrival_tolerates_unsorted_input() {
        let jobs = vec![
            Job::exact(3, 200, 1, 10),
            Job::exact(1, 0, 1, 10),
            Job::exact(2, 100, 1, 10),
        ];
        assert_eq!(TraceStats::compute(&jobs).mean_interarrival, 100.0);
    }

    #[test]
    fn serial_fraction_counts_width_one() {
        let jobs = vec![
            Job::exact(1, 0, 1, 10),
            Job::exact(2, 1, 2, 10),
            Job::exact(3, 2, 1, 10),
            Job::exact(4, 3, 8, 10),
        ];
        assert_eq!(TraceStats::compute(&jobs).serial_fraction, 0.5);
    }

    #[test]
    fn display_mentions_job_count() {
        let s = TraceStats::compute(&[Job::exact(1, 0, 1, 10)]);
        assert!(format!("{s}").contains("jobs:"));
    }
}
