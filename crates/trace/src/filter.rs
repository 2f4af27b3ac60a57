//! Windowing and rescaling helpers for carving experiment slices out of
//! long traces.
//!
//! The paper's Table 1 studies individual self-tuning steps; the harness
//! replays trace *prefixes* and *windows* to reach interesting system states
//! quickly. These helpers keep that slicing logic in one tested place.

use crate::job::{sort_by_submit, Job, JobId};

/// Returns the jobs submitted in `[from, to)`, re-based so the first kept
/// submission happens at time 0, with ids renumbered from 0 in submit order.
///
/// Re-basing keeps simulation clocks small and makes windows from different
/// trace regions directly comparable.
pub fn window(jobs: &[Job], from: u64, to: u64) -> Vec<Job> {
    let mut kept: Vec<Job> = jobs
        .iter()
        .filter(|j| j.submit >= from && j.submit < to)
        .copied()
        .collect();
    sort_by_submit(&mut kept);
    rebase(&mut kept);
    kept
}

/// Returns the first `n` jobs in submit order, re-based to start at 0.
pub fn prefix(jobs: &[Job], n: usize) -> Vec<Job> {
    let mut sorted: Vec<Job> = jobs.to_vec();
    sort_by_submit(&mut sorted);
    sorted.truncate(n);
    rebase(&mut sorted);
    sorted
}

/// Shifts submissions so the earliest is 0 and renumbers ids in submit
/// order. No-op on an empty slice.
pub fn rebase(jobs: &mut [Job]) {
    let Some(base) = jobs.iter().map(|j| j.submit).min() else {
        return;
    };
    jobs.sort_by(crate::job::submit_order);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.submit -= base;
        j.id = JobId(i as u32);
    }
}

/// Re-estimates every job as `factor ×` its *actual* runtime (rounded,
/// floored at 1 s): the over-estimation axis of the paper's §4 sweeps,
/// where users request `factor` times what their job really needs.
///
/// `factor = 1` makes estimates exact; larger factors inflate the
/// planner's view of the queue without changing the delivered work. A
/// factor below 1 would make planning-based RMSs *kill* jobs at the
/// (now too short) estimate, silently changing the workload, so it is
/// rejected.
///
/// # Panics
/// Panics when `factor < 1`.
pub fn overestimate(jobs: &[Job], factor: f64) -> Vec<Job> {
    assert!(factor >= 1.0, "over-estimation factor must be >= 1");
    jobs.iter()
        .map(|j| Job {
            estimated_duration: ((j.actual_duration as f64 * factor).round() as u64)
                .max(j.actual_duration)
                .max(1),
            ..*j
        })
        .collect()
}

/// Clamps every width to `machine_size` — used when replaying a trace on a
/// smaller machine than it was recorded on.
pub fn clamp_widths(jobs: &[Job], machine_size: u32) -> Vec<Job> {
    jobs.iter()
        .map(|j| Job {
            width: j.width.min(machine_size),
            ..*j
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Job> {
        vec![
            Job::exact(0, 100, 1, 10),
            Job::exact(1, 200, 2, 20),
            Job::exact(2, 300, 4, 30),
            Job::exact(3, 400, 8, 40),
        ]
    }

    #[test]
    fn window_keeps_half_open_range() {
        let w = window(&sample(), 200, 400);
        assert_eq!(w.len(), 2);
        // Re-based: 200 -> 0, 300 -> 100.
        assert_eq!(w[0].submit, 0);
        assert_eq!(w[1].submit, 100);
        assert_eq!(w[0].width, 2);
        assert_eq!(w[1].width, 4);
    }

    #[test]
    fn window_renumbers_ids() {
        let w = window(&sample(), 200, 400);
        assert_eq!(w[0].id, JobId(0));
        assert_eq!(w[1].id, JobId(1));
    }

    #[test]
    fn empty_window_is_ok() {
        assert!(window(&sample(), 1000, 2000).is_empty());
    }

    #[test]
    fn prefix_takes_first_n_by_submit() {
        let mut jobs = sample();
        jobs.reverse(); // deliberately unsorted input
        let p = prefix(&jobs, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].width, 1);
        assert_eq!(p[1].width, 2);
        assert_eq!(p[0].submit, 0);
        assert_eq!(p[1].submit, 100);
    }

    #[test]
    fn prefix_longer_than_trace_returns_all() {
        assert_eq!(prefix(&sample(), 100).len(), 4);
    }

    #[test]
    fn overestimate_scales_estimates_only() {
        let jobs = vec![Job::new(0, 0, 2, 100, 100), Job::new(1, 10, 4, 50, 30)];
        let o = overestimate(&jobs, 3.0);
        assert_eq!(o[0].estimated_duration, 300);
        assert_eq!(o[0].actual_duration, 100);
        // Factor applies to the *actual* runtime, replacing the old
        // estimate entirely.
        assert_eq!(o[1].estimated_duration, 90);
        assert_eq!(o[1].actual_duration, 30);
        // Identity factor pins estimates to actuals.
        let exact = overestimate(&jobs, 1.0);
        assert_eq!(exact[1].estimated_duration, 30);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn overestimate_rejects_underestimation() {
        overestimate(&sample(), 0.5);
    }

    #[test]
    fn clamp_widths_caps_at_machine() {
        let c = clamp_widths(&sample(), 3);
        assert_eq!(
            c.iter().map(|j| j.width).collect::<Vec<_>>(),
            vec![1, 2, 3, 3]
        );
    }
}
