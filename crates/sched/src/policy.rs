//! Scheduling policies: orderings of the waiting queue.
//!
//! CCS — the RMS the paper builds on — implements three policies (§2):
//! **FCFS** (first come first serve), **SJF** (shortest job first) and
//! **LJF** (longest job first). dynP switches among them. A policy here is
//! *only* an ordering; the planner ([`crate::planner`]) turns an ordering
//! into a full schedule with implicit backfilling.
//!
//! Beyond the paper's three, two extension policies are provided for the
//! ablation experiments (DESIGN.md §3): smallest/largest estimated *area*
//! first, which weigh width as well as duration. They are never used by the
//! paper-faithful dynP configuration unless explicitly requested.

use dynp_trace::Job;
use std::cmp::Ordering;

/// A waiting-queue ordering policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First come first serve: by submission time.
    Fcfs,
    /// Shortest job first: by estimated duration, ascending.
    Sjf,
    /// Longest job first: by estimated duration, descending.
    Ljf,
    /// Extension: smallest estimated area (width x duration) first.
    Saf,
    /// Extension: largest estimated area (width x duration) first.
    Laf,
}

impl Policy {
    /// The paper's policy set, in the order CCS enumerates them.
    pub const PAPER_SET: [Policy; 3] = [Policy::Fcfs, Policy::Sjf, Policy::Ljf];

    /// All implemented policies, including extensions.
    pub const ALL: [Policy; 5] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Ljf,
        Policy::Saf,
        Policy::Laf,
    ];

    /// Short display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::Ljf => "LJF",
            Policy::Saf => "SAF",
            Policy::Laf => "LAF",
        }
    }

    /// Comparator realizing the policy. Every policy breaks ties by
    /// submission time and then job id, so orderings — and therefore whole
    /// simulations — are fully deterministic.
    pub fn compare(&self, a: &Job, b: &Job) -> Ordering {
        let primary = match self {
            Policy::Fcfs => Ordering::Equal,
            Policy::Sjf => a.estimated_duration.cmp(&b.estimated_duration),
            Policy::Ljf => b.estimated_duration.cmp(&a.estimated_duration),
            Policy::Saf => a.estimated_area().cmp(&b.estimated_area()),
            Policy::Laf => b.estimated_area().cmp(&a.estimated_area()),
        };
        primary.then(a.submit.cmp(&b.submit)).then(a.id.cmp(&b.id))
    }

    /// Returns the waiting jobs sorted according to the policy. The
    /// comparator ends in the job id, so no two distinct jobs compare
    /// equal and the unstable sort returns what a stable one would.
    pub fn order(&self, jobs: &[Job]) -> Vec<Job> {
        let mut sorted = jobs.to_vec();
        sorted.sort_unstable_by(|a, b| self.compare(a, b));
        sorted
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "FCFS" => Ok(Policy::Fcfs),
            "SJF" => Ok(Policy::Sjf),
            "LJF" => Ok(Policy::Ljf),
            "SAF" => Ok(Policy::Saf),
            "LAF" => Ok(Policy::Laf),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::JobId;

    fn jobs() -> Vec<Job> {
        vec![
            Job::exact(0, 10, 2, 300), // medium, early
            Job::exact(1, 20, 8, 100), // short, wide
            Job::exact(2, 30, 1, 900), // long, narrow
        ]
    }

    fn ids(policy: Policy, jobs: &[Job]) -> Vec<u32> {
        policy.order(jobs).iter().map(|j| j.id.0).collect()
    }

    #[test]
    fn fcfs_orders_by_submit() {
        assert_eq!(ids(Policy::Fcfs, &jobs()), vec![0, 1, 2]);
    }

    #[test]
    fn sjf_orders_by_estimate_ascending() {
        assert_eq!(ids(Policy::Sjf, &jobs()), vec![1, 0, 2]);
    }

    #[test]
    fn ljf_orders_by_estimate_descending() {
        assert_eq!(ids(Policy::Ljf, &jobs()), vec![2, 0, 1]);
    }

    #[test]
    fn saf_orders_by_area_ascending() {
        // areas: 600, 800, 900
        assert_eq!(ids(Policy::Saf, &jobs()), vec![0, 1, 2]);
    }

    #[test]
    fn laf_orders_by_area_descending() {
        assert_eq!(ids(Policy::Laf, &jobs()), vec![2, 1, 0]);
    }

    #[test]
    fn ties_break_by_submit_then_id() {
        let tied = vec![
            Job::exact(5, 100, 1, 60),
            Job::exact(3, 100, 1, 60),
            Job::exact(4, 50, 1, 60),
        ];
        assert_eq!(ids(Policy::Sjf, &tied), vec![4, 3, 5]);
        assert_eq!(ids(Policy::Ljf, &tied), vec![4, 3, 5]);
    }

    #[test]
    fn ordering_is_deterministic_under_shuffle() {
        let mut shuffled = jobs();
        shuffled.reverse();
        assert_eq!(ids(Policy::Sjf, &jobs()), ids(Policy::Sjf, &shuffled));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for p in Policy::ALL {
            let parsed: Policy = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("NOPE".parse::<Policy>().is_err());
        assert_eq!("fcfs".parse::<Policy>().unwrap(), Policy::Fcfs);
    }

    #[test]
    fn paper_set_is_fcfs_sjf_ljf() {
        assert_eq!(Policy::PAPER_SET.map(|p| p.name()), ["FCFS", "SJF", "LJF"]);
    }

    #[test]
    fn compare_is_a_total_order() {
        // Antisymmetry + transitivity spot check on a tricky triple.
        let a = Job::exact(1, 0, 1, 100);
        let b = Job::exact(2, 0, 2, 100);
        let c = Job::exact(3, 0, 3, 100);
        for p in Policy::ALL {
            assert_eq!(p.compare(&a, &b), p.compare(&b, &a).reverse());
            if p.compare(&a, &b) != Ordering::Greater && p.compare(&b, &c) != Ordering::Greater {
                assert_ne!(p.compare(&a, &c), Ordering::Greater);
            }
            assert_eq!(p.compare(&a, &a), Ordering::Equal);
        }
        let _ = JobId(0); // silence unused import in some cfgs
    }
}
