//! The policy-selection interface the RMS simulator drives.
//!
//! At every tuning point the RMS kernel (`dynp_sim::Rms`) asks its
//! selector which policy to plan with — and gets that policy's plan back,
//! so the winner is never planned twice. A [`FixedPolicy`] never changes —
//! the baseline the paper's context experiments compare against — while
//! [`SelfTuning`] performs a full self-tuning step.

use crate::tuner::SelfTuning;
use dynp_sched::{plan, PlanError, Policy, Schedule, SchedulingProblem};

/// Chooses the scheduling policy for a quasi-off-line snapshot.
pub trait PolicySelector {
    /// Returns the policy chosen for this snapshot together with the full
    /// schedule planned under it — the RMS installs exactly that plan.
    /// Implementations may mutate internal state (e.g. perform a
    /// self-tuning step).
    ///
    /// Fails with [`PlanError`] when the snapshot contains a job that
    /// cannot be planned; the RMS declines that job and selects again.
    fn select(&mut self, problem: &SchedulingProblem) -> Result<(Policy, Schedule), PlanError>;

    /// Human-readable label for result tables.
    fn label(&self) -> String;
}

/// A selector that always answers with the same policy.
#[derive(Clone, Copy, Debug)]
pub struct FixedPolicy(pub Policy);

impl PolicySelector for FixedPolicy {
    fn select(&mut self, problem: &SchedulingProblem) -> Result<(Policy, Schedule), PlanError> {
        Ok((self.0, plan(problem, self.0)?))
    }

    fn label(&self) -> String {
        self.0.name().to_string()
    }
}

impl PolicySelector for SelfTuning {
    fn select(&mut self, problem: &SchedulingProblem) -> Result<(Policy, Schedule), PlanError> {
        let outcome = self.step(problem)?;
        Ok((outcome.chosen, outcome.schedule))
    }

    fn label(&self) -> String {
        format!("dynP({})", self.metric())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_sched::Metric;
    use dynp_trace::Job;

    #[test]
    fn fixed_policy_never_switches() {
        let mut sel = FixedPolicy(Policy::Ljf);
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![Job::exact(0, 0, 1, 10)]);
        let expected = plan(&p, Policy::Ljf).unwrap();
        assert_eq!(sel.select(&p), Ok((Policy::Ljf, expected.clone())));
        assert_eq!(sel.select(&p), Ok((Policy::Ljf, expected)));
        assert_eq!(sel.label(), "LJF");
    }

    #[test]
    fn self_tuning_selector_tracks_tuner_state() {
        let mut sel = SelfTuning::paper_config(Metric::SldwA);
        let p = SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 4, 10_000),
                Job::exact(1, 0, 4, 100),
                Job::exact(2, 0, 4, 100),
            ],
        );
        let (chosen, schedule) = sel.select(&p).unwrap();
        assert_eq!(chosen, Policy::Sjf);
        assert_eq!(schedule, plan(&p, Policy::Sjf).unwrap());
        assert_eq!(sel.active(), Policy::Sjf);
        assert_eq!(sel.label(), "dynP(SLDwA)");
    }

    #[test]
    fn self_tuning_selector_surfaces_plan_errors() {
        let mut sel = SelfTuning::paper_config(Metric::SldwA);
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![Job::exact(0, 0, 9, 10)]);
        assert!(sel.select(&p).is_err());
    }
}
