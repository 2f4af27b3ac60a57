//! A queue-based RMS: the architecture the paper *contrasts* planning-based
//! systems with (§1/§3, following Hovestadt et al., "Queuing vs. Planning").
//!
//! Queue-based systems (EASY LoadLeveler, classic PBS) keep waiting jobs in
//! a queue and make decisions only at dispatch time:
//!
//! * [`QueueDiscipline::Plain`] — strict head-of-queue dispatch: if the
//!   head job does not fit, *nothing* starts (no backfilling),
//! * [`QueueDiscipline::EasyBackfill`] — the EASY algorithm: the head job
//!   gets a *shadow-time* reservation from the running jobs' estimated
//!   ends; any later job may start now iff it terminates (by estimate)
//!   before the shadow time, or uses no more than the nodes left over at
//!   the shadow time ("extra nodes").
//!
//! Queue order follows any [`Policy`]. Unlike the planning RMS
//! ([`crate::rms`]), a queue-based system assigns **no future start
//! times** — which is exactly why the paper's self-tuning step (it needs
//! full schedules to evaluate) and reservation admission require planning.

use crate::record::JobRecord;
use crate::run::arrival_order;
use dynp_platform::Machine;
use dynp_sched::Policy;
use dynp_trace::{Job, JobId};

/// Dispatch rule of the queue-based RMS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Strict in-order dispatch; a stuck head blocks the whole queue.
    Plain,
    /// EASY backfilling: later jobs may jump ahead iff they cannot delay
    /// the head job's shadow-time reservation.
    EasyBackfill,
}

/// The queue-based resource management system.
#[derive(Debug)]
pub struct QueueRms {
    machine: Machine,
    policy: Policy,
    discipline: QueueDiscipline,
    queue: Vec<Job>,
    records: Vec<JobRecord>,
    /// Count of dispatches that jumped the queue (backfills).
    backfills: usize,
}

impl QueueRms {
    /// A queue-based RMS over `capacity` resources.
    pub fn new(capacity: u32, policy: Policy, discipline: QueueDiscipline) -> QueueRms {
        QueueRms {
            machine: Machine::new(capacity),
            policy,
            discipline,
            queue: Vec::new(),
            records: Vec::new(),
            backfills: 0,
        }
    }

    /// Completed-job records so far.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of backfilled (queue-jumping) dispatches.
    pub fn backfills(&self) -> usize {
        self.backfills
    }

    /// The machine (for capacity queries).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Consumes the RMS, returning the completion records.
    pub fn into_records(self) -> Vec<JobRecord> {
        self.records
    }

    /// Admits `job` at time `now` and dispatches what the discipline
    /// allows.
    ///
    /// # Panics
    /// Panics if `job` is wider than the machine: it could never start.
    pub fn submit(&mut self, now: u64, job: Job) {
        assert!(
            job.width <= self.machine.capacity(),
            "job {} wider than machine",
            job.id
        );
        self.queue.push(job);
        self.dispatch(now);
    }

    /// Completes the running job that finishes first if its actual end
    /// is at or before `t` — ties to the lower id, as in
    /// [`crate::Rms::complete_next`] — records it and dispatches at its
    /// end. Returns its `(end, id)`, or `None` when nothing is due by `t`.
    pub fn complete_next(&mut self, t: u64) -> Option<(u64, JobId)> {
        let (end, id) = self.machine.next_completion().filter(|&(end, _)| end <= t)?;
        let running = self.machine.complete(id).expect("the next completion is running");
        self.records.push(JobRecord::completed(running, end));
        self.dispatch(end);
        Some((end, id))
    }

    /// The EASY shadow time and extra nodes for the current head job:
    /// the earliest time the head can start given the running jobs'
    /// estimated ends, and the nodes that will still be free then beyond
    /// the head's request.
    fn shadow(&self, head: &Job, now: u64) -> (u64, u32) {
        let history = self.machine.history(now);
        let mut shadow_time = now;
        for p in history.points() {
            shadow_time = p.time;
            if p.free >= head.width {
                break;
            }
        }
        let extra = history.free_at(shadow_time) - head.width;
        (shadow_time, extra)
    }

    /// Dispatches everything the discipline allows right now.
    fn dispatch(&mut self, now: u64) {
        // Queue in policy order.
        self.queue.sort_by(|a, b| self.policy.compare(a, b));
        // First, drain in-order starts.
        while let Some(head) = self.queue.first().copied() {
            if self.machine.can_start(head.width) {
                self.queue.remove(0);
                self.machine.start(&head, now);
            } else {
                break;
            }
        }
        if self.discipline == QueueDiscipline::Plain {
            return;
        }
        // EASY backfilling behind a stuck head.
        let Some(head) = self.queue.first().copied() else {
            return;
        };
        let (mut shadow_time, mut extra) = self.shadow(&head, now);
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            if !self.machine.can_start(cand.width) {
                i += 1;
                continue;
            }
            let finishes_before_shadow = now + cand.estimated_duration <= shadow_time;
            let fits_extra = cand.width <= extra;
            if finishes_before_shadow || fits_extra {
                self.queue.remove(i);
                self.machine.start(&cand, now);
                self.backfills += 1;
                // Starting a backfill changes the running set; re-derive
                // the head's shadow reservation so later candidates are
                // admitted against the tightened conditions.
                (shadow_time, extra) = self.shadow(&head, now);
            } else {
                i += 1;
            }
        }
    }
}

/// Replays `jobs` through a queue-based RMS; returns completion records
/// and the backfill count. Jobs wider than the machine are left out; the
/// rest arrive in submit order (ties in input order), each after every
/// completion due by its submit time, as in [`crate::simulate`].
pub fn simulate_queue(
    jobs: &[Job],
    capacity: u32,
    policy: Policy,
    discipline: QueueDiscipline,
) -> (Vec<JobRecord>, usize) {
    let mut rms = QueueRms::new(capacity, policy, discipline);
    for job in arrival_order(jobs).into_iter().filter(|job| job.width <= capacity) {
        while rms.complete_next(job.submit).is_some() {}
        rms.submit(job.submit, *job);
    }
    while rms.complete_next(u64::MAX).is_some() {}
    let backfills = rms.backfills();
    (rms.into_records(), backfills)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SimSummary;
    use dynp_trace::{CtcModel, WorkloadModel};

    fn by_id(records: &[JobRecord]) -> Vec<JobRecord> {
        let mut v = records.to_vec();
        v.sort_by_key(|r| r.id);
        v
    }

    #[test]
    fn plain_queue_blocks_behind_stuck_head() {
        // Head (wide) cannot start; narrow job behind it must NOT start
        // under Plain even though it would fit.
        let jobs = vec![
            Job::exact(0, 0, 3, 100), // runs
            Job::exact(1, 1, 4, 100), // stuck head (needs 4, 1 free)
            Job::exact(2, 2, 1, 50),  // would fit, must wait
        ];
        let (records, backfills) = simulate_queue(&jobs, 4, Policy::Fcfs, QueueDiscipline::Plain);
        let r = by_id(&records);
        assert_eq!(backfills, 0);
        assert_eq!(r[1].start, 100);
        assert!(r[2].start >= 100, "plain queue must not backfill");
    }

    #[test]
    fn easy_backfills_short_narrow_jobs() {
        let jobs = vec![
            Job::exact(0, 0, 3, 100),
            Job::exact(1, 1, 4, 100), // stuck head; shadow time = 100
            Job::exact(2, 2, 1, 50),  // finishes by 52 <= 100: backfill
        ];
        let (records, backfills) =
            simulate_queue(&jobs, 4, Policy::Fcfs, QueueDiscipline::EasyBackfill);
        let r = by_id(&records);
        assert_eq!(backfills, 1);
        assert_eq!(r[2].start, 2);
        // Head starts exactly at its shadow time, undelayed.
        assert_eq!(r[1].start, 100);
    }

    #[test]
    fn easy_never_delays_the_head_job() {
        // A long narrow job must NOT backfill because it would overrun the
        // shadow time and block the head.
        let jobs = vec![
            Job::exact(0, 0, 3, 100),
            Job::exact(1, 1, 4, 100), // head, shadow 100
            Job::exact(2, 2, 1, 500), // too long to backfill
        ];
        let (records, backfills) =
            simulate_queue(&jobs, 4, Policy::Fcfs, QueueDiscipline::EasyBackfill);
        let r = by_id(&records);
        assert_eq!(backfills, 0);
        assert_eq!(r[1].start, 100, "head delayed by a backfill");
        assert_eq!(r[2].start, 200);
    }

    #[test]
    fn extra_nodes_backfill_is_allowed() {
        // Head needs 4 of 6; at shadow time 2 nodes remain extra, so a
        // width-2 job of any length may backfill.
        let jobs = vec![
            Job::exact(0, 0, 4, 100),
            Job::exact(1, 1, 4, 100),    // head; shadow 100, extra = 2
            Job::exact(2, 2, 2, 10_000), // wide enough for extras, any length
        ];
        let (records, backfills) =
            simulate_queue(&jobs, 6, Policy::Fcfs, QueueDiscipline::EasyBackfill);
        let r = by_id(&records);
        assert_eq!(backfills, 1);
        assert_eq!(r[2].start, 2);
        assert_eq!(r[1].start, 100);
    }

    #[test]
    fn easy_beats_plain_on_throughput() {
        let trace = CtcModel {
            nodes: 32,
            mean_interarrival: 60.0,
            ..CtcModel::default()
        }
        .generate(300, 11);
        let (plain, _) = simulate_queue(&trace.jobs, 32, Policy::Fcfs, QueueDiscipline::Plain);
        let (easy, backfills) =
            simulate_queue(&trace.jobs, 32, Policy::Fcfs, QueueDiscipline::EasyBackfill);
        assert!(backfills > 0);
        let s_plain = SimSummary::compute(&plain, 32);
        let s_easy = SimSummary::compute(&easy, 32);
        assert!(
            s_easy.avg_wait <= s_plain.avg_wait,
            "EASY {} should not wait longer than Plain {}",
            s_easy.avg_wait,
            s_plain.avg_wait
        );
    }

    #[test]
    fn all_jobs_complete_under_both_disciplines() {
        let trace = CtcModel {
            nodes: 16,
            mean_interarrival: 200.0,
            ..CtcModel::default()
        }
        .generate(120, 13);
        for discipline in [QueueDiscipline::Plain, QueueDiscipline::EasyBackfill] {
            let (records, _) = simulate_queue(&trace.jobs, 16, Policy::Fcfs, discipline);
            assert_eq!(records.len(), 120, "{discipline:?} dropped jobs");
            for r in &records {
                assert!(r.start >= r.submit);
            }
        }
    }

    #[test]
    fn sjf_queue_order_is_respected() {
        let jobs = vec![
            Job::exact(0, 0, 4, 100), // running
            Job::exact(1, 1, 4, 900),
            Job::exact(2, 2, 4, 50),
        ];
        let (records, _) = simulate_queue(&jobs, 4, Policy::Sjf, QueueDiscipline::Plain);
        let r = by_id(&records);
        // SJF: the short job goes first when the machine frees.
        assert_eq!(r[2].start, 100);
        assert_eq!(r[1].start, 150);
    }
}
