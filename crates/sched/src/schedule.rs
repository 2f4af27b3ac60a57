//! Full schedules: planned start (and end) times for every waiting job.
//!
//! "For all waiting jobs the scheduler computes a full schedule, which
//! contains planned start times for every waiting job in the system. With
//! this information it is possible to measure the schedule by means of a
//! performance metrics." (§2)
//!
//! A [`Schedule`] is the output of both the policy planner and the integer
//! program; [`Schedule::validate`] checks it against the snapshot it was
//! planned for (capacity never exceeded including running jobs, every job
//! placed exactly once, no job starts before "now").

use crate::snapshot::SchedulingProblem;
use dynp_trace::JobId;

/// One planned job placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Which job.
    pub id: JobId,
    /// Planned start time (absolute seconds).
    pub start: u64,
    /// Planned end = start + estimated duration.
    pub end: u64,
    /// Resources occupied.
    pub width: u32,
}

impl ScheduleEntry {
    /// Planned (estimated) duration.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A full schedule for one [`SchedulingProblem`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// An empty schedule with room for `n` placements.
    pub(crate) fn with_capacity(n: usize) -> Schedule {
        Schedule::from_entries(Vec::with_capacity(n))
    }

    /// Builds a schedule from entries (order is irrelevant; kept as given).
    pub fn from_entries(entries: Vec<ScheduleEntry>) -> Schedule {
        Schedule { entries }
    }

    /// Adds a placement.
    pub fn push(&mut self, entry: ScheduleEntry) {
        self.entries.push(entry);
    }

    /// All placements, in insertion order (the planner inserts in policy
    /// order, so this doubles as the "starting order" §3.2 needs for
    /// compaction).
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Number of placed jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no job is placed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the placement of a job.
    pub fn entry(&self, id: JobId) -> Option<&ScheduleEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Planned start of a job.
    pub fn start_of(&self, id: JobId) -> Option<u64> {
        self.entry(id).map(|e| e.start)
    }

    /// Latest planned end over all entries; `now` for an empty schedule is
    /// the caller's business, hence `Option`.
    pub fn makespan_end(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.end).max()
    }

    /// Entries sorted by planned start (ties by id) — the "starting order"
    /// used when reconstructing a time-scaled ILP schedule (§3.2).
    pub fn start_order(&self) -> Vec<ScheduleEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
        sorted
    }

    /// Validates this schedule against the snapshot it was planned for:
    ///
    /// 1. exactly the snapshot's job set is placed, each job once,
    /// 2. every entry's width/duration matches the job description,
    /// 3. no job starts before `now`,
    /// 4. at no time does total usage (running jobs via the history, plus
    ///    planned jobs) exceed the machine capacity.
    pub fn validate(&self, problem: &SchedulingProblem) -> Result<(), String> {
        // 1 + 2: job set equality and attribute match.
        if self.entries.len() != problem.jobs.len() {
            return Err(format!(
                "schedule places {} jobs, snapshot has {}",
                self.entries.len(),
                problem.jobs.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for entry in &self.entries {
            if !seen.insert(entry.id) {
                return Err(format!("job {} placed twice", entry.id));
            }
            let job = problem
                .jobs
                .iter()
                .find(|j| j.id == entry.id)
                .ok_or_else(|| format!("job {} not in snapshot", entry.id))?;
            if entry.width != job.width {
                return Err(format!(
                    "job {}: width {} != requested {}",
                    entry.id, entry.width, job.width
                ));
            }
            // A zero estimate is planned as one second (see the planner).
            if entry.duration() != job.estimated_duration.max(1) {
                return Err(format!(
                    "job {}: planned duration {} != estimate {}",
                    entry.id,
                    entry.duration(),
                    job.estimated_duration
                ));
            }
            if entry.start < problem.now {
                return Err(format!(
                    "job {} starts at {} before now {}",
                    entry.id, entry.start, problem.now
                ));
            }
        }
        // 4: capacity, via sweep over start/end events against the
        // availability profile (history minus reservations).
        let profile = problem.availability_profile();
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            events.push((e.start, e.width as i64));
            events.push((e.end, -(e.width as i64)));
        }
        events.sort_unstable();
        let mut usage: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                usage += events[i].1;
                i += 1;
            }
            let free = profile.free_at(t.max(problem.now)) as i64;
            if usage > free {
                return Err(format!(
                    "capacity exceeded at t={t}: planned usage {usage} > free {free}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_platform::MachineHistory;
    use dynp_trace::Job;

    fn problem() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            100,
            8,
            vec![Job::exact(0, 50, 4, 100), Job::exact(1, 60, 6, 200)],
        )
    }

    fn entry(id: u32, start: u64, dur: u64, width: u32) -> ScheduleEntry {
        ScheduleEntry {
            id: JobId(id),
            start,
            end: start + dur,
            width,
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 4), entry(1, 200, 200, 6)]);
        s.validate(&problem()).unwrap();
        assert_eq!(s.makespan_end(), Some(400));
        assert_eq!(s.start_of(JobId(0)), Some(100));
    }

    #[test]
    fn concurrent_fit_passes() {
        // 4 + 6 > 8, so they must not overlap; 4 alone and 6 alone fit.
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 4), entry(1, 200, 200, 6)]);
        assert!(s.validate(&problem()).is_ok());
    }

    #[test]
    fn overcommit_fails() {
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 4), entry(1, 150, 200, 6)]);
        assert!(s.validate(&problem()).unwrap_err().contains("capacity"));
    }

    #[test]
    fn start_before_now_fails() {
        let s = Schedule::from_entries(vec![entry(0, 90, 100, 4), entry(1, 200, 200, 6)]);
        assert!(s.validate(&problem()).unwrap_err().contains("before now"));
    }

    #[test]
    fn missing_job_fails() {
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 4)]);
        assert!(s.validate(&problem()).is_err());
    }

    #[test]
    fn duplicate_job_fails() {
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 4), entry(0, 300, 100, 4)]);
        assert!(s.validate(&problem()).unwrap_err().contains("twice"));
    }

    #[test]
    fn wrong_width_fails() {
        let s = Schedule::from_entries(vec![entry(0, 100, 100, 2), entry(1, 200, 200, 6)]);
        assert!(s.validate(&problem()).unwrap_err().contains("width"));
    }

    #[test]
    fn wrong_duration_fails() {
        let s = Schedule::from_entries(vec![entry(0, 100, 50, 4), entry(1, 200, 200, 6)]);
        assert!(s.validate(&problem()).unwrap_err().contains("duration"));
    }

    #[test]
    fn history_reduces_available_capacity() {
        // 5 resources busy until t=300.
        let history = MachineHistory::build(8, 100, &[(5, 300)]);
        let p = SchedulingProblem::new(100, history, vec![Job::exact(0, 50, 4, 100)]);
        let bad = Schedule::from_entries(vec![entry(0, 100, 100, 4)]);
        assert!(bad.validate(&p).is_err());
        let good = Schedule::from_entries(vec![entry(0, 300, 100, 4)]);
        good.validate(&p).unwrap();
    }

    #[test]
    fn start_order_sorts_by_start() {
        let s = Schedule::from_entries(vec![entry(1, 200, 200, 6), entry(0, 100, 100, 4)]);
        let order: Vec<u32> = s.start_order().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn empty_schedule_has_no_makespan() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.makespan_end(), None);
        s.validate(&SchedulingProblem::on_empty_machine(0, 4, vec![]))
            .unwrap();
    }
}
