//! The machine history of §3.1 / Figure 1: when do running jobs release
//! their resources?
//!
//! Quoting the paper: *"The history of resource usage is a list of tuples. A
//! tuple consists of a time stamp and the number of resources that are free
//! from that time on. … The number of free resources are increasing
//! monotonously as only already running jobs are considered. And if more
//! than one job ends at the same time, a single time stamp is sufficient.
//! Note, the estimated duration of already running jobs has to be used for
//! generating the time stamps."*
//!
//! A [`MachineHistory`] is therefore a compact, monotone list of
//! [`HistoryPoint`]s starting at "now". It converts into a
//! [`ResourceProfile`] for the planner and
//! provides the per-slot capacities `M_t` for the integer program.

use crate::profile::ResourceProfile;

/// One `(time stamp, free resources)` tuple of the machine history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryPoint {
    /// Absolute time in seconds at which `free` resources become available.
    pub time: u64,
    /// Number of free resources from `time` on (until the next point).
    pub free: u32,
}

/// Monotone machine history: free resources over time, considering only
/// already-running jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineHistory {
    capacity: u32,
    /// Points with strictly increasing `time` and strictly increasing
    /// `free`; the first point is at the observation time ("now") and the
    /// last has `free == capacity`.
    points: Vec<HistoryPoint>,
}

impl MachineHistory {
    /// Builds the history of a machine with `capacity` resources observed at
    /// time `now`, given the running jobs as `(width, estimated_end)` pairs.
    ///
    /// Estimated ends at or before `now` are treated as releasing at
    /// `now + 1`: the job *should* have ended but is still occupying
    /// resources, and a planning system keeps its reservation one step
    /// ahead. Jobs wider than remaining capacity are a caller bug.
    pub fn build(capacity: u32, now: u64, running: &[(u32, u64)]) -> MachineHistory {
        let mut ordered = running.to_vec();
        ordered.sort_unstable_by_key(|&(_, est_end)| est_end);
        let busy: u64 = running.iter().map(|&(w, _)| w as u64).sum();
        assert!(
            busy <= capacity as u64,
            "running jobs occupy {busy} > capacity {capacity}"
        );
        MachineHistory::from_ordered(capacity, now, busy as u32, ordered)
    }

    /// [`Self::build`] over a running set already ordered by estimated
    /// end, occupying `busy` resources in total: one pass, no sort. Ends
    /// clamped to `now + 1` keep that order, and jobs sharing a time stamp
    /// are coalesced into one point.
    pub(crate) fn from_ordered(
        capacity: u32,
        now: u64,
        busy: u32,
        running: impl IntoIterator<Item = (u32, u64)>,
    ) -> MachineHistory {
        let running = running.into_iter();
        let mut free = capacity - busy;
        let mut points = Vec::with_capacity(running.size_hint().0 + 1);
        points.push(HistoryPoint { time: now, free });
        for (width, est_end) in running {
            let time = est_end.max(now + 1);
            free += width;
            match points.last_mut() {
                Some(last) if last.time == time => last.free = free,
                _ => points.push(HistoryPoint { time, free }),
            }
        }
        MachineHistory { capacity, points }
    }

    /// An empty history: machine fully free from `now` on.
    pub fn empty(capacity: u32, now: u64) -> MachineHistory {
        MachineHistory::build(capacity, now, &[])
    }

    /// Total machine capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Observation time ("now"): the time stamp of the first point.
    pub fn now(&self) -> u64 {
        self.points[0].time
    }

    /// The history tuples, in increasing time and free order.
    pub fn points(&self) -> &[HistoryPoint] {
        &self.points
    }

    /// Free resources at absolute time `t >= now()`.
    pub fn free_at(&self, t: u64) -> u32 {
        debug_assert!(t >= self.now(), "query before observation time");
        let idx = self.points.partition_point(|p| p.time <= t);
        if idx == 0 {
            self.points[0].free
        } else {
            self.points[idx - 1].free
        }
    }

    /// Time at which the last running job releases its resources (equals
    /// `now()` when nothing is running).
    pub fn drained_at(&self) -> u64 {
        self.points.last().unwrap().time
    }

    /// Converts to a [`ResourceProfile`] over absolute time: full capacity
    /// before `now()` (irrelevant to planners, which never place jobs in
    /// the past), then the history's points as the profile's breakpoints —
    /// written in one pass, equal neighbours coalesced, which is the
    /// profile carving each busy interval out of a free machine would
    /// build.
    pub fn to_profile(&self) -> ResourceProfile {
        // The final point always reaches capacity: every running job
        // releases at some time stamp.
        debug_assert_eq!(self.points.last().unwrap().free, self.capacity);
        let mut steps = Vec::with_capacity(self.points.len() + 1);
        if self.now() > 0 {
            steps.push((0, self.capacity));
        }
        for p in &self.points {
            if steps.last().is_none_or(|&(_, free)| free != p.free) {
                steps.push((p.time, p.free));
            }
        }
        ResourceProfile::from_steps(self.capacity, steps)
    }

    /// Checks the paper's invariants: strictly increasing time stamps,
    /// strictly increasing free counts, final point at full capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("history has no points".into());
        }
        for w in self.points.windows(2) {
            if w[0].time >= w[1].time {
                return Err(format!(
                    "time stamps not strictly increasing: {} -> {}",
                    w[0].time, w[1].time
                ));
            }
            if w[0].free >= w[1].free {
                return Err(format!(
                    "free counts not strictly increasing: {} -> {}",
                    w[0].free, w[1].free
                ));
            }
        }
        let last = self.points.last().unwrap();
        if last.free != self.capacity {
            return Err(format!(
                "final free {} != capacity {}",
                last.free, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_history_is_single_full_point() {
        let h = MachineHistory::empty(16, 100);
        assert_eq!(h.points().len(), 1);
        assert_eq!(h.free_at(100), 16);
        assert_eq!(h.drained_at(), 100);
        h.check_invariants().unwrap();
    }

    #[test]
    fn history_matches_figure_1_shape() {
        // Three running jobs: widths 4, 2, 6 ending at 50, 80, 80.
        let h = MachineHistory::build(16, 10, &[(4, 50), (2, 80), (6, 80)]);
        assert_eq!(
            h.points(),
            &[
                HistoryPoint { time: 10, free: 4 },
                HistoryPoint { time: 50, free: 8 },
                HistoryPoint { time: 80, free: 16 },
            ]
        );
        h.check_invariants().unwrap();
    }

    #[test]
    fn simultaneous_ends_share_a_time_stamp() {
        let h = MachineHistory::build(8, 0, &[(2, 30), (3, 30)]);
        assert_eq!(h.points().len(), 2);
        assert_eq!(h.free_at(0), 3);
        assert_eq!(h.free_at(30), 8);
    }

    #[test]
    fn overdue_jobs_release_just_after_now() {
        // A job whose estimate already passed still holds resources.
        let h = MachineHistory::build(8, 100, &[(5, 90)]);
        assert_eq!(h.free_at(100), 3);
        assert_eq!(h.free_at(101), 8);
        h.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "occupy")]
    fn overcommitted_running_set_panics() {
        MachineHistory::build(4, 0, &[(3, 10), (3, 20)]);
    }

    #[test]
    fn free_at_steps_through_releases() {
        let h = MachineHistory::build(10, 0, &[(4, 100), (3, 200)]);
        assert_eq!(h.free_at(0), 3);
        assert_eq!(h.free_at(99), 3);
        assert_eq!(h.free_at(100), 7);
        assert_eq!(h.free_at(199), 7);
        assert_eq!(h.free_at(200), 10);
        assert_eq!(h.free_at(10_000), 10);
    }

    #[test]
    fn to_profile_reproduces_history() {
        let h = MachineHistory::build(10, 5, &[(4, 100), (3, 200)]);
        let p = h.to_profile();
        assert_eq!(p.free_at(5), 3);
        assert_eq!(p.free_at(150), 7);
        assert_eq!(p.free_at(200), 10);
        p.check_invariants().unwrap();
    }

    #[test]
    fn profile_from_empty_history_is_free() {
        let p = MachineHistory::empty(10, 5).to_profile();
        assert_eq!(p.free_at(5), 10);
    }

    #[test]
    fn drained_at_is_last_release() {
        let h = MachineHistory::build(10, 0, &[(1, 500), (1, 90)]);
        assert_eq!(h.drained_at(), 500);
    }

    /// The construction [`MachineHistory::to_profile`] replaced: carve
    /// every busy interval out of a free machine, one `allocate` per
    /// history point. Kept as the differential reference.
    fn profile_by_allocation(h: &MachineHistory) -> ResourceProfile {
        let mut profile = ResourceProfile::new(h.capacity());
        for w in h.points().windows(2) {
            let busy = h.capacity() - w[0].free;
            if busy > 0 {
                profile.allocate(w[0].time, w[1].time, busy);
            }
        }
        profile
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn to_profile_equals_the_allocated_profile(
            capacity in 0u32..=48,
            // `now == 0` in one case of six.
            now in 0u64..600,
            // End offsets from `now` in steps of ten seconds: overdue ends
            // (negative), ends at `now`, and many equal ends.
            jobs in prop::collection::vec((1u32..=12, -6i64..20), 0..12),
        ) {
            let now = now.saturating_sub(100);
            let mut room = capacity;
            let running: Vec<(u32, u64)> = jobs
                .iter()
                .filter(|&&(width, _)| width <= room && { room -= width; true })
                .map(|&(width, offset)| (width, (now as i64 + 10 * offset).max(0) as u64))
                .collect();
            let h = MachineHistory::build(capacity, now, &running);
            let profile = h.to_profile();
            prop_assert_eq!(profile.check_invariants(), Ok(()));
            prop_assert_eq!(&profile, &profile_by_allocation(&h));
        }
    }
}
