//! Step-function resource availability over time.
//!
//! A [`ResourceProfile`] answers "how many resources are free from time `t`
//! on?" and supports carving reservations out of the future — the core
//! operation of a planning-based scheduler. Constraint (4) of the paper's
//! integer program ("the machine consists of `M_t` resources in total …
//! reduced according to the machine history") is exactly a capacity lookup
//! against this structure.
//!
//! Representation: a sorted list of `(time, free)` breakpoints; the value at
//! a breakpoint holds until the next breakpoint, and the last value extends
//! to infinity. Adjacent breakpoints with equal values are coalesced, so the
//! list length is bounded by the number of distinct reservation edges.

/// Time-varying count of free resources, as a right-open step function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceProfile {
    /// Total resources of the machine; `free` can never exceed this.
    capacity: u32,
    /// Breakpoints `(time, free)`, strictly increasing in time, first entry
    /// at time 0. Never empty.
    steps: Vec<(u64, u32)>,
}

/// Why [`ResourceProfile::place`] allocated nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unplaceable {
    /// The job never fits: it is wider than the machine, or the profile
    /// stays too full forever.
    Never,
    /// The earliest window starts at `start` and ends past `u64::MAX`; no
    /// later start can fit either.
    PastTimeAxis {
        /// The earliest feasible start.
        start: u64,
    },
}

/// A window found by the skip-scan: its start, the index of the segment
/// holding the start, and one past the last segment the window overlaps.
struct Window {
    start: u64,
    first: usize,
    past: usize,
}

impl ResourceProfile {
    /// A fully free machine of `capacity` resources.
    pub fn new(capacity: u32) -> Self {
        ResourceProfile {
            capacity,
            steps: vec![(0, capacity)],
        }
    }

    /// A profile from breakpoints that already satisfy the invariants of
    /// [`Self::check_invariants`] (the machine history writes its own).
    pub(crate) fn from_steps(capacity: u32, steps: Vec<(u64, u32)>) -> Self {
        let profile = ResourceProfile { capacity, steps };
        debug_assert_eq!(profile.check_invariants(), Ok(()));
        profile
    }

    /// Total machine capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The breakpoints of the step function (time, free-from-then-on).
    pub fn steps(&self) -> &[(u64, u32)] {
        &self.steps
    }

    /// Index of the segment containing time `t`.
    ///
    /// A time inside the head segment is answered without a search: on a
    /// working profile compressed at `now` that is every `now`-anchored
    /// `earliest_fit` and `place`.
    fn segment_index(&self, t: u64) -> usize {
        match self.steps.get(1) {
            // partition_point returns the first index with step.0 > t; the
            // segment containing t is the one before it.
            Some(&(next, _)) if next <= t => {
                self.steps[2..].partition_point(|&(time, _)| time <= t) + 1
            }
            _ => 0,
        }
    }

    /// Free resources at time `t`.
    pub fn free_at(&self, t: u64) -> u32 {
        self.steps[self.segment_index(t)].1
    }

    /// Minimum free resources over `[start, end)`. An empty interval is
    /// unconstrained, i.e. returns the capacity.
    pub fn min_free(&self, start: u64, end: u64) -> u32 {
        if start >= end {
            return self.capacity;
        }
        let mut min = u32::MAX;
        let first = self.segment_index(start);
        for &(time, free) in &self.steps[first..] {
            if time >= end {
                break;
            }
            min = min.min(free);
        }
        min
    }

    /// Earliest start `t >= earliest` such that `width` resources are free
    /// throughout `[t, t+duration)`, or `None` if `width` exceeds the
    /// machine capacity. Zero-duration jobs fit anywhere `width` is free at
    /// a single instant.
    pub fn earliest_fit(&self, earliest: u64, duration: u64, width: u32) -> Option<u64> {
        self.earliest_fit_probed(earliest, duration, width).0
    }

    /// [`Self::earliest_fit`] plus the number of segment probes the scan
    /// performed: how much scanning a placement costs.
    ///
    /// The scan is a *skip-scan*: both the candidate segment `i` and the
    /// window check `j` only ever move forward, and a blocking segment
    /// causes the scan to jump past the entire contiguous blocking run in
    /// one pass instead of restarting with a fresh binary search per
    /// segment (the previous implementation paid `O(log S)` per blocked
    /// segment; on deep queues nearly every segment ahead of a placement
    /// is blocked, which made full-schedule planning quadratic with a
    /// log factor on top). One `O(log S)` search finds the segment of
    /// `earliest`; the scan then probes the segments from there to the end
    /// of the window it returns, `O(S)` worst case. A caller that knows a
    /// lower bound for the fit later than its own `earliest` passes the
    /// bound instead and pays only for the segments after it — the
    /// planner takes one from its earlier placements.
    pub fn earliest_fit_probed(&self, earliest: u64, duration: u64, width: u32) -> (Option<u64>, u64) {
        if width == 0 {
            return (Some(earliest), 0);
        }
        let (window, probes) = self.scan(earliest, duration.max(1), width);
        (window.map(|w| w.start), probes)
    }

    /// [`Self::earliest_fit_probed`] followed by [`Self::allocate`] of the
    /// window found, `[start, start + duration.max(1))`, in one search:
    /// the window is cut out at the two segment indices the scan ended on.
    /// Returns the start, or why nothing was allocated. A zero-width job
    /// allocates nothing and starts at `earliest`.
    pub fn place(&mut self, earliest: u64, duration: u64, width: u32) -> Result<u64, Unplaceable> {
        let need = duration.max(1);
        if width == 0 {
            return match earliest.checked_add(need) {
                Some(_) => Ok(earliest),
                None => Err(Unplaceable::PastTimeAxis { start: earliest }),
            };
        }
        let Some(Window { start, first, past }) = self.scan(earliest, need, width).0 else {
            return Err(Unplaceable::Never);
        };
        let Some(end) = start.checked_add(need) else {
            return Err(Unplaceable::PastTimeAxis { start });
        };
        let lo = self.split(first, start);
        let past = past + (lo - first);
        // The window's last segment is `past - 1`, unless a breakpoint
        // sits at `end` already.
        let at_end = self.steps.get(past).is_some_and(|&(time, _)| time == end);
        let hi = self.split(if at_end { past } else { past - 1 }, end);
        self.take(lo, hi, width);
        Ok(start)
    }

    /// The skip-scan behind [`Self::earliest_fit_probed`] and
    /// [`Self::place`] for a job of `width >= 1` over `need >= 1` seconds:
    /// the earliest window and the segment indices it spans, or `None`
    /// when the profile never has `width` free for that long.
    fn scan(&self, earliest: u64, need: u64, width: u32) -> (Option<Window>, u64) {
        if width > self.capacity {
            return (None, 0);
        }
        let mut probes = 1u64;
        let mut i = self.segment_index(earliest);
        // Candidate start: `earliest` itself inside segment `i`, later the
        // left edge of whichever segment the scan advances to.
        let mut t = earliest;
        loop {
            // Skip the entire blocking run in one forward pass.
            while self.steps[i].1 < width {
                i += 1;
                probes += 1;
                match self.steps.get(i) {
                    Some(&(time, _)) => t = time,
                    // The profile stays too full forever; with
                    // width <= capacity this means it never returns to
                    // enough free capacity.
                    None => return (None, probes),
                }
            }
            // Segment `i` has room at `t`; verify the rest of the window
            // [t, t+need) without revisiting anything before `i`.
            let end = t.saturating_add(need);
            let mut j = i + 1;
            loop {
                match self.steps.get(j) {
                    Some(&(time, free)) if time < end => {
                        probes += 1;
                        if free < width {
                            // Blocked mid-window: the next candidate lies
                            // past this blocking run; resume the outer
                            // skip loop right here.
                            i = j;
                            t = time;
                            break;
                        }
                        j += 1;
                    }
                    // Window clear to its end (or the profile's tail).
                    _ => {
                        let window = Window {
                            start: t,
                            first: i,
                            past: j,
                        };
                        return (Some(window), probes);
                    }
                }
            }
        }
    }

    /// Reference implementation of [`Self::earliest_fit`] predating the
    /// skip-scan: restart-at-next-segment with a fresh binary search per
    /// restart. Kept as the differential oracle for the equivalence
    /// proptests below — the two scanners must agree on every profile.
    #[cfg(test)]
    pub(crate) fn earliest_fit_naive(&self, earliest: u64, duration: u64, width: u32) -> Option<u64> {
        if width > self.capacity {
            return None;
        }
        if width == 0 {
            return Some(earliest);
        }
        let mut t = earliest;
        'outer: loop {
            let end = t.saturating_add(duration.max(1));
            let first = self.segment_index(t);
            for (i, &(time, free)) in self.steps[first..].iter().enumerate() {
                if time >= end {
                    break;
                }
                if free < width {
                    let seg = first + i;
                    match self.steps.get(seg + 1) {
                        Some(&(next_time, _)) => {
                            t = next_time;
                            continue 'outer;
                        }
                        None => return None,
                    }
                }
            }
            return Some(t);
        }
    }

    /// Collapses every breakpoint at or before `t` into the leading
    /// segment, so scans anchored at `t` (or later) start at index 0
    /// without a prefix search. Queries strictly before `t` are
    /// **invalidated** — the planner calls this once on its private
    /// working copy with `t = now`, where nothing may start earlier
    /// anyway; fit and allocation results for times `>= t` are unchanged.
    pub fn compress_before(&mut self, t: u64) {
        let idx = self.segment_index(t);
        if idx == 0 {
            return;
        }
        let free = self.steps[idx].1;
        self.steps.drain(1..=idx);
        self.steps[0].1 = free;
        self.coalesce();
    }

    /// Removes `width` resources over `[start, end)`.
    ///
    /// # Panics
    /// Panics if the interval is empty or the reservation would drive any
    /// segment negative — callers must check with [`Self::min_free`] first; a
    /// violation is a scheduler bug, not a recoverable condition.
    pub fn allocate(&mut self, start: u64, end: u64, width: u32) {
        assert!(start < end, "allocate: empty interval [{start}, {end})");
        if width == 0 {
            return;
        }
        let lo = self.split_at(start);
        let hi = self.split_at(end);
        self.take(lo, hi, width);
    }

    /// Removes `width` resources from the segments `[lo, hi)`, both ends
    /// breakpoints already.
    fn take(&mut self, lo: usize, hi: usize, width: u32) {
        // Only the segments in [lo, hi) change, and they all shift by the
        // same amount, so inequality between interior neighbours is
        // preserved. Coalescing can therefore only be needed at the two
        // boundaries; everything outside the range is untouched. This
        // keeps a planning pass's per-job cost bounded by the allocated
        // span instead of the whole profile.
        for step in &mut self.steps[lo..hi] {
            assert!(
                step.1 >= width,
                "allocate: overcommit at t={} (free {}, need {})",
                step.0,
                step.1,
                width
            );
            step.1 -= width;
        }
        // Drop the later breakpoint of an equal pair, highest index first
        // so the removal does not shift the other boundary.
        if self.steps[hi].1 == self.steps[hi - 1].1 {
            self.steps.remove(hi);
        }
        if lo > 0 && self.steps[lo].1 == self.steps[lo - 1].1 {
            self.steps.remove(lo);
        }
    }

    /// Ensures a breakpoint exists at time `t`; returns its index.
    fn split_at(&mut self, t: u64) -> usize {
        self.split(self.segment_index(t), t)
    }

    /// [`Self::split_at`] given `idx`, the index of the segment holding `t`.
    fn split(&mut self, idx: usize, t: u64) -> usize {
        if self.steps[idx].0 == t {
            idx
        } else {
            let free = self.steps[idx].1;
            self.steps.insert(idx + 1, (t, free));
            idx + 1
        }
    }

    /// Merges adjacent breakpoints with equal free counts.
    fn coalesce(&mut self) {
        self.steps.dedup_by(|next, prev| next.1 == prev.1);
    }

    /// Checks internal invariants; used by debug assertions and tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err("profile has no steps".into());
        }
        if self.steps[0].0 != 0 {
            return Err(format!("first step at {} != 0", self.steps[0].0));
        }
        for w in self.steps.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("non-increasing times {} -> {}", w[0].0, w[1].0));
            }
            if w[0].1 == w[1].1 {
                return Err(format!("uncoalesced equal steps at {}", w[1].0));
            }
        }
        if self.steps.iter().any(|&(_, f)| f > self.capacity) {
            return Err("free exceeds capacity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_profile_is_fully_free() {
        let p = ResourceProfile::new(8);
        assert_eq!(p.free_at(0), 8);
        assert_eq!(p.free_at(u64::MAX - 1), 8);
        assert_eq!(p.min_free(0, 1_000_000), 8);
        p.check_invariants().unwrap();
    }

    #[test]
    fn allocate_reduces_free_in_window_only() {
        let mut p = ResourceProfile::new(8);
        p.allocate(10, 20, 3);
        assert_eq!(p.free_at(9), 8);
        assert_eq!(p.free_at(10), 5);
        assert_eq!(p.free_at(19), 5);
        assert_eq!(p.free_at(20), 8);
        p.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_allocations_stack() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 100, 2);
        p.allocate(50, 150, 4);
        assert_eq!(p.free_at(0), 6);
        assert_eq!(p.free_at(50), 2);
        assert_eq!(p.free_at(100), 4);
        assert_eq!(p.free_at(150), 8);
        assert_eq!(p.min_free(0, 200), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn allocate_panics_on_overcommit() {
        let mut p = ResourceProfile::new(4);
        p.allocate(0, 10, 3);
        p.allocate(5, 15, 2);
    }

    #[test]
    fn earliest_fit_on_empty_machine_is_immediate() {
        let p = ResourceProfile::new(8);
        assert_eq!(p.earliest_fit(42, 100, 8), Some(42));
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 100, 6);
        // width 4 doesn't fit before t=100
        assert_eq!(p.earliest_fit(0, 10, 4), Some(100));
        // width 2 fits right away
        assert_eq!(p.earliest_fit(0, 10, 2), Some(0));
    }

    #[test]
    fn earliest_fit_finds_hole_between_reservations() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 50, 6); // free 2 in [0,50)
        p.allocate(80, 200, 6); // free 2 in [80,200)
                                // width 4, duration 30 fits only in the hole [50, 80).
        assert_eq!(p.earliest_fit(0, 30, 4), Some(50));
        // duration 40 does not fit in the hole; must wait until 200.
        assert_eq!(p.earliest_fit(0, 40, 4), Some(200));
    }

    #[test]
    fn earliest_fit_respects_earliest_bound() {
        let p = ResourceProfile::new(8);
        assert_eq!(p.earliest_fit(1000, 10, 1), Some(1000));
    }

    #[test]
    fn earliest_fit_too_wide_is_none() {
        let p = ResourceProfile::new(8);
        assert_eq!(p.earliest_fit(0, 10, 9), None);
    }

    #[test]
    fn earliest_fit_zero_duration_checks_instant() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 100, 8);
        // duration 0 is treated as one second of occupancy.
        assert_eq!(p.earliest_fit(0, 0, 1), Some(100));
    }

    #[test]
    fn min_free_empty_interval_is_capacity() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 10, 8);
        assert_eq!(p.min_free(5, 5), 8);
    }

    #[test]
    fn adjacent_equal_segments_coalesce() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 10, 3);
        p.allocate(10, 20, 3);
        // [0,20) at 5 free should be a single segment.
        assert_eq!(p.steps().len(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn capacity_zero_profile_never_fits() {
        let p = ResourceProfile::new(0);
        assert_eq!(p.earliest_fit(0, 10, 1), None);
        assert_eq!(p.earliest_fit(0, 10, 0), Some(0));
    }

    #[test]
    fn zero_width_fits_anywhere_even_on_full_machine() {
        let mut p = ResourceProfile::new(8);
        p.allocate(0, 1_000, 8);
        assert_eq!(p.earliest_fit(0, 50, 0), Some(0));
        assert_eq!(p.earliest_fit(123, 50, 0), Some(123));
        assert_eq!(p.earliest_fit_probed(0, 50, 0), (Some(0), 0));
    }

    #[test]
    fn blocked_forever_tail_is_none() {
        // The *last* segment blocks and extends to infinity: the scan must
        // terminate with None instead of walking off the end. Such a
        // profile cannot be built with allocate (which always restores
        // capacity after the reservation), so construct it directly.
        let p = ResourceProfile {
            capacity: 8,
            steps: vec![(0, 8), (50, 2)],
        };
        p.check_invariants().unwrap();
        assert_eq!(p.earliest_fit(0, 100, 4), None);
        assert_eq!(p.earliest_fit(60, 1, 4), None);
        assert_eq!(p.earliest_fit_naive(0, 100, 4), None);
        // A narrow job still fits in the eternal tail.
        assert_eq!(p.earliest_fit(0, 100, 2), Some(0));
        assert_eq!(p.earliest_fit(60, 1000, 2), Some(60));
        // And a wide job fits only in the unconstrained head window.
        assert_eq!(p.earliest_fit(0, 50, 4), Some(0));
    }

    #[test]
    fn skip_scan_jumps_blocking_runs_with_bounded_probes() {
        // 100 consecutive blocking segments of alternating fullness; the
        // skip-scan must pass the whole run with one probe per segment.
        let mut p = ResourceProfile::new(8);
        for k in 0..100u64 {
            let width = if k % 2 == 0 { 7 } else { 6 };
            p.allocate(k * 10, (k + 1) * 10, width);
        }
        let (start, probes) = p.earliest_fit_probed(0, 5, 4);
        assert_eq!(start, Some(1000));
        // One probe per visited segment plus the entry probe — far below
        // what per-segment restarts with binary searches would cost.
        assert!(probes <= p.steps().len() as u64 + 1, "probes = {probes}");
    }

    #[test]
    fn compress_before_preserves_future_queries() {
        let mut p = ResourceProfile::new(16);
        p.allocate(0, 40, 3);
        p.allocate(10, 70, 5);
        p.allocate(65, 90, 2);
        let reference = p.clone();
        p.compress_before(50);
        p.check_invariants().unwrap();
        assert!(p.steps().len() <= reference.steps().len());
        for t in 50..120 {
            assert_eq!(p.free_at(t), reference.free_at(t), "free_at({t})");
        }
        for dur in [1u64, 5, 30] {
            for width in [1u32, 4, 9, 16] {
                assert_eq!(
                    p.earliest_fit(50, dur, width),
                    reference.earliest_fit(50, dur, width),
                    "fit from 50, dur {dur}, width {width}"
                );
            }
        }
    }

    #[test]
    fn compress_before_zero_or_first_segment_is_noop() {
        let mut p = ResourceProfile::new(8);
        p.allocate(100, 200, 4);
        let reference = p.clone();
        p.compress_before(0);
        assert_eq!(p, reference);
        p.compress_before(99);
        assert_eq!(p, reference);
    }

    /// Random profile construction shared by the proptests: a machine of
    /// `cap` resources with `allocs` reservations stacked wherever they fit.
    fn random_profile(cap: u32, allocs: &[(u64, u64, u32)]) -> ResourceProfile {
        let mut p = ResourceProfile::new(cap);
        for &(start, len, width) in allocs {
            let len = len.max(1);
            if let Some(t) = p.earliest_fit(start, len, width) {
                p.allocate(t, t.saturating_add(len), width);
            }
        }
        p.check_invariants().unwrap();
        p
    }

    fn any_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    /// `x`, or `x` before the end of the time axis.
    fn near_either_end((x, at_end): (u64, bool)) -> u64 {
        if at_end {
            u64::MAX - x
        } else {
            x
        }
    }

    /// Free resources at `t` by a linear scan over every breakpoint.
    fn naive_free_at(p: &ResourceProfile, t: u64) -> u32 {
        p.steps.iter().take_while(|&&(time, _)| time <= t).last().unwrap().1
    }

    /// Minimum over every segment overlapping `[start, end)`, found by
    /// scanning them all.
    fn naive_min_free(p: &ResourceProfile, start: u64, end: u64) -> u32 {
        if start >= end {
            return p.capacity;
        }
        (0..p.steps.len())
            .filter(|&i| {
                let seg_end = p.steps.get(i + 1).map_or(u64::MAX, |s| s.0);
                p.steps[i].0 < end && seg_end > start
            })
            .map(|i| p.steps[i].1)
            .min()
            .unwrap()
    }

    /// The earliest feasible start is `earliest` or a breakpoint after it
    /// (a feasible start inside a segment stays feasible one second
    /// earlier), so try them all in order.
    fn naive_earliest_fit(
        p: &ResourceProfile,
        earliest: u64,
        duration: u64,
        width: u32,
    ) -> Option<u64> {
        if width > p.capacity {
            return None;
        }
        if width == 0 {
            return Some(earliest);
        }
        let need = duration.max(1);
        std::iter::once(earliest)
            .chain(p.steps.iter().map(|&(time, _)| time).filter(|&t| t > earliest))
            .find(|&s| naive_min_free(p, s, s.saturating_add(need)) >= width)
    }

    /// Every query of `q` at `t` against the naive scans of `reference`
    /// (the same profile, or the one `q` was compressed from).
    fn agrees_with_naive_scans(
        q: &ResourceProfile,
        reference: &ResourceProfile,
        t: u64,
        duration: u64,
        width: u32,
    ) -> Result<(), TestCaseError> {
        let end = t.saturating_add(duration);
        prop_assert_eq!(q.free_at(t), naive_free_at(reference, t), "free_at({})", t);
        prop_assert_eq!(q.min_free(t, end), naive_min_free(reference, t, end), "min_free({})", t);
        prop_assert_eq!(
            q.earliest_fit(t, duration, width),
            naive_earliest_fit(reference, t, duration, width),
            "earliest_fit({}, {}, {})",
            t,
            duration,
            width
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lookups_at_breakpoints_and_in_the_head_equal_naive_scans(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            cut in 0u64..400,
            head in 0u64..1_000,
            duration in 0u64..100,
            width in 0u32..=40,
        ) {
            let p = random_profile(cap, &allocs);
            let mut q = p.clone();
            q.compress_before(cut);
            // Every breakpoint, either side of it, and a time in each
            // profile's head segment.
            let mut times: Vec<u64> = p
                .steps
                .iter()
                .flat_map(|&(time, _)| [time.saturating_sub(1), time, time + 1])
                .collect();
            let head_end = |profile: &ResourceProfile| profile.steps.get(1).map_or(u64::MAX, |s| s.0);
            times.push(head % head_end(&p));
            times.push(cut + head % (head_end(&q) - cut));
            for t in times {
                agrees_with_naive_scans(&p, &p, t, duration, width)?;
                // Compression invalidates the queries before the cut only.
                if t >= cut {
                    agrees_with_naive_scans(&q, &p, t, duration, width)?;
                    agrees_with_naive_scans(&q, &q, t, duration, width)?;
                }
            }
        }

        #[test]
        fn fit_never_overlaps_a_blocked_segment(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            earliest in 0u64..300,
            duration in 1u64..100,
            width in 1u32..=32,
        ) {
            let p = random_profile(cap, &allocs);
            prop_assume!(width <= cap);
            if let Some(t) = p.earliest_fit(earliest, duration, width) {
                prop_assert!(t >= earliest);
                prop_assert!(
                    p.min_free(t, t.saturating_add(duration.max(1))) >= width,
                    "start {t} overlaps a segment with free < {width}"
                );
            }
        }

        #[test]
        fn fit_is_minimal(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            earliest in 0u64..300,
            duration in 1u64..100,
            width in 1u32..=32,
        ) {
            let p = random_profile(cap, &allocs);
            prop_assume!(width <= cap);
            if let Some(t) = p.earliest_fit(earliest, duration, width) {
                // No feasible start exists strictly before t: it suffices to
                // check segment left edges in [earliest, t) plus `earliest`
                // itself, since feasibility within a segment is monotone.
                let need = duration.max(1);
                let feasible =
                    |s: u64| p.min_free(s, s.saturating_add(need)) >= width;
                prop_assert!(t == earliest || !feasible(earliest),
                    "earlier start {earliest} feasible but fit returned {t}");
                for &(time, _) in p.steps() {
                    if time > earliest && time < t {
                        prop_assert!(!feasible(time),
                            "earlier start {time} feasible but fit returned {t}");
                    }
                }
            }
        }

        #[test]
        fn skip_scan_equals_naive_scan(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            earliest in 0u64..600,
            duration in 0u64..100,
            width in 0u32..=40,
        ) {
            let p = random_profile(cap, &allocs);
            prop_assert_eq!(
                p.earliest_fit(earliest, duration, width),
                p.earliest_fit_naive(earliest, duration, width)
            );
        }

        #[test]
        fn place_equals_fit_then_allocate(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            tail in (0u64..600, 1u32..=32),
            earliest in (0u64..600, any_bool()).prop_map(near_either_end),
            duration in (0u64..100, any_bool()).prop_map(near_either_end),
            width in 0u32..=40,
        ) {
            let mut p = random_profile(cap, &allocs);
            // Mostly, a reservation up to the end of the time axis.
            let (len, tail_width) = tail;
            if len > 0 {
                p.allocate(u64::MAX - len, u64::MAX, tail_width.min(cap));
            }
            // The drawn window, and one that ends at u64::MAX exactly if
            // it starts at `earliest` and past it if it starts later.
            for duration in [duration, u64::MAX - earliest] {
                let fit = p.earliest_fit(earliest, duration, width);
                let mut expected = p.clone();
                let placed = match fit {
                    None => Err(Unplaceable::Never),
                    Some(t) => match t.checked_add(duration.max(1)) {
                        None => Err(Unplaceable::PastTimeAxis { start: t }),
                        Some(end) => {
                            expected.allocate(t, end, width);
                            Ok(t)
                        }
                    },
                };
                let mut q = p.clone();
                prop_assert_eq!(q.place(earliest, duration, width), placed);
                prop_assert_eq!(&q, &expected);
                q.check_invariants().map_err(TestCaseError::Fail)?;
            }
        }

        #[test]
        fn compress_before_is_transparent_for_future_fits(
            cap in 1u32..=32,
            allocs in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..12),
            cut in 0u64..400,
            duration in 1u64..100,
            width in 1u32..=32,
        ) {
            let p = random_profile(cap, &allocs);
            let mut q = p.clone();
            q.compress_before(cut);
            q.check_invariants().map_err(TestCaseError::Fail)?;
            prop_assert_eq!(
                q.earliest_fit(cut, duration, width),
                p.earliest_fit(cut, duration, width)
            );
        }
    }
}
