//! Time-scaling per §3.2 / Eq. 6 of the paper.
//!
//! The time-indexed formulation has `#jobs × T` variables with `T` in
//! seconds — over a million for an 8-job, 2-day instance. The paper keeps
//! the problem in memory by computing the schedule on a coarser grid. The
//! grid width is chosen from the estimated memory footprint:
//!
//! ```text
//! size ≈ (makespan / scale)² · #jobs · (acc.runtime / (makespan · #jobs)) · x
//!      =  makespan · acc.runtime · x / scale²
//! ```
//!
//! Solving `size ≤ memory` for the scale gives Eq. 6:
//!
//! ```text
//! scale = sqrt(makespan · acc.runtime · x / memory)
//! ```
//!
//! rounded **up to the next full minute**. `x` is the estimated memory per
//! matrix entry (the paper found 0.1 kB to work well) and the memory
//! budget is a quarter of the machine's 8 GB, because "the amount of memory
//! used for the integer problem should be about four times smaller than the
//! total memory available".

/// Memory per matrix entry, the paper's `x` = 0.1 kB.
pub const PAPER_X_BYTES: f64 = 102.4;

/// The paper's memory budget: 8 GB total, a quarter usable by the matrix.
pub const PAPER_MEMORY_BYTES: f64 = 8.0 * 1024.0 * 1024.0 * 1024.0 / 4.0;

/// A chosen time scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeScaling {
    /// Seconds per slot (a multiple of 60, at least 60).
    pub seconds_per_slot: u64,
}

impl TimeScaling {
    /// A fixed scale (still floored at 1 s).
    pub fn fixed(seconds_per_slot: u64) -> TimeScaling {
        TimeScaling {
            seconds_per_slot: seconds_per_slot.max(1),
        }
    }

    /// Eq. 6: picks the scale from the problem dimensions and a memory
    /// budget, rounded up to the next full minute (minimum one minute, as
    /// the paper always solves on "a one minute or greater scale").
    pub fn from_memory(
        max_makespan_seconds: u64,
        accumulated_runtime_seconds: u64,
        x_bytes: f64,
        memory_bytes: f64,
    ) -> TimeScaling {
        assert!(x_bytes > 0.0 && memory_bytes > 0.0);
        let raw = ((max_makespan_seconds as f64 * accumulated_runtime_seconds as f64 * x_bytes)
            / memory_bytes)
            .sqrt();
        let minutes = (raw / 60.0).ceil().max(1.0);
        TimeScaling {
            seconds_per_slot: minutes as u64 * 60,
        }
    }

    /// Number of slots covering `span` seconds (rounded up).
    pub fn slots_for(&self, span_seconds: u64) -> usize {
        span_seconds.div_ceil(self.seconds_per_slot) as usize
    }

    /// Converts a slot index back to an absolute start time given `now`.
    pub fn slot_start(&self, now: u64, slot: usize) -> u64 {
        now + slot as u64 * self.seconds_per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sized_instance_lands_in_minutes() {
        // A Table-1-sized instance: makespan 155559 s, acc. runtime
        // 1798684 s. Eq. 6 with x = 0.1 kB and 2 GB yields a raw scale of
        // ~116 s, i.e. 2 full minutes — the same order as the paper's
        // reported scales (1–6 min).
        let s = TimeScaling::from_memory(155_559, 1_798_684, PAPER_X_BYTES, PAPER_MEMORY_BYTES);
        assert_eq!(s.seconds_per_slot, 120);
    }

    #[test]
    fn more_paper_sized_rows_stay_in_the_minutes_range() {
        for (makespan, acc) in [
            (152_596u64, 1_862_241u64),
            (37_412, 637_947),
            (172_776, 1_617_178),
            (116_391, 1_030_642),
        ] {
            let s = TimeScaling::from_memory(makespan, acc, PAPER_X_BYTES, PAPER_MEMORY_BYTES);
            assert!(
                (60..=360).contains(&s.seconds_per_slot),
                "scale {} s out of the paper's 1-6 min range",
                s.seconds_per_slot
            );
        }
    }

    #[test]
    fn small_instances_get_the_minimum_minute() {
        let s = TimeScaling::from_memory(3600, 7200, PAPER_X_BYTES, PAPER_MEMORY_BYTES);
        assert_eq!(s.seconds_per_slot, 60);
    }

    #[test]
    fn scale_rounds_up_to_full_minutes() {
        // Force a raw value between 1 and 2 minutes.
        let s = TimeScaling::from_memory(100_000, 100_000, 102.4, 100_000_000.0);
        assert_eq!(s.seconds_per_slot % 60, 0);
        assert!(s.seconds_per_slot >= 60);
    }

    #[test]
    fn bigger_memory_means_finer_scale() {
        let coarse = TimeScaling::from_memory(200_000, 2_000_000, 102.4, 1e8);
        let fine = TimeScaling::from_memory(200_000, 2_000_000, 102.4, 1e10);
        assert!(fine.seconds_per_slot <= coarse.seconds_per_slot);
    }

    #[test]
    fn slot_arithmetic() {
        let s = TimeScaling::fixed(300);
        assert_eq!(s.slots_for(0), 0);
        assert_eq!(s.slots_for(1), 1);
        assert_eq!(s.slots_for(300), 1);
        assert_eq!(s.slots_for(301), 2);
        assert_eq!(s.slot_start(1000, 0), 1000);
        assert_eq!(s.slot_start(1000, 3), 1900);
    }

    #[test]
    fn fixed_scale_floors_at_one_second() {
        assert_eq!(TimeScaling::fixed(0).seconds_per_slot, 1);
    }
}
