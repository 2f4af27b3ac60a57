//! Order statistics over timing samples.

/// Sorted copy of `samples` (NaNs are a harness bug and sort last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an already sorted slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Linear-interpolated quantile; `0.0` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0, so exact-zero counters never read as noisy).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Times of the same pieces of work, one row per repetition: row `r`,
/// column `i` is how long piece `i` (one batch, one replay, one solve)
/// took in repetition `r`. Every repetition does identical work, so a
/// column's values differ only by what else the machine was doing.
///
/// On a shared host that interference is large (identical compute ran
/// 10-30 % slower for seconds at a time on the box this was written on),
/// one-sided (a piece never runs faster than the code allows) and comes
/// and goes within a repetition. So the harness reports the **quiet**
/// time of each piece, its fastest repetition, and sums those: the time
/// one repetition takes when nothing else disturbs it.
#[derive(Debug, Default)]
pub struct Pieces {
    rows: Vec<Vec<f64>>,
}

impl Pieces {
    /// Adds one repetition. Panics if it has another number of pieces than
    /// the ones before: repetitions must do the same work.
    pub fn push(&mut self, row: Vec<f64>) {
        if let Some(first) = self.rows.first() {
            assert_eq!(first.len(), row.len(), "repetitions differ in their pieces");
        }
        self.rows.push(row);
    }

    pub fn reps(&self) -> usize {
        self.rows.len()
    }

    /// Per piece, its fastest repetition, with repetition `without` left
    /// out: how far the quiet times move without one repetition says how
    /// much they still hang on single repetitions.
    pub fn quiet(&self, without: Option<usize>) -> Vec<f64> {
        let width = self.rows.first().map_or(0, Vec::len);
        let rows = || {
            self.rows
                .iter()
                .enumerate()
                .filter(|(r, _)| Some(*r) != without)
        };
        (0..width)
            .map(|i| rows().map(|(_, row)| row[i]).fold(f64::INFINITY, f64::min))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_is_the_fastest_repetition_of_each_piece() {
        let mut p = Pieces::default();
        assert!(p.quiet(None).is_empty());
        p.push(vec![10.0, 2.0, 7.0]);
        p.push(vec![8.0, 3.0, 9.0]);
        p.push(vec![9.0, 2.5, 6.0]);
        assert_eq!(p.reps(), 3);
        assert_eq!(p.quiet(None), vec![8.0, 2.0, 6.0]);
        // A disturbance that hits another piece in every repetition
        // inflates every repetition's sum (19, 20, 17.5), not the quiet sum.
        assert_eq!(p.quiet(None).iter().sum::<f64>(), 16.0);
        // Without the second repetition the first piece loses its best.
        assert_eq!(p.quiet(Some(1)), vec![9.0, 2.0, 6.0]);
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn p90_sits_between_the_top_order_statistics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 10.0);
        assert_eq!(quantile(&xs, 1.0), 11.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        // Between ranks: 0.95 * 10 = 9.5 -> halfway between 10 and 11.
        assert_eq!(quantile(&xs, 0.95), 10.5);
    }

    #[test]
    fn zero_median_has_zero_spread() {
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
