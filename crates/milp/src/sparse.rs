//! Run-length sparse matrix for the LP solver, readable by column and by
//! row.
//!
//! The time-indexed constraint matrix is an *interval* matrix: a start
//! variable `x_it` holds a 1 on its job's assignment row and the job's
//! width on `ceil(d_i/scale)` **consecutive** capacity rows — 80 to 180
//! non-zeros per column on the Table 1 snapshots, in exactly two runs —
//! and the columns of one job are consecutive too, so a capacity row is at
//! most one run per job. The matrix is therefore stored as what it is made
//! of: every column, and every row, is a list of maximal [`Run`]s of
//! consecutive indices sharing one value. Pricing a column against prefix
//! sums of the duals, or adding a multiple of a row into a dense vector,
//! then costs per run what it would cost per entry
//! ([`crate::simplex`]). Nothing here knows about scheduling: a matrix
//! without such structure degrades to one run per entry, which is the
//! plain compressed-column / compressed-row layout with an extra index.

use std::ops::Range;

/// A maximal run of one column (or row): the entries at indices
/// `first..end` of that line all hold `value`, and neither neighbour of
/// the range does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Run {
    /// First row (column) of the run.
    pub first: u32,
    /// One past its last row (column).
    pub end: u32,
    /// The non-zero value of every entry in it.
    pub value: f64,
}

impl Run {
    /// The rows (columns) the run covers.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.first as usize..self.end as usize
    }
}

/// A dense vector `y` with its prefix sums `Σ_{i<k} y_i`, from which the
/// sum of any run `y[a..b]` is one subtraction.
///
/// Each prefix sum is kept as an unevaluated pair `high + low`: `high` is
/// the running floating-point sum and `low` collects the exact rounding
/// error of every addition (Knuth's TwoSum), so the pair is the true sum
/// to second order and [`PrefixSums::sum`] is good to an ulp or two of
/// *the run's* sum. Plain prefix sums would not do: the difference of two
/// of them is only good to an ulp of the prefixes, and the rows ahead of a
/// run can carry values orders of magnitude above its own (the assignment
/// duals of a §3.1 model ahead of every capacity dual), which the
/// difference would charge to the run.
#[derive(Clone, Debug, Default)]
pub struct PrefixSums {
    values: Vec<f64>,
    /// `[high, low]` of `Σ values[..k]`; length `values.len() + 1`.
    sums: Vec<[f64; 2]>,
}

impl PrefixSums {
    /// Takes a copy of `y` and sums it, one O(len) pass.
    pub fn refill(&mut self, y: &[f64]) {
        self.values.clear();
        self.values.extend_from_slice(y);
        let (mut high, mut low) = (0.0, 0.0);
        self.sums.clear();
        self.sums.push([high, low]);
        for &v in y {
            let sum = high + v;
            let v_part = sum - high;
            low += (high - (sum - v_part)) + (v - v_part);
            high = sum;
            self.sums.push([high, low]);
        }
    }

    /// `Σ y[rows]`; a run of one row is that `y` itself, to the bit.
    #[inline]
    pub fn sum(&self, rows: Range<usize>) -> f64 {
        if rows.len() == 1 {
            return self.values[rows.start];
        }
        let ([high_a, low_a], [high_b, low_b]) = (self.sums[rows.start], self.sums[rows.end]);
        (high_b - high_a) + (low_b - low_a)
    }
}

/// A sparse matrix stored as the runs of its columns, plus the runs of its
/// rows describing the same entries.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Start offset of each column in `col_runs`; length `cols+1`.
    col_ptr: Vec<usize>,
    /// Runs grouped by column, ascending and maximal within a column.
    col_runs: Vec<Run>,
    /// Start offset of each row in `row_runs`; length `rows+1`.
    row_ptr: Vec<usize>,
    /// Runs grouped by row, ascending and maximal within a row.
    row_runs: Vec<Run>,
    /// Non-zeros of each row.
    row_nnz: Vec<usize>,
}

/// Incremental builder: append one column at a time.
#[derive(Clone, Debug, Default)]
pub struct CscBuilder {
    rows: usize,
    nnz: usize,
    col_ptr: Vec<usize>,
    col_runs: Vec<Run>,
    /// First row the column being built may still use.
    next_row: usize,
}

impl CscBuilder {
    /// A builder for a matrix with `rows` rows and no columns yet.
    pub fn new(rows: usize) -> CscBuilder {
        CscBuilder {
            rows,
            nnz: 0,
            col_ptr: vec![0],
            col_runs: Vec::new(),
            next_row: 0,
        }
    }

    /// Appends a column given as `(row, value)` pairs. Zero values are
    /// dropped; entries must have strictly increasing row indices.
    ///
    /// # Panics
    /// Panics on an out-of-range or out-of-order row index.
    pub fn push_column(&mut self, entries: &[(usize, f64)]) {
        for &(row, value) in entries {
            self.push_run(row..row + 1, value);
        }
        self.close_column();
    }

    /// Appends a column given as `(rows, value)` runs: every row of the
    /// range holds `value`. Zero values and empty ranges are dropped;
    /// ranges must be ascending and disjoint (adjacent ones with equal
    /// values are merged, so the stored runs are maximal either way).
    ///
    /// # Panics
    /// Panics on an out-of-range or out-of-order row range.
    pub fn push_column_runs(&mut self, runs: &[(Range<usize>, f64)]) {
        for (rows, value) in runs {
            self.push_run(rows.clone(), *value);
        }
        self.close_column();
    }

    /// Appends `rows` × `value` to the column being built.
    fn push_run(&mut self, rows: Range<usize>, value: f64) {
        assert!(
            rows.end <= self.rows,
            "row {} out of range ({})",
            rows.end.max(1) - 1,
            self.rows
        );
        assert!(
            self.next_row <= rows.start,
            "rows must be strictly increasing"
        );
        self.next_row = self.next_row.max(rows.end);
        if rows.is_empty() || value == 0.0 {
            return;
        }
        self.nnz += rows.len();
        let column_start = *self.col_ptr.last().expect("starts with 0");
        match self.col_runs[column_start..].last_mut() {
            Some(prev) if prev.end as usize == rows.start && prev.value == value => {
                prev.end = rows.end as u32;
            }
            _ => self.col_runs.push(Run {
                first: rows.start as u32,
                end: rows.end as u32,
                value,
            }),
        }
    }

    /// Closes the column being built.
    fn close_column(&mut self) {
        self.col_ptr.push(self.col_runs.len());
        self.next_row = 0;
    }

    /// Finishes the matrix, deriving the runs of its rows.
    pub fn build(self) -> CscMatrix {
        // One pass in column order: an entry either extends the open run
        // of its row (previous column, same value) or opens a new one.
        let mut by_row: Vec<Vec<Run>> = vec![Vec::new(); self.rows];
        let mut row_nnz = vec![0usize; self.rows];
        for (j, cols) in self.col_ptr.windows(2).enumerate() {
            for run in &self.col_runs[cols[0]..cols[1]] {
                for i in run.range() {
                    row_nnz[i] += 1;
                    match by_row[i].last_mut() {
                        Some(open) if open.end as usize == j && open.value == run.value => {
                            open.end += 1;
                        }
                        _ => by_row[i].push(Run {
                            first: j as u32,
                            end: j as u32 + 1,
                            value: run.value,
                        }),
                    }
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut row_runs = Vec::with_capacity(by_row.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for runs in by_row {
            row_runs.extend(runs);
            row_ptr.push(row_runs.len());
        }
        CscMatrix {
            rows: self.rows,
            cols: self.col_ptr.len() - 1,
            nnz: self.nnz,
            col_ptr: self.col_ptr,
            col_runs: self.col_runs,
            row_ptr,
            row_runs,
            row_nnz,
        }
    }
}

impl CscMatrix {
    /// Builds from a dense row-major matrix (tests and small models).
    pub fn from_dense(rows: &[Vec<f64>]) -> CscMatrix {
        let m = rows.len();
        let n = rows.first().map_or(0, |r| r.len());
        let mut b = CscBuilder::new(m);
        for j in 0..n {
            let col: Vec<(usize, f64)> = rows
                .iter()
                .enumerate()
                .filter(|(_, row)| row[j] != 0.0)
                .map(|(i, row)| (i, row[j]))
                .collect();
            b.push_column(&col);
        }
        b.build()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The runs of column `j`, by ascending row.
    #[inline]
    pub fn col_runs(&self, j: usize) -> &[Run] {
        &self.col_runs[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// The runs of row `i`, by ascending column.
    #[inline]
    pub fn row_runs(&self, i: usize) -> &[Run] {
        &self.row_runs[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Iterates the non-zeros of column `j` as `(row, value)`.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.col_runs(j)
            .iter()
            .flat_map(|run| run.range().map(|r| (r, run.value)))
    }

    /// Number of stored non-zeros of row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_nnz[i]
    }

    /// `cost − A_jᵀy` for the `y` inside `y_sums`, run by run: two lookups
    /// per run where the entries cost a multiply-add each, and on a run of
    /// one row the very product an entry-wise sum forms. Debug builds
    /// check the result against the entry-wise sum.
    #[inline]
    pub fn reduced_cost(&self, j: usize, cost: f64, y_sums: &PrefixSums) -> f64 {
        let mut d = cost;
        for run in self.col_runs(j) {
            d -= y_sums.sum(run.range()) * run.value;
        }
        debug_assert!(
            {
                let y = &y_sums.values;
                let entry_wise = self.column(j).fold(cost, |d, (r, v)| d - y[r] * v);
                (d - entry_wise).abs() <= 1e-9 * (1.0 + cost.abs())
            },
            "column {j}: prefix-summed reduced cost {d} left the entry-wise sum"
        );
        d
    }

    /// `out += scale · A_i`, run by run: every entry of row `i` adds the
    /// product `scale · value` an entry-wise walk would add, to a
    /// contiguous range of `out` and without reading an index.
    #[inline]
    pub fn add_row(&self, i: usize, scale: f64, out: &mut [f64]) {
        for run in self.row_runs(i) {
            let step = scale * run.value;
            for out_j in &mut out[run.range()] {
                *out_j += step;
            }
        }
    }

    /// Computes `A * x` for a dense `x`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for (r, v) in self.column(j) {
                    out[r] += v * xj;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_dense(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 3.0, 0.0],
            vec![4.0, 0.0, 5.0],
        ])
    }

    fn run(first: u32, end: u32, value: f64) -> Run {
        Run { first, end, value }
    }

    #[test]
    fn dimensions_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn column_iteration() {
        let m = sample();
        let col0: Vec<_> = m.column(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, 4.0)]);
        let col1: Vec<_> = m.column(1).collect();
        assert_eq!(col1, vec![(1, 3.0)]);
    }

    #[test]
    fn row_runs_mirror_the_columns() {
        let m = sample();
        assert_eq!(m.row_runs(0), [run(0, 1, 1.0), run(2, 3, 2.0)]);
        assert_eq!(m.row_runs(1), [run(1, 2, 3.0)]);
        assert_eq!(m.row_runs(2), [run(0, 1, 4.0), run(2, 3, 5.0)]);
        assert_eq!((m.row_nnz(0), m.row_nnz(1), m.row_nnz(2)), (2, 1, 2));
    }

    #[test]
    fn consecutive_equal_entries_become_one_run_both_ways() {
        // Two start variables of a width-2, 3-slot job under its
        // assignment row: the §3.1 shape.
        // [1 1]
        // [2 0]
        // [2 2]
        // [2 2]
        // [0 2]
        let mut b = CscBuilder::new(5);
        b.push_column(&[(0, 1.0), (1, 2.0), (2, 2.0), (3, 2.0)]);
        b.push_column_runs(&[(0..1, 1.0), (2..4, 2.0), (4..5, 2.0)]);
        let m = b.build();
        assert_eq!(m.nnz(), 8);
        assert_eq!(m.col_runs(0), [run(0, 1, 1.0), run(1, 4, 2.0)]);
        assert_eq!(m.col_runs(1), [run(0, 1, 1.0), run(2, 5, 2.0)], "merged");
        assert_eq!(m.row_runs(0), [run(0, 2, 1.0)]);
        assert_eq!(m.row_runs(1), [run(0, 1, 2.0)]);
        assert_eq!(m.row_runs(2), [run(0, 2, 2.0)]);
        assert_eq!(m.row_runs(4), [run(1, 2, 2.0)]);
        assert_eq!(
            m.column(1).collect::<Vec<_>>(),
            vec![(0, 1.0), (2, 2.0), (3, 2.0), (4, 2.0)]
        );
    }

    #[test]
    fn mat_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 1.0, 1.0];
        assert_eq!(m.mat_vec(&x), vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn builder_drops_zeros() {
        let mut b = CscBuilder::new(2);
        b.push_column(&[(0, 0.0), (1, 5.0)]);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.column(0).collect::<Vec<_>>(), vec![(1, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_rows_panic() {
        let mut b = CscBuilder::new(3);
        b.push_column(&[(2, 1.0), (0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let mut b = CscBuilder::new(2);
        b.push_column(&[(2, 1.0)]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = CscBuilder::new(0).build();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 0);
        assert_eq!(m.mat_vec(&[]), Vec::<f64>::new());
    }
}
