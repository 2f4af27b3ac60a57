//! Compressed sparse-column (CSC) matrix for the LP solver, with a
//! row-wise mirror.
//!
//! The time-indexed constraint matrix is extremely sparse — each variable
//! `x_it` appears in exactly one assignment row and `ceil(d_i/scale)`
//! capacity rows. The primal simplex needs fast access to *columns*
//! (pricing, FTRAN), which CSC provides; the dual simplex needs one *row*
//! of `B⁻¹A` per pivot, which is a combination of a few rows of `A` — so
//! [`CscBuilder::build`] also lays the same entries out row-wise (CSR),
//! once per matrix.

/// A sparse matrix stored column-wise, plus a row-wise copy of the same
/// entries.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// Start offset of each column in `row_idx`/`values`; length `cols+1`.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry, grouped by column, strictly
    /// increasing within a column.
    row_idx: Vec<u32>,
    /// Value of each stored entry.
    values: Vec<f64>,
    /// Start offset of each row in `col_idx`/`row_values`; length `rows+1`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, grouped by row, strictly
    /// increasing within a row.
    col_idx: Vec<u32>,
    /// Value of each stored entry, in `col_idx` order.
    row_values: Vec<f64>,
}

/// Incremental builder: append one column at a time.
#[derive(Clone, Debug, Default)]
pub struct CscBuilder {
    rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscBuilder {
    /// A builder for a matrix with `rows` rows and no columns yet.
    pub fn new(rows: usize) -> CscBuilder {
        CscBuilder {
            rows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a column given as `(row, value)` pairs. Zero values are
    /// dropped; entries must have strictly increasing row indices.
    ///
    /// # Panics
    /// Panics on an out-of-range or out-of-order row index.
    pub fn push_column(&mut self, entries: &[(usize, f64)]) {
        let mut last: Option<usize> = None;
        for &(row, value) in entries {
            assert!(row < self.rows, "row {row} out of range ({})", self.rows);
            if let Some(prev) = last {
                assert!(prev < row, "rows must be strictly increasing");
            }
            last = Some(row);
            if value != 0.0 {
                self.row_idx.push(row as u32);
                self.values.push(value);
            }
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Finishes the matrix, laying the entries out row-wise as well.
    pub fn build(self) -> CscMatrix {
        let (row_ptr, col_idx, row_values) =
            transpose(self.rows, &self.col_ptr, &self.row_idx, &self.values);
        CscMatrix {
            rows: self.rows,
            cols: self.col_ptr.len() - 1,
            col_ptr: self.col_ptr,
            row_idx: self.row_idx,
            values: self.values,
            row_ptr,
            col_idx,
            row_values,
        }
    }
}

/// Transposes a compressed sparse matrix: `ptr`/`idx`/`val` list each
/// major slice's `(minor index, value)` entries; the result lists each of
/// the `minors` minor slices' `(major index, value)` entries, majors
/// ascending. A counting sort, O(nnz + minors).
pub(crate) fn transpose(
    minors: usize,
    ptr: &[usize],
    idx: &[u32],
    val: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let mut t_ptr = vec![0usize; minors + 1];
    for &i in idx {
        t_ptr[i as usize + 1] += 1;
    }
    for i in 0..minors {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut next = t_ptr.clone();
    let mut t_idx = vec![0u32; idx.len()];
    let mut t_val = vec![0.0; idx.len()];
    for major in 0..ptr.len() - 1 {
        for e in ptr[major]..ptr[major + 1] {
            let slot = &mut next[idx[e] as usize];
            t_idx[*slot] = major as u32;
            t_val[*slot] = val[e];
            *slot += 1;
        }
    }
    (t_ptr, t_idx, t_val)
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
        self.values.len()
    }

    /// Iterates the non-zeros of column `j` as `(row, value)`.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Number of stored non-zeros of row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterates the non-zeros of row `i` as `(column, value)`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .zip(&self.row_values[range])
            .map(|(&c, &v)| (c as usize, v))
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
    fn row_iteration_mirrors_the_columns() {
        let m = sample();
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 4.0), (2, 5.0)]);
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
