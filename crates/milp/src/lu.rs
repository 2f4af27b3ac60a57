//! Sparse LU factorization of a simplex basis, with a product-form eta
//! file for the column replacements between refactorizations.
//!
//! A basis of a time-indexed relaxation is almost triangular: most of its
//! columns are slacks (one entry) or start variables whose capacity rows
//! all keep their slack basic. [`LuFactor::factor`] therefore peels
//! **singletons** first — a column with one active entry is pivoted with
//! an empty `L` column, a row with one active entry with an empty `U` row
//! — which touches every entry once and creates no fill. What is left
//! (the *nucleus*, typically a few dozen rows) is eliminated right-looking
//! with **Markowitz** pivot selection under **threshold partial pivoting**:
//! among the entries within [`PIVOT_THRESHOLD`] of their column's largest,
//! take the one minimizing `(row count − 1)·(column count − 1)`.
//!
//! Every choice breaks ties on the lowest index (position first, then
//! row), so the factor — and through the simplex the whole branch & bound
//! tree — is a pure function of the ordered basis, never of allocation or
//! iteration order.
//!
//! Index spaces: a basis matrix `B` has one *row* per constraint and one
//! *position* per basic variable (`B`'s column `k` is the column of
//! `basis[k]`). [`LuFactor::ftran`] maps a row-indexed right-hand side to
//! a position-indexed solution of `B w = a`; [`LuFactor::btran`] maps a
//! position-indexed right-hand side to a row-indexed solution of
//! `Bᵀ y = c`. Both skip the zeros of their argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Smallest pivot magnitude accepted; a basis that needs a smaller one is
/// reported singular.
pub const PIVOT_TOL: f64 = 1e-9;
/// Threshold partial pivoting: a nucleus pivot must be at least this
/// fraction of the largest active entry of its column, which bounds the
/// `L` multipliers by its inverse.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Entries cancelled below this magnitude are dropped from the active
/// matrix and from eta columns (integral bases cancel to exact zeros or
/// to rounding noise, never to anything in between).
const DROP_TOL: f64 = 1e-14;

/// Transposes a compressed sparse matrix: `ptr`/`idx`/`val` list each
/// major slice's `(minor index, value)` entries; the result lists each of
/// the `minors` minor slices' `(major index, value)` entries, majors
/// ascending. A counting sort, O(nnz + minors).
fn transpose(
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

/// `B = L·U` in pivot order plus the eta file of the pivots applied since.
#[derive(Clone, Debug, Default)]
pub struct LuFactor {
    m: usize,
    /// Row, position and value of the pivot of each elimination step.
    piv_row: Vec<u32>,
    piv_pos: Vec<u32>,
    piv_val: Vec<f64>,
    /// `L`, one eta per elimination step that had multipliers: pivot row,
    /// then `(row, multiplier)` entries.
    l_row: Vec<u32>,
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<f64>,
    /// Off-diagonal `U` entries of each step's pivot row, by position.
    ur_ptr: Vec<usize>,
    ur_idx: Vec<u32>,
    ur_val: Vec<f64>,
    /// The same entries grouped by position and keyed by row — the
    /// column-wise copy FTRAN walks.
    uc_ptr: Vec<usize>,
    uc_idx: Vec<u32>,
    uc_val: Vec<f64>,
    /// Product-form eta file: replaced position, pivot `w_r`, then the
    /// other non-zeros `(position, w_i)` of the entering column.
    e_pos: Vec<u32>,
    e_piv: Vec<f64>,
    e_ptr: Vec<usize>,
    e_idx: Vec<u32>,
    e_val: Vec<f64>,
}

impl LuFactor {
    /// Factors the `m × m` matrix whose column `k` is produced by
    /// `column(k, sink)` as `(row, value)` calls. Returns `None` when the
    /// matrix is singular to [`PIVOT_TOL`].
    pub fn factor(
        m: usize,
        mut column: impl FnMut(usize, &mut dyn FnMut(usize, f64)),
    ) -> Option<LuFactor> {
        // B column-wise.
        let mut bc_ptr = Vec::with_capacity(m + 1);
        let (mut bc_row, mut bc_val) = (Vec::new(), Vec::new());
        bc_ptr.push(0);
        for k in 0..m {
            column(k, &mut |r, v| {
                if v != 0.0 {
                    bc_row.push(r as u32);
                    bc_val.push(v);
                }
            });
            bc_ptr.push(bc_row.len());
        }
        let mut lu = LuFactor {
            m,
            l_ptr: vec![0],
            ur_ptr: vec![0],
            e_ptr: vec![0],
            ..LuFactor::default()
        };
        lu.eliminate(&bc_ptr, &bc_row, &bc_val).then_some(lu)
    }

    /// The elimination behind [`Self::factor`], on `B` in compressed
    /// column form; `false` on a singular matrix.
    fn eliminate(&mut self, bc_ptr: &[usize], bc_row: &[u32], bc_val: &[f64]) -> bool {
        let m = self.m;
        let (br_ptr, br_col, br_val) = transpose(m, bc_ptr, bc_row, bc_val);

        // ---- Singletons: original values, no fill. ----
        let mut row_cnt: Vec<usize> = (0..m).map(|i| br_ptr[i + 1] - br_ptr[i]).collect();
        let mut col_cnt: Vec<usize> = (0..m).map(|k| bc_ptr[k + 1] - bc_ptr[k]).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let mut col_queue: BinaryHeap<Reverse<u32>> = (0..m)
            .filter(|&k| col_cnt[k] == 1)
            .map(|k| Reverse(k as u32))
            .collect();
        let mut row_queue: BinaryHeap<Reverse<u32>> = (0..m)
            .filter(|&i| row_cnt[i] == 1)
            .map(|i| Reverse(i as u32))
            .collect();
        loop {
            if let Some(Reverse(k)) = col_queue.pop() {
                let k = k as usize;
                if col_done[k] || col_cnt[k] != 1 {
                    continue; // stale entry
                }
                let e = (bc_ptr[k]..bc_ptr[k + 1])
                    .find(|&e| !row_done[bc_row[e] as usize])
                    .expect("count says one active entry");
                let (i, v) = (bc_row[e] as usize, bc_val[e]);
                if v.abs() <= PIVOT_TOL {
                    return false;
                }
                // The pivot row's other active entries become its U row;
                // their columns each lose this row.
                for e in br_ptr[i]..br_ptr[i + 1] {
                    let c = br_col[e] as usize;
                    if c == k || col_done[c] {
                        continue;
                    }
                    self.ur_idx.push(c as u32);
                    self.ur_val.push(br_val[e]);
                    col_cnt[c] -= 1;
                    match col_cnt[c] {
                        0 => return false,
                        1 => col_queue.push(Reverse(c as u32)),
                        _ => {}
                    }
                }
                self.push_pivot(i, k, v);
                (row_done[i], col_done[k]) = (true, true);
            } else if let Some(Reverse(i)) = row_queue.pop() {
                let i = i as usize;
                if row_done[i] || row_cnt[i] != 1 {
                    continue;
                }
                let e = (br_ptr[i]..br_ptr[i + 1])
                    .find(|&e| !col_done[br_col[e] as usize])
                    .expect("count says one active entry");
                let (k, v) = (br_col[e] as usize, br_val[e]);
                if v.abs() <= PIVOT_TOL {
                    return false;
                }
                // The pivot column's other active entries are eliminated
                // (an L eta); the pivot row has nothing to add to theirs.
                for e in bc_ptr[k]..bc_ptr[k + 1] {
                    let r = bc_row[e] as usize;
                    if r == i || row_done[r] {
                        continue;
                    }
                    self.l_idx.push(r as u32);
                    self.l_val.push(bc_val[e] / v);
                    row_cnt[r] -= 1;
                    match row_cnt[r] {
                        0 => return false,
                        1 => row_queue.push(Reverse(r as u32)),
                        _ => {}
                    }
                }
                self.close_l_eta(i);
                self.push_pivot(i, k, v);
                (row_done[i], col_done[k]) = (true, true);
            } else {
                break;
            }
        }

        // ---- Nucleus: Markowitz with threshold partial pivoting. ----
        let nucleus = m - self.piv_row.len();
        if nucleus > 0 {
            // Active rows hold values; active columns hold the rows they
            // reach (rows pivoted since are skipped lazily, so `col_cnt`
            // is the live count).
            let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
            let mut cols: Vec<Vec<u32>> = vec![Vec::new(); m];
            for i in (0..m).filter(|&i| !row_done[i]) {
                for e in br_ptr[i]..br_ptr[i + 1] {
                    let c = br_col[e] as usize;
                    if !col_done[c] {
                        rows[i].push((c as u32, br_val[e]));
                        cols[c].push(i as u32);
                    }
                }
            }
            let value_at = |rows: &[Vec<(u32, f64)>], i: usize, k: usize| -> f64 {
                rows[i]
                    .iter()
                    .find(|&&(c, _)| c as usize == k)
                    .map_or(0.0, |&(_, v)| v)
            };
            // The pivot row scattered by position; `hit[c]` is `OUTSIDE`
            // for positions it does not reach, else the last row updated
            // that already held position `c` (`m` = none yet).
            const OUTSIDE: usize = usize::MAX;
            let mut spread = vec![0.0f64; m];
            let mut hit = vec![OUTSIDE; m];
            for _ in 0..nucleus {
                // Lowest (merit, position, row) among eligible entries.
                let mut best: Option<(usize, usize, usize, f64)> = None;
                for k in (0..m).filter(|&k| !col_done[k]) {
                    let mut col_max = None;
                    for &i in &cols[k] {
                        let i = i as usize;
                        if row_done[i] {
                            continue;
                        }
                        let merit = (rows[i].len() - 1) * (col_cnt[k] - 1);
                        if best.is_some_and(|(b, bk, bi, _)| (merit, k, i) >= (b, bk, bi)) {
                            continue;
                        }
                        let max = *col_max.get_or_insert_with(|| {
                            cols[k]
                                .iter()
                                .filter(|&&r| !row_done[r as usize])
                                .map(|&r| value_at(&rows, r as usize, k).abs())
                                .fold(0.0, f64::max)
                        });
                        let v = value_at(&rows, i, k);
                        if v.abs() > PIVOT_TOL && v.abs() >= PIVOT_THRESHOLD * max {
                            best = Some((merit, k, i, v));
                        }
                    }
                    if best.is_some_and(|(merit, ..)| merit == 0) {
                        break; // nothing beats a singleton at a lower position
                    }
                }
                let Some((_, k, i, v)) = best else {
                    return false;
                };
                let pivot_row = std::mem::take(&mut rows[i]);
                (row_done[i], col_done[k]) = (true, true);
                for &(c, u) in &pivot_row {
                    let c = c as usize;
                    if c != k {
                        spread[c] = u;
                        hit[c] = m;
                        self.ur_idx.push(c as u32);
                        self.ur_val.push(u);
                        col_cnt[c] -= 1;
                    }
                }
                for r in std::mem::take(&mut cols[k]) {
                    let r = r as usize;
                    if row_done[r] {
                        continue;
                    }
                    let at = rows[r]
                        .iter()
                        .position(|&(c, _)| c as usize == k)
                        .expect("column pattern lists rows that hold the entry");
                    let l = rows[r].swap_remove(at).1 / v;
                    self.l_idx.push(r as u32);
                    self.l_val.push(l);
                    // row_r -= l * pivot_row, dropping what cancels.
                    let mut e = 0;
                    while e < rows[r].len() {
                        let c = rows[r][e].0 as usize;
                        if hit[c] != OUTSIDE {
                            hit[c] = r;
                            rows[r][e].1 -= l * spread[c];
                            if rows[r][e].1.abs() <= DROP_TOL {
                                rows[r].swap_remove(e);
                                let at = cols[c]
                                    .iter()
                                    .position(|&x| x as usize == r)
                                    .expect("pattern mirrors the rows");
                                cols[c].swap_remove(at);
                                col_cnt[c] -= 1;
                                continue;
                            }
                        }
                        e += 1;
                    }
                    for &(c, u) in &pivot_row {
                        let c = c as usize;
                        if c != k && hit[c] != r {
                            rows[r].push((c as u32, -l * u));
                            cols[c].push(r as u32);
                            col_cnt[c] += 1;
                        }
                    }
                }
                for &(c, _) in &pivot_row {
                    hit[c as usize] = OUTSIDE;
                }
                self.close_l_eta(i);
                self.push_pivot(i, k, v);
            }
        }

        // U column-wise: each position's entries, keyed by the pivot row
        // of the step whose U row holds them.
        (self.uc_ptr, self.uc_idx, self.uc_val) =
            transpose(m, &self.ur_ptr, &self.ur_idx, &self.ur_val);
        for step in &mut self.uc_idx {
            *step = self.piv_row[*step as usize];
        }
        true
    }

    /// Records the pivot of one elimination step and closes its U row.
    fn push_pivot(&mut self, row: usize, pos: usize, value: f64) {
        self.piv_row.push(row as u32);
        self.piv_pos.push(pos as u32);
        self.piv_val.push(value);
        self.ur_ptr.push(self.ur_idx.len());
    }

    /// Closes the L eta of the step pivoting `row`, if it has entries.
    fn close_l_eta(&mut self, row: usize) {
        if self.l_idx.len() > *self.l_ptr.last().expect("starts with 0") {
            self.l_row.push(row as u32);
            self.l_ptr.push(self.l_idx.len());
        }
    }

    /// Stored non-zeros of `L` and `U` (pivots included).
    pub fn factor_nnz(&self) -> usize {
        self.m + self.l_idx.len() + self.ur_idx.len()
    }

    /// Stored non-zeros of the eta file (pivots included).
    pub fn eta_nnz(&self) -> usize {
        self.e_pos.len() + self.e_idx.len()
    }

    /// Whether the eta file has outgrown the factor it updates: from here
    /// on every solve spends more in the updates than in `L` and `U`, and
    /// a fresh factor is the cheaper way to carry on.
    pub fn needs_refactor(&self) -> bool {
        self.eta_nnz() > self.factor_nnz()
    }

    /// Solves `B w = a`: `a` is indexed by row and destroyed, `w` is
    /// written by position.
    pub fn ftran(&self, a: &mut [f64], w: &mut [f64]) {
        for (s, &i) in self.l_row.iter().enumerate() {
            let t = a[i as usize];
            if t != 0.0 {
                for e in self.l_ptr[s]..self.l_ptr[s + 1] {
                    a[self.l_idx[e] as usize] -= self.l_val[e] * t;
                }
            }
        }
        for s in (0..self.m).rev() {
            let t = a[self.piv_row[s] as usize];
            let k = self.piv_pos[s] as usize;
            if t == 0.0 {
                w[k] = 0.0;
                continue;
            }
            let t = t / self.piv_val[s];
            w[k] = t;
            for e in self.uc_ptr[k]..self.uc_ptr[k + 1] {
                a[self.uc_idx[e] as usize] -= self.uc_val[e] * t;
            }
        }
        for s in 0..self.e_pos.len() {
            let r = self.e_pos[s] as usize;
            if w[r] != 0.0 {
                let t = w[r] / self.e_piv[s];
                w[r] = t;
                for e in self.e_ptr[s]..self.e_ptr[s + 1] {
                    w[self.e_idx[e] as usize] -= self.e_val[e] * t;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by position and destroyed, `y`
    /// is written by row.
    pub fn btran(&self, c: &mut [f64], y: &mut [f64]) {
        for s in (0..self.e_pos.len()).rev() {
            let r = self.e_pos[s] as usize;
            let dot: f64 = (self.e_ptr[s]..self.e_ptr[s + 1])
                .map(|e| self.e_val[e] * c[self.e_idx[e] as usize])
                .sum();
            c[r] = (c[r] - dot) / self.e_piv[s];
        }
        for s in 0..self.m {
            let t = c[self.piv_pos[s] as usize];
            let i = self.piv_row[s] as usize;
            if t == 0.0 {
                y[i] = 0.0;
                continue;
            }
            let t = t / self.piv_val[s];
            y[i] = t;
            for e in self.ur_ptr[s]..self.ur_ptr[s + 1] {
                c[self.ur_idx[e] as usize] -= self.ur_val[e] * t;
            }
        }
        for s in (0..self.l_row.len()).rev() {
            let dot: f64 = (self.l_ptr[s]..self.l_ptr[s + 1])
                .map(|e| self.l_val[e] * y[self.l_idx[e] as usize])
                .sum();
            y[self.l_row[s] as usize] -= dot;
        }
    }

    /// Replaces the basic column at position `r` by the column whose
    /// FTRAN image is `w` (so `w[r]` is the pivot), appending one eta.
    pub fn update(&mut self, r: usize, w: &[f64]) {
        debug_assert!(w[r].abs() > PIVOT_TOL, "tiny pivot {}", w[r]);
        self.e_pos.push(r as u32);
        self.e_piv.push(w[r]);
        for (i, &v) in w.iter().enumerate() {
            if i != r && v.abs() > DROP_TOL {
                self.e_idx.push(i as u32);
                self.e_val.push(v);
            }
        }
        self.e_ptr.push(self.e_idx.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factor_dense(rows: &[Vec<f64>]) -> Option<LuFactor> {
        LuFactor::factor(rows.len(), |k, sink| {
            for (i, row) in rows.iter().enumerate() {
                if row[k] != 0.0 {
                    sink(i, row[k]);
                }
            }
        })
    }

    fn ftran(lu: &LuFactor, a: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; a.len()];
        lu.ftran(&mut a.to_vec(), &mut w);
        w
    }

    fn btran(lu: &LuFactor, c: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; c.len()];
        lu.btran(&mut c.to_vec(), &mut y);
        y
    }

    fn close(got: &[f64], want: &[f64]) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    /// A nucleus that no singleton reaches: every row and column has at
    /// least two entries.
    fn nucleus() -> Vec<Vec<f64>> {
        vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 4.0, 2.0],
            vec![1.0, 0.0, 1.0, 3.0],
        ]
    }

    #[test]
    fn solves_both_ways_through_a_markowitz_nucleus() {
        let b = nucleus();
        let lu = factor_dense(&b).expect("nonsingular");
        let w = [1.0, -2.0, 0.5, 3.0];
        // a = B w, c = Bᵀ w.
        let a: Vec<f64> = b
            .iter()
            .map(|row| row.iter().zip(&w).map(|(x, y)| x * y).sum())
            .collect();
        let c: Vec<f64> = (0..4)
            .map(|k| (0..4).map(|i| b[i][k] * w[i]).sum())
            .collect();
        close(&ftran(&lu, &a), &w);
        close(&btran(&lu, &c), &w);
    }

    #[test]
    fn triangular_bases_factor_without_fill_or_multipliers() {
        // Unit lower triangular with a dense first column: all column
        // singletons once the last column goes first.
        let b = vec![
            vec![1.0, 0.0, 0.0],
            vec![2.0, 1.0, 0.0],
            vec![3.0, 0.0, 1.0],
        ];
        let lu = factor_dense(&b).unwrap();
        assert_eq!(lu.factor_nnz(), 5, "exactly the entries of B");
        assert!(lu.l_idx.is_empty(), "column singletons need no L");
        close(&ftran(&lu, &[1.0, 2.0, 3.0]), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn singular_matrices_are_rejected() {
        // Structurally: an empty row. Numerically: two equal columns.
        assert!(factor_dense(&[vec![1.0, 1.0], vec![0.0, 0.0]]).is_none());
        assert!(factor_dense(&[
            vec![1.0, 1.0, 2.0],
            vec![2.0, 2.0, 1.0],
            vec![3.0, 3.0, 5.0],
        ])
        .is_none());
    }

    #[test]
    fn eta_updates_track_column_replacements() {
        let mut b = nucleus();
        let mut lu = factor_dense(&b).unwrap();
        for (r, new_col) in [(1usize, [1.0, 0.0, 2.0, 1.0]), (3, [0.0, 1.0, 1.0, 5.0])] {
            let w = ftran(&lu, &new_col);
            lu.update(r, &w);
            for (i, row) in b.iter_mut().enumerate() {
                row[r] = new_col[i];
            }
            let fresh = factor_dense(&b).unwrap();
            let rhs = [1.0, 2.0, 3.0, 4.0];
            close(&ftran(&lu, &rhs), &ftran(&fresh, &rhs));
            close(&btran(&lu, &rhs), &btran(&fresh, &rhs));
        }
        assert_eq!(lu.eta_nnz(), 8, "two full eta columns");
    }
}
