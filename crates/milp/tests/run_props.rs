//! Property tests for the run-length matrix and the two kernels that read
//! it (DESIGN.md §14).
//!
//! `milp::sparse` stores every column and every row as maximal runs of
//! consecutive indices with one value, the simplex prices a column from
//! prefix sums of the duals and accumulates a pivot row range by range.
//! Each of those replaced an entry-wise walk, which stays here as the
//! reference: the layout must describe exactly the pushed entries, the
//! prefix-summed reduced cost must agree with the entry-wise sum to
//! `1e-9·(1 + |c_j|)`, and the row accumulation must agree to the bit.
//! The last property is the sibling factor cache's: two children warm
//! started from one shared parent basis answer the same whoever arrives
//! first, on one worker or two.

mod common;

use common::random_model;
use dynp_milp::sparse::{CscBuilder, CscMatrix, PrefixSums, Run};
use dynp_milp::{solve_lp, Basis, LpOutcome, LpSolution, LpStart};
use proptest::prelude::*;

/// A dense `rows × cols` matrix from one value code per cell: half the
/// codes are zero; with `runs` the others name one of three values, so
/// equal neighbours — runs, down columns and along rows — are common;
/// without, every cell's value is its own and every run has length one.
fn dense_from_codes(rows: usize, cols: usize, codes: &[u8], runs: bool) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|i| {
            (0..cols)
                .map(|j| {
                    let cell = i * cols + j;
                    match (codes[cell % codes.len()] % 6, runs) {
                        (0..=2, _) => 0.0,
                        (3, true) => 1.0,
                        (4, true) => 2.0,
                        (_, true) => -1.5,
                        (code, false) => f64::from(code) + cell as f64 / 128.0,
                    }
                })
                .collect()
        })
        .collect()
}

/// The non-zeros of every column, `(row, value)` ascending: what was
/// pushed.
fn columns_of(dense: &[Vec<f64>]) -> Vec<Vec<(usize, f64)>> {
    let cols = dense.first().map_or(0, Vec::len);
    (0..cols)
        .map(|j| {
            dense
                .iter()
                .enumerate()
                .filter(|(_, row)| row[j] != 0.0)
                .map(|(i, row)| (i, row[j]))
                .collect()
        })
        .collect()
}

/// The columns of a §3.1 model from its description, not from its
/// matrix: start variable `(i, t)` holds a 1 on assignment row `i` and
/// the job's width on capacity rows `n + t .. n + t + d_i`.
fn timeindex_columns(ti: &dynp_milp::TimeIndexedModel) -> Vec<Vec<(usize, f64)>> {
    let n = ti.job_ids.len();
    ti.var_map
        .iter()
        .map(|&(i, t)| {
            let mut col = vec![(i, 1.0)];
            col.extend((t..t + ti.duration_slots[i]).map(|s| (n + s, f64::from(ti.widths[i]))));
            col
        })
        .collect()
}

/// The same entries by row, `(column, value)` ascending.
fn rows_of(columns: &[Vec<(usize, f64)>], rows: usize) -> Vec<Vec<(usize, f64)>> {
    let mut by_row = vec![Vec::new(); rows];
    for (j, column) in columns.iter().enumerate() {
        for &(i, v) in column {
            by_row[i].push((j, v));
        }
    }
    by_row
}

fn expand(runs: &[Run]) -> Vec<(usize, f64)> {
    runs.iter()
        .flat_map(|run| run.range().map(|k| (k, run.value)))
        .collect()
}

/// Runs are non-empty, non-zero, ascending, disjoint, and no two could be
/// one.
fn assert_maximal(runs: &[Run], what: &str) -> Result<(), TestCaseError> {
    for run in runs {
        prop_assert!(
            run.first < run.end && run.value != 0.0,
            "{what}: degenerate {run:?}"
        );
    }
    for pair in runs.windows(2) {
        prop_assert!(
            pair[0].end <= pair[1].first,
            "{what}: {pair:?} out of order"
        );
        prop_assert!(
            pair[0].end < pair[1].first || pair[0].value != pair[1].value,
            "{what}: {pair:?} should be one run"
        );
    }
    Ok(())
}

/// `matrix` stores exactly `columns`, both ways, in maximal runs.
fn assert_describes(
    matrix: &CscMatrix,
    columns: &[Vec<(usize, f64)>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(matrix.cols(), columns.len());
    prop_assert_eq!(matrix.nnz(), columns.iter().map(Vec::len).sum::<usize>());
    for (j, column) in columns.iter().enumerate() {
        assert_maximal(matrix.col_runs(j), &format!("column {j}"))?;
        prop_assert_eq!(&expand(matrix.col_runs(j)), column, "column {} runs", j);
        prop_assert_eq!(
            &matrix.column(j).collect::<Vec<_>>(),
            column,
            "column {}",
            j
        );
    }
    for (i, row) in rows_of(columns, matrix.rows()).iter().enumerate() {
        assert_maximal(matrix.row_runs(i), &format!("row {i}"))?;
        prop_assert_eq!(&expand(matrix.row_runs(i)), row, "row {} runs", i);
        prop_assert_eq!(matrix.row_nnz(i), row.len(), "row {} count", i);
    }
    Ok(())
}

/// Duals of magnitude `scale` with mixed signs for `rows` rows, out of
/// unit noise in `[-1, 1)`. At 1e6 they are put on a grid of 2⁻¹⁰: a
/// reduced cost of that size cannot be *stated* to the 1e-9 the tolerance
/// asks for (an ulp of 1e7 is 1.9e-9, and the entry-wise reference rounds
/// that far at every step), while on the grid both sums are exact — a
/// disagreement there is a wrong sum, not a rounded one. What the prefix
/// sums do to full-precision values is
/// `prefix_sums_are_good_to_an_ulp_of_the_run` below.
fn duals(noise: &[f64], scale: f64, rows: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| {
            let y = noise[i % noise.len()] * scale;
            if scale > 1e4 {
                (y * 1024.0).round() / 1024.0
            } else {
                y
            }
        })
        .collect()
}

/// Prefix-summed ≡ entry-wise reduced cost on every column of `matrix`.
fn assert_prices_alike(
    matrix: &CscMatrix,
    columns: &[Vec<(usize, f64)>],
    cost: impl Fn(usize) -> f64,
    y: &[f64],
) -> Result<(), TestCaseError> {
    let mut prefix = PrefixSums::default();
    prefix.refill(y);
    for (j, column) in columns.iter().enumerate() {
        let c = cost(j);
        let entry_wise = column.iter().fold(c, |d, &(r, v)| d - y[r] * v);
        let got = matrix.reduced_cost(j, c, &prefix);
        prop_assert!(
            (got - entry_wise).abs() <= 1e-9 * (1.0 + c.abs()),
            "column {j} (cost {c}): prefix {got} vs entry-wise {entry_wise}"
        );
    }
    Ok(())
}

/// `Σ_i rho_i · A_i` accumulated through the row runs ≡ the entry-wise
/// walk over the same rows in the same order, to the bit. Rows whose
/// multiplier is zero are skipped by both, as the pricing row skips the
/// rows `ρ_r` does not touch.
fn assert_rows_add_alike(
    matrix: &CscMatrix,
    columns: &[Vec<(usize, f64)>],
    rho: &[f64],
) -> Result<(), TestCaseError> {
    let mut want = vec![0.0f64; matrix.cols()];
    let mut got = want.clone();
    for (i, row) in rows_of(columns, matrix.rows()).iter().enumerate() {
        let rho_i = rho[i % rho.len()];
        if rho_i == 0.0 {
            continue;
        }
        for &(j, v) in row {
            want[j] += rho_i * v;
        }
        matrix.add_row(i, rho_i, &mut got);
    }
    for j in 0..matrix.cols() {
        prop_assert_eq!(got[j].to_bits(), want[j].to_bits(), "alpha[{}]", j);
    }
    Ok(())
}

/// Everything an [`LpSolution`] holds, floats by their bits.
type Fingerprint = (
    Vec<u64>,
    Vec<u64>,
    usize,
    dynp_milp::KernelCounts,
    Vec<usize>,
    Vec<usize>,
);

fn fingerprint(outcome: &(LpOutcome, bool)) -> Option<Fingerprint> {
    let (
        LpOutcome::Optimal(LpSolution {
            objective,
            x,
            reduced_costs,
            iterations,
            counts,
            basis,
        }),
        _,
    ) = outcome
    else {
        return None;
    };
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let mut values = bits(x);
    values.push(objective.to_bits());
    Some((
        values,
        bits(reduced_costs),
        *iterations,
        *counts,
        basis.basis.clone(),
        basis.at_upper.clone(),
    ))
}

proptest! {
    /// (i) on generic matrices, pushed entry by entry or as arbitrary
    /// (non-maximal) pieces of runs: the same matrix, stored maximally.
    #[test]
    fn runs_describe_exactly_the_pushed_entries(
        rows in 1usize..12,
        cols in 1usize..12,
        codes in prop::collection::vec(0u8..6, 144),
        runs in 0u32..2,
        piece in 1usize..4,
    ) {
        let dense = dense_from_codes(rows, cols, &codes, runs == 1);
        let columns = columns_of(&dense);
        let matrix = CscMatrix::from_dense(&dense);
        prop_assert_eq!(matrix.rows(), rows);
        assert_describes(&matrix, &columns)?;
        // The same columns as runs cut into pieces of at most `piece`
        // rows, zeros included: the builder merges them back.
        let mut pieces = CscBuilder::new(rows);
        for j in 0..cols {
            let column: Vec<f64> = dense.iter().map(|row| row[j]).collect();
            let cut: Vec<_> = column
                .chunks(piece)
                .enumerate()
                .flat_map(|(chunk, values)| {
                    let first = chunk * piece;
                    if values.iter().all(|&v| v == values[0]) {
                        vec![(first..first + values.len(), values[0])]
                    } else {
                        (first..).zip(values).map(|(i, &v)| (i..i + 1, v)).collect()
                    }
                })
                .collect();
            pieces.push_column_runs(&cut);
        }
        prop_assert_eq!(pieces.build(), matrix);
    }

    /// (i) on §3.1 models: two runs a column, at most one run per job on
    /// a capacity row, and the entries of Eq. 3/4.
    #[test]
    fn timeindex_models_are_two_runs_a_column(
        capacity in 2u32..6,
        scale_idx in 0usize..3,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..6),
    ) {
        let ti = random_model(capacity, [60u64, 120, 300][scale_idx], &specs);
        let matrix = &ti.model.matrix;
        assert_describes(matrix, &timeindex_columns(&ti))?;
        for j in 0..matrix.cols() {
            prop_assert!(matrix.col_runs(j).len() <= 2, "column {} has more than two runs", j);
        }
        for i in 0..matrix.rows() {
            prop_assert!(matrix.row_runs(i).len() <= specs.len(), "row {} has a run too many", i);
        }
    }

    /// (ii) and (iii) on generic matrices, with and without runs.
    #[test]
    fn kernels_match_the_entry_wise_walk_on_generic_matrices(
        rows in 1usize..12,
        cols in 1usize..12,
        codes in prop::collection::vec(0u8..6, 144),
        runs in 0u32..2,
        noise in prop::collection::vec(-1.0f64..1.0, 16),
        magnitude in 0usize..3,
        rho_codes in prop::collection::vec(0u8..4, 12),
    ) {
        let dense = dense_from_codes(rows, cols, &codes, runs == 1);
        let columns = columns_of(&dense);
        let matrix = CscMatrix::from_dense(&dense);
        let size = [1.0, 1e3, 1e6][magnitude];
        let y = duals(&noise, size, rows);
        assert_prices_alike(&matrix, &columns, |j| noise[j % noise.len()] * size, &y)?;
        // A pricing row is sparse: a quarter of the multipliers are zero.
        let rho: Vec<f64> = rho_codes
            .iter()
            .zip(&noise)
            .map(|(&code, &x)| if code == 0 { 0.0 } else { x * size })
            .collect();
        assert_rows_add_alike(&matrix, &columns, &rho)?;
    }

    /// (ii) and (iii) on §3.1 models. The duals come in three shapes:
    /// everything of order one (phase 1); assignment duals of 1e5 — full
    /// precision, ahead of every capacity row in the prefix sums — over
    /// capacity duals of order one (phase 2 of a Table 1 snapshot); and
    /// duals of 1e6 with mixed signs on every row.
    #[test]
    fn kernels_match_the_entry_wise_walk_on_timeindex_models(
        capacity in 2u32..6,
        scale_idx in 0usize..3,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..6),
        noise in prop::collection::vec(-1.0f64..1.0, 64),
        shape in 0usize..3,
    ) {
        let ti = random_model(capacity, [60u64, 120, 300][scale_idx], &specs);
        let (model, jobs) = (&ti.model, ti.job_ids.len());
        let columns = timeindex_columns(&ti);
        let y = match shape {
            0 => duals(&noise, 1.0, model.num_constraints()),
            1 => (0..model.num_constraints())
                .map(|i| noise[i % noise.len()] * if i < jobs { 1e5 } else { 1.0 })
                .collect(),
            _ => duals(&noise, 1e6, model.num_constraints()),
        };
        assert_prices_alike(&model.matrix, &columns, |j| model.objective[j], &y)?;
        assert_rows_add_alike(&model.matrix, &columns, &noise)?;
    }

    /// What (ii) rests on: the sum of a run read off the prefix sums is
    /// as good as summing the run itself, whatever precedes it — here a
    /// head of values nine orders of magnitude above the runs', which
    /// plain prefix sums would charge to every run behind it (an ulp of
    /// 1e9 is 1.2e-7).
    #[test]
    fn prefix_sums_are_good_to_an_ulp_of_the_run(
        head in prop::collection::vec(-1e9f64..1e9, 0..6),
        tail in prop::collection::vec(-1.0f64..1.0, 1..200),
        first_seed in 0usize..1000,
        len_seed in 0usize..1000,
    ) {
        let y: Vec<f64> = head.iter().chain(&tail).copied().collect();
        let mut prefix = PrefixSums::default();
        prefix.refill(&y);
        let first = head.len() + first_seed % tail.len();
        let end = first + 1 + len_seed % (y.len() - first);
        let run = &y[first..end];
        let direct: f64 = run.iter().sum();
        let magnitude: f64 = run.iter().map(|v| v.abs()).sum();
        // `direct` itself is only good to a rounding per addition.
        let slack = (run.len() + 2) as f64 * f64::EPSILON * magnitude;
        let got = prefix.sum(first..end);
        prop_assert!(
            (got - direct).abs() <= slack,
            "Σ y[{first}..{end}]: prefix {got} vs direct {direct} (slack {slack:e})"
        );
    }

    /// (iv) Both children of a node warm-start from one shared `Basis`;
    /// whichever installs it first factors it for both. Each child must
    /// answer — solution, reduced costs, iteration and kernel counts,
    /// captured basis — exactly as it does alone, in either order and
    /// when the two race on two workers.
    #[test]
    fn sibling_children_answer_alike_in_any_order(
        capacity in 2u32..6,
        scale_idx in 0usize..3,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..6),
        var_seed in 0usize..1000,
    ) {
        let ti = random_model(capacity, [60u64, 120, 300][scale_idx], &specs);
        let model = &ti.model;
        let (LpOutcome::Optimal(root), _) =
            solve_lp(model, &model.lower, &model.upper, LpStart::Cold, 200_000)
        else {
            panic!("root LP of a generated model did not solve");
        };
        let parent = &root.basis;
        // Branch on a start the root uses: the down child forbids it,
        // the up child forces it.
        let used: Vec<usize> = (0..model.num_vars()).filter(|&j| root.x[j] > 1e-6).collect();
        let var = used[var_seed % used.len()];
        let children: Vec<(Vec<f64>, Vec<f64>)> = [(0.0, 0.0), (1.0, 1.0)]
            .into_iter()
            .map(|(lo, hi)| {
                let (mut lower, mut upper) = (model.lower.clone(), model.upper.clone());
                (lower[var], upper[var]) = (lo, hi);
                (lower, upper)
            })
            .collect();
        let solve = |basis: &Basis, child: &(Vec<f64>, Vec<f64>)| {
            fingerprint(&solve_lp(model, &child.0, &child.1, LpStart::Warm(basis), 200_000))
        };
        // Alone: a clone of a basis has nothing cached.
        let alone: Vec<_> = children.iter().map(|c| solve(&parent.clone(), c)).collect();
        let shared = parent.clone();
        let down_first: Vec<_> = children.iter().map(|c| solve(&shared, c)).collect();
        prop_assert_eq!(&down_first, &alone, "down child first");
        let shared = parent.clone();
        let mut up_first: Vec<_> = children.iter().rev().map(|c| solve(&shared, c)).collect();
        up_first.reverse();
        prop_assert_eq!(&up_first, &alone, "up child first");
        for workers in [1, 2] {
            let shared = parent.clone();
            let raced: Vec<_> = dynp_obs::pool::run_indexed(workers, &children, |_, c| solve(&shared, c))
                .into_iter()
                .map(|slot| match slot {
                    dynp_obs::pool::SlotOutcome::Done(fingerprint) => fingerprint,
                    dynp_obs::pool::SlotOutcome::Panicked(caught) => panic!("child LP panicked: {}", caught.payload),
                })
                .collect();
            prop_assert_eq!(&raced, &alone, "{} workers", workers);
        }
    }
}
