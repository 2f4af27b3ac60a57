//! Differential tests of the sparse LU basis kernel (DESIGN.md §14)
//! against a dense Gauss-Jordan inverse — the kernel the simplex used to
//! carry, kept here as the reference.
//!
//! The bases are the ones the solver really factors: the assignment /
//! capacity crash basis of a random §3.1 time-indexed model, the optimal
//! basis of its root LP, and what either turns into after up to 64
//! column replacements (each recorded as an eta, exactly as a simplex
//! pivot does). On all of them FTRAN and BTRAN through `L`, `U` and the
//! eta file must agree with the dense inverse to 1e-9, and the LU must
//! call a basis singular exactly when the dense reference does.
//!
//! Two tests pin bits rather than compare within a tolerance: the factor's
//! solves, and every answer of the LP engine above it.
//!
//! Runs with the default case count under `cargo test`; CI re-runs it
//! with `PROPTEST_CASES=256`.

mod common;

use common::random_model;
use dynp_milp::lu::LuFactor;
use dynp_milp::{
    solve_lp, BranchBound, BranchLimits, LpOutcome, LpStart, Milp, Sense, TimeIndexedModel,
};
use proptest::prelude::*;

/// Agreement tolerance between a sparse solve and the dense reference,
/// relative to the reference entry.
const SOLVE_TOL: f64 = 1e-9;
/// The reference's singularity threshold (the LU's `PIVOT_TOL`).
const PIVOT_TOL: f64 = 1e-9;
/// A replacement column is only pivoted in on an entry this large, so the
/// walk stays on well-conditioned bases (the simplex ratio tests do the
/// same job).
const MIN_PIVOT: f64 = 1e-6;

/// Column `j` of `[A | slacks | artificials]` in the solver's variable
/// layout. Artificials carry `+1`: these models have `b >= 0` and every
/// variable resting at a zero lower bound, so the solver signs them so.
fn column(model: &Milp, j: usize) -> Vec<(usize, f64)> {
    let n = model.num_vars();
    let slack_rows: Vec<usize> = (0..model.num_constraints())
        .filter(|&i| model.senses[i] != Sense::Eq)
        .collect();
    if j < n {
        model.matrix.column(j).collect()
    } else if j < n + slack_rows.len() {
        let row = slack_rows[j - n];
        let sign = if model.senses[row] == Sense::Le {
            1.0
        } else {
            -1.0
        };
        vec![(row, sign)]
    } else {
        vec![(j - n - slack_rows.len(), 1.0)]
    }
}

fn num_columns(model: &Milp) -> usize {
    let slacks = model.senses.iter().filter(|&&s| s != Sense::Eq).count();
    model.num_vars() + slacks + model.num_constraints()
}

fn factor(model: &Milp, basis: &[usize]) -> Option<LuFactor> {
    LuFactor::factor(basis.len(), |k, sink| {
        for (r, v) in column(model, basis[k]) {
            sink(r, v);
        }
    })
}

/// The reference: `B⁻¹` by Gauss-Jordan with partial pivoting on
/// `[B | I]`, row-major (`binv[position * m + row]`); `None` when a pivot
/// is at most [`PIVOT_TOL`].
fn dense_inverse(model: &Milp, basis: &[usize]) -> Option<Vec<f64>> {
    let m = basis.len();
    let mut b = vec![0.0; m * m];
    for (k, &var) in basis.iter().enumerate() {
        for (r, v) in column(model, var) {
            b[r * m + k] = v;
        }
    }
    invert(m, b)
}

/// Gauss-Jordan on the row-major `m × m` matrix `b` (`b[row * m + position]`).
fn invert(m: usize, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let mut binv = vec![0.0; m * m];
    for i in 0..m {
        binv[i * m + i] = 1.0;
    }
    for col in 0..m {
        let best = (col..m)
            .max_by(|&x, &y| b[x * m + col].abs().total_cmp(&b[y * m + col].abs()))
            .expect("non-empty range");
        if b[best * m + col].abs() <= PIVOT_TOL {
            return None;
        }
        for k in 0..m {
            b.swap(col * m + k, best * m + k);
            binv.swap(col * m + k, best * m + k);
        }
        let piv = b[col * m + col];
        for k in 0..m {
            b[col * m + k] /= piv;
            binv[col * m + k] /= piv;
        }
        for row in (0..m).filter(|&row| row != col) {
            let factor = b[row * m + col];
            if factor != 0.0 {
                for k in 0..m {
                    b[row * m + k] -= factor * b[col * m + k];
                    binv[row * m + k] -= factor * binv[col * m + k];
                }
            }
        }
    }
    Some(binv)
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

fn scatter(m: usize, entries: &[(usize, f64)]) -> Vec<f64> {
    let mut dense = vec![0.0; m];
    for &(r, v) in entries {
        dense[r] = v;
    }
    dense
}

/// FTRAN of a structural column and of a dense vector, BTRAN of a unit
/// vector (the dual's pricing row) and of a dense vector: sparse vs
/// `binv`.
fn assert_solves_match(
    model: &Milp,
    lu: &LuFactor,
    binv: &[f64],
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let m = model.num_constraints();
    let dense: Vec<f64> = (0..m)
        .map(|i| (picks[i % picks.len()] % 17) as f64 - 8.0)
        .collect();
    let sparse_col = scatter(m, &column(model, picks[0] % model.num_vars()));
    let unit = scatter(m, &[(picks[1] % m, 1.0)]);
    for rhs in [&sparse_col, &dense] {
        let got = ftran(lu, rhs);
        for k in 0..m {
            let want: f64 = (0..m).map(|r| binv[k * m + r] * rhs[r]).sum();
            prop_assert!(
                (got[k] - want).abs() <= SOLVE_TOL * (1.0 + want.abs()),
                "FTRAN position {k}: sparse {} vs dense {want}",
                got[k]
            );
        }
    }
    for rhs in [&unit, &dense] {
        let got = btran(lu, rhs);
        for r in 0..m {
            let want: f64 = (0..m).map(|k| rhs[k] * binv[k * m + r]).sum();
            prop_assert!(
                (got[r] - want).abs() <= SOLVE_TOL * (1.0 + want.abs()),
                "BTRAN row {r}: sparse {} vs dense {want}",
                got[r]
            );
        }
    }
    Ok(())
}

/// The crash basis of `ti` under its own bounds, and the root LP's
/// optimal basis reached from it.
fn crash_and_optimal(ti: &TimeIndexedModel) -> (Vec<usize>, Vec<usize>) {
    let model = &ti.model;
    let crash = ti
        .crash_start(&model.lower, &model.upper)
        .expect("an unfixed model always has a greedy crash");
    let (LpOutcome::Optimal(root), _) = solve_lp(
        model,
        &model.lower,
        &model.upper,
        LpStart::Crash(&crash),
        200_000,
    ) else {
        panic!("root LP of a generated model did not solve");
    };
    (crash.basis, root.basis.basis)
}

proptest! {
    /// Sparse FTRAN/BTRAN ≡ the dense inverse on a crash or root-optimal
    /// basis, and still after `k` column replacements carried as etas —
    /// where a fresh factor of the walked-to basis must agree as well.
    #[test]
    fn sparse_solves_match_the_dense_inverse(
        capacity in 2u32..6,
        scale_idx in 0usize..3,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..5),
        from_optimal in 0u32..2,
        k in 0usize..64,
        picks in prop::collection::vec(0usize..1_000_000, 64),
    ) {
        let ti = random_model(capacity, [60u64, 120, 300][scale_idx], &specs);
        let model = &ti.model;
        let m = model.num_constraints();
        let (crash, optimal) = crash_and_optimal(&ti);
        let mut basis = if from_optimal == 1 { optimal } else { crash };

        let mut lu = factor(model, &basis).expect("a basis the solver pivoted on");
        let binv = dense_inverse(model, &basis).expect("reference agrees it is regular");
        assert_solves_match(model, &lu, &binv, &picks)?;

        let mut replaced = 0;
        for &pick in picks.iter().take(k) {
            let entering = pick % num_columns(model);
            if basis.contains(&entering) {
                continue;
            }
            let w = ftran(&lu, &scatter(m, &column(model, entering)));
            // Largest entry, lowest position on ties.
            let r = (0..m).rev().max_by(|&x, &y| w[x].abs().total_cmp(&w[y].abs())).unwrap();
            if w[r].abs() < MIN_PIVOT {
                continue;
            }
            lu.update(r, &w);
            basis[r] = entering;
            replaced += 1;
        }
        if replaced > 0 {
            let binv = dense_inverse(model, &basis).expect("pivots kept the basis regular");
            assert_solves_match(model, &lu, &binv, &picks)?;
            let fresh = factor(model, &basis).expect("LU agrees it is regular");
            assert_solves_match(model, &fresh, &binv, &picks)?;
            prop_assert!(lu.eta_nnz() >= replaced, "one eta per replacement");
            prop_assert_eq!(fresh.eta_nnz(), 0);
        }
    }

    /// Overwriting positions of an optimal basis with arbitrary columns
    /// keeps it regular when the position is one the column's FTRAN image
    /// reaches and (almost always) makes it singular otherwise — a
    /// duplicated column, a row nobody covers. Half the overwrites are
    /// drawn each way; the LU must reject exactly the bases the dense
    /// reference rejects.
    #[test]
    fn lu_and_dense_agree_on_singularity(
        capacity in 2u32..6,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..5),
        swaps in 1usize..4,
        picks in prop::collection::vec(0usize..1_000_000, 12),
    ) {
        let ti = random_model(capacity, 60, &specs);
        let model = &ti.model;
        let m = model.num_constraints();
        let (_, mut basis) = crash_and_optimal(&ti);
        for s in 0..swaps {
            let Some(lu) = factor(model, &basis) else { break };
            let entering = picks[3 * s] % num_columns(model);
            let w = ftran(&lu, &scatter(m, &column(model, entering)));
            let reached: Vec<usize> = (0..m).filter(|&k| w[k].abs() > MIN_PIVOT).collect();
            let position = if picks[3 * s + 1] % 2 == 0 && !reached.is_empty() {
                reached[picks[3 * s + 2] % reached.len()]
            } else {
                picks[3 * s + 2] % m
            };
            basis[position] = entering;
        }
        let lu = factor(model, &basis);
        let binv = dense_inverse(model, &basis);
        prop_assert_eq!(
            lu.is_some(),
            binv.is_some(),
            "LU says {}, dense says {}",
            if lu.is_some() { "regular" } else { "singular" },
            if binv.is_some() { "regular" } else { "singular" },
        );
        if let (Some(lu), Some(binv)) = (lu, binv) {
            assert_solves_match(model, &lu, &binv, &picks)?;
        }
    }
}

/// Entry values the §3.1 bases never mix: a 0.05 beside a 16 fails the
/// LU's threshold test, and the small integers cancel to exact zeros.
const ENTRY_VALUES: [f64; 8] = [1.0, -1.0, 2.0, -2.0, 16.0, -16.0, 0.05, -0.05];

/// An `m × m` matrix by columns, rows ascending: cell `(row, position)`
/// takes `cells[row * m + position] = (roll, value index)` and is non-zero
/// when the roll is below `density_pct`; `duplicate = (from, to)` then
/// overwrites one column with another, which makes the matrix singular.
fn random_columns(
    m: usize,
    density_pct: u32,
    cells: &[(u32, usize)],
    duplicate: Option<(usize, usize)>,
) -> Vec<Vec<(usize, f64)>> {
    let mut columns: Vec<Vec<(usize, f64)>> = (0..m)
        .map(|k| {
            (0..m)
                .map(|i| (i, cells[i * m + k]))
                .filter(|&(_, (roll, _))| roll < density_pct)
                .map(|(i, (_, value))| (i, ENTRY_VALUES[value]))
                .collect()
        })
        .collect();
    if let Some((from, to)) = duplicate {
        columns[to] = columns[from].clone();
    }
    columns
}

fn factor_columns(columns: &[Vec<(usize, f64)>]) -> Option<LuFactor> {
    LuFactor::factor(columns.len(), |k, sink| {
        for &(r, v) in &columns[k] {
            sink(r, v);
        }
    })
}

fn invert_columns(columns: &[Vec<(usize, f64)>]) -> Option<Vec<f64>> {
    let m = columns.len();
    let mut b = vec![0.0; m * m];
    for (k, column) in columns.iter().enumerate() {
        for &(r, v) in column {
            b[r * m + k] = v;
        }
    }
    invert(m, b)
}

/// The two right-hand sides of the pinned and the random-matrix tests:
/// a dense vector of small integers and a unit vector.
fn fixed_rhs(m: usize) -> [Vec<f64>; 2] {
    let dense = (0..m).map(|i| ((7 * i + 3) % 17) as f64 - 8.0).collect();
    [dense, scatter(m, &[(m / 3, 1.0)])]
}

proptest! {
    /// Matrices the §3.1 bases do not produce: 20–60 rows, 15–40 % dense,
    /// entries of mixed magnitude, so that the Markowitz nucleus is most of
    /// the matrix and threshold rejections, cancellations to zero and fill
    /// all occur; one in four made singular by a duplicated column. Sparse
    /// solves ≡ the dense inverse, and the same singularity verdict.
    #[test]
    fn dense_nuclei_match_the_dense_inverse(
        m in 20usize..=60,
        density_pct in 15u32..=40,
        cells in prop::collection::vec((0u32..100, 0usize..8), 60 * 60),
        duplicate in (0usize..4, 0usize..1_000, 0usize..1_000),
    ) {
        let duplicate = (duplicate.0 == 0 && duplicate.1 % m != duplicate.2 % m)
            .then_some((duplicate.1 % m, duplicate.2 % m));
        let columns = random_columns(m, density_pct, &cells, duplicate);
        let lu = factor_columns(&columns);
        let binv = invert_columns(&columns);
        prop_assert_eq!(
            lu.is_some(),
            binv.is_some(),
            "LU says {}, dense says {}",
            if lu.is_some() { "regular" } else { "singular" },
            if binv.is_some() { "regular" } else { "singular" },
        );
        prop_assert!(duplicate.is_none() || lu.is_none(), "a duplicated column is singular");
        if let (Some(lu), Some(binv)) = (lu, binv) {
            // A near-singular draw amplifies rounding beyond any fixed
            // tolerance; the verdict above is all that is defined there.
            prop_assume!(binv.iter().all(|v| v.abs() < 1e4));
            for rhs in fixed_rhs(m) {
                let got = ftran(&lu, &rhs);
                for k in 0..m {
                    let want: f64 = (0..m).map(|r| binv[k * m + r] * rhs[r]).sum();
                    prop_assert!(
                        (got[k] - want).abs() <= SOLVE_TOL * (1.0 + want.abs()),
                        "FTRAN position {k}: sparse {} vs dense {want}",
                        got[k]
                    );
                }
                let got = btran(&lu, &rhs);
                for r in 0..m {
                    let want: f64 = (0..m).map(|k| rhs[k] * binv[k * m + r]).sum();
                    prop_assert!(
                        (got[r] - want).abs() <= SOLVE_TOL * (1.0 + want.abs()),
                        "BTRAN row {r}: sparse {} vs dense {want}",
                        got[r]
                    );
                }
            }
        }
    }
}

/// The pinned structure behind deleting the triangular special case: the
/// time-indexed crash basis is all singletons, so its factor stores
/// exactly the entries of `B` — no fill, no multipliers — and starts with
/// an empty eta file.
#[test]
fn the_crash_basis_factors_with_zero_fill() {
    let ti = random_model(4, 60, &[(3, 9), (1, 4), (2, 17), (0, 2)]);
    let (crash, _) = crash_and_optimal(&ti);
    let entries: usize = crash.iter().map(|&v| column(&ti.model, v).len()).sum();
    assert!(
        entries > crash.len(),
        "the crash basis is not just a diagonal"
    );
    let lu = factor(&ti.model, &crash).expect("the crash basis is triangular");
    assert_eq!(lu.factor_nnz(), entries);
    assert_eq!(lu.eta_nnz(), 0);
    assert!(!lu.needs_refactor());
}

/// Both kernels reject the structurally singular basis the warm path's
/// fallback test uses: two start columns of one job plus two slacks
/// leave the second job's assignment row uncovered.
#[test]
fn a_basis_missing_a_row_is_singular_to_both() {
    let ti = random_model(2, 60, &[(0, 0), (0, 0)]);
    let model = &ti.model;
    let m = model.num_constraints();
    // Job 0's first two start columns, then slacks for the rest.
    let n = model.num_vars();
    let mut basis = vec![0, 1];
    basis.extend((0..m - 2).map(|t| n + t));
    assert!(factor(model, &basis).is_none());
    assert!(dense_inverse(model, &basis).is_none());
}

/// SplitMix64: the fixed draws behind [`factors_are_pinned_to_the_bit`].
fn next_draw(state: &mut u64) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 16) as usize
}

/// Appends the bits of FTRAN and BTRAN of [`fixed_rhs`] through `lu` — or
/// one marker byte for a basis it called singular.
fn fold_solves(bytes: &mut Vec<u8>, m: usize, lu: Option<&LuFactor>) {
    let Some(lu) = lu else {
        bytes.push(0xff);
        return;
    };
    for rhs in fixed_rhs(m) {
        for solved in [ftran(lu, &rhs), btran(lu, &rhs)] {
            bytes.extend(solved.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
    }
}

/// The bits one seed contributes: solves through the factor of the crash
/// basis, of the root LP's optimal basis, of that factor after 16 eta
/// updates, and of a fresh factor of the basis the updates walked to.
fn fold_model_seed(bytes: &mut Vec<u8>, seed: u64) {
    let mut state = seed;
    let capacity = 3 + (next_draw(&mut state) % 6) as u32;
    let scale = [60u64, 120, 300][next_draw(&mut state) % 3];
    let specs: Vec<(u32, u64)> = (0..4 + next_draw(&mut state) % 4)
        .map(|_| {
            (
                next_draw(&mut state) as u32 % 8,
                next_draw(&mut state) as u64 % 40,
            )
        })
        .collect();
    let ti = random_model(capacity, scale, &specs);
    let model = &ti.model;
    let m = model.num_constraints();
    let (crash, mut basis) = crash_and_optimal(&ti);
    fold_solves(bytes, m, factor(model, &crash).as_ref());
    let mut lu = factor(model, &basis).expect("the root LP pivoted on it");
    fold_solves(bytes, m, Some(&lu));
    let mut replaced = 0;
    for _ in 0..400 {
        let entering = next_draw(&mut state) % num_columns(model);
        if replaced == 16 || basis.contains(&entering) {
            continue;
        }
        let w = ftran(&lu, &scatter(m, &column(model, entering)));
        let r = (0..m)
            .rev()
            .max_by(|&x, &y| w[x].abs().total_cmp(&w[y].abs()))
            .unwrap();
        if w[r].abs() >= MIN_PIVOT {
            lu.update(r, &w);
            basis[r] = entering;
            replaced += 1;
        }
    }
    assert_eq!(replaced, 16, "seed {seed} walks 16 columns in");
    fold_solves(bytes, m, Some(&lu));
    fold_solves(bytes, m, factor(model, &basis).as_ref());
}

/// The bits one seed of [`random_columns`] contributes.
fn fold_matrix_seed(bytes: &mut Vec<u8>, seed: u64) {
    let mut state = seed;
    let m = 20 + next_draw(&mut state) % 41;
    let density_pct = 15 + (next_draw(&mut state) % 26) as u32;
    let cells: Vec<(u32, usize)> = (0..m * m)
        .map(|_| {
            (
                next_draw(&mut state) as u32 % 100,
                next_draw(&mut state) % 8,
            )
        })
        .collect();
    let columns = random_columns(m, density_pct, &cells, None);
    fold_solves(bytes, m, factor_columns(&columns).as_ref());
}

/// The factor is a pure function of the ordered basis, down to the last
/// bit of every solve: the constants below were produced by the
/// `LuFactor::eliminate` of commit b7e9a14 (PR 22), before PR 23 rewrote
/// its bookkeeping, and any later version must reproduce them. An `L` eta
/// whose multipliers come out in another order changes the rounding of
/// BTRAN's dot products, which this catches and no 1e-9 comparison can.
/// Four groups of eight §3.1 seeds, one of eight dense random matrices.
#[test]
fn factors_are_pinned_to_the_bit() {
    const PINNED: [u64; 5] = [
        0x12b2_b91c_7706_3b55,
        0x86fe_4002_0c32_1133,
        0x4d0d_1303_bd58_b65e,
        0x88e5_8a32_bb13_de76,
        0xf16c_0d20_5462_1c3f,
    ];
    let mut got = [0u64; 5];
    for (group, hash) in got.iter_mut().enumerate() {
        let mut bytes = Vec::new();
        for seed in 8 * group as u64..8 * (group as u64 + 1) {
            if group < 4 {
                fold_model_seed(&mut bytes, seed);
            } else {
                fold_matrix_seed(&mut bytes, seed);
            }
        }
        *hash = dynp_obs::checkpoint::fnv1a64(&bytes);
    }
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        PINNED.map(|h| format!("{h:#018x}"))
    );
}

/// Appends the bits of an LP's answer: objective, point, reduced costs,
/// iterations, kernel counts and captured basis — or one marker byte for
/// an outcome without a solution.
fn fold_lp(bytes: &mut Vec<u8>, outcome: &LpOutcome) {
    let solution = match outcome {
        LpOutcome::Optimal(solution) => solution,
        LpOutcome::Infeasible => return bytes.push(0xf1),
        LpOutcome::Unbounded => return bytes.push(0xf2),
        LpOutcome::IterationLimit => return bytes.push(0xf3),
    };
    let floats = std::iter::once(&solution.objective)
        .chain(&solution.x)
        .chain(&solution.reduced_costs);
    bytes.extend(floats.flat_map(|v| v.to_bits().to_le_bytes()));
    let basis = &solution.basis;
    let counts = solution.counts.metrics().map(|(_, n)| n);
    let words = std::iter::once(solution.iterations)
        .chain(counts)
        .chain(basis.basis.iter().copied())
        .chain(basis.at_upper.iter().copied());
    bytes.extend(words.flat_map(|n| (n as u64).to_le_bytes()));
}

/// The bits one seed contributes: the canonical render of a
/// `solve_snapshot`-shaped search (snapshot-order seed incumbent, rounding
/// heuristic, crash hook, SOS brancher) under a 16-node budget into
/// `search`; into `lps`, the crash-started root LP, one child that forbids
/// a start the root uses solved cold, crash-started and warm from the
/// root's basis, and one child that forbids the root crash's first start,
/// crash-started from that now infeasible basis.
fn fold_solution_seed(search: &mut Vec<u8>, lps: &mut Vec<u8>, seed: u64) {
    let mut state = seed;
    let capacity = 3 + (next_draw(&mut state) % 6) as u32;
    let scale = [60u64, 120, 300][next_draw(&mut state) % 3];
    let specs: Vec<(u32, u64)> = (0..4 + next_draw(&mut state) % 4)
        .map(|_| {
            (
                next_draw(&mut state) as u32 % 8,
                next_draw(&mut state) as u64 % 40,
            )
        })
        .collect();
    let ti = random_model(capacity, scale, &specs);
    let model = &ti.model;
    let limits = BranchLimits {
        max_nodes: 16,
        ..BranchLimits::default()
    };
    let order: Vec<usize> = (0..ti.job_ids.len()).collect();
    let seed_x = ti
        .greedy_solution(&order)
        .expect("build fits the snapshot order");
    let mip = BranchBound::new(model, limits)
        .with_incumbent(seed_x)
        .expect("the snapshot-order greedy is feasible")
        .with_heuristic(Box::new(|_, lp| ti.rounding_heuristic(lp)))
        .with_crash(Box::new(|lower, upper| ti.crash_start(lower, upper)))
        .with_brancher(Box::new(|_, lp| ti.sos_branch(lp)))
        .solve();
    search.extend(mip.canonical_json().to_json().bytes());

    let crash = ti
        .crash_start(&model.lower, &model.upper)
        .expect("an unfixed model always has a greedy crash");
    let (lower, upper) = (&model.lower, &model.upper);
    let (root, _) = solve_lp(model, lower, upper, LpStart::Crash(&crash), 200_000);
    fold_lp(lps, &root);
    let LpOutcome::Optimal(root) = root else {
        panic!("root LP of a generated model did not solve");
    };
    let used: Vec<usize> = (0..model.num_vars())
        .filter(|&j| root.x[j] > 1e-6)
        .collect();
    let mut upper = model.upper.clone();
    upper[used[next_draw(&mut state) % used.len()]] = 0.0;
    fold_lp(
        lps,
        &solve_lp(model, lower, &upper, LpStart::Cold, 200_000).0,
    );
    let child_crash = ti.crash_start(lower, &upper);
    let start = child_crash.as_ref().map_or(LpStart::Cold, LpStart::Crash);
    fold_lp(lps, &solve_lp(model, lower, &upper, start, 200_000).0);
    let (warm, warmed) = solve_lp(model, lower, &upper, LpStart::Warm(&root.basis), 200_000);
    fold_lp(lps, &warm);
    lps.push(u8::from(warmed));
    let mut upper = model.upper.clone();
    upper[crash.basis[0]] = 0.0;
    let (rejected, _) = solve_lp(model, lower, &upper, LpStart::Crash(&crash), 200_000);
    fold_lp(lps, &rejected);
}

/// The LP engine is a pure function of model, bounds and start, down to
/// the last bit of every answer and every work count: the constants below
/// were produced by the four entry points of commit 6bcd642 (PR 23),
/// before PR 24 merged them into one `solve_lp`, and any later version
/// must reproduce them. A reordered tail (polish, cleanup, recompute,
/// extraction) or a fallback that keeps state the cold solve would not
/// have moves a bit here that no 1e-9 comparison sees. Two groups of
/// eight §3.1 seeds; per group, one constant over the searches and one
/// over the single LPs.
#[test]
fn solutions_are_pinned_to_the_bit() {
    const PINNED: [u64; 4] = [
        0x78b0_2c8c_26b9_4c6b,
        0xbea5_55cd_0fcc_0b78,
        0xadbf_d953_48b7_1904,
        0xfb6e_7f4b_f7aa_80c9,
    ];
    let mut got = [0u64; 4];
    for group in 0..2 {
        let (mut search, mut lps) = (Vec::new(), Vec::new());
        for seed in 100 + 8 * group as u64..100 + 8 * (group as u64 + 1) {
            fold_solution_seed(&mut search, &mut lps, seed);
        }
        got[2 * group] = dynp_obs::checkpoint::fnv1a64(&search);
        got[2 * group + 1] = dynp_obs::checkpoint::fnv1a64(&lps);
    }
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        PINNED.map(|h| format!("{h:#018x}"))
    );
}
