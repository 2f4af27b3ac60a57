//! `milp_par` — warm-started node LPs and deterministic parallel search
//! for the exact solver (DESIGN.md §14), on one §3.1 time-indexed
//! instance.
//!
//! Two measurements, one committed summary (`BENCH_milp.json`):
//!
//! 1. **Cold vs warm LP path.** Solve the root LP, then re-solve every
//!    branching child of the root twice: once the way the serial solver
//!    used to (crash basis + primal phase 2 from scratch) and once on the
//!    warm path (re-install the parent's optimal basis, dual-simplex
//!    repair). Both reach the same optimum; the time ratio is the
//!    per-node speedup warm starts buy. On the full-size instance
//!    (>= 1000 jobs) the run *asserts* the ratio is at least 1.5x.
//! 2. **Worker sweep.** Run the full branch & bound at each requested
//!    `solver_workers` count and render every [`MipSolution`] through
//!    [`MipSolution::canonical_json`]. The renders are written to
//!    `results/milp_par.solution.w<k>.json` and *asserted byte-identical*
//!    — the solver's determinism contract — before wall-clock speedups
//!    are reported.
//!
//! Usage: `milp_par [jobs] [node_budget] [workers-list]`, defaults
//! `1000 48 1,2,4`. CI runs a small smoke (`120 16 1,2` — the smallest
//! size with a fractional root, so branching and warm starts are really
//! exercised) and diffs the two solution renders byte-for-byte.

use dynp_bench::{busy_snapshot, cli_args_and_watch, start_watch, Report};
use dynp_milp::{
    solve_lp, BranchBound, BranchLimits, KernelCounts, LpOutcome, LpStart, MipSolution,
    TimeIndexedModel, TimeScaling,
};
use dynp_obs::JsonValue;
use dynp_sched::{plan, Policy};
use std::time::Instant;

/// The default instance's root LP under the dense-inverse kernel this
/// solver had until PR 16 (`(seconds, iterations)` from the
/// `BENCH_milp.json` committed then), reported next to the current run as
/// the "before" of the trajectory.
const DENSE_KERNEL_ROOT_LP: (f64, usize) = (127.010283101, 87_190);
/// The default instance under the textbook dual ratio test this solver
/// had until PR 21, measured with the PR 20 binary on the box and day of
/// the PR 21 run: `(seconds, LP iterations, dual pivots)` of the 8 warm
/// children and of the 48-node sweep at one worker — the "before" of the
/// long-step ratio test — and that run's root LP, whose code PR 21 did
/// not touch, as the yardstick between the two runs. (The file committed
/// at PR 16 has the same counts at 10.2 s and 102.5 s, on a box whose
/// root LP took 16.7 s.)
const TEXTBOOK_RATIO_WARM_CHILDREN: (f64, usize, usize) = (7.751839503, 2_740, 2_529);
const TEXTBOOK_RATIO_SWEEP: (f64, usize, usize) = (102.967190574, 113_261, 27_213);
const TEXTBOOK_RATIO_ROOT_LP_SECONDS: f64 = 12.72603028;
/// The default instance under the entry-wise matrix this solver had until
/// PR 22 (every column and row a list of `(index, value)` pairs), measured
/// with the PR 21 binary on the box and day of the PR 22 run: seconds of
/// the root LP, of the 8 warm children and of the 48-node sweep at one
/// worker. Counts are not listed: the run-length matrix leaves every one
/// of them as it was.
const ENTRY_WISE_MATRIX_SECONDS: (f64, f64, f64) = (14.922777819, 6.518174335, 75.156858638);
/// The default instance under the factorization this solver had until
/// PR 23 (a Markowitz search over every entry of every open column, the
/// active matrix as a `Vec` per row and column), measured with the PR 22
/// binary on the box and day of the PR 23 run: seconds of the root LP, of
/// the 8 warm children and of the 48-node sweep at one worker. Counts are
/// not listed: the factor is the same, bit for bit, so is every count.
const COLUMN_SCAN_LU_SECONDS: (f64, f64, f64) = (17.106892899, 6.295965299, 81.948245569);
/// Mean microseconds per `LuFactor::factor` call on the default instance
/// before and after PR 23: timers on scratch copies of both commits (never
/// in this repository) over `milp_par 1000 2 1`, 35 500 calls a side on
/// 1 318-row bases of 4 890 entries and a 223-row nucleus on average.
const FACTOR_MICROS_BEFORE_AFTER: (f64, f64) = (2537.2, 805.8);
/// Per-LP iteration budget; far above anything these instances need.
const MAX_ITERS: usize = 200_000;
/// Machine size of the benchmark snapshot.
const MACHINE_NODES: u32 = 256;
/// Target slot count: the time scale is chosen so the horizon maps to
/// about this many slots, keeping LP rows (jobs + slots) comparable
/// across queue depths.
const TARGET_SLOTS: u64 = 160;

fn validate_or_die(what: &str, json: &str) {
    if let Err(e) = dynp_obs::json::validate(json) {
        eprintln!("{what}: invalid JSON produced: {e}");
        std::process::exit(1);
    }
}

/// One child of the root node: full bound vectors after the branching
/// bound changes.
type ChildBounds = (Vec<f64>, Vec<f64>);

/// The branching children the solver itself would generate at the root:
/// the SOS split plus 0/1 fixings of the three most fractional variables.
fn root_children(ti: &TimeIndexedModel, root: &dynp_milp::LpSolution) -> Vec<ChildBounds> {
    let model = &ti.model;
    let mut children = Vec::new();
    if let Some((a, b)) = ti.sos_branch(root) {
        for set in [a, b] {
            let mut lower = model.lower.clone();
            let mut upper = model.upper.clone();
            for (v, lo, up) in set {
                lower[v] = lo;
                upper[v] = up;
            }
            children.push((lower, upper));
        }
    }
    let mut frac: Vec<(f64, usize)> = root
        .x
        .iter()
        .take(model.num_vars())
        .enumerate()
        .filter(|&(_, &xv)| xv > 1e-6 && xv < 1.0 - 1e-6)
        .map(|(v, &xv)| ((xv - 0.5).abs(), v))
        .collect();
    frac.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for &(_, v) in frac.iter().take(3) {
        for fix_up in [false, true] {
            let mut lower = model.lower.clone();
            let mut upper = model.upper.clone();
            if fix_up {
                lower[v] = 1.0;
            } else {
                upper[v] = 0.0;
            }
            children.push((lower, upper));
        }
    }
    children
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let node_budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let workers: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,2,4".into())
        .split(',')
        .map(|w| w.trim().parse().expect("workers list: comma-separated usize"))
        .collect();
    assert!(!workers.is_empty(), "workers list must not be empty");

    let mut report = Report::new("milp_par");
    let _watch = start_watch(watch_addr.as_deref());

    // The instance: a busy mid-run snapshot (same shape as the §3 planner
    // timings), horizon from the worst policy makespan per §3.1, and a
    // fixed time scale targeting TARGET_SLOTS slots.
    let problem = busy_snapshot(jobs, MACHINE_NODES, 2004);
    let horizon_end = [Policy::Fcfs, Policy::Sjf, Policy::Ljf]
        .into_iter()
        .filter_map(|p| plan(&problem, p).ok())
        .filter_map(|s| s.makespan_end())
        .max()
        .unwrap_or(problem.now + 3600);
    let span = horizon_end.saturating_sub(problem.now).max(1);
    let scale = span.div_ceil(TARGET_SLOTS).div_ceil(60).max(1) * 60;
    let ti = TimeIndexedModel::build(&problem, TimeScaling::fixed(scale), horizon_end);
    let model = &ti.model;
    let rows = ti.job_ids.len() + ti.horizon_slots;
    report.line(format!(
        "instance: {jobs} waiting jobs on {MACHINE_NODES} nodes, scale {scale} s, \
         {} slots, {} vars x {rows} rows",
        ti.horizon_slots,
        model.num_vars(),
    ));

    // -- Part 1: cold vs warm LP path on the root's children. ------------
    let t = Instant::now();
    let crash = ti.crash_start(&model.lower, &model.upper);
    let start = crash.as_ref().map_or(LpStart::Cold, LpStart::Crash);
    let (LpOutcome::Optimal(root), _) =
        solve_lp(model, &model.lower, &model.upper, start, MAX_ITERS)
    else {
        panic!("root LP of the benchmark instance did not solve");
    };
    let root_seconds = t.elapsed().as_secs_f64();
    let basis = root.basis.clone();
    report.line(format!(
        "root LP: {} iterations in {root_seconds:.3} s, objective {:.1}",
        root.iterations, root.objective
    ));
    report.line(format!("root LP kernel: {:?}", root.counts));

    let children = root_children(&ti, &root);
    let mut cold_seconds = 0.0;
    let mut cold_iterations = 0usize;
    let mut cold_objs: Vec<Option<f64>> = Vec::new();
    for (lower, upper) in &children {
        let t = Instant::now();
        let crash = ti.crash_start(lower, upper);
        let start = crash.as_ref().map_or(LpStart::Cold, LpStart::Crash);
        let (out, _) = solve_lp(model, lower, upper, start, MAX_ITERS);
        cold_seconds += t.elapsed().as_secs_f64();
        cold_objs.push(match out {
            LpOutcome::Optimal(sol) => {
                cold_iterations += sol.iterations;
                Some(sol.objective)
            }
            _ => None,
        });
    }
    let mut warm_seconds = 0.0;
    let mut warm_iterations = 0usize;
    let mut warm_hits = 0usize;
    let mut warm_kernel = KernelCounts::default();
    for ((lower, upper), cold_obj) in children.iter().zip(&cold_objs) {
        let t = Instant::now();
        let (out, used) = solve_lp(model, lower, upper, LpStart::Warm(&basis), MAX_ITERS);
        warm_seconds += t.elapsed().as_secs_f64();
        warm_hits += used as usize;
        if let LpOutcome::Optimal(sol) = out {
            warm_iterations += sol.iterations;
            warm_kernel.absorb(&sol.counts);
            if let Some(cold) = cold_obj {
                let tol = 1e-5 * cold.abs().max(1.0);
                assert!(
                    (sol.objective - cold).abs() <= tol,
                    "warm child optimum {} disagrees with cold {cold}",
                    sol.objective
                );
            }
        }
    }
    let warm_speedup = if children.is_empty() {
        1.0
    } else {
        cold_seconds / warm_seconds.max(1e-9)
    };
    report.line(format!(
        "cold vs warm on {} child LPs: cold {cold_iterations} iters / {cold_seconds:.3} s, \
         warm {warm_iterations} iters / {warm_seconds:.3} s ({warm_hits} warm hits) \
         -> {warm_speedup:.2}x",
        children.len()
    ));
    if jobs >= 1000 && !children.is_empty() {
        assert!(
            warm_speedup >= 1.5,
            "warm starts must be >= 1.5x faster than the cold LP path on the \
             full-size instance, measured {warm_speedup:.2}x"
        );
    }

    // -- Part 2: deterministic worker sweep. -----------------------------
    let _ = std::fs::create_dir_all("results");
    let mut runs: Vec<(usize, f64, String, MipSolution)> = Vec::new();
    for &k in &workers {
        let limits = BranchLimits {
            max_nodes: node_budget,
            solver_workers: k,
            ..BranchLimits::default()
        };
        let ti_ref = &ti;
        let t = Instant::now();
        let sol = BranchBound::new(model, limits)
            .with_heuristic(Box::new(move |_, lp| ti_ref.rounding_heuristic(lp)))
            .with_crash(Box::new(move |lower, upper| ti_ref.crash_start(lower, upper)))
            .with_brancher(Box::new(move |_, lp| ti_ref.sos_branch(lp)))
            .solve();
        let seconds = t.elapsed().as_secs_f64();
        let render = sol.canonical_json().to_json_pretty();
        let path = format!("results/milp_par.solution.w{k}.json");
        std::fs::write(&path, &render).expect("write solution render");
        report.line(format!(
            "workers {k}: {:?} in {seconds:.3} s, {} nodes, {} LP iterations, \
             {} warm / {} cold LPs -> {path}",
            sol.status, sol.nodes, sol.lp_iterations, sol.warm_lps, sol.cold_lps
        ));
        report.line(format!("workers {k} kernel: {:?}", sol.kernel));
        runs.push((k, seconds, render, sol));
    }
    let (k0, base_seconds, base_render, _) = &runs[0];
    for (k, _, render, _) in &runs[1..] {
        assert!(
            render == base_render,
            "MipSolution diverged between {k0} and {k} workers — determinism broken"
        );
    }
    report.line(format!(
        "byte-identical MipSolution across worker counts {workers:?}: OK"
    ));

    // -- Committed summary. ----------------------------------------------
    let mut sweep = JsonValue::array();
    for (k, seconds, _, sol) in &runs {
        sweep.push(
            JsonValue::object()
                .with("workers", *k)
                .with("seconds", *seconds)
                .with("speedup_vs_first", *base_seconds / (*seconds).max(1e-9))
                .with("status", format!("{:?}", sol.status))
                .with("nodes", sol.nodes)
                .with("lp_iterations", sol.lp_iterations)
                .with("warm_lps", sol.warm_lps)
                .with("cold_lps", sol.cold_lps)
                .with("kernel", sol.kernel.to_json()),
        );
    }
    let mut warm_vs_cold = JsonValue::object()
        .with("child_lps", children.len())
        .with("root_lp_seconds", root_seconds)
        .with("root_lp_iterations", root.iterations)
        .with("root_lp_kernel", root.counts.to_json());
    if jobs == 1000 {
        warm_vs_cold = warm_vs_cold.with(
            "root_lp_dense_kernel",
            JsonValue::object()
                .with("seconds", DENSE_KERNEL_ROOT_LP.0)
                .with("iterations", DENSE_KERNEL_ROOT_LP.1),
        );
    }
    let mut summary = JsonValue::object()
        .with("bench", "milp_par")
        .with("jobs", jobs)
        .with("machine_nodes", MACHINE_NODES)
        .with("node_budget", node_budget)
        .with("time_scale", scale)
        .with("horizon_slots", ti.horizon_slots)
        .with("num_variables", model.num_vars())
        .with("num_constraints", rows)
        .with(
            "warm_vs_cold",
            warm_vs_cold
                .with("cold_seconds", cold_seconds)
                .with("cold_iterations", cold_iterations)
                .with("warm_seconds", warm_seconds)
                .with("warm_iterations", warm_iterations)
                .with("warm_hits", warm_hits)
                .with("warm_kernel", warm_kernel.to_json())
                .with("speedup", warm_speedup),
        )
        .with("byte_identical", true)
        .with("sweep", sweep);
    if jobs == 1000 {
        let textbook = |(seconds, iterations, dual_pivots): (f64, usize, usize)| {
            JsonValue::object()
                .with("seconds", seconds)
                .with("lp_iterations", iterations)
                .with("dual_pivots", dual_pivots)
        };
        summary = summary.with(
            "textbook_ratio_test",
            JsonValue::object()
                .with("root_lp_seconds", TEXTBOOK_RATIO_ROOT_LP_SECONDS)
                .with("warm_children", textbook(TEXTBOOK_RATIO_WARM_CHILDREN))
                .with("sweep_one_worker", textbook(TEXTBOOK_RATIO_SWEEP)),
        );
        let (root_lp, warm_children, sweep_one_worker) = ENTRY_WISE_MATRIX_SECONDS;
        summary = summary.with(
            "entry_wise_matrix",
            JsonValue::object()
                .with("root_lp_seconds", root_lp)
                .with("warm_children_seconds", warm_children)
                .with("sweep_one_worker_seconds", sweep_one_worker),
        );
        let (root_lp, warm_children, sweep_one_worker) = COLUMN_SCAN_LU_SECONDS;
        let (factor_before, factor_after) = FACTOR_MICROS_BEFORE_AFTER;
        summary = summary.with(
            "column_scan_lu",
            JsonValue::object()
                .with("root_lp_seconds", root_lp)
                .with("warm_children_seconds", warm_children)
                .with("sweep_one_worker_seconds", sweep_one_worker)
                .with("factor_mean_micros", factor_before)
                .with("factor_mean_micros_now", factor_after),
        );
    }
    let json = summary.to_json_pretty();
    validate_or_die("BENCH_milp.json", &json);
    std::fs::write("BENCH_milp.json", &json).expect("write BENCH_milp.json");
    report.set("summary", summary);
    report.finish().expect("write report files");
    eprintln!("wrote BENCH_milp.json");
}
