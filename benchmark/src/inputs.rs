//! Seeded input generation. The program under test only ever sees what
//! is generated here.
//!
//! Every workload starts from a fixed *base* trace (CTC model, the seeds
//! the repo's own experiments use: 42 for serve/sim, 2004 for Table 1,
//! 7 for the large LP) and `--seed` moves its time origin: every submit
//! time, snapshot instant and running job's end moves by [`origin`]
//! seconds. Every seed so has its own request bodies, schedules and
//! digests, and every seed asks for exactly the same work: scheduling
//! only ever looks at differences between times, so tuning steps, probes,
//! nodes and LP iterations are the same numbers for every seed.
//!
//! Inputs that change the work with the seed were tried first and are
//! useless as a yardstick. A fresh trace per seed: the CTC model is
//! heavy-tailed, 4000-job replays of eight seeds took 0.33 s to 2.06 s
//! and twelve Table 1 snapshots 7 s to 19 s. The base trace with every
//! estimate and runtime jittered by ±10 % per seed, or by ±1 %: one
//! backfill decided differently and the queues diverge, one pivot chosen
//! differently and the simplex takes another path; measured seed by seed
//! in one process, the twelve Table 1 solves took 2.4 s to 3.5 s and the
//! four large LPs 2.0 s to 2.9 s, and the median batch latency of the
//! backlog moved by ±10 %. The spread of ten seeds would be a property of
//! the seeds, not of the code.

use dynp_core::SelfTuning;
use dynp_platform::MachineHistory;
use dynp_sched::{Metric, SchedulingProblem};
use dynp_serve::JobRequest;
use dynp_sim::{simulate, SimConfig, SnapshotFilter};
use dynp_trace::{CtcModel, Job, WorkloadModel};

pub const CTC_NODES: u32 = 430;
const SERVE_BASE_SEED: u64 = 42;
const TABLE1_BASE_SEED: u64 = 2004;
const ROOT_LP_BASE_SEED: u64 = 7;
const JITTER: f64 = 0.10;
/// The instant of a `busy_problem` before the seed moves it.
const BUSY_NOW: u64 = 1_000_000;

/// Workload sizes. `smoke` is roughly a tenth of `full`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub name: &'static str,
    /// Default measuring time per workload run, seconds.
    pub seconds: f64,
    pub http_jobs: usize,
    pub core_traces: usize,
    pub core_jobs: usize,
    pub soak_jobs: usize,
    pub sim_traces: usize,
    pub sim_jobs: usize,
    pub table1_rows: usize,
    pub table1_max_nodes: usize,
    pub root_lp_instances: usize,
    pub root_lp_jobs: usize,
}

pub const FULL: Sizes = Sizes {
    name: "full",
    seconds: 18.0,
    http_jobs: 8000,
    core_traces: 2,
    core_jobs: 2500,
    soak_jobs: 3000,
    sim_traces: 3,
    sim_jobs: 4000,
    table1_rows: 12,
    table1_max_nodes: 16,
    root_lp_instances: 2,
    root_lp_jobs: 100,
};

pub const SMOKE: Sizes = Sizes {
    name: "smoke",
    seconds: 1.0,
    http_jobs: 800,
    core_traces: 2,
    core_jobs: 400,
    soak_jobs: 300,
    sim_traces: 2,
    sim_jobs: 300,
    table1_rows: 4,
    table1_max_nodes: 4,
    root_lp_instances: 2,
    root_lp_jobs: 40,
};

/// SplitMix64: the harness's own generator, so inputs do not depend on
/// the vendored `rand` stand-in's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seconds by which `seed` moves the time origin of every input: four to
/// eight months, so that every time any workload sees has eight digits,
/// whatever the seed (the checkpoint's size counts them).
pub fn origin(seed: u64) -> u64 {
    10_000_000 + Rng::new(seed).next_u64() % 10_000_000
}

/// Scales every job's estimate and runtime by independent factors in
/// `[1 - JITTER, 1 + JITTER)`.
fn jitter(jobs: &mut [Job], rng: &mut Rng) {
    let mut scaled = |d: u64| {
        let factor = 1.0 + JITTER * (2.0 * rng.unit() - 1.0);
        ((d as f64 * factor) as u64).max(1)
    };
    for job in jobs {
        job.estimated_duration = scaled(job.estimated_duration);
        job.actual_duration = scaled(job.actual_duration);
    }
}

/// `count` variants of the first `n` jobs of `model`'s base trace, each
/// with its estimates and runtimes jittered on its own (the same way for
/// every seed), submitted `shift` seconds later. A rep that runs a few
/// variants does not hang on how one trace happens to unfold.
fn variants(model: CtcModel, base_seed: u64, count: usize, n: usize, shift: u64) -> Vec<Vec<Job>> {
    let base = model.generate(n, base_seed).jobs;
    let mut rng = Rng::new(base_seed);
    (0..count)
        .map(|_| {
            let mut jobs = base.clone();
            jitter(&mut jobs, &mut rng);
            for job in &mut jobs {
                job.submit += shift;
            }
            jobs
        })
        .collect()
}

/// Variants of the default CTC trace (369 s interarrival, utilisation
/// about 0.9): the queue stays shallow.
pub fn shallow_traces(count: usize, n: usize, seed: u64) -> Vec<Vec<Job>> {
    variants(CtcModel::default(), SERVE_BASE_SEED, count, n, origin(seed))
}

/// One variant of the shallow trace.
pub fn shallow_trace(n: usize, seed: u64) -> Vec<Job> {
    shallow_traces(1, n, seed).remove(0)
}

/// Variants of the CTC trace with arrivals compressed to 5 s apart, so the
/// backlog grows to about half the trace while it is being submitted.
pub fn backlog_traces(count: usize, n: usize, seed: u64) -> Vec<Vec<Job>> {
    let model = CtcModel {
        mean_interarrival: 5.0,
        ..CtcModel::default()
    };
    variants(model, SERVE_BASE_SEED, count, n, origin(seed))
}

/// Submissions carrying the trace's logical submit time and real runtime.
pub fn requests(jobs: &[Job]) -> Vec<JobRequest> {
    jobs.iter()
        .map(|j| JobRequest {
            width: j.width,
            runtime: j.estimated_duration,
            actual_runtime: Some(j.actual_duration),
            submit: Some(j.submit),
        })
        .collect()
}

/// The single-job `POST /v1/jobs` body of `r`.
pub fn request_body(r: &JobRequest) -> String {
    format!(
        "{{\"v\":1,\"width\":{},\"runtime\":{},\"actual_runtime\":{},\"submit\":{}}}",
        r.width,
        r.runtime,
        r.actual_runtime.unwrap_or(r.runtime),
        r.submit.unwrap_or(0)
    )
}

/// A mid-run snapshot at `now`: ten running jobs and `jobs[10..]`
/// waiting, their submissions folded into the hour before `now` (the
/// shape of `dynp_bench::busy_snapshot`, which the repo's planner benches
/// and the paper's "<10 ms for 25 waiting jobs" claim are measured
/// against). `jobs` come with the base trace's own submit times.
fn busy_problem(jobs: &[Job], nodes: u32, now: u64) -> SchedulingProblem {
    let cap = (nodes / 14).max(1);
    let running: Vec<(u32, u64)> = jobs[..10]
        .iter()
        .enumerate()
        .map(|(k, j)| (j.width.min(cap), now + 600 + 300 * k as u64))
        .collect();
    let history = MachineHistory::build(nodes, now, &running);
    let waiting = jobs[10..]
        .iter()
        .map(|j| Job {
            submit: now.saturating_sub(j.submit % 3600),
            ..*j
        })
        .collect();
    SchedulingProblem::new(now, history, waiting)
}

/// A planner probe problem with `depth` waiting jobs on the CTC machine.
pub fn probe_problem(depth: usize, seed: u64) -> SchedulingProblem {
    let jobs = variants(CtcModel::default(), SERVE_BASE_SEED, 1, depth + 10, 0).remove(0);
    busy_problem(&jobs, CTC_NODES, BUSY_NOW + origin(seed))
}

/// The Table 1 set: snapshots with 5–18 waiting jobs taken while the
/// base trace, submitted `seed`'s origin later, replays under self-tuning
/// dynP; spread-sampled to `rows`, then jittered (the same way for every
/// seed: as the simulator leaves it, the seven-job snapshot ends `Unknown`
/// within the node budget, which would count as a failed operation).
pub fn table1_set(rows: usize, seed: u64) -> Vec<SchedulingProblem> {
    let mut trace = CtcModel::default().generate(1200, TABLE1_BASE_SEED);
    for job in &mut trace.jobs {
        job.submit += origin(seed);
    }
    let run = simulate(
        &trace.jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(trace.machine_size).with_snapshots(SnapshotFilter {
            min_jobs: 5,
            max_jobs: 18,
            ..SnapshotFilter::default()
        }),
    );
    let pool = &run.snapshots;
    let rows = rows.min(pool.len());
    let step = pool.len() as f64 / rows as f64;
    let mut rng = Rng::new(TABLE1_BASE_SEED);
    (0..rows)
        .map(|i| {
            let problem = &pool[(i as f64 * step) as usize].problem;
            let mut jobs = problem.jobs.clone();
            jitter(&mut jobs, &mut rng);
            SchedulingProblem::new(problem.now, problem.history.clone(), jobs)
        })
        .collect()
}

/// The large-LP instances: `count` variants of one stretch of the base
/// trace, each `waiting` jobs queued on a 256-node machine.
pub fn root_lp_instances(count: usize, waiting: usize, seed: u64) -> Vec<SchedulingProblem> {
    let nodes = 256;
    let model = CtcModel {
        nodes,
        ..CtcModel::default()
    };
    variants(model, ROOT_LP_BASE_SEED, count, waiting + 10, 0)
        .iter()
        .map(|jobs| busy_problem(jobs, nodes, BUSY_NOW + origin(seed)))
        .collect()
}

/// FNV-1a digest of `bytes`, as the checkpoint format prints it.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", dynp_obs::checkpoint::fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_origin() {
        let a = backlog_traces(2, 200, 5);
        assert_eq!(a, backlog_traces(2, 200, 5));
        assert_ne!(a[0], a[1], "variants are jittered independently");
        let b = backlog_traces(2, 200, 6);
        assert_ne!(a, b);
        // Another seed is the same trace at another time: only the submit
        // times differ, and all by the same amount.
        let shift = origin(6) as i64 - origin(5) as i64;
        assert_ne!(shift, 0);
        assert!(a[0].iter().zip(&b[0]).all(|(x, y)| {
            y.submit as i64 - x.submit as i64 == shift
                && Job { submit: 0, ..*x } == Job { submit: 0, ..*y }
        }));
    }

    #[test]
    fn jitter_stays_within_ten_percent() {
        let base = CtcModel::default().generate(300, SERVE_BASE_SEED).jobs;
        let jittered = shallow_trace(300, 9);
        for (b, j) in base.iter().zip(&jittered) {
            let ratio = j.estimated_duration as f64 / b.estimated_duration as f64;
            assert!((0.85..=1.11).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn probe_problems_have_the_asked_depth_and_validate() {
        let p = probe_problem(25, 1);
        assert_eq!(p.len(), 25);
        p.validate().unwrap();
    }

    #[test]
    fn snapshots_of_two_seeds_differ_by_their_origin_only() {
        let (a, b) = (root_lp_instances(2, 30, 1), root_lp_instances(2, 30, 2));
        let shift = origin(2) as i64 - origin(1) as i64;
        for (x, y) in a.iter().zip(&b) {
            x.validate().unwrap();
            assert_eq!(y.now as i64 - x.now as i64, shift);
            assert!(x.jobs.iter().zip(&y.jobs).all(|(j, k)| {
                k.submit as i64 - j.submit as i64 == shift
                    && j.estimated_duration == k.estimated_duration
            }));
        }
    }
}
