//! Ablation A (DESIGN.md §3): simple vs. advanced vs. sticky deciders.
//!
//! Reference \[14\] showed the simple decider takes a *wrong* decision in four tie
//! cases (flipping back to FCFS/SJF although staying is correct); the
//! advanced decider fixes them. This experiment quantifies the effect on a
//! CTC-like trace: switch counts, per-policy residency, and the resulting
//! actual-time metrics. Writes `results/decider_ablation.{txt,json,events.jsonl}`.
//!
//! Usage: `cargo run --release -p dynp-bench --bin decider_ablation [n_jobs] [seeds...] [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, ctc_trace, start_watch, Report};
use dynp_core::{Decider, SelfTuning};
use dynp_obs::JsonValue;
use dynp_sched::{Metric, Policy};
use dynp_sim::{simulate, SimConfig};

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1500);
    let seeds: Vec<u64> = {
        let rest: Vec<u64> = args.filter_map(|a| a.parse().ok()).collect();
        if rest.is_empty() {
            vec![2004, 7, 42]
        } else {
            rest
        }
    };

    let mut report = Report::new("decider_ablation");
    let _watch = start_watch(watch_addr.as_deref());
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", n_jobs)
            .with("seeds", seeds.clone()),
    );

    let deciders = [
        ("simple", Decider::Simple),
        ("advanced", Decider::Advanced),
        ("sticky(5%)", Decider::Sticky { margin: 0.05 }),
        ("sticky(20%)", Decider::Sticky { margin: 0.20 }),
    ];

    report.blank();
    report.line(format!(
        "Decider ablation on CTC-like traces ({n_jobs} jobs per seed)"
    ));
    report.line(format!(
        "{:<12} {:>6} {:>9} {:>11} {:>8} {:>8} {:>22}",
        "decider", "seed", "switches", "switch rate", "SLDwA", "ARTwW", "residency F/S/L [%]"
    ));

    let mut rows_json = JsonValue::array();
    for &seed in &seeds {
        let trace = ctc_trace(n_jobs, seed);
        for (label, decider) in deciders {
            let tuner = SelfTuning::new(Policy::PAPER_SET.to_vec(), Metric::SldwA, decider);
            let run = simulate(&trace.jobs, tuner, SimConfig::new(trace.machine_size));
            let stats = run.selector.stats();
            let total_res: u64 = stats.residency().values().sum::<u64>().max(1);
            let pct = |p: Policy| {
                100.0 * stats.residency().get(&p).copied().unwrap_or(0) as f64 / total_res as f64
            };
            report.line(format!(
                "{:<12} {:>6} {:>9} {:>10.1}% {:>8.2} {:>7.0}s {:>7.0}/{:.0}/{:.0}",
                label,
                seed,
                stats.switches(),
                stats.switch_rate() * 100.0,
                run.summary.sldwa,
                run.summary.artww,
                pct(Policy::Fcfs),
                pct(Policy::Sjf),
                pct(Policy::Ljf),
            ));
            rows_json.push(
                JsonValue::object()
                    .with("decider", label)
                    .with("seed", seed)
                    .with("switches", stats.switches())
                    .with("switch_rate", stats.switch_rate())
                    .with("sldwa", run.summary.sldwa)
                    .with("artww", run.summary.artww)
                    .with(
                        "residency_percent",
                        JsonValue::object()
                            .with("fcfs", pct(Policy::Fcfs))
                            .with("sjf", pct(Policy::Sjf))
                            .with("ljf", pct(Policy::Ljf)),
                    ),
            );
        }
        report.blank();
    }
    report.set("rows", rows_json);
    report.line(
        "expectation ([14] / paper §2): the advanced decider switches less than the\n\
         simple one (it never flips back on ties) without hurting the metrics;\n\
         larger sticky margins damp switching further.",
    );
    report.finish().expect("writing results/");
}
