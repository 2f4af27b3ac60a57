//! `compare <a.json> <b.json>`: the gate two result files are judged by.
//! One row per workload and gated metric (end-to-end metrics at their
//! bound, quality metrics at bound 0), with both values and a verdict.

use crate::report::Better;
use crate::stats::Summary;
use dynp_obs::JsonValue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread of the repetitions is wider than the bound, so the
    /// values cannot settle it either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a`'s value `b`'s value is worse (negative when it
/// is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        f64::INFINITY.copysign(delta)
    } else {
        delta / a.abs()
    }
}

/// One metric of one run: the value it reports (the quiet value, or the
/// median of the samples) and its per-repetition samples.
pub struct Measured {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measured {
    fn read(metric: &JsonValue) -> Measured {
        let samples: Vec<f64> = metric
            .get("samples")
            .and_then(JsonValue::as_array)
            .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default();
        let value = metric
            .get("value")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| Summary::of(&samples).median);
        Measured { value, samples }
    }

    #[cfg(test)]
    fn of(samples: &[f64]) -> Measured {
        Measured {
            value: Summary::of(samples).median,
            samples: samples.to_vec(),
        }
    }
}

/// Judges `b` (the change) against `a` (the baseline).
pub fn verdict(better: Better, bound: f64, a: &Measured, b: &Measured) -> Verdict {
    let (sa, sb) = (Summary::of(&a.samples), Summary::of(&b.samples));
    let change = worse_by(better, a.value, b.value);
    let (a, b) = (&a.samples, &b.samples);
    if sa.spread().max(sb.spread()) > bound && bound > 0.0 {
        // Too noisy for the values — unless the samples do not overlap.
        let every_b_beats_every_a = match better {
            Better::Lower => {
                b.iter().copied().fold(f64::MIN, f64::max)
                    < a.iter().copied().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b.iter().copied().fold(f64::MAX, f64::min)
                    > a.iter().copied().fold(f64::MIN, f64::max)
            }
        };
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn untraced_runs(result: &JsonValue) -> Vec<&JsonValue> {
    result
        .get("runs")
        .and_then(JsonValue::as_array)
        .map(|runs| {
            runs.iter()
                .filter(|r| r.get("trace").and_then(JsonValue::as_bool) == Some(false))
                .collect()
        })
        .unwrap_or_default()
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<bool, String> {
    let runs_b = untraced_runs(b);
    let mut passed = true;
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for run_a in untraced_runs(a) {
        let workload = run_a
            .get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let run_b = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
            .ok_or_else(|| format!("{workload} is missing from the second file"))?;
        let metrics_a = run_a
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[]);
        for (name, ma) in metrics_a {
            let Some(bound) = ma.get("bound").and_then(JsonValue::as_f64) else {
                continue; // per-layer metrics are not gated
            };
            let mb = run_b
                .get("metrics")
                .and_then(|m| m.get(name))
                .ok_or_else(|| format!("{workload}: {name} is missing from the second file"))?;
            let better = match ma.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let (xa, xb) = (Measured::read(ma), Measured::read(mb));
            let v = verdict(better, bound, &xa, &xb);
            println!(
                "{workload:<24} {name:<20} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {}",
                xa.value,
                xb.value,
                worse_by(better, xa.value, xb.value) * 100.0,
                bound * 100.0,
                v.as_str()
            );
            passed &= v != Verdict::Worse;
        }
        // Digests and exact counts: informational, they show whether the
        // two commits computed the same answers.
        for (key, va) in run_a
            .get("checks")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            let same = run_b.get("checks").and_then(|c| c.get(key)) == Some(va);
            println!(
                "{workload:<24} check {key}: {}",
                if same { "identical" } else { "differs" }
            );
        }
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [100.0, 101.0, 99.0];
        // Lower is better, 10 % bound.
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&base),
                &Measured::of(&[105.0, 104.0, 106.0])
            ),
            Verdict::Within
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&base),
                &Measured::of(&[115.0, 114.0, 116.0])
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&base),
                &Measured::of(&[85.0, 84.0, 86.0])
            ),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(
                Better::Higher,
                0.1,
                &Measured::of(&base),
                &Measured::of(&[115.0, 114.0, 116.0])
            ),
            Verdict::Better
        );
        assert_eq!(
            verdict(
                Better::Higher,
                0.1,
                &Measured::of(&base),
                &Measured::of(&[85.0, 84.0, 86.0])
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_samples_separate() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&noisy),
                &Measured::of(&[95.0, 105.0, 100.0])
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&noisy),
                &Measured::of(&[140.0, 100.0, 120.0])
            ),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the baseline.
        assert_eq!(
            verdict(
                Better::Lower,
                0.1,
                &Measured::of(&noisy),
                &Measured::of(&[60.0, 70.0, 65.0])
            ),
            Verdict::Better
        );
    }

    #[test]
    fn quality_metrics_are_gated_at_zero() {
        assert_eq!(
            verdict(
                Better::Lower,
                0.0,
                &Measured::of(&[0.0]),
                &Measured::of(&[0.0])
            ),
            Verdict::Within
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.0,
                &Measured::of(&[0.0]),
                &Measured::of(&[0.01])
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                Better::Higher,
                0.0,
                &Measured::of(&[0.25]),
                &Measured::of(&[0.5])
            ),
            Verdict::Better
        );
        assert_eq!(
            verdict(
                Better::Lower,
                0.0,
                &Measured::of(&[37000.0, 37000.0]),
                &Measured::of(&[37000.0, 37000.0])
            ),
            Verdict::Within
        );
    }
}
