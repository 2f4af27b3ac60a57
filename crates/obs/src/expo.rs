//! OpenMetrics / Prometheus text-format exposition of a [`Recorder`]'s
//! metrics, plus a strict validator used by tests and CI.
//!
//! [`render`] produces one self-contained snapshot suitable for writing
//! alongside a bench or campaign run (`<name>.metrics.txt`) or serving
//! from a `/metrics` endpoint:
//!
//! * every family is prefixed `dynp_` and the dotted metric names are
//!   sanitized (`milp.open_nodes` → `dynp_milp_open_nodes`);
//! * counters expose one `<family>_total` sample;
//! * gauges expose the last value plus a companion
//!   `<family>_highwater` gauge family;
//! * log2 histograms expose cumulative `<family>_bucket{le="…"}`
//!   samples (bucket *i* covers values up to `2^i − 1`, so those are
//!   the `le` bounds), a terminal `le="+Inf"` bucket equal to
//!   `<family>_count`, and `<family>_sum`;
//! * the exposition ends with the mandatory `# EOF` marker.
//!
//! [`validate`] re-parses an exposition and checks the structural rules
//! above (declared types, suffix discipline, cumulative buckets,
//! `+Inf == count`, terminal `# EOF`), so a malformed snapshot fails CI
//! rather than a scrape.

use crate::metrics::HistogramSnapshot;
use crate::recorder::Recorder;
use std::fmt::Write;

/// Sanitizes a dotted metric name into an OpenMetrics family name:
/// `milp.open_nodes` → `dynp_milp_open_nodes`.
pub fn family_name(metric: &str) -> String {
    let mut out = String::with_capacity(metric.len() + 5);
    out.push_str("dynp_");
    for c in metric.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn render_histogram(out: &mut String, family: &str, snap: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {family} histogram");
    // Highest bucket worth printing: everything above the last nonzero
    // bucket is empty, so the cumulative count is already total there.
    let top = snap
        .buckets
        .iter()
        .rposition(|&c| c != 0)
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate().take(top + 1) {
        cumulative += count;
        // Bucket i covers values ≤ 2^i − 1 (bucket 0 is exactly {0}).
        let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
        let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", snap.count);
    let _ = writeln!(out, "{family}_sum {}", snap.sum);
    let _ = writeln!(out, "{family}_count {}", snap.count);
}

/// Renders every metric registered on `recorder` as one OpenMetrics
/// text exposition, ending with `# EOF`.
pub fn render(recorder: &Recorder) -> String {
    render_with(recorder, "")
}

/// Like [`render`], but splices `extra` — additional complete metric
/// families, e.g. the windowed-SLO gauges from
/// [`crate::window::WindowAggregator::openmetrics`] — in front of the
/// terminal `# EOF`. The caller owns the fragment's validity; the
/// combined exposition still has to pass [`validate`].
pub fn render_with(recorder: &Recorder, extra: &str) -> String {
    let mut out = String::with_capacity(1024 + extra.len());
    for (name, value) in recorder.counter_snapshots() {
        let family = family_name(name);
        let _ = writeln!(out, "# TYPE {family} counter");
        let _ = writeln!(out, "{family}_total {value}");
    }
    for (name, last, high) in recorder.gauge_snapshots() {
        let family = family_name(name);
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {last}");
        let _ = writeln!(out, "# TYPE {family}_highwater gauge");
        let _ = writeln!(out, "{family}_highwater {high}");
    }
    // Sink self-diagnostics: a scrape can see event loss (bounded ring)
    // or log rotation without waiting for offline analysis.
    let sink = recorder.sink_stats();
    if let Some(dropped) = sink.dropped {
        let _ = writeln!(out, "# TYPE dynp_obs_events_dropped gauge");
        let _ = writeln!(out, "dynp_obs_events_dropped {dropped}");
    }
    if let Some(rotations) = sink.rotations {
        let _ = writeln!(out, "# TYPE dynp_obs_sink_rotations gauge");
        let _ = writeln!(out, "dynp_obs_sink_rotations {rotations}");
    }
    for (name, snap) in recorder.histogram_snapshots() {
        render_histogram(&mut out, &family_name(name), &snap);
    }
    out.push_str(extra);
    out.push_str("# EOF\n");
    out
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FamilyType {
    Counter,
    Gauge,
    Histogram,
}

struct FamilyState {
    name: String,
    kind: FamilyType,
    samples: u32,
    last_bucket_cumulative: u64,
    bucket_count: u32,
    saw_inf: bool,
    inf_value: Option<u64>,
    count_value: Option<u64>,
}

impl FamilyState {
    fn close(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err(format!("family {} declared but has no samples", self.name));
        }
        if self.kind == FamilyType::Histogram {
            if !self.saw_inf {
                return Err(format!("histogram {} lacks an le=\"+Inf\" bucket", self.name));
            }
            match (self.inf_value, self.count_value) {
                (Some(inf), Some(count)) if inf != count => Err(format!(
                    "histogram {}: +Inf bucket {inf} != count {count}",
                    self.name
                )),
                (_, None) => Err(format!("histogram {} lacks a _count sample", self.name)),
                _ => Ok(()),
            }
        } else {
            Ok(())
        }
    }
}

fn parse_sample(line: &str) -> Result<(&str, Option<&str>, f64), String> {
    // `<name>[{le="bound"}] <value>` — the only label this exposition
    // emits is `le`.
    let (name_part, value_part) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line without value: {line:?}"))?;
    let value: f64 = value_part
        .parse()
        .map_err(|_| format!("unparseable sample value in {line:?}"))?;
    // Rust's f64 parser accepts "NaN"/"inf"; neither is a value this
    // exposition ever renders, so reject rather than propagate.
    if !value.is_finite() {
        return Err(format!("non-finite sample value in {line:?}"));
    }
    if let Some((name, labels)) = name_part.split_once('{') {
        let labels = labels
            .strip_suffix('}')
            .ok_or_else(|| format!("unterminated label set in {line:?}"))?;
        let le = labels
            .strip_prefix("le=\"")
            .and_then(|rest| rest.strip_suffix('"'))
            .ok_or_else(|| format!("only le=\"…\" labels are allowed, got {labels:?}"))?;
        Ok((name, Some(le), value))
    } else {
        Ok((name_part, None, value))
    }
}

/// Validates an OpenMetrics exposition produced by [`render`]:
/// structure, type/suffix discipline, histogram cumulativity and
/// `+Inf == count`, and the terminal `# EOF`.
pub fn validate(exposition: &str) -> Result<(), String> {
    let mut current: Option<FamilyState> = None;
    let mut seen_eof = false;
    for line in exposition.lines() {
        if seen_eof {
            return Err("content after # EOF".into());
        }
        if line == "# EOF" {
            seen_eof = true;
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            if let Some(f) = current.take() {
                f.close()?;
            }
            let (name, kind) = decl
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line: {line:?}"))?;
            let kind = match kind {
                "counter" => FamilyType::Counter,
                "gauge" => FamilyType::Gauge,
                "histogram" => FamilyType::Histogram,
                other => return Err(format!("unknown metric type {other:?}")),
            };
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("invalid family name {name:?}"));
            }
            current = Some(FamilyState {
                name: name.to_string(),
                kind,
                samples: 0,
                last_bucket_cumulative: 0,
                bucket_count: 0,
                saw_inf: false,
                inf_value: None,
                count_value: None,
            });
            continue;
        }
        if line.starts_with('#') {
            // Only TYPE comments are emitted by render().
            return Err(format!("unexpected comment line: {line:?}"));
        }
        let family = current
            .as_mut()
            .ok_or_else(|| format!("sample before any TYPE declaration: {line:?}"))?;
        let (name, le, value) = parse_sample(line)?;
        match family.kind {
            FamilyType::Counter => {
                if name != format!("{}_total", family.name) {
                    return Err(format!(
                        "counter {} sample must be {}_total, got {name}",
                        family.name, family.name
                    ));
                }
                if value < 0.0 {
                    return Err(format!("counter {name} is negative"));
                }
            }
            FamilyType::Gauge => {
                if name != family.name {
                    return Err(format!(
                        "gauge {} sample has wrong name {name}",
                        family.name
                    ));
                }
            }
            FamilyType::Histogram => {
                let suffix = name
                    .strip_prefix(family.name.as_str())
                    .ok_or_else(|| format!("sample {name} outside family {}", family.name))?;
                match suffix {
                    "_bucket" => {
                        let le = le.ok_or_else(|| {
                            format!("histogram bucket without le label: {line:?}")
                        })?;
                        let cumulative = value as u64;
                        if family.bucket_count > 0 && cumulative < family.last_bucket_cumulative {
                            return Err(format!(
                                "histogram {} buckets are not cumulative at le={le}",
                                family.name
                            ));
                        }
                        if family.saw_inf {
                            return Err(format!(
                                "histogram {} has buckets after le=\"+Inf\"",
                                family.name
                            ));
                        }
                        if le == "+Inf" {
                            family.saw_inf = true;
                            family.inf_value = Some(cumulative);
                        } else {
                            le.parse::<u64>().map_err(|_| {
                                format!("histogram {} has non-numeric le={le:?}", family.name)
                            })?;
                        }
                        family.last_bucket_cumulative = cumulative;
                        family.bucket_count += 1;
                    }
                    "_sum" => {}
                    "_count" => family.count_value = Some(value as u64),
                    other => {
                        return Err(format!(
                            "histogram {} has invalid suffix {other:?}",
                            family.name
                        ))
                    }
                }
            }
        }
        family.samples += 1;
    }
    if let Some(f) = current.take() {
        f.close()?;
    }
    if !seen_eof {
        return Err("missing terminal # EOF".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Sink;

    #[test]
    fn render_produces_a_valid_exposition() {
        let r = Recorder::new(Sink::memory());
        r.counter("milp.nodes").add(42);
        r.gauge("milp.open_nodes").set(9);
        r.gauge("milp.open_nodes").set(4);
        r.histogram("milp.node").record(0);
        r.histogram("milp.node").record(5);
        r.histogram("milp.node").record(700);
        let text = render(&r);
        validate(&text).unwrap();
        assert!(text.contains("# TYPE dynp_milp_nodes counter\ndynp_milp_nodes_total 42\n"));
        assert!(text.contains("dynp_milp_open_nodes 4\n"));
        assert!(text.contains("dynp_milp_open_nodes_highwater 9\n"));
        assert!(text.contains("dynp_milp_node_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("dynp_milp_node_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dynp_milp_node_count 3\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn render_with_splices_extra_families_before_eof() {
        let r = Recorder::new(Sink::memory());
        r.counter("serve.jobs").inc();
        let mut agg = crate::window::WindowAggregator::for_slo();
        agg.sample(&r, 0);
        let text = render_with(&r, &agg.openmetrics(0));
        validate(&text).unwrap();
        assert!(text.contains("dynp_serve_jobs_total 1\n"), "{text}");
        assert!(text.contains("dynp_window_serve_jobs_delta_1m 1\n"), "{text}");
        assert!(text.ends_with("# EOF\n"));
        // An empty fragment degenerates to render().
        assert_eq!(render_with(&r, ""), render(&r));
    }

    #[test]
    fn empty_recorder_renders_just_eof() {
        let r = Recorder::new(Sink::memory());
        let text = render(&r);
        assert_eq!(text, "# EOF\n");
        validate(&text).unwrap();
    }

    #[test]
    fn bucket_bounds_follow_the_log2_layout() {
        let r = Recorder::new(Sink::memory());
        // 5 lands in bucket 3 ([4, 8)), whose inclusive bound is 7.
        r.histogram("lat").record(5);
        let text = render(&r);
        assert!(text.contains("dynp_lat_bucket{le=\"7\"} 1\n"), "{text}");
        validate(&text).unwrap();
    }

    #[test]
    fn validator_rejects_structural_violations() {
        for (bad, why) in [
            ("dynp_x_total 1\n# EOF\n", "sample before TYPE"),
            ("# TYPE dynp_x counter\ndynp_x 1\n# EOF\n", "counter without _total"),
            ("# TYPE dynp_x counter\ndynp_x_total 1\n", "missing EOF"),
            ("# TYPE dynp_x counter\n# EOF\n", "family with no samples"),
            ("# TYPE dynp_x gauge\ndynp_x 1\n# EOF\nmore\n", "content after EOF"),
            ("# TYPE dynp_x weird\ndynp_x 1\n# EOF\n", "unknown type"),
            (
                "# TYPE dynp_h histogram\ndynp_h_bucket{le=\"1\"} 2\ndynp_h_bucket{le=\"3\"} 1\ndynp_h_bucket{le=\"+Inf\"} 2\ndynp_h_sum 2\ndynp_h_count 2\n# EOF\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE dynp_h histogram\ndynp_h_bucket{le=\"+Inf\"} 3\ndynp_h_sum 2\ndynp_h_count 2\n# EOF\n",
                "+Inf != count",
            ),
            (
                "# TYPE dynp_h histogram\ndynp_h_sum 2\ndynp_h_count 2\n# EOF\n",
                "histogram without +Inf",
            ),
        ] {
            assert!(validate(bad).is_err(), "expected rejection: {why}");
        }
    }

    #[test]
    fn validator_rejects_non_finite_values() {
        // f64::parse happily accepts all of these spellings, so the
        // validator must catch them itself.
        for value in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("# TYPE dynp_x gauge\ndynp_x {value}\n# EOF\n");
            let err = validate(&text).unwrap_err();
            assert!(err.contains("non-finite"), "{value}: {err}");
        }
        // Plain finite floats stay fine.
        validate("# TYPE dynp_x gauge\ndynp_x -1.5e3\n# EOF\n").unwrap();
    }

    #[test]
    fn validator_rejects_label_escaping_games() {
        for (labels, why) in [
            (r#"le="a\"b""#, "escaped quote inside le"),
            (r#"le="1",x="2""#, "second label"),
            (r#"foo="1""#, "non-le label"),
            (r#"le='1'"#, "single quotes"),
            (r#"le="1"#, "unterminated quote"),
        ] {
            let text = format!(
                "# TYPE dynp_h histogram\ndynp_h_bucket{{{labels}}} 1\ndynp_h_bucket{{le=\"+Inf\"}} 1\ndynp_h_sum 1\ndynp_h_count 1\n# EOF\n"
            );
            assert!(validate(&text).is_err(), "expected rejection: {why}");
        }
    }

    #[test]
    fn validator_rejects_empty_family_names() {
        assert!(validate("# TYPE  counter\n_total 1\n# EOF\n").is_err());
        assert!(validate("# TYPE bad-name counter\nbad-name_total 1\n# EOF\n").is_err());
    }

    #[test]
    fn ring_drop_and_rotation_gauges_are_exposed() {
        let ring = Recorder::new(Sink::ring(1));
        ring.event("a").emit();
        ring.event("b").emit();
        ring.event("c").emit();
        let text = render(&ring);
        validate(&text).unwrap();
        assert!(text.contains("# TYPE dynp_obs_events_dropped gauge\ndynp_obs_events_dropped 2\n"));
        assert!(!text.contains("dynp_obs_sink_rotations"));

        let dir = std::env::temp_dir().join("dynp_obs_expo_rotations_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Recorder::new(Sink::rotating(dir.join("ev.jsonl"), 64, 2).unwrap());
        for _ in 0..10 {
            rot.event("tick").kv("pad", "xxxxxxxxxxxxxxxx").emit();
        }
        let text = render(&rot);
        validate(&text).unwrap();
        assert!(text.contains("# TYPE dynp_obs_sink_rotations gauge"), "{text}");
        assert!(!text.contains("dynp_obs_events_dropped"));

        // Memory sinks expose neither — they cannot lose lines.
        let text = render(&Recorder::new(Sink::memory()));
        assert!(!text.contains("dynp_obs_"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_name_sanitizes() {
        assert_eq!(family_name("milp.open_nodes"), "dynp_milp_open_nodes");
        assert_eq!(family_name("a-b c"), "dynp_a_b_c");
    }
}
