//! Sliding-window aggregation over cumulative metrics: last-1m/5m/15m
//! quantiles and rates from periodic snapshots of the live log2
//! histograms and counters.
//!
//! The recorder's metrics are cumulative — perfect for offline reports,
//! useless for "what is admission p99 over the last minute?". A
//! [`WindowAggregator`] closes that gap without touching the hot path:
//! a sampling loop (the watch alert tick, the serve decision loop)
//! periodically feeds it cumulative snapshots, and the aggregator
//! differences consecutive samples into a ring of per-slot delta
//! histograms. A window query then merges the slots covering the last
//! `N` seconds — the existing [`HistogramSnapshot`] merge/quantile
//! machinery does the rest.
//!
//! Determinism: the aggregator never reads a clock. Every observation
//! carries an explicit `now_secs` timestamp supplied by the caller, so
//! windowed stats are a pure function of the (samples, timestamps)
//! sequence. Wall-clock-stamped outputs stay segregated from the
//! logical-clock scheduling artifacts (job timelines, decision bodies),
//! which never flow through this module.
//!
//! The first sample of a series primes the baseline *and* attributes
//! everything recorded before it to the current slot — create the
//! aggregator alongside the recorder it samples so the first slot is
//! not a history dump.

use crate::json::JsonValue;
use crate::metrics::HistogramSnapshot;
use crate::recorder::Recorder;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// A reporting window: label + width in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Short label used in JSON keys and OpenMetrics family suffixes.
    pub label: &'static str,
    /// Window width in seconds.
    pub secs: u64,
}

/// The standard SLO windows: last minute, last 5 minutes, last 15
/// minutes.
pub const WINDOWS: [Window; 3] = [
    Window { label: "1m", secs: 60 },
    Window { label: "5m", secs: 300 },
    Window { label: "15m", secs: 900 },
];

#[derive(Debug, Default)]
struct HistSeries {
    /// Cumulative snapshot at the previous sample (the delta baseline).
    prev: Option<HistogramSnapshot>,
    /// Ring of `(slot epoch, delta recorded during that slot)`.
    slots: VecDeque<(u64, HistogramSnapshot)>,
}

#[derive(Debug, Default)]
struct CounterSeries {
    prev: u64,
    primed: bool,
    slots: VecDeque<(u64, u64)>,
}

/// Ring-of-histograms windowed aggregator over cumulative snapshots.
#[derive(Debug)]
pub struct WindowAggregator {
    slot_secs: u64,
    keep_slots: usize,
    hists: BTreeMap<String, HistSeries>,
    counters: BTreeMap<String, CounterSeries>,
}

impl WindowAggregator {
    /// An aggregator with `keep_slots` ring slots of `slot_secs` each.
    /// The ring must cover the widest window you intend to query
    /// (`keep_slots * slot_secs >= window secs`).
    pub fn new(slot_secs: u64, keep_slots: usize) -> WindowAggregator {
        WindowAggregator {
            slot_secs: slot_secs.max(1),
            keep_slots: keep_slots.max(1),
            hists: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// The default SLO configuration: 10-second slots, enough of them
    /// to cover the widest standard window ([`WINDOWS`]) plus the slot
    /// currently filling.
    pub fn for_slo() -> WindowAggregator {
        let widest = WINDOWS.iter().map(|w| w.secs).max().unwrap_or(900);
        WindowAggregator::new(10, (widest / 10) as usize + 1)
    }

    /// Slot width in seconds.
    pub fn slot_secs(&self) -> u64 {
        self.slot_secs
    }

    fn epoch(&self, now_secs: u64) -> u64 {
        now_secs / self.slot_secs
    }

    /// Feeds one cumulative histogram snapshot taken at `now_secs`. The
    /// difference against the previous sample lands in the slot
    /// containing `now_secs`.
    pub fn observe_histogram(&mut self, name: &str, cumulative: &HistogramSnapshot, now_secs: u64) {
        let epoch = self.epoch(now_secs);
        let keep = self.keep_slots as u64;
        // `entry` wants an owned key; only a new series pays for one.
        let series = match self.hists.get_mut(name) {
            Some(series) => series,
            None => self.hists.entry(name.to_string()).or_default(),
        };
        let delta = match &series.prev {
            Some(prev) => cumulative.delta_since(prev),
            None => cumulative.clone(),
        };
        series.prev = Some(cumulative.clone());
        if delta.count > 0 {
            match series.slots.back_mut() {
                Some((e, slot)) if *e == epoch => slot.merge(&delta),
                _ => series.slots.push_back((epoch, delta)),
            }
        }
        while series
            .slots
            .front()
            .is_some_and(|(e, _)| e.saturating_add(keep) <= epoch)
        {
            series.slots.pop_front();
        }
    }

    /// Feeds one cumulative counter total taken at `now_secs`.
    pub fn observe_counter(&mut self, name: &str, total: u64, now_secs: u64) {
        let epoch = self.epoch(now_secs);
        let keep = self.keep_slots as u64;
        let series = match self.counters.get_mut(name) {
            Some(series) => series,
            None => self.counters.entry(name.to_string()).or_default(),
        };
        let delta = if series.primed {
            total.saturating_sub(series.prev)
        } else {
            total
        };
        series.prev = total;
        series.primed = true;
        if delta > 0 {
            match series.slots.back_mut() {
                Some((e, n)) if *e == epoch => *n += delta,
                _ => series.slots.push_back((epoch, delta)),
            }
        }
        while series
            .slots
            .front()
            .is_some_and(|(e, _)| e.saturating_add(keep) <= epoch)
        {
            series.slots.pop_front();
        }
    }

    /// Samples every counter and histogram registered on `recorder` at
    /// `now_secs` — the convenience form the watch alert loop uses.
    pub fn sample(&mut self, recorder: &Recorder, now_secs: u64) {
        for (name, total) in recorder.counter_snapshots() {
            self.observe_counter(name, total, now_secs);
        }
        for (name, snap) in recorder.histogram_snapshots() {
            self.observe_histogram(name, &snap, now_secs);
        }
    }

    /// Slots (inclusive of the one currently filling) that a window of
    /// `secs` covers.
    fn window_slots(&self, secs: u64) -> u64 {
        (secs / self.slot_secs).max(1)
    }

    /// Merged delta histogram over the last `secs` seconds as of
    /// `now_secs`; `None` for a series never observed.
    pub fn histogram_window(
        &self,
        name: &str,
        secs: u64,
        now_secs: u64,
    ) -> Option<HistogramSnapshot> {
        let series = self.hists.get(name)?;
        let epoch = self.epoch(now_secs);
        let oldest = epoch.saturating_sub(self.window_slots(secs) - 1);
        let mut merged = HistogramSnapshot {
            buckets: [0; crate::metrics::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        for (e, slot) in &series.slots {
            if (oldest..=epoch).contains(e) {
                merged.merge(slot);
            }
        }
        Some(merged)
    }

    /// Counter increments over the last `secs` seconds as of
    /// `now_secs`; `None` for a series never observed.
    pub fn counter_window(&self, name: &str, secs: u64, now_secs: u64) -> Option<u64> {
        let series = self.counters.get(name)?;
        let epoch = self.epoch(now_secs);
        let oldest = epoch.saturating_sub(self.window_slots(secs) - 1);
        Some(
            series
                .slots
                .iter()
                .filter(|(e, _)| (oldest..=epoch).contains(e))
                .map(|(_, n)| n)
                .sum(),
        )
    }

    /// The full windowed view as strict JSON: every series × every
    /// standard window, with RED-style rate/count/quantiles. Threshold
    /// quantiles resolve to bucket *upper* bounds (see
    /// [`HistogramSnapshot::quantile_upper`]).
    pub fn to_json(&self, now_secs: u64) -> JsonValue {
        let mut windows = JsonValue::array();
        for w in WINDOWS {
            let mut hists = JsonValue::array();
            for name in self.hists.keys() {
                let snap = self
                    .histogram_window(name, w.secs, now_secs)
                    .expect("series exists");
                hists.push(
                    JsonValue::object()
                        .with("name", name.as_str())
                        .with("count", snap.count)
                        .with("sum", snap.sum)
                        .with("rate_per_sec", snap.count as f64 / w.secs as f64)
                        .with("p50", snap.quantile_upper(0.5))
                        .with("p95", snap.quantile_upper(0.95))
                        .with("p99", snap.quantile_upper(0.99)),
                );
            }
            let mut counters = JsonValue::array();
            for name in self.counters.keys() {
                let delta = self
                    .counter_window(name, w.secs, now_secs)
                    .expect("series exists");
                counters.push(
                    JsonValue::object()
                        .with("name", name.as_str())
                        .with("delta", delta)
                        .with("rate_per_sec", delta as f64 / w.secs as f64),
                );
            }
            windows.push(
                JsonValue::object()
                    .with("window", w.label)
                    .with("secs", w.secs)
                    .with("histograms", hists)
                    .with("counters", counters),
            );
        }
        JsonValue::object()
            .with("slot_secs", self.slot_secs)
            .with("now_secs", now_secs)
            .with("windows", windows)
    }

    /// OpenMetrics gauge families for every series × window, suitable
    /// for [`crate::expo::render_with`]: `dynp_window_<name>_p99_1m`
    /// etc. Empty windows render 0 so scrapes see a stable family set.
    pub fn openmetrics(&self, now_secs: u64) -> String {
        let mut out = String::new();
        for name in self.hists.keys() {
            let base = crate::expo::family_name(&format!("window.{name}"));
            for w in WINDOWS {
                let snap = self
                    .histogram_window(name, w.secs, now_secs)
                    .expect("series exists");
                for (suffix, value) in [
                    ("count", snap.count),
                    ("p50", snap.quantile_upper(0.5).unwrap_or(0)),
                    ("p95", snap.quantile_upper(0.95).unwrap_or(0)),
                    ("p99", snap.quantile_upper(0.99).unwrap_or(0)),
                ] {
                    let family = format!("{base}_{suffix}_{}", w.label);
                    let _ = writeln!(out, "# TYPE {family} gauge");
                    let _ = writeln!(out, "{family} {value}");
                }
            }
        }
        for name in self.counters.keys() {
            let base = crate::expo::family_name(&format!("window.{name}"));
            for w in WINDOWS {
                let delta = self
                    .counter_window(name, w.secs, now_secs)
                    .expect("series exists");
                let family = format!("{base}_delta_{}", w.label);
                let _ = writeln!(out, "# TYPE {family} gauge");
                let _ = writeln!(out, "{family} {delta}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::recorder::Sink;

    #[test]
    fn deltas_land_in_slots_and_windows_merge() {
        let mut agg = WindowAggregator::new(10, 91);
        let h = Histogram::new();
        h.record(100);
        agg.observe_histogram("lat", &h.snapshot(), 5);
        h.record(3000);
        agg.observe_histogram("lat", &h.snapshot(), 65);
        // Last minute as of t=65 covers slots for epochs 1..=6: only the
        // second sample's delta (one value, ~3000).
        let w = agg.histogram_window("lat", 60, 65).unwrap();
        assert_eq!(w.count, 1);
        assert!(w.quantile_upper(0.99).unwrap() >= 3000);
        // 5 minutes covers both.
        assert_eq!(agg.histogram_window("lat", 300, 65).unwrap().count, 2);
        // Unknown series: None; known-but-idle window: empty snapshot.
        assert!(agg.histogram_window("nope", 60, 65).is_none());
        assert_eq!(agg.histogram_window("lat", 60, 2000).unwrap().count, 0);
    }

    #[test]
    fn same_slot_samples_merge_and_old_slots_trim() {
        let mut agg = WindowAggregator::new(10, 3);
        let h = Histogram::new();
        h.record(1);
        agg.observe_histogram("lat", &h.snapshot(), 11);
        h.record(2);
        agg.observe_histogram("lat", &h.snapshot(), 13);
        assert_eq!(agg.histogram_window("lat", 10, 13).unwrap().count, 2);
        // 3-slot ring: by epoch 4 the epoch-1 slot is evicted.
        agg.observe_histogram("lat", &h.snapshot(), 45);
        assert_eq!(agg.histogram_window("lat", 300, 45).unwrap().count, 0);
    }

    #[test]
    fn counters_window_and_rate() {
        let mut agg = WindowAggregator::new(10, 91);
        agg.observe_counter("jobs", 5, 5);
        agg.observe_counter("jobs", 12, 65);
        assert_eq!(agg.counter_window("jobs", 60, 65), Some(7));
        assert_eq!(agg.counter_window("jobs", 300, 65), Some(12));
        assert_eq!(agg.counter_window("nope", 60, 65), None);
        // A counter that never moves contributes no slots.
        agg.observe_counter("idle", 0, 65);
        assert_eq!(agg.counter_window("idle", 300, 65), Some(0));
    }

    #[test]
    fn non_monotonic_samples_saturate_to_empty() {
        let mut agg = WindowAggregator::new(10, 91);
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        agg.observe_histogram("lat", &h.snapshot(), 5);
        // A fresh histogram under the same name (restart) must not panic
        // or go negative — the delta saturates to empty.
        let fresh = Histogram::new();
        fresh.record(30);
        agg.observe_histogram("lat", &fresh.snapshot(), 15);
        let w = agg.histogram_window("lat", 10, 15).unwrap();
        assert_eq!(w.count, 0);
    }

    #[test]
    fn sample_covers_the_whole_recorder() {
        let r = crate::recorder::Recorder::new(Sink::memory());
        r.counter("serve.jobs").add(3);
        r.histogram("serve.admit_latency").record(1_000);
        let mut agg = WindowAggregator::for_slo();
        agg.sample(&r, 0);
        assert_eq!(agg.counter_window("serve.jobs", 60, 0), Some(3));
        let admit = agg.histogram_window("serve.admit_latency", 60, 0).unwrap();
        assert_eq!(admit.count, 1);
    }

    #[test]
    fn json_view_is_strict_and_windowed() {
        let mut agg = WindowAggregator::for_slo();
        let h = Histogram::new();
        h.record(500);
        agg.observe_histogram("serve.admit_latency", &h.snapshot(), 30);
        agg.observe_counter("serve.jobs", 9, 30);
        let view = agg.to_json(30);
        crate::json::validate(&view.to_json()).unwrap();
        let text = view.to_json();
        assert!(text.contains("\"window\":\"1m\""), "{text}");
        assert!(text.contains("\"window\":\"15m\""), "{text}");
        assert!(text.contains("\"serve.admit_latency\""), "{text}");
    }

    #[test]
    fn openmetrics_fragment_validates_inside_a_render() {
        let mut agg = WindowAggregator::for_slo();
        let h = Histogram::new();
        h.record(500);
        agg.observe_histogram("serve.admit_latency", &h.snapshot(), 30);
        agg.observe_counter("serve.jobs", 9, 30);
        let fragment = agg.openmetrics(30);
        assert!(
            fragment.contains("# TYPE dynp_window_serve_admit_latency_p99_1m gauge"),
            "{fragment}"
        );
        assert!(fragment.contains("dynp_window_serve_jobs_delta_5m 9"), "{fragment}");
        let full = format!("{fragment}# EOF\n");
        crate::expo::validate(&full).unwrap();
    }
}
