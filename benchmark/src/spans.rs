//! The harness-owned span recorder of the traced pass.
//!
//! Spans wrap the harness's own calls into each layer's public functions
//! (nothing inside the crates is instrumented). They are kept in memory
//! and written out once, at exit. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover, so
//! the self times of all spans under one root add up to the root's
//! duration exactly; the root's own self time is the named residual.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Which rep of the workload run the span belongs to.
    pub run: u32,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// Records spans on one thread. [`Tracer::fork`] hands a sibling to a
/// worker thread and [`Tracer::join`] folds its spans back in.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans recorded from now on belong to rep `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open else { return };
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// An empty tracer on the same clock, for a worker thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            run: self.run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans; its roots stay roots.
    pub fn join(&mut self, child: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// One JSON object per span: name, start, end, parent, run id.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":\"{workload}/{}\"}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self and total time per span name. The self times of everything under
/// a root sum to that root's duration.
pub fn layer_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let total = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

/// Summed duration of the root spans (the traced end-to-end time).
pub fn root_ns(spans: &[SpanRec]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            rec("root", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("b", 50, 90, Some(0)),
            rec("c", 55, 60, Some(2)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 35);
        assert_eq!(t["c"].self_ns, 5);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, root_ns(&spans));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two worker threads' spans overlap under one parent.
        let spans = vec![
            rec("root", 0, 100, None),
            rec("w", 10, 60, Some(0)),
            rec("w", 40, 80, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["w"].count, 2);
        assert_eq!(t["w"].total_ns, 90);
    }

    #[test]
    fn tracer_nests_forks_and_stays_silent_when_off() {
        let mut off = Tracer::new(false);
        let o = off.enter("x");
        assert_eq!(off.span("y", || 7), 7);
        off.exit(o);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(true);
        let root = t.enter("root");
        t.span("leaf", || ());
        let mut worker = t.fork();
        let w = worker.enter("worker");
        worker.span("inner", || ());
        worker.exit(w);
        t.exit(root);
        t.join(worker);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("leaf", Some(0)),
                ("worker", None),
                ("inner", Some(2)),
            ]
        );
    }
}
