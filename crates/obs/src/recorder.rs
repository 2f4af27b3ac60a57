//! The [`Recorder`]: named metric registries plus a structured JSONL
//! event sink, and the process-global install point.
//!
//! Instrumented code is written against the *optional* global recorder:
//!
//! ```
//! // Fetch handles once, outside the hot loop.
//! let nodes = dynp_obs::recorder().map(|r| r.counter("milp.nodes"));
//! for _ in 0..3 {
//!     if let Some(nodes) = &nodes {
//!         nodes.inc();
//!     }
//! }
//! ```
//!
//! When no recorder is installed the cost is a single relaxed atomic load
//! per handle fetch, and the hot loop pays one branch on an `Option` —
//! observability off means effectively free.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A bounded in-memory event buffer: keeps the most recent lines, counts
/// the ones it had to drop.
#[derive(Debug)]
pub struct RingBuffer {
    lines: VecDeque<String>,
    capacity: usize,
    dropped: u64,
}

/// A size-rotating file writer: when the active file would exceed
/// `max_bytes`, it is renamed to `<path>.1` (shifting `<path>.1` →
/// `<path>.2`, …, discarding `<path>.{max_rotated}`) and a fresh active
/// file is opened.
#[derive(Debug)]
pub struct RotatingWriter {
    path: PathBuf,
    max_bytes: u64,
    max_rotated: usize,
    written: u64,
    /// Rotations performed since this sink was created.
    rotations: u64,
    writer: std::io::BufWriter<std::fs::File>,
}

impl RotatingWriter {
    fn rotated_path(path: &Path, i: usize) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(".{i}"));
        PathBuf::from(os)
    }

    fn rotate(&mut self) {
        let _ = self.writer.flush();
        if self.max_rotated == 0 {
            // No history requested: truncate in place.
        } else {
            let _ = std::fs::remove_file(Self::rotated_path(&self.path, self.max_rotated));
            for i in (1..self.max_rotated).rev() {
                let _ = std::fs::rename(
                    Self::rotated_path(&self.path, i),
                    Self::rotated_path(&self.path, i + 1),
                );
            }
            let _ = std::fs::rename(&self.path, Self::rotated_path(&self.path, 1));
        }
        if let Ok(f) = std::fs::File::create(&self.path) {
            self.writer = std::io::BufWriter::new(f);
        }
        self.written = 0;
        self.rotations += 1;
    }

    fn write_line(&mut self, line: &str) {
        let len = line.len() as u64 + 1;
        if self.written > 0 && self.written + len > self.max_bytes {
            self.rotate();
        }
        if writeln!(self.writer, "{line}").is_ok() {
            self.written += len;
        }
    }
}

thread_local! {
    /// Recycled event-line buffers. A bounded ring sink evicts one line
    /// per write once it is full; reusing the evicted allocation for
    /// the next event makes steady-state burst emission malloc-free.
    static LINE_POOL: std::cell::RefCell<Vec<String>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A cleared line buffer — recycled when the pool has one, fresh
/// otherwise.
fn pooled_line() -> String {
    LINE_POOL
        .with(|p| p.borrow_mut().pop())
        .map(|mut s| {
            s.clear();
            s
        })
        .unwrap_or_else(|| String::with_capacity(256))
}

/// Offers an evicted line's allocation back to the pool. Oversized or
/// tiny buffers are dropped instead so one pathological event cannot
/// pin memory or seed useless capacity.
fn recycle_line(mut line: String) {
    if line.capacity() < 64 || line.capacity() > 4096 {
        return;
    }
    LINE_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < 32 {
            line.clear();
            p.push(line);
        }
    });
}

/// Where emitted events go.
#[derive(Debug)]
pub enum Sink {
    /// Discard events (metrics still work).
    Null,
    /// Keep each JSONL line in memory; read back with
    /// [`Recorder::events`].
    Memory(Mutex<Vec<String>>),
    /// Keep the most recent lines in a bounded buffer; older lines are
    /// dropped (and counted) rather than growing memory unboundedly.
    Ring(Mutex<RingBuffer>),
    /// Append to a file, rotating by size so multi-hour runs cannot grow
    /// one `.events.jsonl` unboundedly.
    Rotating(Mutex<RotatingWriter>),
}

impl Sink {
    /// An in-memory sink.
    pub fn memory() -> Sink {
        Sink::Memory(Mutex::new(Vec::new()))
    }

    /// A bounded ring sink keeping the most recent `capacity` lines.
    pub fn ring(capacity: usize) -> Sink {
        Sink::Ring(Mutex::new(RingBuffer {
            lines: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }))
    }

    /// A size-rotating file sink: the active file is truncated now and
    /// rotated to `<path>.1`, `<path>.2`, … whenever it would exceed
    /// `max_bytes`; at most `max_rotated` rotated files are kept (stale
    /// rotations from earlier runs are removed up front).
    pub fn rotating(
        path: impl AsRef<Path>,
        max_bytes: u64,
        max_rotated: usize,
    ) -> std::io::Result<Sink> {
        let path = path.as_ref().to_path_buf();
        let f = std::fs::File::create(&path)?;
        // Stale rotations from a previous (possibly larger) run would
        // otherwise be merged into this run's analysis.
        let mut stale = 1;
        while std::fs::remove_file(RotatingWriter::rotated_path(&path, stale)).is_ok() {
            stale += 1;
        }
        Ok(Sink::Rotating(Mutex::new(RotatingWriter {
            path,
            max_bytes: max_bytes.max(1),
            max_rotated,
            written: 0,
            rotations: 0,
            writer: std::io::BufWriter::new(f),
        })))
    }

    /// Writes one event line. In-memory sinks keep the string itself (no
    /// copy) and return `None`; the others hand it back so the caller
    /// can offer it to the live tail.
    fn write_line(&self, line: String) -> Option<String> {
        match self {
            Sink::Null => Some(line),
            Sink::Memory(buf) => {
                buf.lock().unwrap().push(line);
                None
            }
            Sink::Ring(ring) => {
                let evicted = {
                    let mut ring = ring.lock().unwrap();
                    let evicted = if ring.lines.len() == ring.capacity {
                        ring.dropped += 1;
                        ring.lines.pop_front()
                    } else {
                        None
                    };
                    ring.lines.push_back(line);
                    evicted
                };
                if let Some(e) = evicted {
                    recycle_line(e);
                }
                None
            }
            Sink::Rotating(w) => {
                w.lock().unwrap().write_line(&line);
                Some(line)
            }
        }
    }
}

/// Named metric registries plus an event sink.
///
/// Cheap to share: callers get `Arc` handles to individual metrics and
/// hold them across hot loops; the registry lock is only taken on first
/// lookup of each name.
#[derive(Debug)]
pub struct Recorder {
    counters: RwLock<HashMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<HashMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<HashMap<&'static str, Arc<Histogram>>>,
    sink: Sink,
    epoch: Instant,
    /// Logical clock: each emitted event gets the next value as its
    /// `seq` field, establishing one process-wide total order that
    /// survives interleaving across worker threads and sink rotation.
    seq: AtomicU64,
    /// Capacity of the live-tail side ring (0 = disabled, the default).
    /// The watch server switches it on so `/events` can tail runs whose
    /// primary sink streams to a file.
    tail_capacity: AtomicUsize,
    /// The most recent event lines, kept alongside a null or file sink
    /// while the tail is enabled.
    tail: Mutex<VecDeque<String>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(Sink::Null)
    }
}

impl Recorder {
    /// A recorder emitting events into `sink`.
    pub fn new(sink: Sink) -> Recorder {
        Recorder {
            counters: RwLock::new(HashMap::new()),
            gauges: RwLock::new(HashMap::new()),
            histograms: RwLock::new(HashMap::new()),
            sink,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            tail_capacity: AtomicUsize::new(0),
            tail: Mutex::new(VecDeque::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        lookup(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        lookup(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        lookup(&self.histograms, name)
    }

    /// Seconds elapsed since this recorder was created; the `ts` field
    /// of every event.
    pub fn elapsed_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a structured event for `target` (e.g. `"milp.incumbent"`).
    ///
    /// Besides `ts` and `target`, every event automatically carries a
    /// `seq` logical-clock value and — when a trace context is active on
    /// this thread (see [`crate::context`]) — the correlation fields
    /// `campaign`/`cell` (inside a campaign cell) and `span`/`parent`.
    pub fn event(&self, target: &str) -> EventBuilder<'_> {
        let mut line = pooled_line();
        line.push_str("{\"ts\":");
        // Fixed-point seconds.nanos — integer work instead of the f64
        // `Display` path, whose per-call setup dominated event cost on
        // the serve admission path.
        let elapsed = self.epoch.elapsed();
        crate::json::int_into(&mut line, elapsed.as_secs() as i64);
        line.push('.');
        let mut frac = [b'0'; 9];
        let mut n = elapsed.subsec_nanos();
        let mut i = frac.len();
        while n > 0 {
            i -= 1;
            frac[i] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        line.push_str(std::str::from_utf8(&frac).unwrap_or("000000000"));
        line.push_str(",\"target\":");
        crate::json::escape_into(&mut line, target);
        line.push_str(",\"seq\":");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        crate::json::int_into(&mut line, seq as i64);
        if let Some(ctx) = crate::context::current() {
            if ctx.in_cell {
                line.push_str(",\"campaign\":\"");
                use std::fmt::Write as _;
                let _ = write!(line, "{:016x}", ctx.campaign);
                line.push_str("\",\"cell\":");
                crate::json::int_into(&mut line, ctx.cell as i64);
            }
            line.push_str(",\"span\":");
            crate::json::int_into(&mut line, ctx.span as i64);
            line.push_str(",\"parent\":");
            crate::json::int_into(&mut line, ctx.parent as i64);
        }
        EventBuilder {
            recorder: self,
            line,
        }
    }

    /// All event lines captured so far (memory and ring sinks only;
    /// empty for null and file sinks).
    pub fn events(&self) -> Vec<String> {
        match &self.sink {
            Sink::Memory(buf) => buf.lock().unwrap().clone(),
            Sink::Ring(ring) => ring.lock().unwrap().lines.iter().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// Buffered event lines whose logical clock is at least `since`.
    /// Served from the sink's own buffer for memory and ring sinks;
    /// file-backed (and null) sinks fall back to the live-tail side
    /// ring, which is empty unless [`Recorder::set_event_tail`] was
    /// called. This is the `GET /events?since=<seq>` tail: a poller
    /// passes one past the highest `seq` it has seen and receives only
    /// what is new — lines that rotated out of a bounded buffer between
    /// polls are simply gone, visible as a gap in the `seq`s.
    pub fn events_since(&self, since: u64) -> Vec<String> {
        let keep = |line: &&String| line_seq(line).is_some_and(|seq| seq >= since);
        match &self.sink {
            Sink::Memory(buf) => buf.lock().unwrap().iter().filter(keep).cloned().collect(),
            Sink::Ring(ring) => ring
                .lock()
                .unwrap()
                .lines
                .iter()
                .filter(keep)
                .cloned()
                .collect(),
            _ => self.tail.lock().unwrap().iter().filter(keep).cloned().collect(),
        }
    }

    /// Keeps the most recent `capacity` event lines in an in-memory
    /// side ring so [`Recorder::events_since`] works even when events
    /// stream to a file. The watch server turns this on; capacity 0 (the
    /// default) disables the tail, and emission then pays one relaxed
    /// atomic load for it. Shrinking discards the oldest lines
    /// immediately. Has no effect behind memory and ring sinks: they own
    /// every line they are handed and `events_since` reads them directly,
    /// so nothing is ever offered to the tail.
    pub fn set_event_tail(&self, capacity: usize) {
        self.tail_capacity.store(capacity, Ordering::Relaxed);
        let mut tail = self.tail.lock().unwrap();
        while tail.len() > capacity {
            tail.pop_front();
        }
    }

    /// The next `seq` value the logical clock will hand out (equals the
    /// number of events emitted so far).
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Diagnostics of the event sink itself: its kind plus, where the
    /// sink can lose or rotate data, how much it has (`dropped` for
    /// bounded rings, `rotations` for size-rotating files). Exposed as
    /// gauges by [`crate::expo::render`].
    pub fn sink_stats(&self) -> SinkStats {
        match &self.sink {
            Sink::Null => SinkStats {
                kind: "null",
                dropped: None,
                rotations: None,
            },
            Sink::Memory(_) => SinkStats {
                kind: "memory",
                dropped: None,
                rotations: None,
            },
            Sink::Ring(ring) => SinkStats {
                kind: "ring",
                dropped: Some(ring.lock().unwrap().dropped),
                rotations: None,
            },
            Sink::Rotating(w) => SinkStats {
                kind: "rotating",
                dropped: None,
                rotations: Some(w.lock().unwrap().rotations),
            },
        }
    }

    /// Flushes a buffered rotating sink to disk (no-op otherwise).
    pub fn flush(&self) {
        if let Sink::Rotating(w) = &self.sink {
            let _ = w.lock().unwrap().writer.flush();
        }
    }

    /// All counters as `(name, value)` pairs, sorted by name.
    pub fn counter_snapshots(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, c)| (*name, c.get()))
            .collect();
        v.sort_unstable_by_key(|(name, _)| *name);
        v
    }

    /// All gauges as `(name, last, high_water)` triples, sorted by name.
    pub fn gauge_snapshots(&self) -> Vec<(&'static str, i64, i64)> {
        let mut v: Vec<_> = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(name, g)| (*name, g.get(), g.high_water()))
            .collect();
        v.sort_unstable_by_key(|(name, ..)| *name);
        v
    }

    /// All histograms as `(name, snapshot)` pairs, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let mut v: Vec<_> = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, h)| (*name, h.snapshot()))
            .collect();
        v.sort_unstable_by_key(|(name, _)| *name);
        v
    }

    /// Every registered metric as one JSON object, for embedding in
    /// result files: counters and gauges as numbers, histograms as the
    /// object produced by
    /// [`HistogramSnapshot::to_json`](crate::metrics::HistogramSnapshot::to_json).
    pub fn metrics_json(&self) -> JsonValue {
        let mut counters_json = JsonValue::object();
        for (name, v) in self.counter_snapshots() {
            counters_json.set(name, v);
        }
        let mut gauges_json = JsonValue::object();
        for (name, last, high) in self.gauge_snapshots() {
            gauges_json.set(
                name,
                JsonValue::object()
                    .with("last", last)
                    .with("high_water", high),
            );
        }
        let mut histograms_json = JsonValue::object();
        for (name, snap) in self.histogram_snapshots() {
            histograms_json.set(name, snap.to_json());
        }
        JsonValue::object()
            .with("counters", counters_json)
            .with("gauges", gauges_json)
            .with("histograms", histograms_json)
    }
}

/// Event-sink self-diagnostics; see [`Recorder::sink_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkStats {
    /// Sink variant name (`"null"`, `"memory"`, `"ring"`, `"rotating"`).
    pub kind: &'static str,
    /// Lines a bounded ring discarded (`None` for other sinks).
    pub dropped: Option<u64>,
    /// Rotations a size-rotating file sink performed (`None` for other
    /// sinks).
    pub rotations: Option<u64>,
}

/// Extracts the `seq` field from a stored event line without a full
/// JSON parse — every line the recorder writes carries
/// `,"seq":<digits>` exactly once, right after the envelope fields.
fn line_seq(line: &str) -> Option<u64> {
    let at = line.find("\"seq\":")? + "\"seq\":".len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn lookup<M: Default>(registry: &RwLock<HashMap<&'static str, Arc<M>>>, name: &'static str) -> Arc<M> {
    if let Some(found) = registry.read().unwrap().get(name) {
        return Arc::clone(found);
    }
    Arc::clone(registry.write().unwrap().entry(name).or_default())
}

/// Builds one JSONL event line; [`EventBuilder::emit`] writes it.
#[derive(Debug)]
pub struct EventBuilder<'a> {
    recorder: &'a Recorder,
    line: String,
}

impl EventBuilder<'_> {
    /// Appends a `key: value` pair.
    pub fn kv(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.line.push(',');
        crate::json::escape_into(&mut self.line, key);
        self.line.push(':');
        value.into().write_into(&mut self.line);
        self
    }

    /// Finishes the line and writes it to the sink (and, when enabled,
    /// the recorder's live-tail ring).
    pub fn emit(mut self) {
        self.line.push('}');
        let Some(line) = self.recorder.sink.write_line(self.line) else {
            return;
        };
        let cap = self.recorder.tail_capacity.load(Ordering::Relaxed);
        if cap > 0 {
            let mut tail = self.recorder.tail.lock().unwrap();
            if tail.len() >= cap {
                tail.pop_front();
            }
            tail.push_back(line);
        }
    }
}

static GLOBAL: AtomicPtr<Recorder> = AtomicPtr::new(std::ptr::null_mut());

/// Installs `recorder` as the process-global recorder, returning a
/// `'static` reference to it. Replaces any previous recorder; both are
/// intentionally leaked so handles held by running threads stay valid.
pub fn install(recorder: Recorder) -> &'static Recorder {
    let leaked: &'static Recorder = Box::leak(Box::new(recorder));
    GLOBAL.store(leaked as *const Recorder as *mut Recorder, Ordering::Release);
    leaked
}

/// The installed global recorder, if any. One relaxed-ish atomic load —
/// cheap enough to call at subsystem entry points (not per iteration;
/// fetch metric handles once and reuse them).
pub fn recorder() -> Option<&'static Recorder> {
    let ptr = GLOBAL.load(Ordering::Acquire);
    // SAFETY: the pointer is either null or a Box::leak'd Recorder that
    // is never freed.
    unsafe { ptr.as_ref() }
}

/// A panic-safe finalizer for the global recorder's event sink.
///
/// The global recorder is intentionally leaked, so its buffered sinks
/// are never flushed by `Drop`. Hold one of these for the duration of a
/// campaign or bench run: it flushes the global recorder when dropped —
/// including during unwinding — so a run killed by a panic still leaves
/// a complete event log behind (pairing with checkpoint resume, which
/// needs the log to reflect everything the checkpoint recorded).
#[derive(Debug, Default)]
#[must_use = "the guard flushes on drop; binding it to _ drops immediately"]
pub struct FlushGuard {
    _priv: (),
}

/// Creates a [`FlushGuard`] flushing the global recorder on drop.
pub fn flush_on_drop() -> FlushGuard {
    FlushGuard { _priv: () }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Some(r) = recorder() {
            r.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_shared_handles() {
        let r = Recorder::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn events_are_valid_jsonl() {
        let r = Recorder::new(Sink::memory());
        r.event("test.event")
            .kv("policy", "SJF")
            .kv("n", 3u64)
            .kv("ratio", 0.5)
            .kv("note", "quote \" and \\ back")
            .emit();
        let lines = r.events();
        assert_eq!(lines.len(), 1);
        crate::json::validate(&lines[0]).unwrap();
        assert!(lines[0].contains("\"target\":\"test.event\""));
        assert!(lines[0].contains("\"policy\":\"SJF\""));
        assert!(lines[0].starts_with("{\"ts\":"));
    }

    #[test]
    fn seq_is_a_dense_total_order() {
        let r = Recorder::new(Sink::memory());
        r.event("a").emit();
        r.event("b").emit();
        r.event("c").emit();
        let seqs: Vec<u64> = r
            .events()
            .iter()
            .map(|l| {
                let v = crate::json::parse(l).unwrap();
                v.get("seq").and_then(crate::JsonValue::as_u64).unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_drops() {
        let r = Recorder::new(Sink::ring(3));
        for i in 0..5u64 {
            r.event("tick").kv("i", i).emit();
        }
        let lines = r.events();
        assert_eq!(lines.len(), 3);
        assert_eq!(r.sink_stats().dropped, Some(2));
        // The survivors are the most recent events.
        assert!(lines[0].contains("\"i\":2"));
        assert!(lines[2].contains("\"i\":4"));
    }

    #[test]
    fn rotating_sink_rotates_by_size_and_keeps_every_line() {
        let dir = std::env::temp_dir().join("dynp_obs_rotate_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ev.events.jsonl");
        // Plant a stale rotation that a fresh sink must clean up.
        std::fs::write(RotatingWriter::rotated_path(&path, 1), "stale\n").unwrap();
        let r = Recorder::new(Sink::rotating(&path, 256, 8).unwrap());
        let total = 20u64;
        for i in 0..total {
            r.event("tick").kv("i", i).kv("pad", "xxxxxxxxxxxxxxxx").emit();
        }
        r.flush();
        let mut lines = Vec::new();
        let mut files = vec![path.clone()];
        let mut i = 1;
        loop {
            let p = RotatingWriter::rotated_path(&path, i);
            if !p.exists() {
                break;
            }
            files.push(p);
            i += 1;
        }
        assert!(files.len() > 1, "expected at least one rotation");
        for f in &files {
            for line in std::fs::read_to_string(f).unwrap().lines() {
                crate::json::validate(line).unwrap();
                assert!(std::fs::metadata(f).unwrap().len() <= 256 + 2);
                lines.push(line.to_string());
            }
        }
        assert_eq!(lines.len() as u64, total, "rotation must not lose lines");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotating_sink_with_no_history_truncates_in_place() {
        let dir = std::env::temp_dir().join("dynp_obs_rotate_trunc_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ev.events.jsonl");
        let r = Recorder::new(Sink::rotating(&path, 128, 0).unwrap());
        for _ in 0..50 {
            r.event("tick").kv("pad", "xxxxxxxxxxxxxxxx").emit();
        }
        r.flush();
        assert!(std::fs::metadata(&path).unwrap().len() <= 130);
        assert!(!RotatingWriter::rotated_path(&path, 1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_guard_is_harmless_and_infallible() {
        // With or without a global recorder the guard must drop quietly;
        // exercising the global path is left to integration tests since
        // the recorder is process-wide.
        let guard = flush_on_drop();
        drop(guard);
    }

    #[test]
    fn events_since_tails_by_logical_clock() {
        let r = Recorder::new(Sink::memory());
        for i in 0..5u64 {
            r.event("tick").kv("i", i).emit();
        }
        assert_eq!(r.next_seq(), 5);
        let tail = r.events_since(3);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].contains("\"seq\":3"));
        assert!(tail[1].contains("\"seq\":4"));
        assert!(r.events_since(5).is_empty());
        assert_eq!(r.events_since(0).len(), 5);
        // Ring sinks tail the surviving window.
        let ring = Recorder::new(Sink::ring(2));
        for _ in 0..4 {
            ring.event("tick").emit();
        }
        assert_eq!(ring.events_since(0).len(), 2);
        assert_eq!(ring.events_since(3).len(), 1);
    }

    #[test]
    fn event_tail_serves_file_backed_sinks() {
        // A null sink buffers nothing, so the tail is the only source.
        let r = Recorder::new(Sink::Null);
        r.event("a").emit();
        assert!(r.events_since(0).is_empty(), "tail is off by default");
        r.set_event_tail(2);
        r.event("b").emit();
        r.event("c").emit();
        r.event("d").emit();
        let lines = r.events_since(0);
        assert_eq!(lines.len(), 2, "tail is bounded");
        assert!(lines[0].contains("\"target\":\"c\""));
        assert!(lines[1].contains("\"target\":\"d\""));
        assert_eq!(r.events_since(3).len(), 1, "since filters by seq");
        // Shrinking to zero disables and empties the tail.
        r.set_event_tail(0);
        r.event("e").emit();
        assert!(r.events_since(0).is_empty());
    }

    #[test]
    fn event_tail_is_a_no_op_behind_sinks_that_already_buffer() {
        let emit_three = |r: &Recorder| {
            r.set_event_tail(8);
            for target in ["a", "b", "c"] {
                r.event(target).emit();
            }
        };
        // Ring sink: `events_since` reads the ring, the tail stays empty.
        let ring = Recorder::new(Sink::ring(16));
        emit_three(&ring);
        assert_eq!(ring.events_since(0), ring.events());
        assert_eq!(ring.events().len(), 3);
        assert!(ring.tail.lock().unwrap().is_empty());
        // Rotating file sink: the tail is the only in-memory copy.
        let dir = std::env::temp_dir().join("dynp_obs_tail_rotating_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Recorder::new(Sink::rotating(dir.join("ev.jsonl"), 1 << 20, 1).unwrap());
        emit_three(&rot);
        assert_eq!(rot.events_since(0).len(), 3);
        assert_eq!(rot.tail.lock().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_stats_expose_drops_and_rotations() {
        let ring = Recorder::new(Sink::ring(1));
        ring.event("a").emit();
        ring.event("b").emit();
        let stats = ring.sink_stats();
        assert_eq!(stats.kind, "ring");
        assert_eq!(stats.dropped, Some(1));
        assert_eq!(stats.rotations, None);

        let dir = std::env::temp_dir().join("dynp_obs_sinkstats_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Recorder::new(Sink::rotating(dir.join("ev.jsonl"), 64, 2).unwrap());
        for _ in 0..10 {
            rot.event("tick").kv("pad", "xxxxxxxxxxxxxxxx").emit();
        }
        let stats = rot.sink_stats();
        assert_eq!(stats.kind, "rotating");
        assert!(stats.rotations.unwrap() > 0);
        assert_eq!(Recorder::new(Sink::Null).sink_stats().kind, "null");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_json_is_valid_and_sorted() {
        let r = Recorder::default();
        r.counter("b.count").add(2);
        r.counter("a.count").inc();
        r.gauge("q.depth").set(7);
        r.histogram("lat").record(100);
        let json = r.metrics_json().to_json();
        crate::json::validate(&json).unwrap();
        assert!(json.find("a.count").unwrap() < json.find("b.count").unwrap());
    }
}
