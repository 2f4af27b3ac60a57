//! Trace-context propagation: correlating every event with the unit of
//! work that emitted it.
//!
//! A *cell* (one campaign unit: shard × selector × factor) establishes a
//! root context via [`enter_cell`]; nested stages (trace replay, exact
//! solve, B&B search, dynP decision) open child spans via [`span`]. Every
//! event emitted while a context is active — including the `span` close
//! events the guards emit themselves — automatically carries
//! `campaign`/`cell`/`span`/`parent` fields, so an offline analyzer can
//! reassemble the full causal tree from interleaved multi-worker logs.
//!
//! **Span ids are deterministic.** Inside a cell, ids are allocated from
//! a per-cell counter starting at [`cell_span_base`]`(cell)`, and a cell
//! runs on exactly one worker thread, so the id sequence depends only on
//! the work — not on the worker count or scheduling. Replaying the same
//! campaign with 1 or 8 workers produces the same `(campaign, cell,
//! span, parent)` tuples. Spans opened outside any cell draw
//! process-unique ids from a global counter (at [`FREE_SPAN_BASE`] and
//! up) instead; those are stable within a run but not across runs.
//!
//! The context lives in a thread-local stack: guards are cheap, `!Send`,
//! and strictly LIFO by RAII. When no global recorder is installed both
//! guards are inert — they never touch the clock or the thread-local.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::recorder::{recorder, Recorder};

/// The correlation fields stamped on events emitted under a context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Campaign identity (FNV-1a of the campaign fingerprint); only
    /// meaningful when [`TraceContext::in_cell`] is set.
    pub campaign: u64,
    /// Cell index within the campaign's deterministic enumeration; only
    /// meaningful when [`TraceContext::in_cell`] is set.
    pub cell: u64,
    /// This unit's span id.
    pub span: u64,
    /// The enclosing span's id; `0` for a root.
    pub parent: u64,
    /// Whether a campaign cell context is active (spans opened outside
    /// any cell still get ids, but no campaign/cell identity).
    pub in_cell: bool,
}

struct State {
    frames: Vec<TraceContext>,
    /// Next deterministic span id; valid only while a cell is active.
    next_span: u64,
}

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State { frames: Vec::new(), next_span: 0 })
    };
}

/// First span id handed to spans opened *outside* any cell. Cell-local
/// ids live below this (see [`cell_span_base`]), so the two namespaces
/// never collide.
pub const FREE_SPAN_BASE: u64 = 1 << 48;

static FREE_SPAN: AtomicU64 = AtomicU64::new(FREE_SPAN_BASE);

/// First span id of cell `cell`: ids `base..base + 2^32` belong to that
/// cell, deterministically.
pub const fn cell_span_base(cell: u64) -> u64 {
    (cell + 1) << 32
}

/// The innermost active context on this thread, if any.
pub fn current() -> Option<TraceContext> {
    STATE.with(|s| s.borrow().frames.last().copied())
}

/// Opens the root context of campaign cell `cell` and starts timing it.
///
/// The guard itself is the cell's root span (kind `exp.cell`): on drop it
/// records the cell's wall time into the `exp.cell` histogram and emits
/// one `span` close event. Dropping the guard restores whatever context
/// (usually none) was active before.
pub fn enter_cell(campaign: u64, cell: u64) -> CellGuard {
    let Some(r) = recorder() else {
        return CellGuard {
            state: None,
            _not_send: PhantomData,
        };
    };
    let base = cell_span_base(cell);
    let saved_next_span = STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.frames.push(TraceContext {
            campaign,
            cell,
            span: base,
            parent: 0,
            in_cell: true,
        });
        std::mem::replace(&mut s.next_span, base + 1)
    });
    CellGuard {
        state: Some((r, Instant::now(), saved_next_span)),
        _not_send: PhantomData,
    }
}

/// Opens a child span of kind `kind` under the current context (or as a
/// free root span when none is active) and starts timing it.
///
/// On drop the guard records the elapsed time into the histogram named
/// `kind` — so existing span histograms (`sim.run`, `dynp.step`, …) keep
/// their names — and emits one `span` close event carrying `kind`,
/// `dur_ns`, and the correlation fields.
pub fn span(kind: &'static str) -> SpanGuard {
    let Some(r) = recorder() else {
        return SpanGuard {
            state: None,
            _not_send: PhantomData,
        };
    };
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let frame = match s.frames.last().copied() {
            Some(top) if top.in_cell => {
                let id = s.next_span;
                s.next_span += 1;
                TraceContext {
                    campaign: top.campaign,
                    cell: top.cell,
                    span: id,
                    parent: top.span,
                    in_cell: true,
                }
            }
            top => TraceContext {
                campaign: 0,
                cell: 0,
                span: FREE_SPAN.fetch_add(1, Ordering::Relaxed),
                parent: top.map(|t| t.span).unwrap_or(0),
                in_cell: false,
            },
        };
        s.frames.push(frame);
    });
    SpanGuard {
        state: Some((r, kind, Instant::now())),
        _not_send: PhantomData,
    }
}

/// Everything a closing span guard does while its frame is still on
/// the stack: emit the close event (which picks up this span's own id
/// from the thread-local context) and feed the kind-named histogram.
/// One `elapsed()` read feeds both, so the event — the record
/// `dynp-insight fold` rebuilds profiles from — and the histogram agree
/// exactly.
fn close_span(r: &Recorder, kind: &'static str, started: Instant) {
    let dur = started.elapsed();
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    r.event("span").kv("kind", kind).kv("dur_ns", dur_ns).emit();
    r.histogram(kind).record_duration(dur);
}

/// RAII guard of a cell context; see [`enter_cell`].
#[must_use = "a cell context lasts until the guard drops; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct CellGuard {
    state: Option<(&'static Recorder, Instant, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CellGuard {
    fn drop(&mut self) {
        if let Some((r, started, saved_next_span)) = self.state.take() {
            close_span(r, "exp.cell", started);
            STATE.with(|s| {
                let mut s = s.borrow_mut();
                s.frames.pop();
                s.next_span = saved_next_span;
            });
        }
    }
}

/// RAII guard of a traced span; see [`span`].
#[must_use = "a span measures until dropped; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<(&'static Recorder, &'static str, Instant)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((r, kind, started)) = self.state.take() {
            close_span(r, kind, started);
            STATE.with(|s| {
                s.borrow_mut().frames.pop();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::fnv1a64;
    use crate::recorder::{install, Sink};
    use crate::JsonValue;
    use std::sync::{Mutex, MutexGuard};

    // The recorder is process-global; serialize tests that install one.
    static LOCK: Mutex<()> = Mutex::new(());

    fn fresh() -> (&'static Recorder, MutexGuard<'static, ()>) {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        (install(Recorder::new(Sink::memory())), guard)
    }

    fn parsed_events(r: &Recorder) -> Vec<JsonValue> {
        r.events()
            .iter()
            .map(|l| crate::json::parse(l).unwrap())
            .collect()
    }

    fn u(v: &JsonValue, key: &str) -> u64 {
        v.get(key).and_then(JsonValue::as_u64).unwrap()
    }

    #[test]
    fn cell_context_tags_events_and_spans_deterministically() {
        let (r, _guard) = fresh();
        {
            let _cell = enter_cell(fnv1a64(b"fp"), 7);
            r.event("inner.note").kv("k", 1u64).emit();
            {
                let _stage = span("stage.a");
                r.event("deep.note").emit();
            }
            let _stage_b = span("stage.b");
        }
        let events = parsed_events(r);
        assert_eq!(events.len(), 5); // 2 notes + 3 span closes
        let base = cell_span_base(7);
        // Every event carries the cell identity + a span id.
        for e in &events {
            assert_eq!(u(e, "cell"), 7);
            assert_eq!(
                e.get("campaign").and_then(JsonValue::as_str).unwrap(),
                format!("{:016x}", fnv1a64(b"fp"))
            );
        }
        // inner.note sits on the cell root span.
        assert_eq!(u(&events[0], "span"), base);
        assert_eq!(u(&events[0], "parent"), 0);
        // deep.note sits on stage.a, a child of the root.
        assert_eq!(u(&events[1], "span"), base + 1);
        assert_eq!(u(&events[1], "parent"), base);
        // Span closes: stage.a, stage.b (next id), then the cell root.
        assert_eq!(events[2].get("kind").unwrap().as_str(), Some("stage.a"));
        assert_eq!(u(&events[2], "span"), base + 1);
        assert_eq!(events[3].get("kind").unwrap().as_str(), Some("stage.b"));
        assert_eq!(u(&events[3], "span"), base + 2);
        assert_eq!(events[4].get("kind").unwrap().as_str(), Some("exp.cell"));
        assert_eq!(u(&events[4], "span"), base);
        // Span histograms were fed under the kind names.
        assert_eq!(r.histogram("stage.a").snapshot().count, 1);
        assert_eq!(r.histogram("exp.cell").snapshot().count, 1);
    }

    #[test]
    fn span_ids_repeat_exactly_when_a_cell_is_re_entered() {
        let (r, _guard) = fresh();
        let ids = |r: &Recorder, skip: usize| -> Vec<u64> {
            r.events()
                .iter()
                .skip(skip)
                .map(|l| {
                    let v = crate::json::parse(l).unwrap();
                    u(&v, "span")
                })
                .collect()
        };
        {
            let _cell = enter_cell(1, 3);
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        }
        let first = ids(r, 0);
        let n = first.len();
        {
            let _cell = enter_cell(1, 3);
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        }
        let second = ids(r, n);
        assert_eq!(first, second, "re-running a cell must reuse its span ids");
    }

    #[test]
    fn free_spans_outside_cells_carry_no_cell_identity() {
        let (r, _guard) = fresh();
        {
            let _free = span("free.stage");
        }
        let events = parsed_events(r);
        assert_eq!(events.len(), 1);
        assert!(events[0].get("cell").is_none());
        assert!(events[0].get("campaign").is_none());
        assert!(u(&events[0], "span") >= FREE_SPAN_BASE);
        assert_eq!(u(&events[0], "parent"), 0);
    }

    #[test]
    fn guards_are_inert_without_a_recorder() {
        // No install here: whatever recorder another test installed may be
        // live, so only check the no-recorder constructor path compiles
        // and drops cleanly.
        let guard = CellGuard {
            state: None,
            _not_send: PhantomData,
        };
        drop(guard);
        let guard = SpanGuard {
            state: None,
            _not_send: PhantomData,
        };
        drop(guard);
    }
}
