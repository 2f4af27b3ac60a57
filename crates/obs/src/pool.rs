//! The workspace's one worker pool: a fixed number of scoped threads
//! with dynamic (self-scheduling) item pickup, results in input order,
//! per-item panic isolation and cancel-token propagation.
//!
//! Both fan-outs in the workspace — campaign cells (`dynp-exp`) and the
//! node LPs of one branch & bound round (`dynp-milp`) — map a function
//! over a slice whose items have very different costs (an
//! exact-comparison cell can be orders of magnitude slower than a plain
//! replay cell), so the pool hands out items one at a time from a shared
//! atomic cursor rather than in fixed chunks. Everything that *orders*
//! the caller's work happens on the calling thread; the pool guarantees
//! only ordering and isolation, not purity of `f`.
//!
//! It lives in `dynp-obs`, next to [`crate::cancel`], because its two
//! non-trivial duties are about obs state:
//!
//! * **Panics do not abort the pool.** Each `f(i, item)` call runs under
//!   [`call_caught`]: a panicking item yields [`SlotOutcome::Panicked`]
//!   with the rendered payload and the `file:line` panic site, and every
//!   other item — including ones later in the same worker's pickup
//!   sequence — completes normally. Without this, one `unwrap` deep in a
//!   solver would unwind through `thread::scope` and re-raise on the
//!   caller, losing a whole campaign to one bad cell.
//! * **Cancel propagation.** Installed cancel tokens are thread-local,
//!   so the caller's tokens (a campaign cell's wall-clock deadline) are
//!   captured with [`installed_cancels`] and re-installed on every
//!   worker; work running on workers keeps polling the same deadlines it
//!   would have polled inline.
//!
//! With `workers <= 1` (or one item) everything runs inline on the
//! calling thread — no threads, no channel — with the same isolation.

use crate::cancel::{install_cancel, installed_cancels};
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};

/// What happened to one input slot of [`run_indexed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotOutcome<R> {
    /// `f` returned normally.
    Done(R),
    /// `f` panicked; the slot carries the caught panic instead of a
    /// result.
    Panicked(CaughtPanic),
}

/// A panic caught by [`call_caught`], rendered to plain data.
///
/// Both fields are deterministic for a deterministic panic (same
/// message, same source location), which is what lets crashed campaign
/// cells checkpoint and resume byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The panic payload, stringified (`&str`/`String` payloads pass
    /// through verbatim; anything else becomes a placeholder).
    pub payload: String,
    /// The `file:line` of the panic site, as reported by the panic
    /// hook — a deterministic hint in lieu of a full (address-randomized,
    /// non-reproducible) backtrace.
    pub location: String,
}

thread_local! {
    /// Depth of active [`call_caught`] scopes on this thread; the panic
    /// hook only intercepts when it is non-zero.
    static CAUGHT_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Panic site recorded by the hook for the innermost caught panic.
    static CAUGHT_SITE: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Installs the process-global panic hook (once) that records the panic
/// site for caught scopes and stays out of the way — delegating to the
/// previously installed hook, default stderr report included — for
/// every other panic in the process.
fn ensure_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAUGHT_DEPTH.with(Cell::get) > 0 {
                let site = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()));
                CAUGHT_SITE.with(|s| *s.borrow_mut() = site);
            } else {
                previous(info);
            }
        }));
    });
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        }
    }
}

/// Runs `f`, converting a panic into `Err(CaughtPanic)` instead of
/// unwinding further. The campaign retry loop uses this directly (one
/// catch per attempt); [`run_indexed`] wraps every item in it.
///
/// While a caught scope is active the panic hook records the panic site
/// silently instead of printing the default report — an isolated cell
/// failure is *data*, not console noise. Panics on threads without an
/// active scope keep the default behavior.
pub fn call_caught<R>(f: impl FnOnce() -> R) -> Result<R, CaughtPanic> {
    ensure_hook();
    CAUGHT_DEPTH.with(|c| c.set(c.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CAUGHT_DEPTH.with(|c| c.set(c.get() - 1));
    result.map_err(|payload| CaughtPanic {
        payload: payload_string(payload.as_ref()),
        location: CAUGHT_SITE
            .with(|s| s.borrow_mut().take())
            .unwrap_or_else(|| "unknown".to_string()),
    })
}

/// Maps `f` over `items` on `workers` threads, returning one
/// [`SlotOutcome`] per item in input order. `f` receives
/// `(index, &item)`. With `workers <= 1` (or one item) the map runs
/// inline on the caller's thread with no thread overhead; panic
/// isolation applies on both paths.
pub fn run_indexed<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<SlotOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| caught_outcome(|| f(i, t)))
            .collect();
    }
    let cancels = installed_cancels();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SlotOutcome<R>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cancels = &cancels;
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                // Re-install the caller's tokens so worker-side loops poll
                // the same budgets they would have polled inline.
                let _cancel_guards: Vec<_> = cancels.iter().map(install_cancel).collect();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        return;
                    };
                    // A closed channel means the collector is gone, which
                    // cannot happen inside this scope; ignore the error to
                    // avoid a panic path in workers.
                    let _ = tx.send((i, caught_outcome(|| f(i, item))));
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<SlotOutcome<R>>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Every index is sent exactly once even when `f` panics (the
        // catch is inside the send), so an empty slot can only mean a
        // worker died outside the caught region — report it as a slot
        // failure instead of asserting.
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    SlotOutcome::Panicked(CaughtPanic {
                        payload: "worker thread died without reporting a result".to_string(),
                        location: "dynp-obs::pool".to_string(),
                    })
                })
            })
            .collect()
    })
}

fn caught_outcome<R>(f: impl FnOnce() -> R) -> SlotOutcome<R> {
    match call_caught(f) {
        Ok(r) => SlotOutcome::Done(r),
        Err(p) => SlotOutcome::Panicked(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done<R>(outcomes: Vec<SlotOutcome<R>>) -> Vec<R> {
        outcomes
            .into_iter()
            .map(|o| match o {
                SlotOutcome::Done(r) => r,
                SlotOutcome::Panicked(p) => panic!("slot panicked: {p:?}"),
            })
            .collect()
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let out = done(run_indexed(workers, &items, |i, &x| (i as u64) * 1000 + x * 2));
            let expect: Vec<u64> = (0..100).map(|i| i * 1000 + i * 2).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<SlotOutcome<u32>> = run_indexed(4, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_degrades_to_inline() {
        let out = done(run_indexed(0, &[1u32, 2, 3], |_, &x| x + 1));
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = done(run_indexed(64, &[5u32], |_, &x| x));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn a_panicking_item_is_isolated_from_the_rest() {
        let items: Vec<u32> = (0..20).collect();
        for workers in [1, 3] {
            let out = run_indexed(workers, &items, |_, &x| {
                assert!(x != 7, "injected failure at item 7");
                x * 10
            });
            assert_eq!(out.len(), 20, "workers={workers}");
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    SlotOutcome::Done(v) => {
                        assert_ne!(i, 7);
                        assert_eq!(*v, (i as u32) * 10);
                    }
                    SlotOutcome::Panicked(p) => {
                        assert_eq!(i, 7);
                        assert!(p.payload.contains("injected failure at item 7"), "{p:?}");
                        assert!(p.location.contains("pool.rs"), "{p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn inline_path_matches_threaded_path() {
        let items: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        let run = |workers| done(run_indexed(workers, &items, |i, &item| item + i as u64));
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn callers_cancel_token_is_observed_on_every_worker() {
        let token = crate::CancelToken::new();
        token.cancel();
        let _guard = install_cancel(&token);
        // One item per worker and a barrier none can pass alone: each of
        // the three items is held by a different worker thread.
        let barrier = std::sync::Barrier::new(3);
        let out = done(run_indexed(3, &[(); 3], |_, _| {
            barrier.wait();
            (crate::cancelled(), std::thread::current().id())
        }));
        let caller = std::thread::current().id();
        for (i, (cancelled, thread)) in out.iter().enumerate() {
            assert!(cancelled, "item {i}'s worker missed the caller's token");
            assert_ne!(*thread, caller, "item {i} ran inline");
            let shared = out[..i].iter().any(|(_, t)| t == thread);
            assert!(!shared, "item {i} shared a worker");
        }
    }

    #[test]
    fn call_caught_passes_results_and_renders_payloads() {
        assert_eq!(call_caught(|| 41 + 1), Ok(42));
        let err = call_caught(|| panic!("boom {}", 3)).unwrap_err();
        assert_eq!(err.payload, "boom 3");
        assert!(err.location.contains("pool.rs"), "{}", err.location);
    }

    #[test]
    fn caught_panic_is_deterministic_across_attempts() {
        fn boom() -> u32 {
            panic!("same message")
        }
        let first = call_caught(boom).unwrap_err();
        let second = call_caught(boom).unwrap_err();
        assert_eq!(first, second);
    }
}
