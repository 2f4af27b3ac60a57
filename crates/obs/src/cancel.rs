//! Cooperative cancellation: a shared token with an optional wall-clock
//! deadline, consulted from long-running loops.
//!
//! The campaign runner gives every cell a wall-clock budget
//! (`CampaignConfig::cell_deadline`) — the analogue of the paper's
//! observation that exact (CPLEX) solves are *unpredictable*: a cell
//! that should take seconds can run for hours. Killing the thread is
//! not an option (no safe preemption in Rust, and the worker holds
//! checkpoint state), so the budget is enforced cooperatively: the
//! worker installs a [`CancelToken`] for the duration of the cell, and
//! the three unbounded loops down the stack — the milp branch-and-bound
//! node loop, the simplex iteration loop, and the sim replay loop — poll
//! [`cancelled`] and wind down early when the deadline has passed. An
//! exact solve's own `time_limit` is the same thing one level down: a
//! deadline token the branch & bound installs for its duration. Budgets
//! nest, so [`cancelled`] answers for *every* token installed on the
//! thread — an inner, later deadline never shadows the outer one.
//!
//! This module lives in `dynp-obs` for the same reason the trace
//! context does: it is the one zero-dependency crate every layer
//! already links, so the token can cross the exp → sim → milp stack
//! without new edges. Like the context, the installed token is
//! **thread-local** — a campaign cell runs entirely on one worker
//! thread, so installing at the cell boundary covers everything the
//! cell calls.
//!
//! Cost model: [`cancelled`] with no token installed is one
//! thread-local read (the common case for library users, and the state
//! every `benchmark/` workload runs in); each installed token adds one atomic
//! load, plus one `Instant::now()` while an un-expired deadline is still
//! being watched. Once tripped, the flag is latched and later checks
//! are atomic-load cheap. Hot loops amortize further by polling every
//! N iterations.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    /// Latched once cancelled — by [`CancelToken::cancel`] or by the
    /// deadline check — so repeat polls never re-read the clock.
    cancelled: AtomicBool,
    /// Absolute wall-clock cutoff, if this token carries a budget.
    deadline: Option<Instant>,
}

/// A cloneable cancellation token; all clones share one flag.
///
/// Create one with [`CancelToken::new`] (manual cancellation only) or
/// [`CancelToken::with_deadline`] (auto-cancels once the wall-clock
/// budget elapses), keep a clone to observe, and [`install_cancel`] another
/// for the code being bounded.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that auto-cancels `budget` from now (and can still be
    /// cancelled earlier by hand).
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Cancels the token; every clone observes it immediately.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token is cancelled (manually, or past its deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so later polls skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

thread_local! {
    /// Installed tokens, innermost last (nesting mirrors the context
    /// stack: a campaign cell installs one, and an exact solve with a
    /// time limit installs its own inside).
    static INSTALLED: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Installs `token` on this thread, next to any already installed,
/// until the returned guard drops.
pub fn install_cancel(token: &CancelToken) -> CancelGuard {
    INSTALLED.with(|s| s.borrow_mut().push(token.clone()));
    CancelGuard {
        _not_send: PhantomData,
    }
}

/// Whether any token installed on this thread is cancelled: the work
/// running here is inside every one of those budgets, so the first to
/// expire stops it.
///
/// With no token installed this is a single thread-local read returning
/// `false` — cheap enough for per-event and per-node polling.
pub fn cancelled() -> bool {
    INSTALLED.with(|s| s.borrow().iter().any(CancelToken::is_cancelled))
}

/// The tokens installed on this thread, outermost first.
///
/// Installed tokens are thread-local, so a helper that fans work out to
/// its own worker threads must carry the caller's tokens across
/// explicitly: read them here on the calling thread, and
/// [`install_cancel`] each on every worker — which is what
/// [`crate::pool::run_indexed`] does. All clones share one flag, so a
/// campaign cell's deadline and a solve's time limit keep governing the
/// whole fan-out.
pub fn installed_cancels() -> Vec<CancelToken> {
    INSTALLED.with(|s| s.borrow().clone())
}

/// RAII guard of an installed token; see [`install_cancel`].
#[must_use = "the token stays installed until the guard drops; binding it to _ uninstalls immediately"]
#[derive(Debug)]
pub struct CancelGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_token_means_not_cancelled() {
        assert!(!cancelled());
    }

    #[test]
    fn manual_cancel_propagates_to_clones_and_installs() {
        let token = CancelToken::new();
        let observer = token.clone();
        let _guard = install_cancel(&token);
        assert!(!cancelled());
        observer.cancel();
        assert!(token.is_cancelled());
        assert!(cancelled());
    }

    #[test]
    fn deadline_trips_and_latches() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        // A zero budget is already expired.
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "stays cancelled once latched");
        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!generous.is_cancelled());
    }

    #[test]
    fn guard_uninstalls_its_token() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let _outer_guard = install_cancel(&outer);
        {
            let _inner_guard = install_cancel(&inner);
            inner.cancel();
            assert!(cancelled(), "an inner token stops the work inside it");
        }
        assert!(!cancelled(), "outer token is intact after the guard drops");
        outer.cancel();
        assert!(cancelled());
    }

    #[test]
    fn an_outer_deadline_is_not_shadowed_by_an_inner_token() {
        let outer = CancelToken::new();
        let _outer_guard = install_cancel(&outer);
        let _inner_guard = install_cancel(&CancelToken::with_deadline(Duration::from_secs(3600)));
        assert!(!cancelled());
        outer.cancel();
        assert!(cancelled(), "work inside both budgets stops at the first");
    }

    #[test]
    fn default_is_uncancelled() {
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn installed_cancels_lists_every_token() {
        assert!(installed_cancels().is_empty());
        let outer = CancelToken::new();
        let _outer_guard = install_cancel(&outer);
        let inner_guard = install_cancel(&CancelToken::new());
        assert_eq!(installed_cancels().len(), 2);
        drop(inner_guard);
        let seen = installed_cancels();
        assert_eq!(seen.len(), 1);
        // Clones share one flag: cancelling the copy read off the thread
        // trips the installed original (the worker-thread handoff relies
        // on this).
        seen[0].cancel();
        assert!(cancelled());
        drop(_outer_guard);
        assert!(installed_cancels().is_empty());
    }

    #[test]
    fn installed_cancels_cross_threads() {
        let token = CancelToken::new();
        let _guard = install_cancel(&token);
        let carried = installed_cancels().pop().expect("token installed");
        let observed = std::thread::spawn(move || {
            assert!(!cancelled(), "fresh thread has no token");
            let _g = install_cancel(&carried);
            carried.cancel();
            cancelled()
        })
        .join()
        .unwrap();
        assert!(observed, "worker saw the re-installed token trip");
        assert!(cancelled(), "cancellation propagated back to the caller");
    }
}
