//! Cooperative cancellation with deterministic work ticks.
//!
//! A serving layer needs to bound runaway requests, but a wall-clock
//! timeout is scheduling-dependent: the same request would succeed on an
//! idle machine and fail on a loaded one, breaking the byte-identical
//! transcript contract. The deterministic alternative is to meter work in
//! **ticks** — one tick per chunk claim in the [`crate`] primitives (the
//! chunk decomposition is a pure function of `(len, chunk)`, never of the
//! thread count) — and cancel when a request's tick budget is exceeded.
//! Whether a run of `T` chunks against a remaining budget of `B` ticks is
//! cancelled depends only on `T > B`, so the *decision* is identical at
//! any worker count even though the *detection point* races.
//!
//! ## How cancellation propagates
//!
//! A [`CancelToken`] is installed for a scope with [`with_token`]; it is
//! part of the thread's run context (see the crate docs), so every worker
//! a parallel primitive spawns inherits it, shield flag included. The
//! primitives charge it one tick per chunk (and every chunk claim polls
//! the cancelled flag). When a charge fails:
//!
//! * worker threads inside [`crate::par_collect`]-family sections stop
//!   claiming chunks **quietly** — `std::thread::scope` replaces scoped
//!   panic payloads with a generic message, so workers must not carry the
//!   signal themselves;
//! * after the scope joins, the *calling* thread raises the typed unwind
//!   payload [`CancelUnwind`] via `panic_any`, which survives to whatever
//!   `catch_unwind` boundary owns the request;
//! * the boundary inspects [`CancelToken::cause`] to map the unwind to a
//!   structured error (tick deadline vs. manual).
//!
//! ## Tick shielding
//!
//! Work that is a scheduling artifact — e.g. a cache leader measuring on
//! behalf of coalesced waiters — must not bill ticks to whichever request
//! happened to lead, or the cancellation decision would depend on cache
//! state and worker interleaving. [`shield_ticks`] suspends tick charging
//! (the cancelled flag is still polled) for its scope.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Why a token was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// The deterministic work-tick budget was exceeded.
    Ticks,
    /// [`CancelToken::cancel`] was called (operator abort, injected
    /// fault).
    Manual,
}

const CAUSE_LIVE: u8 = 0;
const CAUSE_TICKS: u8 = 1;
const CAUSE_MANUAL: u8 = 2;

#[derive(Debug)]
struct TokenState {
    /// Tick budget; `u64::MAX` ⇒ unmetered.
    limit: u64,
    /// Ticks charged so far. Monotone; the final value is racy once the
    /// token cancels (in-flight workers may each charge once more), which
    /// is why reports carry the deterministic `limit`, never this.
    ticks: AtomicU64,
    /// First-cause latch (`CAUSE_*`); set once, never cleared.
    cause: AtomicU8,
}

/// A shareable cancellation token: a tick budget and a latched cancel
/// flag. Clones share state.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl CancelToken {
    /// A token with an optional tick budget (`None` ⇒ unmetered).
    pub fn new(tick_limit: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(TokenState {
                limit: tick_limit.unwrap_or(u64::MAX),
                ticks: AtomicU64::new(0),
                cause: AtomicU8::new(CAUSE_LIVE),
            }),
        }
    }

    /// A token that never cancels on its own (manual cancel still works).
    pub fn unlimited() -> Self {
        Self::new(None)
    }

    /// The tick budget, if the token is metered.
    pub fn tick_limit(&self) -> Option<u64> {
        (self.inner.limit != u64::MAX).then_some(self.inner.limit)
    }

    /// Ticks charged so far. Monotone, but racy once the token cancels:
    /// in-flight workers may each charge once more, so reports carry the
    /// deterministic [`tick_limit`](Self::tick_limit), never this.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Cancels the token manually (idempotent; an earlier cause wins).
    pub fn cancel(&self) {
        self.set_cause(CAUSE_MANUAL);
    }

    /// The latched cancellation cause, or `None` while live.
    pub fn cause(&self) -> Option<CancelCause> {
        match self.inner.cause.load(Ordering::Relaxed) {
            CAUSE_TICKS => Some(CancelCause::Ticks),
            CAUSE_MANUAL => Some(CancelCause::Manual),
            _ => None,
        }
    }

    fn set_cause(&self, cause: u8) {
        // First cause wins; Relaxed is enough — the flag is a monotone
        // latch, and the tick-crossing decision never reads it (each
        // charge re-derives `exceeded` from the monotone counter).
        let _ = self.inner.cause.compare_exchange(
            CAUSE_LIVE,
            cause,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Charges `n` ticks. Returns `false` (latching a cause) when the
    /// token is cancelled or the charge crosses the tick budget.
    /// Deterministic for metered tokens: the counter is a shared monotone
    /// sum, so whether the budget is crossed depends on the total charged,
    /// not on which thread charges when.
    pub fn charge(&self, n: u64) -> bool {
        let s = &self.inner;
        if s.cause.load(Ordering::Relaxed) != CAUSE_LIVE {
            return false;
        }
        let before = s.ticks.fetch_add(n, Ordering::Relaxed);
        if before.saturating_add(n) > s.limit {
            self.set_cause(CAUSE_TICKS);
            return false;
        }
        true
    }

    /// Polls the cancelled flag without charging ticks. Returns `true`
    /// while live.
    pub fn poll(&self) -> bool {
        self.inner.cause.load(Ordering::Relaxed) == CAUSE_LIVE
    }
}

/// The typed unwind payload a cancelled scope propagates with
/// `panic_any`. Request boundaries downcast for it to distinguish
/// cancellation from a genuine panic.
#[derive(Debug)]
pub struct CancelUnwind;

/// Runs `f` with `token` installed as the current thread's cancellation
/// token (tick charging active), restoring the previous token after —
/// panic-safe, scoped, per-thread.
pub fn with_token<T>(token: &CancelToken, f: impl FnOnce() -> T) -> T {
    crate::scoped(
        |c| {
            c.token = Some(token.clone());
            c.shielded = false;
        },
        f,
    )
}

/// Runs `f` with tick charging suspended (the cancelled flag is still
/// polled at every would-be charge). Used for work whose attribution is a
/// scheduling artifact — see the module docs.
pub fn shield_ticks<T>(f: impl FnOnce() -> T) -> T {
    crate::scoped(|c| c.shielded = true, f)
}

/// Charges `n` ticks against the current token (shield-aware: a shielded
/// scope polls instead of charging). Returns `true` when no token is
/// installed or the token is still live.
pub fn charge_current(n: u64) -> bool {
    crate::current(|c| match &c.token {
        Some(token) if c.shielded => token.poll(),
        Some(token) => token.charge(n),
        None => true,
    })
}

/// Whether the current token has been cancelled (flag poll only; no
/// charge). `false` when no token is installed.
pub fn current_cancelled() -> bool {
    crate::current(|c| c.token.as_ref().is_some_and(|token| !token.poll()))
}

/// Cancels the current token (manual cause), if one is installed. The
/// fault layer's `Cancel` action.
pub(crate) fn cancel_current() {
    crate::current(|c| {
        if let Some(token) = &c.token {
            token.cancel();
        }
    });
}

/// Charges `n` ticks; on a failed charge, raises [`CancelUnwind`] so the
/// owning `catch_unwind` boundary can map the cancellation to a
/// structured error.
pub fn checkpoint(n: u64) {
    if !charge_current(n) {
        panic_any(CancelUnwind);
    }
}

/// Raises [`CancelUnwind`] if the current token is cancelled (poll only —
/// called by `run_chunks` on the calling thread after its scope joins, so
/// the typed payload is not laundered through `std::thread::scope`'s
/// generic scoped-thread panic).
pub fn bail_if_cancelled() {
    if current_cancelled() {
        panic_any(CancelUnwind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn charge_crosses_the_budget_exactly_once() {
        let t = CancelToken::new(Some(3));
        assert!(t.charge(1));
        assert!(t.charge(2));
        assert!(!t.charge(1), "fourth tick crosses the budget of 3");
        assert_eq!(t.cause(), Some(CancelCause::Ticks));
        assert!(!t.charge(1), "cancelled tokens stay cancelled");
        assert!(!t.poll());
    }

    #[test]
    fn unlimited_tokens_only_cancel_manually() {
        let t = CancelToken::unlimited();
        assert!(t.charge(1 << 40));
        assert!(t.poll());
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Manual));
        assert!(!t.charge(1));
    }

    #[test]
    fn first_cause_wins() {
        let t = CancelToken::new(Some(0));
        assert!(!t.charge(1));
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Ticks));
    }

    #[test]
    fn with_token_scopes_and_restores() {
        assert!(charge_current(1), "no token installed: charges are free");
        let t = CancelToken::new(Some(1));
        with_token(&t, || {
            assert!(charge_current(1));
            assert!(!charge_current(1));
        });
        assert!(charge_current(1), "context restored after the scope");
        assert_eq!(t.cause(), Some(CancelCause::Ticks));
    }

    #[test]
    fn shield_suspends_charging_but_polls_the_flag() {
        let t = CancelToken::new(Some(2));
        with_token(&t, || {
            shield_ticks(|| {
                for _ in 0..100 {
                    assert!(charge_current(1), "shielded charges are free");
                }
            });
            assert_eq!(t.ticks(), 0, "no tick lands while shielded");
            t.cancel();
            shield_ticks(|| assert!(!charge_current(1), "shield still sees the flag"));
        });
    }

    #[test]
    fn checkpoint_raises_the_typed_payload() {
        let t = CancelToken::new(Some(0));
        let err = catch_unwind(AssertUnwindSafe(|| with_token(&t, || checkpoint(1))))
            .expect_err("budget of 0 cancels the first checkpoint");
        assert!(err.is::<CancelUnwind>(), "payload must be the typed marker");
        assert_eq!(t.cause(), Some(CancelCause::Ticks));
    }
}
