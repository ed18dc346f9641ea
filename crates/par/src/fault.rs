//! Seeded fault injection: named fault points that are zero-cost when
//! disarmed and deterministically misbehave under an armed [`FaultPlan`].
//!
//! Robustness claims ("no budget overdraw under faults", "the cache is
//! never poisoned", "recovery replays a clean prefix") are only as good as
//! the faults they were tested against. This module lets the chaos tests
//! drive *seeded* fault schedules through the real code paths instead of
//! hand-built mock failures:
//!
//! * Production code marks its hazardous spots with
//!   [`point`]`("cache.measure", &[FaultAction::Panic, …])` (infallible
//!   sites: the fault fires as a panic or a cancellation) or
//!   [`point_io`]`("wal.append")` (fallible I/O sites: the fault fires as
//!   an `io::Error`). Disarmed — the default — a point is one read of the
//!   thread's run context.
//! * A caller arms a [`FaultPlan`] (seed + per-mille fire rate) for the
//!   duration of a closure with [`with_plan`]. The plan is part of the run
//!   context (see the crate docs): it fires on the calling thread and on
//!   every worker the parallel primitives spawn inside the scope, and
//!   nowhere else, so concurrent tests cannot trip each other's plans.
//!   Each point keeps a per-name hit counter per plan, and whether hit `n`
//!   of point `p` fires is a pure hash of `(seed, p, n)`. Single-threaded
//!   drives are therefore exactly reproducible from the seed; concurrent
//!   drives reproduce the *decision table* even though the hit
//!   interleaving varies — which is the right contract, because the
//!   invariants under test must hold for every interleaving anyway.
//!
//! ## Fault-point catalogue
//!
//! | point | actions | site |
//! |-------|---------|------|
//! | `cache.measure` | panic, cancel | `pgb-serve`: the measure closure, inside the single-flight leader |
//! | `serve.sample` | panic, cancel | `pgb-serve`: per-sample boundary of request execution |
//! | `wal.append` | error | `pgb-serve`: WAL record append (fires under the admission lock, so only an error — a panic would poison it) |
//! | `exec.claim` | panic | `pgb-par`: the [`run_pool`](crate::run_pool) worker claim loop, before each claim (simulated worker crash) |
//!
//! Injected panics carry [`INJECTED_MARKER`] in their payload so test
//! panic hooks (see [`install_quiet_panic_hook`]) can silence exactly
//! them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Marker substring every injected panic / error message carries.
pub const INJECTED_MARKER: &str = "injected fault";

/// What a firing fault point does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an [`INJECTED_MARKER`] payload.
    Panic,
    /// Return an `io::Error` (only [`point_io`] sites).
    Error,
    /// Cancel the current [`CancelToken`](crate::cancel::CancelToken), if
    /// installed.
    Cancel,
}

/// A seeded fault schedule: hit `n` of point `p` fires iff
/// `hash(seed, p, n) mod 1000 < rate_permille`.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed of the decision hash.
    pub seed: u64,
    /// Fire rate in per-mille (0 ⇒ never, 1000 ⇒ every hit).
    pub rate_permille: u16,
}

/// A plan armed by [`with_plan`], shared by every thread in its scope.
pub(crate) struct Armed {
    plan: FaultPlan,
    /// Per-point hit counters — the `n` of the decision hash.
    counters: Mutex<HashMap<&'static str, u64>>,
}

/// Runs `f` with `plan` armed on the current thread and on the workers
/// the parallel primitives spawn inside `f`, restoring the previous plan
/// (usually none) afterwards — panic-safe, scoped, per-thread.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    let armed = Arc::new(Armed { plan, counters: Mutex::new(HashMap::new()) });
    crate::scoped(|c| c.plan = Some(armed), f)
}

/// The decision hash: [`crate::stream_seed`] of the point name's
/// [`crate::fnv1a`] mixed with the plan seed, at hit `hit`.
fn mix(seed: u64, name: &str, hit: u64) -> u64 {
    crate::stream_seed(crate::fnv1a(name.as_bytes()) ^ seed, hit)
}

/// Rolls point `name`'s next hit against the armed plan. `Some(h)` with
/// the decision hash when it fires; `None` at once when no plan is armed.
#[inline]
fn roll(name: &'static str) -> Option<u64> {
    let armed = crate::current(|c| c.plan.clone())?;
    let hit = {
        let mut counters = armed.counters.lock().expect("fault counters lock poisoned");
        let slot = counters.entry(name).or_insert(0);
        let hit = *slot;
        *slot += 1;
        hit
    };
    let h = mix(armed.plan.seed, name, hit);
    (h % 1000 < armed.plan.rate_permille as u64).then_some(h >> 10)
}

/// An infallible fault point: under an armed plan, a firing hit performs
/// one of `allowed` (chosen by the decision hash) — `Panic` raises an
/// [`INJECTED_MARKER`] panic, `Cancel` cancels the current token.
/// `Error` entries are ignored here (infallible sites cannot return one).
/// Disarmed, it costs one read of the run context.
#[inline]
pub fn point(name: &'static str, allowed: &[FaultAction]) {
    let Some(h) = roll(name) else { return };
    if allowed.is_empty() {
        return;
    }
    match allowed[(h % allowed.len() as u64) as usize] {
        FaultAction::Panic => std::panic::panic_any(format!("{INJECTED_MARKER}: {name}")),
        FaultAction::Cancel => crate::cancel::cancel_current(),
        FaultAction::Error => {}
    }
}

/// A fallible fault point: under an armed plan, a firing hit returns an
/// injected `io::Error`. For sites that hold locks or other state a panic
/// would poison. Disarmed, it costs one read of the run context.
#[inline]
pub fn point_io(name: &'static str) -> std::io::Result<()> {
    match roll(name) {
        Some(_) => Err(std::io::Error::other(format!("{INJECTED_MARKER}: {name}"))),
        None => Ok(()),
    }
}

/// Installs a panic hook (once, wrapping the previous hook) that silences
/// exactly the deliberate unwinds this layer produces: injected-fault
/// panics and `crate::cancel::CancelUnwind` deadline unwinds. Everything
/// else still reaches the previous hook. Binaries and chaos tests call
/// this so expected unwinds don't spray backtraces.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let expected = payload.is::<crate::cancel::CancelUnwind>()
                || payload
                    .downcast_ref::<&str>()
                    .map(|s| s.contains(INJECTED_MARKER))
                    .or_else(|| {
                        payload.downcast_ref::<String>().map(|s| s.contains(INJECTED_MARKER))
                    })
                    .unwrap_or(false);
            if !expected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::{with_token, CancelCause, CancelToken};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    const ALWAYS: FaultPlan = FaultPlan { seed: 7, rate_permille: 1000 };

    #[test]
    fn disabled_points_do_nothing() {
        point("test.free", &[FaultAction::Panic]);
        assert!(point_io("test.free").is_ok());
        with_plan(ALWAYS, || assert!(point_io("test.free").is_err()));
        assert!(point_io("test.free").is_ok(), "the plan is disarmed after its scope");
    }

    #[test]
    fn decisions_are_a_pure_function_of_seed_and_hit_index() {
        let drive = || -> Vec<bool> {
            with_plan(FaultPlan { seed: 42, rate_permille: 300 }, || {
                (0..64).map(|_| point_io("test.det").is_err()).collect()
            })
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b, "same seed, same hit order, same decisions");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "rate 30% fires some but not all of 64 hits: {fired}");
    }

    #[test]
    fn panic_action_carries_the_marker() {
        install_quiet_panic_hook();
        let err = catch_unwind(AssertUnwindSafe(|| {
            with_plan(ALWAYS, || point("test.panic", &[FaultAction::Panic]));
        }))
        .expect_err("rate 1000 always fires");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains(INJECTED_MARKER), "{msg}");
    }

    #[test]
    fn cancel_action_cancels_the_current_token() {
        let token = CancelToken::unlimited();
        with_plan(ALWAYS, || with_token(&token, || point("test.cancel", &[FaultAction::Cancel])));
        assert_eq!(token.cause(), Some(CancelCause::Manual));
    }

    #[test]
    fn a_plan_armed_on_one_thread_does_not_fire_on_another() {
        let (armed, done) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_plan(ALWAYS, || {
                    armed.wait();
                    done.wait();
                })
            });
            armed.wait();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                crate::run_pool(4, 23, |_| {});
                crate::with_parallelism(4, || {
                    crate::par_map_chunks(64, 8, |range, out: &mut Vec<usize>| {
                        point("test.isolated", &[FaultAction::Panic]);
                        out.extend(range);
                    })
                })
            }));
            done.wait();
            assert!(outcome.is_ok(), "a plan armed on another thread fired here");
        });
    }

    #[test]
    fn a_plan_fires_inside_chunk_workers() {
        // 8 chunks over 8 workers: every chunk runs on a spawned worker.
        let fired = with_plan(ALWAYS, || {
            crate::with_parallelism(8, || {
                crate::par_map_chunks(64, 8, |_, out: &mut Vec<bool>| {
                    out.push(point_io("test.chunk").is_err());
                })
            })
        });
        assert_eq!(fired, vec![true; 8]);
    }

    #[test]
    fn a_plan_fires_inside_elastic_workers() {
        install_quiet_panic_hook();
        // `exec.claim` is hit only on the pool's workers.
        let out = catch_unwind(AssertUnwindSafe(|| {
            with_plan(ALWAYS, || crate::run_pool(4, 4, |_| {}));
        }));
        assert!(out.is_err(), "the claim point must fire on every worker");
    }
}
