//! The shared elastic task-execution core.
//!
//! Both halves of PGB that fan work over a thread budget — the benchmark
//! runner's grid cells and `pgb-serve`'s request execution — need the
//! same worker/claim loop: spawn a capped worker pool, have each worker
//! [`claim`](pgb_par::BudgetLedger::claim) tasks from a shared
//! [`BudgetLedger`], run each task under
//! [`with_elastic_parallelism`](pgb_par::with_elastic_parallelism) so its
//! grant can grow mid-task as siblings finish, and release the grant
//! afterwards. [`run_elastic`] is that loop, extracted once; callers supply
//! only the task body.
//!
//! The loop is *scheduling only*: which worker runs which task, and with
//! how many threads, cannot affect what the task computes — that is the
//! derived-stream discipline's job (`pgb-par`). Task bodies therefore must
//! publish results into position-addressed slots (or be otherwise
//! order-free), never append to shared state in completion order.

use pgb_par::BudgetLedger;
use std::sync::{Arc, OnceLock};

/// Executes tasks `0..tasks` over an elastic worker pool sharing `budget`
/// threads (0 ⇒ the machine's available parallelism).
///
/// Spawns `min(budget, tasks)` scoped workers; each claims task indices in
/// ascending order from a shared [`BudgetLedger`] and runs `run(task)`
/// under an elastic grant, so a long tail task absorbs the threads earlier
/// tasks release (both at claim time and mid-task, via
/// [`pgb_par::current_parallelism`]'s re-polling). Callers that want a
/// different claim order sort their task list before calling and index
/// through it.
///
/// Returns once every task has run. If a task panics, its grant is
/// released during unwinding (the pool identity holds) and the panic
/// propagates out of the enclosing thread scope once the other workers
/// drain the queue; callers that must survive task panics catch them
/// inside `run` (as `pgb-serve`'s fault isolation does).
pub fn run_elastic<F>(budget: usize, tasks: usize, run: F)
where
    F: Fn(usize) + Sync,
{
    let budget = if budget == 0 { pgb_par::available_parallelism() } else { budget };
    let workers = budget.min(tasks).max(1);
    let ledger = Arc::new(BudgetLedger::new(budget, workers, tasks));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (ledger, run) = (&ledger, &run);
            scope.spawn(move || loop {
                // The fault point sits *before* the claim so a simulated
                // worker crash never strands a claimed grant.
                crate::fault::point("exec.claim", &[crate::fault::FaultAction::Panic]);
                let Some((task, grant)) = ledger.claim() else { break };
                let ((), grant) =
                    pgb_par::with_elastic_parallelism(Arc::clone(ledger), grant, || run(task));
                ledger.release(grant);
            });
        }
    });
}

/// [`run_elastic`] with collected outputs: runs `f` once per index of
/// `0..len` over the elastic pool and returns the outputs **in index
/// order**, regardless of which worker computed which index when.
pub fn run_elastic_collect<T, F>(budget: usize, len: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..len).map(|_| OnceLock::new()).collect();
    run_elastic(budget, len, |i| {
        assert!(slots[i].set(f(i)).is_ok(), "the ledger hands out each task once");
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every claimed task publishes its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once() {
        for budget in [1, 2, 8, 0] {
            let counts: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            run_elastic(budget, counts.len(), |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "budget = {budget}: every task must run exactly once"
            );
        }
    }

    #[test]
    fn collect_preserves_index_order_at_any_budget() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for budget in [1, 3, 8, 0] {
            assert_eq!(run_elastic_collect(budget, 37, |i| i * i), expected, "budget = {budget}");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        run_elastic(4, 0, |_| unreachable!("no task to run"));
        let out: Vec<u8> = run_elastic_collect(4, 0, |_| unreachable!("no task to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn tasks_see_an_elastic_grant() {
        // Inside a task, `current_parallelism` reads the elastic grant —
        // with one task and a budget of 4 the whole budget is granted.
        run_elastic(4, 1, |_| {
            assert_eq!(pgb_par::current_parallelism(), 4);
        });
    }
}
