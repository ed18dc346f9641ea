//! The shared elastic task-execution core.
//!
//! Both halves of PGB that fan work over a thread budget — the benchmark
//! runner's grid cells and `pgb-serve`'s request execution — need the
//! same worker/claim loop: spawn a capped worker pool, have each worker
//! claim tasks from a shared [`BudgetLedger`](pgb_par::BudgetLedger), run
//! each task under an elastic grant that can grow mid-task as siblings
//! finish, and release the grant afterwards. [`run_elastic`] is that loop
//! and [`run_elastic_collect`] its index-ordered collector; callers supply
//! only the task body. Both live in `pgb-par`, next to the run context
//! their workers inherit, and are re-exported here.

pub use pgb_par::{run_elastic, run_elastic_collect};

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
