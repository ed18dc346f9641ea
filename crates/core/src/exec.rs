//! The shared task-execution core.
//!
//! Every part of PGB that fans work over a thread budget — the benchmark
//! runner's dataset truths and grid cells, and `pgb-serve`'s request
//! execution — needs the same worker/claim loop: spawn `min(budget,
//! tasks)` workers, give each a fixed share of the budget, and have them
//! claim tasks in index order. [`run_pool`] is that loop and
//! [`run_pool_collect`] its index-ordered collector; callers supply only
//! the task body. Both live in `pgb-par`, next to the run context their
//! workers inherit, and are re-exported here.

pub use pgb_par::{run_pool, run_pool_collect};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once() {
        for budget in [1, 2, 8, 0] {
            let counts: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            run_pool(budget, counts.len(), |i| {
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
            assert_eq!(run_pool_collect(budget, 37, |i| i * i), expected, "budget = {budget}");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        run_pool(4, 0, |_| unreachable!("no task to run"));
        let out: Vec<u8> = run_pool_collect(4, 0, |_| unreachable!("no task to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn tasks_see_an_elastic_grant() {
        // Inside a task, `current_parallelism` reads its worker's fixed
        // share: one task takes the whole budget of 4, eight tasks over 4
        // workers get 1 thread each, and 5 threads over 2 workers split
        // 3 + 2.
        let share =
            |budget, tasks| run_pool_collect(budget, tasks, |_| pgb_par::current_parallelism());
        assert_eq!(share(4, 1), [4]);
        assert_eq!(share(4, 8), [1; 8]);
        assert!(share(5, 2).iter().all(|&s| s == 2 || s == 3));
    }
}
