//! # pgb-par
//!
//! The deterministic parallelism foundation of the PGB workspace. The
//! benchmark runner parallelises across grid *cells*, but a grid with few
//! (dataset, algorithm, ε) cells leaves most cores idle while TmF scans the
//! upper triangle, DER fills its quadtree leaves — or, on the evaluation
//! side, while the query suite runs its triangle pass and BFS sweep over a
//! large synthetic graph. All of those phases are embarrassingly parallel
//! over independent regions, so this crate gives them a shared harness with
//! one hard guarantee: **output is byte-identical at any thread count**.
//!
//! The mechanisms and the runner in `pgb-core` call it directly, as do
//! `pgb-graph`, `pgb-queries` and `pgb-community` for the query-suite hot
//! passes (degree histogram, triangle pass, BFS sweep, Louvain scans).
//!
//! ## The derived-stream chunking discipline
//!
//! [`par_collect`] splits an index range into fixed-size chunks whose
//! boundaries depend only on `(len, chunk)` — never on the thread count —
//! and draws exactly **one** `u64` base seed from the caller's RNG. Chunk
//! `i` then works on its own stream [`derive_stream`]`(base, i)` (the same
//! mixer family `QuerySuite::evaluate_all` and the runner's per-cell
//! derivation use), and chunk outputs are concatenated in chunk order. The
//! thread pool only decides *when* a chunk runs, not *what* it computes, so
//! for a fixed caller seed the result is identical whether the chunks run
//! on one thread or sixteen. Because every derived stream is independent,
//! the sampled distribution is the same as a serial pass would produce.
//!
//! ## RNG-free passes
//!
//! Deterministic scans (histograms, triangle counting, BFS merging, graph
//! coarsening) need the chunking discipline but no randomness, so they use
//! [`par_map_chunks`] (chunk outputs concatenated in chunk order) and
//! [`par_fold_chunks`] (per-chunk accumulators merged in chunk order).
//! Bit-identity across thread budgets then rests on the *merge algebra*,
//! not on scheduling: a merge that only appends in chunk order or combines
//! exact integers is identical however chunks are grouped, which is why the
//! query-suite passes keep every floating-point reduction out of the
//! chunk-merge step (see `par_fold_chunks`' contract).
//!
//! ## The thread budget
//!
//! How many workers a parallel section may use is scoped, not global:
//! [`with_parallelism`] pins the budget for the current thread (the runner
//! uses it to split `BenchmarkConfig::threads` between cell-level workers
//! and intra-cell parallelism), and [`current_parallelism`] reads it,
//! falling back to the machine's available parallelism when unset. Nested
//! parallel sections inside a worker run serially — the budget is already
//! spent one level up.
//!
//! How a *pool of workers* divides a shared budget over a draining task
//! queue is the job of [`BudgetLedger`]: workers re-claim their share per
//! task, so threads released by finished workers flow to the tail of the
//! queue instead of idling (the benchmark runner's grid driver).
//!
//! ## Deterministic cancellation
//!
//! Callers that must bound runaway work install a [`cancel::CancelToken`]
//! around a parallel section; every chunk claim then charges one **work
//! tick** against the token's budget. Because the chunk decomposition is a
//! pure function of `(len, chunk)`, whether a section exceeds its tick
//! budget is identical at any thread count — see [`cancel`] for the full
//! story (quiet worker stop, typed [`cancel::CancelUnwind`] payload raised
//! by the calling thread, tick shielding, the wall-clock escape hatch).

pub mod cancel;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default indices per chunk for fine-grained index work (per-edge or
/// per-drop loops): large enough to amortise stream derivation and task
/// handoff, small enough that an 8-way machine load-balances a
/// few-hundred-thousand-element range.
pub const DEFAULT_CHUNK: usize = 8192;

thread_local! {
    /// 0 ⇒ unset (fall back to available parallelism).
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
    /// The elastic grant scope installed by [`with_elastic_parallelism`],
    /// if any: the ledger to re-poll and the live grant it grows.
    static ELASTIC_SLOT: RefCell<Option<(Arc<BudgetLedger>, Grant)>> = const { RefCell::new(None) };
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// The intra-cell thread budget for the current thread, in precedence
/// order: the innermost [`with_parallelism`] scope if one is active; else
/// the current [`with_elastic_parallelism`] grant, **re-polled against its
/// ledger** (grow-only — see [`BudgetLedger::regrant`]) so a parallel
/// section entered late in a task absorbs threads released since the
/// claim; else the machine's available parallelism.
pub fn current_parallelism() -> usize {
    let t = THREAD_BUDGET.with(Cell::get);
    if t != 0 {
        return t;
    }
    let elastic = ELASTIC_SLOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (ledger, grant) = slot.as_mut()?;
        ledger.regrant(grant);
        Some(grant.threads())
    });
    elastic.unwrap_or_else(available_parallelism)
}

/// Runs `f` with the current thread's parallelism budget set to `threads`
/// (0 ⇒ reset to the available-parallelism default), restoring the previous
/// budget afterwards — panic-safe, scoped, and per-thread.
///
/// The budget only affects *scheduling*; results of the parallel sections
/// inside `f` are identical for every value of `threads`.
pub fn with_parallelism<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BUDGET.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_BUDGET.with(|c| c.replace(threads)));
    f()
}

/// Runs `f` under an elastic grant: parallel sections inside `f` read
/// their budget from `grant`, and every [`current_parallelism`] call
/// re-polls `ledger` (grow-only, [`BudgetLedger::regrant`]) so a task that
/// outlives its siblings absorbs the threads they release mid-task —
/// instead of keeping the share computed at claim time, which strands the
/// pool on the tail of the queue.
///
/// Returns `f`'s output together with the (possibly grown) grant, which
/// the caller must still [`release`](BudgetLedger::release). Like the
/// grants themselves, re-granting is *scheduling only*: the derived-stream
/// discipline makes `f`'s output identical whether or not it grew.
///
/// If `f` panics, the grant is released to the ledger during unwinding so
/// the pool identity (`available + Σ outstanding pooled ≡ budget`) still
/// holds. Nested elastic scopes on one thread are not supported (the
/// inner scope would shadow the outer grant); an explicit
/// [`with_parallelism`] scope inside `f` takes precedence as usual.
pub fn with_elastic_parallelism<T>(
    ledger: Arc<BudgetLedger>,
    grant: Grant,
    f: impl FnOnce() -> T,
) -> (T, Grant) {
    /// Clears the slot on scope exit; on unwind (slot still occupied) the
    /// grant goes back to the ledger rather than leaking pooled threads.
    struct SlotGuard;
    impl Drop for SlotGuard {
        fn drop(&mut self) {
            if let Some((ledger, grant)) = ELASTIC_SLOT.with(|slot| slot.borrow_mut().take()) {
                ledger.release(grant);
            }
        }
    }

    ELASTIC_SLOT.with(|slot| {
        let prev = slot.borrow_mut().replace((ledger, grant));
        assert!(prev.is_none(), "nested with_elastic_parallelism scopes are not supported");
    });
    let _guard = SlotGuard;
    let out = f();
    let (_, grant) = ELASTIC_SLOT
        .with(|slot| slot.borrow_mut().take())
        .expect("elastic slot cleared inside the scope");
    (out, grant)
}

/// An elastic thread-budget ledger shared by the workers of a task pool.
///
/// The benchmark runner's workers used to split the total thread budget
/// once at spawn (`budget / workers` each), which strands threads on the
/// tail of a grid: when the task queue drains below the worker count,
/// finished workers' threads sit idle while the remaining tasks keep their
/// small static share. The ledger instead tracks the *live* state — how
/// many tasks are still unclaimed and how many threads finished workers
/// have returned to the pool — and each worker recomputes its intra-task
/// budget per **claimed** task:
///
/// * [`claim`](BudgetLedger::claim) atomically pops the next task index and
///   grants `ceil(available / claimants)` pooled threads, where
///   `claimants = min(workers, remaining tasks)` — on the tail the divisor
///   shrinks, so late tasks inherit the threads earlier tasks released.
/// * A worker whose claim finds an empty pool still runs (a [`Grant`] is
///   always ≥ 1 thread), so the *transient* oversubscription is bounded:
///   at most one unpooled thread per worker beyond the first, i.e. the sum
///   of outstanding grants never exceeds `budget + workers − 1`.
/// * [`release`](BudgetLedger::release) returns the pooled part of a grant,
///   so `available + Σ outstanding pooled ≡ budget` at all times and the
///   ledger drains back to exactly `budget` once every grant is released.
/// * [`regrant`](BudgetLedger::regrant) grows a *held* grant from the live
///   pool mid-task (grow-only). [`with_elastic_parallelism`] re-polls it on
///   every [`current_parallelism`] read, so the last running tasks absorb
///   threads released after their claim instead of finishing on the share
///   computed when the pool was crowded.
///
/// Grants are *scheduling only*: callers run their task under
/// [`with_parallelism`]`(grant.threads(), …)`, and the derived-stream
/// discipline makes the task's output identical for every grant size. The
/// same goes for the *order* tasks are handed out in: the ledger pops
/// indices `0, 1, 2, …` over whatever task list the caller built, so a
/// caller that wants expensive tasks claimed first simply sorts its task
/// list by a cost key before creating the ledger.
#[derive(Debug)]
pub struct BudgetLedger {
    budget: usize,
    workers: usize,
    tasks: usize,
    inner: Mutex<LedgerInner>,
}

#[derive(Debug)]
struct LedgerInner {
    /// Next unclaimed task index (`tasks` ⇒ queue drained).
    next: usize,
    /// Threads currently in the pool (≤ `budget`).
    available: usize,
}

/// A thread grant held by a worker for the duration of one claimed task.
///
/// `threads` is what the worker may use ([`with_parallelism`] budget);
/// `pooled` is the part accounted against the ledger's pool (`threads`
/// when the pool could cover the grant, `0` for the minimum-one-thread
/// grant handed out when the pool was momentarily empty). Return it with
/// [`BudgetLedger::release`] when the task completes.
#[derive(Debug)]
#[must_use = "a grant holds pooled threads until released"]
pub struct Grant {
    threads: usize,
    pooled: usize,
}

impl Grant {
    /// The intra-task thread budget this grant authorises (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many of the granted threads came out of the shared pool.
    pub fn pooled(&self) -> usize {
        self.pooled
    }
}

impl BudgetLedger {
    /// A ledger distributing `budget` threads (≥ 1 enforced) over `tasks`
    /// tasks claimed by at most `workers` concurrent workers.
    pub fn new(budget: usize, workers: usize, tasks: usize) -> Self {
        let budget = budget.max(1);
        let workers = workers.max(1);
        BudgetLedger {
            budget,
            workers,
            tasks,
            inner: Mutex::new(LedgerInner { next: 0, available: budget }),
        }
    }

    /// The total thread budget the ledger was created with.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The worker count the oversubscription bound is stated against.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Threads currently sitting in the pool (released and unclaimed).
    pub fn available(&self) -> usize {
        self.inner.lock().expect("ledger lock poisoned").available
    }

    /// Claims the next task, or `None` when the queue is drained. The
    /// returned grant divides the pool by the number of workers that can
    /// still be claiming concurrently (`min(workers, remaining tasks)`),
    /// and is never zero: an empty pool yields a 1-thread grant with
    /// `pooled = 0`, which is what makes the oversubscription transient
    /// and bounded rather than a deadlock.
    pub fn claim(&self) -> Option<(usize, Grant)> {
        let mut s = self.inner.lock().expect("ledger lock poisoned");
        if s.next >= self.tasks {
            return None;
        }
        let task = s.next;
        s.next += 1;
        // Including this one — `task` was just popped.
        let remaining = self.tasks - task;
        let claimants = remaining.min(self.workers).max(1);
        let pooled = if s.available == 0 { 0 } else { s.available.div_ceil(claimants) };
        debug_assert!(pooled <= s.available);
        s.available -= pooled;
        Some((task, Grant { threads: pooled.max(1), pooled }))
    }

    /// Grows `grant` from the pool, if the pool has anything to give —
    /// the mid-task half of elastic granting. The holder's share is
    /// recomputed against the live state with the holder counted as one
    /// claimant alongside the still-unclaimed tasks
    /// (`claimants = min(remaining + 1, workers)`), so a worker on the
    /// queue's tail absorbs the whole pool while a worker mid-queue takes
    /// only its fair slice. **Grow-only**: a grant never shrinks — threads
    /// already promised to a running parallel section stay granted — so
    /// repeated re-polls are monotone and the pool identity
    /// `available + Σ outstanding pooled ≡ budget` is preserved.
    pub fn regrant(&self, grant: &mut Grant) {
        let mut s = self.inner.lock().expect("ledger lock poisoned");
        if s.available == 0 {
            return;
        }
        let remaining = self.tasks - s.next;
        let claimants = (remaining + 1).min(self.workers).max(1);
        // Fair share of the threads in play *for this holder* — the pool
        // plus what it already holds, divided over the holder and the
        // claims that can still arrive. Top up to the share; a grant
        // already at or above it keeps what it has (never shrinks). With
        // the queue drained (`claimants == 1`) the share is the whole
        // pool, so the last running tasks absorb everything released.
        let target = (s.available + grant.threads).div_ceil(claimants);
        let extra = target.saturating_sub(grant.threads).min(s.available);
        if extra == 0 {
            if grant.pooled == 0 && grant.threads == 1 {
                // The minimum oversubscribed grant converts to a pooled
                // thread as soon as one is free, ending its transient
                // oversubscription without changing its budget.
                s.available -= 1;
                grant.pooled = 1;
            }
            return;
        }
        s.available -= extra;
        grant.threads += extra;
        grant.pooled += extra;
    }

    /// Returns a grant's pooled threads, making them grantable to the next
    /// claim. Unpooled (oversubscribed) threads simply vanish — they were
    /// never deducted from the pool.
    pub fn release(&self, grant: Grant) {
        let mut s = self.inner.lock().expect("ledger lock poisoned");
        s.available += grant.pooled;
        debug_assert!(
            s.available <= self.budget,
            "pool overflow: released more threads than the budget holds"
        );
    }
}

/// Derives the deterministic RNG for chunk `index` of a parallel section
/// whose single caller draw was `base` — the same xorshift-multiply mixer
/// family as the runner's per-cell and the query suite's per-intermediate
/// derivations, so streams are independent across chunks and of the
/// caller's subsequent draws.
pub fn derive_stream(base: u64, index: u64) -> StdRng {
    let mut h = base ^ 0x2545_F491_4F6C_DD1D;
    h ^= index.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
    h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    h ^= h >> 32;
    StdRng::seed_from_u64(h)
}

/// 64-bit FNV-1a over a byte slice: the serve transcript renders it per
/// sample so a diff stays human-sized while still pinning every CSR byte,
/// and the grid and mechanism byte-contract tests pin CSVs and CSRs with
/// it. The multiplier is `0x1000_0000_01b3` (2^44 + 0x1b3), not the
/// standard FNV prime 2^40 + 0x1b3; every transcript and pinned digest was
/// taken with it, so it stays.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// The fixed chunk decomposition of `0..len`: every chunk has exactly
/// `chunk` indices except a shorter final one. Depends only on the inputs,
/// never on the thread count — this is what makes chunk streams stable.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..len).step_by(chunk).map(|start| start..(start + chunk).min(len)).collect()
}

/// Runs `produce` once per chunk over [`current_parallelism`] workers with
/// a dynamic cursor and returns the per-chunk outputs **in chunk order**.
/// The shared engine behind [`par_collect`], [`par_map_chunks`], and
/// [`par_fold_chunks`]; callers have already handled the `workers <= 1`
/// inline case.
fn run_chunks<T, F>(ranges: &[Range<usize>], workers: usize, produce: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..ranges.len()).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    // The calling thread's cancellation context rides into every worker,
    // so chunk claims charge the request's token no matter which thread
    // runs them.
    let ctx = cancel::snapshot();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (slots, cursor, produce, ctx) = (&slots, &cursor, &produce, ctx.clone());
            scope.spawn(move || {
                cancel::with_snapshot(ctx, || {
                    // A worker *is* the parallelism; anything nested runs serial.
                    with_parallelism(1, || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ranges.len() {
                            break;
                        }
                        // Cancelled: stop claiming *quietly* — a scoped
                        // panic would be laundered into a payload-free
                        // generic by std::thread::scope; the calling
                        // thread raises the typed unwind below instead.
                        if !cancel::charge_current(1) {
                            break;
                        }
                        assert!(
                            slots[i].set(produce(i, ranges[i].clone())).is_ok(),
                            "the atomic cursor hands out each chunk once"
                        );
                    });
                });
            });
        }
    });
    cancel::bail_if_cancelled();
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every claimed chunk publishes its slot"))
        .collect()
}

/// Runs `f` once per chunk of `0..len` and returns all chunk outputs
/// concatenated in chunk order.
///
/// Draws exactly one `u64` from `rng` (regardless of `len`, `chunk`, or
/// the thread budget) and hands chunk `i` the stream
/// [`derive_stream`]`(base, i)` plus an output vector to push into. Chunks
/// are distributed over [`current_parallelism`] workers with a dynamic
/// cursor, so unequal chunk costs load-balance; a budget of 1 (or a single
/// chunk) runs inline with no thread spawn. Output, by construction, does
/// not depend on the worker count.
pub fn par_collect<T, F>(len: usize, chunk: usize, rng: &mut dyn RngCore, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(Range<usize>, &mut StdRng, &mut Vec<T>) + Sync,
{
    let base = rng.next_u64();
    let ranges = chunk_ranges(len, chunk);
    let workers = current_parallelism().min(ranges.len());
    if workers <= 1 {
        let mut out = Vec::new();
        for (i, r) in ranges.into_iter().enumerate() {
            // Same tick per chunk as the parallel path charges per claim,
            // so the cancellation decision is budget-invariant.
            cancel::checkpoint(1);
            f(r, &mut derive_stream(base, i as u64), &mut out);
        }
        return out;
    }
    let parts = run_chunks(&ranges, workers, |i, r| {
        let mut out = Vec::new();
        f(r, &mut derive_stream(base, i as u64), &mut out);
        out
    });
    concat(parts)
}

/// RNG-free sibling of [`par_collect`]: runs `f` once per chunk of
/// `0..len` and returns all chunk outputs concatenated in chunk order.
///
/// For deterministic per-index maps (degree extraction, adjacency
/// filtering, per-node feature vectors): the chunk decomposition is fixed
/// by `(len, chunk)` and outputs concatenate in chunk order, so the result
/// is identical at any thread budget — each element is computed
/// independently and lands at the same position regardless of scheduling.
pub fn par_map_chunks<T, F>(len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(Range<usize>, &mut Vec<T>) + Sync,
{
    let ranges = chunk_ranges(len, chunk);
    let workers = current_parallelism().min(ranges.len());
    if workers <= 1 {
        let mut out = Vec::new();
        for r in ranges {
            cancel::checkpoint(1);
            f(r, &mut out);
        }
        return out;
    }
    let parts = run_chunks(&ranges, workers, |_, r| {
        let mut out = Vec::new();
        f(r, &mut out);
        out
    });
    concat(parts)
}

/// Parallel chunked fold: `fold` accumulates each chunk of `0..len` into
/// an accumulator from `init`, and accumulators are combined **in chunk
/// order** with `merge`. Returns `init()` when `len == 0`.
///
/// ## Bit-identity contract
///
/// A thread budget of 1 folds every chunk into a *single* accumulator (no
/// per-chunk allocation, no merge — the sequential pass, verbatim), while
/// a parallel run folds per-chunk accumulators and merges them in chunk
/// order. Results are therefore byte-identical across thread budgets iff
/// fold-then-merge regroups freely, which holds for the accumulators the
/// query-suite passes use:
///
/// * exact-integer arithmetic (`u64` histogram counts, triangle credits,
///   `u128` distance totals, `max` reductions) — associative and
///   commutative, any grouping yields the same bits;
/// * order-preserving appends (bucket lists, concatenated rows) — chunk
///   order is the element order either way.
///
/// Keep floating-point *summation* out of `merge`: `(a + b) + c` and
/// `a + (b + c)` may differ in the last ulp, so a float accumulator would
/// make the 1-thread and n-thread groupings drift. The query-suite passes
/// instead carry floats through appends and do the arithmetic afterwards
/// in a fixed order.
pub fn par_fold_chunks<A, I, F, M>(len: usize, chunk: usize, init: I, fold: F, mut merge: M) -> A
where
    A: Send + Sync,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<usize>) + Sync,
    M: FnMut(&mut A, A),
{
    let ranges = chunk_ranges(len, chunk);
    let workers = current_parallelism().min(ranges.len());
    if workers <= 1 {
        let mut acc = init();
        for r in ranges {
            cancel::checkpoint(1);
            fold(&mut acc, r);
        }
        return acc;
    }
    let parts = run_chunks(&ranges, workers, |_, r| {
        let mut acc = init();
        fold(&mut acc, r);
        acc
    });
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("workers > 1 implies at least one chunk");
    for part in parts {
        merge(&mut acc, part);
    }
    acc
}

/// Concatenates chunk outputs in chunk order.
fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 10), vec![0..3]);
        assert!(chunk_ranges(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        chunk_ranges(5, 0);
    }

    #[test]
    fn output_identical_across_thread_budgets() {
        let run = |threads: usize| {
            with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(99);
                par_collect(10_000, 128, &mut rng, |range, rng, out| {
                    for i in range {
                        out.push((i as u64) ^ rng.gen_range(0..1_000_000u64));
                    }
                })
            })
        };
        let serial = run(1);
        assert_eq!(serial.len(), 10_000);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn caller_rng_advances_by_exactly_one_draw() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let _ = par_collect(5_000, 64, &mut a, |range, rng, out: &mut Vec<u64>| {
            for _ in range {
                out.push(rng.next_u64());
            }
        });
        b.next_u64(); // the single base draw
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn with_parallelism_scopes_and_restores() {
        let outer = current_parallelism();
        with_parallelism(3, || {
            assert_eq!(current_parallelism(), 3);
            with_parallelism(1, || assert_eq!(current_parallelism(), 1));
            assert_eq!(current_parallelism(), 3);
        });
        assert_eq!(current_parallelism(), outer);
    }

    #[test]
    fn empty_range_still_draws_base() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let out = par_collect(0, 16, &mut a, |_, _, _: &mut Vec<u8>| unreachable!());
        assert!(out.is_empty());
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn map_chunks_equals_sequential_map_at_any_budget() {
        let expected: Vec<u64> = (0..5_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 8, 0] {
            let got = with_parallelism(threads, || {
                par_map_chunks(5_000, 64, |range, out| {
                    for i in range {
                        out.push((i as u64).wrapping_mul(0x9E37));
                    }
                })
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_empty_range() {
        let out: Vec<u8> = par_map_chunks(0, 16, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn fold_chunks_integer_accumulators_budget_invariant() {
        // An exact-integer histogram: fold-then-merge regroups freely, so
        // every budget (including the single-accumulator inline path) must
        // produce identical bytes.
        let run = |threads: usize| {
            with_parallelism(threads, || {
                par_fold_chunks(
                    10_000,
                    128,
                    || vec![0u64; 7],
                    |acc, range| {
                        for i in range {
                            acc[i % 7] += (i as u64) % 13;
                        }
                    },
                    |acc, other| {
                        for (a, b) in acc.iter_mut().zip(other) {
                            *a += b;
                        }
                    },
                )
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8, 0] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn fold_chunks_append_merge_preserves_chunk_order() {
        // Order-preserving appends: the merged list is the chunk-order
        // concatenation, i.e. exactly the sequential traversal order.
        let expected: Vec<usize> = (0..1_000).collect();
        for threads in [1, 2, 8] {
            let got = with_parallelism(threads, || {
                par_fold_chunks(
                    1_000,
                    32,
                    Vec::new,
                    |acc: &mut Vec<usize>, range| acc.extend(range),
                    |acc, mut other| acc.append(&mut other),
                )
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn fold_chunks_empty_range_returns_init() {
        let acc = par_fold_chunks(0, 16, || 42u64, |_, _| unreachable!(), |_, _| unreachable!());
        assert_eq!(acc, 42);
    }

    #[test]
    fn ledger_saturating_grid_grants_one_each() {
        // More tasks than budget: every worker starts with exactly 1.
        let ledger = BudgetLedger::new(4, 4, 100);
        let grants: Vec<Grant> = (0..4).map(|_| ledger.claim().unwrap().1).collect();
        assert!(grants.iter().all(|g| g.threads() == 1 && g.pooled() == 1));
        assert_eq!(ledger.available(), 0);
        for g in grants {
            ledger.release(g);
        }
        assert_eq!(ledger.available(), 4);
    }

    #[test]
    fn ledger_tail_inherits_released_threads() {
        // 4 workers, budget 4, 6 tasks: the tail tasks (5, 6) are claimed
        // after earlier grants return, and with remaining < workers the
        // divisor shrinks — released threads are re-granted, not stranded.
        let ledger = BudgetLedger::new(4, 4, 6);
        let head: Vec<(usize, Grant)> = (0..4).map(|_| ledger.claim().unwrap()).collect();
        for (_, g) in head {
            ledger.release(g);
        }
        // Tail: 2 tasks remain, whole pool back in play ⇒ 4 / 2 = 2 each.
        let (t, g5) = ledger.claim().unwrap();
        assert_eq!(t, 4);
        assert_eq!(g5.threads(), 2);
        let (_, g6) = ledger.claim().unwrap();
        assert_eq!(g6.threads(), 2);
        assert!(ledger.claim().is_none());
        ledger.release(g5);
        ledger.release(g6);
        assert_eq!(ledger.available(), 4);
    }

    #[test]
    fn ledger_single_task_gets_whole_budget() {
        let ledger = BudgetLedger::new(8, 4, 1);
        let (_, g) = ledger.claim().unwrap();
        assert_eq!(g.threads(), 8);
        ledger.release(g);
        assert_eq!(ledger.available(), 8);
    }

    #[test]
    fn ledger_empty_pool_still_grants_one_thread() {
        // Budget 1, 4 workers: three claims find the pool empty and run
        // oversubscribed on 1 unpooled thread each — the transient total is
        // 4 = budget + workers − 1, never more.
        let ledger = BudgetLedger::new(1, 4, 8);
        let grants: Vec<Grant> = (0..4).map(|_| ledger.claim().unwrap().1).collect();
        let outstanding: usize = grants.iter().map(Grant::threads).sum();
        assert_eq!(outstanding, 4);
        assert_eq!(grants.iter().map(Grant::pooled).sum::<usize>(), 1);
        for g in grants {
            ledger.release(g);
        }
        assert_eq!(ledger.available(), 1);
    }

    #[test]
    fn ledger_zero_budget_clamped_to_one() {
        let ledger = BudgetLedger::new(0, 0, 2);
        assert_eq!(ledger.budget(), 1);
        assert_eq!(ledger.workers(), 1);
        let (_, g) = ledger.claim().unwrap();
        assert_eq!(g.threads(), 1);
        ledger.release(g);
    }

    #[test]
    fn tick_totals_are_identical_across_thread_budgets() {
        // 100 elements / chunk 16 ⇒ 7 chunks, charged once each whether
        // they run inline or over 8 workers.
        for threads in [1usize, 2, 8, 0] {
            let token = cancel::CancelToken::unlimited();
            cancel::with_token(&token, || {
                with_parallelism(threads, || {
                    par_map_chunks(100, 16, |range, out: &mut Vec<usize>| out.extend(range))
                })
            });
            assert_eq!(token.ticks(), 7, "threads = {threads}");
        }
    }

    #[test]
    fn cancellation_decision_is_budget_invariant() {
        // 7 chunks against tick budgets straddling 7: cancelled iff
        // chunks > budget, at every thread budget, with the typed payload.
        for threads in [1usize, 2, 8, 0] {
            for (limit, cancelled) in [(6u64, true), (7, false), (8, false)] {
                let token = cancel::CancelToken::new(Some(limit), None);
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cancel::with_token(&token, || {
                        with_parallelism(threads, || {
                            par_map_chunks(100, 16, |range, out: &mut Vec<usize>| out.extend(range))
                        })
                    })
                }));
                assert_eq!(out.is_err(), cancelled, "threads = {threads}, limit = {limit}");
                if let Err(payload) = out {
                    assert!(payload.is::<cancel::CancelUnwind>());
                    assert_eq!(token.cause(), Some(cancel::CancelCause::Ticks));
                } else {
                    assert_eq!(token.cause(), None);
                }
            }
        }
    }

    #[test]
    fn par_collect_and_fold_charge_ticks_too() {
        let token = cancel::CancelToken::unlimited();
        cancel::with_token(&token, || {
            let mut rng = StdRng::seed_from_u64(3);
            let _ =
                par_collect(64, 16, &mut rng, |range, _, out: &mut Vec<usize>| out.extend(range));
            let _ = par_fold_chunks(
                64,
                16,
                || 0usize,
                |acc, range| *acc += range.len(),
                |acc, other| *acc += other,
            );
        });
        assert_eq!(token.ticks(), 8, "4 collect chunks + 4 fold chunks");
    }

    #[test]
    fn derived_streams_differ_per_chunk() {
        let mut s0 = derive_stream(42, 0);
        let mut s1 = derive_stream(42, 1);
        assert_ne!(
            (0..4).map(|_| s0.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| s1.next_u64()).collect::<Vec<_>>()
        );
    }
}
