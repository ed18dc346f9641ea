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
//! ## The run context
//!
//! What a parallel section inherits from its caller lives in one
//! per-thread context: the thread budget, the [`cancel::CancelToken`]
//! with its shield flag, and the armed [`fault::FaultPlan`]. Every public
//! scope ([`with_parallelism`], [`cancel::with_token`],
//! [`cancel::shield_ticks`], [`fault::with_plan`]) edits one field of it
//! for the duration of a closure and restores the previous context on
//! return or unwind. One rule decides what a spawned worker inherits: the
//! caller's token, shield flag and fault plan, never its budget. A
//! [`par_collect`]-family worker *is* the parallelism, so anything nested
//! in it runs serially (budget 1); a [`run_pool`] worker runs under its
//! fixed share of the pool's budget, so a caller's [`with_parallelism`]
//! scope cannot oversubscribe the pool.
//!
//! ## The thread budget
//!
//! How many workers a parallel section may use is scoped, not global:
//! [`with_parallelism`] pins the budget for the current thread (the runner
//! uses it to split `BenchmarkConfig::threads` between cell-level workers
//! and intra-cell parallelism), and [`current_parallelism`] reads it,
//! falling back to the machine's available parallelism when unset.
//!
//! A *pool of workers* over a task queue ([`run_pool`]: the benchmark
//! runner's grid driver and `pgb-serve`'s replay) splits its budget once:
//! `min(budget, tasks)` workers each keep a fixed share for every task
//! they claim. A worker that finishes early leaves its threads idle while
//! the tail runs: handing them to the tail tasks measured no faster on a
//! 2-vCPU host, so the pool does not.
//!
//! ## Deterministic cancellation
//!
//! Callers that must bound runaway work install a [`cancel::CancelToken`]
//! around a parallel section; every chunk claim then charges one **work
//! tick** against the token's budget, on whichever worker claims it.
//! Because the chunk decomposition is a pure function of `(len, chunk)`,
//! whether a section exceeds its tick budget is identical at any thread
//! count — see [`cancel`] for the full story (quiet worker stop, typed
//! [`cancel::CancelUnwind`] payload raised by the calling thread, tick
//! shielding, the wall-clock escape hatch).

pub mod cancel;
pub mod fault;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default indices per chunk for fine-grained index work (per-edge or
/// per-drop loops): large enough to amortise stream derivation and task
/// handoff, small enough that an 8-way machine load-balances a
/// few-hundred-thousand-element range.
pub const DEFAULT_CHUNK: usize = 8192;

/// The per-thread run context (see the crate docs).
#[derive(Clone)]
struct Ctx {
    /// The [`with_parallelism`] budget; 0 ⇒ unset.
    budget: usize,
    token: Option<cancel::CancelToken>,
    /// Whether tick charging is suspended ([`cancel::shield_ticks`]).
    shielded: bool,
    plan: Option<Arc<fault::Armed>>,
}

impl Ctx {
    const EMPTY: Ctx = Ctx { budget: 0, token: None, shielded: false, plan: None };

    /// What a worker spawned under this context starts with: the caller's
    /// token, shield flag and fault plan, never its budget.
    fn for_worker(&self, budget: usize) -> Ctx {
        Ctx { budget, ..self.clone() }
    }
}

thread_local! {
    static CTX: RefCell<Ctx> = const { RefCell::new(Ctx::EMPTY) };
}

/// Reads the current thread's context.
fn current<T>(read: impl FnOnce(&Ctx) -> T) -> T {
    CTX.with(|c| read(&c.borrow()))
}

/// Runs `f` with the current thread's context edited by `edit`, restoring
/// the previous context afterwards — panic-safe, scoped, per-thread. Every
/// public scope is one such edit.
fn scoped<T>(edit: impl FnOnce(&mut Ctx), f: impl FnOnce() -> T) -> T {
    struct Restore(Ctx);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = std::mem::replace(&mut self.0, Ctx::EMPTY);
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        let prev = ctx.clone();
        edit(&mut ctx);
        prev
    });
    let _restore = Restore(prev);
    f()
}

/// Runs `body` on `workers` scoped threads; worker `w` runs under
/// [`Ctx::for_worker`]`(budget(w))` of the calling thread's context.
fn spawn_workers(workers: usize, budget: impl Fn(usize) -> usize, body: impl Fn() + Sync) {
    let ctx = current(Ctx::clone);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (ctx, body) = (ctx.for_worker(budget(w)), &body);
            scope.spawn(move || scoped(|c| *c = ctx, body));
        }
    });
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// The intra-cell thread budget for the current thread: the innermost
/// [`with_parallelism`] scope if one is active (a [`run_pool`] worker runs
/// under its share), else the machine's available parallelism.
pub fn current_parallelism() -> usize {
    match current(|c| c.budget) {
        0 => available_parallelism(),
        budget => budget,
    }
}

/// Runs `f` with the current thread's parallelism budget set to `threads`
/// (0 ⇒ reset to the available-parallelism default), restoring the previous
/// budget afterwards — panic-safe, scoped, and per-thread.
///
/// The budget only affects *scheduling*; results of the parallel sections
/// inside `f` are identical for every value of `threads`.
pub fn with_parallelism<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    scoped(|c| c.budget = threads, f)
}

/// Executes tasks `0..tasks` over a fixed-share worker pool sharing
/// `budget` threads (0 ⇒ the machine's available parallelism) — the
/// worker/claim loop behind the benchmark runner's grid truths and cells
/// and `pgb-serve`'s request execution.
///
/// Spawns `min(budget, tasks)` scoped workers. Each runs under a fixed
/// [`with_parallelism`] share of the budget — `budget / workers`, plus one
/// for the first `budget % workers` workers — and claims task indices in
/// ascending order from an atomic counter, running `run(task)` for each.
/// Callers that want a different claim order sort their task list before
/// calling and index through it.
///
/// The loop is *scheduling only*: which worker runs which task, and with
/// how many threads, cannot affect what the task computes. Task bodies
/// therefore must publish results into position-addressed slots (or be
/// otherwise order-free), never append to shared state in completion
/// order.
///
/// Returns once every task has run. If a task panics, the panic propagates
/// out of the enclosing thread scope once the other workers drain the
/// queue; callers that must survive task panics catch them inside `run`
/// (as `pgb-serve`'s fault isolation does).
pub fn run_pool<F>(budget: usize, tasks: usize, run: F)
where
    F: Fn(usize) + Sync,
{
    let budget = if budget == 0 { available_parallelism() } else { budget };
    let workers = budget.min(tasks);
    let next = AtomicUsize::new(0);
    let share = |w: usize| budget / workers + usize::from(w < budget % workers);
    spawn_workers(workers, share, || loop {
        // Before the claim, so a simulated worker crash never strands a
        // claimed task.
        fault::point("exec.claim", &[fault::FaultAction::Panic]);
        let task = next.fetch_add(1, Ordering::Relaxed);
        if task >= tasks {
            break;
        }
        run(task);
    });
}

/// [`run_pool`] with collected outputs: runs `f` once per index of
/// `0..len` over the pool and returns the outputs **in index order**,
/// regardless of which worker computed which index when.
pub fn run_pool_collect<T, F>(budget: usize, len: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..len).map(|_| OnceLock::new()).collect();
    run_pool(budget, len, |i| {
        assert!(slots[i].set(f(i)).is_ok(), "the claim counter hands out each task once");
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every claimed task publishes its slot"))
        .collect()
}

/// Derives the deterministic RNG for chunk `index` of a parallel section
/// whose single caller draw was `base`: a `StdRng` seeded with
/// [`stream_seed`]`(base, index)`.
pub fn derive_stream(base: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(base, index))
}

/// The seed of [`derive_stream`]`(base, index)` — the same
/// xorshift-multiply mixer family as the runner's per-cell and the query
/// suite's per-intermediate derivations, so streams are independent
/// across chunks and of the caller's subsequent draws. The server and the
/// fault layer use it as a plain 64-bit mix of two words.
pub fn stream_seed(base: u64, index: u64) -> u64 {
    let mut h = base ^ 0x2545_F491_4F6C_DD1D;
    h ^= index.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
    h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    h ^ (h >> 32)
}

/// The FNV-1a offset basis, where [`fnv1a`] starts.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte slice: the serve transcript renders it per
/// sample so a diff stays human-sized while still pinning every CSR byte,
/// and the grid and mechanism byte-contract tests pin CSVs and CSRs with
/// it. The multiplier is `0x1000_0000_01b3` (2^44 + 0x1b3), not the
/// standard FNV prime 2^40 + 0x1b3; every transcript and pinned digest was
/// taken with it, so it stays.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// [`fnv1a`] continuing from state `h`, so a digest can run over several
/// slices: `fnv1a_from(fnv1a(a), b) == fnv1a(&[a, b].concat())`.
pub fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
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
    // A worker *is* the parallelism: anything nested runs serial. Chunk
    // claims charge the caller's token, whichever worker runs them.
    spawn_workers(
        workers,
        |_| 1,
        || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= ranges.len() {
                break;
            }
            // Cancelled: stop claiming *quietly* — a scoped panic would be
            // laundered into a payload-free generic by std::thread::scope;
            // the calling thread raises the typed unwind below instead.
            if !cancel::charge_current(1) {
                break;
            }
            assert!(
                slots[i].set(produce(i, ranges[i].clone())).is_ok(),
                "the atomic cursor hands out each chunk once"
            );
        },
    );
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
                let token = cancel::CancelToken::new(Some(limit));
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
    fn chunk_workers_inherit_the_shield() {
        let token = cancel::CancelToken::unlimited();
        cancel::with_token(&token, || {
            cancel::shield_ticks(|| {
                with_parallelism(8, || {
                    par_map_chunks(100, 16, |range, out: &mut Vec<usize>| out.extend(range))
                })
            })
        });
        assert_eq!(token.ticks(), 0, "no chunk worker charges a shielded token");
    }

    #[test]
    fn pool_workers_take_their_share_not_the_callers_budget() {
        // Pool workers run under their share of the pool's budget, not
        // under the caller's: one task takes all 4 threads.
        with_parallelism(1, || {
            assert_eq!(run_pool_collect(4, 1, |_| current_parallelism()), [4]);
        });
    }

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
    fn pool_tasks_see_their_workers_fixed_share() {
        // Inside a task, `current_parallelism` reads its worker's fixed
        // share: one task takes the whole budget of 4, eight tasks over 4
        // workers get 1 thread each, and 5 threads over 2 workers split
        // 3 + 2.
        let share = |budget, tasks| run_pool_collect(budget, tasks, |_| current_parallelism());
        assert_eq!(share(4, 1), [4]);
        assert_eq!(share(4, 8), [1; 8]);
        assert!(share(5, 2).iter().all(|&s| s == 2 || s == 3));
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

    #[test]
    fn fnv1a_from_continues_a_digest() {
        let whole = fnv1a(b"dataset\xffmechanism");
        assert_eq!(fnv1a_from(fnv1a(b"dataset"), b"\xffmechanism"), whole);
        assert_eq!(fnv1a_from(FNV_BASIS, b"dataset\xffmechanism"), whole);
        assert_eq!(fnv1a(b""), FNV_BASIS);
    }
}
