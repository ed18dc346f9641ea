//! The single-flight measurement cache.
//!
//! A mechanism's `measure` phase is where all the privacy budget goes and
//! almost all the wall-clock: the noisy dK series, the perturbed
//! dendrogram, the quadtree. Its output — a [`PrivateSynthesis`] — can be
//! sampled arbitrarily often for free (post-processing invariance), which
//! is exactly what a cache wants: expensive to build, cheap to reuse,
//! immutable once built. [`MeasureCache`] is an LRU over `Arc<dyn
//! PrivateSynthesis>` keyed by [`CacheKey`] = (dataset, mechanism, ε-bits,
//! seed), with capacity accounted in the intermediates' own
//! [`PrivateSynthesis::heap_bytes`].
//!
//! ## Single-flight coalescing
//!
//! When k requests for the same key arrive concurrently, running k
//! measures would waste k−1 expensive computations (the tenants were
//! already charged at admission, so this is purely a throughput concern —
//! determinism does not depend on it, because the measure RNG is a pure
//! function of the key). Instead the first arrival becomes the **leader**
//! and runs the measure; the other k−1 become **waiters**, blocking on a
//! per-key condvar until the leader publishes the result — success *and*
//! failure are shared, so a failing mechanism fails every coalesced
//! request at once rather than k times sequentially.
//!
//! ## Fault isolation
//!
//! The leader runs the measure closure with **no lock held** and under
//! `catch_unwind`: a panicking mechanism therefore cannot poison the cache
//! mutex, and its flight is resolved to [`ServeError::MeasurePanicked`] —
//! waiters on that key fail, the single-flight slot is released, the LRU
//! is untouched, and the next request for the same key starts a fresh
//! flight. Failed flights (error or panic) are never negatively cached:
//! transient conditions should be retryable, and the determinism contract
//! doesn't need caching of failures because errors, too, are pure
//! functions of the key.

use crate::error::ServeError;
use pgb_core::PrivateSynthesis;
use pgb_par::cancel::{self, CancelUnwind};
use pgb_par::{fnv1a_from, FNV_BASIS};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The identity of one measurement: everything the measure's bytes depend
/// on. ε is stored as its IEEE-754 bit pattern so the key is `Eq + Hash`
/// and two requests share a measurement only when their budgets are
/// *bit-identical* (the conservative reading — 0.5 and 0.5000000001 are
/// different measurements).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Hosted dataset name.
    pub dataset: String,
    /// Mechanism display name.
    pub mechanism: String,
    /// `epsilon.to_bits()` of the per-request budget.
    pub epsilon_bits: u64,
    /// The request seed the measurement derives from.
    pub seed: u64,
}

impl CacheKey {
    /// Builds the key for a (dataset, mechanism, ε, seed) request.
    pub fn new(dataset: &str, mechanism: &str, epsilon: f64, seed: u64) -> Self {
        Self {
            dataset: dataset.to_string(),
            mechanism: mechanism.to_string(),
            epsilon_bits: epsilon.to_bits(),
            seed,
        }
    }

    /// The ε this key was built from.
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.epsilon_bits)
    }

    /// A 64-bit FNV-1a digest of the key, used as the *base* of the
    /// measurement's derived RNG stream: purely a function of the key, so
    /// every measurement of this key — first flight, post-eviction
    /// re-measure, any worker — draws identical randomness.
    pub fn hash64(&self) -> u64 {
        let fields: [&[u8]; 6] = [
            self.dataset.as_bytes(),
            &[0xff],
            self.mechanism.as_bytes(),
            &[0xff],
            &self.epsilon_bits.to_le_bytes(),
            &self.seed.to_le_bytes(),
        ];
        fields.iter().fold(FNV_BASIS, |h, bytes| fnv1a_from(h, bytes))
    }
}

/// One resident cache entry.
struct Entry {
    synthesis: Arc<dyn PrivateSynthesis>,
    /// `heap_bytes().max(1)` — a zero-byte intermediate still occupies a
    /// slot, and charging it 1 byte keeps the capacity sum strictly
    /// monotone in the entry count.
    bytes: usize,
    /// Logical clock of the last hit (or the insert), for LRU ordering.
    last_used: u64,
}

/// How a measurement flight ended.
enum FlightOutcome {
    /// The leader finished: a shared success or a shared structured error.
    Done(Result<Arc<dyn PrivateSynthesis>, ServeError>),
    /// The leader was *cancelled* (its own tick deadline or a manual
    /// cancel, not a mechanism fault). The leader's deadline says nothing
    /// about the waiters' requests — which request leads is a scheduling
    /// artifact — so waiters retry the whole lookup instead of inheriting
    /// the error.
    /// The retry loop terminates: each request leads at most once, and a
    /// cancelled request bails on its own token before re-waiting.
    Abandoned,
}

/// An in-flight measurement other requests can coalesce onto.
struct Flight {
    /// `None` until the leader resolves it; then the shared outcome.
    result: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

struct Inner {
    entries: HashMap<CacheKey, Entry>,
    inflight: HashMap<CacheKey, Arc<Flight>>,
    /// Monotone logical clock; bumped on every hit and insert.
    clock: u64,
    /// Σ entry bytes currently resident.
    bytes: usize,
}

/// Point-in-time counters, for tests and operational visibility. All
/// counters are cumulative over the cache's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Measure closures actually executed (successfully).
    pub measures: usize,
    /// Requests answered from a resident entry.
    pub hits: usize,
    /// Requests that waited on another request's in-flight measure.
    pub coalesced: usize,
    /// Entries evicted to make room.
    pub evictions: usize,
    /// Measure executions that failed or panicked.
    pub failures: usize,
}

/// The LRU, byte-accounted, single-flight cache over private
/// intermediates. All methods take `&self`; one internal mutex guards the
/// map state and is **never held while a measure runs**.
pub struct MeasureCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    /// How long a waiter coalesces on a flight before giving up with
    /// [`ServeError::FlightTimedOut`] — the guard against a leader that
    /// died without unwinding (`abort`, SIGKILLed thread).
    flight_timeout: Duration,
    measures: AtomicUsize,
    hits: AtomicUsize,
    coalesced: AtomicUsize,
    evictions: AtomicUsize,
    failures: AtomicUsize,
}

impl std::fmt::Debug for MeasureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasureCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl MeasureCache {
    /// A cache holding at most `capacity_bytes` of intermediate heap. A
    /// capacity of 0 still serves single-flight coalescing but retains
    /// nothing (every entry is evicted as soon as it is inserted — the
    /// "always miss" configuration the determinism tests replay under).
    /// Waiters give up on a flight after 30 s; use
    /// [`MeasureCache::with_flight_timeout`] to tune that.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_flight_timeout(capacity_bytes, Duration::from_secs(30))
    }

    /// [`MeasureCache::new`] with an explicit flight timeout.
    pub fn with_flight_timeout(capacity_bytes: usize, flight_timeout: Duration) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                inflight: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            capacity_bytes,
            flight_timeout,
            measures: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Σ `heap_bytes().max(1)` of the resident entries.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").bytes
    }

    /// The cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            measures: self.measures.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// The resident keys with their byte charges, least- to
    /// most-recently-used — the order the evictor would remove them in.
    pub fn snapshot(&self) -> Vec<(CacheKey, usize)> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let mut rows: Vec<(u64, CacheKey, usize)> =
            inner.entries.iter().map(|(k, e)| (e.last_used, k.clone(), e.bytes)).collect();
        rows.sort();
        rows.into_iter().map(|(_, k, b)| (k, b)).collect()
    }

    /// Returns the intermediate for `key`, measuring it with `measure` on
    /// a miss. Concurrent callers with the same key coalesce onto one
    /// measure execution; its outcome (success, error, or panic) is shared
    /// with every coalesced caller. The measure closure runs with no cache
    /// lock held.
    ///
    /// `measure` is `Fn`, not `FnOnce`: if the flight's leader is
    /// *cancelled* (its own deadline — a scheduling artifact from the
    /// waiters' perspective), waiters retry the lookup, and one of them
    /// re-runs the measure as the new leader. Waiters also poll their own
    /// cancel token while coalesced, and give up with
    /// [`ServeError::FlightTimedOut`] after the flight timeout (the
    /// leader-died-without-unwinding case).
    pub fn get_or_measure<F>(
        &self,
        key: &CacheKey,
        measure: F,
    ) -> Result<Arc<dyn PrivateSynthesis>, ServeError>
    where
        F: Fn() -> Result<Box<dyn PrivateSynthesis>, ServeError>,
    {
        loop {
            // Fast path / flight resolution, under the lock.
            let (flight, leads) = {
                let mut inner = self.inner.lock().expect("cache lock poisoned");
                if let Some(entry) = inner.entries.get(key) {
                    let synthesis = Arc::clone(&entry.synthesis);
                    inner.clock += 1;
                    let now = inner.clock;
                    inner.entries.get_mut(key).expect("entry vanished").last_used = now;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(synthesis);
                }
                match inner.inflight.get(key) {
                    Some(flight) => {
                        // Someone else is measuring this key: coalesce.
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        (Arc::clone(flight), false)
                    }
                    None => {
                        // We lead.
                        let flight =
                            Arc::new(Flight { result: Mutex::new(None), cv: Condvar::new() });
                        inner.inflight.insert(key.clone(), Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };

            if leads {
                return self.lead(key, &flight, &measure);
            }
            match self.coalesce(key, &flight) {
                Some(result) => return result,
                None => continue, // the leader abandoned; retry the lookup
            }
        }
    }

    /// Waiter path: blocks on `flight` until it resolves, the waiter's own
    /// cancel token fires, or the flight timeout elapses. `None` means the
    /// leader abandoned the flight and the caller should retry.
    fn coalesce(
        &self,
        key: &CacheKey,
        flight: &Arc<Flight>,
    ) -> Option<Result<Arc<dyn PrivateSynthesis>, ServeError>> {
        let deadline = Instant::now() + self.flight_timeout;
        let mut slot = flight.result.lock().expect("flight lock poisoned");
        loop {
            match &*slot {
                Some(FlightOutcome::Done(result)) => return Some(result.clone()),
                Some(FlightOutcome::Abandoned) => return None,
                None => {}
            }
            if cancel::current_cancelled() {
                drop(slot);
                cancel::bail_if_cancelled();
                unreachable!("a cancelled token always bails");
            }
            let now = Instant::now();
            if now >= deadline {
                // The leader never resolved the flight (e.g. it died
                // without unwinding). Release the single-flight slot so a
                // later request can re-lead — guarded by pointer identity,
                // because another waiter may have released it already and
                // a new flight may be underway.
                drop(slot);
                let mut inner = self.inner.lock().expect("cache lock poisoned");
                if inner.inflight.get(key).is_some_and(|cur| Arc::ptr_eq(cur, flight)) {
                    inner.inflight.remove(key);
                }
                drop(inner);
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Some(Err(ServeError::FlightTimedOut { mechanism: key.mechanism.clone() }));
            }
            // Short slices so a cancellation or timeout is noticed even if
            // the leader never notifies again.
            let wait = (deadline - now).min(Duration::from_millis(50));
            slot = flight.cv.wait_timeout(slot, wait).expect("flight lock poisoned").0;
        }
    }

    /// Leader path: runs the measure with NO lock held, catching panics so
    /// a faulty mechanism cannot poison any cache state, and resolves the
    /// flight for every coalesced waiter. A [`CancelUnwind`] — the
    /// leader's own deadline — abandons the flight (waiters retry) and
    /// resumes unwinding so the leader's request is rejected upstream.
    fn lead<F>(
        &self,
        key: &CacheKey,
        flight: &Arc<Flight>,
        measure: &F,
    ) -> Result<Arc<dyn PrivateSynthesis>, ServeError>
    where
        F: Fn() -> Result<Box<dyn PrivateSynthesis>, ServeError>,
    {
        let outcome: FlightOutcome = match catch_unwind(AssertUnwindSafe(measure)) {
            Ok(Ok(synthesis)) => FlightOutcome::Done(Ok(Arc::from(synthesis))),
            Ok(Err(err)) => FlightOutcome::Done(Err(err)),
            Err(payload) if payload.is::<CancelUnwind>() => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.resolve(key, flight, FlightOutcome::Abandoned);
                resume_unwind(payload);
            }
            Err(_panic) => FlightOutcome::Done(Err(ServeError::MeasurePanicked {
                mechanism: key.mechanism.clone(),
            })),
        };
        let result = match &outcome {
            FlightOutcome::Done(result) => result.clone(),
            FlightOutcome::Abandoned => unreachable!("abandonment resumes unwinding above"),
        };
        if result.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.resolve(key, flight, outcome);
        result
    }

    /// Publishes `outcome` on the leader's own flight and releases the
    /// single-flight slot. On success the entry is inserted under the same
    /// lock acquisition that releases the slot, so no request can observe
    /// "no entry, no flight" for a key that just resolved successfully.
    /// The slot release is pointer-identity-guarded: a timed-out waiter
    /// may already have released it (and a new flight may occupy it).
    fn resolve(&self, key: &CacheKey, flight: &Arc<Flight>, outcome: FlightOutcome) {
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            if let FlightOutcome::Done(Ok(synthesis)) = &outcome {
                self.measures.fetch_add(1, Ordering::Relaxed);
                let bytes = synthesis.heap_bytes().max(1);
                inner.clock += 1;
                let now = inner.clock;
                inner.entries.insert(
                    key.clone(),
                    Entry { synthesis: Arc::clone(synthesis), bytes, last_used: now },
                );
                inner.bytes += bytes;
                self.evict_over_capacity(&mut inner);
            }
            if inner.inflight.get(key).is_some_and(|cur| Arc::ptr_eq(cur, flight)) {
                inner.inflight.remove(key);
            }
        }
        let mut slot = flight.result.lock().expect("flight lock poisoned");
        *slot = Some(outcome);
        flight.cv.notify_all();
    }

    /// Evicts least-recently-used entries until the resident bytes fit the
    /// capacity. Called with the lock held, right after an insert, so the
    /// newest entry can itself be evicted when it alone exceeds capacity.
    fn evict_over_capacity(&self, inner: &mut Inner) {
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("bytes > 0 implies a resident entry");
            let entry = inner.entries.remove(&victim).expect("victim resident");
            inner.bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgb_graph::Graph;
    use rand::RngCore;

    /// A weightless stand-in intermediate for cache-mechanics tests.
    struct Stub {
        bytes: usize,
    }

    impl PrivateSynthesis for Stub {
        fn name(&self) -> &'static str {
            "Stub"
        }
        fn epsilon_spent(&self) -> f64 {
            1.0
        }
        fn heap_bytes(&self) -> usize {
            self.bytes
        }
        fn sample(&self, _rng: &mut dyn RngCore) -> Graph {
            Graph::new(1)
        }
    }

    fn key(name: &str) -> CacheKey {
        CacheKey::new(name, "Stub", 1.0, 7)
    }

    #[test]
    fn key_hash_is_stable_and_field_sensitive() {
        let a = CacheKey::new("er", "TmF", 0.5, 1);
        assert_eq!(a.hash64(), CacheKey::new("er", "TmF", 0.5, 1).hash64());
        assert_eq!(a.epsilon(), 0.5);
        // Every field participates; the 0xff separator keeps ("ab", "c")
        // distinct from ("a", "bc").
        assert_ne!(a.hash64(), CacheKey::new("ba", "TmF", 0.5, 1).hash64());
        assert_ne!(a.hash64(), CacheKey::new("er", "DGG", 0.5, 1).hash64());
        assert_ne!(a.hash64(), CacheKey::new("er", "TmF", 1.0, 1).hash64());
        assert_ne!(a.hash64(), CacheKey::new("er", "TmF", 0.5, 2).hash64());
        assert_ne!(
            CacheKey::new("ab", "c", 0.5, 1).hash64(),
            CacheKey::new("a", "bc", 0.5, 1).hash64()
        );
    }

    #[test]
    fn hit_after_miss_runs_measure_once() {
        let cache = MeasureCache::new(1 << 20);
        let k = key("er");
        for _ in 0..3 {
            cache.get_or_measure(&k, || Ok(Box::new(Stub { bytes: 100 }) as Box<_>)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.measures, stats.hits), (1, 2));
        assert_eq!(cache.resident_bytes(), 100);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = MeasureCache::new(250);
        for name in ["a", "b"] {
            cache
                .get_or_measure(&key(name), || Ok(Box::new(Stub { bytes: 100 }) as Box<_>))
                .unwrap();
        }
        // Touch "a" so "b" is now the LRU entry.
        cache.get_or_measure(&key("a"), || panic!("resident")).unwrap();
        // Inserting "c" (100 bytes) pushes the total to 300 > 250: "b" goes.
        cache.get_or_measure(&key("c"), || Ok(Box::new(Stub { bytes: 100 }) as Box<_>)).unwrap();
        let resident: Vec<String> = cache.snapshot().into_iter().map(|(k, _)| k.dataset).collect();
        assert_eq!(resident, vec!["a".to_string(), "c".to_string()]);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_bytes(), 200);
    }

    #[test]
    fn zero_byte_intermediates_are_charged_one_byte() {
        let cache = MeasureCache::new(3);
        for name in ["a", "b", "c", "d"] {
            cache.get_or_measure(&key(name), || Ok(Box::new(Stub { bytes: 0 }) as Box<_>)).unwrap();
        }
        assert_eq!(cache.resident_bytes(), 3);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_retains_nothing_but_still_serves() {
        let cache = MeasureCache::new(0);
        for _ in 0..2 {
            cache
                .get_or_measure(&key("er"), || Ok(Box::new(Stub { bytes: 10 }) as Box<_>))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.measures, stats.hits, stats.evictions), (2, 0, 2));
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = MeasureCache::new(1 << 20);
        let k = key("er");
        let err = cache
            .get_or_measure(&k, || {
                Err(ServeError::MeasureFailed { mechanism: "Stub".into(), reason: "no".into() })
            })
            .err()
            .expect("measure error propagates");
        assert_eq!(err.tag(), "measure-failed");
        // The key is retryable and the retry succeeds.
        cache.get_or_measure(&k, || Ok(Box::new(Stub { bytes: 1 }) as Box<_>)).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.failures, stats.measures), (1, 1));
    }
}
