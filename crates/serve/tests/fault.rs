//! Fault-injection satellite: a mechanism whose `measure` panics must not
//! take the service down with it. The single-flight slot is released, the
//! cache mutex stays unpoisoned, only requests coalesced onto the
//! panicking flight fail (with the admission charge standing — ε left the
//! building when the noise was committed to), concurrent other-key
//! traffic is untouched, and the next identical request starts a fresh
//! flight that can succeed.

use pgb_core::{GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_par::fault::{install_quiet_panic_hook, INJECTED_MARKER};
use pgb_serve::{GenerateRequest, LogEntry, ServeError, Server, ServerConfig};
use rand::RngCore;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Counters shared with the test body.
#[derive(Default)]
struct Counters {
    measures_started: AtomicUsize,
    measures_succeeded: AtomicUsize,
}

/// Panics in `measure` while `fuse > 0` (decrementing it), succeeds after.
struct Faulty {
    counters: Arc<Counters>,
    fuse: AtomicIsize,
    delay: Duration,
}

struct StubSynthesis;

impl PrivateSynthesis for StubSynthesis {
    fn name(&self) -> &'static str {
        "Faulty"
    }
    fn epsilon_spent(&self) -> f64 {
        1.0
    }
    fn heap_bytes(&self) -> usize {
        8
    }
    fn sample(&self, _rng: &mut dyn RngCore) -> Graph {
        Graph::new(2)
    }
}

impl GraphGenerator for Faulty {
    fn name(&self) -> &'static str {
        "Faulty"
    }

    fn measure(
        &self,
        _graph: &Graph,
        _epsilon: f64,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        self.counters.measures_started.fetch_add(1, Ordering::SeqCst);
        // Burn the fuse on *entry* (so an in-flight doomed measure has
        // already claimed its panic before other keys start), but detonate
        // after the delay (so concurrent requests have time to coalesce).
        let doomed = self.fuse.fetch_sub(1, Ordering::SeqCst) > 0;
        std::thread::sleep(self.delay);
        if doomed {
            panic!("{INJECTED_MARKER}: measure");
        }
        self.counters.measures_succeeded.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(StubSynthesis))
    }
}

/// A server with one faulty mechanism (panics `panics` times, then
/// works) and one dataset.
fn faulty_server(panics: isize, delay_ms: u64) -> (Server, Arc<Counters>) {
    install_quiet_panic_hook();
    let counters = Arc::new(Counters::default());
    let gen = Faulty {
        counters: Arc::clone(&counters),
        fuse: AtomicIsize::new(panics),
        delay: Duration::from_millis(delay_ms),
    };
    let mut server = Server::with_generators(
        ServerConfig { cache_bytes: 1 << 20, threads: 0, ..ServerConfig::default() },
        vec![Box::new(gen)],
    );
    server.host_dataset("d", Graph::new(4));
    (server, counters)
}

fn req(seed: u64) -> GenerateRequest {
    GenerateRequest {
        dataset: "d".into(),
        mechanism: "Faulty".into(),
        epsilon: 0.5,
        samples: 1,
        seed,
        deadline_ticks: 0,
    }
}

/// The core fault story: a panicking flight fails its leader and every
/// coalesced waiter with `MeasurePanicked`, the charge stands, the cache
/// is unpoisoned, and the next identical request succeeds on a fresh
/// flight.
#[test]
fn panicking_measure_fails_the_flight_and_releases_the_slot() {
    const K: usize = 4;
    let (server, counters) = faulty_server(1, 150);
    for i in 0..K {
        server.register_tenant(&format!("t{i}"), 5.0).unwrap();
    }

    let barrier = Barrier::new(K);
    let outcomes: Vec<Result<(), ServeError>> = {
        let mut slots: Vec<Option<Result<(), ServeError>>> = (0..K).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    *slot = Some(server.submit(&format!("t{i}"), req(7)).map(|_| ()));
                });
            }
        });
        slots.into_iter().map(|s| s.unwrap()).collect()
    };

    // One measure started, it panicked, and all K requests saw the shared
    // failure — not a hang, not a poison error, not K panics.
    assert_eq!(counters.measures_started.load(Ordering::SeqCst), 1);
    assert_eq!(counters.measures_succeeded.load(Ordering::SeqCst), 0);
    for outcome in &outcomes {
        assert_eq!(
            outcome.as_ref().unwrap_err(),
            &ServeError::MeasurePanicked { mechanism: "Faulty".into() }
        );
    }
    assert_eq!(server.cache().stats().failures, 1);

    // Every admission charge stands: ε was spent when the request was
    // admitted, and a crashed mechanism does not un-spend it.
    for i in 0..K {
        let st = server.accountant().statement(&format!("t{i}")).unwrap();
        assert_eq!(st.consumed, 0.5, "t{i}'s charge survives the panic");
    }

    // The single-flight slot was released and the cache is unpoisoned:
    // the identical request leads a fresh flight, which now succeeds.
    let response = server.submit("t0", req(7)).unwrap();
    assert_eq!(response.graphs.len(), 1);
    assert_eq!(counters.measures_started.load(Ordering::SeqCst), 2, "fresh flight, fresh measure");
    assert_eq!(counters.measures_succeeded.load(Ordering::SeqCst), 1);
    // And from here the key behaves normally: a repeat is a pure hit.
    server.submit("t1", req(7)).unwrap();
    assert_eq!(counters.measures_started.load(Ordering::SeqCst), 2);
}

/// Only the poisoned key's waiters fail: traffic on other keys proceeds
/// while the faulty flight is mid-panic.
#[test]
fn other_keys_are_unaffected_by_a_panicking_flight() {
    let (server, counters) = faulty_server(1, 200);
    server.register_tenant("victim", 5.0).unwrap();
    server.register_tenant("bystander", 5.0).unwrap();

    std::thread::scope(|scope| {
        let server = &server;
        let doomed = scope.spawn(move || server.submit("victim", req(1)).map(|_| ()));
        // Give the doomed flight time to enter its measure, then run
        // other-key traffic to completion while it is still sleeping.
        std::thread::sleep(Duration::from_millis(50));
        // seed 2 is a different cache key: fuse already consumed by the
        // in-flight measure, so this one succeeds.
        let fine = server.submit("bystander", req(2));
        assert!(fine.is_ok(), "other-key request failed: {:?}", fine.err());
        assert_eq!(
            doomed.join().unwrap().unwrap_err(),
            ServeError::MeasurePanicked { mechanism: "Faulty".into() }
        );
    });

    assert_eq!(counters.measures_started.load(Ordering::SeqCst), 2);
    assert_eq!(counters.measures_succeeded.load(Ordering::SeqCst), 1);
    assert_eq!(server.accountant().statement("bystander").unwrap().consumed, 0.5);
}

/// Replay survives an injected panic even at a worker budget of 1: the
/// sole worker catches the panic and goes on claiming, the remaining log
/// entries execute, and the transcript records the failed execution
/// *with* its committed admission charge.
#[test]
fn replay_carries_a_panicking_request_without_losing_its_worker() {
    let (server, counters) = faulty_server(1, 0);
    server.register_tenant("t", 5.0).unwrap();
    let log: Vec<LogEntry> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| LogEntry { tenant: "t".into(), request: req(seed) })
        .collect();

    let transcript = server.replay(&log, 1);
    assert_eq!(counters.measures_started.load(Ordering::SeqCst), 3, "all entries executed");

    // First record: admitted (the charge stands) but failed execution.
    let first = &transcript.records[0];
    assert!(first.admission.is_ok());
    assert_eq!(
        first.samples.as_ref().unwrap().as_ref().unwrap_err(),
        &ServeError::MeasurePanicked { mechanism: "Faulty".into() }
    );
    // Later records: fully served by the same (sole) worker.
    for record in &transcript.records[1..] {
        assert!(record.admission.is_ok());
        assert_eq!(record.samples.as_ref().unwrap().as_ref().unwrap().len(), 1);
    }
    // The transcript's tenant statement shows all three charges.
    assert_eq!(transcript.tenants.len(), 1);
    assert_eq!(transcript.tenants[0].consumed, 1.5);
    assert_eq!(transcript.tenants[0].entries.len(), 3);
}
