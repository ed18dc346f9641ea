//! Chaos satellite: drive a multi-tenant session under ≥64 seeded fault
//! plans (injected panics, cancellations, and WAL I/O errors) and assert
//! the serving invariants hold under every plan — no tenant ever
//! overdraws, the cache is never poisoned, a WAL failure halts cleanly,
//! and recovery of each chaotic run's log reproduces a byte prefix of the
//! fault-free session.
//!
//! Each plan is armed with `fault::with_plan` around its drive, so it
//! fires only on the arming thread and the workers spawned inside the
//! scope; the tests run concurrently without a lock.

use pgb_core::{GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_par::fault::{self, FaultPlan, INJECTED_MARKER};
use pgb_serve::{GenerateRequest, LogEntry, RequestLog, ServeError, Server, ServerConfig};
use rand::RngCore;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The ε slack `pgb_dp::BudgetAccountant` allows accumulated spends to overshoot by.
const EPS_SLACK: f64 = 1e-9;

const CHAOS_SEEDS: u64 = 64;

struct Stub;

struct StubSynthesis {
    noise: u64,
}

impl GraphGenerator for Stub {
    fn name(&self) -> &'static str {
        "Stub"
    }
    fn measure(
        &self,
        _graph: &Graph,
        _epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        Ok(Box::new(StubSynthesis { noise: rng.next_u64() }))
    }
}

impl PrivateSynthesis for StubSynthesis {
    fn name(&self) -> &'static str {
        "Stub"
    }
    fn epsilon_spent(&self) -> f64 {
        1.0
    }
    fn heap_bytes(&self) -> usize {
        64
    }
    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        let bits = self.noise ^ rng.next_u64();
        let edges = [(0u32, 1u32), (1, 2), (0, 2), (2, 3)];
        Graph::from_edges(
            4,
            edges.iter().enumerate().filter(|(i, _)| bits >> i & 1 == 1).map(|(_, &e)| e),
        )
        .unwrap()
    }
}

/// Tight grants so the chaos script exercises budget rejections alongside
/// the injected faults; `health` is the probe tenant the script never
/// touches.
const TENANTS: [(&str, f64); 4] = [("t0", 2.0), ("t1", 1.0), ("t2", 0.25), ("health", 100.0)];

fn stub_server() -> Server {
    let mut server = Server::with_generators(
        ServerConfig { cache_bytes: 1 << 20, threads: 1, ..ServerConfig::default() },
        vec![Box::new(Stub)],
    );
    server.host_dataset("d", Graph::new(4));
    for (tenant, grant) in TENANTS {
        server.register_tenant(tenant, grant).unwrap();
    }
    server
}

/// 24 requests over three tight-budget tenants: mostly valid, two
/// malformed (unknown dataset / mechanism), a few with a 1-tick deadline
/// (deterministically exceeded), and enough total ε that t1 and t2
/// exhaust mid-script.
fn chaos_log() -> RequestLog {
    (0..24u64)
        .map(|i| {
            let (dataset, mechanism) = match i {
                5 => ("nope", "Stub"),
                11 => ("d", "Missing"),
                _ => ("d", "Stub"),
            };
            LogEntry {
                tenant: format!("t{}", i % 3),
                request: GenerateRequest {
                    dataset: dataset.into(),
                    mechanism: mechanism.into(),
                    epsilon: 0.125 * (1 + (i / 3) % 3) as f64,
                    samples: 2,
                    seed: i / 3,
                    deadline_ticks: u64::from(i % 7 == 3),
                },
            }
        })
        .collect()
}

fn assert_no_overdraw(server: &Server, context: &str) {
    for tenant in server.accountant().tenants() {
        let st = server.accountant().statement(&tenant).unwrap();
        assert!(
            st.consumed <= st.grant + EPS_SLACK,
            "{context}: tenant {tenant} overdrew: consumed {} of grant {}",
            st.consumed,
            st.grant
        );
        assert!(
            (st.consumed + st.remaining - st.grant).abs() < EPS_SLACK,
            "{context}: tenant {tenant} accounting does not balance: {st:?}"
        );
    }
}

fn health_req() -> GenerateRequest {
    GenerateRequest {
        dataset: "d".into(),
        mechanism: "Stub".into(),
        epsilon: 0.1,
        samples: 1,
        seed: 999,
        deadline_ticks: 0,
    }
}

/// The tentpole chaos sweep: every seeded plan upholds every invariant.
#[test]
fn seeded_fault_plans_uphold_serving_invariants() {
    fault::install_quiet_panic_hook();

    let script = chaos_log();
    let reference = stub_server().replay(&script, 1);
    let reference_records = reference.records_text();

    let mut injected_failures = 0usize;
    let mut halted_runs = 0usize;
    for seed in 0..CHAOS_SEEDS {
        let path =
            std::env::temp_dir().join(format!("pgb_chaos_{}_{seed}.wal", std::process::id()));
        let server = stub_server();
        server.attach_wal(&path).unwrap();

        // Sweep the fire rate with the seed: 0‰ runs pin the fault-free
        // baseline inside the same harness, while ~200‰ runs halt almost
        // surely (24 appends × 0.2 ≫ 1 expected WAL fault).
        let plan = FaultPlan { seed, rate_permille: (seed % 5) as u16 * 50 };
        fault::with_plan(plan, || {
            for entry in &script {
                // Submit must never panic out of an injected fault — every
                // failure surfaces as a structured error.
                match server.submit(&entry.tenant, entry.request.clone()) {
                    Err(ServeError::SamplePanicked { .. })
                    | Err(ServeError::MeasurePanicked { .. })
                    | Err(ServeError::Cancelled)
                    | Err(ServeError::WalAppend { .. })
                    | Err(ServeError::Halted) => injected_failures += 1,
                    _ => {}
                }
            }
        });

        // Invariant: chaos never bends the budget accounting.
        assert_no_overdraw(&server, &format!("seed {seed} post-drive"));

        // Invariant: the in-memory log is exactly the script prefix that
        // was durably admitted (a WAL halt cuts it short, never corrupts
        // its order).
        let driven = server.log();
        assert!(driven.len() <= script.len());
        assert_eq!(driven[..], script[..driven.len()], "seed {seed}: log order corrupted");
        // Invariant: recovering the chaotic run's WAL reproduces a byte
        // prefix of the fault-free session. (Recover before the health
        // probe below — the probe appends to this WAL.)
        let recovery = stub_server().recover(&path).unwrap();
        assert!(recovery.corrupt.is_none(), "seed {seed}: no kill ⇒ no torn tail");
        assert!(recovery.divergence.is_none());
        assert_eq!(recovery.recovered, driven.len(), "seed {seed}: WAL ≡ memory log");
        assert!(
            reference_records.starts_with(&recovery.transcript.records_text()),
            "seed {seed}: recovered transcript is not a prefix of the fault-free run"
        );

        if server.is_halted() {
            halted_runs += 1;
            assert!(
                matches!(server.submit("health", health_req()), Err(ServeError::Halted)),
                "seed {seed}: a halted server must refuse new work"
            );
        } else {
            // Invariant: the cache is never poisoned — with faults
            // disarmed the server serves again.
            server
                .submit("health", health_req())
                .unwrap_or_else(|e| panic!("seed {seed}: server unhealthy after chaos: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    // The sweep is only meaningful if the plans actually fired.
    assert!(
        injected_failures > 0,
        "no injected failure surfaced across {CHAOS_SEEDS} seeds at 200‰ — points dead?"
    );
    assert!(halted_runs > 0, "no WAL fault halted a run across {CHAOS_SEEDS} seeds");
    assert!(
        halted_runs < CHAOS_SEEDS as usize,
        "every run halted — the chaos sweep never exercised a full session"
    );
}

/// A simulated worker crash in the pool's claim loop (`exec.claim`)
/// surfaces as a panic out of `replay` — and even then, the sequential
/// admission phase has fully committed, so the accountant stays
/// consistent and a fault-free replay of the same log on a fresh server
/// is unaffected.
#[test]
fn worker_claim_crashes_leave_admissions_consistent() {
    fault::install_quiet_panic_hook();

    let script = chaos_log();
    let mut crashed = 0usize;
    for seed in 100..116u64 {
        let server = stub_server();
        let plan = FaultPlan { seed, rate_permille: 400 };
        let outcome =
            catch_unwind(AssertUnwindSafe(|| fault::with_plan(plan, || server.replay(&script, 4))));

        if let Err(payload) = outcome {
            crashed += 1;
            // Either the injected payload itself (inline execution) or
            // the scope's opaque re-panic (a crashed worker thread).
            let described = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>");
            assert!(
                described.contains(INJECTED_MARKER) || described.contains("scoped thread"),
                "seed {seed}: unexpected panic out of replay: {described}"
            );
        }
        // Crashed or not, phase-1 admission committed every charge.
        assert_no_overdraw(&server, &format!("seed {seed} post-replay"));
    }
    assert!(crashed > 0, "exec.claim at 400‰ never crashed a 4-worker replay");

    // The fault-free replay of the same script is untouched by any of it.
    let clean = stub_server().replay(&script, 4);
    assert_eq!(clean, stub_server().replay(&script, 1));
}
