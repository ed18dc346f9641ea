//! WAL corruption satellite: arbitrary byte flips and truncations of a
//! valid log must yield a clean-prefix recovery or a structured
//! [`WalCorrupt`] report — never a panic — and recovery must never
//! restore more budget than the surviving admissions actually charged.

use pgb_core::{GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_serve::{read_contents, GenerateRequest, Server, ServerConfig, Wal, WAL_MAGIC};
use proptest::prelude::*;
use rand::RngCore;

/// The ε slack `pgb_dp::BudgetAccountant` allows accumulated spends to overshoot by.
const EPS_SLACK: f64 = 1e-9;

/// A fast deterministic stand-in mechanism so WAL tests never pay real
/// synthesis costs.
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

const TENANTS: [(&str, f64); 2] = [("alice", 2.0), ("bob", 0.75)];

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

fn req(seed: u64, epsilon: f64) -> GenerateRequest {
    GenerateRequest {
        dataset: "d".into(),
        mechanism: "Stub".into(),
        epsilon,
        samples: 2,
        seed,
        deadline_ticks: 0,
    }
}

/// Drives a short multi-tenant session through the WAL-backed live path
/// and returns the log file's bytes (the session includes a rejected
/// over-budget request — rejections are logged and must recover too).
fn driven_wal_bytes(path: &std::path::Path) -> Vec<u8> {
    let server = stub_server();
    server.attach_wal(path).unwrap();
    let session: [(&str, u64, f64); 6] = [
        ("alice", 1, 0.5),
        ("bob", 2, 0.5),
        ("alice", 3, 0.25),
        ("bob", 4, 0.5), // rejected: bob has 0.25 left
        ("alice", 1, 0.5),
        ("alice", 5, 0.125),
    ];
    for (tenant, seed, eps) in session {
        let _ = server.submit(tenant, req(seed, eps));
    }
    std::fs::read(path).unwrap()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pgb_wal_test_{tag}_{}.wal", std::process::id()))
}

#[test]
fn driven_wal_recovers_byte_identically() {
    let path = temp_path("clean");
    let bytes = driven_wal_bytes(&path);
    assert_eq!(bytes[..8], WAL_MAGIC);
    let contents = read_contents(&bytes);
    assert!(contents.corrupt.is_none());
    assert_eq!(contents.entries.len(), 6, "every submit (rejected too) is logged");

    // A fresh server recovers the identical transcript the live session's
    // log replays to.
    let recovery = stub_server().recover(&path).unwrap();
    assert_eq!(recovery.recovered, 6);
    assert!(recovery.corrupt.is_none() && recovery.divergence.is_none());
    let reference = stub_server().replay(&contents.entries, 1);
    assert_eq!(recovery.transcript, reference);
    std::fs::remove_file(&path).ok();
}

proptest! {
    /// Flipping any byte of a valid log never panics the parser, always
    /// yields a prefix of the original admissions, and always reports the
    /// damage (every byte is covered by the magic, a header, or a CRC).
    #[test]
    fn byte_flips_parse_to_a_reported_clean_prefix(
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let path = temp_path("flip_pure");
        let original = driven_wal_bytes(&path);
        std::fs::remove_file(&path).ok();
        let reference = read_contents(&original);

        let mut bytes = original.clone();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask;

        let contents = read_contents(&bytes);
        prop_assert!(contents.corrupt.is_some(), "flip at {pos} went unreported");
        prop_assert!(contents.entries.len() <= reference.entries.len());
        prop_assert_eq!(
            &contents.entries[..],
            &reference.entries[..contents.entries.len()],
            "surviving admissions must be an exact prefix"
        );
        prop_assert!(contents.clean_len <= bytes.len() as u64);
    }

    /// Truncating a valid log at any length parses to a clean prefix of
    /// the original admissions; a mid-record cut is reported.
    #[test]
    fn truncations_parse_to_a_clean_prefix(len_frac in 0.0f64..1.0) {
        let path = temp_path("trunc_pure");
        let original = driven_wal_bytes(&path);
        std::fs::remove_file(&path).ok();
        let reference = read_contents(&original);

        let cut = (original.len() as f64 * len_frac) as usize;
        let contents = read_contents(&original[..cut]);
        prop_assert!(contents.entries.len() <= reference.entries.len());
        prop_assert_eq!(
            &contents.entries[..],
            &reference.entries[..contents.entries.len()],
            "surviving admissions must be an exact prefix"
        );
        if contents.clean_len < cut as u64 {
            prop_assert!(contents.corrupt.is_some(), "mid-record cut at {cut} unreported");
        }
    }

    /// Full recovery path over a corrupted file: `Server::recover` never
    /// panics, never over-restores a tenant past its grant, and the
    /// recovered transcript renders to a byte prefix of the uninterrupted
    /// session's record text.
    #[test]
    fn recovery_from_corruption_never_over_restores(
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let tag = format!("flip_{}_{}", (pos_frac * 1e6) as u64, mask);
        let path = temp_path(&tag);
        let original = driven_wal_bytes(&path);
        let reference_records =
            stub_server().replay(&read_contents(&original).entries, 1).records_text();

        let mut bytes = original.clone();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        let recovery = stub_server().recover(&path).unwrap();
        prop_assert!(recovery.corrupt.is_some());
        for t in &recovery.transcript.tenants {
            prop_assert!(
                t.consumed <= t.grant + EPS_SLACK,
                "tenant {} over-restored: consumed {} of grant {}",
                t.tenant, t.consumed, t.grant
            );
            prop_assert!((t.consumed + t.remaining - t.grant).abs() < EPS_SLACK);
        }
        let recovered_records = recovery.transcript.records_text();
        prop_assert!(
            reference_records.starts_with(&recovered_records),
            "recovered records are not a byte prefix of the uninterrupted session"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn recovered_wal_keeps_accepting_appends() {
    // After recovery from a torn tail the WAL must be positioned to
    // append: new submits extend the truncated log cleanly.
    let path = temp_path("resume");
    let original = driven_wal_bytes(&path);
    // Tear mid-way through the last record.
    std::fs::write(&path, &original[..original.len() - 5]).unwrap();

    let server = stub_server();
    let recovery = server.recover(&path).unwrap();
    assert_eq!(recovery.recovered, 5, "the torn sixth admission drops");
    assert!(recovery.corrupt.is_some());
    server.submit("alice", req(9, 0.125)).unwrap();

    let contents = Wal::read(&path).unwrap();
    assert!(contents.corrupt.is_none(), "post-recovery appends start at the truncation");
    assert_eq!(contents.entries.len(), 6);
    assert_eq!(contents.entries[5].request.seed, 9);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointed_wal_recovers_and_verifies() {
    let path = temp_path("ckpt");
    let server = {
        let mut server = Server::with_generators(
            ServerConfig {
                cache_bytes: 1 << 20,
                threads: 1,
                wal_checkpoint_every: 2,
                ..ServerConfig::default()
            },
            vec![Box::new(Stub)],
        );
        server.host_dataset("d", Graph::new(4));
        for (tenant, grant) in TENANTS {
            server.register_tenant(tenant, grant).unwrap();
        }
        server
    };
    server.attach_wal(&path).unwrap();
    for seed in 0..5 {
        let _ = server.submit("alice", req(seed, 0.25));
    }
    let contents = Wal::read(&path).unwrap();
    assert_eq!(contents.entries.len(), 5);
    assert_eq!(contents.checkpoints.len(), 2, "checkpoints after admissions 2 and 4");

    let recovery = stub_server().recover(&path).unwrap();
    assert_eq!(recovery.recovered, 5);
    assert!(recovery.divergence.is_none(), "checkpoints agree with the admission fold");

    // Checkpoint verification must catch an accountant state that cannot
    // have produced the snapshots. Forging the checkpoint bytes in-file
    // would be defeated by the CRC, so diverge the *fold* instead:
    // recover on a server whose alice grant differs from the one the
    // checkpoints were cut against.
    let mut wrong = Server::with_generators(
        ServerConfig { cache_bytes: 1 << 20, threads: 1, ..ServerConfig::default() },
        vec![Box::new(Stub)],
    );
    wrong.host_dataset("d", Graph::new(4));
    wrong.register_tenant("alice", 1.25).unwrap(); // was 2.0
    wrong.register_tenant("bob", 0.75).unwrap();
    let recovery = wrong.recover(&path).unwrap();
    assert!(
        recovery.divergence.is_some(),
        "a grant mismatch must surface as checkpoint divergence"
    );
    std::fs::remove_file(&path).ok();
}
