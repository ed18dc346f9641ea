//! The server: admission → budget charge → cached measure → samples, and
//! the deterministic request-log replay that tests pin their transcripts
//! on. With a WAL attached ([`Server::attach_wal`]), every admission is
//! durably logged before its charge lands, and [`Server::recover`]
//! rebuilds a crashed server's accountants and transcript from the log.

use crate::accountant::{BudgetStatement, TenantAccountant, TenantStatement};
use crate::cache::{CacheKey, MeasureCache};
use crate::error::ServeError;
use crate::wal::{Wal, WalContents, WalCorrupt};
use pgb_core::fault;
use pgb_core::{GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_par::cancel::{self, CancelCause, CancelToken, CancelUnwind};
use pgb_par::{derive_stream, fnv1a};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// What a tenant asks for: `samples` synthetic graphs of `dataset` under
/// `mechanism` at privacy budget `epsilon`, seeded by `seed`.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateRequest {
    /// Hosted dataset to synthesize.
    pub dataset: String,
    /// Mechanism display name (as in [`pgb_core::standard_suite`]).
    pub mechanism: String,
    /// ε charged to the tenant at admission.
    pub epsilon: f64,
    /// Synthetic graphs to construct (≥ 1).
    pub samples: usize,
    /// Request seed; part of the measurement's cache identity.
    pub seed: u64,
    /// Work-tick deadline (0 ⇒ unlimited). Ticks are deterministic units —
    /// chunk claims in `pgb-par` plus one per sample — so a
    /// [`ServeError::DeadlineExceeded`] rejection is byte-identical at any
    /// thread count. Part of the request's logged identity.
    pub deadline_ticks: u64,
}

/// One line of a request log: who asked for what, in arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// The requesting tenant.
    pub tenant: String,
    /// The request.
    pub request: GenerateRequest,
}

/// An ordered request log — the replayable record of a serving session.
pub type RequestLog = Vec<LogEntry>;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Measurement-cache capacity in `heap_bytes`.
    pub cache_bytes: usize,
    /// Default worker-thread budget (0 ⇒ the machine's available
    /// parallelism). [`Server::replay`] takes an explicit worker count —
    /// the determinism contract is *about* varying it.
    pub threads: usize,
    /// How long a coalesced waiter waits on a measurement flight before
    /// giving up with [`ServeError::FlightTimedOut`]. Guards against a
    /// leader killed by `abort` (not unwind); wall-clock, so outside the
    /// determinism contract.
    pub flight_timeout: Duration,
    /// Optional wall-clock deadline applied to every request's execution.
    /// `None` (the default) keeps the server fully deterministic; `Some`
    /// trades that for bounded latency in real deployments
    /// ([`ServeError::Cancelled`] rejections are *not* replay-stable).
    pub wall_deadline: Option<Duration>,
    /// Append an accountant checkpoint to the WAL every this many
    /// admissions (0 ⇒ never). Checkpoints are verification records:
    /// recovery cross-checks them against the replayed admission fold.
    pub wal_checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // 64 MiB of intermediates, machine-sized thread budget, generous
        // flight timeout, deterministic (tick-only) deadlines, no
        // checkpoint cadence until a WAL is attached and tuned.
        Self {
            cache_bytes: 64 << 20,
            threads: 0,
            flight_timeout: Duration::from_secs(30),
            wall_deadline: None,
            wal_checkpoint_every: 0,
        }
    }
}

/// A live response: the admission statement plus the sampled graphs.
#[derive(Debug)]
pub struct Response {
    /// The request's log index (its identity in the transcript).
    pub id: u64,
    /// The committed admission charge.
    pub statement: BudgetStatement,
    /// The synthetic graphs, in sample order.
    pub graphs: Vec<Graph>,
}

/// One request's transcript line: the admission outcome and — when
/// admitted — the execution outcome. The two are separate because a
/// charge, once committed, stands even if the mechanism then fails: a
/// record can show an admitted charge *and* a failed execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseRecord {
    /// Log index of the request.
    pub id: u64,
    /// The requesting tenant.
    pub tenant: String,
    /// The request itself.
    pub request: GenerateRequest,
    /// Admission outcome: the committed charge, or the rejection.
    pub admission: Result<BudgetStatement, ServeError>,
    /// Execution outcome for admitted requests (`None` when rejected):
    /// CSR byte serializations of the samples, or the measure failure.
    pub samples: Option<Result<Vec<Vec<u8>>, ServeError>>,
}

/// The full deterministic output of a replay: per-request records in log
/// order plus the final per-tenant budget statements. Two transcripts are
/// byte-comparable with `==` (CSR bytes included) or diffable as text.
#[derive(Clone, Debug, PartialEq)]
pub struct Transcript {
    /// One record per log entry, in log order.
    pub records: Vec<ResponseRecord>,
    /// Final audit statements, sorted by tenant name.
    pub tenants: Vec<TenantStatement>,
}

/// The generation service: hosted datasets, a mechanism suite, the
/// concurrent tenant accountant, and the single-flight measurement cache.
/// All request paths take `&self`, so one server instance is shared
/// freely across worker threads.
pub struct Server {
    datasets: HashMap<String, Graph>,
    generators: Vec<Box<dyn GraphGenerator>>,
    accountant: TenantAccountant,
    cache: MeasureCache,
    config: ServerConfig,
    /// The live request log: arrival order at this lock *is* log order,
    /// and admission happens under it so budget statements are a pure
    /// function of the log prefix (determinism invariant 1).
    live: Mutex<RequestLog>,
    /// The durable admission log, when attached. Appended (and fsynced)
    /// under the `live` lock *before* the in-memory admit, so the WAL is
    /// always a prefix-accurate image of `live`.
    wal: Mutex<Option<Wal>>,
    /// Latched after a WAL failure: the in-memory state is ahead of (or
    /// ambiguous with) the durable log, so no further request may be
    /// admitted until the operator recovers from the WAL.
    halted: AtomicBool,
}

impl Server {
    /// An empty server with the standard PGB mechanism suite.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_generators(config, pgb_core::standard_suite())
    }

    /// A server with a custom mechanism suite (tests inject recording and
    /// faulty generators through this).
    pub fn with_generators(config: ServerConfig, generators: Vec<Box<dyn GraphGenerator>>) -> Self {
        Self {
            datasets: HashMap::new(),
            generators,
            accountant: TenantAccountant::new(),
            cache: MeasureCache::with_flight_timeout(config.cache_bytes, config.flight_timeout),
            config,
            live: Mutex::new(Vec::new()),
            wal: Mutex::new(None),
            halted: AtomicBool::new(false),
        }
    }

    /// Hosts `graph` under `name` (replacing any previous dataset of that
    /// name). Datasets are fixed before serving starts.
    pub fn host_dataset(&mut self, name: &str, graph: Graph) {
        self.datasets.insert(name.to_string(), graph);
    }

    /// Registers a tenant with a total ε grant.
    pub fn register_tenant(&self, tenant: &str, epsilon: f64) -> Result<(), ServeError> {
        self.accountant.register(tenant, epsilon)
    }

    /// The tenant accountant (audit statements, test assertions).
    pub fn accountant(&self) -> &TenantAccountant {
        &self.accountant
    }

    /// The measurement cache (stats, snapshots).
    pub fn cache(&self) -> &MeasureCache {
        &self.cache
    }

    /// A copy of the live request log (admitted *and* rejected requests,
    /// in arrival order) — feed it to [`Server::replay`].
    pub fn log(&self) -> RequestLog {
        self.live.lock().expect("request log poisoned").clone()
    }

    /// Validates `req` against the hosted datasets and mechanism suite.
    /// Runs **before** the budget charge so an invalid request never costs
    /// its tenant anything.
    fn validate(&self, req: &GenerateRequest) -> Result<(), ServeError> {
        if !self.datasets.contains_key(&req.dataset) {
            return Err(ServeError::UnknownDataset(req.dataset.clone()));
        }
        if !self.generators.iter().any(|g| g.name() == req.mechanism) {
            return Err(ServeError::UnknownMechanism(req.mechanism.clone()));
        }
        if !(req.epsilon > 0.0 && req.epsilon.is_finite()) {
            return Err(ServeError::InvalidEpsilon(req.epsilon));
        }
        if req.samples == 0 {
            return Err(ServeError::InvalidSamples);
        }
        Ok(())
    }

    /// Admission for request `id` against an explicit accountant:
    /// validation, then the labelled ε charge. Purely sequential
    /// arithmetic — callers serialize admissions in log order. Factored
    /// over the accountant so recovery can fold the same admission
    /// function over a *scratch* accountant when verifying checkpoints.
    fn admit_against(
        &self,
        accountant: &TenantAccountant,
        id: u64,
        tenant: &str,
        req: &GenerateRequest,
    ) -> Result<BudgetStatement, ServeError> {
        self.validate(req)?;
        let label = format!(
            "req{id:05} {}/{} ε={} seed={}",
            req.dataset, req.mechanism, req.epsilon, req.seed
        );
        accountant.spend(tenant, label, req.epsilon)
    }

    /// [`Server::admit_against`] on the server's own accountant.
    fn admit(
        &self,
        id: u64,
        tenant: &str,
        req: &GenerateRequest,
    ) -> Result<BudgetStatement, ServeError> {
        self.admit_against(&self.accountant, id, tenant, req)
    }

    /// Executes an admitted request: cached single-flight measure, then
    /// the request's own sample streams. The measure RNG depends only on
    /// the cache key (determinism invariant 2); sample `j` of request `id`
    /// runs on `derive_stream(mix(key, id), j)` (invariant 3). Each sample
    /// costs one work tick (plus whatever chunked passes the synthesis
    /// runs internally); a tick-deadline crossing unwinds with
    /// [`CancelUnwind`] and is classified by [`Server::execute_guarded`].
    fn execute(&self, id: u64, req: &GenerateRequest) -> Result<Vec<Graph>, ServeError> {
        let key = CacheKey::new(&req.dataset, &req.mechanism, req.epsilon, req.seed);
        let synthesis = self.measure_cached(&key)?;
        let sample_base = mix64(key.hash64(), id);
        let mut graphs = Vec::with_capacity(req.samples);
        for j in 0..req.samples {
            cancel::checkpoint(1);
            fault::point("serve.sample", &[fault::FaultAction::Panic, fault::FaultAction::Cancel]);
            graphs.push(synthesis.sample(&mut derive_stream(sample_base, j as u64)));
        }
        Ok(graphs)
    }

    /// The cache lookup + measure closure for `key`. Split out so the
    /// fault-injection tests can reason about it: the closure runs with no
    /// lock held and its panics resolve to [`ServeError::MeasurePanicked`].
    ///
    /// The measure runs under [`cancel::shield_ticks`]: which request
    /// happens to lead a flight is a scheduling artifact, so the leader
    /// must not bill the measure's internal chunk claims to its own tick
    /// deadline (the shield still honors wall clocks and cancellations).
    fn measure_cached(&self, key: &CacheKey) -> Result<Arc<dyn PrivateSynthesis>, ServeError> {
        self.cache.get_or_measure(key, || {
            fault::point("cache.measure", &[fault::FaultAction::Panic, fault::FaultAction::Cancel]);
            let generator = self
                .generators
                .iter()
                .find(|g| g.name() == key.mechanism)
                .expect("mechanism validated at admission");
            let graph = self.datasets.get(&key.dataset).expect("dataset validated at admission");
            // The measure stream derives from the key alone: whichever
            // request leads the flight, and however often an eviction
            // forces a re-measure, the intermediate's bytes are identical.
            let mut rng = derive_stream(key.hash64(), u64::MAX);
            cancel::shield_ticks(|| {
                generator.measure(graph, key.epsilon(), &mut rng).map_err(|e| {
                    ServeError::MeasureFailed {
                        mechanism: key.mechanism.clone(),
                        reason: e.to_string(),
                    }
                })
            })
        })
    }

    /// [`Server::execute`] under the request's cancel token, with every
    /// escaping unwind classified into a structured error: a
    /// [`CancelUnwind`] whose cause is the tick budget becomes
    /// [`ServeError::DeadlineExceeded`] (carrying the *declared* budget —
    /// the consumed count is scheduling-dependent and never leaks into the
    /// transcript), any other cancellation becomes
    /// [`ServeError::Cancelled`], and a genuine panic becomes
    /// [`ServeError::SamplePanicked`]. The admission charge stands in every
    /// case (conservative DP).
    fn execute_guarded(&self, id: u64, req: &GenerateRequest) -> Result<Vec<Graph>, ServeError> {
        let token = CancelToken::new(
            (req.deadline_ticks != 0).then_some(req.deadline_ticks),
            self.config.wall_deadline,
        );
        let outcome = cancel::with_token(&token, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(id, req)))
        });
        match outcome {
            Ok(result) => result,
            Err(payload) if payload.is::<CancelUnwind>() => match token.cause() {
                Some(CancelCause::Ticks) => {
                    Err(ServeError::DeadlineExceeded { ticks: req.deadline_ticks })
                }
                _ => Err(ServeError::Cancelled),
            },
            Err(_) => Err(ServeError::SamplePanicked { mechanism: req.mechanism.clone() }),
        }
    }

    /// Live one-request path: appends to the log and admits under the log
    /// lock (arrival order = log order = charge order), then executes
    /// outside it. Rejected requests are logged too — a replay must
    /// reproduce their rejections.
    ///
    /// With a WAL attached, the admission is durably appended (and
    /// fsynced) *before* the in-memory charge: a crash between the two
    /// re-derives the charge at recovery, never forgets it. A WAL append
    /// failure rejects the request without logging it anywhere and halts
    /// the server — the durable log and the in-memory log never diverge.
    pub fn submit(&self, tenant: &str, req: GenerateRequest) -> Result<Response, ServeError> {
        if self.halted.load(Ordering::SeqCst) {
            return Err(ServeError::Halted);
        }
        let (id, admission) = {
            let mut live = self.live.lock().expect("request log poisoned");
            let id = live.len() as u64;
            let entry = LogEntry { tenant: tenant.to_string(), request: req.clone() };
            if let Some(wal) = self.wal.lock().expect("wal lock poisoned").as_mut() {
                if let Err(e) = wal.append_admission(id, &entry) {
                    self.halted.store(true, Ordering::SeqCst);
                    return Err(ServeError::WalAppend { reason: e.to_string() });
                }
            }
            let admission = self.admit(id, tenant, &req);
            live.push(entry);
            let every = self.config.wal_checkpoint_every;
            if every != 0 && (id + 1).is_multiple_of(every) {
                let snapshot = self.accountant.encode_snapshot();
                if let Some(wal) = self.wal.lock().expect("wal lock poisoned").as_mut() {
                    if wal.append_checkpoint(id + 1, &snapshot).is_err() {
                        // The admission itself is durable; only the
                        // verification snapshot failed. Halt new traffic,
                        // let this request finish.
                        self.halted.store(true, Ordering::SeqCst);
                    }
                }
            }
            (id, admission)
        };
        let statement = admission?;
        let graphs = self.execute_guarded(id, &req)?;
        Ok(Response { id, statement, graphs })
    }

    /// Replays `log` over `threads` workers (0 ⇒ available parallelism)
    /// and returns the transcript. Byte-identical at **any** worker count:
    ///
    /// 1. admissions fold sequentially over the log (charges and
    ///    rejections are functions of the log prefix);
    /// 2. admitted requests execute in parallel on the shared elastic
    ///    worker/claim loop ([`pgb_core::exec::run_elastic`]), writing
    ///    into per-request slots;
    /// 3. records assemble in log order.
    ///
    /// The caller provides a server whose tenants are freshly registered;
    /// replay charges them exactly as the original session did.
    pub fn replay(&self, log: &RequestLog, threads: usize) -> Transcript {
        // Phase 1 — sequential admission in log order.
        let admissions: Vec<Result<BudgetStatement, ServeError>> = log
            .iter()
            .enumerate()
            .map(|(id, entry)| self.admit(id as u64, &entry.tenant, &entry.request))
            .collect();

        // Phase 2 — parallel execution of the admitted requests.
        let admitted: Vec<usize> = (0..log.len()).filter(|&i| admissions[i].is_ok()).collect();
        let slots: Vec<OnceLock<Result<Vec<Vec<u8>>, ServeError>>> =
            admitted.iter().map(|_| OnceLock::new()).collect();
        pgb_core::exec::run_elastic(threads, admitted.len(), |task| {
            let i = admitted[task];
            let result = self
                .execute_guarded(i as u64, &log[i].request)
                .map(|graphs| graphs.iter().map(csr_bytes).collect());
            slots[task].set(result).expect("task executed twice");
        });

        // Phase 3 — assemble records in log order.
        let mut executed = slots.into_iter();
        let records = log
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let admission = admissions[i].clone();
                let samples = admission.is_ok().then(|| {
                    executed
                        .next()
                        .expect("one slot per admitted request")
                        .into_inner()
                        .expect("admitted request executed")
                });
                ResponseRecord {
                    id: i as u64,
                    tenant: entry.tenant.clone(),
                    request: entry.request.clone(),
                    admission,
                    samples,
                }
            })
            .collect();

        let tenants = self
            .accountant
            .tenants()
            .into_iter()
            .map(|t| self.accountant.statement(&t).expect("listed tenant exists"))
            .collect();

        Transcript { records, tenants }
    }

    /// Whether the server latched into the halted state after a WAL
    /// failure.
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// Attaches a *fresh* WAL at `path` (truncating any previous file).
    /// Must be called before the first request — a WAL attached mid-session
    /// would miss the admissions already in memory.
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let live = self.live.lock().expect("request log poisoned");
        assert!(live.is_empty(), "attach_wal requires a server with no admitted requests");
        let wal = Wal::create(path.as_ref())
            .map_err(|e| ServeError::WalAppend { reason: e.to_string() })?;
        *self.wal.lock().expect("wal lock poisoned") = Some(wal);
        Ok(())
    }

    /// Rebuilds this (fresh, tenant-registered) server from the WAL at
    /// `path`: parses the log, truncates any torn tail, verifies every
    /// embedded accountant checkpoint against a replayed admission fold,
    /// replays the clean admission prefix through the ordinary replay
    /// machinery (byte-identical transcript, by the determinism contract),
    /// installs the recovered log as the live log, and re-attaches the WAL
    /// positioned to append. The caller re-registers tenants with their
    /// original grants first, exactly as for [`Server::replay`].
    pub fn recover(&self, path: impl AsRef<Path>) -> Result<Recovery, ServeError> {
        assert!(
            self.live.lock().expect("request log poisoned").is_empty(),
            "recover requires a server with no admitted requests"
        );
        let (wal, contents) = Wal::recover(path.as_ref())
            .map_err(|e| ServeError::WalAppend { reason: e.to_string() })?;
        let divergence = self.verify_checkpoints(&contents);
        let transcript = self.replay(&contents.entries, self.config.threads);
        *self.live.lock().expect("request log poisoned") = contents.entries.clone();
        *self.wal.lock().expect("wal lock poisoned") = Some(wal);
        Ok(Recovery {
            transcript,
            recovered: contents.entries.len(),
            corrupt: contents.corrupt,
            divergence,
        })
    }

    /// Folds the WAL's admissions over a scratch accountant (same grants
    /// as this server's tenants) and compares its byte snapshot against
    /// every checkpoint record at that checkpoint's admission count.
    /// `Some(report)` on the first mismatch — a WAL whose snapshots and
    /// admissions disagree is surfaced, never silently trusted.
    fn verify_checkpoints(&self, contents: &WalContents) -> Option<String> {
        if contents.checkpoints.is_empty() {
            return None;
        }
        let scratch = TenantAccountant::new();
        for name in self.accountant.tenants() {
            let grant = self.accountant.statement(&name).expect("listed tenant exists").grant;
            scratch.register(&name, grant).expect("fresh scratch tenant registers");
        }
        let mismatch = |cp: &crate::wal::WalCheckpoint| -> Option<String> {
            (scratch.encode_snapshot() != cp.tenants).then(|| {
                format!(
                    "checkpoint at {} admissions does not match the replayed accountant state",
                    cp.next_id
                )
            })
        };
        let mut checkpoints = contents.checkpoints.iter().peekable();
        for (id, entry) in contents.entries.iter().enumerate() {
            while let Some(cp) = checkpoints.peek() {
                if cp.next_id != id as u64 {
                    break;
                }
                if let Some(report) = mismatch(cp) {
                    return Some(report);
                }
                checkpoints.next();
            }
            let _ = self.admit_against(&scratch, id as u64, &entry.tenant, &entry.request);
        }
        checkpoints.find_map(mismatch)
    }
}

/// What [`Server::recover`] yields: the replayed transcript plus the
/// structured story of what the log held.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The transcript of the recovered admission prefix — byte-identical
    /// to the corresponding prefix of the crashed session's transcript.
    pub transcript: Transcript,
    /// Admissions recovered from the clean prefix.
    pub recovered: usize,
    /// The corruption report, if the log had a torn or damaged tail.
    pub corrupt: Option<WalCorrupt>,
    /// `Some(report)` if an embedded checkpoint disagreed with the
    /// replayed admission fold.
    pub divergence: Option<String>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("datasets", &self.datasets.len())
            .field("generators", &self.generators.len())
            .field("config", &self.config)
            .finish()
    }
}

/// The same xorshift-multiply mixer family as [`derive_stream`], used to
/// combine a cache key's digest with a request id into the base of that
/// request's private sample-stream family.
fn mix64(base: u64, index: u64) -> u64 {
    let mut h = base ^ 0x2545_F491_4F6C_DD1D;
    h ^= index.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
    h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    h ^= h >> 32;
    h
}

/// Canonical byte serialization of a graph's CSR: a `u64` LE offsets
/// length, the `u32` LE offsets, then the `u32` LE neighbor lists. Two
/// graphs are identical iff their `csr_bytes` are.
pub fn csr_bytes(graph: &Graph) -> Vec<u8> {
    let (offsets, neighbors) = graph.csr();
    let mut out = Vec::with_capacity(8 + 4 * (offsets.len() + neighbors.len()));
    out.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
    for &o in offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for &n in neighbors {
        out.extend_from_slice(&n.to_le_bytes());
    }
    out
}

impl Transcript {
    /// Renders only the per-record blocks, no tenant footer. Because
    /// records render independently in log order, the rendering of a log
    /// *prefix* is a byte prefix of the full log's rendering — which is
    /// exactly what the crash-recovery checks diff (`head -c` against the
    /// uninterrupted run).
    pub fn records_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let q = &r.request;
            let _ = write!(
                out,
                "req {:05} tenant={} {}/{} ε={} samples={} seed={}",
                r.id, r.tenant, q.dataset, q.mechanism, q.epsilon, q.samples, q.seed
            );
            if q.deadline_ticks != 0 {
                let _ = write!(out, " ticks={}", q.deadline_ticks);
            }
            out.push('\n');
            match &r.admission {
                Ok(st) => {
                    let _ = writeln!(
                        out,
                        "  admitted charged={} spent={} remaining={}",
                        st.charged, st.spent, st.remaining
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  rejected {}: {}", e.tag(), e);
                }
            }
            match &r.samples {
                Some(Ok(samples)) => {
                    for (j, bytes) in samples.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "  sample {j}: fnv1a={:016x} bytes={}",
                            fnv1a(bytes),
                            bytes.len()
                        );
                    }
                }
                Some(Err(e)) => {
                    let _ = writeln!(out, "  failed {}: {}", e.tag(), e);
                }
                None => {}
            }
        }
        out
    }

    /// Renders the transcript as diff-friendly text: the record blocks
    /// ([`Transcript::records_text`]) followed by the final tenant
    /// statements. Floats render with `{}` — exact shortest round-trip, so
    /// two transcripts differ in text iff they differ in value.
    pub fn to_text(&self) -> String {
        let mut out = self.records_text();
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {} grant={} consumed={} remaining={} entries={}",
                t.tenant,
                t.grant,
                t.consumed,
                t.remaining,
                t.entries.len()
            );
        }
        out
    }
}
