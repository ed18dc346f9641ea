//! The `serve-mixed` workload: a closed loop of two client threads calling
//! `Server::submit` on a WAL-backed server (each client sends its next
//! request only when the previous one returned), then `Server::recover`
//! of that WAL on a fresh one-thread server. Rounds repeat the same log
//! until the run's seconds are spent.
//!
//! The request log comes from the workload seed ([`plan`]): cache keys over
//! the five non-HRG mechanisms in Zipf proportions, shuffled by the seed,
//! from a key pool larger than the cache; disjoint tenant sets per client
//! with a tenth of them on small grants; and one request in twenty with a
//! one-tick deadline. Because each client owns its tenants, every
//! request's outcome is known before the run, and every response is
//! checked against the plan and, byte for byte, against the recovered
//! transcript.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, timed, SetupTimer};
use crate::{Args, Scratch};
use pgb_datasets::Dataset;
use pgb_graph::Graph;
use pgb_serve::{
    csr_bytes, fnv1a, CacheStats, GenerateRequest, RequestLog, ResponseRecord, Server,
    ServerConfig, TenantAccountant, Transcript, Wal,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Mechanisms the log asks for: the standard suite without PrivHRG, whose
/// MCMC would make every miss take seconds.
const MECHANISMS: [&str; 5] = ["DP-dK", "TmF", "PrivSKG", "PrivGraph", "DGG"];
/// The hosted datasets: small, mid and large request costs.
const HOSTED: [Dataset; 3] = [Dataset::Minnesota, Dataset::Facebook, Dataset::BaGraph];
/// Request budgets. Binary fractions, so planned budget sums are exact.
const EPSILONS: [f64; 3] = [0.25, 0.5, 1.0];
/// Request seeds per (dataset, mechanism, ε); each is a distinct cache key.
const SEEDS_PER_TRIPLE: usize = 2;
/// Distinct cache keys the log draws from.
const KEY_POOL: usize = MECHANISMS.len() * HOSTED.len() * EPSILONS.len() * SEEDS_PER_TRIPLE;
/// Zipf exponent of key popularity.
const ZIPF_EXPONENT: f64 = 1.1;
/// Measurement-cache capacity: a fraction of the pool's intermediates, so
/// popular keys hit and the tail evicts.
const CACHE_BYTES: usize = 4 << 20;
/// The recovering server's cache holds the whole pool, so recovery measures
/// each key once. With the drive's capacity, which keys it re-measured
/// would follow how the round's clients interleaved, and that moved
/// `recover_s` by up to a third between rounds of one run.
const RECOVERY_CACHE_BYTES: usize = 64 << 20;
/// Client threads, each with its own tenants.
const CLIENTS: usize = 2;
const TENANTS_PER_CLIENT: usize = 20;
/// Every tenth tenant has a grant that two requests exhaust, and every
/// tenth request comes from one of them, so each client's log rejects.
const SMALL_GRANT_EVERY: usize = 10;
const SMALL_GRANT: f64 = 0.5;
const LARGE_GRANT: f64 = 1e9;
/// Every twentieth request carries a one-tick deadline.
const TIGHT_DEADLINE_EVERY: usize = 20;
/// Requests per client per round: `serve-mixed`, and the probe other
/// workloads run to measure the serving layer.
const REQUESTS_PER_CLIENT: usize = 300;
const PROBE_REQUESTS_PER_CLIENT: usize = 60;
/// Accountant checkpoints in the WAL, which recovery verifies.
const CHECKPOINT_EVERY: u64 = 50;

const OK: &str = "ok";
const BUDGET_EXHAUSTED: &str = "budget-exhausted";
const DEADLINE_EXCEEDED: &str = "deadline-exceeded";
/// Every outcome the plan can expect.
const PLANNED: [&str; 3] = [OK, BUDGET_EXHAUSTED, DEADLINE_EXCEEDED];

/// One request of the plan, with the outcome it must have.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// The requesting tenant.
    pub tenant: String,
    /// The request.
    pub request: GenerateRequest,
    /// `ok` or the rejection tag the request must get.
    pub expect: &'static str,
}

/// A seeded request log: each client's requests in sending order, and the
/// tenants' grants.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Requests per client.
    pub clients: Vec<Vec<Planned>>,
    /// Every tenant with its ε grant, client by client.
    pub grants: Vec<(String, f64)>,
}

fn tenant(client: usize, i: usize) -> String {
    format!("c{client}-t{i:02}")
}

/// Generates the plan for `seed` with `per_client` requests per client.
pub fn plan(seed: u64, per_client: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0000_0000_0001);
    let grants: Vec<(String, f64)> = (0..CLIENTS)
        .flat_map(|c| {
            (0..TENANTS_PER_CLIENT).map(move |i| {
                let grant = if i % SMALL_GRANT_EVERY == 0 { SMALL_GRANT } else { LARGE_GRANT };
                (tenant(c, i), grant)
            })
        })
        .collect();
    let (small, large): (Vec<usize>, Vec<usize>) =
        (0..TENANTS_PER_CLIENT).partition(|i| i % SMALL_GRANT_EVERY == 0);
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut spent = [0.0f64; TENANTS_PER_CLIENT];
            let mut ranks: Vec<usize> = zipf_counts(per_client)
                .into_iter()
                .enumerate()
                .flat_map(|(rank, n)| std::iter::repeat_n(rank, n))
                .collect();
            for k in (1..ranks.len()).rev() {
                ranks.swap(k, rng.gen_range(0..=k));
            }
            ranks
                .into_iter()
                .enumerate()
                .map(|(j, rank)| {
                    // Small-grant tenants send every tenth request, taking
                    // turns; the others' requests go to a uniform tenant.
                    let i = if j % SMALL_GRANT_EVERY == SMALL_GRANT_EVERY - 1 {
                        small[(j / SMALL_GRANT_EVERY) % small.len()]
                    } else {
                        large[rng.gen_range(0..large.len())]
                    };
                    // Never a small-grant request, so it is always admitted.
                    let tight = j % TIGHT_DEADLINE_EVERY == 3;
                    let request = request_for(seed, rank, tight);
                    let grant = grants[c * TENANTS_PER_CLIENT + i].1;
                    let expect = if spent[i] + request.epsilon > grant {
                        BUDGET_EXHAUSTED
                    } else {
                        spent[i] += request.epsilon;
                        if tight {
                            DEADLINE_EXCEEDED
                        } else {
                            OK
                        }
                    };
                    Planned { tenant: tenant(c, i), request, expect }
                })
                .collect()
        })
        .collect();
    Plan { clients, grants }
}

/// How many of `requests` ask for each key rank: Zipf weights scaled to
/// `requests` and rounded by largest remainder. Every seed asks for the
/// same keys the same number of times; only the order differs, which
/// keeps the work of a log nearly independent of the seed.
fn zipf_counts(requests: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=KEY_POOL).map(|r| (r as f64).powf(-ZIPF_EXPONENT)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * requests as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..KEY_POOL).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = requests - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    counts
}

/// The request for cache key `rank`. Consecutive ranks cycle through the
/// mechanisms first, then datasets, budgets and seeds, so every workload
/// seed spreads popularity over the mechanisms the same way.
fn request_for(seed: u64, rank: usize, tight: bool) -> GenerateRequest {
    let (m, rest) = (rank % MECHANISMS.len(), rank / MECHANISMS.len());
    let (d, rest) = (rest % HOSTED.len(), rest / HOSTED.len());
    let (e, s) = (rest % EPSILONS.len(), rest / EPSILONS.len());
    GenerateRequest {
        dataset: HOSTED[d].name().to_string(),
        mechanism: MECHANISMS[m].to_string(),
        epsilon: EPSILONS[e],
        // The first sample spends the single tick, so the second one
        // always crosses the deadline.
        samples: if tight { 2 } else { 1 },
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(s as u64),
        deadline_ticks: u64::from(tight),
    }
}

fn hosted(seed: u64) -> Vec<(String, Graph)> {
    HOSTED.iter().map(|d| (d.name().to_string(), d.generate(seed))).collect()
}

/// A fresh server hosting the seed's datasets with the plan's tenants
/// registered.
fn build_server(seed: u64, plan: &Plan, threads: usize, cache_bytes: usize) -> Server {
    let mut server = Server::new(ServerConfig {
        cache_bytes,
        threads,
        wal_checkpoint_every: CHECKPOINT_EVERY,
        ..ServerConfig::default()
    });
    for (name, graph) in hosted(seed) {
        server.host_dataset(&name, graph);
    }
    for (tenant, grant) in &plan.grants {
        server.register_tenant(tenant, *grant).expect("plan tenants are distinct");
    }
    server
}

/// What a client saw for one request: the `submit` latency and either the
/// response's log id with each sample's CSR digest, or the rejection tag.
struct Served {
    latency_ms: f64,
    outcome: Result<(u64, Vec<u64>), &'static str>,
}

fn tag_of<T>(outcome: &Result<T, &'static str>) -> &'static str {
    match outcome {
        Ok(_) => OK,
        Err(tag) => tag,
    }
}

/// One client's closed loop, at thread budget 1.
fn drive_client(server: &Server, requests: &[Planned]) -> Vec<Served> {
    pgb_par::with_parallelism(1, || {
        requests
            .iter()
            .map(|p| {
                let request = p.request.clone();
                let (result, secs) = timed(|| server.submit(&p.tenant, request));
                let outcome = match result {
                    Ok(r) => Ok((r.id, r.graphs.iter().map(|g| fnv1a(&csr_bytes(g))).collect())),
                    Err(e) => Err(e.tag()),
                };
                Served { latency_ms: secs * 1e3, outcome }
            })
            .collect()
    })
}

/// One round: the two-client drive, then recovery of its WAL.
struct Round {
    drive_s: f64,
    recover_s: f64,
    served: Vec<Vec<Served>>,
    log: RequestLog,
    stats: CacheStats,
    wal: PathBuf,
    /// FNV-1a of the recovered transcript's text.
    transcript: u64,
}

fn run_round(
    seed: u64,
    plan: &Plan,
    scratch: &Scratch,
    index: usize,
    report: &mut Report,
) -> Round {
    let wal = scratch.path().join(format!("round{index}.wal"));
    let server = build_server(seed, plan, CLIENTS, CACHE_BYTES);
    server.attach_wal(&wal).expect("the scratch directory is writable");
    let (served, drive_s): (Vec<Vec<Served>>, f64) = timed(|| {
        std::thread::scope(|s| {
            let clients: Vec<_> =
                plan.clients.iter().map(|c| s.spawn(|| drive_client(&server, c))).collect();
            clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
        })
    });
    let (log, stats) = (server.log(), server.cache().stats());
    drop(server);

    let server = build_server(seed, plan, 1, RECOVERY_CACHE_BYTES);
    let (recovery, recover_s) = timed(|| server.recover(&wal));
    let transcript = match recovery {
        Ok(r) => {
            report.check(r.recovered == log.len() && r.corrupt.is_none(), || {
                format!(
                    "recovered {} of {} admissions, corrupt {:?}",
                    r.recovered,
                    log.len(),
                    r.corrupt
                )
            });
            report.check(r.divergence.is_none(), || {
                format!("checkpoint divergence {:?}", r.divergence)
            });
            check_round(report, plan, &served, &log, &r.transcript);
            fnv1a(r.transcript.to_text().as_bytes())
        }
        Err(e) => {
            report.check(false, || format!("recovering {}: {e}", wal.display()));
            0
        }
    };
    Round { drive_s, recover_s, served, log, stats, wal, transcript }
}

/// The outcome a transcript record shows: sample digests or a tag.
fn record_outcome(r: &ResponseRecord) -> Result<Vec<u64>, &'static str> {
    match (&r.admission, &r.samples) {
        (Err(e), _) | (Ok(_), Some(Err(e))) => Err(e.tag()),
        (Ok(_), Some(Ok(samples))) => Ok(samples.iter().map(|b| fnv1a(b)).collect()),
        (Ok(_), None) => Err("missing-samples"),
    }
}

/// Checks every request of a round: its log entry is the planned one, its
/// outcome is the planned one, and what the client received equals the
/// recovered transcript's record, sample bytes included.
fn check_round(
    report: &mut Report,
    plan: &Plan,
    served: &[Vec<Served>],
    log: &RequestLog,
    transcript: &Transcript,
) {
    report.check(transcript.records.len() == log.len(), || {
        format!("{} records recovered for {} logged requests", transcript.records.len(), log.len())
    });
    // Each client's k-th request is the k-th log entry of its tenants.
    let mut ids: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
    for (id, entry) in log.iter().enumerate() {
        match plan.grants.iter().position(|(t, _)| *t == entry.tenant) {
            Some(i) => ids[i / TENANTS_PER_CLIENT].push(id),
            None => {
                report
                    .check(false, || format!("log entry {id} has unknown tenant {}", entry.tenant));
            }
        }
    }
    for (c, (planned, got)) in plan.clients.iter().zip(served).enumerate() {
        for (k, (p, s)) in planned.iter().zip(got).enumerate() {
            let id = ids[c].get(k).copied();
            let entry = id.and_then(|id| log.get(id));
            let record = id.and_then(|id| transcript.records.get(id));
            let live = match &s.outcome {
                Ok((rid, digests)) if Some(*rid as usize) == id => Ok(digests.clone()),
                Ok(_) => Err("wrong-id"),
                Err(tag) => Err(*tag),
            };
            let ok = entry.is_some_and(|e| e.tenant == p.tenant && e.request == p.request)
                && record.is_some_and(|r| record_outcome(r) == live)
                && tag_of(&live) == p.expect;
            report.check(ok, || {
                format!(
                    "client {c} request {k} ({}): got {}, planned {}",
                    p.tenant,
                    tag_of(&live),
                    p.expect
                )
            });
        }
    }
}

/// Runs rounds of `plan(seed, per_client)` until `seconds` have passed
/// (at least one), calling `before_round` before each. Each round's log
/// interleaves the clients differently, so each is checked against its
/// own recovery.
fn session(
    args: &Args,
    scratch: &Scratch,
    report: &mut Report,
    per_client: usize,
    seconds: f64,
    mut before_round: impl FnMut(),
) -> (Plan, Vec<Round>) {
    // Tight deadlines unwind by design; keep their backtraces off stderr.
    pgb_core::fault::install_quiet_panic_hook();
    let plan = plan(args.seed, per_client);
    let start = std::time::Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        before_round();
        rounds.push(run_round(args.seed, &plan, scratch, rounds.len(), report));
        if start.elapsed().as_secs_f64() >= seconds {
            return (plan, rounds);
        }
    }
}

/// Runs `serve-mixed`.
pub fn run(args: &Args, scratch: &Scratch, report: &mut Report) {
    let tenants = plan(args.seed, 0);
    let mut setup = SetupTimer::new(|| build_server(args.seed, &tenants, CLIENTS, CACHE_BYTES));
    let (plan, rounds) =
        session(args, scratch, report, REQUESTS_PER_CLIENT, args.seconds, || drop(setup.batch()));
    setup.batch();
    let recovers: Vec<f64> = rounds.iter().map(|r| r.recover_s).collect();
    let drives: Vec<f64> = rounds.iter().map(|r| r.drive_s).collect();
    eprintln!("pgb-perfbench: serve-mixed recover {recovers:.3?}, drive {drives:.3?}");
    let (recover_s, drive_s) = (median(&recovers), median(&drives));
    report.set("setup_s", setup.seconds());
    report.set("wall_s_t1", recover_s);
    report.set("wall_s_t2", drive_s);
    if !args.trace {
        return;
    }

    let (graphs, generate_s) = pgb_par::with_parallelism(1, || timed(|| hosted(args.seed)));
    report.set("pgb_datasets.generate_s", generate_s);
    layer_metrics(args, scratch, report, &plan, &rounds, &graphs);
    let last = rounds.last().expect("a session runs at least one round");
    let max_nodes = graphs.iter().map(|(_, g)| g.node_count()).max().unwrap_or(0);
    let params = pgb_bench::setup::query_params_for(max_nodes);
    trace::static_family(report, &graphs, &MECHANISMS, &[1.0], &params, args.seed, None);
    trace::temporal_probe(report, args.seed);
    // Attribution guards: the mix must keep hitting, missing, evicting and
    // rejecting with every planned tag.
    let stats = last.stats;
    report.check(stats.hits > 0 && stats.measures > 0 && stats.evictions > 0, || {
        format!("the last round's cache stats lack hits, measures or evictions: {stats:?}")
    });
    for tag in [BUDGET_EXHAUSTED, DEADLINE_EXCEEDED] {
        let seen = report.get(&format!("pgb_serve.outcomes.{tag}"));
        report.check(seen >= 1.0, || format!("the last round had no {tag} rejection"));
    }
}

/// Measures the serving layer with a short session, for workloads that
/// do not serve.
pub fn probe(args: &Args, scratch: &Scratch, report: &mut Report) {
    let (plan, rounds) = session(args, scratch, report, PROBE_REQUESTS_PER_CLIENT, 0.0, || {});
    layer_metrics(args, scratch, report, &plan, &rounds, &hosted(args.seed));
}

/// Records the serving layer's metrics: cache counters and outcome counts
/// of the last round, latencies of all rounds, then traced calls at budget
/// 1 on the last round's log and WAL.
fn layer_metrics(
    args: &Args,
    scratch: &Scratch,
    report: &mut Report,
    plan: &Plan,
    rounds: &[Round],
    graphs: &[(String, Graph)],
) {
    let last = rounds.last().expect("a session runs at least one round");
    let s = last.stats;
    report.set("pgb_serve.cache_hits", s.hits as f64);
    report.set("pgb_serve.cache_measures", s.measures as f64);
    report.set("pgb_serve.cache_coalesced", s.coalesced as f64);
    report.set("pgb_serve.cache_evictions", s.evictions as f64);
    report.set("pgb_serve.cache_failures", s.failures as f64);
    let lookups = s.hits + s.measures + s.coalesced;
    report.set("pgb_serve.cache_hit_ratio", s.hits as f64 / lookups.max(1) as f64);
    for tag in PLANNED {
        let n = last.served.iter().flatten().filter(|s| tag_of(&s.outcome) == tag).count();
        report.set(&format!("pgb_serve.outcomes.{tag}"), n as f64);
    }
    let served = || rounds.iter().flat_map(|r| r.served.iter().flatten());
    let latencies: Vec<f64> = served().map(|s| s.latency_ms).collect();
    report.distribution("pgb_serve.latency_ms", &latencies);
    let rejected: Vec<f64> =
        served().filter(|s| s.outcome == Err(BUDGET_EXHAUSTED)).map(|s| s.latency_ms).collect();
    report.distribution("pgb_serve.reject_latency_ms", &rejected);
    let drive_s: f64 = rounds.iter().map(|r| r.drive_s).sum();
    report.set("pgb_serve.throughput_rps", latencies.len() as f64 / drive_s);
    report.set(
        "pgb_serve.recover_s",
        median(&rounds.iter().map(|r| r.recover_s).collect::<Vec<_>>()),
    );

    pgb_par::with_parallelism(1, || {
        let (contents, read_s) = timed(|| Wal::read(&last.wal));
        report.set("pgb_serve.wal_read_ms", read_s * 1e3);
        let records = match contents {
            Ok(c) => {
                report.check(c.entries == last.log, || "the WAL holds a different log".to_string());
                c.entries.len() + c.checkpoints.len()
            }
            Err(e) => {
                report.check(false, || format!("reading {}: {e}", last.wal.display()));
                0
            }
        };
        report.set("pgb_serve.wal_records", records as f64);
        let bytes = std::fs::metadata(&last.wal).map_or(f64::NAN, |m| m.len() as f64);
        report.set("pgb_serve.wal_bytes", bytes);

        let server = build_server(args.seed, plan, 1, RECOVERY_CACHE_BYTES);
        let (transcript, replay_s) = timed(|| server.replay(&last.log, 1));
        report.set("pgb_serve.replay_s", replay_s);
        let replayed = fnv1a(transcript.to_text().as_bytes());
        report.check(replayed == last.transcript, || {
            "Server::replay of the live log differs from the recovered transcript".to_string()
        });
        drop((transcript, server));

        let accountant = TenantAccountant::new();
        for (tenant, grant) in &plan.grants {
            accountant.register(tenant, *grant).expect("plan tenants are distinct");
        }
        let mut admit_us = Vec::with_capacity(last.log.len());
        let mut rejections = 0usize;
        for (id, e) in last.log.iter().enumerate() {
            let label = format!("req{id:05} {}/{}", e.request.dataset, e.request.mechanism);
            let (result, s) = timed(|| accountant.spend(&e.tenant, label, e.request.epsilon));
            admit_us.push(s * 1e6);
            rejections += usize::from(result.is_err());
        }
        report.distribution("pgb_serve.admit_us", &admit_us);
        let planned_rejections = report.get(&format!("pgb_serve.outcomes.{BUDGET_EXHAUSTED}"));
        report.check(rejections as f64 == planned_rejections, || {
            format!("replayed admissions reject {rejections}, the round {planned_rejections}")
        });

        let path = scratch.path().join("append.wal");
        let mut wal = Wal::create(&path).expect("the scratch directory is writable");
        let mut append_us = Vec::with_capacity(last.log.len());
        let mut failed = 0usize;
        for (id, e) in last.log.iter().enumerate() {
            let (result, s) = timed(|| wal.append_admission(id as u64, e));
            append_us.push(s * 1e6);
            failed += usize::from(result.is_err());
        }
        report.check(failed == 0, || format!("{failed} WAL appends failed"));
        report.distribution("pgb_serve.wal_append_us", &append_us);

        hit_keys(report, args.seed, &last.log, graphs);
    })
}

/// Times `PrivateSynthesis::sample` and `csr_bytes` once for every key the
/// log asks for more than once — the keys the cache can hit.
fn hit_keys(report: &mut Report, seed: u64, log: &RequestLog, graphs: &[(String, Graph)]) {
    let mut counts: BTreeMap<(&str, &str, u64, u64), usize> = BTreeMap::new();
    for e in log {
        let r = &e.request;
        *counts.entry((&r.dataset, &r.mechanism, r.epsilon.to_bits(), r.seed)).or_default() += 1;
    }
    let suite = pgb_core::standard_suite();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3B_1E00_0000_0001);
    let (mut sample_ms, mut encode_us) = (Vec::new(), Vec::new());
    for ((dataset, mechanism, epsilon, _), _) in counts.into_iter().filter(|(_, n)| *n > 1) {
        let generator = suite.iter().find(|g| g.name() == mechanism).expect("planned mechanism");
        let graph = &graphs.iter().find(|(n, _)| n == dataset).expect("planned dataset").1;
        let synthesis = match generator.measure(graph, f64::from_bits(epsilon), &mut rng) {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("{mechanism} measure on {dataset}: {e}"));
                continue;
            }
        };
        let (sample, s) = timed(|| synthesis.sample(&mut rng));
        sample_ms.push(s * 1e3);
        let (_, s) = timed(|| csr_bytes(&sample));
        encode_us.push(s * 1e6);
    }
    report.set("pgb_serve.sample_ms.p50", median(&sample_ms));
    report.set("pgb_serve.encode_us.p50", median(&encode_us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_same_seed_gives_the_same_log_and_other_seeds_differ() {
        assert_eq!(plan(7, 200), plan(7, 200));
        assert_ne!(plan(7, 200), plan(8, 200));
        assert_ne!(plan(7, 200).clients, plan(8, 200).clients);
    }

    #[test]
    fn clients_own_disjoint_tenants_and_a_tenth_have_small_grants() {
        let p = plan(3, 300);
        let owned: Vec<BTreeSet<&str>> =
            p.clients.iter().map(|reqs| reqs.iter().map(|r| r.tenant.as_str()).collect()).collect();
        assert!(owned[0].is_disjoint(&owned[1]));
        let names: BTreeSet<&str> = p.grants.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(names.len(), CLIENTS * TENANTS_PER_CLIENT);
        let small = p.grants.iter().filter(|(_, g)| *g == SMALL_GRANT).count();
        assert_eq!(small * SMALL_GRANT_EVERY, p.grants.len());
    }

    #[test]
    fn keys_follow_zipf_over_a_pool_and_every_planned_outcome_occurs() {
        let p = plan(11, 5_000);
        let requests: Vec<&Planned> = p.clients.iter().flatten().collect();
        let mut counts: BTreeMap<(&str, &str, u64, u64), usize> = BTreeMap::new();
        for r in &requests {
            let q = &r.request;
            *counts.entry((&q.dataset, &q.mechanism, q.epsilon.to_bits(), q.seed)).or_default() +=
                1;
        }
        assert_eq!(counts.len(), KEY_POOL, "every key is asked for");
        let again = plan(12, 5_000);
        let keys = |p: &Plan| {
            let mut v: Vec<String> = p
                .clients
                .iter()
                .flatten()
                .map(|r| {
                    format!("{}/{}/{}", r.request.dataset, r.request.mechanism, r.request.epsilon)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(keys(&p), keys(&again), "seeds reorder the same key counts");
        let top = request_for(11, 0, false);
        let top_count = counts
            [&(top.dataset.as_str(), top.mechanism.as_str(), top.epsilon.to_bits(), top.seed)];
        assert_eq!(Some(&top_count), counts.values().max());
        let tight = requests.iter().filter(|r| r.request.deadline_ticks == 1).count();
        assert_eq!(tight * TIGHT_DEADLINE_EVERY, requests.len());
        for seed in 0..5 {
            let p = plan(seed, PROBE_REQUESTS_PER_CLIENT);
            for tag in PLANNED {
                assert!(
                    p.clients.iter().flatten().any(|r| r.expect == tag),
                    "seed {seed}: no {tag}"
                );
            }
        }
    }

    #[test]
    fn small_grants_exhaust_exactly() {
        // A small-grant tenant admits requests until the next one would
        // overdraw its grant, and never after.
        let p = plan(5, 2_000);
        for reqs in &p.clients {
            let small = reqs.iter().filter(|r| r.tenant.ends_with("-t00"));
            let mut spent = 0.0;
            for r in small {
                let admitted = r.expect != BUDGET_EXHAUSTED;
                assert_eq!(admitted, spent + r.request.epsilon <= SMALL_GRANT);
                if admitted {
                    spent += r.request.epsilon;
                }
            }
        }
    }
}
