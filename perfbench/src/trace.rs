//! The traced pass: each layer's public functions called from outside, one
//! at a time at thread budget 1, on the workload's own inputs. Its times
//! never enter the end-to-end metrics.
//!
//! Every per-layer metric is measured on every workload. A layer the
//! workload does not run is traced on a small input of the same kind (the
//! smallest graph at ε = 1, the small BA-growth log, a short request log),
//! so its numbers exist but only move with that layer's own code.

use crate::report::Report;
use pgb_core::benchmark::{compute_error, BenchmarkResults};
use pgb_core::PrivHrg;
use pgb_datasets::temporal::{TemporalDataset, TemporalEvents};
use pgb_graph::Graph;
use pgb_models::hrg::Dendrogram;
use pgb_queries::{suite_drift, suite_drift_sequence, Query, QueryParams, QuerySuite, QueryValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// A set-up batch repeats for at least this long, and at least
/// [`SETUP_BATCH_REPEATS`] times.
const SETUP_BATCH_SECONDS: f64 = 0.2;
const SETUP_BATCH_REPEATS: usize = 3;

/// Times a workload's set-up in batches spread over the run: one before
/// each timed leg (or serving round) and one after the last. `setup_s` is
/// the fastest set-up of all the batches. A set-up takes 0.1 to 50 ms, and
/// at that size the host, not the code, decides the median: runs of one
/// seed put it at 5.2 or at 9 ms by turns, as the thread landed on a quiet
/// or a contended vCPU for a whole batch. The fastest of many repeats,
/// spread over the run's spells, is the cost of the set-up itself.
pub struct SetupTimer<F> {
    set_up: F,
    fastest: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// A timer for `set_up`, with no batch run yet.
    pub fn new(set_up: F) -> Self {
        SetupTimer { set_up, fastest: Vec::new() }
    }

    /// Runs one batch; returns the last set-up's result.
    pub fn batch(&mut self) -> T {
        let start = Instant::now();
        let mut fastest = f64::INFINITY;
        for repeat in 1.. {
            let (out, s) = timed(&mut self.set_up);
            fastest = fastest.min(s);
            if repeat >= SETUP_BATCH_REPEATS && start.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS
            {
                self.fastest.push(fastest);
                return out;
            }
        }
        unreachable!("the batch loop only ends by returning")
    }

    /// The fastest set-up of all the batches.
    pub fn seconds(&self) -> f64 {
        eprintln!("pgb-perfbench: fastest set-up per batch {:.6?}", self.fastest);
        self.fastest.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Traced seconds of the work a workload's timed legs perform.
#[derive(Debug, Default)]
pub struct Work {
    /// All of it.
    pub total: f64,
    /// The part in query evaluation (`evaluate_all`, `suite_drift`).
    pub evaluate: f64,
    /// The part in PrivHRG's `measure`.
    pub privhrg_measure: f64,
}

/// Probes of layers a workload does not run, and the per-pass timings,
/// draw from a stream of their own: their values are never compared.
fn trace_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7ACE_D5EE_D000_0001)
}

/// The runner's stream for cell (dataset, algorithm, ε) repetition `rep`,
/// derived as `pgb_core`'s benchmark runner derives it. The traced cells of
/// a workload draw from it, so they do exactly the work of the timed legs
/// (a check compares their errors with the leg's), and each layer's time
/// is its share of the legs' own work.
fn runner_rng(seed: u64, dataset: usize, algorithm: usize, epsilon: usize, rep: usize) -> StdRng {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for x in [dataset as u64, algorithm as u64, epsilon as u64, rep as u64] {
        h ^= x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
        h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    }
    StdRng::seed_from_u64(h)
}

/// The runner's stream for dataset `di`'s true query values.
fn truth_rng(seed: u64, di: usize) -> StdRng {
    runner_rng(seed, di, usize::MAX, 0, 0)
}

/// Shared passes that one `evaluate_all` call ran.
fn passes(s: pgb_queries::SuiteStats) -> f64 {
    (s.degree_passes + s.bfs_sweeps + s.triangle_passes + s.louvain_runs) as f64
}

/// The per-query errors of `values` against `truth`.
fn errors(truth: &[QueryValue], values: &[QueryValue]) -> Vec<f64> {
    Query::ALL.iter().zip(truth).zip(values).map(|((&q, t), v)| compute_error(q, t, v)).collect()
}

/// Traces the static stack on `graphs`: per mechanism `measure` and
/// `sample`, the CSR rebuild of each sample, `evaluate_all` and each of
/// its shared passes on their own, `compute_error`, and PrivHRG's MCMC.
///
/// Mechanisms named in `run` are traced on every graph at every ε, on the
/// runner's streams for a grid of `run` × `graphs` × `epsilons`, and those
/// cells plus the true-value evaluations make up the returned [`Work`].
/// With `leg` (the results of a budget-1 leg of that grid), each cell's
/// errors must equal the leg's. Every other mechanism is traced once, on
/// the smallest graph at ε = 1. With `run` empty the graphs are probe
/// inputs and the returned work is zero.
pub fn static_family(
    report: &mut Report,
    graphs: &[(String, Graph)],
    run: &[&str],
    epsilons: &[f64],
    params: &QueryParams,
    seed: u64,
    leg: Option<&BenchmarkResults>,
) -> Work {
    pgb_par::with_parallelism(1, || {
        let mut rng = trace_rng(seed);
        let mut work = Work::default();
        let in_workload = !run.is_empty();
        let truths: Vec<Vec<QueryValue>> = graphs
            .iter()
            .enumerate()
            .map(|(di, (_, g))| {
                let mut truth_rng = truth_rng(seed, di);
                let ((values, stats), secs) = timed(|| {
                    QuerySuite::evaluate_all_with_stats(g, &Query::ALL, params, &mut truth_rng)
                });
                report.add("pgb_queries.evaluate_all_s", secs);
                report.add("pgb_queries.suite_passes", passes(stats));
                if in_workload {
                    work.total += secs;
                    work.evaluate += secs;
                }
                values
            })
            .collect();
        let smallest = (0..graphs.len())
            .min_by_key(|&i| graphs[i].1.node_count())
            .expect("every workload has a graph");

        for mechanism in pgb_core::standard_suite() {
            let name = mechanism.name();
            let ai = run.iter().position(|&m| m == name);
            let cells: Vec<(usize, usize, f64)> = match ai {
                Some(_) => (0..graphs.len())
                    .flat_map(|di| epsilons.iter().enumerate().map(move |(ei, &e)| (di, ei, e)))
                    .collect(),
                None => vec![(smallest, 0, 1.0)],
            };
            for (di, ei, epsilon) in cells {
                let (dataset, g) = (&graphs[di].0, &graphs[di].1);
                let mut cell_rng = match ai {
                    Some(ai) => runner_rng(seed, di, ai, ei, 0),
                    None => trace_rng(seed),
                };
                let (measured, measure_s) = timed(|| mechanism.measure(g, epsilon, &mut cell_rng));
                report.add(&format!("pgb_core.measure_s.{name}"), measure_s);
                let measured = match measured {
                    Ok(m) => m,
                    Err(e) => {
                        report.check(false, || format!("{name} measure on {dataset}: {e}"));
                        continue;
                    }
                };
                let (sample, sample_s) = timed(|| measured.sample(&mut cell_rng));
                report.add(&format!("pgb_core.sample_s.{name}"), sample_s);
                let ((values, stats), eval_s) = timed(|| {
                    QuerySuite::evaluate_all_with_stats(&sample, &Query::ALL, params, &mut cell_rng)
                });
                report.add("pgb_queries.evaluate_all_s", eval_s);
                report.add("pgb_queries.suite_passes", passes(stats));
                let (cell_errors, error_s) = timed(|| errors(&truths[di], &values));
                report.add("pgb_core.compute_error_s", error_s);
                let (rebuilt, rebuild_s) =
                    timed(|| Graph::from_edges(sample.node_count(), sample.edges()));
                report.add("pgb_graph.csr_rebuild_s", rebuild_s);
                report.check(rebuilt.is_ok_and(|r| r.csr() == sample.csr()), || {
                    format!("a {name} sample on {dataset} rebuilds to a different CSR")
                });
                shared_passes(report, &sample, params, &mut rng);
                if ai.is_some() {
                    work.total += measure_s + sample_s + eval_s + error_s;
                    work.evaluate += eval_s;
                    if name == "PrivHRG" {
                        work.privhrg_measure += measure_s;
                    }
                }
                if let (Some(leg), Some(_)) = (leg, ai) {
                    let same = Query::ALL.iter().zip(&cell_errors).all(|(&q, &e)| {
                        leg.error(name, dataset, epsilon, q)
                            .is_some_and(|l| l == e || (l.is_nan() && e.is_nan()))
                    });
                    report.check(same, || {
                        format!("traced {name} on {dataset} at eps {epsilon} differs from the leg")
                    });
                }
            }
        }

        let hrg_graphs: Vec<&Graph> = if run.contains(&"PrivHRG") {
            graphs.iter().map(|(_, g)| g).collect()
        } else {
            vec![&graphs[smallest].1]
        };
        hrg_mcmc(report, &hrg_graphs, &mut rng);
        work
    })
}

/// Times each shared pass of `evaluate_all` on its own.
fn shared_passes(report: &mut Report, g: &Graph, params: &QueryParams, rng: &mut StdRng) {
    use pgb_queries::{centrality, counting, path, topology};
    let (_, s) = timed(|| pgb_graph::degree::degree_histogram(g));
    report.add("pgb_queries.degree_hist_s", s);
    let (_, s) = timed(|| path::path_stats(g, params.path_mode, &mut *rng));
    report.add("pgb_queries.bfs_s", s);
    let (_, s) = timed(|| counting::triangles_per_node(g));
    report.add("pgb_queries.triangles_s", s);
    let (_, s) =
        timed(|| centrality::eigenvector_centrality(g, params.evc_max_iters, params.evc_tolerance));
    report.add("pgb_queries.evc_s", s);
    let (_, s) = timed(|| pgb_graph::degree::assortativity(g));
    report.add("pgb_queries.assortativity_s", s);
    let (_, s) = timed(|| topology::communities_with_modularity(g, &mut *rng));
    report.add("pgb_community.louvain_s", s);
}

/// Runs PrivHRG's structure search — `Dendrogram::from_graph` and the
/// `mcmc_step` loop, at PrivHRG's default step count and its ε = 1
/// acceptance factor — on each graph.
fn hrg_mcmc(report: &mut Report, graphs: &[&Graph], rng: &mut StdRng) {
    let hrg = PrivHrg::default();
    let (mut steps, mut secs) = (0usize, 0.0);
    for g in graphs {
        let n = g.node_count();
        if n < 2 {
            continue;
        }
        // PrivHRG's ε₁ share of ε = 1 over twice its Δ logL bound, 2 ln n.
        let factor = hrg.structure_budget_fraction.clamp(0.05, 0.95)
            / (2.0 * 2.0 * (n as f64).ln().max(1.0));
        let count = hrg.steps_per_node.saturating_mul(n).min(hrg.max_steps);
        let (_, s) = timed(|| {
            let mut d = Dendrogram::from_graph(g, &mut *rng);
            for _ in 0..count {
                d.mcmc_step(g, factor, &mut *rng);
            }
            d
        });
        steps += count;
        secs += s;
    }
    report.set("pgb_models.hrg_mcmc_steps", steps as f64);
    report.set("pgb_models.hrg_step_ns", secs * 1e9 / steps.max(1) as f64);
}

/// Traces the temporal stack on `logs`: windowing each log, the true drift
/// sweep, and per temporal mechanism and ε the windowed `measure`,
/// `sample`, drift sweep and `compute_error`, on the runner's streams.
pub fn temporal_family(
    report: &mut Report,
    logs: &[TemporalEvents],
    windows: usize,
    epsilons: &[f64],
    params: &QueryParams,
    seed: u64,
) {
    pgb_par::with_parallelism(1, || {
        let mut seqs = Vec::with_capacity(logs.len());
        for events in logs {
            let (seq, secs) = timed(|| events.snapshots(windows));
            report.add("pgb_graph.snapshots_s", secs);
            match seq {
                Ok(seq) => seqs.push(seq),
                Err(e) => {
                    report.check(false, || format!("windowing an event log: {e}"));
                }
            }
        }
        let truths: Vec<Vec<Vec<QueryValue>>> = seqs
            .iter()
            .enumerate()
            .map(|(di, seq)| {
                let mut truth_rng = truth_rng(seed, di);
                let (drift, secs) =
                    timed(|| suite_drift_sequence(seq, &Query::ALL, params, &mut truth_rng));
                report.add("pgb_queries.suite_drift_s", secs);
                report
                    .add("pgb_queries.suite_passes", drift.stats.iter().copied().map(passes).sum());
                drift.per_window
            })
            .collect();

        for (ai, generator) in pgb_core::temporal_suite().iter().enumerate() {
            let name = generator.name();
            for (di, (seq, truth)) in seqs.iter().zip(&truths).enumerate() {
                for (ei, &epsilon) in epsilons.iter().enumerate() {
                    let mut rng = runner_rng(seed, di, ai, ei, 0);
                    let (measured, measure_s) = timed(|| generator.measure(seq, epsilon, &mut rng));
                    report.add(&format!("pgb_core.temporal_measure_s.{name}"), measure_s);
                    let measured = match measured {
                        Ok(m) => m,
                        Err(e) => {
                            report.check(false, || format!("temporal {name} measure: {e}"));
                            continue;
                        }
                    };
                    let graphs = measured.sample(&mut rng);
                    let (drift, drift_s) =
                        timed(|| suite_drift(&graphs, &Query::ALL, params, &mut rng));
                    report.add("pgb_queries.suite_drift_s", drift_s);
                    report.add(
                        "pgb_queries.suite_passes",
                        drift.stats.iter().copied().map(passes).sum(),
                    );
                    let (_, error_s) = timed(|| {
                        truth
                            .iter()
                            .zip(&drift.per_window)
                            .map(|(t, v)| errors(t, v))
                            .collect::<Vec<_>>()
                    });
                    report.add("pgb_core.compute_error_s", error_s);
                }
            }
        }
    })
}

/// Traces the temporal stack on the small BA-growth log at ε = 1, for
/// workloads that have no event log of their own.
pub fn temporal_probe(report: &mut Report, seed: u64) {
    let events = TemporalDataset::BaGrowth.events(seed);
    let params = pgb_bench::setup::query_params_for(events.n);
    temporal_family(report, &[events], crate::grid::WINDOWS, &[1.0], &params, seed);
}
