//! The grid workloads: `run_benchmark` (`grid-hrg`, `grid-eval`) and
//! `run_temporal_benchmark` (`grid-temporal`), each run once at thread
//! budget 1 and once at budget 2 per round, rounds repeating until the
//! run's seconds are spent. With `--trace 1` a run instead runs one leg
//! at budget 1, the traced pass, and one leg at budget 2.
//!
//! Outputs are checked two ways: every pass's CSV must be byte-identical
//! to the run's first (the determinism contract across thread budgets),
//! and at [`PINNED_SEED`] the CSV's FNV-1a digest must match the one
//! pinned here, so a fast wrong answer fails. A cell whose `runs` fall
//! short of the repetitions is a failed operation too.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, timed, SetupTimer};
use crate::{serve, Args, Scratch, Workload};
use pgb_core::benchmark::{run_benchmark, run_temporal_benchmark, BenchmarkConfig};
use pgb_core::GraphGenerator;
use pgb_datasets::temporal::TemporalDataset;
use pgb_datasets::Dataset;
use pgb_graph::Graph;

/// Windows per temporal sequence.
pub const WINDOWS: usize = 4;

/// The paper's privacy budgets.
const PAPER_EPSILONS: [f64; 6] = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0];
/// `grid-hrg`: a dataset on which PrivHRG's MCMC dominates each pass. A
/// PrivHRG cell's cost varies by ±15% with its MCMC stream, so the pass
/// runs six of them (one per budget) to keep the seed-to-seed spread low.
const HRG_DATASETS: [Dataset; 1] = [Dataset::Minnesota];
/// `grid-eval`: every Table VI dataset, several budgets.
const EVAL_EPSILONS: [f64; 2] = [0.5, 2.0];

/// The seed whose CSV digests are pinned below.
const PINNED_SEED: u64 = 0;

/// FNV-1a of each grid's CSV at [`PINNED_SEED`].
const PINNED_DIGESTS: [(Workload, u64); 3] = [
    (Workload::GridHrg, 0x2b85_0afe_e82b_3925),
    (Workload::GridEval, 0xb834_62e0_2629_6930),
    (Workload::GridTemporal, 0x8359_4d49_e3ce_11dc),
];

/// Runs a grid workload.
pub fn run(workload: Workload, args: &Args, scratch: &Scratch, report: &mut Report) {
    match workload {
        Workload::GridHrg => static_grid(
            workload,
            &HRG_DATASETS,
            pgb_core::standard_suite(),
            &PAPER_EPSILONS,
            args,
            scratch,
            report,
        ),
        Workload::GridEval => static_grid(
            workload,
            &Dataset::TABLE_VI,
            pgb_core::standard_suite().into_iter().filter(|m| m.name() != "PrivHRG").collect(),
            &EVAL_EPSILONS,
            args,
            scratch,
            report,
        ),
        Workload::GridTemporal => temporal_grid(args, scratch, report),
        Workload::ServeMixed => unreachable!("serve-mixed is not a grid"),
    }
}

/// The benchmark configuration of a grid at thread budget `threads`: one
/// repetition, all 15 queries, path queries sampled as the harness picks
/// for the largest dataset.
fn config(epsilons: &[f64], max_nodes: usize, seed: u64, threads: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: epsilons.to_vec(),
        repetitions: 1,
        query_params: pgb_bench::setup::query_params_for(max_nodes),
        seed,
        threads,
        ..BenchmarkConfig::default()
    }
}

/// One grid leg: its wall time, CSV and cell counts.
struct Pass {
    wall: f64,
    csv: String,
    cells: usize,
    short_cells: usize,
}

/// A run's legs: `pass` runs the grid once at a thread budget; every
/// leg's output is checked against the first leg's and, at
/// [`PINNED_SEED`], against the pinned digest.
struct Legs<P> {
    workload: Workload,
    seed: u64,
    pass: P,
    first: Option<String>,
}

impl<R, P: FnMut(usize) -> (Pass, R)> Legs<P> {
    fn new(workload: Workload, seed: u64, pass: P) -> Self {
        Legs { workload, seed, pass, first: None }
    }

    /// Runs one leg at `budget` and checks it; returns its wall and the
    /// pass's results.
    fn run(&mut self, budget: usize, report: &mut Report) -> (f64, R) {
        let (p, results) = pgb_par::with_parallelism(budget, || (self.pass)(budget));
        let name = self.workload.name();
        report.tally(p.cells, p.short_cells);
        match &self.first {
            Some(csv) => {
                report.check(*csv == p.csv, || {
                    format!("{name} CSV at budget {budget} differs from the first leg")
                });
            }
            None => {
                let digest = pgb_serve::fnv1a(p.csv.as_bytes());
                eprintln!("pgb-perfbench: {name} seed {} CSV fnv1a {digest:#018x}", self.seed);
                if self.seed == PINNED_SEED {
                    let pinned =
                        PINNED_DIGESTS.iter().find(|(w, _)| *w == self.workload).map(|(_, d)| *d);
                    report.check(pinned == Some(digest), || {
                        format!("{name} CSV digest {digest:#018x} is not the pinned one")
                    });
                }
                self.first = Some(p.csv);
            }
        }
        (p.wall, results)
    }

    /// Repeats rounds of one leg at budget 1 and one at budget 2 until
    /// `args.seconds` have passed, with a set-up batch before every leg
    /// and after the last. Returns the median walls at budgets 1 and 2.
    fn timed(&mut self, args: &Args, report: &mut Report, mut setup: impl FnMut()) -> (f64, f64) {
        let start = std::time::Instant::now();
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for round in 0u64.. {
            // The order alternates by round, and the first round's by the
            // seed's parity, so neither budget always takes the process's
            // cold start (grid-eval's run is a single round).
            let budgets = if (round + args.seed % 2).is_multiple_of(2) { [1, 2] } else { [2, 1] };
            for budget in budgets {
                setup();
                let (wall, _) = self.run(budget, report);
                if budget == 1 { &mut t1 } else { &mut t2 }.push(wall);
            }
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        setup();
        eprintln!(
            "pgb-perfbench: {} walls at budget 1 {t1:.3?}, at budget 2 {t2:.3?}",
            self.workload.name()
        );
        (median(&t1), median(&t2))
    }
}

/// `grid-hrg` and `grid-eval`.
fn static_grid(
    workload: Workload,
    datasets: &[Dataset],
    algorithms: Vec<Box<dyn GraphGenerator>>,
    epsilons: &[f64],
    args: &Args,
    scratch: &Scratch,
    report: &mut Report,
) {
    let generate = || -> Vec<(String, Graph)> {
        datasets.iter().map(|d| (d.name().to_string(), d.generate(args.seed))).collect()
    };
    let mut setup = SetupTimer::new(generate);
    let graphs = setup.batch();
    // Path queries as the harness samples them on the Table VI grid.
    let table_vi_nodes = Dataset::TABLE_VI.iter().map(|d| d.target().nodes).max().unwrap_or(0);
    let mut legs = Legs::new(workload, args.seed, |budget| {
        let config = config(epsilons, table_vi_nodes, args.seed, budget);
        let (results, wall) = timed(|| run_benchmark(&algorithms, &graphs, &config));
        let per_cell = results.queries.len().max(1);
        let pass = Pass {
            wall,
            csv: results.to_csv(),
            cells: results.outcomes.len() / per_cell,
            short_cells: results.outcomes.iter().filter(|o| o.runs < config.repetitions).count()
                / per_cell,
        };
        (pass, results)
    });
    if !args.trace {
        let (wall_t1, wall_t2) = legs.timed(args, report, || drop(setup.batch()));
        report.set("setup_s", setup.seconds());
        report.set("wall_s_t1", wall_t1);
        report.set("wall_s_t2", wall_t2);
        return;
    }

    // The traced pass follows a budget-1 leg, whose errors it must
    // reproduce, and a budget-2 leg checks the CSV across budgets.
    let (_, generate_s) = pgb_par::with_parallelism(1, || timed(generate));
    report.set("pgb_datasets.generate_s", generate_s);
    let params = pgb_bench::setup::query_params_for(table_vi_nodes);
    let names: Vec<&str> = algorithms.iter().map(|a| a.name()).collect();
    let (_, results) = legs.run(1, report);
    let work =
        trace::static_family(report, &graphs, &names, epsilons, &params, args.seed, Some(&results));
    drop(results);
    legs.run(2, report);
    trace::temporal_probe(report, args.seed);
    serve::probe(args, scratch, report);
    // Attribution guards: a workload that drifts off its layer fails.
    match workload {
        Workload::GridHrg => report.check(work.privhrg_measure > work.total / 2.0, || {
            format!("PrivHRG measure is {:.3}s of {:.3}s traced", work.privhrg_measure, work.total)
        }),
        _ => report.check(work.evaluate > work.total / 2.0, || {
            format!("query evaluation is {:.3}s of {:.3}s traced", work.evaluate, work.total)
        }),
    };
}

/// `grid-temporal`.
fn temporal_grid(args: &Args, scratch: &Scratch, report: &mut Report) {
    let generate = || -> Vec<(String, pgb_graph::temporal::SnapshotSequence)> {
        TemporalDataset::ALL
            .iter()
            .map(|d| {
                let seq = d.events(args.seed).snapshots(WINDOWS);
                (d.name().to_string(), seq.expect("BA-growth logs have valid node ranges"))
            })
            .collect()
    };
    let mut setup = SetupTimer::new(generate);
    let seqs = setup.batch();
    let algorithms = pgb_core::temporal_suite();
    let max_nodes = seqs.iter().map(|(_, s)| s.node_count()).max().unwrap_or(0);
    let mut legs = Legs::new(Workload::GridTemporal, args.seed, |budget| {
        let config = config(&PAPER_EPSILONS, max_nodes, args.seed, budget);
        let (results, wall) = timed(|| run_temporal_benchmark(&algorithms, &seqs, &config));
        let per_cell = ((WINDOWS + 1) * results.queries.len()).max(1);
        let pass = Pass {
            wall,
            csv: results.to_csv(),
            cells: results.outcomes.len() / per_cell,
            short_cells: results.outcomes.iter().filter(|o| o.runs < config.repetitions).count()
                / per_cell,
        };
        (pass, ())
    });
    if !args.trace {
        let (wall_t1, wall_t2) = legs.timed(args, report, || drop(setup.batch()));
        report.set("setup_s", setup.seconds());
        report.set("wall_s_t1", wall_t1);
        report.set("wall_s_t2", wall_t2);
        return;
    }

    // As for the static grids, the traced pass runs between the legs.
    let (logs, generate_s) = pgb_par::with_parallelism(1, || {
        timed(|| TemporalDataset::ALL.iter().map(|d| d.events(args.seed)).collect::<Vec<_>>())
    });
    report.set("pgb_datasets.generate_s", generate_s);
    let params = pgb_bench::setup::query_params_for(max_nodes);
    legs.run(1, report);
    trace::temporal_family(report, &logs, WINDOWS, &PAPER_EPSILONS, &params, args.seed);
    legs.run(2, report);
    // The static layers, probed on each sequence's last window.
    let last_windows: Vec<(String, Graph)> =
        seqs.iter().map(|(name, seq)| (name.clone(), seq.snapshot(WINDOWS - 1).clone())).collect();
    trace::static_family(report, &last_windows, &[], &[], &params, args.seed, None);
    serve::probe(args, scratch, report);
}
