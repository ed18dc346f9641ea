//! The benchmark runner: executes the (M, G, P) grid, evaluates U, and
//! averages repeated runs.

use crate::benchmark::metric::{compute_error, metric_for, ErrorMetric};
use crate::generator::{GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_queries::{Query, QueryParams, QuerySuite, QueryValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a benchmark run: the P and U of the 4-tuple plus
/// execution knobs (M and G are passed to [`run_benchmark`] directly).
#[derive(Clone, Debug)]
pub struct BenchmarkConfig {
    /// The privacy budgets to sweep (the paper: {0.1, 0.5, 1, 2, 5, 10}).
    pub epsilons: Vec<f64>,
    /// Repetitions per cell, averaged (the paper: 10).
    pub repetitions: usize,
    /// The queries to evaluate (defaults to all 15).
    pub queries: Vec<Query>,
    /// Query-evaluation parameters (path mode, power-iteration caps).
    pub query_params: QueryParams,
    /// Master seed; every cell derives an independent deterministic
    /// stream from it.
    pub seed: u64,
    /// Total thread budget (0 ⇒ available parallelism), shared between
    /// cell workers and intra-cell generator parallelism; results are
    /// byte-identical for every value (the derived-stream discipline
    /// holds at both levels).
    pub threads: usize,
    /// How often the mechanisms' measure phase runs — see [`MeasureReuse`].
    /// Unlike `threads`, this knob *does* change the numbers:
    /// per-cell reuse correlates a cell's repetitions through one shared
    /// private intermediate.
    pub reuse: MeasureReuse,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            epsilons: vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
            repetitions: 10,
            queries: Query::ALL.to_vec(),
            query_params: QueryParams::default(),
            seed: 0,
            threads: 0,
            reuse: MeasureReuse::default(),
        }
    }
}

/// How [`run_benchmark`] amortises the mechanisms' two-phase split
/// ([`GraphGenerator::measure`] / [`PrivateSynthesis::sample`]) over a
/// cell's repetitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MeasureReuse {
    /// The paper-faithful default: every repetition runs the full
    /// `measure` + `sample` pipeline on its own derived RNG stream —
    /// repetitions are independent end-to-end draws of the mechanism, and
    /// the CSV is byte-identical to the pre-split runner.
    #[default]
    PerRep,
    /// Measurement reuse (the Private-PGM pattern): `measure` runs **once
    /// per (dataset, algorithm, ε) cell** on a dedicated derived stream,
    /// and each repetition only re-`sample`s the shared private
    /// intermediate — free by DP post-processing invariance, and the
    /// amortisation a serving layer batches on. Repetitions then share the
    /// intermediate's noise, so per-cell averages estimate the *sampling*
    /// variance around one measurement rather than the full mechanism
    /// variance: numbers differ from [`MeasureReuse::PerRep`] by design
    /// (they remain byte-identical across thread counts).
    PerCell,
}

impl MeasureReuse {
    /// CLI-facing name (`"rep"` / `"cell"`).
    pub fn name(self) -> &'static str {
        match self {
            MeasureReuse::PerRep => "rep",
            MeasureReuse::PerCell => "cell",
        }
    }
}

impl std::str::FromStr for MeasureReuse {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rep" => Ok(MeasureReuse::PerRep),
            "cell" => Ok(MeasureReuse::PerCell),
            other => Err(format!("unknown reuse mode {other:?} (expected \"rep\" or \"cell\")")),
        }
    }
}

/// One averaged benchmark cell: an (algorithm, dataset, ε, query) tuple
/// with its mean error over the repetitions.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Algorithm display name.
    pub algorithm: String,
    /// Dataset display name.
    pub dataset: String,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// The evaluated query.
    pub query: Query,
    /// The metric the error is expressed in (lower is better).
    pub metric: ErrorMetric,
    /// Mean error over the repetitions; `NaN` when every repetition's
    /// generation failed (`runs == 0`), so the grid stays complete.
    pub mean_error: f64,
    /// Number of repetitions averaged.
    pub runs: usize,
}

/// All outcomes of a benchmark run.
///
/// [`run_benchmark`] always emits the *complete* grid in a fixed layout:
/// outcomes are ordered dataset-major, then algorithm, then ε, then query
/// (all in their configured input order), with one entry per cell even when
/// generation failed every repetition. [`BenchmarkResults::error`] exploits
/// the layout for O(1) positional lookup.
#[derive(Clone, Debug, Default)]
pub struct BenchmarkResults {
    /// One entry per (dataset, algorithm, ε, query), in grid order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Algorithm names in suite order.
    pub algorithms: Vec<String>,
    /// Dataset names in input order.
    pub datasets: Vec<String>,
    /// The swept ε values.
    pub epsilons: Vec<f64>,
    /// The evaluated queries.
    pub queries: Vec<Query>,
}

impl BenchmarkResults {
    /// Looks up a cell's mean error by position in the grid layout: the
    /// `(algorithm, dataset, ε, query)` coordinates are resolved to indices
    /// in their respective axis vectors and the outcome is read directly —
    /// no scan over the outcome list.
    ///
    /// Returns `None` for coordinates outside the grid. A cell whose every
    /// repetition failed is present with `mean_error = NaN`. Results whose
    /// `outcomes` were assembled by hand in some other order fall back to a
    /// linear scan.
    pub fn error(&self, algorithm: &str, dataset: &str, epsilon: f64, query: Query) -> Option<f64> {
        let matches = |o: &ExperimentOutcome| {
            o.algorithm == algorithm
                && o.dataset == dataset
                && (o.epsilon - epsilon).abs() < 1e-12
                && o.query == query
        };
        let positional = || {
            let ai = self.algorithms.iter().position(|a| a == algorithm)?;
            let di = self.datasets.iter().position(|d| d == dataset)?;
            let ei = self.epsilons.iter().position(|e| (e - epsilon).abs() < 1e-12)?;
            let qi = self.queries.iter().position(|&q| q == query)?;
            let idx = ((di * self.algorithms.len() + ai) * self.epsilons.len() + ei)
                * self.queries.len()
                + qi;
            self.outcomes.get(idx).filter(|o| matches(o))
        };
        positional()
            .map(|o| o.mean_error)
            .or_else(|| self.outcomes.iter().find(|o| matches(o)).map(|o| o.mean_error))
    }

    /// Renders all outcomes as CSV (`algorithm,dataset,epsilon,query,metric,error,runs`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("algorithm,dataset,epsilon,query,metric,mean_error,runs\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6e},{}\n",
                o.algorithm,
                o.dataset,
                o.epsilon,
                o.query.symbol(),
                o.metric.name(),
                o.mean_error,
                o.runs
            ));
        }
        out
    }
}

/// Derives a deterministic per-cell RNG from the master seed — cells are
/// independent, so runs are reproducible regardless of thread scheduling.
fn cell_rng(seed: u64, dataset_idx: usize, algo_idx: usize, eps_idx: usize, rep: usize) -> StdRng {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for x in [dataset_idx as u64, algo_idx as u64, eps_idx as u64, rep as u64] {
        h ^= x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
        h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    }
    StdRng::seed_from_u64(h)
}

/// A grid cell's coordinates: (dataset, algorithm, ε) indices.
pub(crate) type Cell = (usize, usize, usize);

/// One benchmark grid as [`run_grid`] sees it. The static grid
/// ([`run_benchmark`]) and the temporal grid
/// ([`crate::benchmark::run_temporal_benchmark`]) differ only in what a
/// dataset, a measurement and an outcome row are; the driver owns
/// everything else — RNG derivation, measurement reuse, repetition order
/// and the mean.
pub(crate) trait Grid: Sync {
    /// A dataset's true query values.
    type Truth: Send + Sync;
    /// A cell's private intermediate.
    type Measured;
    /// One outcome row.
    type Row: Send + Sync;

    /// Evaluates dataset `di`'s true query values.
    fn truth(&self, di: usize, rng: &mut StdRng) -> Self::Truth;

    /// Runs the cell's ε-consuming measure phase; `None` when it fails.
    fn measure(&self, cell: Cell, rng: &mut StdRng) -> Option<Self::Measured>;

    /// One repetition: samples `measured`, evaluates the query suite, and
    /// returns the error of every outcome row of the cell.
    fn run_rep(&self, truth: &Self::Truth, measured: &Self::Measured, rng: &mut StdRng)
        -> Vec<f64>;

    /// The cell's outcome rows, from the per-row mean errors over its
    /// `runs` successful repetitions (`means` is empty when `runs == 0`).
    fn reduce(&self, cell: Cell, means: &[f64], runs: usize) -> Vec<Self::Row>;
}

/// Runs a grid of `datasets × algorithms × config.epsilons` cells and
/// returns their rows in grid order: dataset-major, then algorithm, then ε.
///
/// True values are computed first, one task of
/// [`pgb_par::run_pool_collect`] per dataset on the `ai = usize::MAX`
/// stream no real cell occupies. Each cell is then one task of a second
/// pool: workers claim cells in grid order and run each under their fixed
/// share of `config.threads`. A cell runs its repetitions in order on the
/// derived streams `cell_rng(seed, di, ai, ei, rep)` — per-rep, each
/// repetition measures and samples on its stream; per-cell, one
/// measurement on the `rep = usize::MAX` stream is re-sampled by every
/// repetition. Errors sum in repetition order. The rows are therefore
/// byte-identical for every thread budget. Repetitions whose measurement
/// fails are skipped, and a cell with none left still emits its rows with
/// `runs = 0`.
pub(crate) fn run_grid<G: Grid>(
    grid: &G,
    datasets: usize,
    algorithms: usize,
    config: &BenchmarkConfig,
) -> Vec<G::Row> {
    let budget =
        if config.threads == 0 { pgb_par::available_parallelism() } else { config.threads };
    let truths = pgb_par::run_pool_collect(budget, datasets, |di| {
        grid.truth(di, &mut cell_rng(config.seed, di, usize::MAX, 0, 0))
    });
    let epsilons = config.epsilons.len();
    let cells: Vec<Cell> = (0..datasets)
        .flat_map(|di| {
            (0..algorithms).flat_map(move |ai| (0..epsilons).map(move |ei| (di, ai, ei)))
        })
        .collect();
    let rows = pgb_par::run_pool_collect(budget, cells.len(), |c| {
        let cell @ (di, ai, ei) = cells[c];
        let shared = (config.reuse == MeasureReuse::PerCell)
            .then(|| grid.measure(cell, &mut cell_rng(config.seed, di, ai, ei, usize::MAX)));
        let mut sums: Vec<f64> = Vec::new();
        let mut runs = 0usize;
        for rep in 0..config.repetitions {
            let mut rng = cell_rng(config.seed, di, ai, ei, rep);
            let own;
            let measured = match &shared {
                Some(shared) => shared.as_ref(),
                None => {
                    own = grid.measure(cell, &mut rng);
                    own.as_ref()
                }
            };
            let Some(measured) = measured else { continue };
            let errors = grid.run_rep(&truths[di], measured, &mut rng);
            sums.resize(errors.len(), 0.0);
            for (sum, e) in sums.iter_mut().zip(&errors) {
                *sum += e;
            }
            runs += 1;
        }
        let means: Vec<f64> = sums.iter().map(|sum| sum / runs as f64).collect();
        grid.reduce(cell, &means, runs)
    });
    rows.into_iter().flatten().collect()
}

/// The static grid: [`GraphGenerator`]s × graphs × ε, one row per query.
struct StaticGrid<'a> {
    algorithms: &'a [Box<dyn GraphGenerator>],
    datasets: &'a [(String, Graph)],
    config: &'a BenchmarkConfig,
}

impl Grid for StaticGrid<'_> {
    type Truth = Vec<QueryValue>;
    type Measured = Box<dyn PrivateSynthesis>;
    type Row = ExperimentOutcome;

    fn truth(&self, di: usize, rng: &mut StdRng) -> Vec<QueryValue> {
        let c = self.config;
        QuerySuite::evaluate_all(&self.datasets[di].1, &c.queries, &c.query_params, rng)
    }

    fn measure(&self, (di, ai, ei): Cell, rng: &mut StdRng) -> Option<Box<dyn PrivateSynthesis>> {
        self.algorithms[ai].measure(&self.datasets[di].1, self.config.epsilons[ei], rng).ok()
    }

    fn run_rep(
        &self,
        truth: &Vec<QueryValue>,
        measured: &Box<dyn PrivateSynthesis>,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let c = self.config;
        let synthetic = measured.sample(rng);
        let values = QuerySuite::evaluate_all(&synthetic, &c.queries, &c.query_params, rng);
        c.queries
            .iter()
            .zip(truth)
            .zip(&values)
            .map(|((q, t), v)| compute_error(*q, t, v))
            .collect()
    }

    fn reduce(&self, (di, ai, ei): Cell, means: &[f64], runs: usize) -> Vec<ExperimentOutcome> {
        let c = self.config;
        c.queries
            .iter()
            .enumerate()
            .map(|(qi, q)| ExperimentOutcome {
                algorithm: self.algorithms[ai].name().to_string(),
                dataset: self.datasets[di].0.clone(),
                epsilon: c.epsilons[ei],
                query: *q,
                metric: metric_for(*q),
                mean_error: means.get(qi).copied().unwrap_or(f64::NAN),
                runs,
            })
            .collect()
    }
}

/// Runs the full benchmark grid: every algorithm × dataset × ε, with
/// `config.repetitions` generations per cell, all queries evaluated per
/// generation through the one-pass [`QuerySuite`] evaluator, and errors
/// averaged.
///
/// Cells run as whole tasks over `config.threads` total threads (see
/// `run_grid`), so results are deterministic — byte-identical CSV — for
/// a fixed seed at any thread count.
///
/// Under [`MeasureReuse::PerCell`] each cell's ε-consuming `measure` phase
/// runs once on a dedicated derived stream and repetitions only
/// re-`sample` — the numbers differ from the per-rep default by design,
/// but stay byte-identical across thread counts all the same.
///
/// Cells where every repetition's generation failed are still emitted, with
/// `runs = 0` and `NaN` errors, so downstream reports always see the
/// complete grid.
pub fn run_benchmark(
    algorithms: &[Box<dyn GraphGenerator>],
    datasets: &[(String, Graph)],
    config: &BenchmarkConfig,
) -> BenchmarkResults {
    let grid = StaticGrid { algorithms, datasets, config };
    BenchmarkResults {
        outcomes: run_grid(&grid, datasets.len(), algorithms.len(), config),
        algorithms: algorithms.iter().map(|a| a.name().to_string()).collect(),
        datasets: datasets.iter().map(|(n, _)| n.clone()).collect(),
        epsilons: config.epsilons.clone(),
        queries: config.queries.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenerateError;
    use crate::{Dgg, TmF};

    type Setup = (Vec<Box<dyn GraphGenerator>>, Vec<(String, Graph)>, BenchmarkConfig);

    /// A generator whose every run fails — exercises the complete-grid
    /// guarantee for `runs == 0` cells.
    struct AlwaysFails;

    impl GraphGenerator for AlwaysFails {
        fn name(&self) -> &'static str {
            "Fails"
        }

        fn measure(
            &self,
            _graph: &Graph,
            _epsilon: f64,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
            Err(GenerateError::GraphTooSmall { required: usize::MAX, actual: 0 })
        }
    }

    fn tiny_setup() -> Setup {
        let mut rng = StdRng::seed_from_u64(500);
        let g = pgb_models::erdos_renyi_gnp(60, 0.1, &mut rng);
        let algorithms: Vec<Box<dyn GraphGenerator>> =
            vec![Box::new(TmF::default()), Box::new(Dgg::default())];
        let datasets = vec![("toy".to_string(), g)];
        let config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: vec![Query::EdgeCount, Query::Triangles, Query::DegreeDistribution],
            seed: 1,
            threads: 2,
            ..Default::default()
        };
        (algorithms, datasets, config)
    }

    #[test]
    fn grid_is_complete() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        // 2 algorithms × 1 dataset × 2 ε × 3 queries.
        assert_eq!(results.outcomes.len(), 12);
        for o in &results.outcomes {
            assert!(o.mean_error.is_finite(), "{o:?}");
            assert_eq!(o.runs, 2);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (algorithms, datasets, mut config) = tiny_setup();
        config.threads = 1;
        let a = run_benchmark(&algorithms, &datasets, &config);
        config.threads = 4;
        let b = run_benchmark(&algorithms, &datasets, &config);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.query, y.query);
            assert!((x.mean_error - y.mean_error).abs() < 1e-12, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn csv_byte_identical_across_thread_counts() {
        // Regression: `to_csv` output must be byte-identical at any thread
        // count, because cell RNGs are derived from the master seed and the
        // generators' intra-cell parallelism follows the same derived-stream
        // chunking discipline (`pgb_par`), not scheduling order.
        // The algorithm set deliberately includes all four generators with
        // parallel perturbation/construction phases (TmF, DER, PrivSKG,
        // PrivGraph); the query set includes the Louvain-backed pair
        // (CD/Mod): their randomness comes from the suite evaluator's
        // derived per-intermediate streams and their float reductions are
        // ordered, so even they must reproduce bit-exactly.
        let mut rng = StdRng::seed_from_u64(42);
        let datasets = vec![
            ("er".to_string(), pgb_models::erdos_renyi_gnp(50, 0.1, &mut rng)),
            ("ba".to_string(), pgb_models::barabasi_albert(50, 2, &mut rng)),
        ];
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![
            Box::new(TmF::default()),
            Box::new(crate::Der::default()),
            Box::new(crate::PrivSkg::default()),
            Box::new(crate::PrivGraph::default()),
        ];
        let mut config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: vec![
                Query::EdgeCount,
                Query::Triangles,
                Query::CommunityDetection,
                Query::Modularity,
            ],
            seed: 42,
            threads: 1,
            ..Default::default()
        };
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        // 2 datasets × 4 algorithms × 2 ε × 4 queries + header.
        assert_eq!(serial.lines().count(), 65);
        for threads in [2, 8, 0] {
            config.threads = threads; // 0 ⇒ auto: available parallelism
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(serial, other, "CSV must not depend on threads = {threads}");
        }
    }

    #[test]
    fn csv_byte_identical_on_evaluation_heavy_grid() {
        // The evaluation-side mirror of the sweep above: a dense graph and
        // the full 15-query suite make `QuerySuite::evaluate_all` (triangle
        // pass, BFS sweep, Louvain, EVC) dominate each cell, and the cheap
        // generator keeps generation out of the picture. The parallel
        // shared passes must leave the CSV byte-identical at every thread
        // budget.
        let mut rng = StdRng::seed_from_u64(7);
        let datasets = vec![("dense".to_string(), pgb_models::erdos_renyi_gnp(120, 0.3, &mut rng))];
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(TmF::default())];
        let mut config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: Query::ALL.to_vec(),
            seed: 77,
            threads: 1,
            ..Default::default()
        };
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        // 1 dataset × 1 algorithm × 2 ε × 15 queries + header.
        assert_eq!(serial.lines().count(), 31);
        for threads in [2, 8, 0] {
            config.threads = threads;
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(
                serial, other,
                "evaluation-heavy CSV must not depend on threads = {threads}"
            );
        }
    }

    #[test]
    fn measure_reuse_parses_and_defaults_to_per_rep() {
        assert_eq!(BenchmarkConfig::default().reuse, MeasureReuse::PerRep);
        assert_eq!("rep".parse::<MeasureReuse>(), Ok(MeasureReuse::PerRep));
        assert_eq!("cell".parse::<MeasureReuse>(), Ok(MeasureReuse::PerCell));
        assert!("once".parse::<MeasureReuse>().is_err());
        assert_eq!(MeasureReuse::PerRep.name(), "rep");
        assert_eq!(MeasureReuse::PerCell.name(), "cell");
    }

    #[test]
    fn per_cell_reuse_is_deterministic_across_threads() {
        // Per-cell numbers legitimately differ from per-rep numbers, but
        // within the mode the full determinism contract must hold: the CSV
        // is byte-identical for every thread budget.
        let (algorithms, datasets, mut config) = tiny_setup();
        config.reuse = MeasureReuse::PerCell;
        config.threads = 1;
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        assert_eq!(serial.lines().count(), 13);
        for threads in [2, 8, 0] {
            config.threads = threads;
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(serial, other, "per-cell CSV must not depend on threads = {threads}");
        }
        // And every cell still completes: sampling a shared intermediate
        // succeeds wherever the full pipeline would have.
        let results = run_benchmark(&algorithms, &datasets, &config);
        for o in &results.outcomes {
            assert_eq!(o.runs, 2, "{o:?}");
            assert!(o.mean_error.is_finite(), "{o:?}");
        }
    }

    #[test]
    fn failing_generator_complete_grid_under_both_reuse_modes() {
        // The complete-grid guarantee (runs = 0, NaN cells) must hold in
        // both reuse modes: a failed per-rep measurement skips that
        // repetition, a failed per-cell one skips them all, and the cell
        // is still emitted.
        let (_, datasets, mut config) = tiny_setup();
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(AlwaysFails)];
        for reuse in [MeasureReuse::PerRep, MeasureReuse::PerCell] {
            config.reuse = reuse;
            let results = run_benchmark(&algorithms, &datasets, &config);
            assert_eq!(results.outcomes.len(), 6, "{reuse:?}");
            for o in &results.outcomes {
                assert_eq!(o.runs, 0, "{reuse:?}: {o:?}");
                assert!(o.mean_error.is_nan(), "{reuse:?}: {o:?}");
            }
        }
    }

    #[test]
    fn error_lookup_and_csv() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        let e = results.error("TmF", "toy", 5.0, Query::EdgeCount);
        assert!(e.is_some());
        let csv = results.to_csv();
        assert!(csv.lines().count() == 13); // header + 12 rows
        assert!(csv.contains("TmF,toy"));
    }

    #[test]
    fn positional_error_lookup_covers_the_whole_grid() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        // The positional lookup must agree with a plain scan on every cell.
        for algo in &results.algorithms {
            for ds in &results.datasets {
                for &eps in &results.epsilons {
                    for &q in &results.queries {
                        let scanned = results
                            .outcomes
                            .iter()
                            .find(|o| {
                                o.algorithm == *algo
                                    && o.dataset == *ds
                                    && (o.epsilon - eps).abs() < 1e-12
                                    && o.query == q
                            })
                            .map(|o| o.mean_error)
                            .expect("grid is complete");
                        assert_eq!(results.error(algo, ds, eps, q), Some(scanned));
                    }
                }
            }
        }
        // Off-grid coordinates miss cleanly.
        assert_eq!(results.error("NoSuchAlgo", "toy", 5.0, Query::EdgeCount), None);
        assert_eq!(results.error("TmF", "toy", 3.25, Query::EdgeCount), None);
        assert_eq!(results.error("TmF", "toy", 5.0, Query::Diameter), None);
    }

    #[test]
    fn error_lookup_falls_back_on_hand_assembled_results() {
        let (algorithms, datasets, config) = tiny_setup();
        let mut results = run_benchmark(&algorithms, &datasets, &config);
        // Scramble the grid order; lookups must still find every cell.
        results.outcomes.reverse();
        let e = results.error("TmF", "toy", 5.0, Query::EdgeCount);
        assert!(e.is_some());
    }

    #[test]
    fn failing_generator_still_emits_complete_grid() {
        let (_, datasets, config) = tiny_setup();
        let algorithms: Vec<Box<dyn GraphGenerator>> =
            vec![Box::new(AlwaysFails), Box::new(TmF::default())];
        let results = run_benchmark(&algorithms, &datasets, &config);
        // 2 algorithms × 1 dataset × 2 ε × 3 queries — nothing dropped.
        assert_eq!(results.outcomes.len(), 12);
        for o in &results.outcomes {
            if o.algorithm == "Fails" {
                assert_eq!(o.runs, 0, "{o:?}");
                assert!(o.mean_error.is_nan(), "{o:?}");
            } else {
                assert_eq!(o.runs, 2, "{o:?}");
                assert!(o.mean_error.is_finite(), "{o:?}");
            }
        }
        // The CSV grid is complete and marks the failed cells.
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 13);
        assert!(csv.contains("NaN"), "{csv}");
        // Lookups surface the failed cell rather than pretending it ran.
        let e = results.error("Fails", "toy", 0.5, Query::EdgeCount).unwrap();
        assert!(e.is_nan());
    }

    #[test]
    fn tmf_beats_noise_at_high_epsilon_on_edge_count() {
        let (algorithms, datasets, mut config) = tiny_setup();
        config.epsilons = vec![10.0];
        config.repetitions = 4;
        let results = run_benchmark(&algorithms, &datasets, &config);
        let tmf = results.error("TmF", "toy", 10.0, Query::EdgeCount).unwrap();
        // TmF controls |E| directly via m̃, so the RE must be small.
        assert!(tmf < 0.05, "TmF |E| error {tmf}");
    }

    #[test]
    fn zero_repetitions_report_zero_runs() {
        // A request for no repetitions emits the complete grid with
        // `runs = 0`, rather than silently running one.
        let (algorithms, datasets, mut config) = tiny_setup();
        config.repetitions = 0;
        let results = run_benchmark(&algorithms, &datasets, &config);
        assert_eq!(results.outcomes.len(), 12);
        assert!(results.outcomes.iter().all(|o| o.runs == 0 && o.mean_error.is_nan()));
    }
}
