//! The PGB benchmark: four seeded workloads, each pushing one layer of the
//! stack hard while leaving another idle.
//!
//! ```text
//! pgb-perfbench --workload grid-hrg|grid-eval|grid-temporal|serve-mixed
//!               --seed N --seconds N --trace 0|1
//! ```
//!
//! A run builds its workload's inputs from `--seed`, repeats the
//! workload's budget-1 and budget-2 legs until `--seconds` have passed,
//! checks every output, and prints one JSON line last: `correct`,
//! `attempted`, `failed` and the metrics by name with their units. With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` a
//! separate traced pass calls each layer's public functions on the same
//! inputs and the per-layer metrics are printed instead (`catalogue.json`
//! describes every metric). Load comes from this one process and never
//! uses more than two threads.

mod grid;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: pgb-perfbench --workload grid-hrg|grid-eval|grid-temporal|serve-mixed \
                     --seed N --seconds N --trace 0|1";

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The six-mechanism grid, dominated by PrivHRG's MCMC.
    GridHrg,
    /// The five non-HRG mechanisms on all Table VI datasets, dominated by
    /// query evaluation.
    GridEval,
    /// The windowed temporal grid.
    GridTemporal,
    /// A closed loop of two clients against a WAL-backed server.
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::GridHrg, Workload::GridEval, Workload::GridTemporal, Workload::ServeMixed];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridHrg => "grid-hrg",
            Workload::GridEval => "grid-eval",
            Workload::GridTemporal => "grid-temporal",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed legs repeat.
    pub seconds: f64,
    /// Whether to run the traced pass and print per-layer metrics.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-process scratch directory under the working directory (the WAL
/// files live here), removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".perfbench_scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pgb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pgb-perfbench: creating the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::default();
    match args.workload {
        Workload::ServeMixed => serve::run(&args, &scratch, &mut report),
        workload => grid::run(workload, &args, &scratch, &mut report),
    }
    report.set("process.peak_rss_mb", peak_rss_mb());
    let shown: &[(&str, &str)] = if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    let (line, fail_frac) = report.render(shown);
    eprintln!("pgb-perfbench: {} seed {}: fail_frac {fail_frac}", args.workload.name(), args.seed);
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve-mixed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ServeMixed, 7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid-hrg --seed -1 --seconds 1 --trace 0",
            "--workload grid-hrg --seed 1 --seconds 1 --trace 2",
            "--workload grid-hrg --seed 1 --seconds 1",
            "--workload grid-hrg --seed 1 --seconds 1 --trace",
            "--workload grid-hrg --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
