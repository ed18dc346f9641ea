//! Minimal argument parsing shared by the harness binaries.

use pgb_core::benchmark::MeasureReuse;

/// Experiment scale presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full grid, 2 repetitions, sampled path queries — minutes on a
    /// laptop. The default.
    Small,
    /// Full grid, 5 repetitions.
    Medium,
    /// The paper's protocol: 10 repetitions (§V-D). Hours.
    Paper,
}

impl Scale {
    /// Repetitions per benchmark cell.
    pub fn repetitions(&self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Medium => 5,
            Scale::Paper => 10,
        }
    }
}

/// Parsed harness arguments.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Scale preset.
    pub scale: Scale,
    /// Repetition override (None ⇒ scale default; `--reps N`, N ≥ 1).
    pub reps: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 ⇒ available parallelism).
    pub threads: usize,
    /// Measurement amortisation (`--reuse rep|cell`; rep default). Per-rep
    /// is the paper-faithful pipeline; per-cell runs the ε-consuming
    /// `measure` phase once per (dataset, algorithm, ε) cell and
    /// re-samples it each repetition — the numbers change by design, but
    /// stay deterministic in threads.
    pub reuse: MeasureReuse,
    /// Number of snapshot windows for the temporal harness
    /// (`--windows N`, N ≥ 1; only the temporal binaries read it).
    pub windows: usize,
    /// Per-window ε weights (`--window-eps w1,w2,…`). Empty ⇒ even split.
    /// When given, the length must equal `windows`.
    pub window_eps: Vec<f64>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Small,
            reps: None,
            seed: 0,
            threads: 0,
            reuse: MeasureReuse::default(),
            windows: 4,
            window_eps: Vec::new(),
        }
    }
}

impl HarnessArgs {
    /// Parses `--scale`, `--reps`, `--seed`, `--threads`, `--reuse`,
    /// `--windows`, `--window-eps` from an iterator of arguments (unknown
    /// arguments error).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value_of =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match arg.as_str() {
                "--scale" => {
                    out.scale = match value_of("--scale")?.as_str() {
                        "small" => Scale::Small,
                        "medium" => Scale::Medium,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale {other:?}")),
                    };
                }
                "--reps" => {
                    let reps =
                        value_of("--reps")?.parse().map_err(|e| format!("invalid --reps: {e}"))?;
                    if reps == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                    out.reps = Some(reps);
                }
                "--seed" => {
                    out.seed =
                        value_of("--seed")?.parse().map_err(|e| format!("invalid --seed: {e}"))?;
                }
                "--threads" => {
                    out.threads = value_of("--threads")?
                        .parse()
                        .map_err(|e| format!("invalid --threads: {e}"))?;
                }
                "--reuse" => {
                    out.reuse = value_of("--reuse")?
                        .parse()
                        .map_err(|e| format!("invalid --reuse: {e}"))?;
                }
                "--windows" => {
                    out.windows = value_of("--windows")?
                        .parse()
                        .map_err(|e| format!("invalid --windows: {e}"))?;
                    if out.windows == 0 {
                        return Err("--windows must be at least 1".to_string());
                    }
                }
                "--window-eps" => {
                    out.window_eps = value_of("--window-eps")?
                        .split(',')
                        .map(|w| match w.trim().parse::<f64>() {
                            // The predicate `TemporalGenerator::measure` enforces.
                            Ok(w) if w > 0.0 && w.is_finite() => Ok(w),
                            Ok(w) => {
                                Err(format!("--window-eps weight {w} must be positive and finite"))
                            }
                            Err(e) => Err(format!("invalid --window-eps: {e}")),
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !out.window_eps.is_empty() && out.window_eps.len() != out.windows {
            return Err(format!(
                "--window-eps has {} weights but --windows is {}",
                out.window_eps.len(),
                out.windows
            ));
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with usage on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--scale small|medium|paper] [--reps N] [--seed N] [--threads N] \
                     [--reuse rep|cell] [--windows N] [--window-eps w1,w2,...]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Effective repetition count.
    pub fn repetitions(&self) -> usize {
        self.reps.unwrap_or_else(|| self.scale.repetitions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.repetitions(), 2);
        assert_eq!(a.seed, 0);
        assert_eq!(a.reuse, MeasureReuse::PerRep);
    }

    #[test]
    fn full_parse() {
        let a = parse(&[
            "--scale",
            "paper",
            "--reps",
            "3",
            "--seed",
            "9",
            "--threads",
            "4",
            "--reuse",
            "cell",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.repetitions(), 3); // override wins
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 4);
        assert_eq!(a.reuse, MeasureReuse::PerCell);
    }

    #[test]
    fn reuse_parses_both_modes() {
        assert_eq!(parse(&["--reuse", "rep"]).unwrap().reuse, MeasureReuse::PerRep);
        assert_eq!(parse(&["--reuse", "cell"]).unwrap().reuse, MeasureReuse::PerCell);
        assert!(parse(&["--reuse", "always"]).is_err());
        assert!(parse(&["--reuse"]).is_err());
    }

    #[test]
    fn reps_must_be_positive() {
        assert_eq!(parse(&["--reps", "1"]).unwrap().repetitions(), 1);
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--reps", "-1"]).is_err());
    }

    #[test]
    fn scale_defaults() {
        assert_eq!(Scale::Small.repetitions(), 2);
        assert_eq!(Scale::Medium.repetitions(), 5);
        assert_eq!(Scale::Paper.repetitions(), 10);
    }

    #[test]
    fn windows_parse_and_validate() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.windows, 4);
        assert!(a.window_eps.is_empty());
        let a = parse(&["--windows", "6"]).unwrap();
        assert_eq!(a.windows, 6);
        let a = parse(&["--windows", "3", "--window-eps", "1,2, 3"]).unwrap();
        assert_eq!(a.window_eps, vec![1.0, 2.0, 3.0]);
        // Weight count must match the window count (order-independent).
        assert!(parse(&["--windows", "3", "--window-eps", "1,2"]).is_err());
        assert!(parse(&["--window-eps", "1,2", "--windows", "3"]).is_err());
        assert!(parse(&["--windows", "0"]).is_err());
        assert!(parse(&["--window-eps", "1,oops"]).is_err());
        // Weights must be positive and finite, as the window split requires.
        for bad in ["1,0", "1,-1", "1,nan", "1,inf"] {
            assert!(parse(&["--windows", "2", "--window-eps", bad]).is_err(), "{bad}");
        }
        assert!(parse(&["--windows"]).is_err());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--reps"]).is_err());
        // A removed flag fails loudly rather than being ignored.
        assert!(parse(&["--eval", "approx"]).is_err());
    }
}
