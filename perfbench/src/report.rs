//! A run's result: checked operations counted against attempts, measured
//! values by metric name, and the one-line JSON the benchmark prints last.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s_t1", "s"), ("wall_s_t2", "s")];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// `catalogue.json` says which end-to-end metric each should move, on
/// which workload.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("process.peak_rss_mb", "MB"),
    ("pgb_datasets.generate_s", "s"),
    ("pgb_models.hrg_mcmc_steps", "count"),
    ("pgb_models.hrg_step_ns", "ns"),
    ("pgb_core.measure_s.DP-dK", "s"),
    ("pgb_core.measure_s.TmF", "s"),
    ("pgb_core.measure_s.PrivSKG", "s"),
    ("pgb_core.measure_s.PrivHRG", "s"),
    ("pgb_core.measure_s.PrivGraph", "s"),
    ("pgb_core.measure_s.DGG", "s"),
    ("pgb_core.sample_s.DP-dK", "s"),
    ("pgb_core.sample_s.TmF", "s"),
    ("pgb_core.sample_s.PrivSKG", "s"),
    ("pgb_core.sample_s.PrivHRG", "s"),
    ("pgb_core.sample_s.PrivGraph", "s"),
    ("pgb_core.sample_s.DGG", "s"),
    ("pgb_core.temporal_measure_s.TmF", "s"),
    ("pgb_core.temporal_measure_s.DGG", "s"),
    ("pgb_core.compute_error_s", "s"),
    ("pgb_graph.snapshots_s", "s"),
    ("pgb_graph.csr_rebuild_s", "s"),
    ("pgb_queries.evaluate_all_s", "s"),
    ("pgb_queries.suite_passes", "count"),
    ("pgb_queries.degree_hist_s", "s"),
    ("pgb_queries.bfs_s", "s"),
    ("pgb_queries.triangles_s", "s"),
    ("pgb_queries.evc_s", "s"),
    ("pgb_queries.assortativity_s", "s"),
    ("pgb_queries.suite_drift_s", "s"),
    ("pgb_community.louvain_s", "s"),
    ("pgb_serve.cache_hits", "count"),
    ("pgb_serve.cache_measures", "count"),
    ("pgb_serve.cache_coalesced", "count"),
    ("pgb_serve.cache_evictions", "count"),
    ("pgb_serve.cache_failures", "count"),
    ("pgb_serve.cache_hit_ratio", "ratio"),
    ("pgb_serve.latency_ms.p50", "ms"),
    ("pgb_serve.latency_ms.tail", "ms"),
    ("pgb_serve.latency_ms.tail_pct", "%"),
    ("pgb_serve.latency_ms.n", "count"),
    ("pgb_serve.throughput_rps", "1/s"),
    ("pgb_serve.recover_s", "s"),
    ("pgb_serve.admit_us.p50", "us"),
    ("pgb_serve.admit_us.tail", "us"),
    ("pgb_serve.admit_us.tail_pct", "%"),
    ("pgb_serve.admit_us.n", "count"),
    ("pgb_serve.wal_append_us.p50", "us"),
    ("pgb_serve.wal_append_us.tail", "us"),
    ("pgb_serve.wal_append_us.tail_pct", "%"),
    ("pgb_serve.wal_append_us.n", "count"),
    ("pgb_serve.reject_latency_ms.p50", "ms"),
    ("pgb_serve.reject_latency_ms.tail", "ms"),
    ("pgb_serve.reject_latency_ms.tail_pct", "%"),
    ("pgb_serve.reject_latency_ms.n", "count"),
    ("pgb_serve.sample_ms.p50", "ms"),
    ("pgb_serve.encode_us.p50", "us"),
    ("pgb_serve.wal_bytes", "bytes"),
    ("pgb_serve.wal_records", "count"),
    ("pgb_serve.wal_read_ms", "ms"),
    ("pgb_serve.replay_s", "s"),
    ("pgb_serve.outcomes.ok", "count"),
    ("pgb_serve.outcomes.budget-exhausted", "count"),
    ("pgb_serve.outcomes.deadline-exceeded", "count"),
];

/// Checked operations and measured values of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

impl Report {
    /// Counts `attempted` operations, `failed` of which failed.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Counts one checked operation and logs a failure to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.tally(1, usize::from(!ok));
        if !ok {
            eprintln!("pgb-perfbench: check failed: {}", what());
        }
        ok
    }

    /// Failed over attempted operations (0 before any attempt).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        match self.values.iter().position(|(n, _)| n == name) {
            Some(i) => &mut self.values[i].1,
            None => {
                self.values.push((name.to_string(), 0.0));
                &mut self.values.last_mut().expect("just pushed").1
            }
        }
    }

    /// Adds `value` to metric `name` (which starts at 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    /// The value of metric `name`, 0 if it was never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Records the `p50`, `tail`, `tail_pct` and `n` of a distribution
    /// under `base` (see [`crate::stats::summarize`]); all 0 when empty.
    pub fn distribution(&mut self, base: &str, samples: &[f64]) {
        let s = crate::stats::summarize(samples).unwrap_or(crate::stats::Summary {
            p50: 0.0,
            tail_pct: 0.0,
            tail: 0.0,
            n: 0,
        });
        self.set(&format!("{base}.p50"), s.p50);
        self.set(&format!("{base}.tail"), s.tail);
        self.set(&format!("{base}.tail_pct"), s.tail_pct);
        self.set(&format!("{base}.n"), s.n as f64);
    }

    /// Renders the result line with the metrics of `shown`, in order, and
    /// returns it with the final [`Report::fail_frac`]. A shown metric that
    /// was not measured or is not finite, and a recorded name that no
    /// catalogue lists, each count as a failed check; so does a run that
    /// checked nothing.
    pub fn render(mut self, shown: &[(&str, &str)]) -> (String, f64) {
        let values = std::mem::take(&mut self.values);
        for (name, _) in &values {
            if !END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name) {
                self.check(false, || format!("metric {name} is in no catalogue"));
            }
        }
        let mut metrics = Vec::with_capacity(shown.len());
        for (name, unit) in shown {
            let value = match values.iter().find(|(n, _)| n == name).map(|(_, v)| *v) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.check(false, || format!("metric {name} measured as {other:?}"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        if self.attempted == 0 {
            self.check(false, || "the run checked nothing".to_string());
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        (line, self.fail_frac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_frac_counts_tallies_and_checks() {
        let mut r = Report::default();
        assert_eq!(r.fail_frac(), 0.0);
        r.tally(10, 1);
        assert!(r.check(true, || unreachable!("passing checks build no message")));
        assert!(!r.check(false, || "expected".to_string()));
        assert_eq!((r.attempted, r.failed), (12, 2));
        assert_eq!(r.fail_frac(), 2.0 / 12.0);
    }

    #[test]
    fn add_accumulates_and_set_overwrites() {
        let mut r = Report::default();
        r.add("pgb_graph.snapshots_s", 0.25);
        r.add("pgb_graph.snapshots_s", 0.5);
        assert_eq!(r.get("pgb_graph.snapshots_s"), 0.75);
        r.set("pgb_graph.snapshots_s", 2.0);
        assert_eq!(r.get("pgb_graph.snapshots_s"), 2.0);
        assert_eq!(r.get("pgb_graph.csr_rebuild_s"), 0.0);
    }

    #[test]
    fn render_prints_every_shown_metric_and_fails_gaps() {
        let mut r = Report::default();
        r.tally(3, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 0.5 + i as f64);
        }
        r.set("pgb_graph.csr_rebuild_s", 1.0);
        let (line, fail_frac) = r.render(&END_TO_END);
        assert_eq!(fail_frac, 0.0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"), "{line}");
        assert!(line.contains("\"wall_s_t1\": {\"value\": 1.5, \"unit\": \"s\"}"), "{line}");
        assert!(!line.contains("csr_rebuild"), "{line}");

        let mut r = Report::default();
        r.tally(1, 0);
        r.set("setup_s", f64::NAN);
        r.set("no_such_metric", 1.0);
        let (line, fail_frac) = r.render(&END_TO_END);
        // One unknown name, one NaN and two unmeasured metrics; the
        // returned fraction counts them too.
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 4,"),
            "{line}"
        );
        assert_eq!(fail_frac, 4.0 / 5.0);
    }

    #[test]
    fn a_run_that_checks_nothing_is_not_correct() {
        let (line, fail_frac) = Report::default().render(&[]);
        assert_eq!(line, "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}");
        assert_eq!(fail_frac, 1.0);
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn catalogue_json_describes_exactly_the_listed_metrics() {
        let json = include_str!("../catalogue.json");
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"{name}\": {{");
            assert_eq!(json.matches(&entry).count(), 1, "catalogue.json lacks {entry}");
        }
        // Every entry names its layer once.
        let described = json.matches("\"layer\":").count();
        assert_eq!(
            described,
            END_TO_END.len() + PER_LAYER.len(),
            "catalogue.json describes extra metrics"
        );
    }
}
