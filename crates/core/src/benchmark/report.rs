//! Plain-text table rendering for the harness binaries.

use crate::benchmark::runner::BenchmarkResults;
use crate::benchmark::scoring::{best_counts_per_case, best_counts_per_query};

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn add_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.headers.len().max(cells.len()), String::new());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = render_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders Table VII (Definition 5): one block per ε, algorithms as rows,
/// datasets as columns, cells = best-performance counts.
pub fn render_table7(results: &BenchmarkResults) -> String {
    let counts = best_counts_per_case(results);
    let mut out = String::new();
    for (ei, eps) in results.epsilons.iter().enumerate() {
        out.push_str(&format!("ε = {eps}\n"));
        let mut headers = vec!["Algorithm".to_string()];
        headers.extend(results.datasets.iter().cloned());
        let mut table = TextTable::new(headers);
        for algo in &results.algorithms {
            let mut row = vec![algo.clone()];
            for dataset in &results.datasets {
                let c = counts.get(&(algo.clone(), dataset.clone(), ei)).copied().unwrap_or(0);
                row.push(c.to_string());
            }
            table.add_row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Renders Table XII (Definition 6): algorithms as rows, queries as
/// columns, cells = best counts over the (dataset × ε) grid.
pub fn render_table12(results: &BenchmarkResults) -> String {
    let counts = best_counts_per_query(results);
    let mut headers = vec!["Algorithm".to_string()];
    headers.extend(results.queries.iter().map(|q| q.symbol().to_string()));
    let mut table = TextTable::new(headers);
    for algo in &results.algorithms {
        let mut row = vec![algo.clone()];
        for &q in &results.queries {
            let c = counts.get(&(algo.clone(), q)).copied().unwrap_or(0);
            row.push(c.to_string());
        }
        table.add_row(row);
    }
    table.render()
}

/// Renders a Fig.-2-style series block: for one (dataset, query), one row
/// per ε with a column per algorithm.
pub fn render_series(
    results: &BenchmarkResults,
    dataset: &str,
    query: pgb_queries::Query,
) -> String {
    let mut headers = vec!["ε".to_string()];
    headers.extend(results.algorithms.iter().cloned());
    let mut table = TextTable::new(headers);
    for &eps in &results.epsilons {
        let mut row = vec![format!("{eps}")];
        for algo in &results.algorithms {
            let cell = results
                .error(algo, dataset, eps, query)
                .map(|e| format!("{e:.4e}"))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        table.add_row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::metric::metric_for;
    use crate::benchmark::runner::ExperimentOutcome;
    use pgb_queries::Query;

    fn fake_results() -> BenchmarkResults {
        let mk = |algo: &str, eps: f64, err: f64| ExperimentOutcome {
            algorithm: algo.into(),
            dataset: "D".into(),
            epsilon: eps,
            query: Query::EdgeCount,
            metric: metric_for(Query::EdgeCount),
            mean_error: err,
            runs: 1,
        };
        BenchmarkResults {
            outcomes: vec![mk("A", 1.0, 0.1), mk("B", 1.0, 0.4)],
            algorithms: vec!["A".into(), "B".into()],
            datasets: vec!["D".into()],
            epsilons: vec![1.0],
            queries: vec![Query::EdgeCount],
        }
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(["name", "value"]);
        t.add_row(["short", "1"]);
        t.add_row(["a-much-longer-name", "42"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All value cells start at the same column.
        let col = lines[2].rfind('1').unwrap();
        assert_eq!(lines[3].rfind("42").unwrap(), col);
    }

    #[test]
    fn table_renders_ragged_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.add_row(["1"]);
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn table7_contains_counts() {
        let s = render_table7(&fake_results());
        assert!(s.contains("ε = 1"));
        assert!(s.contains('A'));
        // A wins the single cell.
        assert!(s.lines().any(|l| l.starts_with('A') && l.trim_end().ends_with('1')), "{s}");
        assert!(s.lines().any(|l| l.starts_with('B') && l.trim_end().ends_with('0')), "{s}");
    }

    #[test]
    fn table12_contains_queries() {
        let s = render_table12(&fake_results());
        assert!(s.contains("|E|"));
    }

    #[test]
    fn series_renders_errors() {
        let s = render_series(&fake_results(), "D", Query::EdgeCount);
        assert!(s.contains("1.0000e-1") || s.contains("1.0000e1") || s.contains("1.00"));
    }
}
