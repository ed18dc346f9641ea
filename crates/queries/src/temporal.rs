//! Temporal queries over snapshot sequences: the inter-event-time
//! histogram of the raw event log, and snapshot-wise drift of the static
//! query suite.
//!
//! The drift evaluation deliberately adds **no new passes**: each snapshot
//! goes through [`QuerySuite::evaluate_all_with_stats`], so every shared
//! intermediate (degree histogram, BFS sweep, triangle pass, Louvain run)
//! is computed at most once *per snapshot*, and the returned
//! [`SuiteStats`] prove it. RNG discipline matches the suite's: one `u64`
//! is drawn from the caller and each window evaluates on its own derived
//! stream, so drift results are independent of evaluation order and thread
//! budget.

use crate::suite::{QuerySuite, SuiteStats};
use crate::{Query, QueryParams, QueryValue};
use pgb_graph::temporal::{SnapshotSequence, Timestamp};
use pgb_graph::Graph;
use rand::Rng;

/// Histogram of gaps between consecutive events: entry `g` counts ordered
/// timestamp pairs at distance `g` (index 0 counts simultaneous events).
/// Fewer than two events yield an empty histogram.
///
/// ```
/// use pgb_queries::temporal::inter_event_time_histogram;
///
/// let hist = inter_event_time_histogram(&[0, 0, 1, 4]);
/// assert_eq!(hist, vec![1, 1, 0, 1]); // gaps 0, 1, 3
/// ```
pub fn inter_event_time_histogram(timestamps: &[Timestamp]) -> Vec<u64> {
    if timestamps.len() < 2 {
        return Vec::new();
    }
    let mut ts = timestamps.to_vec();
    ts.sort_unstable();
    let max_gap = ts.windows(2).map(|w| w[1] - w[0]).max().expect("len ≥ 2");
    let mut hist = vec![0u64; max_gap as usize + 1];
    for w in ts.windows(2) {
        hist[(w[1] - w[0]) as usize] += 1;
    }
    hist
}

/// Per-window suite values plus the per-window [`SuiteStats`] proving the
/// shared-intermediate reuse, from one [`suite_drift`] call.
#[derive(Clone, Debug)]
pub struct SuiteDrift {
    /// `per_window[w][qi]` is query `queries[qi]` evaluated on snapshot `w`.
    pub per_window: Vec<Vec<QueryValue>>,
    /// One stats record per snapshot; each shared pass runs at most once
    /// per snapshot, never once per query.
    pub stats: Vec<SuiteStats>,
}

/// Evaluates the query suite on every snapshot, one
/// [`QuerySuite::evaluate_all_with_stats`] call per snapshot on a derived
/// RNG stream. Draws exactly one `u64` from `rng`.
pub fn suite_drift<R: Rng + ?Sized>(
    snapshots: &[Graph],
    queries: &[Query],
    params: &QueryParams,
    rng: &mut R,
) -> SuiteDrift {
    let base: u64 = rng.gen();
    let (per_window, stats) = snapshots
        .iter()
        .enumerate()
        .map(|(w, g)| {
            let mut wrng = pgb_par::derive_stream(base, w as u64);
            QuerySuite::evaluate_all_with_stats(g, queries, params, &mut wrng)
        })
        .unzip();
    SuiteDrift { per_window, stats }
}

/// [`suite_drift`] over a [`SnapshotSequence`]'s windows.
pub fn suite_drift_sequence<R: Rng + ?Sized>(
    seq: &SnapshotSequence,
    queries: &[Query],
    params: &QueryParams,
    rng: &mut R,
) -> SuiteDrift {
    suite_drift(seq.snapshots(), queries, params, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn iet_histogram_counts_gaps() {
        assert_eq!(inter_event_time_histogram(&[]), Vec::<u64>::new());
        assert_eq!(inter_event_time_histogram(&[7]), Vec::<u64>::new());
        assert_eq!(inter_event_time_histogram(&[3, 1, 1, 6]), vec![1, 0, 1, 1]);
    }

    fn ring_events(n: u32, per_window: u32) -> Vec<(u32, u32, u64)> {
        (0..n).map(|i| (i, (i + 1) % n, (i / per_window) as u64 * 10)).collect()
    }

    #[test]
    fn suite_drift_reuses_shared_intermediates_per_snapshot() {
        // The acceptance-criterion assertion: evaluating the FULL suite on
        // every snapshot runs each shared pass exactly once per snapshot.
        let seq = SnapshotSequence::build(24, &ring_events(24, 8), 3).unwrap();
        let params = QueryParams::default();
        let mut rng = StdRng::seed_from_u64(11);
        let drift = suite_drift_sequence(&seq, &Query::ALL, &params, &mut rng);
        assert_eq!(drift.per_window.len(), 3);
        assert_eq!(drift.stats.len(), 3);
        for stats in &drift.stats {
            assert_eq!(
                *stats,
                SuiteStats { degree_passes: 1, bfs_sweeps: 1, triangle_passes: 1, louvain_runs: 1 }
            );
        }
    }

    #[test]
    fn suite_drift_draws_one_u64_and_is_order_independent() {
        let seq = SnapshotSequence::build(24, &ring_events(24, 8), 3).unwrap();
        let params = QueryParams::default();
        let queries = [Query::EdgeCount, Query::CommunityDetection];
        let mut rng = StdRng::seed_from_u64(5);
        let drift = suite_drift_sequence(&seq, &queries, &params, &mut rng);
        // Exactly one draw: the caller RNG has advanced by a single u64.
        let mut probe = StdRng::seed_from_u64(5);
        let base = probe.next_u64();
        assert_eq!(rng.next_u64(), probe.next_u64());
        // And each window matches a standalone evaluation on its derived
        // stream — window results don't depend on their position in the
        // sweep.
        for (w, g) in seq.snapshots().iter().enumerate() {
            let mut wrng = pgb_par::derive_stream(base, w as u64);
            let standalone = QuerySuite::evaluate_all(g, &queries, &params, &mut wrng);
            assert_eq!(drift.per_window[w], standalone);
        }
    }

    #[test]
    fn suite_drift_handles_empty_snapshots() {
        let events = [(0u32, 1u32, 0u64), (1, 2, 0)];
        let seq = SnapshotSequence::build(4, &events, 3).unwrap();
        let params = QueryParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let drift = suite_drift_sequence(&seq, &[Query::EdgeCount], &params, &mut rng);
        assert_eq!(drift.per_window[0][0], QueryValue::Scalar(2.0));
        assert_eq!(drift.per_window[1][0], QueryValue::Scalar(0.0));
        assert_eq!(drift.per_window[2][0], QueryValue::Scalar(0.0));
    }
}
