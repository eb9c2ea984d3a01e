//! Serving statistics: per-shard and aggregate snapshots over the
//! current measurement window.
//!
//! Percentiles use the nearest-rank definition (the smallest sample
//! with cumulative frequency ≥ p): exact over the collected sample, no
//! interpolation.

/// One shard's view of the current window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard number (`0..shards`).
    pub shard: usize,
    /// Events this shard executed during the window.
    pub events: u64,
    /// Subscriptions resident on the shard.
    pub objects: usize,
    /// Materialized clusters in the shard's index.
    pub clusters: usize,
    /// Reorganization passes the shard ran during the window.
    pub reorg_passes: u64,
    /// Wall-clock nanoseconds the shard's worker spent inside those
    /// passes — serving stalled on *this shard only* while the others
    /// kept draining their queues.
    pub reorg_stall_ns: u64,
    /// Median queue depth observed at event publish.
    pub queue_depth_p50: usize,
    /// 99th-percentile queue depth observed at event publish.
    pub queue_depth_p99: usize,
}

/// Aggregate snapshot of a [`crate::ShardedIndex`] measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Per-shard breakdown, indexed by shard number.
    pub shards: Vec<ShardStats>,
    /// Events accepted (fanned out to every shard) during the window.
    pub events_submitted: u64,
    /// Events whose full fan-out completed during the window.
    pub events_completed: u64,
    /// `try_submit` rejections: at least one shard's queue was full and
    /// the whole fan-out was rolled back.
    pub queue_full_rejections: u64,
    /// Blocking `submit` calls that hit a full queue and waited.
    pub submit_stalls: u64,
    /// Total nanoseconds blocking submits spent waiting.
    pub submit_stall_ns: u64,
    /// Median event-to-match latency: submit to the result published by
    /// the last shard to finish it (at the end of that shard's batch, or
    /// before the next synchronous command in it).
    pub latency_p50_ns: u64,
    /// 99th-percentile event-to-match latency.
    pub latency_p99_ns: u64,
    /// Reorganization passes across all shards during the window.
    pub reorg_passes: u64,
    /// Total wall-clock nanoseconds spent in those passes, summed over
    /// shards. With one worker per core this over-counts wall time the
    /// way cpu-seconds do: two shards reorganizing concurrently charge
    /// twice the nanoseconds for once the stall.
    pub reorg_stall_ns: u64,
    /// Wall-clock length of the window.
    pub window_wall_ns: u64,
}

/// Nearest-rank percentile over a **sorted** sample; `0` when empty.
pub(crate) fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile over a histogram of counts (`hist[v]` =
/// observations of value `v`); `0` when the histogram is empty.
pub(crate) fn nearest_rank_hist(hist: &[u64], p: f64) -> usize {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (value, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    hist.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&s, 50.0), 30);
        assert_eq!(nearest_rank(&s, 99.0), 50);
        assert_eq!(nearest_rank(&s, 1.0), 10);
        assert_eq!(nearest_rank(&[], 50.0), 0);
        assert_eq!(nearest_rank(&[7], 50.0), 7);
    }

    #[test]
    fn histogram_percentile_agrees_with_expanded_sample() {
        // hist: value 0 ×3, value 2 ×1, value 5 ×6
        let hist = [3u64, 0, 1, 0, 0, 6];
        let expanded: Vec<u64> = [0, 0, 0, 2, 5, 5, 5, 5, 5, 5].to_vec();
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(
                nearest_rank_hist(&hist, p) as u64,
                nearest_rank(&expanded, p),
                "p{p}"
            );
        }
        assert_eq!(nearest_rank_hist(&[0, 0, 0], 50.0), 0);
    }
}
