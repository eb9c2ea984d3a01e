//! Recorded statistics of read-only query execution, as a log.
//!
//! One traversal lists the clusters a query explored, and records
//! nothing; `query` stops there. [`crate::AdaptiveClusterIndex::execute`]
//! holds `&mut self` and records over that list in place: per explored
//! slot, the candidate set's lazy-decay catch-up, the query noted
//! ([`crate::candidates::CandidateSet::note_query`]) and the cluster's
//! `q_count`. The two-phase path splits that execution in two. Phase
//! one, [`crate::AdaptiveClusterIndex::query_recorded_with`], matches on
//! `&self` and *logs* the query into a [`StatsDelta`]: how the candidate
//! tests read it (`query_sides!`), the slots it explored and the bytes
//! it verified. Phase two, [`crate::AdaptiveClusterIndex::apply_stats`],
//! replays each logged query over its slots through `execute`'s own
//! per-slot recorder under the exclusive borrow, then counts the totals
//! and runs the pass if one is due. One recorder writes candidate
//! statistics on both paths, so applying a query's delta leaves every
//! candidate set exactly where `execute` leaves it, unexpanded notes
//! included. The `2f` comparisons per dimension that noting a query
//! makes therefore run in `apply_stats`, not in `query_recorded_with`.

use acx_geom::{Scalar, SpatialQuery};

use crate::candidates::query_sides;

/// The queries logged by
/// [`crate::AdaptiveClusterIndex::query_recorded_with`], replayed by
/// [`crate::AdaptiveClusterIndex::apply_stats`].
///
/// A delta grows with the queries it holds — `dims` threshold pairs and
/// one slot per explored cluster for each — not with the clusters they
/// touched times their candidates. Every non-test caller logs one query
/// per delta and clears it before the next; [`StatsDelta::clear`] keeps
/// the buffers, so such a delta stops allocating once it has seen the
/// widest exploration.
///
/// A delta is only meaningful against the clustering state it was
/// recorded from, so the index stamps it with its structural epoch at
/// the first logged query: logging into the same delta after a
/// reorganization changed the clustering panics, and applying a stale
/// delta drops the per-cluster part (slots may have been recycled for
/// unrelated clusters) while still counting the global query and byte
/// totals. A caller that applies each delta before the next pass never
/// produces a stale one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDelta {
    /// Structural epoch of the index when logging started (`None` until
    /// the first query is logged).
    pub(crate) epoch: Option<u64>,
    /// Early-exit-accounted bytes verified by the logged queries.
    pub(crate) verified_bytes: u64,
    /// Full-object bytes of the objects the logged queries verified.
    pub(crate) full_bytes: u64,
    /// Per logged query: whether it is a containment query, and where
    /// its slots end in `slots`.
    queries: Vec<(bool, usize)>,
    /// Each logged query's `(t1, t2)` per dimension, query after query.
    thresholds: Vec<(Scalar, Scalar)>,
    /// The slots each logged query explored, in exploration order, query
    /// after query.
    slots: Vec<u32>,
}

impl StatsDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries logged so far.
    pub fn queries(&self) -> u64 {
        self.queries.len() as u64
    }

    /// Whether no query has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The slots the logged queries explored, in exploration order: one
    /// entry per query that explored the slot. Applying the delta
    /// records exactly these, so a cluster absent from them has its
    /// candidate counters neither noted into nor caught up on lazily
    /// skipped decay epochs.
    pub fn touched_slots(&self) -> &[u32] {
        &self.slots
    }

    /// Empties the delta for reuse, keeping its buffers.
    pub fn clear(&mut self) {
        (self.epoch, self.verified_bytes, self.full_bytes) = (None, 0, 0);
        self.queries.clear();
        self.thresholds.clear();
        self.slots.clear();
    }

    /// Logs one query that explored `slots`.
    pub(crate) fn log(&mut self, query: &SpatialQuery, slots: &[u32]) {
        let thresholds = &mut self.thresholds;
        let containment = query_sides!(query, |containment, sides| {
            thresholds.extend(sides);
            containment
        });
        self.slots.extend_from_slice(slots);
        self.queries.push((containment, self.slots.len()));
    }

    /// The logged queries in order, each as whether it is a containment
    /// query, its `dims` thresholds and the slots it explored.
    pub(crate) fn logged(
        &self,
        dims: usize,
    ) -> impl Iterator<Item = (bool, &[(Scalar, Scalar)], &[u32])> {
        let starts = std::iter::once(0).chain(self.queries.iter().map(|&(_, end)| end));
        self.queries
            .iter()
            .zip(starts)
            .zip(self.thresholds.chunks_exact(dims))
            .map(|((&(containment, end), start), thresholds)| {
                (containment, thresholds, &self.slots[start..end])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::Signature;
    use acx_geom::HyperRect;

    fn window(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    /// A delta logging `queries`, each explored over `slots` and
    /// verifying 3 bytes, 5 in full.
    fn logged(queries: &[SpatialQuery], slots: &[u32]) -> StatsDelta {
        let mut d = StatsDelta::new();
        for q in queries {
            log(&mut d, q, slots, 3, 5);
        }
        d
    }

    /// What `query_recorded_with` writes into `d` for a query.
    fn log(d: &mut StatsDelta, q: &SpatialQuery, slots: &[u32], verified: u64, full: u64) {
        d.log(q, slots);
        d.verified_bytes += verified;
        d.full_bytes += full;
    }

    #[test]
    fn new_delta_is_empty() {
        let d = StatsDelta::new();
        assert!(d.is_empty());
        assert_eq!(d.queries(), 0);
        assert_eq!(d.epoch, None);
        assert!(d.touched_slots().is_empty());
        assert_eq!(d.logged(2).count(), 0);
    }

    #[test]
    fn clear_zeroes_but_keeps_capacity() {
        let w = window(&[0.1, 0.2], &[0.4, 0.6]);
        let queries = [
            SpatialQuery::containment(w.clone()),
            SpatialQuery::enclosure(w),
            SpatialQuery::point_enclosing(vec![0.3, 0.5]),
        ];
        let mut d = logged(&queries, &[0, 4, 2]);
        d.epoch = Some(4);
        assert_eq!(d.queries(), 3);
        assert_eq!((d.verified_bytes, d.full_bytes), (9, 15));
        let capacities = |d: &StatsDelta| {
            (
                d.queries.capacity(),
                d.thresholds.capacity(),
                d.slots.capacity(),
            )
        };
        let grown = capacities(&d);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.epoch, None);
        assert_eq!((d.verified_bytes, d.full_bytes), (0, 0));
        assert!(d.touched_slots().is_empty());
        assert_eq!(capacities(&d), grown, "clear keeps the buffers");
        // Logging as much again fits the kept buffers.
        for q in &queries {
            log(&mut d, q, &[1, 3, 5], 1, 1);
        }
        assert_eq!(capacities(&d), grown);
        assert_eq!(d.touched_slots(), [1, 3, 5].repeat(3));
    }

    #[test]
    fn cleared_delta_compares_equal_to_a_fresh_recording() {
        let w = window(&[0.1, 0.2], &[0.4, 0.6]);
        let point = SpatialQuery::point_enclosing(vec![0.5, 0.25]);
        // A point query over `slots`, then `second` over slot 0.
        let pair = |d: &mut StatsDelta, slots: &[u32], second: SpatialQuery, bytes: u64| {
            log(d, &point, slots, 7, 8);
            log(d, &second, &[0], 1, bytes);
        };
        // A reused delta that once logged other queries equals a fresh
        // delta that logged the same queries over the same slots.
        let mut reused = logged(
            &[SpatialQuery::enclosure(w.clone()), point.clone()],
            &[9, 7],
        );
        reused.clear();
        pair(
            &mut reused,
            &[0, 2],
            SpatialQuery::intersection(w.clone()),
            1,
        );
        let mut fresh = StatsDelta::new();
        pair(
            &mut fresh,
            &[0, 2],
            SpatialQuery::intersection(w.clone()),
            1,
        );
        assert_eq!(reused, fresh);
        // The slots' order, the orientation, the thresholds and the
        // totals each tell two deltas apart.
        let differing = [
            (
                "exploration order",
                [2, 0],
                SpatialQuery::intersection(w.clone()),
                1,
            ),
            (
                "orientation",
                [0, 2],
                SpatialQuery::containment(w.clone()),
                1,
            ),
            ("thresholds", [0, 2], SpatialQuery::enclosure(w.clone()), 1),
            ("totals", [0, 2], SpatialQuery::intersection(w), 2),
        ];
        for (what, slots, second, bytes) in differing {
            let mut other = StatsDelta::new();
            pair(&mut other, &slots, second, bytes);
            assert_ne!(reused, other, "{what}");
        }
    }

    /// Replaying a delta's log notes each query into a set as the set's
    /// own `note_query` does: past `u16::MAX` notes, and onto counters
    /// preset near `u32::MAX`, which saturate and never wrap.
    #[test]
    fn candidate_counters_saturate_not_wrap() {
        let sig = Signature::root(2);
        let mut replayed = CandidateSet::generate(&sig, 4);
        for ci in (0..replayed.len()).step_by(2) {
            replayed.add_q(ci, u32::MAX - 40_000);
        }
        let (mut noted, mut want) = (replayed.clone(), replayed.q_col().to_vec());
        let queries = [
            SpatialQuery::point_enclosing(vec![0.3, 0.6]),
            SpatialQuery::intersection(window(&[0.1, 0.5], &[0.2, 0.9])),
            SpatialQuery::containment(window(&[0.0, 0.25], &[0.75, 1.0])),
        ];
        let stream: Vec<SpatialQuery> = queries.iter().cycle().take(70_000).cloned().collect();
        let d = logged(&stream, &[0]);
        for (containment, thresholds, slots) in d.logged(2) {
            assert_eq!(slots, [0]);
            replayed.note_sides(containment, thresholds.iter().copied());
        }
        for q in &stream {
            noted.note_query(q);
        }
        assert_eq!(replayed, noted, "the replay notes what note_query notes");
        for q in &stream {
            for (ci, w) in want.iter_mut().enumerate() {
                if replayed.matches_query(ci, q) {
                    *w = w.saturating_add(1);
                }
            }
        }
        replayed.expand();
        assert_eq!(replayed.q_col(), &want[..]);
        assert!(
            replayed.q_col().contains(&u32::MAX),
            "test premise: saturation"
        );
        assert!(
            replayed.q_col().iter().any(|&q| q > 0 && q < 70_000),
            "test premise: zeroed counters count"
        );
    }
}
