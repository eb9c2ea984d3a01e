//! Event-stream driver for the serving scenario (paper §1): an arriving
//! offer is one spatial query, drawn one at a time or a batch at a time
//! from a seeded stream.

use acx_geom::{Scalar, SpatialQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::PubSubGenerator;

/// Deterministic stream of pub/sub offer events rendered as spatial
/// queries, drawn one batch at a time.
///
/// Point offers become point-enclosing queries; with a nonzero
/// `flexibility`, offers are narrow rectangles ("600$–900$") matched with
/// intersection queries.
///
/// ```
/// use acx_workloads::{EventStream, PubSubGenerator};
///
/// let mut stream = EventStream::new(PubSubGenerator::apartments(), 7);
/// let batch = stream.next_batch(32);
/// assert_eq!(batch.len(), 32);
/// assert_eq!(batch[0].dims(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct EventStream {
    generator: PubSubGenerator,
    rng: StdRng,
    flexibility: Scalar,
}

impl EventStream {
    /// A stream of point offers (point-enclosing queries).
    pub fn new(generator: PubSubGenerator, seed: u64) -> Self {
        Self::with_flexibility(generator, seed, 0.0)
    }

    /// A stream of flexible offers: rectangles of per-dimension half-width
    /// `flexibility` in `[0, 0.5]`, matched with intersection queries.
    /// `0.0` degenerates to point offers.
    pub fn with_flexibility(generator: PubSubGenerator, seed: u64, flexibility: Scalar) -> Self {
        assert!(
            (0.0..=0.5).contains(&flexibility),
            "flexibility must be in [0, 0.5]"
        );
        Self {
            generator,
            rng: StdRng::seed_from_u64(seed),
            flexibility,
        }
    }

    /// The underlying attribute-schema generator.
    pub fn generator(&self) -> &PubSubGenerator {
        &self.generator
    }

    /// Dimensionality of generated queries.
    pub fn dims(&self) -> usize {
        self.generator.dims()
    }

    /// Draws the next event as a ready-to-execute spatial query.
    pub fn next_query(&mut self) -> SpatialQuery {
        if self.flexibility > 0.0 {
            SpatialQuery::intersection(self.generator.range_event(&mut self.rng, self.flexibility))
        } else {
            SpatialQuery::point_enclosing(self.generator.event(&mut self.rng))
        }
    }

    /// Draws the next `n` events, in stream order.
    pub fn next_batch(&mut self, n: usize) -> Vec<SpatialQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_given_seed() {
        let mut a = EventStream::new(PubSubGenerator::apartments(), 11);
        let mut b = EventStream::new(PubSubGenerator::apartments(), 11);
        for (qa, qb) in a.next_batch(50).iter().zip(b.next_batch(50).iter()) {
            assert_eq!(format!("{qa:?}"), format!("{qb:?}"));
        }
    }

    #[test]
    fn batches_continue_the_stream() {
        let mut whole = EventStream::new(PubSubGenerator::apartments(), 3);
        let mut split = EventStream::new(PubSubGenerator::apartments(), 3);
        let all = whole.next_batch(40);
        let mut parts = split.next_batch(25);
        parts.extend(split.next_batch(15));
        assert_eq!(format!("{all:?}"), format!("{parts:?}"));
    }

    #[test]
    fn point_events_are_point_enclosing_queries() {
        let mut s = EventStream::new(PubSubGenerator::apartments(), 1);
        for q in s.next_batch(10) {
            assert!(matches!(q, SpatialQuery::PointEnclosing(_)));
        }
    }

    #[test]
    fn flexible_events_are_intersection_queries() {
        let mut s = EventStream::with_flexibility(PubSubGenerator::apartments(), 1, 0.05);
        for q in s.next_batch(10) {
            match q {
                SpatialQuery::Intersection(w) => {
                    assert!(w.intervals().iter().any(|iv| iv.length() > 0.0));
                }
                other => panic!("expected intersection query, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "flexibility")]
    fn rejects_out_of_range_flexibility() {
        EventStream::with_flexibility(PubSubGenerator::apartments(), 1, 0.7);
    }
}
