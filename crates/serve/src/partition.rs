//! Subscription-to-shard assignment.
//!
//! The partitioner is pure and deterministic: the same id always lands
//! on the same shard, whatever its rectangle, so an update never moves a
//! subscription between shards and routing never needs coordination.

use acx_geom::ObjectId;

/// How subscriptions are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Multiplicative hash of the subscription id — balanced regardless
    /// of the data distribution.
    #[default]
    Hash,
}

/// The owning shard of a subscription.
pub(crate) fn shard_of(id: ObjectId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // Fibonacci multiplicative mix (2^64 / φ): consecutive ids — the
    // common allocation pattern — spread evenly.
    let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_spreads_consecutive_ids() {
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[shard_of(ObjectId(i), 4)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((150..=350).contains(&c), "shard {s} got {c} of 1000");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        for i in 0..50 {
            assert_eq!(shard_of(ObjectId(i), 1), 0);
        }
    }
}
