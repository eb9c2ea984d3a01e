//! The benchmark's estimators: one percentile definition, the median
//! built on it, and the order-independent checksum that match
//! sets are compared by.

use acx_geom::ObjectId;

/// Nearest-rank percentile over a **sorted** sample: the smallest value
/// with cumulative frequency ≥ `p` percent; `None` when empty. The same
/// definition as `acx_serve::stats` (exact over the sample, no
/// interpolation), and the only one in this benchmark.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile `p` of an unsorted integer sample (sorts a copy); `0`
/// when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, p).unwrap_or(0)
}

/// Percentile `p` of an unsorted float sample; `0.0` when empty.
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    nearest_rank(&sorted, p).unwrap_or(0.0)
}

/// Median of an unsorted float sample: the nearest-rank p50, so it is
/// always one of the measured values.
pub fn median(values: &[f64]) -> f64 {
    percentile_f64(values, 50.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// Order-independent checksum of one match set: the count and the
/// wrapping sum of mixed ids. Two id lists compare equal exactly when
/// they are permutations of each other (up to 64-bit collisions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchSum {
    pub count: u64,
    pub sum: u64,
}

impl MatchSum {
    pub fn of(ids: &[ObjectId]) -> Self {
        let mut out = Self::default();
        for id in ids {
            out.count += 1;
            out.sum = out.sum.wrapping_add(mix(u64::from(id.0)));
        }
        out
    }

    /// Folds another event's checksum in (run-level sums).
    pub fn fold(&mut self, other: MatchSum) {
        self.count += other.count;
        // Mixing the per-event sum again makes the fold sensitive to
        // which event a match belongs to, not only to the multiset.
        self.sum = self.sum.wrapping_add(mix(other.sum ^ other.count));
    }
}

/// SplitMix64 finalizer: spreads small ids over all 64 bits so that
/// sums of different id sets do not collide by arithmetic accident.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64 bits, the input digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_serve_definition() {
        // The cases `acx_serve::stats` tests its own definition with.
        let s = [10u64, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&s, 50.0), Some(30));
        assert_eq!(nearest_rank(&s, 99.0), Some(50));
        assert_eq!(nearest_rank(&s, 1.0), Some(10));
        assert_eq!(nearest_rank::<u64>(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7u64], 50.0), Some(7));
    }

    #[test]
    fn percentile_agrees_with_expanded_sample() {
        // value 0 ×3, value 2 ×1, value 5 ×6, shuffled.
        let sample = [5u64, 0, 5, 2, 5, 0, 5, 5, 0, 5];
        for (p, want) in [
            (1.0, 0),
            (25.0, 0),
            (30.0, 0),
            (40.0, 2),
            (50.0, 5),
            (99.5, 5),
        ] {
            assert_eq!(percentile(&sample, p), want, "p{p}");
        }
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[9.0, 7.0, 8.0]), 8.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checksum_ignores_order_and_sees_every_id() {
        let ids: Vec<ObjectId> = [3u32, 17, 4, 99, 1_000_000].map(ObjectId).to_vec();
        let mut permuted = ids.clone();
        permuted.reverse();
        permuted.swap(1, 3);
        assert_eq!(MatchSum::of(&ids), MatchSum::of(&permuted));
        let mut changed = ids.clone();
        changed[2] = ObjectId(5);
        assert_ne!(MatchSum::of(&ids), MatchSum::of(&changed));
        assert_ne!(MatchSum::of(&ids), MatchSum::of(&ids[..4]));
        assert_eq!(MatchSum::of(&[]), MatchSum::default());
    }

    #[test]
    fn fold_tells_events_apart() {
        // The same three matches split differently over two events.
        let a = [
            MatchSum::of(&[ObjectId(1), ObjectId(2)]),
            MatchSum::of(&[ObjectId(3)]),
        ];
        let b = [
            MatchSum::of(&[ObjectId(1)]),
            MatchSum::of(&[ObjectId(2), ObjectId(3)]),
        ];
        let fold = |sums: &[MatchSum]| {
            let mut total = MatchSum::default();
            for &s in sums {
                total.fold(s);
            }
            total
        };
        assert_eq!(fold(&a).count, fold(&b).count);
        assert_ne!(fold(&a), fold(&b));
    }
}
