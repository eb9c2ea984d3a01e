use acx_geom::{HyperRect, Scalar};
use rand::rngs::StdRng;
use rand::Rng;

/// A query stream whose focus region ("hotspot") jumps to a new random
/// location every `period` queries.
///
/// The paper motivates adaptivity with "workloads that are skewed and
/// varying in time" (§8); this stream exercises exactly that: after a
/// shift, clusters tailored to the old hotspot lose their access-
/// probability advantage and the merging benefit function reclaims them.
#[derive(Debug, Clone)]
pub struct ShiftingHotspot {
    dims: usize,
    period: u64,
    hotspot_extent: Scalar,
    window_extent: Scalar,
    issued: u64,
    center: Vec<Scalar>,
}

impl ShiftingHotspot {
    /// Creates a stream over `dims` dimensions: queries are windows of
    /// per-dimension extent `window_extent`, drawn inside a hotspot of
    /// extent `hotspot_extent` that relocates every `period` queries.
    pub fn new(
        dims: usize,
        period: u64,
        hotspot_extent: Scalar,
        window_extent: Scalar,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims > 0 && period > 0);
        assert!(window_extent <= hotspot_extent && hotspot_extent <= 1.0);
        let center = Self::random_center(dims, hotspot_extent, rng);
        Self {
            dims,
            period,
            hotspot_extent,
            window_extent,
            issued: 0,
            center,
        }
    }

    fn random_center(dims: usize, extent: Scalar, rng: &mut StdRng) -> Vec<Scalar> {
        (0..dims)
            .map(|_| rng.gen_range(extent * 0.5..=1.0 - extent * 0.5))
            .collect()
    }

    /// Current hotspot center.
    pub fn center(&self) -> &[Scalar] {
        &self.center
    }

    /// Draws the next query window, relocating the hotspot when the
    /// period elapses.
    pub fn next_window(&mut self, rng: &mut StdRng) -> HyperRect {
        if self.issued > 0 && self.issued.is_multiple_of(self.period) {
            self.center = Self::random_center(self.dims, self.hotspot_extent, rng);
        }
        self.issued += 1;
        let mut lo = Vec::with_capacity(self.dims);
        let mut hi = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let span = self.hotspot_extent - self.window_extent;
            let offset: Scalar = rng.gen_range(-span * 0.5..=span * 0.5);
            let start = (self.center[d] + offset - self.window_extent * 0.5)
                .clamp(0.0, 1.0 - self.window_extent);
            lo.push(start);
            hi.push(start + self.window_extent);
        }
        HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hotspot_shifts_on_schedule() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = ShiftingHotspot::new(3, 10, 0.3, 0.05, &mut rng);
        let mut center = s.center().to_vec();
        for query in 1..=35 {
            s.next_window(&mut rng);
            let moved = s.center() != center;
            assert_eq!(moved, [11, 21, 31].contains(&query), "query {query}");
            center = s.center().to_vec();
        }
    }

    #[test]
    fn windows_stay_near_center_between_shifts() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = ShiftingHotspot::new(2, 1000, 0.2, 0.02, &mut rng);
        let center = s.center().to_vec();
        for _ in 0..200 {
            let w = s.next_window(&mut rng);
            for (d, iv) in w.intervals().iter().enumerate() {
                assert!(
                    (iv.center() - center[d]).abs() <= 0.2,
                    "window strayed from hotspot"
                );
            }
        }
    }

    #[test]
    fn windows_have_requested_extent_and_stay_in_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ShiftingHotspot::new(4, 5, 0.5, 0.1, &mut rng);
        for _ in 0..50 {
            let w = s.next_window(&mut rng);
            for iv in w.intervals() {
                assert!((iv.length() - 0.1).abs() < 1e-5);
                assert!(iv.lo() >= 0.0 && iv.hi() <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn centers_differ_after_shift() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = ShiftingHotspot::new(3, 5, 0.3, 0.05, &mut rng);
        let before = s.center().to_vec();
        for _ in 0..6 {
            s.next_window(&mut rng);
        }
        assert_ne!(before, s.center().to_vec());
    }
}
