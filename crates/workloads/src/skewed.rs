use acx_geom::{HyperRect, Scalar};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Workload, WorkloadConfig};

/// The skewed workload of the paper's second experiment (§7.2): for each
/// database object **a random quarter of the dimensions is two times more
/// selective** than the rest — their intervals are half as long.
///
/// Interval lengths are `U(0, base_length)` for ordinary dimensions and
/// `U(0, base_length / 2)` for the selected quarter; positions are
/// uniform. Query objects are generated without interval constraints
/// (ordered pairs of uniforms), so the global selectivity is controlled
/// through `base_length` — see
/// [`calibrate::skewed_base_length`](crate::calibrate::skewed_base_length).
#[derive(Debug, Clone)]
pub struct SkewedWorkload {
    config: WorkloadConfig,
    base_length: Scalar,
}

impl SkewedWorkload {
    /// Skewed workload with the given base interval length.
    pub fn new(config: WorkloadConfig, base_length: Scalar) -> Self {
        assert!(
            (0.0..=1.0).contains(&base_length),
            "base_length must be in [0, 1]"
        );
        assert!(config.dims > 0, "dims must be positive");
        Self {
            config,
            base_length,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Number of extra-selective dimensions per object (a quarter,
    /// at least one).
    pub fn selective_dims(&self) -> usize {
        (self.config.dims / 4).max(1)
    }

    /// Generates the full database deterministically from the seed.
    pub fn generate_objects(&self) -> Vec<HyperRect> {
        let mut rng = self.config.rng();
        (0..self.config.n_objects)
            .map(|_| self.sample_object(&mut rng))
            .collect()
    }

    /// Draws a query object "with no interval constraints" (paper §7.2):
    /// an ordered pair of uniforms per dimension.
    pub fn sample_unconstrained_window(&self, rng: &mut StdRng) -> HyperRect {
        let dims = self.config.dims;
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for _ in 0..dims {
            let a: Scalar = rng.gen_range(0.0..=1.0);
            let b: Scalar = rng.gen_range(0.0..=1.0);
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid")
    }
}

impl Workload for SkewedWorkload {
    fn dims(&self) -> usize {
        self.config.dims
    }

    fn sample_object(&self, rng: &mut StdRng) -> HyperRect {
        let dims = self.config.dims;
        let quarter = self.selective_dims();
        let mut selective = vec![false; dims];
        let mut order: Vec<usize> = (0..dims).collect();
        order.shuffle(rng);
        for &d in order.iter().take(quarter) {
            selective[d] = true;
        }
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        #[allow(clippy::needless_range_loop)]
        for d in 0..dims {
            let max_len = if selective[d] {
                self.base_length * 0.5
            } else {
                self.base_length
            };
            let len: Scalar = rng.gen_range(0.0..=max_len);
            let start: Scalar = rng.gen_range(0.0..=1.0 - len);
            lo.push(start);
            hi.push(start + len);
        }
        HyperRect::from_bounds(&lo, &hi).expect("object bounds are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_of_dimensions_is_selective() {
        let w = SkewedWorkload::new(WorkloadConfig::new(16, 10, 3), 0.4);
        assert_eq!(w.selective_dims(), 4);
        let w = SkewedWorkload::new(WorkloadConfig::new(40, 10, 3), 0.4);
        assert_eq!(w.selective_dims(), 10);
        // Degenerate but valid: at least one selective dimension.
        let w = SkewedWorkload::new(WorkloadConfig::new(2, 10, 3), 0.4);
        assert_eq!(w.selective_dims(), 1);
    }

    #[test]
    fn objects_respect_length_bounds() {
        let w = SkewedWorkload::new(WorkloadConfig::new(8, 500, 21), 0.3);
        for obj in w.generate_objects() {
            let mut short = 0;
            for iv in obj.intervals() {
                assert!(iv.length() <= 0.3 + 1e-6);
                assert!(iv.lo() >= 0.0 && iv.hi() <= 1.0);
                if iv.length() <= 0.15 + 1e-6 {
                    short += 1;
                }
            }
            // The two selective dims are necessarily short; others may be
            // short by chance, so this is a lower bound.
            assert!(short >= 2, "expected ≥ 2 short intervals, got {short}");
        }
    }

    #[test]
    fn selective_dimensions_vary_per_object() {
        // Different objects should pick different selective quarters.
        let w = SkewedWorkload::new(WorkloadConfig::new(16, 400, 5), 0.5);
        let objects = w.generate_objects();
        // Count how often each dimension is among the 4 shortest.
        let mut counts = vec![0usize; 16];
        for obj in &objects {
            let mut lens: Vec<(usize, f32)> = obj
                .intervals()
                .iter()
                .enumerate()
                .map(|(d, iv)| (d, iv.length()))
                .collect();
            lens.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            for (d, _) in lens.iter().take(4) {
                counts[*d] += 1;
            }
        }
        // Every dimension should be selected sometimes (uniform choice).
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn unconstrained_window_covers_large_fraction() {
        let w = SkewedWorkload::new(WorkloadConfig::new(4, 10, 8), 0.3);
        let mut rng = w.config().rng();
        let mean_len: f64 = (0..2000)
            .map(|_| {
                let win = w.sample_unconstrained_window(&mut rng);
                win.intervals().iter().map(|i| i.length() as f64).sum::<f64>() / 4.0
            })
            .sum::<f64>()
            / 2000.0;
        // Ordered pair of uniforms → expected length 1/3.
        assert!((mean_len - 1.0 / 3.0).abs() < 0.02, "mean {mean_len}");
    }

    #[test]
    fn deterministic_generation() {
        let a = SkewedWorkload::new(WorkloadConfig::new(6, 100, 77), 0.25).generate_objects();
        let b = SkewedWorkload::new(WorkloadConfig::new(6, 100, 77), 0.25).generate_objects();
        assert_eq!(a, b);
    }
}
