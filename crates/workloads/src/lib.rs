//! Workload generators reproducing the paper's evaluation setups (§7) plus
//! the publish/subscribe application from its motivation (§1).
//!
//! * [`UniformWorkload`] — objects with uniformly distributed interval
//!   positions and sizes in every dimension (Fig. 7 experiments).
//! * [`SkewedWorkload`] — for each object a random quarter of the
//!   dimensions is twice as selective as the rest (Fig. 8 experiments).
//! * [`calibrate`] — bisection solvers that choose query-window extents
//!   (or object sizes) to hit a target average selectivity, exploiting
//!   per-dimension independence.
//! * [`PubSubGenerator`] — a small-ads subscription domain (apartments:
//!   price, rooms, baths, …) mapped onto the normalized data space.
//! * [`ShiftingHotspot`] — a query stream whose focus region jumps
//!   periodically, exercising the index's merge-based adaptation.
//! * [`EventStream`] — batched event-stream driver rendering pub/sub
//!   offers as ready-to-execute queries, feeding the index's concurrent
//!   batch read path.
//! * [`scenarios`] — the **scenario zoo**: drifting, periodic,
//!   adversarial and mixed-kind query streams ([`MigratingHotspot`],
//!   [`DiurnalCycle`], [`FlashCrowd`], [`OscillatingHeat`],
//!   [`MixedTraffic`]) plus the clustered object population
//!   ([`ClusteredObjects`]), all behind the [`AdaptiveScenario`] trait
//!   the scenario-zoo and equivalence suites drive.
//!
//! All generators are deterministic given a seed.

pub mod calibrate;
mod events;
mod pubsub;
pub mod scenarios;
mod skewed;
mod streams;
mod uniform;

pub use events::EventStream;
pub use pubsub::{Attribute, PubSubGenerator, Subscription};
pub use scenarios::{
    AdaptiveScenario, ClusteredObjects, DiurnalCycle, FlashCrowd, MigratingHotspot,
    MixedTraffic, OscillatingHeat,
};
pub use skewed::SkewedWorkload;
pub use streams::ShiftingHotspot;
pub use uniform::UniformWorkload;

use acx_geom::{HyperRect, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Dimensionality of the data space.
    pub dims: usize,
    /// Number of database objects to generate.
    pub n_objects: usize,
    /// RNG seed — all generators are deterministic given the seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Convenience constructor.
    pub fn new(dims: usize, n_objects: usize, seed: u64) -> Self {
        Self {
            dims,
            n_objects,
            seed,
        }
    }

    /// A seeded RNG for this configuration.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// A source of database objects and query windows.
pub trait Workload {
    /// Dimensionality of generated objects.
    fn dims(&self) -> usize;

    /// Draws one database object.
    fn sample_object(&self, rng: &mut StdRng) -> HyperRect;

    /// Draws one intersection-query window of the given per-dimension
    /// extent.
    fn sample_window(&self, rng: &mut StdRng, extent: Scalar) -> HyperRect {
        let dims = self.dims();
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        for _ in 0..dims {
            let extent = extent.clamp(0.0, 1.0);
            let start = rand::Rng::gen_range(rng, 0.0..=1.0 - extent);
            lo.push(start);
            hi.push(start + extent);
        }
        HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid")
    }

    /// Draws one query point (for point-enclosing queries).
    fn sample_point(&self, rng: &mut StdRng) -> Vec<Scalar> {
        (0..self.dims())
            .map(|_| rand::Rng::gen_range(rng, 0.0..=1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rng_is_deterministic() {
        let c = WorkloadConfig::new(4, 100, 42);
        let mut a = c.rng();
        let mut b = c.rng();
        let x: f64 = rand::Rng::gen(&mut a);
        let y: f64 = rand::Rng::gen(&mut b);
        assert_eq!(x, y);
    }

    #[test]
    fn sample_window_respects_extent() {
        let w = UniformWorkload::new(WorkloadConfig::new(3, 10, 1));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let win = w.sample_window(&mut rng, 0.25);
            for iv in win.intervals() {
                assert!((iv.length() - 0.25).abs() < 1e-6);
                assert!(iv.lo() >= 0.0 && iv.hi() <= 1.0);
            }
        }
    }

    #[test]
    fn sample_point_is_in_domain() {
        let w = UniformWorkload::new(WorkloadConfig::new(5, 10, 1));
        let mut rng = StdRng::seed_from_u64(3);
        let p = w.sample_point(&mut rng);
        assert_eq!(p.len(), 5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
