//! Selectivity calibration (paper §7.2: "minimal/maximal interval sizes
//! are enforced in order to control the query selectivity").
//!
//! Because every generator treats dimensions independently, the average
//! selectivity of an intersection query factorizes into a product of
//! per-dimension match probabilities. The solvers below estimate those
//! probabilities by Monte-Carlo sampling and bisect the free parameter
//! (query extent, or object base length) until the product hits the
//! target.

use acx_geom::Scalar;
use rand::rngs::StdRng;
use rand::Rng;

use crate::{UniformWorkload, Workload};

/// Samples used per probability estimate.
const SAMPLES: usize = 20_000;
/// Bisection iterations (≈ 1e-7 resolution on [0, 1]).
const ITERATIONS: usize = 40;

/// Estimates the probability that a uniform-workload object interval
/// intersects a query interval of length `extent` with uniform position.
fn uniform_dim_match_probability(
    rng: &mut StdRng,
    max_object_length: Scalar,
    extent: Scalar,
) -> f64 {
    let mut hits = 0usize;
    for _ in 0..SAMPLES {
        let len: Scalar = rng.gen_range(0.0..=max_object_length);
        let a: Scalar = rng.gen_range(0.0..=1.0 - len);
        let b = a + len;
        let q_lo: Scalar = rng.gen_range(0.0..=1.0 - extent);
        let q_hi = q_lo + extent;
        if a <= q_hi && b >= q_lo {
            hits += 1;
        }
    }
    hits as f64 / SAMPLES as f64
}

/// Chooses the per-dimension extent of intersection-query windows over a
/// [`UniformWorkload`] so the average query selectivity is `target`.
///
/// Returns the extent in `[0, 1]`. Targets outside the achievable range
/// are clamped to the closest endpoint (extent 0 or 1).
pub fn uniform_query_extent(workload: &UniformWorkload, target: f64, seed: u64) -> Scalar {
    assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
    let dims = workload.dims() as f64;
    // Per-dimension probability needed for the product to reach `target`.
    let per_dim = target.powf(1.0 / dims);
    let max_len = {
        // Recover max object length from a sample (cheap, avoids a getter
        // leaking generator internals): lengths are U(0, max), so the
        // maximum of a large sample is a tight estimate.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut max = 0.0f32;
        for _ in 0..4096 {
            let len = workload
                .sample_object(&mut rng)
                .interval(0)
                .length();
            max = max.max(len);
        }
        max
    };
    let mut lo = 0.0f32;
    let mut hi = 1.0f32;
    for i in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let p = uniform_dim_match_probability(&mut rng, max_len, mid);
        if p < per_dim {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

use rand::SeedableRng;

/// Estimates the probability that an object interval of length
/// `U(0, object_length)` intersects an unconstrained query interval
/// (ordered pair of uniforms).
fn skewed_dim_match_probability(rng: &mut StdRng, object_length: Scalar) -> f64 {
    let mut hits = 0usize;
    for _ in 0..SAMPLES {
        let len: Scalar = rng.gen_range(0.0..=object_length);
        let a: Scalar = rng.gen_range(0.0..=1.0 - len);
        let b = a + len;
        let x: Scalar = rng.gen_range(0.0..=1.0);
        let y: Scalar = rng.gen_range(0.0..=1.0);
        let (q_lo, q_hi) = if x <= y { (x, y) } else { (y, x) };
        if a <= q_hi && b >= q_lo {
            hits += 1;
        }
    }
    hits as f64 / SAMPLES as f64
}

/// Chooses the base object-interval length of a
/// [`SkewedWorkload`](crate::SkewedWorkload) so
/// that unconstrained query objects have average selectivity `target`
/// (the paper controls the Fig. 8 experiment at 0.05 %).
///
/// The skew makes a quarter of the dimensions use `base / 2`; the joint
/// selectivity is `p(base/2)^(Nd/4) · p(base)^(3·Nd/4)`.
pub fn skewed_base_length(dims: usize, target: f64, seed: u64) -> Scalar {
    assert!(target > 0.0 && target < 1.0, "target must be in (0, 1)");
    assert!(dims > 0);
    let quarter = (dims / 4).max(1);
    let rest = dims - quarter;
    let mut lo = 0.0f32;
    let mut hi = 1.0f32;
    for i in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let p_half = skewed_dim_match_probability(&mut rng, mid * 0.5);
        let p_full = skewed_dim_match_probability(&mut rng, mid);
        let joint = p_half.powi(quarter as i32) * p_full.powi(rest as i32);
        if joint < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SkewedWorkload, WorkloadConfig};

    /// Measures the empirical selectivity of intersection windows of the
    /// given extent against a sample of workload objects: the oracle a
    /// calibration is checked against.
    fn measure_selectivity<W: Workload>(
        workload: &W,
        extent: Scalar,
        objects: usize,
        queries: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample: Vec<_> = (0..objects)
            .map(|_| workload.sample_object(&mut rng))
            .collect();
        let mut matched = 0u64;
        for _ in 0..queries {
            let window = workload.sample_window(&mut rng, extent);
            matched += sample.iter().filter(|o| o.intersects(&window)).count() as u64;
        }
        matched as f64 / (objects as u64 * queries as u64) as f64
    }

    #[test]
    fn uniform_calibration_hits_moderate_target() {
        let config = WorkloadConfig::new(8, 1000, 42);
        let w = UniformWorkload::with_max_length(config, 0.3);
        let target = 0.01;
        let extent = uniform_query_extent(&w, target, 7);
        let measured = measure_selectivity(&w, extent, 2000, 50, 3);
        assert!(
            measured > target * 0.5 && measured < target * 2.0,
            "target {target}, measured {measured}, extent {extent}"
        );
    }

    #[test]
    fn uniform_calibration_monotone_in_target() {
        let config = WorkloadConfig::new(6, 1000, 11);
        let w = UniformWorkload::with_max_length(config, 0.4);
        let e_small = uniform_query_extent(&w, 1e-4, 5);
        let e_large = uniform_query_extent(&w, 0.05, 5);
        assert!(
            e_small < e_large,
            "more selective target needs smaller windows: {e_small} vs {e_large}"
        );
    }

    #[test]
    fn skewed_calibration_hits_paper_target() {
        // The Fig. 8 experiment: selectivity 0.05 % at 16 dimensions.
        let dims = 16;
        let target = 5e-4;
        let base = skewed_base_length(dims, target, 9);
        assert!(base > 0.0 && base < 1.0);
        // Validate against an actual skewed workload with unconstrained
        // queries.
        let w = SkewedWorkload::new(WorkloadConfig::new(dims, 1, 1), base);
        let mut rng = StdRng::seed_from_u64(33);
        let objects: Vec<_> = (0..4000).map(|_| w.sample_object(&mut rng)).collect();
        let mut matched = 0u64;
        let queries = 300;
        for _ in 0..queries {
            let win = w.sample_unconstrained_window(&mut rng);
            matched += objects.iter().filter(|o| o.intersects(&win)).count() as u64;
        }
        let measured = matched as f64 / (4000.0 * queries as f64);
        assert!(
            measured > target * 0.3 && measured < target * 3.0,
            "target {target}, measured {measured}, base {base}"
        );
    }

    #[test]
    fn skewed_base_length_grows_with_dimensionality() {
        // More dimensions → each must be less restrictive for the same
        // joint selectivity → larger base length.
        let b16 = skewed_base_length(16, 5e-4, 1);
        let b40 = skewed_base_length(40, 5e-4, 1);
        assert!(b40 > b16, "{b16} vs {b40}");
    }

    #[test]
    #[should_panic(expected = "target must be in (0, 1)")]
    fn rejects_degenerate_target() {
        let w = UniformWorkload::new(WorkloadConfig::new(2, 10, 1));
        uniform_query_extent(&w, 0.0, 1);
    }
}
