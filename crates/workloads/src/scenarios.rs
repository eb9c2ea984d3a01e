//! The **scenario zoo**: non-stationary, adversarial, and real-shaped
//! query streams stressing the index's central claim — that the
//! cost-based clustering *re-adapts* when the query distribution moves
//! (paper §8: "workloads that are skewed and varying in time").
//!
//! Every scenario is a deterministic, seed-reproducible generator over
//! the existing [`SpatialQuery`]/[`WorkloadConfig`] types: it owns its
//! RNG (seeded from the [`WorkloadConfig`]), implements
//! [`Iterator<Item = SpatialQuery>`](Iterator) for idiomatic
//! consumption, and exposes the [`AdaptiveScenario`] trait so one
//! harness can drive them all — including [`AdaptiveScenario::shift`],
//! a forced abrupt distribution change at a chosen point of the stream.
//!
//! The zoo (ROADMAP direction 5):
//!
//! * [`MigratingHotspot`] — the hotspot *glides* with a configurable
//!   velocity instead of jumping (concept drift).
//! * [`DiurnalCycle`] — heat oscillates periodically between two fixed
//!   regions (day/night traffic).
//! * [`FlashCrowd`] — uniform background traffic with sudden transient
//!   spikes at fresh locations.
//! * [`OscillatingHeat`] — the adversary: heat alternates between two
//!   fixed regions at a period matched to the reorganization cadence,
//!   trying to force split→merge→split thrash of the *same* cluster
//!   signatures.
//! * [`MixedTraffic`] — all four query kinds over a drifting hotspot.
//! * [`ClusteredObjects`] — a correlated/clustered object *population*
//!   (Brisaboa et al.'s clustered points), the data-side counterpart.

use acx_geom::{HyperRect, Scalar, SpatialQuery};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Workload, WorkloadConfig};

/// A non-stationary query stream a test harness can drive.
///
/// Implementors are deterministic given their construction seed: two
/// instances built from identical parameters yield bit-identical query
/// sequences (including across [`AdaptiveScenario::shift`] calls at the
/// same positions).
pub trait AdaptiveScenario {
    /// Dimensionality of emitted queries.
    fn dims(&self) -> usize;

    /// Draws the next query of the stream.
    fn next_query(&mut self) -> SpatialQuery;

    /// Forces an abrupt distribution change *now* — the event a
    /// harness measures recovery from. Scenarios whose drift is
    /// continuous implement this as a jump (teleport, phase flip,
    /// spike onset) so "time since shift" is well defined.
    fn shift(&mut self);

    /// Stable scenario label used in benchmark output.
    fn label(&self) -> &'static str;
}

/// Draws a window of per-dimension extent `extent` centered near
/// `center` (jittered within `spread`), clamped to the unit domain.
fn window_near(
    rng: &mut StdRng,
    center: &[Scalar],
    spread: Scalar,
    extent: Scalar,
) -> HyperRect {
    let dims = center.len();
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for &c in center {
        let jitter: Scalar = if spread > 0.0 {
            rng.gen_range(-spread * 0.5..=spread * 0.5)
        } else {
            0.0
        };
        let start = (c + jitter - extent * 0.5).clamp(0.0, 1.0 - extent);
        lo.push(start);
        hi.push(start + extent);
    }
    HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid")
}

/// A query hotspot that **glides** through the domain: each query moves
/// the center by `velocity` along a fixed random direction, reflecting
/// off the domain walls. Unlike [`crate::ShiftingHotspot`]'s periodic
/// jumps, the distribution never repeats a steady state — the index
/// must chase it continuously.
#[derive(Debug, Clone)]
pub struct MigratingHotspot {
    dims: usize,
    velocity: Scalar,
    hotspot_extent: Scalar,
    window_extent: Scalar,
    center: Vec<Scalar>,
    direction: Vec<Scalar>,
    rng: StdRng,
}

impl MigratingHotspot {
    /// Creates a hotspot of extent `hotspot_extent` emitting windows of
    /// extent `window_extent`, moving `velocity` per query (fractions
    /// of the unit domain; `velocity = 0.0005` crosses the domain in
    /// ~2000 queries).
    pub fn new(
        config: &WorkloadConfig,
        velocity: Scalar,
        hotspot_extent: Scalar,
        window_extent: Scalar,
    ) -> Self {
        assert!(config.dims > 0);
        assert!(velocity >= 0.0);
        assert!(window_extent <= hotspot_extent && hotspot_extent <= 1.0);
        let mut rng = config.rng();
        let half = hotspot_extent * 0.5;
        let center: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(half..=1.0 - half)).collect();
        // A random diagonal direction of unit speed per component sign;
        // normalized so `velocity` is the per-query displacement.
        let mut direction: Vec<Scalar> = (0..config.dims)
            .map(|_| rng.gen_range(-1.0f32..=1.0))
            .collect();
        let norm = direction.iter().map(|d| d * d).sum::<Scalar>().sqrt().max(1e-6);
        for d in &mut direction {
            *d /= norm;
        }
        Self {
            dims: config.dims,
            velocity,
            hotspot_extent,
            window_extent,
            center,
            direction,
            rng,
        }
    }

    /// Current hotspot center.
    pub fn center(&self) -> &[Scalar] {
        &self.center
    }

    fn advance(&mut self) {
        let half = self.hotspot_extent * 0.5;
        for d in 0..self.dims {
            let mut c = self.center[d] + self.direction[d] * self.velocity;
            // Reflect off the walls so the hotspot stays inside.
            if c < half {
                c = half + (half - c);
                self.direction[d] = -self.direction[d];
            } else if c > 1.0 - half {
                c = (1.0 - half) - (c - (1.0 - half));
                self.direction[d] = -self.direction[d];
            }
            self.center[d] = c.clamp(half, 1.0 - half);
        }
    }
}

impl AdaptiveScenario for MigratingHotspot {
    fn dims(&self) -> usize {
        self.dims
    }

    fn next_query(&mut self) -> SpatialQuery {
        self.advance();
        let spread = self.hotspot_extent - self.window_extent;
        let w = window_near(&mut self.rng, &self.center.clone(), spread, self.window_extent);
        SpatialQuery::intersection(w)
    }

    /// Teleports the hotspot to the reflected-opposite corner of the
    /// domain — the largest jump the geometry allows.
    fn shift(&mut self) {
        let half = self.hotspot_extent * 0.5;
        for c in &mut self.center {
            *c = (1.0 - *c).clamp(half, 1.0 - half);
        }
    }

    fn label(&self) -> &'static str {
        "migrating_hotspot"
    }
}

impl Iterator for MigratingHotspot {
    type Item = SpatialQuery;

    fn next(&mut self) -> Option<SpatialQuery> {
        Some(self.next_query())
    }
}

/// Periodic heat oscillation between two fixed regions: query mass
/// moves sinusoidally from region A to region B and back with the given
/// period — day/night load patterns. Because both regions recur, the
/// index ideally *keeps* both clusterings warm; an index that merges
/// the cold region every half-cycle pays the re-split on every dawn.
#[derive(Debug, Clone)]
pub struct DiurnalCycle {
    dims: usize,
    period: u64,
    region_extent: Scalar,
    window_extent: Scalar,
    center_a: Vec<Scalar>,
    center_b: Vec<Scalar>,
    issued: u64,
    /// Phase offset in queries (advanced by `shift` half a period).
    phase: u64,
    rng: StdRng,
}

impl DiurnalCycle {
    /// Creates a cycle of `period` queries between two random disjoint
    /// regions of extent `region_extent`.
    pub fn new(
        config: &WorkloadConfig,
        period: u64,
        region_extent: Scalar,
        window_extent: Scalar,
    ) -> Self {
        assert!(config.dims > 0 && period > 0);
        assert!(window_extent <= region_extent && region_extent <= 0.5);
        let mut rng = config.rng();
        let half = region_extent * 0.5;
        // Opposite halves of the domain per dimension: guaranteed
        // disjoint, so their cluster signatures never overlap.
        let center_a: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(half..=0.5 - half)).collect();
        let center_b: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(0.5 + half..=1.0 - half)).collect();
        Self {
            dims: config.dims,
            period,
            region_extent,
            window_extent,
            center_a,
            center_b,
            issued: 0,
            phase: 0,
            rng,
        }
    }

    /// Probability that the next query targets region B (the "night"
    /// region) at stream position `t`.
    fn heat_b(&self, t: u64) -> f64 {
        let angle =
            2.0 * std::f64::consts::PI * ((t + self.phase) % self.period) as f64
                / self.period as f64;
        0.5 * (1.0 - angle.cos())
    }
}

impl AdaptiveScenario for DiurnalCycle {
    fn dims(&self) -> usize {
        self.dims
    }

    fn next_query(&mut self) -> SpatialQuery {
        let p_b = self.heat_b(self.issued);
        self.issued += 1;
        let use_b = self.rng.gen_bool(p_b);
        let center = if use_b { self.center_b.clone() } else { self.center_a.clone() };
        let spread = self.region_extent - self.window_extent;
        let w = window_near(&mut self.rng, &center, spread, self.window_extent);
        SpatialQuery::intersection(w)
    }

    /// Jumps the cycle phase by half a period: day becomes night
    /// instantly.
    fn shift(&mut self) {
        self.phase = (self.phase + self.period / 2) % self.period;
    }

    fn label(&self) -> &'static str {
        "diurnal_cycle"
    }
}

impl Iterator for DiurnalCycle {
    type Item = SpatialQuery;

    fn next(&mut self) -> Option<SpatialQuery> {
        Some(self.next_query())
    }
}

/// Uniform background traffic with **flash crowds**: every
/// `calm_queries` queries a transient spike erupts at a fresh random
/// location — for `spike_queries` queries, most traffic (90 %) hammers
/// a tight region, then the crowd dissolves. Tests whether the index
/// profits from transient skew without destabilizing its steady-state
/// clustering.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    dims: usize,
    calm_queries: u64,
    spike_queries: u64,
    spike_extent: Scalar,
    window_extent: Scalar,
    issued_in_state: u64,
    in_spike: bool,
    spike_center: Vec<Scalar>,
    rng: StdRng,
}

impl FlashCrowd {
    /// Creates a stream alternating `calm_queries` of uniform traffic
    /// with `spike_queries` of crowd traffic inside a region of extent
    /// `spike_extent`.
    pub fn new(
        config: &WorkloadConfig,
        calm_queries: u64,
        spike_queries: u64,
        spike_extent: Scalar,
        window_extent: Scalar,
    ) -> Self {
        assert!(config.dims > 0 && calm_queries > 0 && spike_queries > 0);
        assert!(window_extent <= spike_extent && spike_extent <= 1.0);
        let mut rng = config.rng();
        let spike_center = Self::fresh_center(config.dims, spike_extent, &mut rng);
        Self {
            dims: config.dims,
            calm_queries,
            spike_queries,
            spike_extent,
            window_extent,
            issued_in_state: 0,
            in_spike: false,
            spike_center,
            rng,
        }
    }

    fn fresh_center(dims: usize, extent: Scalar, rng: &mut StdRng) -> Vec<Scalar> {
        let half = extent * 0.5;
        (0..dims).map(|_| rng.gen_range(half..=1.0 - half)).collect()
    }
}

impl AdaptiveScenario for FlashCrowd {
    fn dims(&self) -> usize {
        self.dims
    }

    fn next_query(&mut self) -> SpatialQuery {
        let limit = if self.in_spike { self.spike_queries } else { self.calm_queries };
        if self.issued_in_state >= limit {
            self.issued_in_state = 0;
            self.in_spike = !self.in_spike;
            if self.in_spike {
                self.spike_center =
                    Self::fresh_center(self.dims, self.spike_extent, &mut self.rng);
            }
        }
        self.issued_in_state += 1;
        let crowd = self.in_spike && self.rng.gen_bool(0.9);
        let w = if crowd {
            let spread = self.spike_extent - self.window_extent;
            window_near(&mut self.rng, &self.spike_center.clone(), spread, self.window_extent)
        } else {
            // Background: uniform window position over the whole domain.
            let extent = self.window_extent;
            let mut lo = Vec::with_capacity(self.dims);
            let mut hi = Vec::with_capacity(self.dims);
            for _ in 0..self.dims {
                let start: Scalar = self.rng.gen_range(0.0..=1.0 - extent);
                lo.push(start);
                hi.push(start + extent);
            }
            HyperRect::from_bounds(&lo, &hi).expect("window bounds are valid")
        };
        SpatialQuery::intersection(w)
    }

    /// Erupts a spike at a fresh location immediately.
    fn shift(&mut self) {
        self.issued_in_state = 0;
        self.in_spike = true;
        self.spike_center = Self::fresh_center(self.dims, self.spike_extent, &mut self.rng);
    }

    fn label(&self) -> &'static str {
        "flash_crowd"
    }
}

impl Iterator for FlashCrowd {
    type Item = SpatialQuery;

    fn next(&mut self) -> Option<SpatialQuery> {
        Some(self.next_query())
    }
}

/// The adversary: **all** heat sits on region A for `half_period`
/// queries, then all of it on region B, alternating forever between
/// the *same two* fixed regions. With `half_period` a small multiple of
/// the reorganization period this is the worst case for the benefit
/// functions: the cold region's clusters look unprofitable every
/// half-cycle (merge), then the heat returns and the identical
/// signatures split again — split→merge→split thrash unless hysteresis
/// (statistics decay or the cost horizon) damps it.
#[derive(Debug, Clone)]
pub struct OscillatingHeat {
    dims: usize,
    half_period: u64,
    region_extent: Scalar,
    window_extent: Scalar,
    center_a: Vec<Scalar>,
    center_b: Vec<Scalar>,
    issued: u64,
    /// Flipped by `shift` so the active region swaps instantly.
    flipped: bool,
    rng: StdRng,
}

impl OscillatingHeat {
    /// Creates the oscillator: heat alternates between two disjoint
    /// regions of extent `region_extent` every `half_period` queries.
    pub fn new(
        config: &WorkloadConfig,
        half_period: u64,
        region_extent: Scalar,
        window_extent: Scalar,
    ) -> Self {
        assert!(config.dims > 0 && half_period > 0);
        assert!(window_extent <= region_extent && region_extent <= 0.5);
        let mut rng = config.rng();
        let half = region_extent * 0.5;
        let center_a: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(half..=0.5 - half)).collect();
        let center_b: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(0.5 + half..=1.0 - half)).collect();
        Self {
            dims: config.dims,
            half_period,
            region_extent,
            window_extent,
            center_a,
            center_b,
            issued: 0,
            flipped: false,
            rng,
        }
    }

    /// Whether region B is currently hot.
    pub fn hot_is_b(&self) -> bool {
        (self.issued / self.half_period).is_multiple_of(2) == self.flipped
    }
}

impl AdaptiveScenario for OscillatingHeat {
    fn dims(&self) -> usize {
        self.dims
    }

    fn next_query(&mut self) -> SpatialQuery {
        let center = if self.hot_is_b() {
            self.center_b.clone()
        } else {
            self.center_a.clone()
        };
        self.issued += 1;
        let spread = self.region_extent - self.window_extent;
        let w = window_near(&mut self.rng, &center, spread, self.window_extent);
        SpatialQuery::intersection(w)
    }

    /// Swaps the hot region immediately (half-cycle phase jump).
    fn shift(&mut self) {
        self.flipped = !self.flipped;
    }

    fn label(&self) -> &'static str {
        "oscillating_heat"
    }
}

impl Iterator for OscillatingHeat {
    type Item = SpatialQuery;

    fn next(&mut self) -> Option<SpatialQuery> {
        Some(self.next_query())
    }
}

/// Mixed query-**kind** traffic over a drifting hotspot: intersection,
/// containment, enclosure and point-enclosing queries drawn 40/20/20/20
/// from a hotspot that relocates every `period` queries. Each kind
/// matches different candidate statistics, so the reorganizer adapts to
/// the blend, not to any single kind.
#[derive(Debug, Clone)]
pub struct MixedTraffic {
    dims: usize,
    period: u64,
    hotspot_extent: Scalar,
    window_extent: Scalar,
    center: Vec<Scalar>,
    issued: u64,
    rng: StdRng,
}

impl MixedTraffic {
    /// Creates the mixed-kind stream: hotspot of extent
    /// `hotspot_extent` relocating every `period` queries.
    pub fn new(
        config: &WorkloadConfig,
        period: u64,
        hotspot_extent: Scalar,
        window_extent: Scalar,
    ) -> Self {
        assert!(config.dims > 0 && period > 0);
        assert!(window_extent <= hotspot_extent && hotspot_extent <= 1.0);
        let mut rng = config.rng();
        let half = hotspot_extent * 0.5;
        let center: Vec<Scalar> =
            (0..config.dims).map(|_| rng.gen_range(half..=1.0 - half)).collect();
        Self {
            dims: config.dims,
            period,
            hotspot_extent,
            window_extent,
            center,
            issued: 0,
            rng,
        }
    }

    fn relocate(&mut self) {
        let half = self.hotspot_extent * 0.5;
        self.center = (0..self.dims)
            .map(|_| self.rng.gen_range(half..=1.0 - half))
            .collect();
    }
}

impl AdaptiveScenario for MixedTraffic {
    fn dims(&self) -> usize {
        self.dims
    }

    fn next_query(&mut self) -> SpatialQuery {
        if self.issued > 0 && self.issued.is_multiple_of(self.period) {
            self.relocate();
        }
        self.issued += 1;
        let spread = self.hotspot_extent - self.window_extent;
        let kind: u32 = self.rng.gen_range(0..10);
        let center = self.center.clone();
        match kind {
            0..=3 => SpatialQuery::intersection(window_near(
                &mut self.rng,
                &center,
                spread,
                self.window_extent,
            )),
            4 | 5 => SpatialQuery::containment(window_near(
                &mut self.rng,
                &center,
                spread,
                // Containment needs a window larger than the objects.
                (self.window_extent * 3.0).min(self.hotspot_extent),
            )),
            6 | 7 => SpatialQuery::enclosure(window_near(
                &mut self.rng,
                &center,
                spread,
                self.window_extent * 0.25,
            )),
            _ => {
                let point: Vec<Scalar> = center
                    .iter()
                    .map(|&c| {
                        let jitter: Scalar = self.rng.gen_range(-spread * 0.5..=spread * 0.5);
                        (c + jitter).clamp(0.0, 1.0)
                    })
                    .collect();
                SpatialQuery::point_enclosing(point)
            }
        }
    }

    /// Relocates the hotspot immediately.
    fn shift(&mut self) {
        self.relocate();
    }

    fn label(&self) -> &'static str {
        "mixed_traffic"
    }
}

impl Iterator for MixedTraffic {
    type Item = SpatialQuery;

    fn next(&mut self) -> Option<SpatialQuery> {
        Some(self.next_query())
    }
}

/// A correlated/clustered object **population**: objects congregate
/// around `n_clusters` random cluster centers (Brisaboa et al.,
/// *Aggregated 2D Range Queries on Clustered Points*), unlike the
/// paper's uniform §7.2 population. Clustered data gives the index
/// dense candidate cells to materialize — the favorable case — while
/// stressing the statistics with heavily imbalanced member counts.
#[derive(Debug, Clone)]
pub struct ClusteredObjects {
    config: WorkloadConfig,
    centers: Vec<Vec<Scalar>>,
    spread: Scalar,
    max_length: Scalar,
}

impl ClusteredObjects {
    /// Creates a population of `config.n_objects` objects around
    /// `n_clusters` centers: object centers deviate at most `spread`
    /// per dimension from their cluster center, interval lengths are
    /// `U(0, max_length)`.
    pub fn new(config: WorkloadConfig, n_clusters: usize, spread: Scalar, max_length: Scalar) -> Self {
        assert!(config.dims > 0 && n_clusters > 0);
        assert!((0.0..=1.0).contains(&spread) && (0.0..=1.0).contains(&max_length));
        // Centers come from a dedicated RNG so `sample_object` streams
        // (seeded by callers) cannot disturb them.
        let mut rng = config.rng();
        let centers = (0..n_clusters)
            .map(|_| (0..config.dims).map(|_| rng.gen_range(0.0f32..=1.0)).collect())
            .collect();
        Self {
            config,
            centers,
            spread,
            max_length,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates the full database deterministically from the seed.
    pub fn generate_objects(&self) -> Vec<HyperRect> {
        let mut rng = self.config.rng();
        (0..self.config.n_objects)
            .map(|_| self.sample_object(&mut rng))
            .collect()
    }
}

impl Workload for ClusteredObjects {
    fn dims(&self) -> usize {
        self.config.dims
    }

    fn sample_object(&self, rng: &mut StdRng) -> HyperRect {
        let k: usize = rng.gen_range(0..self.centers.len());
        let center = &self.centers[k];
        let mut lo = Vec::with_capacity(self.config.dims);
        let mut hi = Vec::with_capacity(self.config.dims);
        for &c in center {
            let len: Scalar = rng.gen_range(0.0..=self.max_length);
            let offset: Scalar = rng.gen_range(-self.spread..=self.spread);
            let start = (c + offset - len * 0.5).clamp(0.0, 1.0 - len);
            lo.push(start);
            hi.push(start + len);
        }
        HyperRect::from_bounds(&lo, &hi).expect("object bounds are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dims: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig::new(dims, 100, seed)
    }

    fn drain(s: &mut dyn AdaptiveScenario, n: usize) -> Vec<SpatialQuery> {
        (0..n).map(|_| s.next_query()).collect()
    }

    #[test]
    fn migrating_hotspot_moves_and_stays_in_domain() {
        let mut s = MigratingHotspot::new(&cfg(3, 1), 0.01, 0.3, 0.05);
        let start = s.center().to_vec();
        for q in drain(&mut s, 200) {
            let SpatialQuery::Intersection(w) = q else { panic!("kind") };
            for iv in w.intervals() {
                assert!(iv.lo() >= 0.0 && iv.hi() <= 1.0 + 1e-6);
            }
        }
        assert_ne!(start, s.center().to_vec(), "hotspot must migrate");
    }

    #[test]
    fn migrating_shift_teleports() {
        let mut s = MigratingHotspot::new(&cfg(2, 2), 0.0, 0.2, 0.05);
        let before = s.center().to_vec();
        s.shift();
        let after = s.center().to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b + a - 1.0).abs() < 0.21, "reflected: {b} vs {a}");
        }
    }

    #[test]
    fn diurnal_heat_oscillates() {
        let s = DiurnalCycle::new(&cfg(2, 3), 100, 0.3, 0.05);
        assert!(s.heat_b(0) < 0.01);
        assert!(s.heat_b(50) > 0.99);
        let mut s = s;
        s.shift(); // phase + half period: heat flips
        assert!(s.heat_b(0) > 0.99);
    }

    #[test]
    fn flash_crowd_alternates_states() {
        let mut s = FlashCrowd::new(&cfg(2, 4), 50, 20, 0.2, 0.05);
        assert!(!s.in_spike);
        drain(&mut s, 55);
        assert!(s.in_spike);
        drain(&mut s, 25);
        assert!(!s.in_spike);
        s.shift();
        assert!(s.in_spike);
    }

    #[test]
    fn oscillator_swaps_regions_on_schedule_and_shift() {
        let mut s = OscillatingHeat::new(&cfg(2, 5), 10, 0.2, 0.05);
        let hot0 = s.hot_is_b();
        drain(&mut s, 10);
        assert_ne!(hot0, s.hot_is_b(), "half period elapsed");
        s.shift();
        assert_eq!(hot0, s.hot_is_b(), "shift flips back");
    }

    #[test]
    fn oscillator_regions_are_disjoint() {
        let s = OscillatingHeat::new(&cfg(4, 6), 10, 0.3, 0.05);
        for (a, b) in s.center_a.iter().zip(&s.center_b) {
            assert!(a + 0.15 <= *b, "regions overlap: {a} vs {b}");
        }
    }

    #[test]
    fn mixed_traffic_emits_all_kinds() {
        let mut s = MixedTraffic::new(&cfg(3, 7), 1000, 0.4, 0.1);
        let mut kinds = [false; 4];
        for q in drain(&mut s, 200) {
            match q {
                SpatialQuery::Intersection(_) => kinds[0] = true,
                SpatialQuery::Containment(_) => kinds[1] = true,
                SpatialQuery::Enclosure(_) => kinds[2] = true,
                SpatialQuery::PointEnclosing(_) => kinds[3] = true,
            }
        }
        assert!(kinds.iter().all(|&k| k), "kinds seen: {kinds:?}");
    }

    #[test]
    fn clustered_objects_congregate() {
        let w = ClusteredObjects::new(WorkloadConfig::new(2, 2000, 8), 4, 0.05, 0.02);
        let objects = w.generate_objects();
        assert_eq!(objects.len(), 2000);
        // Every object center sits within spread + max length of some
        // cluster center.
        for o in &objects {
            let near = w.centers.iter().any(|c| {
                o.intervals()
                    .iter()
                    .zip(c)
                    .all(|(iv, &cc)| (iv.center() - cc).abs() <= 0.05 + 0.02 + 1e-5)
            });
            assert!(near, "object far from all centers");
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let qs1 = drain(&mut MigratingHotspot::new(&cfg(3, 42), 0.01, 0.3, 0.05), 64);
        let qs2 = drain(&mut MigratingHotspot::new(&cfg(3, 42), 0.01, 0.3, 0.05), 64);
        assert_eq!(qs1, qs2);
        let qs3 = drain(&mut MigratingHotspot::new(&cfg(3, 43), 0.01, 0.3, 0.05), 64);
        assert_ne!(qs1, qs3);
    }

    #[test]
    fn iterator_adapters_stream() {
        let qs: Vec<SpatialQuery> =
            DiurnalCycle::new(&cfg(2, 9), 50, 0.3, 0.05).take(10).collect();
        assert_eq!(qs.len(), 10);
    }
}
