//! Publish/subscribe workload from the paper's motivation (§1): a
//! notification system for small ads where subscriptions define **range
//! intervals** over tens of attributes and incoming offers (events) are
//! matched with point-enclosing or intersection queries.

use acx_geom::{HyperRect, Scalar};
use rand::rngs::StdRng;
use rand::Rng;

/// One subscription attribute with a real-world domain, mapped linearly
/// onto `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name (e.g. `"rent_usd"`).
    pub name: String,
    /// Domain minimum in real-world units.
    pub min: f64,
    /// Domain maximum in real-world units.
    pub max: f64,
    /// Typical half-width of a subscription range, as a fraction of the
    /// domain (e.g. 0.15 → subscribers ask for ±15 % around their wish).
    pub typical_spread: f64,
}

impl Attribute {
    /// Creates an attribute definition.
    pub fn new(name: &str, min: f64, max: f64, typical_spread: f64) -> Self {
        assert!(max > min, "degenerate domain for {name}");
        assert!((0.0..=0.5).contains(&typical_spread));
        Self {
            name: name.to_string(),
            min,
            max,
            typical_spread,
        }
    }

    /// Maps a normalized coordinate back to real-world units.
    pub fn denormalize(&self, v: Scalar) -> f64 {
        self.min + (v as f64) * (self.max - self.min)
    }
}

/// A subscription: a named hyper-rectangle of acceptable attribute ranges.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscriber identifier.
    pub subscriber: u32,
    /// Acceptable ranges, one interval per attribute.
    pub ranges: HyperRect,
}

/// Generates subscriptions and events for an apartment-ads notification
/// service — the paper's running example ("3 to 5 rooms, 1 or 2 baths,
/// 600$–900$ …").
///
/// ```
/// use acx_workloads::PubSubGenerator;
/// use rand::SeedableRng;
///
/// let gen = PubSubGenerator::apartments();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sub = gen.subscription(7, &mut rng);
/// assert_eq!(sub.ranges.dims(), gen.dims());
/// let event = gen.event(&mut rng);
/// assert_eq!(event.len(), gen.dims());
/// ```
#[derive(Debug, Clone)]
pub struct PubSubGenerator {
    attributes: Vec<Attribute>,
}

impl PubSubGenerator {
    /// A generator over a custom attribute schema.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        assert!(!attributes.is_empty(), "schema needs at least one attribute");
        Self { attributes }
    }

    /// The apartment small-ads schema from the paper's introduction.
    pub fn apartments() -> Self {
        Self::new(vec![
            Attribute::new("rent_usd", 0.0, 5000.0, 0.15),
            Attribute::new("rooms", 1.0, 10.0, 0.2),
            Attribute::new("baths", 1.0, 5.0, 0.25),
            Attribute::new("surface_m2", 10.0, 400.0, 0.2),
            Attribute::new("distance_miles", 0.0, 60.0, 0.25),
            Attribute::new("floor", 0.0, 40.0, 0.3),
            Attribute::new("year_built", 1900.0, 2010.0, 0.3),
            Attribute::new("lease_months", 1.0, 60.0, 0.3),
        ])
    }

    /// The attribute schema.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Dimensionality of the normalized data space.
    pub fn dims(&self) -> usize {
        self.attributes.len()
    }

    /// Draws a subscription: for each attribute, a wish value with a
    /// spread around it (ranges, not single values — range subscriptions
    /// let subscribers see close alternatives).
    pub fn subscription(&self, subscriber: u32, rng: &mut StdRng) -> Subscription {
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for attr in &self.attributes {
            let wish: f64 = rng.gen_range(0.0..=1.0);
            let spread: f64 = rng.gen_range(0.2..=1.8) * attr.typical_spread;
            lo.push(((wish - spread).max(0.0)) as Scalar);
            hi.push(((wish + spread).min(1.0)) as Scalar);
        }
        Subscription {
            subscriber,
            ranges: HyperRect::from_bounds(&lo, &hi).expect("ranges are valid"),
        }
    }

    /// Draws an event (a concrete offer): one normalized point.
    pub fn event(&self, rng: &mut StdRng) -> Vec<Scalar> {
        (0..self.dims()).map(|_| rng.gen_range(0.0..=1.0)).collect()
    }

    /// Draws a range event (an offer with flexible terms, e.g.
    /// "600$–900$"): a narrow rectangle around a point.
    pub fn range_event(&self, rng: &mut StdRng, flexibility: Scalar) -> HyperRect {
        assert!((0.0..=0.5).contains(&flexibility));
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for _ in 0..self.dims() {
            let v: Scalar = rng.gen_range(0.0..=1.0);
            lo.push((v - flexibility).max(0.0));
            hi.push((v + flexibility).min(1.0));
        }
        HyperRect::from_bounds(&lo, &hi).expect("event bounds are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn attribute_normalization_roundtrip() {
        let a = Attribute::new("rent_usd", 0.0, 5000.0, 0.15);
        assert!((a.denormalize(0.5) - 2500.0).abs() < 1e-9);
        assert_eq!(a.denormalize(0.0), 0.0);
        assert_eq!(a.denormalize(1.0), 5000.0);
    }

    #[test]
    fn subscriptions_are_ranges_not_points() {
        let gen = PubSubGenerator::apartments();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..50 {
            let sub = gen.subscription(i, &mut rng);
            assert_eq!(sub.ranges.dims(), 8);
            // At least one attribute must have a real extension.
            assert!(sub.ranges.intervals().iter().any(|iv| iv.length() > 0.0));
            for iv in sub.ranges.intervals() {
                assert!(iv.lo() >= 0.0 && iv.hi() <= 1.0);
            }
        }
    }

    #[test]
    fn events_match_some_subscriptions() {
        let gen = PubSubGenerator::apartments();
        let mut rng = StdRng::seed_from_u64(11);
        let subs: Vec<_> = (0..500).map(|i| gen.subscription(i, &mut rng)).collect();
        let mut total = 0usize;
        for _ in 0..50 {
            let e = gen.event(&mut rng);
            total += subs.iter().filter(|s| s.ranges.contains_point(&e)).count();
        }
        assert!(total > 0, "events should reach at least some subscribers");
    }

    #[test]
    fn range_events_are_wider_than_points() {
        let gen = PubSubGenerator::apartments();
        let mut rng = StdRng::seed_from_u64(2);
        let e = gen.range_event(&mut rng, 0.05);
        assert!(e.intervals().iter().any(|iv| iv.length() > 0.0));
    }

    #[test]
    #[should_panic(expected = "degenerate domain")]
    fn rejects_bad_attribute() {
        Attribute::new("broken", 10.0, 10.0, 0.1);
    }
}
