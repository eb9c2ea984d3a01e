//! The paper's motivating application (§1): a publish/subscribe
//! notification system for apartment small-ads. Subscriptions define
//! range intervals over many attributes ("3 to 5 rooms, 1 or 2 baths,
//! 600$–900$ …"); each incoming offer is a point-enclosing query that
//! must quickly retrieve every matching subscription.
//!
//! ```text
//! cargo run --release --example pubsub_notifications
//! ```

use std::time::Instant;

use acx::prelude::*;
use acx::workloads::PubSubGenerator;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generator = PubSubGenerator::apartments();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2004);

    println!("attribute schema:");
    for attr in generator.attributes() {
        println!("  {:>15}: {:>8.0} … {:<8.0}", attr.name, attr.min, attr.max);
    }

    // Load 20,000 subscriptions into the adaptive clustering index.
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(generator.dims()))?;
    let subscriptions: Vec<_> = (0..20_000u32)
        .map(|i| generator.subscription(i, &mut rng))
        .collect();
    for sub in &subscriptions {
        index.insert(ObjectId(sub.subscriber), sub.ranges.clone())?;
    }
    println!("\n{} subscriptions indexed", index.len());

    // Publish a stream of offers, one `execute` each: the index keeps
    // adapting its clustering as it answers (reorganizing every 100
    // events by default).
    let mut stream = EventStream::new(generator.clone(), 2004);
    let mut notified = 0u64;
    let mut verified = 0u64;
    let events = 2_000;
    let started = Instant::now();
    for _ in 0..events {
        let result = index.execute(&stream.next_query());
        notified += result.matches.len() as u64;
        verified += result.metrics.stats.objects_verified;
    }
    let elapsed = started.elapsed();
    println!(
        "{events} offers published ({:.0} offers/sec), \
         {notified} notifications, {:.1} subscriptions verified per offer (of {} total)",
        events as f64 / elapsed.as_secs_f64(),
        verified as f64 / events as f64,
        index.len()
    );
    println!(
        "clustering adapted to {} clusters after {} reorganizations",
        index.cluster_count(),
        index.reorganizations()
    );

    // A concrete offer, decoded back to real-world units.
    let offer = generator.event(&mut rng);
    let result = index.execute(&SpatialQuery::point_enclosing(offer.clone()));
    println!("\nexample offer:");
    for (attr, v) in generator.attributes().iter().zip(&offer) {
        println!("  {:>15}: {:.0}", attr.name, attr.denormalize(*v));
    }
    let mut subscribers = result.matches;
    subscribers.sort_unstable();
    subscribers.truncate(10);
    println!("matching subscribers (first 10): {subscribers:?}");
    Ok(())
}
