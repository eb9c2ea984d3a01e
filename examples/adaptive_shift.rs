//! Demonstrates the cost-based clustering *adapting to a changing query
//! distribution* — the capability that motivates dropping the R-tree
//! constraints (paper §1, §8).
//!
//! A hotspot query stream focuses on one region; the index splits
//! clusters there. When the hotspot jumps, the old region's clusters
//! lose their access-probability advantage and the merging benefit
//! function reclaims them while new splits develop under the new hotspot.
//!
//! ```text
//! cargo run --release --example adaptive_shift
//! ```

use acx::prelude::*;
use acx::workloads::ShiftingHotspot;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = 8;
    let n = 20_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 3), 0.4);
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(dims))?;
    for (i, rect) in workload.generate_objects().into_iter().enumerate() {
        index.insert(ObjectId(i as u32), rect)?;
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let phase_len = 800u64;
    let mut stream = ShiftingHotspot::new(dims, phase_len, 0.35, 0.08, &mut rng);

    println!(
        "{:>6} {:>16} {:>14} {:>10} {:>8} {:>8} {:>8}",
        "phase", "hotspot center", "avg cost [ms]", "clusters", "merges", "splits", "thrash"
    );
    for phase in 0..5 {
        let mut cost = 0.0;
        for _ in 0..phase_len {
            let w = stream.next_window(&mut rng);
            cost += index
                .execute(&SpatialQuery::intersection(w))
                .metrics
                .priced_ms;
        }
        let center = stream.center();
        println!(
            "{:>6} ({:.2}, {:.2}, …) {:>14.4} {:>10} {:>8} {:>8} {:>8}",
            phase,
            center[0],
            center[1],
            cost / phase_len as f64,
            index.cluster_count(),
            index.total_merges(),
            index.total_splits(),
            index.total_thrash()
        );
    }
    println!(
        "\nEach phase uses a different hotspot; merges climb as clusters built\n\
         for abandoned hotspots are reclaimed, keeping the clustering tuned\n\
         to the *current* query distribution. Thrash counts the splits that\n\
         re-created a cluster merged away a few passes earlier."
    );
    Ok(())
}
