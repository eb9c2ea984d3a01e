//! Disk persistence and crash recovery (paper §6, "Fail Recovery"):
//! each cluster's signature is stored with its member objects and its
//! access statistics, so the search structure and what it has learnt
//! survive restarts.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use acx::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = 6;
    let workload = UniformWorkload::new(WorkloadConfig::new(dims, 10_000, 77));
    let mut index = AdaptiveClusterIndex::new(IndexConfig::memory(dims))?;
    for (i, rect) in workload.generate_objects().into_iter().enumerate() {
        index.insert(ObjectId(i as u32), rect)?;
    }

    // Shape the clustering with a query stream, then persist.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..500 {
        let p: Vec<f32> = (0..dims).map(|_| rand::Rng::gen_range(&mut rng, 0.0..=1.0)).collect();
        index.execute(&SpatialQuery::point_enclosing(p));
    }
    let path = std::env::temp_dir().join("acx_persistence_example.acx");
    index.save(&path)?;
    println!(
        "saved {} objects in {} clusters to {}",
        index.len(),
        index.cluster_count(),
        path.display()
    );

    // "Crash" and restore.
    drop(index);
    let mut restored = AdaptiveClusterIndex::load(&path, IndexConfig::memory(dims))?;
    restored.check_invariants().map_err(std::io::Error::other)?;
    println!(
        "restored {} objects in {} clusters, with the statistics of {} queries (invariants verified)",
        restored.len(),
        restored.cluster_count(),
        restored.total_queries()
    );

    let probe = SpatialQuery::point_enclosing(vec![0.4; 6]);
    let result = restored.execute(&probe);
    println!("probe query matches {} objects after recovery", result.matches.len());
    std::fs::remove_file(&path).ok();
    Ok(())
}
