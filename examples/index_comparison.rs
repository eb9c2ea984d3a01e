//! Head-to-head comparison of the three access methods on one workload:
//! Adaptive Clustering (AC) vs R*-tree (RS) vs Sequential Scan (SS),
//! reporting the paper's indicators for both storage scenarios.
//!
//! ```text
//! cargo run --release --example index_comparison
//! ```

use acx::prelude::*;
use acx::workloads::calibrate;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = 16;
    let n = 20_000;
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, n, 7), 0.5);
    let objects = workload.generate_objects();
    let extent = calibrate::uniform_query_extent(&workload, 5e-4, 11);
    println!("{n} objects, {dims} dims, intersection selectivity 0.05% (window extent {extent:.3})");

    // Build all methods over the same data. The adaptive index shapes its
    // clustering to the storage scenario (the 15 ms seek makes disk
    // clusters far coarser), so one AC instance per scenario: in memory
    // on the cost terms measured for this implementation, on disk on
    // the paper's.
    let mut ac = AdaptiveClusterIndex::new(IndexConfig::memory(dims))?;
    let mut ac_disk =
        AdaptiveClusterIndex::new(IndexConfig::edbt2004(dims, StorageScenario::Disk))?;
    let mut rs = RStarTree::new(RStarConfig::memory(dims));
    let mut ss = SeqScan::new(dims, StorageScenario::Memory);
    for (i, rect) in objects.iter().enumerate() {
        ac.insert(ObjectId(i as u32), rect.clone())?;
        ac_disk.insert(ObjectId(i as u32), rect.clone())?;
        rs.insert(ObjectId(i as u32), rect);
        ss.insert(ObjectId(i as u32), rect);
    }

    // Warm the adaptive indexes into their stable clustering states.
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for _ in 0..600 {
        let w = workload.sample_window(&mut rng, extent);
        ac.execute(&SpatialQuery::intersection(w.clone()));
        ac_disk.execute(&SpatialQuery::intersection(w));
    }
    println!(
        "AC stabilized at {} clusters (memory) / {} clusters (disk) after {} reorganizations\n",
        ac.cluster_count(),
        ac_disk.cluster_count(),
        ac.reorganizations()
    );

    // Measure the same 200 queries on each method.
    let queries: Vec<_> = (0..200)
        .map(|_| SpatialQuery::intersection(workload.sample_window(&mut rng, extent)))
        .collect();
    // One currency for all four methods: the paper's Table 2.
    let mem_model = IndexConfig::edbt2004(dims, StorageScenario::Memory).cost_model();
    let disk_model = IndexConfig::edbt2004(dims, StorageScenario::Disk).cost_model();

    let mut rows = Vec::new();
    for (name, mut run) in [
        (
            "AC-mem",
            Box::new(|q: &SpatialQuery| ac.execute(q)) as Box<dyn FnMut(&SpatialQuery) -> _>,
        ),
        ("AC-disk", Box::new(|q: &SpatialQuery| ac_disk.execute(q))),
        ("RS", Box::new(|q: &SpatialQuery| rs.execute(q))),
        ("SS", Box::new(|q: &SpatialQuery| ss.execute(q))),
    ] {
        let mut agg = acx::storage::AccessStats::new();
        let mut wall = std::time::Duration::ZERO;
        for q in &queries {
            let r = run(q);
            agg.merge(&r.metrics.stats);
            wall += r.metrics.wall;
        }
        let nq = queries.len() as f64;
        rows.push((
            name,
            wall.as_secs_f64() * 1000.0 / nq,
            mem_model.price(&agg) / nq,
            disk_model.price(&agg) / nq,
            agg.objects_verified as f64 / nq / n as f64 * 100.0,
        ));
    }

    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "", "wall [ms]", "memory [ms]", "disk [ms]", "objs verified"
    );
    for (name, wall, mem, disk, objs) in rows {
        println!("{name:>8} {wall:>12.4} {mem:>14.4} {disk:>14.1} {objs:>11.1}%");
    }
    println!("\n(memory/disk columns price each execution with the paper's Table 2");
    println!(" constants; read AC-mem in the memory column and AC-disk in the disk");
    println!(" column — each index shaped its clustering for its own scenario)");
    Ok(())
}
