//! Experiment E11 (paper §7.1): under an unchanged query distribution the
//! clustering process reaches a stable state in fewer than 10
//! reorganization steps (one step every 100 queries).
//!
//! Usage:
//! ```text
//! cargo run --release -p acx-bench --bin stability
//!     [--objects 30000] [--dims 16] [--steps 15]
//!     [--wal PATH] [--flush-policy record|batch[:N]|epoch]
//! ```

use acx_bench::args::Flags;
use acx_bench::build_ac;
use acx_geom::SpatialQuery;
use acx_storage::StorageScenario;
use acx_workloads::{calibrate, UniformWorkload, Workload, WorkloadConfig};

fn main() {
    let flags = Flags::from_env();
    let objects: usize = flags.get("objects", 30_000);
    let dims: usize = flags.get("dims", 16);
    let steps: usize = flags.get("steps", 15);
    let seed: u64 = flags.get("seed", 0x5EED);
    let wal = flags.wal();
    flags.finish();

    println!("== Clustering stability under a fixed query distribution ==");
    let workload = UniformWorkload::with_max_length(WorkloadConfig::new(dims, objects, seed), 0.5);
    let data = workload.generate_objects();
    let extent = calibrate::uniform_query_extent(&workload, 5e-4, seed);
    let mut qrng = WorkloadConfig::new(dims, objects, seed ^ 0xF1E1D).rng();

    let mut index = build_ac(dims, StorageScenario::Memory, &data);
    wal.attach(&mut index);
    println!(
        "{:>5} {:>8} {:>8} {:>10} {:>8}",
        "step", "merges", "splits", "clusters", "churn%"
    );
    let mut stable_at = None;
    let (mut prev_merges, mut prev_splits) = (0u64, 0u64);
    for step in 0..steps {
        // The index reorganizes automatically every 100 queries.
        let before = index.reorganizations();
        while index.reorganizations() == before {
            let w = workload.sample_window(&mut qrng, extent);
            index.execute(&SpatialQuery::intersection(w));
        }
        let step_merges = index.total_merges() - prev_merges;
        let step_splits = index.total_splits() - prev_splits;
        prev_merges = index.total_merges();
        prev_splits = index.total_splits();
        let clusters = index.cluster_count();
        let churn = (step_merges + step_splits) as f64 / clusters.max(1) as f64 * 100.0;
        println!(
            "{:>5} {:>8} {:>8} {:>10} {:>8.2}",
            step, step_merges, step_splits, clusters, churn
        );
        if churn < 2.0 && stable_at.is_none() && step > 0 {
            stable_at = Some(step);
        }
    }
    match stable_at {
        Some(s) => println!("\nstable state (churn < 2 %) reached at step {s} (paper: < 10)"),
        None => println!("\nno stable state within {steps} steps"),
    }
}
