//! Shared experiment machinery: building the three access methods over
//! one object set and measuring them on one query stream.

use acx_baselines::{RStarConfig, RStarTree, SeqScan};
use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::{AccessStats, CostModel, StorageScenario};

/// Averaged per-query measurements of one access method.
#[derive(Debug, Clone)]
pub struct MethodReport {
    /// Method label ("AC", "RS", "SS").
    pub method: &'static str,
    /// Average wall-clock time per query (ms).
    pub wall_ms: f64,
    /// Average cost-model time per query in the memory scenario (ms).
    pub priced_memory_ms: f64,
    /// Average cost-model time per query in the disk scenario (ms).
    pub priced_disk_ms: f64,
    /// Total clusters (AC) or nodes (RS); 1 for SS.
    pub total_units: usize,
    /// Average explored clusters/nodes per query.
    pub explored_units: f64,
    /// Average fraction of clusters/nodes explored per query.
    pub explored_fraction: f64,
    /// Average fraction of database objects verified per query.
    pub verified_fraction: f64,
    /// Average result cardinality (for selectivity validation).
    pub avg_matches: f64,
}

/// The paper's Table 2 cost models `(memory, disk)` every method's
/// access counters are priced with, so that AC, RS and SS are compared
/// in one currency.
fn paper_models(dims: usize) -> (CostModel, CostModel) {
    (
        IndexConfig::edbt2004(dims, StorageScenario::Memory).cost_model(),
        IndexConfig::edbt2004(dims, StorageScenario::Disk).cost_model(),
    )
}

/// The id of the `i`-th object. Ids are `u32`, so an object count past
/// that (from `--objects`) is refused rather than wrapped into duplicates.
fn object_id(i: usize) -> ObjectId {
    let id = u32::try_from(i);
    ObjectId(id.unwrap_or_else(|_| panic!("object #{i} has no u32 id: too many objects")))
}

/// Builds an adaptive clustering index over the objects on the paper's
/// platform ([`IndexConfig::edbt2004`]): what the figures, and every
/// harness whose subject is the mechanism rather than the wall clock,
/// build.
pub fn build_ac(
    dims: usize,
    scenario: StorageScenario,
    objects: &[HyperRect],
) -> AdaptiveClusterIndex {
    build_ac_with(IndexConfig::edbt2004(dims, scenario), objects)
}

/// Builds an adaptive clustering index from an explicit configuration.
pub fn build_ac_with(config: IndexConfig, objects: &[HyperRect]) -> AdaptiveClusterIndex {
    let mut index = AdaptiveClusterIndex::new(config).expect("valid config");
    for (i, rect) in objects.iter().enumerate() {
        index
            .insert(object_id(i), rect.clone())
            .expect("insertion succeeds");
    }
    index
}

/// Builds an index and replays `queries` once through `execute` so the
/// clustering reaches its adapted state before measurement.
pub fn adapted_ac(
    config: IndexConfig,
    objects: &[HyperRect],
    queries: &[SpatialQuery],
) -> AdaptiveClusterIndex {
    let mut index = build_ac_with(config, objects);
    for q in queries {
        index.execute(q);
    }
    index
}

/// Builds an R*-tree over the objects (structure is scenario-independent).
pub fn build_rs(dims: usize, objects: &[HyperRect]) -> RStarTree {
    let mut tree = RStarTree::new(RStarConfig::memory(dims));
    for (i, rect) in objects.iter().enumerate() {
        tree.insert(object_id(i), rect);
    }
    tree
}

/// Builds the sequential-scan baseline.
pub fn build_ss(dims: usize, objects: &[HyperRect]) -> SeqScan {
    let mut scan = SeqScan::new(dims, StorageScenario::Memory);
    for (i, rect) in objects.iter().enumerate() {
        scan.insert(object_id(i), rect);
    }
    scan
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    method: &'static str,
    total_units: usize,
    n_objects: usize,
    queries: usize,
    agg: AccessStats,
    wall_ns: u128,
    matches: u64,
    dims: usize,
) -> MethodReport {
    let (mem_model, disk_model) = paper_models(dims);
    let q = queries as f64;
    let avg = agg.averaged(queries as u64);
    MethodReport {
        method,
        wall_ms: wall_ns as f64 / 1e6 / q,
        priced_memory_ms: mem_model.price(&agg) / q,
        priced_disk_ms: disk_model.price(&agg) / q,
        total_units,
        explored_units: avg.clusters_explored,
        explored_fraction: avg.clusters_explored / total_units.max(1) as f64,
        verified_fraction: avg.objects_verified / n_objects.max(1) as f64,
        avg_matches: matches as f64 / q,
    }
}

/// Warm up an AC index to its stable clustering state, then measure it on
/// the query stream.
///
/// Warm-up replays the stream cyclically (the paper launches "a number of
/// queries … to trigger the object organization in clusters", reorganizing
/// every 100 queries and stabilizing within 10 steps).
pub fn run_ac(
    index: &mut AdaptiveClusterIndex,
    warmup: &[SpatialQuery],
    measured: &[SpatialQuery],
    n_objects: usize,
) -> MethodReport {
    for q in warmup {
        index.execute(q);
    }
    let mut agg = AccessStats::new();
    let mut wall_ns = 0u128;
    let mut matches = 0u64;
    for q in measured {
        let r = index.execute(q);
        agg.merge(&r.metrics.stats);
        wall_ns += r.metrics.wall.as_nanos();
        matches += r.matches.len() as u64;
    }
    summarize(
        "AC",
        index.cluster_count(),
        n_objects,
        measured.len(),
        agg,
        wall_ns,
        matches,
        index.dims(),
    )
}

/// Measures a baseline (RS or SS) on the query stream.
pub fn run_baseline<F>(
    method: &'static str,
    total_units: usize,
    n_objects: usize,
    dims: usize,
    measured: &[SpatialQuery],
    mut execute: F,
) -> MethodReport
where
    F: FnMut(&SpatialQuery) -> acx_storage::QueryResult,
{
    let mut agg = AccessStats::new();
    let mut wall_ns = 0u128;
    let mut matches = 0u64;
    for q in measured {
        let r = execute(q);
        agg.merge(&r.metrics.stats);
        wall_ns += r.metrics.wall.as_nanos();
        matches += r.matches.len() as u64;
    }
    summarize(
        method,
        total_units,
        n_objects,
        measured.len(),
        agg,
        wall_ns,
        matches,
        dims,
    )
}
