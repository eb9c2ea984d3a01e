//! The adaptivity harness: drives the scenario-zoo query streams
//! ([`acx_workloads::scenarios`]) through an [`AdaptiveClusterIndex`]
//! and measures how fast the clustering **re-adapts** after an abrupt
//! distribution change.
//!
//! Protocol per (scenario, configuration) row:
//!
//! 1. **Adapt** — replay `warmup_queries` scenario queries through
//!    `execute` so the clustering reaches its pre-shift steady state;
//!    the steady-state cost is the trailing-window mean of the
//!    cost-model priced per-query time (window = one reorganization
//!    period).
//! 2. **Shift** — force the scenario's abrupt change
//!    ([`AdaptiveScenario::shift`]).
//! 3. **Recover** — replay up to `post_queries` more queries.
//!    *Time-to-readapt* is the number of post-shift queries until the
//!    trailing-window mean priced cost first returns to within
//!    `band × steady` (`None` if it never does within the budget).
//!    Wall-clock p50/p99 over the whole recovery window quantify
//!    per-query latency during reorganization churn, and the index's
//!    thrash accounting ([`acx_core::ReorgProfile::thrash_cycles`])
//!    surfaces split→merge→split cycles.
//!
//! The binary `adaptivity` runs every zoo scenario on the production
//! index and on the reference ([`IndexConfig::reference`]) plus a
//! hysteresis before/after pair on the oscillating adversary, and
//! records `BENCH_adaptivity.json`.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::HyperRect;
use acx_workloads::{
    AdaptiveScenario, ClusteredObjects, DiurnalCycle, FlashCrowd, MigratingHotspot,
    MixedTraffic, OscillatingHeat, UniformWorkload, WorkloadConfig,
};

use crate::build_ac_with;

/// Scale and protocol parameters of one harness run.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivityParams {
    /// Database size.
    pub objects: usize,
    /// Dimensionality.
    pub dims: usize,
    /// Queries replayed to reach the pre-shift steady state.
    pub warmup_queries: usize,
    /// Post-shift query budget for recovery.
    pub post_queries: usize,
    /// Readaptation band: recovered once the trailing mean priced cost
    /// is at most `band × steady`.
    pub band: f64,
    /// Workload seed (objects and queries derive distinct streams).
    pub seed: u64,
}

impl AdaptivityParams {
    /// Default scale: large enough for several reorganization-driven
    /// splits per region, minutes of total runtime across the zoo.
    pub fn standard() -> Self {
        Self {
            objects: 20_000,
            dims: 8,
            warmup_queries: 3_000,
            post_queries: 3_000,
            band: 1.25,
            seed: 0x5EED,
        }
    }

    /// CI smoke scale: seconds of total runtime across the zoo.
    pub fn quick() -> Self {
        Self {
            objects: 2_000,
            warmup_queries: 1_000,
            post_queries: 800,
            ..Self::standard()
        }
    }
}

/// The scenario zoo, in report order. `clustered_migrating` pairs the
/// migrating-hotspot stream with the clustered/correlated object
/// population instead of the uniform one.
pub const SCENARIOS: [&str; 6] = [
    "migrating_hotspot",
    "diurnal_cycle",
    "flash_crowd",
    "oscillating_heat",
    "mixed_traffic",
    "clustered_migrating",
];

/// Builds the named zoo scenario over `cfg` (seed-deterministic).
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`] — a typo must not silently
/// measure a different workload.
pub fn make_scenario(name: &str, cfg: &WorkloadConfig) -> Box<dyn AdaptiveScenario> {
    match name {
        "migrating_hotspot" | "clustered_migrating" => {
            Box::new(MigratingHotspot::new(cfg, 2e-3, 0.35, 0.08))
        }
        "diurnal_cycle" => Box::new(DiurnalCycle::new(cfg, 600, 0.3, 0.08)),
        "flash_crowd" => Box::new(FlashCrowd::new(cfg, 700, 300, 0.25, 0.06)),
        "oscillating_heat" => Box::new(OscillatingHeat::new(cfg, 300, 0.3, 0.08)),
        "mixed_traffic" => Box::new(MixedTraffic::new(cfg, 800, 0.35, 0.08)),
        other => panic!("unknown scenario {other:?}"),
    }
}

/// Generates the named scenario's object population: clustered for
/// `clustered_migrating`, the uniform workload otherwise.
pub fn make_objects(name: &str, cfg: &WorkloadConfig) -> Vec<HyperRect> {
    if name == "clustered_migrating" {
        ClusteredObjects::new(cfg.clone(), 8, 0.08, 0.15).generate_objects()
    } else {
        UniformWorkload::with_max_length(cfg.clone(), 0.4).generate_objects()
    }
}

/// One measured (scenario, configuration) row.
#[derive(Debug, Clone)]
pub struct AdaptivityRow {
    /// Scenario label.
    pub scenario: String,
    /// Execution label (`production` / `reference`).
    pub mode: &'static str,
    /// The [`IndexConfig::merge_cooldown`] the row ran with.
    pub merge_cooldown: u64,
    /// Pre-shift steady-state mean priced cost (ms/query).
    pub steady_ms: f64,
    /// Mean priced cost of the first post-shift window (ms/query) —
    /// the disruption magnitude the recovery starts from.
    pub post_shift_ms: f64,
    /// Post-shift queries until the trailing mean returned to within
    /// the band of `steady_ms`; `None` = not within the budget.
    pub readapt_queries: Option<u64>,
    /// `readapt_queries` in reorganization periods (rounded up).
    pub readapt_periods: Option<u64>,
    /// Median wall-clock per-query latency during recovery (ms).
    pub p50_wall_ms: f64,
    /// 99th-percentile wall-clock per-query latency during recovery
    /// (ms) — the reorganization-churn tail.
    pub p99_wall_ms: f64,
    /// Split→merge→split cycles detected during recovery.
    pub thrash_cycles: u64,
    /// Materializations vetoed by the merge cool-down during recovery.
    pub cooldown_blocked: u64,
    /// Merges performed during recovery.
    pub merges: u64,
    /// Materializations performed during recovery.
    pub splits: u64,
    /// Materialized clusters at the end of the run.
    pub clusters: usize,
    /// Live statistics-arena bytes after the final reorganization pass.
    pub arena_live_bytes: u64,
    /// Arena slab capacity after the final pass; the gap to
    /// `arena_live_bytes` is garbage awaiting compaction.
    pub arena_capacity_bytes: u64,
    /// Lifetime arena compactions at the end of the run — recovery
    /// churn (merges retiring ranges) is what drives these.
    pub compactions: u64,
}

/// Mean of a slice (0 when empty).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `q`-quantile of an unsorted sample set (nearest-rank).
pub(crate) fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Runs the measurement protocol for one scenario instance against one
/// index configuration (see the module docs), returning the filled row.
///
/// The caller passes a *fresh* scenario per row: two rows built from
/// the same seed then see bit-identical query streams, so e.g. the
/// production index and the reference are compared on exactly the same
/// input.
pub fn measure_readapt(
    label: String,
    mode: &'static str,
    scenario: &mut dyn AdaptiveScenario,
    config: IndexConfig,
    data: &[HyperRect],
    params: &AdaptivityParams,
) -> AdaptivityRow {
    let window = (config.reorg_period.max(1) as usize).min(params.warmup_queries.max(1));
    let merge_cooldown = config.merge_cooldown;
    let mut index: AdaptiveClusterIndex = build_ac_with(config, data);

    // Adapt: trailing ring of priced costs over one reorg period.
    let mut ring = vec![0.0f64; window];
    for k in 0..params.warmup_queries {
        let q = scenario.next_query();
        ring[k % window] = index.execute(&q).metrics.priced_ms;
    }
    let steady_ms = mean(&ring);

    let thrash0 = index.total_thrash();
    let merges0 = index.total_merges();
    let splits0 = index.total_splits();
    let mut reorgs_seen = index.reorganizations();
    let mut cooldown_blocked = 0u64;

    scenario.shift();

    let mut wall_ms: Vec<f64> = Vec::with_capacity(params.post_queries);
    let mut post_shift_ms = 0.0;
    let mut readapt_queries: Option<u64> = None;
    let target = params.band * steady_ms;
    for k in 0..params.post_queries {
        let q = scenario.next_query();
        let r = index.execute(&q);
        ring[k % window] = r.metrics.priced_ms;
        wall_ms.push(r.metrics.wall.as_nanos() as f64 / 1e6);
        let reorgs = index.reorganizations();
        if reorgs > reorgs_seen {
            cooldown_blocked += index.last_reorg_profile().cooldown_blocked;
            reorgs_seen = reorgs;
        }
        if k + 1 == window {
            post_shift_ms = mean(&ring);
        }
        if k + 1 >= window && readapt_queries.is_none() && mean(&ring) <= target {
            readapt_queries = Some((k + 1) as u64);
        }
    }

    let p50_wall_ms = percentile(&mut wall_ms, 0.50);
    let p99_wall_ms = percentile(&mut wall_ms, 0.99);
    let profile = index.last_reorg_profile();
    AdaptivityRow {
        scenario: label,
        mode,
        merge_cooldown,
        steady_ms,
        post_shift_ms,
        readapt_queries,
        readapt_periods: readapt_queries.map(|q| q.div_ceil(window as u64)),
        p50_wall_ms,
        p99_wall_ms,
        thrash_cycles: index.total_thrash() - thrash0,
        cooldown_blocked,
        merges: index.total_merges() - merges0,
        splits: index.total_splits() - splits0,
        clusters: index.cluster_count(),
        arena_live_bytes: profile.arena_live_bytes,
        arena_capacity_bytes: profile.arena_capacity_bytes,
        compactions: profile.compactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acx_storage::StorageScenario;

    #[test]
    fn zoo_factories_cover_every_name() {
        let cfg = WorkloadConfig::new(4, 64, 7);
        for name in SCENARIOS {
            let mut s = make_scenario(name, &cfg);
            assert_eq!(s.dims(), 4);
            let _ = s.next_query();
            assert!(!make_objects(name, &cfg).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics() {
        make_scenario("definitely_not_a_scenario", &WorkloadConfig::new(2, 8, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.50), 2.0);
        assert_eq!(percentile(&mut xs, 0.99), 4.0);
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(percentile(&mut empty, 0.5), 0.0);
    }

    #[test]
    fn measure_readapt_fills_a_row() {
        let params = AdaptivityParams {
            objects: 300,
            dims: 3,
            warmup_queries: 250,
            post_queries: 250,
            band: 1.25,
            seed: 11,
        };
        let obj_cfg = WorkloadConfig::new(params.dims, params.objects, params.seed);
        let qry_cfg = WorkloadConfig::new(params.dims, params.objects, params.seed ^ 0xF1E1D);
        let data = make_objects("flash_crowd", &obj_cfg);
        let mut scenario = make_scenario("flash_crowd", &qry_cfg);
        let config = crate::ac_config(params.dims, StorageScenario::Memory);
        let row = measure_readapt(
            "flash_crowd".into(),
            "production",
            scenario.as_mut(),
            config,
            &data,
            &params,
        );
        assert!(row.steady_ms > 0.0);
        assert!(row.splits > 0, "the paper's platform clusters 300 objects");
        assert!(row.p99_wall_ms >= row.p50_wall_ms);
        assert_eq!(row.merge_cooldown, 0);
        assert_eq!(row.cooldown_blocked, 0);
        if let (Some(q), Some(p)) = (row.readapt_queries, row.readapt_periods) {
            assert!(q <= params.post_queries as u64);
            assert_eq!(p, q.div_ceil(100));
        }
    }
}
