use acx_geom::object_size_bytes;
use acx_storage::{CostModel, DeviceProfile, StorageScenario};

/// Configuration of an [`crate::AdaptiveClusterIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Dimensionality of indexed objects.
    pub dims: usize,
    /// Domain division factor `f` of the clustering function (§4.2).
    /// The paper uses 4.
    pub division_factor: u8,
    /// Trigger a reorganization every this many executed queries
    /// (§7.1 uses 100). `0` disables automatic reorganization;
    /// call [`crate::AdaptiveClusterIndex::reorganize`] manually.
    pub reorg_period: u64,
    /// Storage scenario priced by the cost model.
    pub scenario: StorageScenario,
    /// Device cost constants (defaults to the paper's Table 2).
    pub profile: DeviceProfile,
    /// Fraction of places reserved at the end of each cluster segment
    /// (§6 uses 20–30 %).
    pub reserve_fraction: f64,
    /// Minimum queries observed in a cluster's statistics epoch before
    /// reorganization decisions apply to it. Guards against acting on
    /// noise right after an epoch reset.
    pub min_epoch_queries: u64,
    /// Weight retained by previous-epoch statistics at each
    /// reorganization, in `[0, 1)`. `0` reproduces the paper's
    /// single-period statistics; the default `0.5` smooths access
    /// probabilities over an effective window of about two periods,
    /// damping split/merge oscillation at the profitability margin.
    pub stats_decay: f64,
    /// Pay-back horizon (in queries) used as a reorganization hysteresis:
    /// a split or merge must save more than the cost of moving the
    /// affected objects amortized over this many queries. Prevents
    /// marginal clusters from ping-ponging between epochs.
    pub reorg_cost_horizon: f64,
    /// Confidence factor for reorganization decisions: benefits must
    /// exceed `z` standard errors of their own estimate (driven by the
    /// binomial noise of sampled access probabilities). `0` acts on any
    /// positive benefit, reproducing the paper's bare benefit functions.
    /// Defaults are per scenario: `2.0` in memory, `1.5` on disk, where
    /// the first split at reduced database scale is marginal and a two-
    /// standard-error gate never lets clustering start.
    pub confidence_z: f64,
    /// Selects the **reference execution** instead of the production
    /// one. Defaults to `false`.
    ///
    /// Production (`false`) verifies members with the columnar batch
    /// kernel over the store's zone-mapped columns
    /// ([`acx_geom::scan::scan_columns`]), counts matching candidates
    /// with the compare-and-count kernel
    /// ([`acx_geom::scan::count_candidates`]) and
    /// reorganizes incrementally (dirty set, O(1) screens, batched
    /// benefit columns). The reference (`true`) is the seed's
    /// object-at-a-time execution end to end: a
    /// [`acx_geom::SpatialQuery::matches_flat`] loop over every member
    /// (no zone maps by construction), a
    /// [`crate::candidates::CandidateSlice::matches_query`] loop over
    /// every candidate, and a full scalar sweep of every cluster each
    /// pass. Match sets, match order, every access statistic, every
    /// recorded [`crate::StatsDelta`], every [`crate::ReorgReport`] and
    /// every [`crate::ClusterSnapshot`] are bit-identical between the
    /// two; only speed differs. It is the single index-level oracle the
    /// equivalence suites compare against, not a tuning knob.
    pub reference: bool,
    /// Split→merge thrash hysteresis: a candidate whose signature was
    /// merged away within the last `merge_cooldown` reorganization
    /// passes is not eligible for re-materialization. `0` (the default)
    /// disables the cool-down, reproducing the paper's bare benefit
    /// functions. The veto is applied identically by the production and
    /// the [`IndexConfig::reference`] pass, so decision-identity
    /// between them is preserved for every value. Thrash cycles are
    /// *counted* either way (see
    /// [`crate::ReorgProfile::thrash_cycles`]); the cool-down only
    /// changes whether they are acted on.
    pub merge_cooldown: u64,
}

impl IndexConfig {
    /// Memory-scenario defaults from the paper: `f = 4`, reorganization
    /// every 100 queries, 25 % reserve.
    pub fn memory(dims: usize) -> Self {
        Self {
            dims,
            division_factor: 4,
            reorg_period: 100,
            scenario: StorageScenario::Memory,
            profile: DeviceProfile::edbt2004(),
            reserve_fraction: 0.25,
            min_epoch_queries: 20,
            stats_decay: 0.5,
            reorg_cost_horizon: 400.0,
            confidence_z: 2.0,
            reference: false,
            merge_cooldown: 0,
        }
    }

    /// Disk-scenario defaults from the paper.
    ///
    /// The confidence gate is looser than in memory: disk benefits are
    /// dominated by the 15 ms seek in `B`, so at reduced database scale
    /// the first profitable split sits within two standard errors of its
    /// own estimate and a `z = 2` gate would freeze the index at one
    /// cluster forever.
    pub fn disk(dims: usize) -> Self {
        Self {
            scenario: StorageScenario::Disk,
            confidence_z: 1.5,
            ..Self::memory(dims)
        }
    }

    /// The cost model implied by this configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.profile, self.scenario, object_size_bytes(self.dims))
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), crate::IndexError> {
        if self.dims == 0 {
            return Err(crate::IndexError::InvalidConfig(
                "dims must be positive".into(),
            ));
        }
        if self.division_factor < 2 {
            return Err(crate::IndexError::InvalidConfig(
                "division factor must be at least 2".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.reserve_fraction) {
            return Err(crate::IndexError::InvalidConfig(
                "reserve fraction must be in [0, 1]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.stats_decay) {
            return Err(crate::IndexError::InvalidConfig(
                "stats decay must be in [0, 1)".into(),
            ));
        }
        if self.reorg_cost_horizon <= 0.0 {
            return Err(crate::IndexError::InvalidConfig(
                "reorganization cost horizon must be positive".into(),
            ));
        }
        if self.confidence_z < 0.0 {
            return Err(crate::IndexError::InvalidConfig(
                "confidence factor must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_defaults_match_paper() {
        let c = IndexConfig::memory(16);
        assert_eq!(c.division_factor, 4);
        assert_eq!(c.reorg_period, 100);
        assert_eq!(c.scenario, StorageScenario::Memory);
        assert!((0.20..=0.30).contains(&c.reserve_fraction));
        assert!(!c.reference, "the production path is the default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disk_config_prices_seeks() {
        let c = IndexConfig::disk(16);
        assert_eq!(c.scenario, StorageScenario::Disk);
        assert!(c.cost_model().b() > 15.0);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = IndexConfig::memory(0);
        assert!(c.validate().is_err());
        c.dims = 4;
        c.division_factor = 1;
        assert!(c.validate().is_err());
        c.division_factor = 4;
        c.reserve_fraction = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cost_model_uses_object_size() {
        let c = IndexConfig::memory(16);
        assert_eq!(c.cost_model().object_bytes(), 132);
    }
}
