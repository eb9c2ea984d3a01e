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
    /// Device cost constants: [`DeviceProfile::measured`] in memory,
    /// the paper's Table 2 ([`DeviceProfile::edbt2004`]) on disk and in
    /// [`IndexConfig::edbt2004`].
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
    /// kernel over the store's columns
    /// ([`acx_geom::scan::scan_columns`]), counts matching candidates
    /// with the compare-and-count kernel
    /// ([`acx_geom::scan::count_candidates`]) and
    /// reorganizes behind an O(1) screen with columnar benefit
    /// arithmetic. The reference (`true`) is the seed's
    /// object-at-a-time execution end to end: a
    /// [`acx_geom::SpatialQuery::matches_flat`] loop over every member, a
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
    /// Memory-scenario defaults: the paper's `f = 4`, reorganization
    /// every 100 queries and 25 % reserve, priced with the cost terms
    /// measured on this implementation ([`DeviceProfile::measured`]) —
    /// the configuration of everything that is judged on the wall
    /// clock.
    pub fn memory(dims: usize) -> Self {
        Self {
            profile: DeviceProfile::measured(),
            ..Self::edbt2004(dims, StorageScenario::Memory)
        }
    }

    /// Disk-scenario defaults from the paper: [`IndexConfig::edbt2004`]
    /// on disk (the disk terms of this implementation are not
    /// measured).
    pub fn disk(dims: usize) -> Self {
        Self::edbt2004(dims, StorageScenario::Disk)
    }

    /// The paper's platform by name: its defaults (`f = 4`,
    /// reorganization every 100 queries, 25 % reserve) priced with its
    /// own Table 2 constants ([`DeviceProfile::edbt2004`]) in either
    /// scenario — for the figures, the paper-claims tests and every
    /// suite whose subject is the mechanism rather than the constants.
    ///
    /// The confidence gate is looser on disk than in memory: disk
    /// benefits are dominated by the 15 ms seek in `B`, so at reduced
    /// database scale the first profitable split sits within two
    /// standard errors of its own estimate and a `z = 2` gate would
    /// freeze the index at one cluster forever.
    pub fn edbt2004(dims: usize, scenario: StorageScenario) -> Self {
        Self {
            dims,
            division_factor: 4,
            reorg_period: 100,
            scenario,
            profile: DeviceProfile::edbt2004(),
            reserve_fraction: 0.25,
            min_epoch_queries: 20,
            stats_decay: 0.5,
            reorg_cost_horizon: 400.0,
            confidence_z: match scenario {
                StorageScenario::Memory => 2.0,
                StorageScenario::Disk => 1.5,
            },
            reference: false,
            merge_cooldown: 0,
        }
    }

    /// Candidate subclusters a cluster's statistics cover, as the cost
    /// model counts them: `dims · f(f+1)/2`, the root's set (§4.2).
    /// Specialized clusters own up to `dims · f²`; the model prices the
    /// nominal count.
    pub fn candidates_per_cluster(&self) -> usize {
        let f = self.division_factor as usize;
        self.dims * (f * (f + 1)) / 2
    }

    /// The cost model implied by this configuration.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.profile, self.scenario, object_size_bytes(self.dims))
            .recording(self.candidates_per_cluster())
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
        assert_eq!(c, IndexConfig::edbt2004(16, StorageScenario::Disk));
    }

    #[test]
    fn memory_differs_from_the_paper_platform_in_its_profile_only() {
        let paper = IndexConfig::edbt2004(16, StorageScenario::Memory);
        assert_eq!(paper.profile, DeviceProfile::edbt2004());
        assert_eq!(paper.confidence_z, 2.0);
        let memory = IndexConfig::memory(16);
        assert_eq!(memory.profile, DeviceProfile::measured());
        assert_eq!(
            IndexConfig {
                profile: paper.profile,
                ..memory
            },
            paper
        );
    }

    #[test]
    fn cost_model_records_the_nominal_candidate_count() {
        let c = IndexConfig::memory(16);
        assert_eq!(c.candidates_per_cluster(), 160);
        let expected = c.profile.exploration_setup_ms + 160.0 * c.profile.record_ms_per_candidate;
        assert_eq!(c.cost_model().b(), expected);
        // The paper's B has no recording term.
        let paper = IndexConfig::edbt2004(16, StorageScenario::Memory);
        assert_eq!(paper.cost_model().b().to_bits(), 1e-3f64.to_bits());
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
