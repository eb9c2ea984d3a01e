use acx_geom::object_size_bytes;
use acx_storage::frame::MAX_FRAME;
use acx_storage::{CostModel, DeviceProfile, StorageScenario};

/// Weight previous-epoch statistics retain at each reorganization. `0`
/// would reproduce the paper's single-period statistics; `0.5` smooths
/// access probabilities over an effective window of about two periods,
/// damping split/merge oscillation at the profitability margin.
pub const STATS_DECAY: f64 = 0.5;

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
    /// Minimum queries observed in a cluster's statistics epoch before
    /// reorganization decisions apply to it. Guards against acting on
    /// noise right after an epoch reset.
    pub min_epoch_queries: u64,
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
}

impl IndexConfig {
    /// Memory-scenario defaults: the paper's `f = 4` and reorganization
    /// every 100 queries, priced with the cost terms
    /// measured on this implementation ([`DeviceProfile::measured`]) —
    /// the configuration of everything that is judged on the wall
    /// clock.
    pub fn memory(dims: usize) -> Self {
        Self {
            profile: DeviceProfile::measured(),
            ..Self::edbt2004(dims, StorageScenario::Memory)
        }
    }

    /// The paper's platform by name: its defaults (`f = 4`,
    /// reorganization every 100 queries) priced with its own Table 2
    /// constants ([`DeviceProfile::edbt2004`]) in either scenario — for
    /// the figures, the paper-claims tests and every suite whose subject
    /// is the mechanism rather than the constants. It is also the disk
    /// configuration: the disk terms of this implementation are not
    /// measured.
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
            min_epoch_queries: 20,
            reorg_cost_horizon: 400.0,
            confidence_z: match scenario {
                StorageScenario::Memory => 2.0,
                StorageScenario::Disk => 1.5,
            },
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

    /// Validates the configuration. The dimensionality must fit the
    /// checkpoint's and the WAL's `u16` dimension fields; the cluster
    /// frame of the most candidates a cluster can own (`dims · f²`, a
    /// specialized one) must fit one checkpoint frame, the one bound on a
    /// cluster's candidate statistics; and the horizon and confidence
    /// factor must be finite: a NaN in either makes every reorganization
    /// threshold NaN, and every comparison against it false.
    pub fn validate(&self) -> Result<(), crate::IndexError> {
        let invalid = |why: &str| Err(crate::IndexError::InvalidConfig(why.into()));
        if self.dims == 0 || self.dims > u16::MAX as usize {
            return invalid("dims must be in 1..=65535");
        }
        if self.division_factor < 2 {
            return invalid("division factor must be at least 2");
        }
        let (dims, f) = (self.dims as u64, u64::from(self.division_factor));
        let frame = crate::index::cluster_frame_bytes(dims, dims * f * f);
        if frame > u64::from(MAX_FRAME) {
            return invalid(&format!(
                "{dims} dims at division factor {f} make {frame}-byte cluster frames, \
                 over the {MAX_FRAME}-byte checkpoint frame"
            ));
        }
        if !(self.reorg_cost_horizon.is_finite() && self.reorg_cost_horizon > 0.0) {
            return invalid("reorganization cost horizon must be finite and positive");
        }
        if !(self.confidence_z.is_finite() && self.confidence_z >= 0.0) {
            return invalid("confidence factor must be finite and non-negative");
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
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disk_config_prices_seeks() {
        let c = IndexConfig::edbt2004(16, StorageScenario::Disk);
        assert_eq!(c.scenario, StorageScenario::Disk);
        assert!(c.cost_model().b() > 15.0);
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
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_bounds_dims_by_the_on_disk_u16_field() {
        assert!(IndexConfig::memory(65_535).validate().is_ok());
        assert!(matches!(
            crate::AdaptiveClusterIndex::new(IndexConfig::memory(65_536)),
            Err(crate::IndexError::InvalidConfig(_))
        ));
    }

    /// A configuration whose largest cluster frame (`dims · f²`
    /// candidates) is over one checkpoint frame is refused before
    /// anything is built: at 65 535 d and `f = 255` the root alone would
    /// hold 2.1·10⁹ candidates, about 43 GB of counters.
    #[test]
    fn validation_refuses_cluster_frames_over_one_checkpoint_frame() {
        let config = |dims, f| IndexConfig {
            division_factor: f,
            ..IndexConfig::memory(dims)
        };
        for (dims, f) in [(22, 255), (50, 240), (65_535, 5), (65_535, 255)] {
            assert!(
                matches!(
                    crate::AdaptiveClusterIndex::new(config(dims, f)),
                    Err(crate::IndexError::InvalidConfig(_))
                ),
                "{dims} d at f = {f} accepted"
            );
        }
        for (dims, f) in [(21, 255), (65_535, 4), (1, 255)] {
            assert!(
                config(dims, f).validate().is_ok(),
                "{dims} d at f = {f} refused"
            );
        }
    }

    #[test]
    fn validation_rejects_non_finite_horizon_and_confidence() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut c = IndexConfig::memory(4);
            c.reorg_cost_horizon = bad;
            assert!(c.validate().is_err(), "horizon {bad} accepted");
            let mut c = IndexConfig::memory(4);
            c.confidence_z = bad;
            assert!(c.validate().is_err(), "confidence factor {bad} accepted");
        }
    }

    #[test]
    fn cost_model_uses_object_size() {
        let c = IndexConfig::memory(16);
        assert_eq!(c.cost_model().object_bytes(), 132);
    }
}
