use crate::{AccessStats, DeviceProfile, StorageScenario};

/// The paper's cost model (§5): prices cluster explorations and whole
/// queries for a given storage scenario and object size.
///
/// The expected query time attributed to a cluster `c` is
///
/// ```text
/// T_c = A + p_c · (B + n_c · C)
/// ```
///
/// where `p_c` is the cluster's access probability, `n_c` its object count,
/// and:
///
/// * `A` — signature verification time,
/// * `B` — exploration setup plus the recording of the query on every
///   candidate subcluster of the explored cluster, plus one disk access
///   in the disk scenario,
/// * `C` — per-object verification time (memory) plus per-object transfer
///   time (disk scenario).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    profile: DeviceProfile,
    scenario: StorageScenario,
    object_bytes: usize,
    /// Candidate subclusters whose statistics an exploration records.
    candidates: usize,
}

impl CostModel {
    /// Builds a cost model for the scenario, pricing objects of
    /// `object_bytes` bytes (see [`acx_geom::object_size_bytes`]) and
    /// explorations that record no candidate statistics — what a
    /// sequential scan or an R*-tree node visit is. An index whose
    /// clusters carry candidates adds them with
    /// [`CostModel::recording`].
    pub fn new(profile: DeviceProfile, scenario: StorageScenario, object_bytes: usize) -> Self {
        Self {
            profile,
            scenario,
            object_bytes,
            candidates: 0,
        }
    }

    /// The same model for explorations that each record the query on
    /// `candidates` candidate subclusters (`dims · f(f+1)/2` for the
    /// adaptive index): `B` and every priced exploration grow by
    /// `candidates · record_ms_per_candidate`.
    pub fn recording(self, candidates: usize) -> Self {
        Self { candidates, ..self }
    }

    /// Memory-scenario model on the paper's reference platform.
    pub fn memory(object_bytes: usize) -> Self {
        Self::new(
            DeviceProfile::edbt2004(),
            StorageScenario::Memory,
            object_bytes,
        )
    }

    /// Disk-scenario model on the paper's reference platform.
    pub fn disk(object_bytes: usize) -> Self {
        Self::new(
            DeviceProfile::edbt2004(),
            StorageScenario::Disk,
            object_bytes,
        )
    }

    /// The storage scenario this model prices.
    pub fn scenario(&self) -> StorageScenario {
        self.scenario
    }

    /// The device profile behind this model.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Object size in bytes used for `C`.
    pub fn object_bytes(&self) -> usize {
        self.object_bytes
    }

    /// Model parameter `A`: cluster signature verification time (ms).
    #[inline]
    pub fn a(&self) -> f64 {
        self.profile.signature_check_ms
    }

    /// CPU time of one cluster exploration before any member is
    /// verified (ms): the fixed setup plus the recording of the query
    /// on each candidate.
    #[inline]
    fn exploration_cpu_ms(&self) -> f64 {
        self.profile.exploration_setup_ms
            + self.candidates as f64 * self.profile.record_ms_per_candidate
    }

    /// Model parameter `B`: cluster exploration preparation time (ms),
    /// `exploration_setup_ms + candidates · record_ms_per_candidate`.
    /// In the disk scenario this includes one random disk access.
    #[inline]
    pub fn b(&self) -> f64 {
        match self.scenario {
            StorageScenario::Memory => self.exploration_cpu_ms(),
            StorageScenario::Disk => self.exploration_cpu_ms() + self.profile.seek_ms,
        }
    }

    /// Model parameter `C`: per-object check time (ms). In the disk
    /// scenario this includes transferring the object from disk.
    #[inline]
    pub fn c(&self) -> f64 {
        self.c_verify() + self.c_transfer()
    }

    /// CPU verification component of `C`: time to check one full object
    /// (ms). Callers that account for early-exit verification (paper
    /// footnote 4) scale this component by the observed checked-bytes
    /// fraction.
    #[inline]
    pub fn c_verify(&self) -> f64 {
        self.object_bytes as f64 * self.profile.verify_ms_per_byte
    }

    /// Transfer component of `C` (ms): zero in memory, one object's disk
    /// transfer in the disk scenario. Transfer always moves the whole
    /// object regardless of early-exit verification.
    #[inline]
    pub fn c_transfer(&self) -> f64 {
        match self.scenario {
            StorageScenario::Memory => 0.0,
            StorageScenario::Disk => self.object_bytes as f64 * self.profile.transfer_ms_per_byte,
        }
    }

    /// Reorganization parameter `M`: what a split or merge spends per
    /// object it moves between clusters (ms). Not a term of `T`; the
    /// index's move margin `n·(2·C + M)/horizon` charges it.
    #[inline]
    pub fn m(&self) -> f64 {
        self.profile.move_ms_per_object
    }

    /// Prices a set of measured access counters (ms).
    ///
    /// This prices what a query *actually did*: signature checks,
    /// explorations (each with its candidate recording), byte
    /// verifications, and — in the disk scenario — seeks and transfers.
    pub fn price(&self, stats: &AccessStats) -> f64 {
        let mut ms = stats.signature_checks as f64 * self.profile.signature_check_ms
            + stats.clusters_explored as f64 * self.exploration_cpu_ms()
            + stats.verified_bytes as f64 * self.profile.verify_ms_per_byte;
        if self.scenario == StorageScenario::Disk {
            ms += stats.seeks as f64 * self.profile.seek_ms
                + stats.transfer_bytes as f64 * self.profile.transfer_ms_per_byte;
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ_16D: usize = 132; // 4 + 8·16

    #[test]
    fn memory_parameters() {
        let m = CostModel::memory(OBJ_16D);
        assert_eq!(m.a(), 5e-7);
        assert_eq!(m.b(), 1e-3);
        // C = 132 bytes · ≈3.18e-6 ms/B ≈ 4.2e-4 ms (Table 2 rounds the rate).
        assert!((m.c() - 132.0 * 3.18e-6).abs() / m.c() < 1e-2);
    }

    /// `edbt2004` charges nothing for recording or moving, so the
    /// paper's terms are what they were before those terms existed —
    /// to the bit, whatever the candidate count.
    #[test]
    fn paper_terms_ignore_the_candidate_count() {
        for base in [CostModel::memory(OBJ_16D), CostModel::disk(OBJ_16D)] {
            let recording = base.recording(160);
            assert_eq!(recording.a().to_bits(), base.a().to_bits());
            assert_eq!(recording.b().to_bits(), base.b().to_bits());
            assert_eq!(recording.c().to_bits(), base.c().to_bits());
            assert_eq!(recording.m(), 0.0);
        }
        assert_eq!(CostModel::memory(OBJ_16D).b().to_bits(), 1e-3f64.to_bits());
        assert_eq!(
            CostModel::disk(OBJ_16D).b().to_bits(),
            (1e-3f64 + 15.0).to_bits()
        );
    }

    #[test]
    fn measured_b_grows_with_the_recorded_candidates() {
        let profile = DeviceProfile::measured();
        let model = |candidates| {
            CostModel::new(profile, StorageScenario::Memory, OBJ_16D).recording(candidates)
        };
        assert_eq!(model(0).b(), profile.exploration_setup_ms);
        assert!(model(40).b() < model(80).b() && model(80).b() < model(160).b());
        let per_candidate = (model(160).b() - model(40).b()) / 120.0;
        assert!((per_candidate - profile.record_ms_per_candidate).abs() < 1e-12);
        assert_eq!(model(160).m(), profile.move_ms_per_object);
        // C is bytes times the measured rate, as on the paper's platform.
        assert_eq!(model(160).c(), OBJ_16D as f64 * profile.verify_ms_per_byte);
    }

    #[test]
    fn price_charges_recording_per_explored_cluster() {
        let stats = AccessStats {
            signature_checks: 100,
            clusters_explored: 10,
            objects_verified: 1000,
            verified_bytes: 132_000,
            seeks: 10,
            transfer_bytes: 132_000,
        };
        let profile = DeviceProfile::measured();
        let bare = CostModel::new(profile, StorageScenario::Memory, OBJ_16D);
        let recording = bare.recording(160);
        let extra = recording.price(&stats) - bare.price(&stats);
        assert!((extra - 10.0 * 160.0 * profile.record_ms_per_candidate).abs() < 1e-12);
        // What a query is priced at is what the prospective model
        // expects of the clusters it explored.
        let expected =
            100.0 * recording.a() + 10.0 * recording.b() + 132_000.0 * profile.verify_ms_per_byte;
        assert!((recording.price(&stats) - expected).abs() < 1e-12);
    }

    #[test]
    fn disk_parameters_add_seek_and_transfer() {
        let mem = CostModel::memory(OBJ_16D);
        let disk = CostModel::disk(OBJ_16D);
        assert_eq!(disk.a(), mem.a());
        assert!((disk.b() - (mem.b() + 15.0)).abs() < 1e-9);
        assert!(disk.c() > mem.c());
        // C' − C = transfer time of one object.
        let delta = disk.c() - mem.c();
        assert!((delta - 132.0 * 4.77e-5).abs() / delta < 1e-2);
    }

    #[test]
    fn price_counts_scenario_specific_costs() {
        let stats = AccessStats {
            signature_checks: 100,
            clusters_explored: 10,
            objects_verified: 1000,
            verified_bytes: 132_000,
            seeks: 10,
            transfer_bytes: 132_000,
        };
        let mem = CostModel::memory(OBJ_16D).price(&stats);
        let disk = CostModel::disk(OBJ_16D).price(&stats);
        // Disk adds 10 seeks (150 ms) plus transfer.
        assert!(disk > mem + 150.0 - 1e-6);
        let expected_mem =
            100.0 * 5e-7 + 10.0 * 1e-3 + 132_000.0 * DeviceProfile::edbt2004().verify_ms_per_byte;
        assert!((mem - expected_mem).abs() < 1e-9);
    }

    #[test]
    fn seq_scan_disk_cost_dominated_by_transfer() {
        // A 251 MiB database read sequentially should take ≈ 12.5 s at
        // 20 MiB/s — the flat SS line in Fig. 7 chart B.
        let db_bytes = 2_000_000u64 * OBJ_16D as u64;
        let stats = AccessStats {
            signature_checks: 1,
            clusters_explored: 1,
            objects_verified: 2_000_000,
            verified_bytes: db_bytes,
            seeks: 1,
            transfer_bytes: db_bytes,
        };
        let disk_ms = CostModel::disk(OBJ_16D).price(&stats);
        assert!(disk_ms > 12_000.0 && disk_ms < 15_000.0, "got {disk_ms}");
    }
}
