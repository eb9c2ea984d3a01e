/// Where the cluster members live (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageScenario {
    /// The database fits in main memory; clusters are contiguous in RAM.
    #[default]
    Memory,
    /// Cluster members are on external storage; signatures and statistics
    /// stay in memory, exploring a cluster pays a random access.
    Disk,
}

impl std::fmt::Display for StorageScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageScenario::Memory => f.write_str("memory"),
            StorageScenario::Disk => f.write_str("disk"),
        }
    }
}

/// I/O and CPU cost constants of the execution platform: the terms of
/// the cost model `T = A + p·(B + n·C)` ([`crate::CostModel`]) and of
/// the reorganization hysteresis, one formula for every platform.
///
/// Two named platforms exist. [`DeviceProfile::edbt2004`] is the
/// paper's Table 2 (a 2004 SCSI disk and a Pentium III 650 MHz), used
/// wherever the subject is the paper's tables:
///
/// | quantity | value |
/// |---|---|
/// | disk access time | 15 ms |
/// | disk transfer rate | 20 MiB/s → 4.77·10⁻⁵ ms/byte |
/// | object verification rate | 300 MiB/s → 3.18·10⁻⁶ ms/byte |
/// | cluster signature check | 5·10⁻⁷ ms |
///
/// [`DeviceProfile::measured`] prices what this implementation spends
/// in memory on the host it was measured on, and is what the memory
/// scenario uses by default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Time to position the disk head at the start of a cluster (ms).
    pub seek_ms: f64,
    /// Time to transfer one byte from disk to memory (ms).
    pub transfer_ms_per_byte: f64,
    /// Time to verify one byte of object data against a selection (ms).
    pub verify_ms_per_byte: f64,
    /// Time to check one cluster signature (ms) — the model's `A`.
    pub signature_check_ms: f64,
    /// CPU time to prepare a cluster exploration, whatever the cluster
    /// holds (ms): the scan kernel's fixed cost, the per-cluster
    /// statistics bookkeeping and the traversal around them. The
    /// candidate-independent part of the model's `B`. The paper does
    /// not tabulate it; `edbt2004` keeps the 1 µs this reproduction has
    /// always assumed for that platform.
    pub exploration_setup_ms: f64,
    /// Time to compare one candidate subcluster with a query and count
    /// the match (ms). Every explored cluster records the query on all
    /// of its candidates, so `B` grows by this much per candidate. Zero
    /// on the paper's platform, whose model has no such term.
    pub record_ms_per_candidate: f64,
    /// Time a reorganization spends per object it moves from one
    /// cluster to another (ms): taking it out of one segment, map and
    /// candidate count and putting it into another. The `M` of the move
    /// margin `n·(2·C + M)/horizon`, on top of the read-and-write
    /// estimate `2·C` that is all the paper's platform, where it is
    /// zero, charges.
    pub move_ms_per_object: f64,
}

const MIB: f64 = 1024.0 * 1024.0;

impl DeviceProfile {
    /// The paper's reference platform (Table 2).
    pub fn edbt2004() -> Self {
        DeviceProfile {
            seek_ms: 15.0,
            transfer_ms_per_byte: 1000.0 / (20.0 * MIB),
            verify_ms_per_byte: 1000.0 / (300.0 * MIB),
            signature_check_ms: 5e-7,
            exploration_setup_ms: 1e-3,
            record_ms_per_candidate: 0.0,
            move_ms_per_object: 0.0,
        }
    }

    /// What this implementation spends in memory, measured through its
    /// own production paths: the profile of
    /// `IndexConfig::memory`, and so of everything that is judged on
    /// the wall clock.
    ///
    /// The five memory terms are **committed constants**, never
    /// calibrated when an index is built or while it runs: two runs of
    /// one stream make the same decisions on any host. They are the
    /// per-term medians of five runs of
    ///
    /// ```text
    /// cargo run --release -p acx_bench --bin scan_bench -- --cost-terms
    /// ```
    ///
    /// (20 000 uniform objects at 4, 8 and 16 dimensions, nine rounds;
    /// `acx_bench::cost_terms` says how each term is taken) at the
    /// commit that introduced this profile, on 2 cores of a shared
    /// x86-64 host (AVX2), rustc 1.95.0; `BENCH_scan.json` holds the
    /// `calibration` object of one such run, and CI fails when a term
    /// drifts more than 10× from its constant. The constants were taken
    /// on the member kernel of that commit (AVX2 pass words dispatched
    /// per block); `acx_geom::scan`'s whole-scan tiers have not re-priced
    /// them. The five runs read:
    ///
    /// | term | runs (ns) | constant |
    /// |---|---|---|
    /// | `A`, per signature check | 20.1, 22.5, 25.9, 30.4, 32.2 | 26 ns |
    /// | `B`, setup per exploration | 22, 113, 189, 299, 307 | 190 ns |
    /// | `B`, per recorded candidate | 4.81, 5.28, 6.25, 6.99, 7.02 | 6.2 ns |
    /// | `C`, per verified byte | 0.148, 0.205, 0.214, 0.226, 0.249 | 0.21 ns |
    /// | `M`, per moved object | 420, 420, 515, 515, 525 | 515 ns |
    ///
    /// `A` is flat enough across the dimensionalities to be one number
    /// (18–31 ns at 4 d, 40–63 ns at 16 d, and the smallest term of
    /// every decision). The two `B` constants are the intercept and
    /// slope of one three-point line and trade off against each other
    /// from run to run; what they add up to does not (310–450, 570–835
    /// and 1 050–1 300 ns per exploration at 4, 8 and 16 d). `M` is the
    /// 4-d reading: a move costs in proportion to the object's size
    /// (650–1 140 ns at 8 d, 1 430–1 890 ns at 16 d) and the term has no
    /// size factor, so one constant under-prices the larger objects'
    /// moves — see `CostTerms::move_ns_per_object` in `acx_bench` for
    /// why the error is taken on that side.
    ///
    /// The disk terms are not measured and stay the paper's.
    pub fn measured() -> Self {
        DeviceProfile {
            verify_ms_per_byte: 0.21e-6,
            signature_check_ms: 26e-6,
            exploration_setup_ms: 190e-6,
            record_ms_per_candidate: 6.2e-6,
            move_ms_per_object: 515e-6,
            ..Self::edbt2004()
        }
    }

    /// Disk transfer rate in MiB/s implied by this profile.
    pub fn transfer_rate_mib_s(&self) -> f64 {
        1000.0 / (self.transfer_ms_per_byte * MIB)
    }

    /// Verification rate in MiB/s implied by this profile.
    pub fn verify_rate_mib_s(&self) -> f64 {
        1000.0 / (self.verify_ms_per_byte * MIB)
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        Self::edbt2004()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edbt2004_matches_table_2() {
        let p = DeviceProfile::edbt2004();
        assert_eq!(p.seek_ms, 15.0);
        // Table 2: transfer time per byte = 4.77e-5 ms.
        assert!((p.transfer_ms_per_byte - 4.77e-5).abs() < 1e-7);
        // Table 2: verification time per byte = 3.18e-6 ms.
        assert!((p.verify_ms_per_byte - 3.18e-6).abs() < 1e-8);
        assert_eq!(p.signature_check_ms, 5e-7);
        assert_eq!(p.exploration_setup_ms, 1e-3);
        // The paper's model has neither term: zero keeps its decisions.
        assert_eq!(p.record_ms_per_candidate, 0.0);
        assert_eq!(p.move_ms_per_object, 0.0);
    }

    #[test]
    fn measured_profile_prices_memory_only() {
        let paper = DeviceProfile::edbt2004();
        let p = DeviceProfile::measured();
        // The disk terms are not measured.
        assert_eq!(p.seek_ms, paper.seek_ms);
        assert_eq!(p.transfer_ms_per_byte, paper.transfer_ms_per_byte);
        // A byte verifies an order of magnitude faster than in 2004, a
        // signature check is a walk over a tree and not half a
        // nanosecond, and the two terms Table 2 lacks are charged.
        assert!(p.verify_ms_per_byte * 10.0 < paper.verify_ms_per_byte);
        assert!(p.signature_check_ms > 10.0 * paper.signature_check_ms);
        assert!(p.record_ms_per_candidate > 0.0 && p.move_ms_per_object > 0.0);
    }

    #[test]
    fn rates_roundtrip() {
        let p = DeviceProfile::edbt2004();
        assert!((p.transfer_rate_mib_s() - 20.0).abs() < 0.01);
        assert!((p.verify_rate_mib_s() - 300.0).abs() < 0.1);
    }

    #[test]
    fn scenario_display_and_default() {
        assert_eq!(StorageScenario::Memory.to_string(), "memory");
        assert_eq!(StorageScenario::Disk.to_string(), "disk");
        assert_eq!(StorageScenario::default(), StorageScenario::Memory);
    }
}
