/// Exact access counters collected while executing one or more queries.
///
/// Every access method in the repository (adaptive clustering, sequential
/// scan, R*-tree) fills the same structure, so the paper's three reported
/// performance indicators — query execution time, number of accessed
/// clusters/nodes, and size of verified data — all derive from one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Cluster signatures (or tree-node MBBs) tested against the query.
    pub signature_checks: u64,
    /// Clusters (or nodes) actually explored, i.e. whose members were read.
    pub clusters_explored: u64,
    /// Objects individually verified against the selection predicate.
    pub objects_verified: u64,
    /// Bytes of object data actually inspected, accounting for early exit
    /// on the first failing dimension (paper footnote 4).
    pub verified_bytes: u64,
    /// Random accesses needed in the disk scenario (one per explored
    /// cluster or node).
    pub seeks: u64,
    /// Bytes that must be transferred from disk in the disk scenario.
    pub transfer_bytes: u64,
}

impl AccessStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `other` into `self` (used to aggregate over a query
    /// batch before averaging).
    pub fn merge(&mut self, other: &AccessStats) {
        self.signature_checks += other.signature_checks;
        self.clusters_explored += other.clusters_explored;
        self.objects_verified += other.objects_verified;
        self.verified_bytes += other.verified_bytes;
        self.seeks += other.seeks;
        self.transfer_bytes += other.transfer_bytes;
    }

    /// Divides every counter by `n`, returning per-query averages as
    /// floating-point values.
    pub fn averaged(&self, n: u64) -> AveragedStats {
        let n = n.max(1) as f64;
        AveragedStats {
            signature_checks: self.signature_checks as f64 / n,
            clusters_explored: self.clusters_explored as f64 / n,
            objects_verified: self.objects_verified as f64 / n,
            verified_bytes: self.verified_bytes as f64 / n,
            seeks: self.seeks as f64 / n,
            transfer_bytes: self.transfer_bytes as f64 / n,
        }
    }
}

/// Per-query averages of [`AccessStats`] over a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AveragedStats {
    /// Average signature/MBB checks per query.
    pub signature_checks: f64,
    /// Average clusters/nodes explored per query.
    pub clusters_explored: f64,
    /// Average objects verified per query.
    pub objects_verified: f64,
    /// Average verified bytes per query.
    pub verified_bytes: f64,
    /// Average random accesses per query.
    pub seeks: f64,
    /// Average transferred bytes per query.
    pub transfer_bytes: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = AccessStats {
            signature_checks: 1,
            clusters_explored: 2,
            objects_verified: 3,
            verified_bytes: 4,
            seeks: 5,
            transfer_bytes: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.signature_checks, 2);
        assert_eq!(a.clusters_explored, 4);
        assert_eq!(a.objects_verified, 6);
        assert_eq!(a.verified_bytes, 8);
        assert_eq!(a.seeks, 10);
        assert_eq!(a.transfer_bytes, 12);
    }

    #[test]
    fn averaged_divides_and_guards_zero() {
        let s = AccessStats {
            signature_checks: 10,
            clusters_explored: 20,
            objects_verified: 30,
            verified_bytes: 40,
            seeks: 50,
            transfer_bytes: 60,
        };
        let avg = s.averaged(10);
        assert_eq!(avg.signature_checks, 1.0);
        assert_eq!(avg.transfer_bytes, 6.0);
        // n = 0 must not divide by zero.
        let avg0 = s.averaged(0);
        assert_eq!(avg0.signature_checks, 10.0);
    }
}
