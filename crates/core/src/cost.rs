//! Benefit functions driving the clustering strategy (paper §5).
//!
//! Both functions derive from the per-cluster expected query time
//! `T = A + p·(B + n·C)` (see [`acx_storage::CostModel`]):
//!
//! * **materialization**: `β(s, c) = (p_c − p_s)·n_s·C − p_s·B − A`
//!   — positive when carving candidate `s` out of cluster `c` lowers the
//!   expected time, i.e. when the candidate is explored sufficiently less
//!   often than its parent (`p_s < p_c`) and holds enough objects.
//! * **merging**: `μ(c, a) = A + p_c·B − (p_a − p_c)·n_c·C`
//!   — positive when maintaining `c` separately from its parent `a` no
//!   longer pays: the saved signature check and exploration setup outweigh
//!   the extra verifications caused by folding `c`'s objects into `a`.
//!
//! The functions take the cost terms as scalars so callers can refine
//! them: the index passes an *effective* `C` that scales the verification
//! component by the measured early-exit fraction (an object is rejected
//! on its first failing dimension — paper footnote 4 — so verifying one
//! object rarely touches all of its bytes).

/// Materialization benefit `β(s, c)` in milliseconds per query.
///
/// * `a`, `b`, `c` — the cost model terms (signature check, exploration
///   setup, per-object verification),
/// * `p_c` — access probability of the existing cluster,
/// * `p_s` — access probability of the candidate subcluster,
/// * `n_s` — number of the cluster's objects qualifying for the candidate.
///
/// Derivation (§5): before the split the candidate's objects are verified
/// whenever `c` is explored; after, they are verified only when `s` is
/// explored (`p_s ≤ p_c` by backward compatibility), at the price of one
/// extra signature check (`A`) on every query and an exploration setup
/// (`B`) whenever `s` is explored.
#[inline]
pub fn materialization_benefit(a: f64, b: f64, c: f64, p_c: f64, p_s: f64, n_s: usize) -> f64 {
    (p_c - p_s) * n_s as f64 * c - p_s * b - a
}

/// Merging benefit `μ(c, a)` in milliseconds per query.
///
/// * `p_c` — access probability of the cluster considered for removal,
/// * `p_a` — access probability of its parent,
/// * `n_c` — number of objects in the cluster.
///
/// Mirror image of materialization: merging saves `A` on every query and
/// `p_c·B` of exploration setup, but the parent's explorations now verify
/// `n_c` extra objects `(p_a − p_c)` of the time.
#[inline]
pub fn merging_benefit(a: f64, b: f64, c: f64, p_c: f64, p_a: f64, n_c: usize) -> f64 {
    a + p_c * b - (p_a - p_c) * n_c as f64 * c
}

/// Relative deflation applied to the reciprocal in
/// [`materialization_benefit_column`]: four thousand times the
/// accumulated relative rounding error of the reciprocal rewrite, so the
/// column's probability under-estimates — and therefore its benefit
/// over-estimates — are *sound* bounds, not approximations that could
/// flip a comparison.
const RECIPROCAL_SLACK: f64 = 1e-12;

/// Sound per-candidate **upper bounds** on the materialization benefits
/// of one cluster's whole candidate set, evaluated in a single
/// branch-free pass over the [`crate::candidates::CandidateSet`] counter
/// columns (`n`, `q`, `q_eff`) into a benefit column. On x86_64 the
/// pass is dispatched to an AVX2-compiled clone when the CPU supports
/// it (runtime-detected once, like the scan kernels' byte fills).
///
/// Each element prices the scalar expression `materialization_benefit(a,
/// b, c, p_c, p_s, n)` with the candidate's access probability replaced
/// by `(q_eff + q) · (1 − 1e-12)/denom` — one hoisted reciprocal
/// multiply instead of a division per candidate. The deflated
/// reciprocal under-estimates every true `p_s` by construction (the
/// slack dwarfs the reciprocal's rounding error), and the benefit is
/// monotonically non-increasing in `p_s` under IEEE rounding, so every
/// column element is `≥` the exact scalar benefit while staying within
/// a few parts in 10¹² of it. A candidate whose *bound* already fails a
/// threshold is provably rejected by the exact arithmetic too; the
/// caller re-prices the rare survivors exactly (division, sqrt
/// threshold) before deciding — see
/// `AdaptiveClusterIndex::reorganize`. When `denom ≤ 0` every
/// probability is exactly zero in the scalar loop, and the column is
/// bit-identical to it.
///
/// The pass additionally compares every bound against the caller's
/// per-candidate threshold floor `n·floor_r + floor_s` (the move margin
/// plus the confidence margin's variance floor, slack-deflated by the
/// caller) in the same traversal. The returned summary carries the
/// maximum `n` over all candidates — the exact value of the cached
/// member-count bound the reorganization screen uses
/// ([`crate::candidates::CandidateSet::n_hi`]) — and whether any bound
/// exceeded its floor; when none did, the caller skips its selection
/// sweep outright, since every exact benefit provably fails its
/// threshold.
///
/// In that common no-survivor case the column itself is never read, so
/// the pass runs **store-free** first (pure reduction over the counter
/// columns) and fills `out` only when some bound cleared its floor —
/// `out` then holds one bound per candidate, recomputed by the same
/// expressions.
#[allow(clippy::too_many_arguments)] // mirrors the scalar call plus the three counter columns
pub fn materialization_benefit_column(
    a: f64,
    b: f64,
    c: f64,
    p_c: f64,
    denom: f64,
    floor_r: f64,
    floor_s: f64,
    n: &[u32],
    q: &[u32],
    q_eff: &[f64],
    out: &mut Vec<f64>,
) -> BenefitColumnSummary {
    #[cfg(target_arch = "x86_64")]
    if acx_geom::scan::avx2_detected() {
        // SAFETY: AVX2 presence was just verified; the callee is the
        // same safe loop compiled with the feature enabled.
        return unsafe {
            materialization_benefit_column_avx2(
                a, b, c, p_c, denom, floor_r, floor_s, n, q, q_eff, out,
            )
        };
    }
    materialization_benefit_column_impl(a, b, c, p_c, denom, floor_r, floor_s, n, q, q_eff, out)
}

/// What one benefit-column pass found — see
/// [`materialization_benefit_column`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenefitColumnSummary {
    /// Exact maximum of the `n` column.
    pub max_n: u32,
    /// Whether any candidate's benefit bound exceeded its threshold
    /// floor `n·floor_r + floor_s`.
    pub any_above_floor: bool,
}

/// [`materialization_benefit_column_impl`] compiled for AVX2 so the
/// fill vectorizes at four lanes — bound semantics are identical, only
/// the lane width changes.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn materialization_benefit_column_avx2(
    a: f64,
    b: f64,
    c: f64,
    p_c: f64,
    denom: f64,
    floor_r: f64,
    floor_s: f64,
    n: &[u32],
    q: &[u32],
    q_eff: &[f64],
    out: &mut Vec<f64>,
) -> BenefitColumnSummary {
    materialization_benefit_column_impl(a, b, c, p_c, denom, floor_r, floor_s, n, q, q_eff, out)
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn materialization_benefit_column_impl(
    a: f64,
    b: f64,
    c: f64,
    p_c: f64,
    denom: f64,
    floor_r: f64,
    floor_s: f64,
    n: &[u32],
    q: &[u32],
    q_eff: &[f64],
    out: &mut Vec<f64>,
) -> BenefitColumnSummary {
    debug_assert!(q.len() == n.len() && q_eff.len() == n.len());
    let mut any_above_floor = false;
    let inv = if denom <= 0.0 {
        // Every probability is exactly zero in the scalar loop; a zero
        // reciprocal reproduces that (`s · 0.0 = +0.0` for the
        // non-negative counters stored here).
        0.0
    } else {
        (1.0 / denom) * (1.0 - RECIPROCAL_SLACK)
    };
    for ((&n_s, &q_s), &q_eff_s) in n.iter().zip(q).zip(q_eff) {
        let p_s_lo = (q_eff_s + q_s as f64) * inv;
        let bound = materialization_benefit(a, b, c, p_c, p_s_lo, n_s as usize);
        any_above_floor |= bound > n_s as f64 * floor_r + floor_s;
    }
    out.clear();
    if any_above_floor {
        out.resize(n.len(), 0.0);
        for (((out_s, &n_s), &q_s), &q_eff_s) in out.iter_mut().zip(n).zip(q).zip(q_eff) {
            let p_s_lo = (q_eff_s + q_s as f64) * inv;
            *out_s = materialization_benefit(a, b, c, p_c, p_s_lo, n_s as usize);
        }
    }
    BenefitColumnSummary {
        max_n: n.iter().copied().max().unwrap_or(0),
        any_above_floor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acx_geom::object_size_bytes;
    use acx_storage::CostModel;

    fn mem_terms() -> (f64, f64, f64) {
        let m = CostModel::memory(object_size_bytes(16));
        (m.a(), m.b(), m.c())
    }

    fn disk_terms() -> (f64, f64, f64) {
        let m = CostModel::disk(object_size_bytes(16));
        (m.a(), m.b(), m.c())
    }

    #[test]
    fn materialization_profitable_for_cold_populated_candidate() {
        let (a, b, c) = mem_terms();
        // Parent explored on every query, candidate on 1 %: moving 10,000
        // objects out saves ~0.99·10000·C per query.
        let benefit = materialization_benefit(a, b, c, 1.0, 0.01, 10_000);
        assert!(benefit > 0.0, "benefit {benefit}");
    }

    #[test]
    fn materialization_unprofitable_for_hot_candidate() {
        let (a, b, c) = mem_terms();
        // Candidate explored as often as the parent: only costs are added.
        let benefit = materialization_benefit(a, b, c, 0.8, 0.8, 10_000);
        assert!(benefit < 0.0, "benefit {benefit}");
    }

    #[test]
    fn materialization_unprofitable_for_tiny_candidate() {
        let (a, b, c) = mem_terms();
        // One object saves at most C per query — below A + p_s·B.
        let benefit = materialization_benefit(a, b, c, 1.0, 0.9, 1);
        assert!(benefit < 0.0, "benefit {benefit}");
    }

    #[test]
    fn disk_seek_raises_split_threshold() {
        // On disk, B includes a 15 ms seek: a candidate must be much
        // larger (or much colder) to justify materialization — this is
        // why the paper reports far fewer clusters on disk.
        let n = 200;
        let (p_c, p_s) = (1.0, 0.5);
        let (a, b, c) = mem_terms();
        let mem = materialization_benefit(a, b, c, p_c, p_s, n);
        let (a, b, c) = disk_terms();
        let disk = materialization_benefit(a, b, c, p_c, p_s, n);
        assert!(mem > 0.0, "memory benefit {mem}");
        assert!(disk < 0.0, "disk benefit {disk}");
    }

    #[test]
    fn smaller_effective_c_discourages_splits() {
        // Early-exit verification makes scanning cheaper than the full
        // object size suggests, so the same candidate can be unprofitable
        // under the effective C.
        let (a, b, c) = mem_terms();
        let n = 6;
        let full = materialization_benefit(a, b, c, 1.0, 0.5, n);
        let effective = materialization_benefit(a, b, c * 0.1, 1.0, 0.5, n);
        assert!(full > 0.0);
        assert!(effective < 0.0, "effective benefit {effective}");
    }

    #[test]
    fn merging_profitable_when_probabilities_converge() {
        let (a, b, c) = mem_terms();
        // Child explored almost as often as parent → keeping it separate
        // costs A + p·B for nothing.
        let benefit = merging_benefit(a, b, c, 0.95, 1.0, 20);
        assert!(benefit > 0.0, "benefit {benefit}");
    }

    #[test]
    fn merging_profitable_when_cluster_empties() {
        let (a, b, c) = mem_terms();
        let benefit = merging_benefit(a, b, c, 0.2, 1.0, 0);
        assert!(benefit > 0.0, "benefit {benefit}");
    }

    #[test]
    fn merging_unprofitable_for_cold_large_cluster() {
        let (a, b, c) = mem_terms();
        let benefit = merging_benefit(a, b, c, 0.01, 1.0, 50_000);
        assert!(benefit < 0.0, "benefit {benefit}");
    }

    #[test]
    fn benefit_column_bounds_the_scalar_calls_tightly() {
        let (a, b, c) = mem_terms();
        let n = [0u32, 1, 40, 10_000, u32::MAX];
        let q = [0u32, 3, 0, 250, u32::MAX];
        let q_eff = [0.0, 1.5, 0.25, 900.75, 1e9];
        let (p_c, denom) = (0.37, 240.0);
        let mut col = Vec::new();
        let summary =
            materialization_benefit_column(a, b, c, p_c, denom, 0.0, 0.0, &n, &q, &q_eff, &mut col);
        assert_eq!(summary.max_n, u32::MAX);
        assert!(
            summary.any_above_floor,
            "zero floors: positive bounds must fire"
        );
        assert_eq!(col.len(), n.len());
        for i in 0..n.len() {
            let p_s = (q_eff[i] + q[i] as f64) / denom;
            let exact = materialization_benefit(a, b, c, p_c, p_s, n[i] as usize);
            // Sound upper bound…
            assert!(
                col[i] >= exact,
                "candidate {i}: bound {} < exact {exact}",
                col[i]
            );
            // …within a few parts in 10¹² of the exact value's scale.
            let scale = exact.abs().max(p_s * (n[i] as f64 * c + b)).max(1e-300);
            assert!(
                col[i] - exact <= 1e-9 * scale,
                "candidate {i}: bound {} too loose vs exact {exact}",
                col[i]
            );
        }
        // Zero statistics: the bound degenerates to the exact value.
        let zeros = [0u32; 5];
        let zeros_f = [0.0f64; 5];
        materialization_benefit_column(
            a, b, c, p_c, denom, 0.0, 0.0, &n, &zeros, &zeros_f, &mut col,
        );
        for (i, &got) in col.iter().enumerate() {
            let want = materialization_benefit(a, b, c, p_c, 0.0, n[i] as usize);
            assert_eq!(got.to_bits(), want.to_bits(), "candidate {i} (cold)");
        }
        // Degenerate denominator: every p_s collapses to exactly 0 in
        // the scalar loop, and the column is bit-identical to it.
        let summary =
            materialization_benefit_column(a, b, c, p_c, 0.0, 0.0, 0.0, &n, &q, &q_eff, &mut col);
        assert_eq!(summary.max_n, u32::MAX);
        for (i, &got) in col.iter().enumerate() {
            let want = materialization_benefit(a, b, c, p_c, 0.0, n[i] as usize);
            assert_eq!(got.to_bits(), want.to_bits(), "candidate {i} (denom 0)");
        }
        // A floor above every bound reports no candidate above it.
        let summary =
            materialization_benefit_column(a, b, c, p_c, denom, 1e9, 1e9, &n, &q, &q_eff, &mut col);
        assert!(!summary.any_above_floor);
    }

    #[test]
    fn merge_and_split_are_exact_negations() {
        // β(s,c) > 0 should imply μ(s→c-after-split) < 0 for the same
        // statistics: a just-materialized profitable cluster must not be
        // immediately merged back.
        let (a, b, c) = mem_terms();
        let (p_c, p_s, n_s) = (1.0, 0.05, 5_000);
        let beta = materialization_benefit(a, b, c, p_c, p_s, n_s);
        let mu = merging_benefit(a, b, c, p_s, p_c, n_s);
        assert!(beta > 0.0);
        assert!(mu < 0.0);
        assert!((beta + mu).abs() < 1e-12, "β and μ are exact negations");
    }
}
