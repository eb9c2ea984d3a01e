//! The reorganization policy (paper Fig. 1–3, §5): when a cluster merges
//! into its parent, whether its candidate scan can be skipped, and which
//! candidate a split picks — functions of numbers and a
//! [`CandidateSet`], with no index in scope. Every decision is the
//! exact float expression of the paper's benefit over its margins (what
//! the test crate's model of the paper computes candidate by candidate)
//! or bounds it through float-monotone steps with slack that dwarfs
//! rounding error.

use acx_geom::tier::Tier;
use acx_storage::CostModel;

use crate::candidates::CandidateSet;
use crate::cost::{materialization_benefit, materialization_benefit_column, merging_benefit};
use crate::IndexConfig;

/// Relative deflation applied to the selection sweep's threshold floor
/// (see [`select_split_columnar`]): large enough to dominate the few-ulp
/// rounding error of the floor and threshold expressions by four orders
/// of magnitude, small enough to stay a tight prefilter.
const FLOOR_SLACK: f64 = 1e-12;

/// The cost terms of one reorganization pass. Every term is
/// deterministic while a pass runs (no byte counter moves between its
/// evaluations), so the pass prices every merge and every candidate
/// through one value of this struct.
#[derive(Debug, Clone, Copy)]
pub(super) struct PassCosts {
    /// Signature-check cost `A`.
    pub(super) a: f64,
    /// Exploration-setup cost `B`.
    pub(super) b: f64,
    /// Effective per-object cost `C`: the measured early-exit fraction
    /// applies to the verification component, while the disk-transfer
    /// component always moves whole objects.
    pub(super) c: f64,
    /// Moving one object between clusters, `2·C + M`: reading and
    /// writing it (`2·C`, all the paper's platform charges) plus the
    /// per-object bookkeeping `M` measured by `scan_bench --cost-terms`.
    pub(super) moved: f64,
    /// Reorganization pay-back horizon (queries).
    pub(super) horizon: f64,
    /// Confidence factor `z`.
    pub(super) z: f64,
}

impl PassCosts {
    /// The terms under `model` and `config`, with the index's measured
    /// early-exit `verify_fraction` (paper footnote 4).
    pub(super) fn new(model: &CostModel, config: &IndexConfig, verify_fraction: f64) -> Self {
        let c = model.c_verify() * verify_fraction + model.c_transfer();
        Self {
            a: model.a(),
            b: model.b(),
            c,
            moved: 2.0 * c + model.m(),
            horizon: config.reorg_cost_horizon,
            z: config.confidence_z,
        }
    }

    /// Hysteresis threshold: a reorganization that moves `n` objects
    /// must save more than the move cost `n·(2·C + M)` amortized over
    /// the configured pay-back horizon.
    #[inline]
    fn move_margin(&self, n: usize) -> f64 {
        n as f64 * self.moved / self.horizon
    }

    /// Statistical margin: `z` standard errors of a benefit estimate
    /// whose dominant noise source is the sampled access probability `p`
    /// over `n_eff` effective observations, with sensitivity
    /// `∂benefit/∂p ≈ n·C + B`. Acting only on statistically significant
    /// benefits stops sampling noise from ping-ponging marginal clusters.
    #[inline]
    fn confidence_margin(&self, p: f64, n_eff: f64, n_objects: usize) -> f64 {
        if self.z == 0.0 || n_eff <= 0.0 {
            return 0.0;
        }
        let variance = (p * (1.0 - p)).max(1.0 / n_eff) / n_eff;
        self.z * variance.sqrt() * (n_objects as f64 * self.c + self.b)
    }
}

/// Paper Fig. 1's merge test (§5): whether merging a cluster of `n_c`
/// members and access probability `p_c` into a parent of access
/// probability `p_parent` saves more than the hysteresis and
/// significance threshold over `n_eff` effective observations.
#[inline]
pub(super) fn merge_profitable(
    costs: &PassCosts,
    p_c: f64,
    p_parent: f64,
    n_c: usize,
    n_eff: f64,
) -> bool {
    let benefit = merging_benefit(costs.a, costs.b, costs.c, p_c, p_parent, n_c);
    benefit > costs.move_margin(n_c) + costs.confidence_margin(p_c, n_eff, n_c)
}

/// The O(1) screen: decides — soundly — whether a full candidate scan
/// of a cluster with access probability `p_c`, `denom` effective
/// observations and cached maximal member count `n_hi` could possibly
/// materialize anything, without touching the candidate columns (and
/// therefore without forcing their lazy decay).
///
/// The screen prices the most profitable candidate any scan could find:
/// a hypothetical candidate holding `n_hi` members
/// ([`CandidateSet::n_hi`] — exact after every scan, only ever
/// *raised* by mutations in between) with access probability zero.
/// Soundness against the scalar selection, including its float
/// arithmetic:
///
/// * a real candidate's benefit is monotonically non-increasing in
///   `p_s ≥ 0` under IEEE rounding (every op of
///   [`materialization_benefit`] preserves ordering), so the screen's
///   `benefit(p_s = 0, n_hi)` dominates every candidate with the
///   maximal member count — **bit-exactly equalling** the scan's value
///   for a cold such candidate, the decisive case;
/// * its significance threshold is monotonically non-decreasing in the
///   variance, whose floor `1/denom²` is attained exactly at `p = 0` —
///   again the screen's own expression;
/// * for smaller member counts the real-arithmetic margin
///   `benefit − threshold` is linear in `n` with negative intercept
///   `−(A + z·B/denom)`, so it sits below the `n_hi` margin (when the
///   slope is positive) or below `−A` (when it is not) — `A` dwarfs
///   accumulated rounding noise at every realistic scale.
///
/// A `true` verdict is therefore decision-identical to running the scan
/// and finding nothing; `false` only costs the scan itself.
#[inline]
pub(super) fn split_screen_rules_out(costs: &PassCosts, p_c: f64, denom: f64, n_hi: u32) -> bool {
    let n_hi = n_hi as usize;
    if n_hi == 0 {
        return true; // no candidate holds members: the scan skips them all
    }
    if denom <= 0.0 {
        // Every probability the scan would price collapses to zero: each
        // benefit is exactly −A < 0 and thresholds are non-negative.
        return true;
    }
    let benefit_hi = materialization_benefit(costs.a, costs.b, costs.c, p_c, 0.0, n_hi);
    if benefit_hi <= 0.0 {
        return true; // thresholds of populated candidates are strictly positive
    }
    // Cheap tier first: the slack-deflated floor under the exact
    // threshold (same construction as the columnar selection's
    // per-candidate prefilter) resolves almost every screened cluster
    // without the sqrt-bearing confidence margin.
    let zd = if costs.z > 0.0 { costs.z / denom } else { 0.0 };
    let floor = (n_hi as f64 * (costs.moved / costs.horizon + zd * costs.c) + zd * costs.b)
        * (1.0 - FLOOR_SLACK);
    if benefit_hi <= floor {
        return true;
    }
    benefit_hi <= costs.move_margin(n_hi) + costs.confidence_margin(0.0, denom, n_hi)
}

/// What one split selection found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SplitChoice {
    /// The first candidate strictly exceeding its threshold and every
    /// earlier qualifier's benefit.
    pub(super) best: Option<usize>,
    /// Exact maximum member count, re-tightening [`CandidateSet::n_hi`].
    pub(super) max_n: u32,
}

/// A candidate's access probability over `denom` effective observations.
#[inline]
fn candidate_probability(cands: &CandidateSet, idx: usize, denom: f64) -> f64 {
    if denom <= 0.0 {
        0.0
    } else {
        (cands.q_eff(idx) + cands.q(idx) as f64) / denom
    }
}

/// The production selection: evaluates a sound benefit **bound** column
/// in one vectorizable pass over the candidate counter columns
/// ([`materialization_benefit_column`] — reciprocal-multiply upper
/// bounds within parts in 10¹² of the exact benefits, on the best tier),
/// prunes it against a division- and sqrt-free threshold floor, and
/// re-prices only the rare survivors with the exact arithmetic and
/// selection semantics of Fig. 3 (the first candidate whose benefit
/// exceeds its margins and every earlier qualifier's benefit). Every
/// pruned candidate is provably rejected by the exact expressions too —
/// its exact benefit sits at or below the bound, which sits at or below
/// the floor, which under-prices its threshold — so the choice is
/// identical. `benefits` is the bound column's reusable buffer.
pub(super) fn select_split_columnar(
    costs: &PassCosts,
    p_c: f64,
    denom: f64,
    cands: &CandidateSet,
    benefits: &mut Vec<f64>,
) -> SplitChoice {
    // Division- and sqrt-free threshold floor, hoisted per scan: a
    // candidate's significance threshold is at least
    // `n(2C + M)/H + (z/D)(nC + B)` (move margin plus the confidence
    // margin at its variance floor `1/D²`, both monotone under IEEE
    // rounding), so `n·r_floor + s_floor` — deflated by 1e-12, ten
    // thousand times the accumulated relative rounding error of either
    // side — soundly under-prices every threshold. Candidates at or
    // below the floor are provably rejected with one multiply-add fused
    // into the column pass; only the handful near the split boundary
    // pay the exact margin division and the sqrt.
    let zd = if costs.z > 0.0 && denom > 0.0 {
        costs.z / denom
    } else {
        0.0
    };
    let r_floor = (costs.moved / costs.horizon + zd * costs.c) * (1.0 - FLOOR_SLACK);
    let s_floor = zd * costs.b * (1.0 - FLOOR_SLACK);
    let summary = materialization_benefit_column(
        Tier::best(),
        costs.a,
        costs.b,
        costs.c,
        p_c,
        denom,
        r_floor,
        s_floor,
        cands.n_col(),
        cands.q_col(),
        cands.q_eff_col(),
        benefits,
    );
    let mut choice = SplitChoice {
        best: None,
        max_n: summary.max_n,
    };
    // Almost every scan of an adapted index finds *no* candidate above
    // its floor (memberless candidates have negative bounds, so they can
    // never fire); the branchy sweep below runs only when a candidate
    // might actually qualify — its skip test is the same float
    // comparison, so the short-cut is decision-identical.
    if !summary.any_above_floor {
        return choice;
    }
    let mut best: Option<(usize, f64)> = None;
    for ((idx, &bound), &n_s) in benefits.iter().enumerate().zip(cands.n_col()) {
        if n_s == 0 || bound <= n_s as f64 * r_floor + s_floor {
            continue;
        }
        // Exact expressions from here on: the benefit, margin and
        // threshold of the scalar selection, bit for bit.
        let n = n_s as usize;
        let p_s = candidate_probability(cands, idx, denom);
        let benefit = materialization_benefit(costs.a, costs.b, costs.c, p_c, p_s, n);
        if best.is_some_and(|(_, bst)| benefit <= bst) {
            continue;
        }
        let margin = costs.move_margin(n);
        if benefit <= margin {
            continue;
        }
        if benefit > margin + costs.confidence_margin(p_s, denom, n) {
            best = Some((idx, benefit));
        }
    }
    choice.best = best.map(|(idx, _)| idx);
    choice
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::signature::Signature;
    use proptest::prelude::*;

    /// Paper Fig. 3 candidate by candidate: prices every candidate of a
    /// cluster (access probability `p_c`, `denom` effective observations)
    /// with scalar arithmetic — the decision oracle of
    /// [`select_split_columnar`]. The counters must be caught up to the
    /// current statistics epoch.
    fn select_split_scalar(
        costs: &PassCosts,
        p_c: f64,
        denom: f64,
        cands: &CandidateSet,
    ) -> SplitChoice {
        let mut best: Option<(usize, f64)> = None;
        let mut max_n = 0u32;
        for idx in 0..cands.len() {
            let n = cands.n(idx);
            max_n = max_n.max(n);
            if n == 0 {
                continue;
            }
            let n = n as usize;
            let p_s = candidate_probability(cands, idx, denom);
            let benefit = materialization_benefit(costs.a, costs.b, costs.c, p_c, p_s, n);
            let threshold = costs.move_margin(n) + costs.confidence_margin(p_s, denom, n);
            if benefit > threshold && best.is_none_or(|(_, bst)| benefit > bst) {
                best = Some((idx, benefit));
            }
        }
        SplitChoice {
            best: best.map(|(idx, _)| idx),
            max_n,
        }
    }

    /// A 3-d root's candidate set (`3·f(f+1)/2` candidates at `f = 4`)
    /// carrying the drawn `(n, q, q_eff)` counters, cycled over its
    /// columns.
    fn candidate_set(counters: &[(u32, u32, f64)]) -> CandidateSet {
        let mut set = CandidateSet::generate(&Signature::root(3), 4);
        let at = |i: usize| counters[i % counters.len()];
        let q: Vec<u32> = (0..set.len()).map(|i| at(i).1).collect();
        let q_eff: Vec<f64> = (0..set.len()).map(|i| at(i).2).collect();
        for (i, n) in set.n_col_mut().iter_mut().enumerate() {
            *n = at(i).0;
        }
        set.restore_counters(&q, &q_eff, 0, 0);
        set
    }

    /// Counter triples: mostly small and cold, with memberless and hot
    /// candidates mixed in, as an adapted cluster holds them.
    fn counters() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
        prop::collection::vec(
            (
                prop_oneof![2 => Just(0u32), 3 => 0u32..40, 1 => 0u32..5_000],
                prop_oneof![2 => Just(0u32), 2 => 0u32..20, 1 => 0u32..2_000],
                prop_oneof![2 => Just(0.0f64), 3 => 0.0f64..50.0, 1 => 0.0f64..4_000.0],
            ),
            1..40,
        )
    }

    /// Cost terms around both platforms' scales; `A` stays positive, as
    /// the screen's soundness argument requires.
    fn costs() -> impl Strategy<Value = PassCosts> {
        (
            1e-6f64..0.05,
            0.0f64..0.5,
            1e-7f64..0.01,
            prop_oneof![Just(0.0f64), 0.0f64..0.02],
            (
                prop_oneof![Just(1.0f64), 10.0f64..2_000.0],
                prop_oneof![Just(0.0f64), 0.5f64..3.0],
            ),
        )
            .prop_map(|(a, b, c, m, (horizon, z))| PassCosts {
                a,
                b,
                c,
                moved: 2.0 * c + m,
                horizon,
                z,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The screen's soundness, which the pass's debug tripwire
        /// otherwise checks only on the clusters a workload happens to
        /// produce: a cluster it rules out has no candidate the scalar
        /// selection would pick.
        #[test]
        fn a_screened_out_cluster_selects_nothing(
            drawn in counters(),
            costs in costs(),
            p_c in prop_oneof![Just(0.0f64), 0.0f64..1.0],
            denom in prop_oneof![Just(0.0f64), 1.0f64..5_000.0],
            loose in prop_oneof![3 => Just(0u32), 1 => 0u32..100],
        ) {
            // The index prices `p_c` over the same observations: none, no hits.
            let p_c = if denom > 0.0 { p_c } else { 0.0 };
            let set = candidate_set(&drawn);
            let cands = &set;
            let n_hi = cands.n_col().iter().copied().max().unwrap_or(0) + loose;
            if split_screen_rules_out(&costs, p_c, denom, n_hi) {
                let choice = select_split_scalar(&costs, p_c, denom, cands);
                prop_assert_eq!(choice.best, None, "screened out, yet {:?}", choice);
            }
        }

        /// The columnar selection is the scalar one: same candidate,
        /// same member-count maximum.
        #[test]
        fn the_columnar_selection_is_the_scalar_one(
            drawn in counters(),
            costs in costs(),
            p_c in prop_oneof![Just(0.0f64), 0.0f64..1.0],
            denom in prop_oneof![Just(0.0f64), 1.0f64..5_000.0],
        ) {
            let p_c = if denom > 0.0 { p_c } else { 0.0 };
            let set = candidate_set(&drawn);
            let cands = &set;
            let scalar = select_split_scalar(&costs, p_c, denom, cands);
            let columnar = select_split_columnar(&costs, p_c, denom, cands, &mut Vec::new());
            prop_assert_eq!(columnar, scalar);
        }
    }
}
