//! Property-based tests: arbitrary operation sequences against a naive
//! reference model, with structural invariants checked throughout.

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::StorageScenario;
use acx_testkit::rect_of;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Vec<(Scalar, Scalar)>),
    Remove(u32),
    Query(Vec<(Scalar, Scalar)>, u8),
    Reorganize,
}

fn pair() -> impl Strategy<Value = (Scalar, Scalar)> {
    (0.0f32..=1.0, 0.0f32..=1.0).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
}

fn op(dims: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..64, prop::collection::vec(pair(), dims)).prop_map(|(id, ps)| Op::Insert(id, ps)),
        2 => (0u32..64).prop_map(Op::Remove),
        3 => (prop::collection::vec(pair(), dims), 0u8..4).prop_map(|(ps, rel)| Op::Query(ps, rel)),
        1 => Just(Op::Reorganize),
    ]
}

fn query_of(pairs: &[(Scalar, Scalar)], rel: u8) -> SpatialQuery {
    match rel {
        0 => SpatialQuery::intersection(rect_of(pairs)),
        1 => SpatialQuery::containment(rect_of(pairs)),
        2 => SpatialQuery::enclosure(rect_of(pairs)),
        _ => SpatialQuery::point_enclosing(pairs.iter().map(|p| p.0).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index behaves exactly like a flat map + filter, regardless of
    /// the interleaving of inserts, removes, queries and reorganizations.
    #[test]
    fn index_agrees_with_naive_model(ops in prop::collection::vec(op(3), 1..120)) {
        let mut config = IndexConfig::memory(3);
        config.reorg_period = 17; // odd period to interleave automatic reorgs
        config.min_epoch_queries = 5;
        let mut index = AdaptiveClusterIndex::new(config).unwrap();
        let mut model: Vec<(u32, HyperRect)> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(id, pairs) => {
                    let r = rect_of(&pairs);
                    let in_model = model.iter().any(|(mid, _)| *mid == id);
                    let res = index.insert(ObjectId(id), r.clone());
                    prop_assert_eq!(res.is_err(), in_model);
                    if !in_model {
                        model.push((id, r));
                    }
                }
                Op::Remove(id) => {
                    let pos = model.iter().position(|(mid, _)| *mid == id);
                    let res = index.remove(ObjectId(id));
                    match pos {
                        Some(k) => {
                            let (_, expected) = model.swap_remove(k);
                            prop_assert_eq!(res.unwrap(), expected);
                        }
                        None => prop_assert!(res.is_err()),
                    }
                }
                Op::Query(pairs, rel) => {
                    let q = query_of(&pairs, rel);
                    let mut got = index.execute(&q).matches;
                    got.sort_unstable();
                    let mut want: Vec<ObjectId> = model
                        .iter()
                        .filter(|(_, r)| q.matches_rect(r))
                        .map(|(id, _)| ObjectId(*id))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Reorganize => {
                    index.reorganize();
                }
            }
        }
        prop_assert_eq!(index.len(), model.len());
        index.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Every query explores at least the clusters needed: the verified
    /// object count can never be below the number of matches, and the
    /// priced cost is monotone in the scenario (disk ≥ memory) for the
    /// same execution.
    #[test]
    fn metrics_are_internally_consistent(
        objects in prop::collection::vec(prop::collection::vec(pair(), 3), 1..80),
        window in prop::collection::vec(pair(), 3),
    ) {
        let mut config = IndexConfig::memory(3);
        config.reorg_period = 0;
        let mut index = AdaptiveClusterIndex::new(config).unwrap();
        for (i, pairs) in objects.iter().enumerate() {
            index.insert(ObjectId(i as u32), rect_of(pairs)).unwrap();
        }
        let q = SpatialQuery::intersection(rect_of(&window));
        let result = index.execute(&q);
        let s = &result.metrics.stats;
        prop_assert!(s.objects_verified >= result.matches.len() as u64);
        prop_assert!(s.clusters_explored <= s.signature_checks);
        prop_assert!(s.verified_bytes >= s.objects_verified * 4);
        prop_assert!(result.metrics.priced_ms > 0.0);
        // Pricing the same counters under the disk model adds seek and
        // transfer cost.
        let disk_model = IndexConfig::edbt2004(3, StorageScenario::Disk).cost_model();
        prop_assert!(disk_model.price(s) > result.metrics.priced_ms);
    }
}
