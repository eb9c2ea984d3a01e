//! The index as a state machine against the paper's model
//! (`acx_testkit::model`): seeded sequences interleave inserts,
//! removals and updates, `execute` of all four query kinds, explicit
//! passes, and checkpoints each followed by a `load` (the sequence goes
//! on with the reloaded index). After every operation the index's whole
//! state is compared with the model's ([`check`]): snapshots, totals,
//! every clock and every cluster's and candidate's counters.
//!
//! A sequence may end with a crash and `recover` (checkpoint plus the
//! log written since). There the answers and the object set are
//! compared, not the decisions: a recovered index replays the logged
//! decisions but not the statistics that made them.
//!
//! Each sequence draws its configuration from its seed too: the
//! dimensionality, `f`, the period (0 for explicit passes only), the
//! epoch gate, the confidence factor, and the platform — the paper's
//! Table 2 in memory or on disk, or the measured memory profile.
//!
//! Tier-1 runs the committed [`REGRESSION_SEEDS`] and a short run of
//! fresh ones; the long run is `#[ignore]`d (`cargo test --release -p
//! acx_core --test model_state_machine -- --ignored`). The vendored
//! proptest cannot shrink, so a failing sequence is shrunk here: ops
//! are dropped one at a time for as long as the rest still fails, and
//! the seed and the shortest failing op list are printed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::{FlushPolicy, StorageScenario};
use acx_testkit::model::{check, Model};
use acx_testkit::wal::MemBacking;
use acx_testkit::{mem_wal, random_grid_query, random_grid_rect, sorted, wal_bytes, TempPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds run before any fresh one, picked for the rarest paths: the
/// most thrash cycles (merged signatures split again within the window:
/// 229, 95, 48), a reload between merges and splits (48, 95, 164), a
/// crash recovered from a checkpoint and a log holding structural
/// records (95, 164, and 8 under `z = 1.5`), and a crash with no
/// checkpoint after thrash (237).
const REGRESSION_SEEDS: [u64; 6] = [229, 95, 48, 164, 8, 237];

/// Ids an op picks from: small enough that removals and updates mostly
/// find their object, and duplicate inserts happen.
const IDS: u32 = 160;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, HyperRect),
    Remove(u32),
    Update(u32, HyperRect),
    Execute(SpatialQuery),
    Reorganize,
    /// `checkpoint`, then `load` the file and go on with that index.
    CheckpointLoad,
    /// A crash, then `recover`: only ever the last op.
    CrashRecover,
}

/// A sequence's configuration, drawn from its seed's `rng`.
fn config(rng: &mut StdRng) -> IndexConfig {
    let dims = rng.gen_range(1..=3usize);
    let mut config = match rng.gen_range(0..4u32) {
        0 => IndexConfig::edbt2004(dims, StorageScenario::Disk),
        1 => IndexConfig::memory(dims),
        _ => IndexConfig::edbt2004(dims, StorageScenario::Memory),
    };
    config.division_factor = [2, 3, 4, 4][rng.gen_range(0..4usize)];
    config.reorg_period = [0, 9, 23][rng.gen_range(0..3usize)];
    config.min_epoch_queries = [0, 4, 20][rng.gen_range(0..3usize)];
    config.confidence_z = [0.0, 0.0, 1.5][rng.gen_range(0..3usize)];
    config
}

/// Seed `seed`'s configuration and op sequence: a populating burst of
/// inserts, then a mix weighted towards queries (a pass needs a period
/// of them to price anything), and sometimes a crash at the end.
fn sequence(seed: u64, long: bool) -> (IndexConfig, Vec<Op>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config(&mut rng);
    let dims = config.dims;
    let rect = |rng: &mut StdRng| random_grid_rect(rng, dims, 8);
    let mut ops: Vec<Op> = (0..rng.gen_range(20..IDS))
        .map(|_| Op::Insert(rng.gen_range(0..IDS), rect(&mut rng)))
        .collect();
    let len = if long {
        rng.gen_range(150..400)
    } else {
        rng.gen_range(60..160)
    };
    for _ in 0..len {
        ops.push(match rng.gen_range(0..40u32) {
            0..=4 => Op::Insert(rng.gen_range(0..IDS), rect(&mut rng)),
            5..=7 => Op::Remove(rng.gen_range(0..IDS)),
            8..=10 => Op::Update(rng.gen_range(0..IDS), rect(&mut rng)),
            11..=13 => Op::Reorganize,
            14 => Op::CheckpointLoad,
            _ => Op::Execute(random_grid_query(&mut rng, dims, 8)),
        });
    }
    if rng.gen_range(0..3u32) == 0 {
        ops.push(Op::CrashRecover);
    }
    (config, ops)
}

/// `Err` unless the two results are the same value or the same error.
fn same_outcome<T: std::fmt::Debug + PartialEq, E: std::fmt::Debug>(
    index: Result<T, E>,
    model: Result<T, E>,
) -> Result<(), String> {
    match (&index, &model) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(a), Err(b)) if format!("{a:?}") == format!("{b:?}") => Ok(()),
        _ => Err(format!("index {index:?}, model {model:?}")),
    }
}

/// Runs `ops` on a logged index and on the model, comparing after every
/// op; `Err` names the first op whose outcome or state differs.
fn run(config: &IndexConfig, ops: &[Op]) -> Result<(), String> {
    let mut index = AdaptiveClusterIndex::new(config.clone()).unwrap();
    index
        .attach_wal(mem_wal(config.dims, FlushPolicy::PerRecord))
        .unwrap();
    let mut model = Model::new(config.clone());
    let path = TempPath::new("state-machine");
    let mut checkpointed = false;
    for (k, op) in ops.iter().enumerate() {
        let at = |why: String| format!("op {k} ({op:?}): {why}");
        match op {
            Op::Insert(id, rect) => same_outcome(
                index.insert(ObjectId(*id), rect.clone()),
                model.insert(ObjectId(*id), rect.clone()),
            ),
            Op::Remove(id) => {
                same_outcome(index.remove(ObjectId(*id)), model.remove(ObjectId(*id)))
            }
            Op::Update(id, rect) => same_outcome(
                index.update(ObjectId(*id), rect.clone()),
                model.update(ObjectId(*id), rect.clone()),
            ),
            Op::Execute(q) => {
                let (got, want) = (index.execute(q), model.execute(q));
                let got = (
                    sorted(got.matches),
                    got.metrics.stats,
                    got.metrics.priced_ms.to_bits(),
                );
                let want = (want.matches, want.stats, want.priced_ms.to_bits());
                if got == want {
                    Ok(())
                } else {
                    Err(format!("answer: index {got:?}, model {want:?}"))
                }
            }
            Op::Reorganize => {
                let (got, want) = (index.reorganize(), model.reorganize());
                if got == want {
                    Ok(())
                } else {
                    Err(format!("report: index {got:?}, model {want:?}"))
                }
            }
            Op::CheckpointLoad => {
                index.checkpoint(&path).map_err(|e| at(format!("{e}")))?;
                let wal = index.detach_wal().expect("the log is attached");
                index = AdaptiveClusterIndex::load(&path, config.clone())
                    .map_err(|e| at(format!("{e}")))?;
                index.attach_wal(wal).unwrap();
                checkpointed = true;
                Ok(())
            }
            Op::CrashRecover => {
                assert_eq!(k + 1, ops.len(), "a crash ends its sequence");
                let log = Box::new(MemBacking::from_bytes(wal_bytes(&mut index)));
                let checkpoint = checkpointed.then_some(&*path);
                let (recovered, _) = AdaptiveClusterIndex::recover(
                    checkpoint,
                    log,
                    FlushPolicy::PerRecord,
                    config.clone(),
                )
                .map_err(|e| at(format!("recovery: {e}")))?;
                return answers_and_objects(&recovered, &model).map_err(at);
            }
        }
        .map_err(at)?;
        index.check_invariants().map_err(at)?;
        check(&index, &model).map_err(at)?;
    }
    if let Some(failure) = index.wal_failure() {
        return Err(format!("the log failed: {failure}"));
    }
    Ok(())
}

/// `Err` unless `index` holds the model's objects and answers twelve
/// random queries and a window over the whole domain as the model does.
fn answers_and_objects(index: &AdaptiveClusterIndex, model: &Model) -> Result<(), String> {
    let mut objects: Vec<(u32, HyperRect)> = index
        .object_ids()
        .map(|id| (id.raw(), index.get(id).unwrap()))
        .collect();
    objects.sort_by_key(|(id, _)| *id);
    if objects != model.objects() {
        return Err("the recovered objects are not the model's".into());
    }
    let dims = index.dims();
    let mut rng = StdRng::seed_from_u64(0x9E0B);
    let probes = (0..12).map(|_| random_grid_query(&mut rng, dims, 8));
    for q in probes.chain([SpatialQuery::intersection(
        HyperRect::from_bounds(&vec![0.0; dims], &vec![1.0; dims]).unwrap(),
    )]) {
        if sorted(index.query(&q).matches) != model.query(&q).matches {
            return Err(format!("the recovered index answers {q:?} differently"));
        }
    }
    Ok(())
}

/// [`run`], with a panic anywhere in it reported as a failure.
fn outcome(config: &IndexConfig, ops: &[Op]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| run(config, ops)))
        .unwrap_or_else(|panic| Err(format!("panicked: {panic:?}")))
}

/// Drops ops one at a time, for as long as what is left still `fails`,
/// until no single op can go: the shortest failing sequence this finds.
fn shrink(mut ops: Vec<Op>, fails: impl Fn(&[Op]) -> bool) -> Vec<Op> {
    let mut k = 0;
    while k < ops.len() {
        let mut fewer = ops.clone();
        fewer.remove(k);
        if fails(&fewer) {
            ops = fewer;
        } else {
            k += 1;
        }
    }
    ops
}

/// Runs every seed; on the first failure, shrinks it and panics with
/// the seed, the configuration, the error and the shortest op list.
fn run_seeds(seeds: impl IntoIterator<Item = u64>, long: bool) {
    for seed in seeds {
        let (config, ops) = sequence(seed, long);
        if let Err(why) = outcome(&config, &ops) {
            let shortest = shrink(ops, |ops| outcome(&config, ops).is_err());
            let last = outcome(&config, &shortest).unwrap_err();
            panic!(
                "seed {seed} (long: {long}) fails: {why}\nconfig {config:?}\n\
                 shortest failing sequence ({} ops) fails with: {last}\n{shortest:#?}",
                shortest.len()
            );
        }
    }
}

#[test]
fn regression_seeds_match_the_model() {
    run_seeds(REGRESSION_SEEDS, false);
}

#[test]
fn short_sequences_match_the_model() {
    run_seeds(1_000..1_012, false);
}

#[test]
#[ignore = "long; run with --release"]
fn long_sequences_match_the_model() {
    run_seeds(10_000..10_400, true);
}

/// The shrinker keeps exactly the ops a failure needs, in order.
#[test]
fn shrinking_keeps_only_what_the_failure_needs() {
    let rect = HyperRect::from_bounds(&[0.0], &[1.0]).unwrap();
    let point = SpatialQuery::point_enclosing(vec![0.5]);
    let mut ops: Vec<Op> = (0..5).map(|id| Op::Insert(id, rect.clone())).collect();
    ops.extend([Op::Reorganize, Op::Execute(point.clone()), Op::Remove(9)]);
    ops.extend([Op::Execute(point), Op::Remove(3), Op::CrashRecover]);
    // "Fails" when object 3 is inserted, later removed, and a crash ends
    // the sequence.
    let fails = |ops: &[Op]| {
        let inserted = ops.iter().position(|op| matches!(op, Op::Insert(3, _)));
        let removed = ops.iter().position(|op| matches!(op, Op::Remove(3)));
        let crashed = matches!(ops.last(), Some(Op::CrashRecover));
        matches!((inserted, removed), (Some(i), Some(r)) if i < r) && crashed
    };
    assert!(fails(&ops));
    let shortest = shrink(ops, fails);
    assert_eq!(shortest.len(), 3, "{shortest:?}");
    assert!(matches!(
        shortest[..],
        [Op::Insert(3, _), Op::Remove(3), Op::CrashRecover]
    ));
}
