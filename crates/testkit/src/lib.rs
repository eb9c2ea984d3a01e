//! Test support for the acx workspace. Every crate takes it only as a
//! `[dev-dependencies]` entry, and only integration tests use it: a
//! `#[cfg(test)]` module links the crate under test, whose types are not
//! the ones this crate was built against.
//!
//! - the suites' shared inputs and reference answers, defined once:
//!   [`paper`], [`random_rect`], [`random_grid_rect`],
//!   [`random_grid_query`], [`small_rect`], [`naive_matches`] and
//!   [`sorted`]. Each random helper makes the draws its callers' own
//!   copies made, in the same order, so every suite's inputs are the
//!   ones it always ran on;
//! - the log's test media ([`wal`]): [`MemBacking`] and the
//!   deterministic [`FaultInjector`];
//! - the checkpoint's layout as tests read, patch and hand-build it
//!   ([`ckpt`]);
//! - an executable model of the paper that every equivalence suite
//!   compares the index against ([`model`]);
//! - [`TempPath`], a temp file that outlives no test.

pub mod ckpt;
pub mod model;
pub mod wal;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use acx_core::{AdaptiveClusterIndex, IndexConfig, IndexError, RecoveryReport};
use acx_geom::{HyperRect, ObjectId, Scalar, SpatialQuery};
use acx_storage::{FlushPolicy, StorageScenario, Wal, WalRecord};
use rand::rngs::StdRng;
use rand::Rng;

pub use wal::{FaultInjector, FaultPlan, MemBacking};

/// The paper's platform ([`IndexConfig::edbt2004`], in memory), which
/// materializes clusters from the few hundred to few thousand objects
/// of the suites' streams (`reorg_equivalence.rs` holds the measured
/// profile to the same standard at its own scale).
pub fn paper(dims: usize) -> IndexConfig {
    IndexConfig::edbt2004(dims, StorageScenario::Memory)
}

/// The rectangle `[lo, hi]`, which must be valid.
pub fn rect(lo: &[Scalar], hi: &[Scalar]) -> HyperRect {
    HyperRect::from_bounds(lo, hi).unwrap()
}

/// The rectangle of `(lo, hi)` pairs, one per dimension.
pub fn rect_of(pairs: &[(Scalar, Scalar)]) -> HyperRect {
    let (lo, hi): (Vec<Scalar>, Vec<Scalar>) = pairs.iter().copied().unzip();
    rect(&lo, &hi)
}

/// A uniform random rectangle: per dimension, an ordered pair of uniforms.
pub fn random_rect(rng: &mut StdRng, dims: usize) -> HyperRect {
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let a: Scalar = rng.gen_range(0.0..=1.0);
        let b: Scalar = rng.gen_range(0.0..=1.0);
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    rect(&lo, &hi)
}

/// A random cube of side `extent` (selective as an intersection window).
pub fn small_rect(rng: &mut StdRng, dims: usize, extent: Scalar) -> HyperRect {
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let a: Scalar = rng.gen_range(0.0..=1.0 - extent);
        lo.push(a);
        hi.push(a + extent);
    }
    rect(&lo, &hi)
}

/// A random rectangle with coordinates snapped to multiples of
/// `1 / grid`, so query edges coincide with object edges constantly —
/// the boundary cases where `<=` vs `<` mistakes would show up.
pub fn random_grid_rect(rng: &mut StdRng, dims: usize, grid: u32) -> HyperRect {
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let a = rng.gen_range(0..=grid) as f32 / grid as f32;
        let b = rng.gen_range(0..=grid) as f32 / grid as f32;
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    rect(&lo, &hi)
}

/// A query of a random kind over [`random_grid_rect`]s and grid points.
pub fn random_grid_query(rng: &mut StdRng, dims: usize, grid: u32) -> SpatialQuery {
    match rng.gen_range(0..4u32) {
        0 => SpatialQuery::intersection(random_grid_rect(rng, dims, grid)),
        1 => SpatialQuery::containment(random_grid_rect(rng, dims, grid)),
        2 => SpatialQuery::enclosure(random_grid_rect(rng, dims, grid)),
        _ => SpatialQuery::point_enclosing(
            (0..dims)
                .map(|_| rng.gen_range(0..=grid) as f32 / grid as f32)
                .collect(),
        ),
    }
}

/// `ids` in ascending order, for comparing answers as sets.
pub fn sorted(mut ids: Vec<ObjectId>) -> Vec<ObjectId> {
    ids.sort_unstable();
    ids
}

/// The reference answer: the ids of the `(id, rect)` objects `query`
/// matches, by exhaustive filter, in ascending order.
pub fn naive_matches(objects: &[(u32, HyperRect)], query: &SpatialQuery) -> Vec<ObjectId> {
    let matched = objects.iter().filter(|(_, r)| query.matches_rect(r));
    sorted(matched.map(|(id, _)| ObjectId(*id)).collect())
}

/// A fresh log over a [`MemBacking`].
pub fn mem_wal(dims: usize, policy: FlushPolicy) -> Wal {
    Wal::create(Box::new(MemBacking::new()), policy, dims).unwrap()
}

/// Detaches the index's log and returns its full byte image.
pub fn wal_bytes(index: &mut AdaptiveClusterIndex) -> Vec<u8> {
    let mut store = index.detach_wal().expect("wal attached").into_store();
    store.read_durable().unwrap()
}

/// Recovers an index from a log image alone, as a restarted process
/// with no checkpoint would (the log re-attached, `PerRecord`).
pub fn recover_log(
    log: Vec<u8>,
    config: IndexConfig,
) -> Result<(AdaptiveClusterIndex, RecoveryReport), IndexError> {
    let log = Box::new(MemBacking::from_bytes(log));
    AdaptiveClusterIndex::recover(None, log, FlushPolicy::PerRecord, config)
}

/// The records a log image replays: its surviving prefix.
pub fn replay_records(bytes: &[u8]) -> Vec<WalRecord> {
    let mut log = MemBacking::from_bytes(bytes.to_vec());
    Wal::replay(&mut log).unwrap().records
}

/// The index's checkpoint file, saved through a [`TempPath`] and read
/// back: byte-deterministic, with every counter of every cluster and
/// candidate in it.
pub fn checkpoint_bytes(index: &AdaptiveClusterIndex) -> Vec<u8> {
    let path = TempPath::new("checkpoint");
    index.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// A path in the temp directory, unique per process and call, whose
/// file or directory is removed when the value drops — also when the
/// test that holds it fails.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// `acx-<tag>-<pid>-<n>` in the temp directory; nothing is created.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("acx-{tag}-{}-{n}", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_temp_path_is_removed_when_its_test_panics() {
        let mut kept = None;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let path = TempPath::new("unwind");
            std::fs::write(&path, b"left behind?").unwrap();
            kept = Some(path.to_path_buf());
            panic!("a failing assertion");
        }));
        assert!(outcome.is_err());
        let kept = kept.expect("the closure ran");
        assert!(!kept.exists(), "{} outlived the panic", kept.display());
        assert_ne!(TempPath::new("unwind").0, kept, "unique per call");
    }
}
