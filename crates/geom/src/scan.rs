//! Columnar (dimension-major) batch verification kernel over `u64`
//! survivors bitmasks.
//!
//! Sequential verification of a whole segment is the hot loop of the
//! system (paper §3.6, Fig. 5): the clustering bet only pays off if
//! scanning a cluster's members is cheap enough to beat fine-grained
//! indexing. [`SpatialQuery::matches_flat`] walks one object at a time
//! over interleaved `[lo0, hi0, lo1, hi1, …]` coordinates; this module
//! provides the batch counterpart over a *dimension-major* (SoA) layout:
//! one contiguous `lo` column and one `hi` column per dimension.
//!
//! The kernel tests a whole block of [`BLOCK`] = 64 objects against one
//! query dimension at a time, keeping the survivors of each block as one
//! `u64` bitmask (bit `i` = object `i` of the block still matches).
//! Per dimension the pass bits of the block are ANDed into the mask;
//! survivor counting is a single `popcount`. A block whose mask reaches
//! zero skips its remaining dimensions — the columnar analogue of the
//! scalar path's per-object early exit.
//!
//! The skip is per block, not per object: one survivor keeps 63 dead
//! lanes loading. How many pass words a block costs therefore depends on
//! which objects share it, while the match set, [`ScanOutcome`] and every
//! statistic are sums over objects and do not. Callers exploit that:
//! `acx_storage::SegmentStore` keeps a cluster's members sorted by their
//! lower bound in dimension 0, so the lanes of a block agree on that
//! dimension and most blocks die in their first word (`scan_bench`'s
//! `block_order` rows in `BENCH_scan.json` measure by how much).
//!
//! The word of a full block — the block tested in one dimension — does
//! only its comparisons. A scan over a view that holds a full block
//! resolves each dimension's `(x, y)` column pair once, checking every
//! column against the view's end before the first load; each full
//! block's word then reads its 64 lanes through the resolved pointers,
//! with no per-word lookup or length check, as a fixed 64-lane word.
//! Only the view's partial last block, which reaches each dimension at
//! most once, cuts its lanes from the columns by checked slicing and
//! takes the masked word that handles any lane count.
//!
//! Two entry points sharing one block loop:
//!
//! * [`scan_columns`] — member verification over [`PairedColumns`]
//!   (the adaptive index's segments, the sequential-scan baseline).
//! * [`scan_interleaved`] — the same kernel over row-major input
//!   (R*-tree leaf pages), gathering one block-sized tile per
//!   (block, dimension) lazily.
//!
//! A caller that runs many kernel calls for one query (an index
//! exploring hundreds of clusters) loads the query's [`QueryBounds`]
//! once and uses the `*_loaded` entry points.
//!
//! ## Metrics are bit-identical to the scalar path
//!
//! The scalar loop charges each object `dims_checked` = the index of its
//! first failing dimension plus one (or the full dimensionality when it
//! matches). Since an object reaches the check of dimension `d` exactly
//! when it survived dimensions `0..d`, the total over a segment equals
//! the sum over dimensions of the number of objects still alive when
//! that dimension is evaluated — which is precisely the sum of mask
//! popcounts the kernel accumulates. Dimensions are evaluated in the
//! same order (`0, 1, 2, …`) with the same comparisons, so
//! [`ScanOutcome`] totals — and every byte counter and reorganization
//! decision derived from them — are bit-identical to object-at-a-time
//! verification.
//!
//! ## Instruction tiers
//!
//! One `#[inline(always)]` block loop is instantiated inside two
//! whole-scan functions. On AVX2 a full block's word is eight unrolled
//! `vcmpps` + `movmskps` steps straight into the survivors word, and the
//! partial block's word loads its last step with `vmaskmovps` (no
//! scalar tail). The portable tier, for every other CPU, compares a
//! fixed 64-lane tile into bytes the compiler auto-vectorizes and packs
//! them into the word. The best tier the CPU reports is resolved once
//! per process and chosen once per scan call, outside the block and
//! dimension loops; both tiers compute the same pass bits, so results
//! do not depend on the machine.

use crate::{Scalar, SpatialQuery, OBJECT_ID_BYTES};

/// Objects per kernel block — and lanes per survivors-mask word: small
/// enough that a block of rejected objects stops paying for further
/// dimensions quickly, large enough that the per-dimension loops
/// vectorize and survivor counting is one `popcount`.
pub const BLOCK: usize = 64;

/// Borrowed view over paired columns stored as `[lo0, hi0, lo1, hi1, …]`
/// — the layout of `acx_storage::SegmentStore`'s segments and of the
/// sequential-scan baseline. Supports sub-ranges: a view may cover any
/// window of the objects.
#[derive(Debug, Clone, Copy)]
pub struct PairedColumns<'a> {
    cols: &'a [Vec<Scalar>],
    start: usize,
    len: usize,
}

impl<'a> PairedColumns<'a> {
    /// View over all objects of the column set. `cols` must hold `2·dims`
    /// equal-length vectors, lower bounds at even indices.
    ///
    /// # Panics
    ///
    /// Panics if a column is shorter than the first.
    pub fn new(cols: &'a [Vec<Scalar>]) -> Self {
        Self::slice(cols, 0, cols.first().map_or(0, Vec::len))
    }

    /// [`PairedColumns::new`] for an owner that already checks, wherever
    /// it changes a column's length, that all of them are equally long:
    /// the view takes the first column's length without comparing the
    /// others. A broken promise cannot read out of bounds: a scan
    /// ([`scan_columns`], [`scan_columns_loaded`]) checks every column it
    /// resolves against the view before its first unchecked load, and
    /// cuts the partial block's lanes by checked slicing, so a short
    /// column panics; [`PairedColumns::lo_col`] and
    /// [`PairedColumns::hi_col`] slice with checks too.
    pub fn of_equal_columns(cols: &'a [Vec<Scalar>]) -> Self {
        Self { cols, start: 0, len: cols.first().map_or(0, Vec::len) }
    }

    /// View over objects `start..start + len`.
    ///
    /// # Panics
    ///
    /// Panics if a column does not cover `start + len` objects.
    pub fn slice(cols: &'a [Vec<Scalar>], start: usize, len: usize) -> Self {
        let end = start.checked_add(len).expect("view range overflows");
        assert!(
            cols.iter().all(|col| col.len() >= end),
            "every column must cover the view's {end} objects"
        );
        Self { cols, start, len }
    }

    /// Number of objects in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower-bound column of dimension `d`.
    pub fn lo_col(&self, d: usize) -> &'a [Scalar] {
        &self.cols[2 * d][self.start..self.start + self.len]
    }

    /// Upper-bound column of dimension `d`.
    pub fn hi_col(&self, d: usize) -> &'a [Scalar] {
        &self.cols[2 * d + 1][self.start..self.start + self.len]
    }
}

/// Aggregate outcome of scanning one column set against a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Objects scanned (every object is verified, as in the scalar path).
    pub objects: usize,
    /// Objects that satisfied the query; their indices are in
    /// [`ScanScratch::matches`].
    pub matched: usize,
    /// Total dimensions inspected across all objects, accounting for the
    /// early exit on the first failing dimension — bit-identical to
    /// summing [`crate::MatchOutcome::dims_checked`] over the objects.
    pub dims_checked: u64,
}

impl ScanOutcome {
    /// Verified bytes under the paper's accounting (footnote 4): the
    /// object identifier plus both 4-byte bounds of every inspected
    /// dimension.
    pub fn verified_bytes(&self) -> u64 {
        self.objects as u64 * OBJECT_ID_BYTES as u64 + 8 * self.dims_checked
    }
}

/// Reusable scan state: the match index buffer, the query bounds of the
/// entry points that load them per call, the column table of a
/// dimension-major scan, and gather tiles for interleaved inputs.
/// Allocations grow to the largest match set and dimensionality and are
/// then reused, so a warmed-up scratch performs no allocation per scan.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Indices (ascending) of the objects that matched the last scan.
    matches: Vec<u32>,
    /// Bounds of the query last passed to [`scan_columns`] or
    /// [`scan_interleaved`].
    bounds: QueryBounds,
    /// Each dimension's `x` and `y` columns, resolved by
    /// [`resolve_columns`] at the start of a dimension-major scan that
    /// holds a full block.
    columns: Vec<ColumnPair>,
    /// Per-block gather tiles ([`BLOCK`] scalars each) for interleaved
    /// inputs: the `x` and `y` sides of the tiers' comparison.
    tile_x: Vec<Scalar>,
    tile_y: Vec<Scalar>,
}

impl ScanScratch {
    /// An empty scratch; buffers are sized lazily by the first scans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indices of the objects that matched the most recent scan, in
    /// ascending (storage) order.
    pub fn matches(&self) -> &[u32] {
        &self.matches
    }
}

/// Mask word with the lowest `len` bits set (`len` in `1..=64`).
#[inline]
fn lane_mask(len: usize) -> u64 {
    debug_assert!((1..=BLOCK).contains(&len));
    !0u64 >> (BLOCK - len)
}

/// Packs [`BLOCK`] 0/1 bytes into mask bits (byte `i` → bit `i`): eight
/// bytes at a time, a multiply gathers their low bits into the top byte
/// of the product — the portable movemask.
#[inline]
fn pack_tile(tile: &[u8; BLOCK]) -> u64 {
    let mut word = 0u64;
    for (k, chunk) in tile.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
            & 0x0101_0101_0101_0101;
        word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    word
}

/// One instruction tier's pass words. Every relation is the same
/// two-sided comparison `x ≤ t1 ∧ y ≥ t2` once the [`Relation`] has said
/// which bound column is `x` and which query side is `t1`, so each tier
/// implements exactly one comparison, at two widths.
trait Compare {
    /// Pass bits of one full block: bit `i` set ⇔ `x[i] ≤ t1 ∧ y[i] ≥ t2`.
    /// A fixed [`BLOCK`]-lane word: no length, no masked load.
    ///
    /// # Safety
    ///
    /// The CPU must support the tier's instruction set.
    unsafe fn full_word(x: &[Scalar; BLOCK], y: &[Scalar; BLOCK], t1: Scalar, t2: Scalar) -> u64;

    /// [`Compare::full_word`] for the `x.len() < 64` lanes of a segment's
    /// partial last block. Bits at and above `x.len()` are unspecified
    /// (the block loop ANDs them away).
    ///
    /// # Safety
    ///
    /// The CPU must support the tier's instruction set.
    unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64;
}

/// Branch-free compares into a byte tile (auto-vectorized), then
/// [`pack_tile`]: runs anywhere.
struct Portable;

impl Portable {
    /// Pass bits of the first `x.len() ≤ 64` lanes; inlined with a full
    /// block's arrays, the loop's trip count is the constant 64.
    #[inline(always)]
    fn tile_word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64 {
        let mut tile = [0u8; BLOCK];
        for ((t, &xv), &yv) in tile.iter_mut().zip(x).zip(y) {
            *t = ((xv <= t1) & (yv >= t2)) as u8;
        }
        pack_tile(&tile)
    }
}

impl Compare for Portable {
    #[inline(always)]
    unsafe fn full_word(x: &[Scalar; BLOCK], y: &[Scalar; BLOCK], t1: Scalar, t2: Scalar) -> u64 {
        Self::tile_word(x, y, t1, t2)
    }

    #[inline(always)]
    unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64 {
        debug_assert!(x.len() == y.len() && !x.is_empty() && x.len() < BLOCK);
        Self::tile_word(x, y, t1, t2)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The explicit compare→mask tier. `_CMP_LE_OQ`/`_CMP_GE_OQ` are
    //! false on NaN like the scalar `<=`/`>=`, so the words equal
    //! [`super::Portable`]'s bit for bit.

    use super::{Compare, Scalar, BLOCK};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// Eight lanes per step: `vcmpps` + `movmskps`.
    pub(super) struct Avx2;

    /// Pass bits of the eight lanes `xv`, `yv`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn step(xv: __m256, yv: __m256, t1v: __m256, t2v: __m256) -> u64 {
        let pass = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LE_OQ>(xv, t1v),
            _mm256_cmp_ps::<_CMP_GE_OQ>(yv, t2v),
        );
        _mm256_movemask_ps(pass) as u32 as u64
    }

    impl Compare for Avx2 {
        #[inline(always)]
        unsafe fn full_word(
            x: &[Scalar; BLOCK],
            y: &[Scalar; BLOCK],
            t1: Scalar,
            t2: Scalar,
        ) -> u64 {
            let (t1v, t2v) = (_mm256_set1_ps(t1), _mm256_set1_ps(t2));
            let (x, y) = (x.as_ptr(), y.as_ptr());
            let mut word = 0u64;
            // Eight steps of a constant count: the loop unrolls.
            for k in 0..BLOCK / 8 {
                // SAFETY: step `k` reads lanes `8k..8k + 8 ≤ BLOCK` of
                // two `BLOCK`-lane arrays.
                let (xv, yv) = unsafe {
                    (_mm256_loadu_ps(x.add(8 * k)), _mm256_loadu_ps(y.add(8 * k)))
                };
                word |= step(xv, yv, t1v, t2v) << (8 * k);
            }
            word
        }

        #[inline(always)]
        unsafe fn word(x: &[Scalar], y: &[Scalar], t1: Scalar, t2: Scalar) -> u64 {
            let len = x.len();
            assert!(y.len() == len && len < BLOCK, "one partial block of paired lanes");
            let (t1v, t2v) = (_mm256_set1_ps(t1), _mm256_set1_ps(t2));
            let mut word = 0u64;
            let mut i = 0;
            while i < len {
                let left = len - i;
                // SAFETY: `i < len = x.len() = y.len()` (asserted above).
                // A full step reads lanes `i..i + 8 ≤ len`; the last,
                // partial step enables only its `left < 8` lanes, and
                // `vmaskmovps` does not access a disabled lane.
                let (xv, yv) = unsafe {
                    if left >= 8 {
                        (_mm256_loadu_ps(x.as_ptr().add(i)), _mm256_loadu_ps(y.as_ptr().add(i)))
                    } else {
                        let lanes = _mm256_cmpgt_epi32(
                            _mm256_set1_epi32(left as i32),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                        );
                        (
                            _mm256_maskload_ps(x.as_ptr().add(i), lanes),
                            _mm256_maskload_ps(y.as_ptr().add(i), lanes),
                        )
                    }
                };
                word |= step(xv, yv, t1v, t2v) << i;
                i += 8;
            }
            word
        }
    }
}

/// The instruction tiers, worst to best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The best tier this CPU runs. The detection macro caches the CPU's
    /// answer for the process; a scan call reads it once.
    #[inline]
    fn best() -> Tier {
        // `popcnt` rides along so the block loop's survivor count is one
        // instruction in the tier compiled for these CPUs.
        #[cfg(target_arch = "x86_64")]
        if avx2_detected() && std::arch::is_x86_feature_detected!("popcnt") {
            return Tier::Avx2;
        }
        Tier::Portable
    }
}

/// The three comparison shapes; point-enclosing queries reduce to
/// [`Relation::Enclosure`] with degenerate per-dimension bounds. Each is
/// the tiers' `x ≤ t1 ∧ y ≥ t2` under a choice of columns and sides,
/// with `a = q.lo(d)` and `b = q.hi(d)`:
///
/// | relation | condition | `x` | `t1` |
/// |---|---|---|---|
/// | intersection | `lo ≤ b ∧ hi ≥ a` | `lo` | `b` |
/// | containment | `hi ≤ b ∧ lo ≥ a` | `hi` | `b` |
/// | enclosure | `lo ≤ a ∧ hi ≥ b` | `lo` | `a` |
#[derive(Debug, Clone, Copy, Default)]
enum Relation {
    #[default]
    Intersection,
    Containment,
    Enclosure,
}

impl Relation {
    /// Whether `x` is the upper-bound column and `y` the lower.
    #[inline]
    fn x_is_hi(self) -> bool {
        matches!(self, Relation::Containment)
    }

    /// Whether `t1` is the query's `a` side and `t2` its `b` side.
    #[inline]
    fn t1_is_a(self) -> bool {
        matches!(self, Relation::Enclosure)
    }
}

/// A query's comparison shape and per-dimension bounds in the form the
/// kernels consume. Loading is a copy of `2·dims` scalars: cheap once,
/// but an index exploring hundreds of clusters runs the kernel once per
/// cluster, so it loads the bounds once per query and calls
/// [`scan_columns_loaded`] with them.
#[derive(Debug, Default)]
pub struct QueryBounds {
    rel: Relation,
    /// Per-dimension `a` side: the window's lower bounds, or the point.
    qa: Vec<Scalar>,
    /// Per-dimension `b` side: the window's upper bounds, or the point.
    qb: Vec<Scalar>,
}

impl QueryBounds {
    /// Empty bounds (zero dimensions); buffers are sized by the first
    /// [`QueryBounds::load`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with `query`'s shape and bounds, reusing
    /// the buffers.
    pub fn load(&mut self, query: &SpatialQuery) {
        self.qa.clear();
        self.qb.clear();
        match query {
            SpatialQuery::Intersection(q)
            | SpatialQuery::Containment(q)
            | SpatialQuery::Enclosure(q) => {
                for d in 0..q.dims() {
                    self.qa.push(q.interval(d).lo());
                    self.qb.push(q.interval(d).hi());
                }
            }
            SpatialQuery::PointEnclosing(p) => {
                self.qa.extend_from_slice(p);
                self.qb.extend_from_slice(p);
            }
        }
        self.rel = match query {
            SpatialQuery::Intersection(_) => Relation::Intersection,
            SpatialQuery::Containment(_) => Relation::Containment,
            SpatialQuery::Enclosure(_) | SpatialQuery::PointEnclosing(_) => Relation::Enclosure,
        };
    }

    /// Dimensionality of the loaded query.
    pub fn dims(&self) -> usize {
        self.qa.len()
    }
}

/// Where the block loop reads a (block, dimension) pair's lanes from.
trait Lanes {
    /// Number of objects.
    fn len(&self) -> usize;

    /// The `x` and `y` sides of dimension `d` for the full block of
    /// objects `start..start + BLOCK`.
    ///
    /// # Safety
    ///
    /// `start + BLOCK ≤ self.len()`.
    unsafe fn full(&mut self, start: usize, d: usize) -> (&[Scalar; BLOCK], &[Scalar; BLOCK]);

    /// The `x` and `y` sides of dimension `d` for the partial block of
    /// objects `start..start + len`, each cut to exactly `len` lanes.
    fn partial(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]);
}

/// One dimension's `x` and `y` columns, each pointing at the view's
/// first object: what a dimension-major scan reads a word from, resolved
/// once per scan by [`resolve_columns`].
#[derive(Debug, Clone, Copy)]
struct ColumnPair {
    x: *const Scalar,
    y: *const Scalar,
}

// SAFETY: a `ColumnPair` is dereferenced only by the scan call that
// resolved it, while that call borrows the columns. The pairs a scratch
// keeps between calls are never read again (the next scan clears them
// first), so moving or sharing a scratch across threads shares no access
// to the columns.
unsafe impl Send for ColumnPair {}
// SAFETY: as for `Send`.
unsafe impl Sync for ColumnPair {}

/// Resolves the `(x, y)` column pair of each of the `dims` dimensions of
/// `cols` into `pairs`, once per scan, after checking that every column
/// it resolves covers the view: the one length check per column per scan
/// which the full blocks' unchecked loads rely on.
///
/// # Panics
///
/// Panics if a column is shorter than the view's end, or `cols` holds
/// fewer than `2·dims` columns.
fn resolve_columns(
    cols: &PairedColumns<'_>,
    dims: usize,
    x_is_hi: bool,
    pairs: &mut Vec<ColumnPair>,
) {
    let PairedColumns { cols, start, len } = *cols;
    let end = start + len;
    let mut covered = true;
    pairs.clear();
    pairs.extend(cols[..2 * dims].chunks_exact(2).map(|lo_hi| {
        let (lo, hi) = (&lo_hi[0], &lo_hi[1]);
        covered &= (lo.len() >= end) & (hi.len() >= end);
        let (x, y) = if x_is_hi { (hi, lo) } else { (lo, hi) };
        ColumnPair { x: x.as_ptr().wrapping_add(start), y: y.as_ptr().wrapping_add(start) }
    }));
    assert!(covered, "every column must cover the view's {end} objects");
}

/// Dimension-major input: the lanes are read in place. Full blocks read
/// through the column table [`resolve_columns`] built at the start of
/// the scan; the partial last block, which reaches each dimension at
/// most once, slices its lanes from the columns with checks. Built and
/// dropped inside one `columns_on` call, which borrows the columns
/// throughout.
struct ColumnLanes<'a, 'c> {
    cols: PairedColumns<'c>,
    /// [`Relation::x_is_hi`].
    x_is_hi: bool,
    /// Per dimension, columns holding at least `cols.len()` scalars from
    /// the pointers on ([`resolve_columns`] checked them); empty when
    /// the view holds no full block.
    pairs: &'a [ColumnPair],
}

impl Lanes for ColumnLanes<'_, '_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.cols.len
    }

    #[inline(always)]
    unsafe fn full(&mut self, start: usize, d: usize) -> (&[Scalar; BLOCK], &[Scalar; BLOCK]) {
        let ColumnPair { x, y } = self.pairs[d];
        // SAFETY: the caller keeps `start + BLOCK ≤ self.len()`, so the
        // view holds a full block and `columns_on` had `resolve_columns`
        // assert that both columns hold `self.len()` scalars from `x` and
        // `y` on: both blocks lie inside their columns, which stay
        // borrowed and unmodified while the lanes live.
        unsafe {
            (&*x.add(start).cast::<[Scalar; BLOCK]>(), &*y.add(start).cast::<[Scalar; BLOCK]>())
        }
    }

    #[inline(always)]
    fn partial(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]) {
        let (x, y) = if self.x_is_hi { (2 * d + 1, 2 * d) } else { (2 * d, 2 * d + 1) };
        let lanes = self.cols.start + start..self.cols.start + start + len;
        (&self.cols.cols[x][lanes.clone()], &self.cols.cols[y][lanes])
    }
}

/// Row-major input: one dimension of the block's rows is gathered into
/// the scratch tiles first.
struct RowLanes<'a> {
    flat: &'a [Scalar],
    /// Scalars per row (`2·dims`).
    width: usize,
    x_is_hi: bool,
    tile_x: &'a mut [Scalar; BLOCK],
    tile_y: &'a mut [Scalar; BLOCK],
}

impl RowLanes<'_> {
    /// Gathers dimension `d` of rows `start..start + len` into the first
    /// `len` lanes of the tiles.
    #[inline(always)]
    fn gather(&mut self, start: usize, len: usize, d: usize) {
        let (x_at, y_at) = if self.x_is_hi { (2 * d + 1, 2 * d) } else { (2 * d, 2 * d + 1) };
        let rows = &self.flat[start * self.width..(start + len) * self.width];
        let tiles = self.tile_x.iter_mut().zip(self.tile_y.iter_mut());
        for ((tx, ty), row) in tiles.zip(rows.chunks_exact(self.width)) {
            *tx = row[x_at];
            *ty = row[y_at];
        }
    }
}

impl Lanes for RowLanes<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.flat.len() / self.width
    }

    #[inline(always)]
    unsafe fn full(&mut self, start: usize, d: usize) -> (&[Scalar; BLOCK], &[Scalar; BLOCK]) {
        self.gather(start, BLOCK, d);
        (self.tile_x, self.tile_y)
    }

    #[inline(always)]
    fn partial(&mut self, start: usize, len: usize, d: usize) -> (&[Scalar], &[Scalar]) {
        self.gather(start, len, d);
        (&self.tile_x[..len], &self.tile_y[..len])
    }
}

/// Survivors of the block of `len` objects at `start`: per dimension,
/// AND the pass word into the block's mask and add the objects still
/// alive to `dims_checked`; a mask that reaches zero skips the remaining
/// dimensions. `FULL` blocks (`len == BLOCK`) take the tier's fixed
/// [`Compare::full_word`], the partial one its masked [`Compare::word`].
///
/// # Safety
///
/// The CPU must support `C`'s instruction set, `start + len ≤
/// lanes.len()`, and `len == BLOCK` exactly when `FULL`.
#[inline(always)]
unsafe fn survivors<const FULL: bool, C: Compare, L: Lanes>(
    lanes: &mut L,
    start: usize,
    len: usize,
    t1s: &[Scalar],
    t2s: &[Scalar],
    dims_checked: &mut u64,
) -> u64 {
    let mut word = lane_mask(len);
    for (d, (&t1, &t2)) in t1s.iter().zip(t2s).enumerate() {
        let alive = word.count_ones() as u64;
        if alive == 0 {
            break;
        }
        *dims_checked += alive;
        // SAFETY: the caller vouches for the tier and the block's range.
        word &= unsafe {
            if FULL {
                let (x, y) = lanes.full(start, d);
                C::full_word(x, y, t1, t2)
            } else {
                let (x, y) = lanes.partial(start, len, d);
                C::word(x, y, t1, t2)
            }
        };
    }
    word
}

/// Appends the objects of `word`'s set bits, numbered from `start`.
#[inline(always)]
fn push_matches(matches: &mut Vec<u32>, start: usize, mut word: u64) {
    while word != 0 {
        matches.push((start + word.trailing_zeros() as usize) as u32);
        word &= word - 1;
    }
}

/// The blocked kernel: every full block of [`BLOCK`] objects, then the
/// partial last one, through [`survivors`]; survivor counting is a
/// popcount and a block with no survivors skips its remaining
/// dimensions.
///
/// # Safety
///
/// The CPU must support `C`'s instruction set.
#[inline(always)]
unsafe fn scan_blocks<C: Compare, L: Lanes>(
    lanes: &mut L,
    t1s: &[Scalar],
    t2s: &[Scalar],
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let n = lanes.len();
    let full_end = n - n % BLOCK;
    matches.clear();
    let mut dims_checked = 0u64;
    for start in (0..full_end).step_by(BLOCK) {
        // SAFETY: `start + BLOCK ≤ full_end ≤ n`; the caller vouches for
        // the tier.
        let word = unsafe {
            survivors::<true, C, L>(lanes, start, BLOCK, t1s, t2s, &mut dims_checked)
        };
        push_matches(matches, start, word);
    }
    if full_end < n {
        // SAFETY: the partial block is `full_end..n`, `n - full_end <
        // BLOCK`; the caller vouches for the tier.
        let word = unsafe {
            survivors::<false, C, L>(lanes, full_end, n - full_end, t1s, t2s, &mut dims_checked)
        };
        push_matches(matches, full_end, word);
    }
    ScanOutcome {
        objects: n,
        matched: matches.len(),
        dims_checked,
    }
}

/// [`scan_blocks`] compiled with AVX2 (and `popcnt`) enabled, so the
/// tier's intrinsics inline into the block loop.
///
/// # Safety
///
/// The CPU must support AVX2 and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn scan_avx2<L: Lanes>(
    lanes: &mut L,
    t1s: &[Scalar],
    t2s: &[Scalar],
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    // SAFETY: the caller vouches for the CPU.
    unsafe { scan_blocks::<x86::Avx2, L>(lanes, t1s, t2s, matches) }
}

/// Runs one whole scan on `tier` — the only dispatch of a scan.
///
/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn scan_on<L: Lanes>(
    tier: Tier,
    bounds: &QueryBounds,
    lanes: &mut L,
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let (t1s, t2s) = if bounds.rel.t1_is_a() {
        (&bounds.qa[..], &bounds.qb[..])
    } else {
        (&bounds.qb[..], &bounds.qa[..])
    };
    // SAFETY: the caller vouches that the CPU supports `tier`.
    unsafe {
        match tier {
            Tier::Portable => scan_blocks::<Portable, L>(lanes, t1s, t2s, matches),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => scan_avx2(lanes, t1s, t2s, matches),
        }
    }
}

/// Scans a dimension-major column set against the query, leaving the
/// matching indices in `scratch.matches()`.
///
/// Match set, match order, and [`ScanOutcome::dims_checked`] are
/// bit-identical to calling [`SpatialQuery::matches_flat`] on every
/// object in storage order.
///
/// ```
/// use acx_geom::scan::{scan_columns, PairedColumns, ScanScratch};
/// use acx_geom::SpatialQuery;
///
/// // Two 1-d objects: [0.0, 0.4] and [0.6, 0.9].
/// let cols = vec![vec![0.0, 0.6], vec![0.4, 0.9]];
/// let mut scratch = ScanScratch::new();
/// let q = SpatialQuery::point_enclosing(vec![0.25]);
/// let outcome = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
/// assert_eq!(outcome.matched, 1);
/// assert_eq!(scratch.matches(), &[0]);
/// ```
pub fn scan_columns(
    query: &SpatialQuery,
    cols: &PairedColumns<'_>,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let ScanScratch { matches, bounds, columns, .. } = scratch;
    bounds.load(query);
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { columns_on(Tier::best(), bounds, cols, columns, matches) }
}

/// [`scan_columns`] for a query whose bounds the caller already loaded:
/// same outcome, without copying the bounds again.
pub fn scan_columns_loaded(
    bounds: &QueryBounds,
    cols: &PairedColumns<'_>,
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let ScanScratch { matches, columns, .. } = scratch;
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { columns_on(Tier::best(), bounds, cols, columns, matches) }
}

/// Resolves the view's columns once if it holds a full block
/// ([`resolve_columns`]: the length check), and scans them on `tier`.
///
/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn columns_on(
    tier: Tier,
    bounds: &QueryBounds,
    cols: &PairedColumns<'_>,
    columns: &mut Vec<ColumnPair>,
    matches: &mut Vec<u32>,
) -> ScanOutcome {
    let x_is_hi = bounds.rel.x_is_hi();
    if cols.len() >= BLOCK {
        resolve_columns(cols, bounds.dims(), x_is_hi, columns);
    } else {
        columns.clear();
    }
    let mut lanes = ColumnLanes { cols: *cols, x_is_hi, pairs: columns };
    // SAFETY: the caller vouches for the tier.
    unsafe { scan_on(tier, bounds, &mut lanes, matches) }
}

/// Scans objects stored as interleaved flat `[lo0, hi0, lo1, hi1, …]`
/// coordinates — used by access methods whose native layout is
/// row-major (R*-tree leaf pages).
///
/// Columns are gathered **lazily**, one [`BLOCK`]-sized tile per
/// (block, dimension), only while the block still has survivors: a
/// block rejected in its first dimensions never pays the gather for the
/// remaining ones, preserving the early-exit economics the scalar
/// per-entry loop had on row-major data. Accounting is bit-identical to
/// [`scan_columns`] and to per-object [`SpatialQuery::matches_flat`].
pub fn scan_interleaved(
    query: &SpatialQuery,
    flat: &[Scalar],
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    // SAFETY: `Tier::best` names AVX2 only after detecting it and `popcnt`.
    unsafe { interleaved_on(Tier::best(), query, flat, scratch) }
}

/// # Safety
///
/// `tier` must be [`Tier::Portable`] or [`Tier::best`].
unsafe fn interleaved_on(
    tier: Tier,
    query: &SpatialQuery,
    flat: &[Scalar],
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let width = 2 * query.dims();
    assert!(width > 0 && flat.len().is_multiple_of(width), "coordinate arity mismatch");
    let ScanScratch { matches, bounds, tile_x, tile_y, .. } = scratch;
    bounds.load(query);
    tile_x.resize(BLOCK, 0.0);
    tile_y.resize(BLOCK, 0.0);
    let x_is_hi = bounds.rel.x_is_hi();
    let tile_x = (&mut tile_x[..]).try_into().expect("a tile holds one block");
    let tile_y = (&mut tile_y[..]).try_into().expect("a tile holds one block");
    let mut lanes = RowLanes { flat, width, x_is_hi, tile_x, tile_y };
    // SAFETY: the caller vouches for the tier.
    unsafe { scan_on(tier, bounds, &mut lanes, matches) }
}

/// Whether the CPU supports AVX2 (detected once, cached) — the runtime
/// gate of this module's AVX2 tier (`Tier::best`) and of the
/// reorganization benefit column's AVX2 clone in `acx_core`.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx2_detected() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HyperRect, SpatialRelation};

    /// Builds paired columns from interleaved flat coordinates.
    fn columns(flat: &[Scalar], dims: usize) -> Vec<Vec<Scalar>> {
        let width = 2 * dims;
        let n = flat.len() / width;
        let mut cols = vec![Vec::with_capacity(n); width];
        for row in flat.chunks_exact(width) {
            for (k, &v) in row.iter().enumerate() {
                cols[k].push(v);
            }
        }
        cols
    }

    /// The scalar oracle: per-object `matches_flat` in storage order.
    fn oracle(query: &SpatialQuery, flat: &[Scalar], dims: usize) -> (Vec<u32>, u64) {
        let width = 2 * dims;
        let mut matches = Vec::new();
        let mut dims_checked = 0u64;
        for (i, row) in flat.chunks_exact(width).enumerate() {
            let out = query.matches_flat(row);
            dims_checked += out.dims_checked as u64;
            if out.matched {
                matches.push(i as u32);
            }
        }
        (matches, dims_checked)
    }

    /// The tiers this CPU runs, worst to best.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if Tier::best() != Tier::Portable {
            tiers.push(Tier::best());
        }
        tiers
    }

    /// [`scan_columns`] on a chosen tier.
    fn scan_columns_on(
        tier: Tier,
        query: &SpatialQuery,
        view: &PairedColumns<'_>,
        scratch: &mut ScanScratch,
    ) -> ScanOutcome {
        let ScanScratch { matches, bounds, columns, .. } = scratch;
        bounds.load(query);
        // SAFETY: `tiers()` yields only `Tier::Portable` and `Tier::best()`.
        unsafe { columns_on(tier, bounds, view, columns, matches) }
    }

    fn assert_agrees(query: &SpatialQuery, flat: &[Scalar], dims: usize) {
        let cols = columns(flat, dims);
        let mut scratch = ScanScratch::new();
        let got = scan_columns(query, &PairedColumns::new(&cols), &mut scratch);
        let (want_matches, want_checked) = oracle(query, flat, dims);
        assert_eq!(scratch.matches(), &want_matches[..], "match set diverged");
        assert_eq!(got.dims_checked, want_checked, "dims_checked diverged");
        assert_eq!(got.matched, want_matches.len());
        assert_eq!(got.objects, flat.len() / (2 * dims));

        let via_rows = scan_interleaved(query, flat, &mut scratch);
        assert_eq!(via_rows, got, "interleaved adapter diverged");
        assert_eq!(scratch.matches(), &want_matches[..]);
    }

    #[test]
    fn empty_segment_scans_to_nothing() {
        let cols: Vec<Vec<Scalar>> = vec![Vec::new(); 4];
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
        let out = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
        assert_eq!(out, ScanOutcome { objects: 0, matched: 0, dims_checked: 0 });
        assert!(scratch.matches().is_empty());
    }

    #[test]
    fn all_relations_agree_with_scalar_on_handpicked_objects() {
        let dims = 2;
        // Includes boundary-coincident edges (objects touching the window).
        let flat = [
            0.1, 0.3, 0.1, 0.3, // inside
            0.3, 0.7, 0.3, 0.7, // equals the window
            0.0, 0.3, 0.0, 0.3, // touches the window corner
            0.71, 0.9, 0.0, 1.0, // fails dim 0
            0.3, 0.7, 0.8, 0.9, // fails dim 1
            0.0, 1.0, 0.0, 1.0, // covers everything
        ];
        let w = HyperRect::from_bounds(&[0.3, 0.3], &[0.7, 0.7]).unwrap();
        for rel in SpatialRelation::ALL {
            assert_agrees(&SpatialQuery::with_relation(rel, w.clone()), &flat, dims);
        }
        assert_agrees(&SpatialQuery::point_enclosing(vec![0.3, 0.3]), &flat, dims);
    }

    #[test]
    fn block_boundaries_are_handled() {
        // Sizes around the BLOCK granularity, one dimension.
        for n in [1usize, 63, 64, 65, 128, 130] {
            let flat: Vec<Scalar> = (0..n)
                .flat_map(|i| {
                    let x = i as Scalar / n as Scalar;
                    [x, x + 0.01]
                })
                .collect();
            assert_agrees(&SpatialQuery::point_enclosing(vec![0.5]), &flat, 1);
            let w = HyperRect::from_bounds(&[0.25], &[0.75]).unwrap();
            assert_agrees(&SpatialQuery::intersection(w), &flat, 1);
        }
    }

    #[test]
    fn verified_bytes_accounts_id_and_checked_dims() {
        let out = ScanOutcome { objects: 3, matched: 1, dims_checked: 5 };
        assert_eq!(out.verified_bytes(), 3 * OBJECT_ID_BYTES as u64 + 40);
    }

    #[test]
    fn scratch_is_reusable_across_queries_and_sizes() {
        let mut scratch = ScanScratch::new();
        for n in [100usize, 10, 300] {
            let flat: Vec<Scalar> = (0..n).flat_map(|i| {
                let x = (i % 17) as Scalar / 17.0;
                [x, x + 0.1, 0.0, 1.0]
            }).collect();
            assert_agrees(&SpatialQuery::point_enclosing(vec![0.2, 0.5]), &flat, 2);
            let cols = columns(&flat, 2);
            let q = SpatialQuery::point_enclosing(vec![0.2, 0.5]);
            let out = scan_columns(&q, &PairedColumns::new(&cols), &mut scratch);
            assert_eq!(out.objects, n);
        }
    }

    #[test]
    fn paired_columns_subrange_sees_a_window() {
        let flat = [0.1, 0.2, 0.4, 0.5, 0.7, 0.8];
        let cols = columns(&flat, 1);
        let view = PairedColumns::slice(&cols, 1, 2);
        assert_eq!(view.len(), 2);
        assert_eq!(view.lo_col(0), &[0.4, 0.7]);
        assert_eq!(view.hi_col(0), &[0.5, 0.8]);
        let mut scratch = ScanScratch::new();
        let q = SpatialQuery::point_enclosing(vec![0.45]);
        let out = scan_columns(&q, &view, &mut scratch);
        assert_eq!(out.matched, 1);
        assert_eq!(scratch.matches(), &[0]); // index relative to the range
    }

    #[test]
    #[should_panic(expected = "every column must cover")]
    fn short_column_is_rejected_at_view_construction() {
        let mut cols = columns(&[0.1, 0.2, 0.4, 0.5, 0.7, 0.8], 1);
        cols[1].pop();
        let _ = PairedColumns::new(&cols);
    }

    /// A view built without comparing column lengths
    /// ([`PairedColumns::of_equal_columns`]) over one short column panics
    /// at the start of the scan on every tier — in the full-block and in
    /// the partial-block position — instead of reading past the column.
    #[test]
    #[should_panic(expected = "every column must cover")]
    fn short_column_panics_in_the_scan_on_every_tier() {
        let q = SpatialQuery::point_enclosing(vec![0.5, 0.5]);
        for n in [64usize, 65, 130] {
            // The view takes the first column's length, so any later one
            // can be the short one.
            for short in 1..4 {
                let mut cols = vec![vec![0.0; n], vec![1.0; n], vec![0.0; n], vec![1.0; n]];
                cols[short].pop();
                let view = PairedColumns::of_equal_columns(&cols);
                for tier in tiers() {
                    let scan = std::panic::AssertUnwindSafe(|| {
                        scan_columns_on(tier, &q, &view, &mut ScanScratch::new())
                    });
                    let message = *std::panic::catch_unwind(scan)
                        .expect_err("a short column must panic")
                        .downcast::<String>()
                        .expect("a formatted panic message");
                    assert!(message.contains("every column must cover"), "{tier:?}: {message}");
                }
            }
        }
        let cols = vec![vec![0.0; 64], vec![1.0; 63], vec![0.0; 64], vec![1.0; 64]];
        let _ = scan_columns(&q, &PairedColumns::of_equal_columns(&cols), &mut ScanScratch::new());
    }

    /// Every tier the CPU reports computes what per-object
    /// `matches_flat` computes — matches, their order and `dims_checked`
    /// — through both entry points, at every block-boundary size and
    /// with query bounds that coincide with object edges (all
    /// coordinates sit on a 1/8 grid); and so does a sub-view of the same
    /// objects at an unaligned or block-aligned offset into padded
    /// columns.
    #[test]
    fn every_tier_agrees_with_scalar_oracle() {
        let tiers = tiers();
        println!("tiers exercised: {tiers:?}");
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut grid = |below: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let mut matched_by_kind = [0usize; 4];
        for dims in 1..=16usize {
            let edges: Vec<(u64, u64)> = (0..dims)
                .map(|_| {
                    let lo = grid(4);
                    (lo, lo + 1 + grid(4))
                })
                .collect();
            let a: Vec<Scalar> = edges.iter().map(|e| e.0 as Scalar / 8.0).collect();
            let b: Vec<Scalar> = edges.iter().map(|e| e.1 as Scalar / 8.0).collect();
            let window = HyperRect::from_bounds(&a, &b).unwrap();
            let queries = [
                SpatialQuery::intersection(window.clone()),
                SpatialQuery::containment(window.clone()),
                SpatialQuery::enclosure(window),
                SpatialQuery::point_enclosing(a.clone()),
            ];
            for n in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000] {
                let mut flat = Vec::with_capacity(n * 2 * dims);
                for i in 0..n {
                    for &edge in &edges {
                        // Every fifth object equals the window (on every
                        // edge at once); the others are mostly wide.
                        let (lo, hi) = match (i % 5, grid(8)) {
                            (0, _) => edge,
                            (_, 0) => (grid(9), grid(9)),
                            _ => (grid(3), 6 + grid(3)),
                        };
                        let (lo, hi) = (lo.min(hi), lo.max(hi));
                        flat.extend([lo as Scalar / 8.0, hi as Scalar / 8.0]);
                    }
                }
                let cols = columns(&flat, dims);
                // The same objects behind `start` padding objects (which
                // match every query) and before three more.
                let padded = |start: usize| {
                    let pad = |count: usize| (0..count * dims).flat_map(|_| [0.0, 1.0]);
                    let rows: Vec<Scalar> =
                        pad(start).chain(flat.iter().copied()).chain(pad(3)).collect();
                    columns(&rows, dims)
                };
                let shifted: Vec<(usize, Vec<Vec<Scalar>>)> =
                    [1, 63, 64, 65].into_iter().map(|start| (start, padded(start))).collect();
                for (kind, query) in queries.iter().enumerate() {
                    let (want_matches, want_checked) = oracle(query, &flat, dims);
                    matched_by_kind[kind] += want_matches.len();
                    let want = ScanOutcome {
                        objects: n,
                        matched: want_matches.len(),
                        dims_checked: want_checked,
                    };
                    for &tier in &tiers {
                        let mut scratch = ScanScratch::new();
                        let got =
                            scan_columns_on(tier, query, &PairedColumns::new(&cols), &mut scratch);
                        assert_eq!(got, want, "{tier:?} columns, {dims} dims, n = {n}, {query:?}");
                        assert_eq!(scratch.matches(), &want_matches[..], "{tier:?} columns");
                        for (start, cols) in &shifted {
                            let view = PairedColumns::slice(cols, *start, n);
                            let got = scan_columns_on(tier, query, &view, &mut scratch);
                            let at = format!("{tier:?} view at {start}, {dims} dims, n = {n}");
                            assert_eq!(got, want, "{at}, {query:?}");
                            assert_eq!(scratch.matches(), &want_matches[..], "{at}");
                        }
                        // SAFETY: `tiers()` yields only `Tier::Portable`
                        // and `Tier::best()`.
                        let got = unsafe { interleaved_on(tier, query, &flat, &mut scratch) };
                        assert_eq!(got, want, "{tier:?} rows, {dims} dims, n = {n}, {query:?}");
                        assert_eq!(scratch.matches(), &want_matches[..], "{tier:?} rows");
                    }
                }
            }
        }
        assert!(matched_by_kind.iter().all(|&m| m > 0), "vacuous: {matched_by_kind:?}");
    }

    #[test]
    fn pack_tile_gathers_bytes_to_bits() {
        let mut tile = [0u8; BLOCK];
        tile[0] = 1;
        tile[7] = 1;
        tile[8] = 1;
        tile[63] = 1;
        assert_eq!(pack_tile(&tile), (1 << 0) | (1 << 7) | (1 << 8) | (1 << 63));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{HyperRect, Interval, SpatialRelation};
    use proptest::prelude::*;

    /// A coordinate grid coarse enough that boundary-coincident edges
    /// (object bound == query bound) occur constantly.
    fn coord() -> impl Strategy<Value = Scalar> {
        (0u8..=8).prop_map(|k| k as Scalar / 8.0)
    }

    fn window(dims: usize) -> impl Strategy<Value = HyperRect> {
        prop::collection::vec((coord(), coord()), dims).prop_map(|pairs| {
            let intervals = pairs
                .into_iter()
                .map(|(a, b)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    Interval::new_unchecked(lo, hi)
                })
                .collect::<Vec<_>>();
            HyperRect::new(intervals).unwrap()
        })
    }

    proptest! {
        /// The columnar kernel returns the same match set, in the same
        /// order, with the same total `dims_checked` as object-at-a-time
        /// `matches_flat`, for every query kind and 1–8 dimensions.
        #[test]
        fn kernel_agrees_with_scalar_oracle(
            dims in 1usize..=8,
            seed_pairs in prop::collection::vec((coord(), coord()), 0..220),
            win in window(8),
            point in prop::collection::vec(coord(), 8),
            kind in 0usize..4,
        ) {
            // Build n complete rows of `2·dims` scalars.
            let n = seed_pairs.len() / dims;
            let mut flat = Vec::with_capacity(n * 2 * dims);
            for row in seed_pairs.chunks_exact(dims) {
                for &(a, b) in row {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    flat.push(lo);
                    flat.push(hi);
                }
            }
            let win = HyperRect::new(
                (0..dims).map(|d| *win.interval(d)).collect::<Vec<_>>()
            ).unwrap();
            let query = match kind {
                0 => SpatialQuery::with_relation(SpatialRelation::Intersection, win),
                1 => SpatialQuery::with_relation(SpatialRelation::Containment, win),
                2 => SpatialQuery::with_relation(SpatialRelation::Enclosure, win),
                _ => SpatialQuery::point_enclosing(point[..dims].to_vec()),
            };

            let width = 2 * dims;
            let mut cols = vec![Vec::with_capacity(n); width];
            for row in flat.chunks_exact(width) {
                for (k, &v) in row.iter().enumerate() {
                    cols[k].push(v);
                }
            }
            let mut scratch = ScanScratch::new();
            let got = scan_columns(&query, &PairedColumns::new(&cols), &mut scratch);

            let mut want_matches = Vec::new();
            let mut want_checked = 0u64;
            for (i, row) in flat.chunks_exact(width).enumerate() {
                let out = query.matches_flat(row);
                want_checked += out.dims_checked as u64;
                if out.matched {
                    want_matches.push(i as u32);
                }
            }
            prop_assert_eq!(scratch.matches(), &want_matches[..]);
            prop_assert_eq!(got.dims_checked, want_checked);
            prop_assert_eq!(got.matched, want_matches.len());

            let via_rows = scan_interleaved(&query, &flat, &mut scratch);
            prop_assert_eq!(via_rows, got);
            prop_assert_eq!(scratch.matches(), &want_matches[..]);
        }

        /// Storage order is no input of a scan: on every tier, any
        /// permutation of a segment's objects gives the same
        /// [`ScanOutcome`] — `dims_checked` included — and the same set of
        /// matching objects. Only the pass words spent may differ, which
        /// is what lets a store order its members for speed alone.
        #[test]
        fn storage_order_changes_no_outcome_on_any_tier(
            dims in 1usize..=6,
            pairs in prop::collection::vec((coord(), coord()), 0..1200),
            win in window(6),
            point in prop::collection::vec(coord(), 6),
            kind in 0usize..4,
            shuffle in 0u64..u64::MAX,
        ) {
            let width = 2 * dims;
            let rows: Vec<Vec<Scalar>> = pairs
                .chunks_exact(dims)
                .map(|row| row.iter().flat_map(|&(a, b)| [a.min(b), a.max(b)]).collect())
                .collect();
            let win = HyperRect::new(
                (0..dims).map(|d| *win.interval(d)).collect::<Vec<_>>()
            ).unwrap();
            let query = match kind {
                0 => SpatialQuery::intersection(win),
                1 => SpatialQuery::containment(win),
                2 => SpatialQuery::enclosure(win),
                _ => SpatialQuery::point_enclosing(point[..dims].to_vec()),
            };
            // A Fisher–Yates shuffle of the row numbers.
            let mut order: Vec<usize> = (0..rows.len()).collect();
            let mut state = shuffle | 1;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let columns_in = |order: &[usize]| {
                let mut cols = vec![Vec::with_capacity(order.len()); width];
                for &row in order {
                    for (col, &v) in cols.iter_mut().zip(&rows[row]) {
                        col.push(v);
                    }
                }
                cols
            };
            let stored: Vec<usize> = (0..rows.len()).collect();
            let mut tiers = vec![Tier::Portable];
            if Tier::best() != Tier::Portable {
                tiers.push(Tier::best());
            }
            for tier in tiers {
                let mut outcomes = Vec::new();
                for order in [&stored, &order] {
                    let cols = columns_in(order);
                    let mut scratch = ScanScratch::new();
                    let ScanScratch { matches, bounds, columns, .. } = &mut scratch;
                    bounds.load(&query);
                    // SAFETY: `tier` is `Tier::Portable` or `Tier::best()`.
                    let outcome = unsafe {
                        columns_on(tier, bounds, &PairedColumns::new(&cols), columns, matches)
                    };
                    let mut matched: Vec<usize> =
                        scratch.matches().iter().map(|&i| order[i as usize]).collect();
                    matched.sort_unstable();
                    outcomes.push((outcome, matched));
                }
                prop_assert_eq!(&outcomes[0], &outcomes[1], "{:?}", tier);
            }
        }
    }
}
